"""Shared independent oracles for the test suite.

Everything here deliberately avoids the library's main evaluation paths:
closed-form eigenfunctions go through the unnormalized Hermite recurrence
with explicit factorials, the x-ladder coefficients and the kinetic element
in its second-derivative form are written out from their formulas,
eigenvalues of tiny matrices come from bisection on
the characteristic polynomial evaluated by cofactor expansion, the harmonic
and quartic potential matrices come from their hand-derived closed forms, and
exact potential matrix entries come from the x ladder composed in 40-digit
decimal arithmetic, as do reference basis tables past the point where
exp(-alpha x^2 / 2) underflows.  The per-element quadrature oracle is also
written out here as two `inner_product` calls on the scalar evaluators, and
implicit-shift QL as the textbook loop that rotates two rows of z^T after
every rotation, and Numerov level refinement as plain bisection with one
scalar shoot per midpoint.
"""

import decimal
import math

import numpy as np

from hgritz import (ConvergenceError, basis_derivative, basis_value,
                    gauss_hermite_rule, inner_product, numerov)
from hgritz.basis import check_index
from hgritz.eigensolver import _EPS, _MAX_SWEEPS

#: Cap for the unnormalized Hermite path (textbook-value range): H_s and
#: 2^s s! blow up long before phi_s does.
HERMITE_EVAL_MAX = 30


def hermite_eval(s, y):
    """Hermite polynomial H_s(y) by the upward recurrence.

    H_0 = 1, H_1 = 2y, H_{s+1} = 2 y H_s - 2 s H_{s-1}.  Accepts scalar or
    array y; s is capped at HERMITE_EVAL_MAX.
    """
    s = check_index(s, cap=HERMITE_EVAL_MAX + 1)
    arr = np.asarray(y, dtype=float)
    yv = np.atleast_1d(arr)
    h_prev = np.ones_like(yv)
    h = h_prev if s == 0 else 2.0 * yv
    for k in range(1, s):
        h, h_prev = 2.0 * yv * h - 2.0 * k * h_prev, h
    return float(h[0]) if arr.ndim == 0 else h


def x_recurrence_coeffs(r, alpha):
    """Coefficients (up, down) with x phi_r = up phi_{r+1} + down phi_{r-1}.

    up = sqrt(r+1) / sqrt(2 alpha), down = sqrt(r) / sqrt(2 alpha).
    """
    r = check_index(r)
    root = math.sqrt(2.0 * float(alpha))
    return math.sqrt(r + 1) / root, math.sqrt(r) / root


def _second_derivative(spec, s, x):
    # phi_s'' from two applications of the derivative ladder:
    # (alpha/2) [sqrt(s(s-1)) phi_{s-2} - (2s+1) phi_s + sqrt((s+1)(s+2)) phi_{s+2}]
    out = -(2.0 * s + 1.0) * basis_value(spec, s, x)
    if s >= 2:
        out = out + math.sqrt(s * (s - 1.0)) * basis_value(spec, s - 2, x)
    out = out + math.sqrt((s + 1.0) * (s + 2.0)) * basis_value(spec, s + 2, x)
    return 0.5 * spec.alpha * out


def kinetic_second_form(spec, r, s, rule=None):
    """Kinetic element via -(hbar^2/2m) (phi_r, phi_s''), as a cross-check.

    Secondary route only; the first-derivative form in element_oracle is the
    primary oracle.
    """
    r = check_index(r)
    s = check_index(s)
    if rule is None:
        rule = gauss_hermite_rule(r + s + 8)
    scale = spec.hbar**2 / (2.0 * spec.mass)
    return -scale * inner_product(
        spec,
        lambda x: basis_value(spec, r, x),
        lambda x: _second_derivative(spec, s, x),
        rule)


def element_by_inner_products(spec, pot, r, s, rule):
    """(t_rs, v_rs) as two `inner_product` calls on basis_derivative and basis_value.

    The per-element definition the batched oracle rows must reproduce bit
    for bit: kinetic (hbar^2/2m) (phi_r', phi_s'), potential (phi_r, V phi_s).
    """
    scale = spec.hbar**2 / (2.0 * spec.mass)
    t_rs = scale * inner_product(
        spec,
        lambda x: basis_derivative(spec, r, x),
        lambda x: basis_derivative(spec, s, x),
        rule)
    v_rs = inner_product(
        spec,
        lambda x: basis_value(spec, r, x),
        lambda x: pot.value(x, mass=spec.mass) * basis_value(spec, s, x),
        rule)
    return t_rs, v_rs


def oscillator_state_closed_form(r, x, alpha=1.0):
    """Normalized oscillator eigenfunction from the textbook closed form.

    (alpha/pi)^(1/4) / sqrt(2^r r!) * H_r(x sqrt(alpha)) * exp(-alpha x^2/2),
    valid for r small enough that 2^r r! stays in range.
    """
    xv = np.asarray(x, dtype=float)
    norm = (alpha / math.pi) ** 0.25 / math.sqrt(2.0**r * math.factorial(r))
    return norm * hermite_eval(r, xv * math.sqrt(alpha)) * np.exp(-0.5 * alpha * xv * xv)


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0.0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1.0) ** j * m[0][j] * _det(minor)
    return total


def charpoly_eigenvalues(a, samples=8001):
    """Roots of det(a - x I) by sign-change bisection between Gershgorin bounds.

    Intended for small matrices (n <= 4) with well-separated eigenvalues;
    raises if the scan does not isolate exactly n simple roots.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    radius = max(abs(a[i, i]) + sum(abs(a[i, j]) for j in range(n) if j != i)
                 for i in range(n))
    lo, hi = -radius - 1.0, radius + 1.0
    eye = np.eye(n)

    def p(x):
        return _det((a - x * eye).tolist())

    xs = np.linspace(lo, hi, samples)
    vals = np.array([p(x) for x in xs])
    roots = []
    for k in range(samples - 1):
        va, vb = vals[k], vals[k + 1]
        if va == 0.0:
            roots.append(xs[k])
            continue
        if np.sign(va) == np.sign(vb):
            continue
        left, right, fl = xs[k], xs[k + 1], va
        for _ in range(80):
            mid = 0.5 * (left + right)
            fm = p(mid)
            if fm == 0.0:
                left = right = mid
                break
            if np.sign(fm) == np.sign(fl):
                left, fl = mid, fm
            else:
                right = mid
        roots.append(0.5 * (left + right))
    if len(roots) != n:
        raise AssertionError(f"charpoly scan found {len(roots)} roots, expected {n}")
    return np.array(sorted(roots))


def harmonic_bands(alpha, mass, omega, dim):
    """Bands of (1/2) m omega^2 x^2 from the closed form, v = m omega^2 / 4 alpha:

        V_rr = v (2r + 1),   V_{r,r+2} = v sqrt((r+1)(r+2)).
    """
    v = mass * omega**2 / (4.0 * alpha)
    r = np.arange(dim, dtype=float)
    bands = [v * (2.0 * r + 1.0)]
    if dim >= 2:
        bands.append(np.zeros(dim - 1))
    if dim >= 3:
        rr = np.arange(dim - 2, dtype=float)
        bands.append(v * np.sqrt((rr + 1.0) * (rr + 2.0)))
    return bands


def quartic_band4(r, alpha, lam):
    """Band-4 coupling of lam x^4 from the four-fold x ladder."""
    rr = np.asarray(r, dtype=float)
    q = lam / (4.0 * alpha**2)
    return q * np.sqrt((rr + 1.0) * (rr + 2.0) * (rr + 3.0) * (rr + 4.0))


def quartic_bands(alpha, lam, dim):
    """Bands of lam x^4 from the closed form, q = lam / 4 alpha^2:

        V_rr = 3q (2r^2 + 2r + 1),   V_{r,r+2} = 2q (2r + 3) sqrt((r+1)(r+2)),
        V_{r,r+4} = q sqrt((r+1)(r+2)(r+3)(r+4)).
    """
    q = lam / (4.0 * alpha**2)
    r = np.arange(dim, dtype=float)
    bands = [3.0 * q * (2.0 * r * r + 2.0 * r + 1.0)]
    if dim >= 2:
        bands.append(np.zeros(dim - 1))
    if dim >= 3:
        rr = np.arange(dim - 2, dtype=float)
        bands.append(2.0 * q * (2.0 * rr + 3.0) * np.sqrt((rr + 1.0) * (rr + 2.0)))
    if dim >= 4:
        bands.append(np.zeros(dim - 3))
    if dim >= 5:
        bands.append(quartic_band4(np.arange(dim - 4), alpha, lam))
    return bands


def exact_potential_entries(alpha, coeffs, dim, digits=40):
    """{(r, s): V_rs} for r <= s < dim of V = sum_k coeffs[k] x^(2k), in decimal.

    Composes the x ladder, x_{r,r+1} = sqrt((r+1) / 2 alpha), on a basis
    padded by 2K indices (K = len(coeffs) - 1) so that no retained entry
    loses a path through the truncation; each power is kept as a sparse
    dict of its nonzero entries.  Coefficients and alpha enter exactly.
    """
    ctx = decimal.Context(prec=digits)
    kmax = len(coeffs) - 1
    pad = dim + 2 * kmax
    two_alpha = 2 * decimal.Decimal(alpha)
    ladder = [ctx.sqrt(ctx.divide(decimal.Decimal(i + 1), two_alpha)) for i in range(pad - 1)]
    power = {(i, i): decimal.Decimal(1) for i in range(pad)}
    total = {}
    for k, c in enumerate(coeffs):
        if k:
            for _ in range(2):
                step = {}
                for (i, j), value in power.items():
                    if j > 0:
                        step[i, j - 1] = ctx.add(step.get((i, j - 1), 0),
                                                 ctx.multiply(value, ladder[j - 1]))
                    if j + 1 < pad:
                        step[i, j + 1] = ctx.add(step.get((i, j + 1), 0),
                                                 ctx.multiply(value, ladder[j]))
                power = step
        if c:
            for (i, j), value in power.items():
                if i <= j < dim:
                    total[i, j] = ctx.add(total.get((i, j), 0),
                                          ctx.multiply(decimal.Decimal(c), value))
    return total


def basis_table_decimal(alpha, rmax, x, digits=40):
    """phi_0 .. phi_rmax at the points x by the normalized recurrence in decimal.

    Returns a (rmax + 1, len(x)) float array.  Decimal exponents do not
    underflow, so the seed exp(-alpha x^2 / 2) stays exact to `digits` at any
    x; only the final conversion to float rounds (or flushes to 0).
    """
    ctx = decimal.Context(prec=digits, Emin=-10**6, Emax=10**6)
    a = decimal.Decimal(repr(float(alpha)))
    pi = decimal.Decimal("3.141592653589793238462643383279502884197169399375")
    norm = ctx.sqrt(ctx.sqrt(ctx.divide(a, pi)))
    roots = [ctx.sqrt(decimal.Decimal(k)) for k in range(rmax + 2)]
    out = np.empty((rmax + 1, len(x)))
    for j, xj in enumerate(x):
        y = ctx.multiply(decimal.Decimal(repr(float(xj))), ctx.sqrt(a))
        sq2y = ctx.multiply(roots[2], y)
        below, cur = decimal.Decimal(0), ctx.multiply(norm, ctx.exp(-ctx.multiply(y, y) / 2))
        out[0, j] = float(cur)
        for k in range(rmax):
            below, cur = cur, ctx.divide(ctx.subtract(ctx.multiply(sq2y, cur),
                                                      ctx.multiply(roots[k], below)),
                                         roots[k + 1])
            out[k + 1, j] = float(cur)
    return out


def ql_rotation_by_rotation(d, e, z):
    """Implicit-shift QL on tridiagonal (d, e), rotating z^T after every rotation.

    Same contract as `hgritz.eigensolver._ql_implicit`: (unsorted
    eigenvalues, rotated copy of z), inputs unmodified.  Each rotation
    updates rows i, i + 1 of z^T in place before the recurrence moves on.
    """
    n = len(d)
    d = d.tolist()
    e = e.tolist() + [0.0]
    zt = z.T.copy()
    for l in range(n):
        sweeps = 0
        while True:
            for m in range(l, n - 1):
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= _EPS * dd:
                    break
            else:
                m = n - 1
            if m == l:
                break
            sweeps += 1
            if sweeps > _MAX_SWEEPS:
                raise ConvergenceError("QL sweep budget exhausted", dim=n, index=l)
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                # rows i, i + 1 <- c z_i - s z_j, s z_i + c z_j, in place
                zi, zj = zt[i], zt[i + 1]
                sj = s * zj
                zj *= c
                zj += s * zi
                zi *= c
                zi -= sj
            if underflow:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0
    return np.array(d), zt.T


def numerov_bisection(pot, constants, config, parity, lo, hi, flo, fhi):
    """Plain bisection of (lo, hi) on the sign of psi(x_max) to width 1e-10.

    The reference for `numerov._bisect`, which must return the same bits:
    flo and fhi are psi(x_max) at the ends, and each midpoint costs one
    `numerov.shoot`, looked up at call time so that a test can count or
    replace it.
    """
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        fm = numerov.shoot(pot, constants, config, mid, parity)
        if fm == 0.0:
            return mid
        if math.copysign(1.0, fm) == math.copysign(1.0, flo):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)

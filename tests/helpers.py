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
written out here as two `inner_product` calls on basis_table rows, the node
rule as `count_nodes` on one sampled function, and implicit-shift QL as the
textbook loop that rotates two rows of z^T after every rotation.  A Numerov
trajectory is stepped one point at a time by the textbook three-term
recurrence on psi, not the library's summed form.
"""

import decimal
import math

import numpy as np

from hgritz import (ConvergenceError, DegenerateInputError, QuadratureError,
                    basis_table, gauss_hermite_rule)
from hgritz.basis import check_index
from hgritz.eigensolver import _EPS, _MAX_SWEEPS
from hgritz.spectral import DEFAULT_AMPLITUDE_FLOOR, NODE_GRID_POINTS

#: Cap for the unnormalized Hermite path (textbook-value range): H_s and
#: 2^s s! blow up long before phi_s does.
HERMITE_EVAL_MAX = 30


def hermite_eval(s, y):
    """Hermite polynomial H_s(y) by the upward recurrence.

    H_0 = 1, H_1 = 2y, H_{s+1} = 2 y H_s - 2 s H_{s-1}.  Accepts scalar or
    array y; s is capped at HERMITE_EVAL_MAX.
    """
    s = check_index(s)
    if s > HERMITE_EVAL_MAX:
        raise ValueError(f"index {s} above cap {HERMITE_EVAL_MAX + 1}")
    arr = np.asarray(y, dtype=float)
    yv = np.atleast_1d(arr)
    h_prev = np.ones_like(yv)
    h = h_prev if s == 0 else 2.0 * yv
    for k in range(1, s):
        h, h_prev = 2.0 * yv * h - 2.0 * k * h_prev, h
    return float(h[0]) if arr.ndim == 0 else h


def exact_parity(coeffs):
    """"even" or "odd" by exact zeros, else "mixed".

    A vector is even (odd) when every coefficient on an odd (even) index is
    exactly 0.0 and one on its own parity's indices is not.
    """
    c = np.asarray(coeffs, dtype=float)
    even, odd = bool(c[0::2].any()), bool(c[1::2].any())
    if even != odd:
        return "even" if even else "odd"
    return "mixed"


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
    table = basis_table(spec, s + 2, x)
    out = -(2.0 * s + 1.0) * table[s]
    if s >= 2:
        out = out + math.sqrt(s * (s - 1.0)) * table[s - 2]
    out = out + math.sqrt((s + 1.0) * (s + 2.0)) * table[s + 2]
    return 0.5 * spec.alpha * out


def inner_product(spec, f, g, rule):
    """Integral of f(x) g(x) over the line, for f g decaying like exp(-alpha x^2).

    f and g must accept ndarray arguments.  The Gaussian factor is divided
    back out at the nodes, so the result is exact whenever the de-weighted
    product is a polynomial the rule can integrate.  A non-finite term
    raises QuadratureError naming its node.
    """
    y = rule.nodes
    with np.errstate(over="ignore", invalid="ignore"):
        boost = np.exp(y * y)
        x = y / math.sqrt(spec.alpha)
        terms = rule.weights * np.asarray(f(x), dtype=float) \
            * np.asarray(g(x), dtype=float) * boost
    bad = np.flatnonzero(~np.isfinite(terms))
    if bad.size:
        i = int(bad[0])
        raise QuadratureError(f"non-finite integrand contribution at node {i} "
                              f"(y = {y[i]:.6g})", node_index=i, node=float(y[i]))
    return float(terms.sum()) / math.sqrt(spec.alpha)


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
        lambda x: basis_table(spec, r, x)[r],
        lambda x: _second_derivative(spec, s, x),
        rule)


def _phi_and_slope(spec, r, x):
    """(phi_r, phi_r') on x from basis_table rows, in the oracle's operation order.

    phi_r' = (sqrt(2 alpha) / 2) (sqrt(r) phi_{r-1} - sqrt(r+1) phi_{r+1}).
    phi_{r+1} is one more recurrence step, so r may be the index cap's last
    index; the step carries no binary exponent, which at a Gauss-Hermite
    node, alpha x^2 = y^2 < 2K + 1 <= 741, the recurrence never does.
    """
    table = basis_table(spec, r, x)
    phi = table[r]
    below = table[r - 1] if r else np.zeros_like(phi)
    sq2y = math.sqrt(2.0) * (np.asarray(x, dtype=float) * math.sqrt(spec.alpha))
    above = (sq2y * phi - math.sqrt(r) * below) / math.sqrt(r + 1)
    slope = 0.5 * math.sqrt(2.0 * spec.alpha) * (math.sqrt(r) * below
                                                 - math.sqrt(r + 1.0) * above)
    return phi, slope


def element_by_inner_products(spec, pot, r, s, rule):
    """(t_rs, v_rs) as two `inner_product` calls on phi and phi' from basis_table rows.

    The per-element definition the batched oracle rows must reproduce bit
    for bit: kinetic (hbar^2/2m) (phi_r', phi_s'), potential (phi_r, V phi_s).
    """
    scale = spec.hbar**2 / (2.0 * spec.mass)
    t_rs = scale * inner_product(
        spec,
        lambda x: _phi_and_slope(spec, r, x)[1],
        lambda x: _phi_and_slope(spec, s, x)[1],
        rule)
    v_rs = inner_product(
        spec,
        lambda x: _phi_and_slope(spec, r, x)[0],
        lambda x: pot.value(x, mass=spec.mass) * _phi_and_slope(spec, s, x)[0],
        rule)
    return t_rs, v_rs


def count_nodes(values, amplitude_floor=DEFAULT_AMPLITUDE_FLOOR):
    """Certified sign changes of a sampled function: node_counts' rule on one state.

    Samples whose magnitude stays below amplitude_floor * max|values| are
    dropped first (boundary tails and grazing zeros carry no sign
    information); the count is over strict sign changes between consecutive
    surviving samples.  Non-finite samples raise ValueError.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise DegenerateInputError("no samples")
    finite = np.isfinite(v)
    if not finite.all():
        bad = np.flatnonzero(~finite)
        raise ValueError(f"{bad.size} of {v.size} samples are not finite, the first "
                         f"{v[bad[0]]} at index {bad[0]}")
    peak = float(np.abs(v).max())
    if peak == 0.0:
        raise DegenerateInputError("all samples are zero")
    kept = v[np.abs(v) > amplitude_floor * peak]
    if kept.size == 0:
        raise DegenerateInputError("all samples below the amplitude floor")
    signs = np.sign(kept)
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def node_grid(spec, pot, energy):
    """Uniform grid of NODE_GRID_POINTS points over |x| <= x_turn + 5 / sqrt(alpha).

    A bound state has no node past its outer turning point x_turn, so the
    grid covers every node, with a five-decay-length margin for the tail.
    """
    half = pot.turning_point(energy, mass=spec.mass) + 5.0 / math.sqrt(spec.alpha)
    return np.linspace(-half, half, NODE_GRID_POINTS)


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

    Returns (unsorted eigenvalues, rotated copy of z), inputs unmodified;
    the eigenvalues are bitwise `hgritz.eigensolver._ql_implicit`'s.  Each
    rotation updates rows i, i + 1 of z^T in place before the recurrence
    moves on.
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



def numerov_trajectory(pot, constants, x_max, steps, energy, parity, points=None):
    """psi_0 .. psi_(points - 1) on x_i = i x_max / steps, by the three-term Numerov recurrence.

    f_(i+1) psi_(i+1) = (12 - 10 f_i) psi_i - f_(i-1) psi_(i-1) with
    f = 1 + (h^2 / 12) (2m / hbar^2) (E - V), one point at a time; V is
    summed from the coefficients c_k of x^(2k) by Horner's rule.  psi_0 and
    psi_1 are the Taylor series about x = 0 to the fifth order: psi(0) = 1,
    psi'(0) = 0 for "even", psi(0) = 0, psi'(0) = 1 for "odd".  Wherever
    |psi| passes 2^500 the last two samples are divided by 2^500, so that a
    trajectory growing past the float range stays finite: the signs are
    exact, magnitudes compare only between two such divisions.  points None
    is the whole grid, steps + 1.
    """
    points = steps + 1 if points is None else points
    coeffs = pot.coefficients(mass=constants.mass)
    scale = 2.0 * constants.mass / constants.hbar**2
    h = x_max / steps

    def potential(x):
        total = 0.0
        for c in reversed(coeffs):
            total = total * x * x + c
        return total

    f = [1.0 + h * h / 12.0 * scale * (energy - potential(i * x_max / steps))
         for i in range(points)]
    # F = (2m / hbar^2)(V - E): psi'' = F psi, and F''(0) = (2m / hbar^2) 2 c_1
    f0 = scale * (coeffs[0] - energy)
    fpp0 = scale * 2.0 * coeffs[1]
    if parity == "even":
        psi = [1.0, 1.0 + f0 * h * h / 2.0 + (f0 * f0 + fpp0) * h**4 / 24.0]
    else:
        psi = [0.0, h + f0 * h**3 / 6.0 + (f0 * f0 + 3.0 * fpp0) * h**5 / 120.0]
    for i in range(1, points - 1):
        psi.append(((12.0 - 10.0 * f[i]) * psi[i] - f[i - 1] * psi[i - 1]) / f[i + 1])
        if abs(psi[-1]) > 2.0**500:
            psi[-2:] = [psi[-2] / 2.0**500, psi[-1] / 2.0**500]
    return np.array(psi[:points])


def sign_changes(samples):
    """Strict sign changes between consecutive nonzero samples."""
    signs = np.sign(samples)
    signs = signs[signs != 0]
    return int(np.count_nonzero(signs[1:] != signs[:-1]))

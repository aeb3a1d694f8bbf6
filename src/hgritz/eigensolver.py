"""Symmetric real eigensolver: Householder reduction plus implicit-shift QL.

Solves the secular equation |A - eps I| = 0 for a symmetric array without
outside linear-algebra routines: reduce to tridiagonal form by Householder
reflections, then run implicit-shift QL with Wilkinson shifts (EISPACK tql2;
Bowdler, Martin, Reinsch & Wilkinson 1968, Numer. Math. 11:293),
accumulating the eigenvectors.  QL's scalar recurrence never reads the
eigenvectors, so it only records its Givens rotations; they are applied
afterwards in dependency waves, each wave a set of rotations on disjoint
row pairs that commute (Van Zee, van de Geijn & Quintana-Orti 2014, ACM
TOMS 40(3):18), in a few numpy calls per wave and with the same bits as one
rotation at a time.  A matrix with no entry coupling an even
index to an odd one, as every Hamiltonian of an even potential is, is solved
one parity block at a time, read from its zeros, so each of its eigenvectors
has exact parity; Householder leaves a column that is already tridiagonal
as it is, so a tridiagonal block goes to QL unchanged.  Output is
deterministic: eigenvalues ascend and each eigenvector has its
largest-magnitude component positive.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, RangeError

_EPS = float(np.finfo(float).eps)

#: QL sweep budget per eigenvalue; a full solve uses at most dim times this.
_MAX_SWEEPS = 30

#: Rotations per row of z that QL records before applying them: the record
#: and a flush's index arrays stay O(n) while a wave still holds many pairs.
_RECORD_PER_ROW = 32

#: Rows per strip of the Gram matrix in Spectrum's orthonormality check.
_GRAM_STRIP = 128

#: eigh scales a matrix with an entry past 2^_MAX_EXPONENT down by a power of
#: two, which is exact, until its largest entry is below that again.  Squares
#: of the entries, and Householder's 2 / ||v||^2, then stay clear of overflow
#: and underflow alike.
_MAX_EXPONENT = 256


def ascent_tolerance(level):
    """How far a level may lie below the one before it and still count as ascending."""
    return 1e-12 * (1.0 + abs(level))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Ascending eigenvalues and orthonormal eigenvector columns of one solve.

    residual_norm is the solve's max_i ||A v_i - lambda_i v_i||_2.  For a
    symmetric A it bounds the error of every returned eigenvalue; eigh rejects
    solves whose residual exceeds 1e-10 (1 + ||A||_inf).  It is 0.0 for a
    spectrum given as exact data.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual_norm: float = 0.0

    def __post_init__(self):
        w = np.array(self.eigenvalues, dtype=float)
        v = np.array(self.eigenvectors, dtype=float)
        if w.ndim != 1 or w.size == 0 or v.ndim != 2 or v.shape[1] != w.size:
            raise ValueError("need one eigenvector column per eigenvalue, at least one")
        if not (np.isfinite(w).all() and np.isfinite(v).all()):
            raise ValueError("eigenvalues and eigenvectors must be finite")
        if w.size > 1 and np.any(np.diff(w) < -ascent_tolerance(w[:-1])):
            raise ValueError("eigenvalues must ascend")
        # the upper triangle of the Gram matrix, one strip of rows at a time
        for j in range(0, w.size, _GRAM_STRIP):
            gram = v[:, j:j + _GRAM_STRIP].T @ v[:, j:]
            gram.flat[::gram.shape[1] + 1] -= 1.0
            if float(np.abs(gram, out=gram).max()) > 1e-10:
                raise ValueError("eigenvectors must be orthonormal within 1e-10")
        residual = float(self.residual_norm)
        if not (math.isfinite(residual) and residual >= 0.0):
            raise ValueError("residual_norm must be finite and non-negative")
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", v)
        object.__setattr__(self, "residual_norm", residual)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


def _householder_tridiag(a):
    """Reduce symmetric a in place to tridiagonal T = Q^T A Q; return d, e, Q.

    A column with nothing below its subdiagonal entry is already reduced and
    is skipped.  Q is built at the first reflection and is None when there
    was none, so a tridiagonal a comes back as it is, with no Q.
    """
    n = a.shape[0]
    q = None
    for k in range(n - 2):
        x = a[k + 1:, k]
        if not x[1:].any():
            continue
        norm_x = float(np.linalg.norm(x))
        v = x.copy()
        v[0] += math.copysign(norm_x, x[0])
        vsq = float(v @ v)
        if vsq == 0.0:
            continue
        beta = 2.0 / vsq
        sub = a[k + 1:, k + 1:]
        p = beta * (sub @ v)
        w = p - (0.5 * beta * float(p @ v)) * v
        sub -= w[:, None] * v + v[:, None] * w
        head = -math.copysign(norm_x, x[0])
        a[k + 1, k] = head
        a[k, k + 1] = head
        a[k + 2:, k] = 0.0
        a[k, k + 2:] = 0.0
        if q is None:
            q = np.eye(n)
        qv = q[:, k + 1:] @ v
        q[:, k + 1:] -= beta * (qv[:, None] * v)
    return np.diag(a).copy(), np.diag(a, 1).copy(), q


def _rotate_waves(zt, tops, counts, cs):
    """Apply a record of QL rotations to the rows of zt, one wave at a time.

    Sweep k of the record rotated rows (i, i + 1) of zt for i = tops[k],
    tops[k] - 1, ..., counts[k] rotations in all; cs holds each rotation's
    cosine and sine in record order.  Rotation (k, i) goes in wave 2k - i.
    Two rotations share a row only if their i differ by at most 1, and then
    the later one in the record is in the later wave: within a sweep the
    wave rises by one per rotation, and (k, i) and (k', j) with k < k' are
    2(k' - k) - (j - i) >= 1 waves apart.  So the rotations of one wave
    touch disjoint rows and commute, and every element of zt gets the same
    operations in the same order as under rotation-by-rotation application.
    A wave's rotations at i, i + 2, i + 4, ... fill the contiguous rows from
    i and are applied together as one (pairs, 2, n) view.
    """
    n = zt.shape[1]
    counts = np.array(counts)
    total = int(counts.sum())
    rows = np.repeat(np.array(tops) + np.cumsum(counts) - counts, counts) - np.arange(total)
    # key = 2n wave + row; in key order a run's rows, and keys, step by 2
    key = np.repeat(np.arange(0, 2 * counts.size, 2), counts) - rows
    key *= 2 * n
    key += rows
    order = np.argsort(key)
    bounds = [0, *(np.flatnonzero(np.diff(key[order]) != 2) + 1).tolist(), total]
    lows = rows[order[bounds[:-1]]].tolist()
    cs = np.frombuffer(cs).reshape(total, 2)[order]
    cos = cs[:, :1, None]  # c for both rows of a pair
    sin = np.stack([-cs[:, 1], cs[:, 1]], axis=1)[:, :, None]  # -s, s
    for lo, a, b in zip(lows, bounds, bounds[1:]):
        # rows i, i + 1 <- c z_i - s z_j, c z_j + s z_i
        pairs = zt[lo:lo + 2 * (b - a)].reshape(b - a, 2, n)
        swapped = pairs[:, ::-1] * sin[a:b]
        pairs *= cos[a:b]
        pairs += swapped


def _ql_implicit(d, e, z=None):
    """Implicit-shift QL on tridiagonal (d, e); return (eigenvalues, rotated z).

    d has length n and e length n - 1, e[i] coupling d[i] and d[i + 1];
    neither is modified.  z defaults to the identity, built in place of a
    copy.  The eigenvalues come back unsorted, and column j of the rotated
    copy of z belongs to eigenvalue j.  The scalar recurrence runs on Python
    floats and never reads z, so it only records each rotation's cosine and
    sine; the record is applied to z^T in dependency waves (`_rotate_waves`)
    whenever it holds _RECORD_PER_ROW n rotations, and once more at the end.
    The result is bitwise that of rotating two rows of z^T after every
    rotation, in a few numpy calls per wave instead of five per rotation.
    """
    n = len(d)
    d = d.tolist()
    e = e.tolist() + [0.0]
    zt = np.eye(n) if z is None else z.T.copy()
    tops, counts, cs = [], [], array("d")
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
                raise ConvergenceError(
                    f"QL iteration exceeded {_MAX_SWEEPS} sweeps at index {l} of dim {n}",
                    dim=n, index=l)
            # Wilkinson-style shift from the leading 2x2 of the block
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            underflow = False
            recorded = len(cs)
            record = cs.append
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
                record(c)
                record(s)
            tops.append(m - 1)
            counts.append((len(cs) - recorded) // 2)
            if len(cs) >= 2 * _RECORD_PER_ROW * n:
                _rotate_waves(zt, tops, counts, cs)
                tops, counts, cs = [], [], array("d")
            if underflow:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0
    if cs:
        _rotate_waves(zt, tops, counts, cs)
    return np.array(d), zt.T


def _fix_signs(v):
    """Flip eigenvector columns so the largest-magnitude component is positive."""
    lead = v[np.abs(v).argmax(axis=0), np.arange(v.shape[1])]
    flip = lead < 0.0
    v[:, flip] = -v[:, flip]
    return v


def _finish(a, d, z, shift):
    """Sorted (eigenvalues, eigenvectors, residual) of a QL solve of block a.

    The block was scaled down by 2^shift, and the eigenvalues and residual
    are scaled back.  The check is that of the unscaled block, residual <=
    1e-10 (1 + ||A||_inf), scaled down by 2^shift on both sides, which is
    exact.  The columns of z are sorted in place, so no second n x n copy is
    live.
    """
    n = d.size
    order = np.argsort(d, kind="stable")
    w = d[order]
    z[:] = z[:, order]
    v = _fix_signs(z)
    resid = a @ v - v * w
    residual = float(np.sqrt((resid * resid).sum(axis=0)).max())
    norm_inf = float(np.abs(a).sum(axis=1).max())
    if residual > 1e-10 * (math.ldexp(1.0, -shift) + norm_inf):
        raise ConvergenceError(
            f"eigen residual {math.ldexp(residual, shift):.3e} above tolerance for dim {n}",
            dim=n)
    try:
        with np.errstate(over="raise"):
            return np.ldexp(w, shift), v, math.ldexp(residual, shift)
    except FloatingPointError:
        raise RangeError("the largest eigenvalue", math.log10(float(np.abs(w).max()))
                         + shift * math.log10(2.0)) from None


def _solve_block(a, shift):
    """(eigenvalues, eigenvectors, residual) of the symmetric array 2^shift a."""
    d, e, q = _householder_tridiag(a.copy())
    w, z = _ql_implicit(d, e, q)
    return _finish(a, w, z, shift)


def eigh(matrix) -> Spectrum:
    """Full spectral decomposition of a symmetric matrix.

    Accepts anything numpy converts to a square float array; symmetry is
    required up to round-off.  A matrix with no entry coupling an even index
    to an odd one, such as the Hamiltonian of an even potential, is block
    diagonal once the even indices are put before the odd ones.  Each block
    is solved on its own, so every eigenvector is exactly even or odd in the
    index, and the residual is the larger block residual, which is that of
    the whole matrix.  A matrix with an entry past 2^256 is solved scaled
    down by a power of two, so that only its eigenvalues must lie in the
    float range.  Deterministic for identical input.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if a.size == 0:
        raise ValueError("matrix must have dim >= 1")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    scale = float(np.abs(a).max())
    # one n x n buffer holds a - a^T, then the symmetrized copy of a
    sym = np.subtract(a, a.T, out=np.empty_like(a))
    if float(np.abs(sym, out=sym).max()) > 1e-12 * (1.0 + scale):
        raise ValueError("matrix is not symmetric")
    shift = max(math.frexp(scale)[1] - _MAX_EXPONENT, 0)
    if shift:
        a = np.ldexp(a, -shift)
    a = np.add(a, a.T, out=sym)
    a *= 0.5
    n = a.shape[0]
    split = not a[0::2, 1::2].any()
    parts = [slice(p, None, 2) for p in range(min(n, 2))] if split else [slice(None)]
    rows = [np.arange(n)[part] for part in parts]
    values, vectors, residuals = zip(*[_solve_block(a[part, part], shift) for part in parts])
    del a, sym  # free the full matrix before the n x n merge below
    w = np.concatenate(values)
    # by the oscillation theorem level k of a block is state rows[k]
    ranks = np.concatenate(rows).tolist()
    # Two adjacent levels of opposite parity no further apart than the
    # ascent tolerance are put in the oscillation theorem's order, not in
    # the order rounding gave them.
    order = np.argsort(w, kind="stable").tolist()
    levels = w.tolist()
    for i in range(n - 1):
        j, k = order[i], order[i + 1]
        if ranks[j] > ranks[k] and levels[k] - levels[j] <= ascent_tolerance(levels[k]):
            order[i], order[i + 1] = k, j
    columns = np.argsort(order)
    v = np.zeros((n, n))
    for r, z in zip(rows, vectors):
        v[r[:, None], columns[:r.size]] = z
        columns = columns[r.size:]
    del vectors, z  # free the block eigenvectors before Spectrum copies v
    return Spectrum(w[order], v, max(residuals))


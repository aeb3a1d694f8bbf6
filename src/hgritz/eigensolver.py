"""Symmetric real eigensolver: Householder, QL eigenvalues, twisted eigenvectors.

Solves the secular equation |A - eps I| = 0 for a symmetric array without
outside linear-algebra routines.  Householder reflections reduce A to
tridiagonal T = Q^T A Q and keep their reflectors; Q is never formed.
Implicit-shift QL with Wilkinson shifts (EISPACK tql2; Bowdler, Martin,
Reinsch & Wilkinson 1968, Numer. Math. 11:293) finds the eigenvalues of T
alone.  The eigenvectors of each unreduced piece of T come from twisted
factorizations of T - lambda, for all of the piece's eigenvalues at once;
eigenvalues that lie too close together for that take inverse iteration and
Gram-Schmidt within their cluster, as LAPACK dstein does.  One Newton-Schulz
step orthogonalizes each piece's vectors, and the reflectors carry them back
to A in compact-WY blocks.  A matrix with no entry coupling an even
index to an odd one, as every Hamiltonian of an even potential is, is solved
one parity block at a time, read from its zeros, so each of its eigenvectors
has exact parity; Householder leaves a column that is already tridiagonal
as it is, so a tridiagonal block goes to QL unchanged.  Householder runs on
a stack of blocks at once, smaller ones padded with zeros above and to
their left, and gives each block bitwise what it would give it alone; QL,
on Python floats, the eigenvectors and the back-transform run block by
block.  Output is deterministic: eigenvalues ascend and each eigenvector
has its largest-magnitude component positive.

There are two entries.  `eigh` returns the eigenvalues and eigenvectors as
a `Spectrum` and checks each block by its eigen residual.  `eigvalsh`
returns the same eigenvalues bit for bit but forms no vector, and
certifies each block by Sturm counts instead (`_certify`).  Tables, grids
and searches solve their many matrices through eigvalsh's driver,
`_LevelSolver`, which gives each matrix's levels at once and certifies
them later in shared passes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, RangeError

_EPS = float(np.finfo(float).eps)

#: QL sweep budget per eigenvalue; a full solve uses at most dim times this.
_MAX_SWEEPS = 30

#: Two eigenvalues of one unreduced piece of T closer than this times the
#: piece's norm share a cluster.  A twisted vector for an eigenvalue that QL
#: found to within c eps ||T|| lies off its eigenvector by an angle of about
#: c eps ||T|| / gap, so two of them are orthogonal to within
#: delta = 2 c eps ||T|| / gap.  One Newton-Schulz step leaves an error of
#: about (3/4) delta^2.  Holding that 100 times under Spectrum's Gram gate of
#: 1e-10 needs delta <= 1.15e-6, which this gap keeps for c up to 2,600,
#: several times the largest parity block (513) of a basis up to MAX_INDEX.
#: Every clustered level costs a factored solve per iteration, so the gap is
#: no wider than that.
_CLUSTER_GAP = 1e-6

#: Inverse-iteration solves per cluster vector.
_INVERSE_STEPS = 3

#: Reflectors per compact-WY block of the back-transform.
_WY_BLOCK = 32

#: Rows per strip of the Gram matrix in Spectrum's orthonormality check.
_GRAM_STRIP = 128

#: eigh scales a matrix with an entry past 2^_MAX_EXPONENT down by a power of
#: two, which is exact, until its largest entry is below that again.  Squares
#: of the entries then stay clear of overflow.  Tiny entries are not scaled
#: up: their squares may underflow, and Householder rescales each column
#: whose squared norm does (`_householder_tridiag`).
_MAX_EXPONENT = 256

_TINY = float(np.finfo(float).tiny)

#: Entries of one zero-padded stack of parity blocks: blocks of consecutive
#: matrices share a stack while (blocks) x (largest block dim)^2 stays under
#: this, so a table over many large dims is reduced a few matrices at a
#: time.  One matrix's blocks always share one stack, which is never larger
#: than the matrix.
_STACK_ENTRIES = 1 << 19

#: Pivots of one shared Sturm pass of `_LevelSolver`: (blocks) x n x 2n,
#: a level plus and minus its gate for each of n rows.  2^15 floats are
#: 256 KiB, so the pass keeps its working set that small while it
#: certifies 8 widths of a dim-64 H, and 128 of dim 16, at once.
_CERTIFY_ENTRIES = 1 << 15


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


def _stack(blocks):
    """(stack, pads): the square blocks as one stack of shape (B, n, n), n the largest.

    Block b sits at the bottom right of its slice, stack[b, pads[b]:,
    pads[b]:], with zeros above and to its left.
    """
    n = max(block.shape[0] for block in blocks)
    stack = np.zeros((len(blocks), n, n))
    pads = np.array([n - block.shape[0] for block in blocks])
    for slot, block, pad in zip(stack, blocks, pads):
        slot[pad:, pad:] = block
    return stack, pads


def _householder_tridiag(a):
    """Reduce each symmetric block of the stack a, shape (B, n, n), in place to tridiagonal.

    Each block A becomes T = Q^T A Q; returns T's d and e and the betas, of
    shapes (B, n), (B, n - 1) and (B, n - 2).  Q = H_0 H_1 ... H_{n-3} is
    never formed.  H_k = I - betas[b, k] v v^T acts on rows k + 1 on, and
    its v is kept below the diagonal, in a[b, k + 1:, k]; the entries above
    the superdiagonal are stale and never read.  A column with nothing
    below its subdiagonal entry is already reduced: it is skipped and its
    beta is 0, so a tridiagonal block comes back as it is, with every beta
    0.  A block padded with zeros above and to its left (`_stack`) has
    nothing below the subdiagonal of a padding column either, so its own
    columns are reduced as they would be alone; each block's d, e and
    betas are bitwise those of its own reduction, the padding adding zeros
    in front, since every product is a batched `@`, which makes the same
    BLAS call per block that `@` makes on one.  Every step runs for the
    whole stack at once, and only a step at which some block skips its
    column masks the update.

    A column x whose squared norm is not a normal float is first scaled by
    a power of two to a largest entry in [1/2, 1), which is exact, as
    LAPACK dlarfg rescales; v and beta are then those of the scaled column,
    which make the same reflector.  Every ||x||^2 is thus at least the
    smallest normal float, and ||v||^2 = 2 ||x|| (||x|| + |x_0|) is at
    least 2 ||x||^2 up to rounding, so beta = 2 / ||v||^2 is finite and
    positive for every column that is reduced.  Squares that underflow
    inside a sum of normal size fall below its rounding.
    """
    count, n = a.shape[:2]
    betas = np.zeros((count, max(n - 2, 0)))
    for k in range(n - 2):
        x = a[:, k + 1:, k]
        live = x[:, 1:].any(axis=1)
        every = live.all()
        if not (every or live.any()):
            continue
        # each block's v as a column and a row; its scalars have shape (B, 1, 1)
        col = x[:, :, None].copy()
        row = col.transpose(0, 2, 1)
        sq = row @ col
        scale = None
        if sq.min() < _TINY:
            small = live & (sq[:, 0, 0] < _TINY)
            if small.any():
                scale = np.where(small, np.frexp(np.abs(x).max(axis=1))[1], 0)[:, None, None]
                col = np.ldexp(col, -scale)
                row = col.transpose(0, 2, 1)
                sq = row @ col
        lead = np.copysign(np.sqrt(sq), col[:, :1])
        col[:, :1] += lead
        vsq = row @ col
        if not every:
            vsq[~live] = 1.0
        beta = 2.0 / vsq
        if not every:
            beta[~live] = 0.0
        sub = a[:, k + 1:, k + 1:]
        p = beta * (sub @ col)
        w = p - ((0.5 * beta) * (p.transpose(0, 2, 1) @ col)) * col
        # w v^T + v w^T: the transpose of w v^T holds each v_i w_j
        update = w * row
        update += update.transpose(0, 2, 1)
        if not every:
            update[~live] = 0.0  # a skipped block's entries stay bit for bit
        sub -= update
        if scale is not None:
            lead = np.ldexp(lead, scale)
            x[small, 1:] = col[small, 1:, 0]
        if every:
            a[:, k, k + 1] = -lead[:, 0, 0]
            x[:, 0] = col[:, 0, 0]
        else:
            a[live, k, k + 1] = -lead[live, 0, 0]
            x[live, 0] = col[live, 0, 0]
        betas[:, k] = beta[:, 0, 0]
    return (np.diagonal(a, 0, 1, 2).copy(), np.diagonal(a, 1, 1, 2).copy(), betas)


def _back_transform(a, betas, z):
    """z <- Q z in place, for the Q whose reflectors _householder_tridiag left in a.

    Q = H_0 H_1 ... H_{n-3}, so blocks of _WY_BLOCK consecutive reflectors
    are applied last block first, each as I - V T V^T (compact WY; Schreiber
    & Van Loan 1989, SIAM J. Sci. Stat. Comput. 10:53), with T upper
    triangular as LAPACK dlarft builds it.  A skipped column has beta 0,
    which zeroes its row and column of T.
    """
    made = np.flatnonzero(betas)
    if not made.size:
        return
    first, stop = int(made[0]), int(made[-1]) + 1
    for k0 in reversed(range(first, stop, _WY_BLOCK)):
        k1 = min(k0 + _WY_BLOCK, stop)
        v = np.tril(a[k0 + 1:, k0:k1])
        beta = betas[k0:k1]
        gram = v.T @ v
        t = np.zeros((k1 - k0, k1 - k0))
        for j in range(k1 - k0):
            t[:j, j] = -beta[j] * (t[:j, :j] @ gram[:j, j])
            t[j, j] = beta[j]
        rows = z[k0 + 1:]
        rows -= v @ (t @ (v.T @ rows))


def _ql_implicit(d, e):
    """Eigenvalues of tridiagonal (d, e) by implicit-shift QL, unsorted.

    d has length n and e length n - 1, e[i] coupling d[i] and d[i + 1];
    neither is modified.  The scalar recurrence runs on Python floats.
    """
    n = len(d)
    d = d.tolist()
    e = e.tolist() + [0.0]
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
            if underflow:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0
    return np.array(d)


def _floored(x, pivmin):
    """x with every entry of magnitude below pivmin replaced by -pivmin."""
    return np.where(np.abs(x) < pivmin, -pivmin, x)


def _twisted_vectors(d, e, lam):
    """Unit vectors of unreduced tridiagonal (d, e) at the eigenvalues lam, by twist.

    For each l of lam, T - l = L+ D+ L+^T = U- D- U-^T, factored top down
    and bottom up.  The twist r minimizing
    |gamma_r| = |D+_r + D-_r - (d_r - l)| gives z with z_r = 1,
    z_i = -e_i z_(i+1) / D+_i above r and z_i = -e_(i-1) z_(i-1) / D-_i
    below it, which solves (T - l) z = gamma_r e_r (Dhillon & Parlett 2004,
    Linear Algebra Appl. 387:1).  T has a norm under 1, and a pivot under
    eps^2 in magnitude is replaced by -eps^2, as LAPACK dlar1v does with its
    pivmin; then e^2 / pivot stays finite.  Each recurrence runs for all of
    lam at once, and the bottom-up one beside the top-down one on reversed
    rows.
    """
    m, k = d.size, lam.size
    pivmin = _EPS * _EPS
    shifted = d[:, None] - lam
    # pivots[:, 0] holds D+ in row order and pivots[:, 1] D- in reversed order
    pivots = np.stack([shifted, shifted[::-1]], axis=1)
    coupling = np.stack([e * e, (e * e)[::-1]], axis=1)[:, :, None]
    for i in range(m - 1):
        pivots[i] = _floored(pivots[i], pivmin)
        pivots[i + 1] -= coupling[i] / pivots[i]
    pivots[m - 1] = _floored(pivots[m - 1], pivmin)
    twist = np.abs(pivots[:, 0] + pivots[::-1, 1] - shifted).argmin(axis=0)
    # each buffer is dropped after its last read and the ratios reuse the
    # pivots' buffer: a block's peak memory in eigh is reached here
    del shifted
    # halves[:, 0] holds z from the twist up, in reversed order, and
    # halves[:, 1] z from the twist down; each recurrence
    # halves[i + 1] += ratio halves[i] leaves the other side of the twist at
    # 0.  The ratios -e / pivot are stored in recurrence order.
    ratios = pivots[-2::-1]
    np.divide(-np.stack([e[::-1], e], axis=1)[:, :, None], ratios, out=ratios)
    halves = np.zeros((m, 2, k))
    cols = np.arange(k)
    halves[m - 1 - twist, 0, cols] = 1.0
    halves[twist, 1, cols] = 1.0
    for i in range(m - 1):
        halves[i + 1] += ratios[i] * halves[i]
    del pivots, ratios
    z = halves[:, 1] + halves[::-1, 0]
    z[twist, cols] = 1.0
    z /= np.sqrt((z * z).sum(axis=0))
    return z


def _start_vectors(m, k):
    """k fixed pseudo-random columns of length m, entries in [-1/2, 1/2)."""
    x = np.sin(np.arange(1.0, m + 1.0)[:, None] * 12.9898 + np.arange(1.0, k + 1.0) * 78.233)
    x *= 43758.5453
    return x - np.floor(x) - 0.5


def _cluster_vectors(d, e, lam, bounds):
    """Orthonormal vectors of unreduced tridiagonal (d, e) at clustered eigenvalues.

    T has a norm under 1.  lam ascends, and lam[bounds[c]:bounds[c + 1]] is
    cluster c.  As LAPACK dstein does (Jessup & Ipsen 1992, SIAM J. Sci.
    Stat. Comput. 13:550), each shift is moved up to 10 eps above the one
    before it, T - shift is factored with partial pivoting (dlagtf), and
    inverse iteration (dlagts, with pivots under eps raised to eps) runs
    from fixed start vectors, each iterate orthogonalized against the
    earlier ones of its cluster by twice-repeated Gram-Schmidt.  Every shift
    is factored and solved at once.
    """
    m, k = d.size, lam.size
    lift = 10.0 * _EPS * np.arange(k)
    shifts = np.maximum.accumulate(lam - lift) + lift
    # LU with partial pivoting: U has diagonal `diag` and superdiagonals
    # sup, sup2; `mult` holds L and `swap` the row exchanges
    diag = d[:, None] - shifts
    sup = np.empty((m - 1, k))
    sup2 = np.zeros((m - 1, k))
    mult = np.empty((m - 1, k))
    swap = np.empty((m - 1, k), dtype=bool)
    carry = np.full(k, e[0])  # the pending row's entry right of its diagonal
    for i in range(m - 1):
        below = e[i + 1] if i + 2 < m else 0.0
        pending, nxt = diag[i], diag[i + 1]
        swap[i] = np.abs(pending) < abs(e[i])
        pivot = np.where(swap[i], e[i], pending)
        mult[i] = np.where(swap[i], pending, e[i]) / pivot
        sup[i] = np.where(swap[i], nxt, carry)
        sup2[i] = np.where(swap[i], below, 0.0)
        diag[i + 1] = np.where(swap[i], carry - mult[i] * nxt, nxt - mult[i] * carry)
        carry = np.where(swap[i], -mult[i] * below, below)
        diag[i] = pivot
    diag = np.where(np.abs(diag) < _EPS, np.where(diag < 0.0, -_EPS, _EPS), diag)
    x = _start_vectors(m, k)
    for _ in range(_INVERSE_STEPS):
        x /= np.sqrt((x * x).sum(axis=0))
        for i in range(m - 1):
            top = np.where(swap[i], x[i + 1], x[i])
            x[i + 1] = np.where(swap[i], x[i], x[i + 1]) - mult[i] * top
            x[i] = top
        x[m - 1] /= diag[m - 1]
        x[m - 2] -= sup[m - 2] * x[m - 1]
        x[m - 2] /= diag[m - 2]
        for i in range(m - 3, -1, -1):
            x[i] -= sup[i] * x[i + 1] + sup2[i] * x[i + 2]
            x[i] /= diag[i]
        for lo, hi in zip(bounds, bounds[1:]):
            for j in range(lo, hi):
                xj, earlier = x[:, j], x[:, lo:j]
                for _ in range(2):
                    xj -= earlier @ (earlier.T @ xj)
                xj /= math.sqrt(float(xj @ xj))
    return x


def _piece_vectors(d, e, lam):
    """Orthonormal eigenvectors of unreduced tridiagonal (d, e) at its ascending eigenvalues lam.

    Levels closer than _CLUSTER_GAP ||T|| to a neighbour take
    `_cluster_vectors`, the rest `_twisted_vectors`.  One Newton-Schulz step,
    Z <- Z (3I - Z^T Z) / 2 (Bjorck & Bowie 1971, SIAM J. Numer. Anal.
    8:358), then orthogonalizes all of them together.
    """
    m = d.size
    if m == 1:
        return np.ones((1, 1))
    # scaled by a power of two to a norm in [1/2, 1), which is exact and
    # keeps every pivot and solve of a tiny or huge piece in range
    shift = math.frexp(max(abs(float(lam[0])), abs(float(lam[-1]))))[1]
    d, e, lam = np.ldexp(d, -shift), np.ldexp(e, -shift), np.ldexp(lam, -shift)
    close = np.diff(lam) < _CLUSTER_GAP
    clustered = np.zeros(m, dtype=bool)
    clustered[1:] = close
    clustered[:-1] |= close
    z = np.empty((m, m))
    if not clustered.all():
        z[:, ~clustered] = _twisted_vectors(d, e, lam[~clustered])
    if clustered.any():
        members = np.flatnonzero(clustered)
        bounds = [0, *(np.flatnonzero(~close[members[1:] - 1]) + 1).tolist(), members.size]
        z[:, members] = _cluster_vectors(d, e, lam[members], bounds)
    step = z.T @ z
    step *= -0.5
    step.flat[::m + 1] += 1.5
    return z @ step


def _splits(d, e):
    """(cut, split): where each tridiagonal T = (d[b], e[b]) of a stack splits, and e with 0 there.

    T splits where QL's own test finds e negligible, and QL runs on the
    whole of T with e set to 0 there, so no sweep crosses a split: each
    piece's eigenvalues sit at its positions.  QL reads e at a split only in
    that test, so its eigenvalues are bitwise those of QL on the unsplit T
    whenever that run, too, splits there at every look.
    """
    cut = np.abs(e) <= _EPS * (np.abs(d[:, :-1]) + np.abs(d[:, 1:]))
    return cut, np.where(cut, 0.0, e)


def _tridiagonal_levels(d, split):
    """QL on one block's split tridiagonal (d, split) (`_splits`).

    Returns (w, order): T's eigenvalues w ascending, w[k] being entry
    order[k] of QL's own output.
    """
    values = _ql_implicit(d, split)
    order = np.argsort(values, kind="stable")
    return values[order], order


def _tridiagonal_vectors(d, e, cuts, w, order):
    """Eigenvector columns of tridiagonal (d, e) at the levels of `_tridiagonal_levels`.

    Each piece of T between the cuts fills its rows of the columns of its
    own eigenvalues, which QL left at its positions.
    """
    n = d.size
    if not cuts.size:
        return _piece_vectors(d, e, w)
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    bounds = [0, *(cuts + 1).tolist(), n]
    z = np.zeros((n, n))
    for lo, hi in zip(bounds, bounds[1:]):
        cols = np.sort(rank[lo:hi])
        z[lo:hi, cols] = _piece_vectors(d[lo:hi], e[lo:hi - 1], w[cols])
    return z


def _fix_signs(v):
    """Flip eigenvector columns so the largest-magnitude component is positive."""
    lead = v[np.abs(v).argmax(axis=0), np.arange(v.shape[1])]
    flip = lead < 0.0
    v[:, flip] = -v[:, flip]
    return v


def _gate(a, shift):
    """The residual gate 1e-10 (1 + ||A||_inf) of block 2^shift a, scaled down by 2^shift.

    a is one block, or a stack of blocks with one shift each.  Scaling by a
    power of two is exact, so this is the gate of the unscaled block on the
    scale of a.
    """
    return 1e-10 * (np.ldexp(1.0, -shift) + np.abs(a).sum(axis=-1).max(axis=-1))


def _unscaled(w, shift):
    """The levels w of a block scaled down by 2^shift, scaled back up."""
    if not shift:
        return w
    try:
        with np.errstate(over="raise"):
            return np.ldexp(w, shift)
    except FloatingPointError:
        raise RangeError("the largest eigenvalue", math.log10(float(np.abs(w).max()))
                         + shift * math.log10(2.0)) from None


def _finish(a, w, z, shift):
    """(eigenvalues, eigenvectors, residual) of a solve of block a, checked.

    w ascends and column j of z belongs to w[j].  The block was scaled down
    by 2^shift, and the eigenvalues and residual are scaled back.  The check
    is that of the unscaled block, residual <= 1e-10 (1 + ||A||_inf).
    """
    n = w.size
    v = _fix_signs(z)
    resid = a @ v - v * w
    residual = float(np.sqrt((resid * resid).sum(axis=0)).max())
    if residual > _gate(a, shift):
        raise ConvergenceError(
            f"eigen residual {math.ldexp(residual, shift):.3e} above tolerance for dim {n}",
            dim=n)
    return _unscaled(w, shift), v, math.ldexp(residual, shift)


def _sturm_counts(d, e, x, pads):
    """How many eigenvalues of each tridiagonal (d[b], e[b]) lie below each entry of x[b].

    d, e and x are stacks of shapes (B, n), (B, n - 1) and (B, k); the first
    pads[b] rows of member b are padding, outside its T, and e is 0 between
    them and T.  Each count is the number of negative pivots of
    T - x = L D L^T (Barth, Martin & Wilkinson 1967, Numer. Math. 9:386),
    one recurrence running for every x of every member at once, after each
    member's T and x are scaled by their own power of two to a largest
    entry of T below 1, which is exact.  A padding row is an infinite
    pivot: it counts nothing and hands T's first row its own d - x, so each
    member's counts are those of its T alone.  As LAPACK dlaneg does, the
    recurrence first runs unguarded and counts a pivot by its sign bit: a
    zero pivot then sends the next one to an infinity of the other sign, so
    of the two exactly one counts, as if the zero were a tiny negative
    pivot.  Only for a member where that made a NaN (0 / 0, from an e of 0)
    is the recurrence run again with every pivot smaller in magnitude than
    the smallest normal float replaced by minus that, dlaneg's pivmin.
    """
    n = d.shape[1]
    top = np.maximum(np.abs(d).max(axis=1), np.abs(e).max(axis=1, initial=0.0))
    shift = np.frexp(top)[1][:, None]
    d, x, e2 = np.ldexp(d, -shift), np.ldexp(x, -shift), np.square(np.ldexp(e, -shift))
    d[np.arange(n) < pads[:, None]] = np.inf
    # row i of the recurrence holds every member's pivots i
    d, e2 = d.T[:, :, None], e2.T[:, :, None]
    pivots = d - x
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i in range(1, n):
            pivots[i] -= e2[i - 1] / pivots[i - 1]
    # a zero last pivot has no successor to carry its count: it counts as
    # negative, as dlaneg's pivmin makes it
    last = pivots[-1]
    last[last == 0.0] = -0.0
    counts = np.signbit(pivots).sum(axis=0)
    broken = np.isnan(last).any(axis=1)
    if not broken.any():
        return counts
    pivmin = _TINY
    pivot = _floored(d[0] - x, pivmin)
    guarded = (pivot < 0.0).astype(np.intp)
    for i in range(1, n):
        pivot = _floored(d[i] - x - e2[i - 1] / pivot, pivmin)
        guarded += pivot < 0.0
    counts[broken] = guarded[broken]
    return counts


class _Reduced(NamedTuple):
    """The reduce phase of a stack of values-only block solves (`_reduce`), awaiting `_certify`.

    Per block b: d[b] and e[b] are the tridiagonal T that Householder
    reduced it to and w[b, :m] its m ascending QL eigenvalues, the other
    entries never checked; norm_a[b] and norm_t[b] are the Frobenius norms
    of the block and of T, tol[b] the block's residual gate (`_gate`), all
    on the scale of the block scaled down by 2^shifts[b], and pads[b] its
    padding rows (`_stack`).  errors[b] is the pair of errors the block
    raised before its certificate, by QL, and after it, by the unscaling;
    None where it raised none.
    """

    d: np.ndarray
    e: np.ndarray
    w: np.ndarray
    norm_a: np.ndarray
    norm_t: np.ndarray
    tol: np.ndarray
    shifts: np.ndarray
    pads: np.ndarray
    errors: tuple


def _joined(parts):
    """The reduced stacks parts, of one n, as one stack, their blocks in order."""
    *arrays, errors = zip(*parts)
    return _Reduced(*(np.concatenate(x) for x in arrays), sum(errors, ()))


def _certify(reduced):
    """The first failure of each block of a reduced stack (`_reduce`), or None where it has none.

    A block's failure is what eigvalsh on it alone raises first: its QL's
    error, else its first failed check, else the error of its unscaling.
    Values-only solves have no eigen residual, so two checks stand for it,
    each failing with a ConvergenceError naming the block's dim:

    - the reduction.  An orthogonal similarity keeps the Frobenius norm, so
      the gap between ||T||_F and ||A||_F is at most the norm of
      Householder's backward error E, with T = Q^T (A + E) Q.  That is
      first order in eps and grows at worst as n^2 eps ||A||_F (Higham
      2002, ch. 19), which is 5.8e-11 ||A||_F for the largest parity block
      of MAX_INDEX (513); the gate is 1e-10 (1 + ||A||_F).
    - the levels.  With tol the residual gate 1e-10 (1 + ||A||_inf), level i
      (from 0) must satisfy count(w_i - tol) <= i < count(w_i + tol), where
      count(x) is the Sturm count of T below x: T then has its i-th
      eigenvalue within tol of w_i.  A residual under that gate would bound
      the error of each level by the same tol.

    Every block's checks run at once, over the stack, in one Sturm
    recurrence, which gives each block the counts it would get alone.
    """
    d, e, w, norm_a, norm_t, tol, shifts, pads, errors = reduced
    n = d.shape[1]
    moved = np.abs(norm_t - norm_a) > 1e-10 * (np.ldexp(1.0, -shifts) + norm_a)
    tol = tol[:, None]
    counts = _sturm_counts(d, e, np.concatenate([w - tol, w + tol], axis=1), pads)
    index = np.arange(n)
    bad = ((counts[:, :n] > index) | (counts[:, n:] <= index)) & (index < n - pads[:, None])
    checks = [None] * len(pads)
    for b in np.flatnonzero(moved | bad.any(axis=1)).tolist():
        dim, shift = n - int(pads[b]), int(shifts[b])
        if moved[b]:
            checks[b] = ConvergenceError(
                f"tridiagonal reduction moved the Frobenius norm by "
                f"{math.ldexp(abs(float(norm_t[b] - norm_a[b])), shift):.3e} for dim {dim}",
                dim=dim)
        else:
            i = int(np.argmax(bad[b]))
            checks[b] = ConvergenceError(
                f"Sturm count puts no eigenvalue within {math.ldexp(float(tol[b, 0]), shift):.3e} "
                f"of level {i} for dim {dim}", dim=dim, index=i)
    return [before or check or after for (before, after), check in zip(errors, checks)]


def _prepared(matrix):
    """(a, shift): matrix checked, scaled down by 2^shift and symmetrized.

    matrix must convert to a square, finite float array that is symmetric
    up to round-off.  One with an entry past 2^_MAX_EXPONENT is scaled down
    by a power of two, which is exact.
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
    return a, shift


def _parity_parts(a):
    """Slices of a's parity blocks, even indices first, or one slice for all of a.

    a splits when no entry couples an even index to an odd one.
    """
    if a[0::2, 1::2].any():
        return [slice(None)]
    return [slice(p, None, 2) for p in range(min(a.shape[0], 2))]


def _member(a, shift):
    """(shift, rows, blocks) of a matrix a that `_prepared` scaled down by 2^shift.

    blocks are a's parity blocks (`_parity_parts`), even first, and rows[k]
    the rows of a that block k holds.
    """
    parts = _parity_parts(a)
    return shift, [np.arange(a.shape[0])[part] for part in parts], [a[part, part] for part in parts]


def _level_order(w, rows):
    """The order of the concatenated block levels w, where block k holds rows[k].

    By the oscillation theorem level k of a block is state rows[k].  Two
    adjacent levels of opposite parity no further apart than the ascent
    tolerance are put in the oscillation theorem's order, not in the order
    rounding gave them.
    """
    ranks = np.concatenate(rows).tolist()
    order = np.argsort(w, kind="stable").tolist()
    levels = w.tolist()
    for i in range(len(order) - 1):
        j, k = order[i], order[i + 1]
        if ranks[j] > ranks[k] and levels[k] - levels[j] <= ascent_tolerance(levels[k]):
            order[i], order[i + 1] = k, j
    return order


def eigh(matrix) -> Spectrum:
    """Full spectral decomposition of a symmetric matrix.

    Accepts anything numpy converts to a square float array; symmetry is
    required up to round-off.  A matrix with no entry coupling an even index
    to an odd one, such as the Hamiltonian of an even potential, is block
    diagonal once the even indices are put before the odd ones.  Each block
    is solved on its own, so every eigenvector is exactly even or odd in the
    index, and the residual is the larger block residual, which is that of
    the whole matrix.  The two blocks are reduced as one stack.  A matrix
    with an entry past 2^256 is solved scaled down by a power of two, so
    that only its eigenvalues must lie in the float range.  Deterministic
    for identical input.
    """
    a, shift = _prepared(matrix)
    n = a.shape[0]
    _, rows, blocks = _member(a, shift)
    reduced, pads = _stack(blocks)
    d, e, betas = _householder_tridiag(reduced)
    cut, split = _splits(d, e)
    solved = []
    for b, (block, pad) in enumerate(zip(blocks, pads.tolist())):
        w, order = _tridiagonal_levels(d[b, pad:], split[b, pad:])
        z = _tridiagonal_vectors(d[b, pad:], e[b, pad:], np.flatnonzero(cut[b, pad:]), w, order)
        _back_transform(reduced[b, pad:, pad:], betas[b, pad:], z)
        solved.append(_finish(block, w, z, shift))
    values, vectors, residuals = zip(*solved)
    # free the full matrix and the stack before the n x n merge below
    del a, blocks, block, reduced, solved
    w = np.concatenate(values)
    order = _level_order(w, rows)
    columns = np.argsort(order)
    v = np.zeros((n, n))
    for r, z in zip(rows, vectors):
        v[r[:, None], columns[:r.size]] = z
        columns = columns[r.size:]
    del vectors, z  # free the block eigenvectors before Spectrum copies v
    return Spectrum(w[order], v, max(residuals))


def eigvalsh(matrix) -> np.ndarray:
    """The eigenvalues of a symmetric matrix, bitwise eigh's and in its order.

    Takes the same input as `eigh`, splits it into the same parity blocks
    and runs the same Householder reduction and QL on each, but forms no
    eigenvector.  Without vectors there is no eigen residual to check, so
    each block is certified by `_certify` instead: a Frobenius-norm check
    of the reduction and a Sturm count that puts each level within eigh's
    residual gate of an eigenvalue of T, of its own index.
    """
    solver = _LevelSolver()
    (w,) = solver.solve([lambda: matrix])
    solver.certify()
    return w


def _reduce(group):
    """The reduce phase of eigvalsh on each (shift, rows, blocks) member of the group (`_member`).

    The members' blocks are reduced as one stack and QL runs block by
    block.  Returns (levels, reduced): levels[j] is member j's levels,
    unscaled and in eigh's order, or None where QL or the unscaling failed
    on one of its blocks, and reduced is the `_Reduced` stack that
    `_certify` checks, which holds those errors.
    """
    shifts = np.array([shift for shift, _, blocks in group for _ in blocks])
    stack, pads = _stack([block for _, _, blocks in group for block in blocks])
    norm_a = np.sqrt((stack * stack).sum(axis=(1, 2)))
    tol = _gate(stack, shifts)
    d, e, _ = _householder_tridiag(stack)
    norm_t = np.sqrt((d * d).sum(axis=1) + 2.0 * (e * e).sum(axis=1))
    split = _splits(d, e)[1]
    w = np.zeros(d.shape)
    levels, errors = [], []
    b = 0
    for shift, rows, blocks in group:
        values = []
        for _ in blocks:
            pad = int(pads[b])
            try:
                block_levels = _tridiagonal_levels(d[b, pad:], split[b, pad:])[0]
            except ConvergenceError as err:
                errors.append((err, None))
            else:
                w[b, :block_levels.size] = block_levels
                # unchecked; repeats a level, so no new pivots
                w[b, block_levels.size:] = block_levels[0]
                try:
                    values.append(_unscaled(block_levels, shift))
                    errors.append((None, None))
                except RangeError as err:
                    errors.append((None, err))
            b += 1
        if len(values) < len(blocks):
            levels.append(None)
            continue
        values = np.concatenate(values)
        levels.append(values[_level_order(values, rows)])
    return levels, _Reduced(d, e, w, norm_a, norm_t, tol, shifts, pads, tuple(errors))


class _LevelSolver:
    """eigvalsh of many matrices: each matrix's levels now, their certificates later.

    `solve` reduces the parity blocks of consecutive matrices as one
    zero-padded stack (`_stack`) of up to _STACK_ENTRIES entries, or of one
    matrix's blocks, and returns their levels from the reduce phase alone
    (`_reduce`).  `certify` checks the matrices solved since its last call
    (`_certify`); a stack of another block size, or one that would take the
    pending blocks past _CERTIFY_ENTRIES pivots, runs that pass first.  A
    caller reads levels that may not be certified yet, and must call
    `certify` before it returns anything computed from them.

    Both raise what the loop of eigvalsh over the matrices, in solve order,
    would raise first.  `certified` counts the matrices certified clean, so
    a failure belongs to matrix number `certified`, from 0.
    """

    def __init__(self):
        self.certified = 0
        self._pending = []  # reduced stacks of one block size
        self._sizes = []  # the blocks of each matrix in them, in solve order

    def solve(self, builds):
        """The levels, in eigh's order, of the matrix each callable of builds returns.

        A build that raises, or a block whose QL or unscaling fails, is
        raised once every matrix before it is certified.
        """
        levels, group, count, top = [], [], 0, 0
        for build in builds:
            try:
                member = _member(*_prepared(build()))
            except Exception:
                self._pend(group)
                self.certify()
                raise
            blocks = member[2]
            # the even block is the larger one
            if group and (count + len(blocks)) * max(top, blocks[0].shape[0]) ** 2 > _STACK_ENTRIES:
                levels += self._pend(group)
                group, count, top = [], 0, 0
            group.append(member)
            count, top = count + len(blocks), max(top, blocks[0].shape[0])
        return levels + self._pend(group)

    def _pend(self, group):
        """The levels of the group's members (`_reduce`), their certificate pending."""
        if not group:
            return []
        levels, reduced = _reduce(group)
        count, n = reduced.d.shape
        if self._pending and (self._pending[0].d.shape[1] != n
                              or (sum(self._sizes) + count) * 2 * n * n > _CERTIFY_ENTRIES):
            self.certify()
        self._pending.append(reduced)
        self._sizes += [len(blocks) for _, _, blocks in group]
        if any(values is None for values in levels):
            self.certify()  # raises: a block of the group failed, if no earlier one did
        return levels

    def certify(self):
        """Certify the matrices solved since the last pass; raise the first failure, in solve order."""
        pending, sizes = self._pending, self._sizes
        self._pending, self._sizes = [], []
        if not pending:
            return
        failures = iter(_certify(_joined(pending)))
        for size in sizes:
            failure = next((f for f in itertools.islice(failures, size) if f is not None), None)
            if failure is not None:
                raise failure
            self.certified += 1

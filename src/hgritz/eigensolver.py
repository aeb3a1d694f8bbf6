"""Symmetric real eigensolver: Householder reduction plus implicit-shift QL.

Solves the secular equation |A - eps I| = 0 for dense or banded symmetric
input without outside linear-algebra routines: reduce to tridiagonal form by
Householder reflections, then run implicit-shift QL with Wilkinson shifts,
accumulating the eigenvectors.  Output is deterministic: eigenvalues ascend
and each eigenvector has its largest-magnitude component positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

_EPS = float(np.finfo(float).eps)

#: QL sweep budget per eigenvalue; a full solve uses at most dim times this.
_MAX_SWEEPS = 30


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
        if w.ndim != 1 or v.ndim != 2 or v.shape[1] != w.size:
            raise ValueError("need one eigenvector column per eigenvalue")
        if w.size > 1 and np.any(np.diff(w) < -1e-12 * (1.0 + np.abs(w[:-1]))):
            raise ValueError("eigenvalues must ascend")
        gram = v.T @ v
        if float(np.abs(gram - np.eye(w.size)).max()) > 1e-10:
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
    """Reduce symmetric a in place to tridiagonal T = Q^T A Q; return d, e, Q."""
    n = a.shape[0]
    q = np.eye(n)
    for k in range(n - 2):
        x = a[k + 1:, k]
        norm_x = float(np.linalg.norm(x))
        if norm_x == 0.0:
            continue
        v = x.copy()
        v[0] += math.copysign(norm_x, x[0])
        vsq = float(v @ v)
        if vsq == 0.0:
            continue
        beta = 2.0 / vsq
        sub = a[k + 1:, k + 1:]
        p = beta * (sub @ v)
        w = p - (0.5 * beta * float(p @ v)) * v
        sub -= np.outer(w, v) + np.outer(v, w)
        head = -math.copysign(norm_x, x[0])
        a[k + 1, k] = head
        a[k, k + 1] = head
        a[k + 2:, k] = 0.0
        a[k, k + 2:] = 0.0
        qv = q[:, k + 1:] @ v
        q[:, k + 1:] -= beta * np.outer(qv, v)
    return np.diag(a).copy(), np.diag(a, 1).copy(), q


def _ql_implicit(d, e, z):
    """Implicit-shift QL on tridiagonal (d, e), rotating columns of z.

    d has length n and is overwritten with eigenvalues (unsorted); e has
    length n with e[i] coupling d[i], d[i+1] and e[n-1] = 0 as sentinel.
    """
    n = d.size
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
                col = z[:, i + 1].copy()
                z[:, i + 1] = s * z[:, i] + c * col
                z[:, i] = c * z[:, i] - s * col
            if underflow:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0


def _fix_signs(v):
    """Flip eigenvector columns so the largest-magnitude component is positive."""
    for j in range(v.shape[1]):
        i = int(np.argmax(np.abs(v[:, j])))
        if v[i, j] < 0.0:
            v[:, j] = -v[:, j]
    return v


def _finish(a_apply, norm_inf, d, z, n):
    order = np.argsort(d, kind="stable")
    w = d[order]
    v = _fix_signs(z[:, order])
    resid = a_apply(v) - v * w
    residual = float(np.sqrt((resid * resid).sum(axis=0)).max()) if n else 0.0
    if residual > 1e-10 * (1.0 + norm_inf):
        raise ConvergenceError(
            f"eigen residual {residual:.3e} above tolerance for dim {n}", dim=n)
    return Spectrum(w, v, residual)


def eigh(matrix) -> Spectrum:
    """Full spectral decomposition of a symmetric matrix.

    Accepts a BandedSymMatrix or any square array-like; symmetry is required
    up to round-off.  Deterministic for identical input.
    """
    from .operators import BandedSymMatrix

    if isinstance(matrix, BandedSymMatrix):
        a = matrix.to_dense()
    else:
        a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if a.size == 0:
        raise ValueError("matrix must have dim >= 1")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    scale = float(np.abs(a).max())
    if float(np.abs(a - a.T).max()) > 1e-12 * (1.0 + scale):
        raise ValueError("matrix is not symmetric")
    a = 0.5 * (a + a.T)
    n = a.shape[0]
    if n == 1:
        return Spectrum(a[0], np.eye(1))

    work = a.copy()
    d, e, q = _householder_tridiag(work)
    epad = np.append(e, 0.0)
    _ql_implicit(d, epad, q)
    norm_inf = float(np.abs(a).sum(axis=1).max())
    return _finish(lambda v: a @ v, norm_inf, d, q, n)


def eigh_tridiagonal(diag, offdiag) -> Spectrum:
    """Spectral decomposition of a symmetric tridiagonal matrix.

    Fast path shared with the quadrature module; same contract as eigh.
    """
    d = np.array(diag, dtype=float)
    e = np.array(offdiag, dtype=float)
    if d.ndim != 1 or e.ndim != 1 or d.size < 1 or e.size != d.size - 1:
        raise ValueError("need len(offdiag) == len(diag) - 1 >= 0")
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise ValueError("matrix entries must be finite")
    n = d.size
    if n == 1:
        return Spectrum(d, np.eye(1))

    def apply(v):
        out = d[:, None] * v
        out[:-1] += e[:, None] * v[1:]
        out[1:] += e[:, None] * v[:-1]
        return out

    row_sums = np.abs(d).copy()
    row_sums[:-1] += np.abs(e)
    row_sums[1:] += np.abs(e)
    norm_inf = float(row_sums.max())

    dwork = d.copy()
    epad = np.append(e, 0.0)
    z = np.eye(n)
    _ql_implicit(dwork, epad, z)
    return _finish(apply, norm_inf, dwork, z, n)

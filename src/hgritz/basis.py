"""Orthonormal Hermite-Gaussian basis functions.

The family

    phi_r(x) = A_r exp(-alpha x^2 / 2) H_r(x sqrt(alpha)),
    A_r^2    = (1 / (2^r r!)) sqrt(alpha / pi),

is orthonormal on the real line for every width parameter alpha > 0; phi_r is
even (odd) for even (odd) r and has exactly r real zeros.  All evaluations go
through a normalized three-term recurrence acting on phi directly,

    phi_{r+1} = (x sqrt(2 alpha) phi_r - sqrt(r) phi_{r-1}) / sqrt(r + 1),

seeded with phi_0 = (alpha/pi)^(1/4) exp(-alpha x^2 / 2).  H_r and 2^r r!
separately overflow near r ~ 150 while phi_r itself stays O(1).  Where the
seed itself would underflow (alpha x^2 above about 1416) the recurrence
carries a binary exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Cap on basis-function indices.  Beyond desk scale; keeps factorial-free
#: evaluation paths honest.
MAX_INDEX = 1024


@dataclass(frozen=True)
class Constants:
    """Physical constants hbar and mass, both positive."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "mass"):
            _require_positive(name, getattr(self, name))
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass(frozen=True)
class BasisSpec:
    """Width parameter alpha (inverse length squared) plus hbar and mass."""

    alpha: float
    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "hbar", "mass"):
            _require_positive(name, getattr(self, name))
            object.__setattr__(self, name, float(getattr(self, name)))


def _require_positive(name, value):
    if isinstance(value, bool) or not isinstance(value, (int, float, np.floating, np.integer)):
        raise ValueError(f"{name} must be a positive real, got {value!r}")
    if not math.isfinite(float(value)) or float(value) <= 0.0:
        raise ValueError(f"{name} must be a positive finite real, got {value!r}")


def _is_integer(value):
    """True for a Python or numpy integer that is no bool: the rule for every size and count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_index(r) -> int:
    """Validate a basis-function index: integer, 0 <= r < MAX_INDEX."""
    if not _is_integer(r):
        raise TypeError(f"index must be an integer, got {r!r}")
    r = int(r)
    if r < 0:
        raise ValueError(f"index must be non-negative, got {r}")
    if r >= MAX_INDEX:
        raise ValueError(f"index {r} above cap {MAX_INDEX}")
    return r


#: Smallest normal double.  Where phi_0 falls below it (alpha x^2 above about
#: 1416) the recurrence also runs on carried mantissas.
_TINY = float(np.finfo(float).tiny)

#: A carried mantissa that passes 2^_CARRY_STEP is scaled down by that power
#: of two, which is exact.
_CARRY_STEP = 256

#: Lowest carried binary exponent.  A seed below 2^_MIN_EXPONENT (alpha x^2
#: above about 1.5e9, or infinite) carries mantissa 0, as every row there is
#: 0 in doubles.
_MIN_EXPONENT = -(2**30)


def _recurrence(spec, xv, out):
    """Write phi_0 .. phi_{len(out) - 1} on xv into the rows of out, in order.

    Each row is written in place with the same IEEE operations in the same
    order as (sq2y * phi_k - sqrt(k) * phi_{k-1}) / sqrt(k + 1), so every
    row is bitwise the same whatever out holds and however many rows follow.

    Where phi_0 is a normal double the rows are the plain recurrence.  Past
    x = sqrt(1416 / alpha) phi_0 goes subnormal and then 0, and would take
    every later row with it although phi_r is O(0.1) out to its turning
    point.  At those points the recurrence also runs on mantissas that carry
    a binary exponent, and the deep columns of each row are written back as
    ldexp(mantissa, exponent).  A grid without such points does no extra
    work.
    """
    rows = list(out)
    y = xv * math.sqrt(spec.alpha)
    sq2y = math.sqrt(2.0) * y
    row = rows[0]
    np.exp(-0.5 * y * y, out=row)
    row *= (spec.alpha / math.pi) ** 0.25
    deep = np.flatnonzero(row < _TINY)
    if deep.size:
        with np.errstate(over="ignore"):
            log2_phi0 = (0.25 * math.log(spec.alpha / math.pi) - 0.5 * y[deep] ** 2) / math.log(2.0)
        exponent = np.maximum(np.floor(log2_phi0), _MIN_EXPONENT)
        m_cur = np.exp2(log2_phi0 - exponent)
        m_below = np.zeros_like(m_cur)
        exponent = exponent.astype(np.int64)
        row[deep] = np.ldexp(m_cur, exponent)
        sq2y_deep = sq2y[deep]
    term = np.empty_like(row)
    # sqrt(k) as 0-d arrays, which ufuncs take faster than floats; np.sqrt
    # and math.sqrt are both correctly rounded, so their bits agree
    roots = np.sqrt(np.arange(len(rows), dtype=float))
    root_next = roots[0, ...]
    for k in range(len(rows) - 1):
        row = rows[k + 1]
        root, root_next = root_next, roots[k + 1, ...]
        # each ufunc writes to its last argument
        np.multiply(sq2y, rows[k], row)
        if k:
            # at k = 0 the subtracted sqrt(0) phi_{-1} is 0 and the divisor 1
            np.multiply(rows[k - 1], root, term)
            np.subtract(row, term, row)
            np.divide(row, root_next, row)
        if deep.size:
            m_below, m_cur = m_cur, (sq2y_deep * m_cur - root * m_below) / root_next
            big = np.abs(m_cur) > 2.0**_CARRY_STEP
            if big.any():
                m_cur[big] = np.ldexp(m_cur[big], -_CARRY_STEP)
                m_below[big] = np.ldexp(m_below[big], -_CARRY_STEP)
                exponent[big] += _CARRY_STEP
            row[deep] = np.ldexp(m_cur, exponent)


def basis_table(spec: BasisSpec, rmax: int, x) -> np.ndarray:
    """Evaluate phi_0 .. phi_rmax on a grid; returns shape (rmax + 1, len(x)).

    Decays like exp(-alpha x^2 / 2) at large |x|, and row r satisfies
    phi_r(-x) = (-1)^r phi_r(x) exactly.  x is a scalar or one-dimensional;
    any other shape raises ValueError.
    """
    rmax = check_index(rmax)
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    if xv.ndim != 1:
        raise ValueError(f"the grid must be a scalar or one-dimensional, got shape {xv.shape}")
    out = np.empty((rmax + 1, xv.size))
    _recurrence(spec, xv, out)
    return out

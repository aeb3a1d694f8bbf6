"""Orthonormal Hermite-Gaussian basis functions.

The family

    phi_r(x) = A_r exp(-alpha x^2 / 2) H_r(x sqrt(alpha)),
    A_r^2    = (1 / (2^r r!)) sqrt(alpha / pi),

is orthonormal on the real line for every width parameter alpha > 0; phi_r is
even (odd) for even (odd) r and has exactly r real zeros.  All evaluations go
through a normalized three-term recurrence acting on phi directly,

    phi_{r+1} = (x sqrt(2 alpha) phi_r - sqrt(r) phi_{r-1}) / sqrt(r + 1),

seeded with phi_0 = (alpha/pi)^(1/4) exp(-alpha x^2 / 2).  H_r and 2^r r!
separately overflow near r ~ 150 while phi_r itself stays O(1).
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

    @property
    def constants(self) -> Constants:
        return Constants(self.hbar, self.mass)


def _require_positive(name, value):
    if isinstance(value, bool) or not isinstance(value, (int, float, np.floating, np.integer)):
        raise ValueError(f"{name} must be a positive real, got {value!r}")
    if not math.isfinite(float(value)) or float(value) <= 0.0:
        raise ValueError(f"{name} must be a positive finite real, got {value!r}")


def check_index(r, *, cap: int = MAX_INDEX) -> int:
    """Validate a basis-function index: integer, 0 <= r < cap."""
    if isinstance(r, bool) or not isinstance(r, (int, np.integer)):
        raise TypeError(f"index must be an integer, got {r!r}")
    r = int(r)
    if r < 0:
        raise ValueError(f"index must be non-negative, got {r}")
    if r >= cap:
        raise ValueError(f"index {r} above cap {cap}")
    return r


def _as_grid(x):
    """Return (array view of x, was_scalar)."""
    arr = np.asarray(x, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def basis_table(spec: BasisSpec, rmax: int, x) -> np.ndarray:
    """Evaluate phi_0 .. phi_rmax on a grid; returns shape (rmax + 1, len(x))."""
    rmax = check_index(rmax)
    xv, _ = _as_grid(x)
    y = xv * math.sqrt(spec.alpha)
    out = np.empty((rmax + 1, xv.size))
    out[0] = (spec.alpha / math.pi) ** 0.25 * np.exp(-0.5 * y * y)
    if rmax >= 1:
        out[1] = math.sqrt(2.0) * y * out[0]
    for k in range(1, rmax):
        out[k + 1] = (math.sqrt(2.0) * y * out[k] - math.sqrt(k) * out[k - 1]) / math.sqrt(k + 1)
    return out


def _phi_neighbours(spec, r, xv):
    """One recurrence pass returning (phi_{r-1}, phi_r, phi_{r+1}) on xv."""
    y = xv * math.sqrt(spec.alpha)
    sq2 = math.sqrt(2.0)
    below = np.zeros_like(xv)
    cur = (spec.alpha / math.pi) ** 0.25 * np.exp(-0.5 * y * y)
    for k in range(r):
        below, cur = cur, (sq2 * y * cur - math.sqrt(k) * below) / math.sqrt(k + 1)
    above = (sq2 * y * cur - math.sqrt(r) * below) / math.sqrt(r + 1)
    return below, cur, above


def basis_value(spec: BasisSpec, r, x):
    """phi_r(x), evaluated by the normalized recurrence.

    Decays like exp(-alpha x^2 / 2) at large |x| and satisfies
    phi_r(-x) = (-1)^r phi_r(x) exactly.
    """
    r = check_index(r)
    xv, scalar = _as_grid(x)
    _, cur, _ = _phi_neighbours(spec, r, xv)
    return float(cur[0]) if scalar else cur


def basis_derivative(spec: BasisSpec, r, x):
    """d(phi_r)/dx = (sqrt(2 alpha)/2) (sqrt(r) phi_{r-1} - sqrt(r+1) phi_{r+1}).

    For r = 0 the phi_{r-1} term is absent.
    """
    r = check_index(r)
    xv, scalar = _as_grid(x)
    below, _, above = _phi_neighbours(spec, r, xv)
    out = 0.5 * math.sqrt(2.0 * spec.alpha) * (math.sqrt(r) * below - math.sqrt(r + 1) * above)
    return float(out[0]) if scalar else out

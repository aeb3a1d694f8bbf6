"""Choice of the basis width parameter alpha.

For the harmonic oscillator there is a closed-form special value
alpha = m omega / hbar at which the Hamiltonian matrix is exactly diagonal
and every truncation reproduces the exact spectrum.  For everything else the
width is chosen variationally: scan a grid of alphas, or minimize the ground
eigenvalue over a bracket with golden-section search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, Constants, _require_positive
from .eigensolver import Spectrum, eigh
from .errors import ConvergenceError
from .operators import PotentialSpec, hamiltonian_matrix
from .spectral import ConvergenceTable

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

_EPS = float(np.finfo(float).eps)

#: Error of the Hamiltonian's entries as a multiple of eps * ||H||_2.  Each
#: entry of T and V carries a few roundings; by Weyl's inequality they move
#: every eigenvalue of the stored matrix by at most the norm of that error.
_ENTRY_ROUNDING = 4.0

#: minimize_alpha stops once the bracket is narrower than
#: max(REL_TOL * alpha, WIDTH_FLOOR).
REL_TOL = 1e-8
WIDTH_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class AlphaScanResult:
    """Spectra over an ascending alpha grid at fixed dim, plus the grid argmin."""

    alphas: np.ndarray
    energies: tuple[np.ndarray, ...]
    argmin_alpha: float


@dataclass(frozen=True)
class MinimizeResult:
    """Golden-section minimizer of the ground eigenvalue over alpha.

    Where the ground eigenvalue is flat to within the eigensolver's error
    bound, alpha_star is the point the tie rule of minimize_alpha picks from
    the higher levels; for the harmonic oscillator that is m omega / hbar.
    energy is the ground eigenvalue at alpha_star.

    boundary is set when the search converged onto a bracket endpoint, i.e.
    the objective looked monotone on the bracket and the returned point is a
    boundary solution rather than an interior minimum.
    """

    alpha_star: float
    energy: float
    boundary: bool


def solve_spectrum(pot: PotentialSpec, constants: Constants, alpha: float,
                   dim: int) -> Spectrum:
    """One secular-equation solve at the given width parameter."""
    spec = BasisSpec(alpha, constants.hbar, constants.mass)
    return eigh(hamiltonian_matrix(spec, pot, dim))


def exact_diagonal_alpha(omega: float, constants: Constants = Constants()) -> float:
    """The width m omega / hbar that makes the harmonic matrix exactly diagonal."""
    _require_positive("omega", omega)
    return constants.mass * float(omega) / constants.hbar


def scan_alpha(pot: PotentialSpec, constants: Constants, dim: int,
               alphas) -> AlphaScanResult:
    """Full spectrum per alpha over a grid; argmin is over the ground level."""
    grid = np.asarray(alphas, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("need a non-empty alpha grid")
    if np.any(~np.isfinite(grid)) or np.any(grid <= 0.0):
        raise ValueError("alphas must be positive finite reals")
    grid = np.sort(grid)
    energies = []
    for a in grid:
        try:
            energies.append(solve_spectrum(pot, constants, float(a), dim).eigenvalues)
        except ConvergenceError as err:
            raise ConvergenceError(
                f"eigensolver failed at alpha = {a!r}: {err}",
                dim=err.dim, index=err.index) from err
    ground = np.array([e[0] for e in energies])
    argmin = float(grid[int(np.argmin(ground))])
    return AlphaScanResult(grid, tuple(energies), argmin)


def minimize_alpha(pot: PotentialSpec, constants: Constants, dim: int,
                   bracket: tuple[float, float], *, levels: int = 1) -> MinimizeResult:
    """Golden-section search for the alpha minimizing the ground eigenvalue.

    The objective is the lowest eigenvalue (optionally the sum of the lowest
    `levels`, which is exposed but not the default) and is assumed unimodal
    on the bracket; a monotone objective converges onto an endpoint and is
    flagged as a boundary solution instead of raising.  The bracket shrinks
    until its width falls below max(REL_TOL * alpha, WIDTH_FLOOR).

    Two widths are compared by their objective values only where these
    differ by more than the sum of their error bounds.  A computed Ritz level
    lies within r + 4 eps ||H|| of the exact one: for a symmetric matrix
    |computed - exact eigenvalue| <= ||H v - lambda v||, the eigen
    residual_norm r of the solve, and rounding the entries of H moves each
    eigenvalue by up to about 4 eps ||H|| more, ||H|| being the largest
    |level|.  The summed objective of `levels` levels gets `levels` times
    that bound.  A tie is broken by the next Ritz levels in ascending order,
    the first pair that differs by more than its bounds deciding; a width
    where every level ties with the other loses the left part of the
    bracket.  By the Hylleraas-Undheim-MacDonald theorem each Ritz level is
    an upper bound on its exact level, so on a ground level that is flat to
    rounding (harmonic oscillator, dim 30: 0.5 to within one ulp for alpha
    in about (0.55, 1.75)) alpha_star is the tie-broken point, m omega / hbar
    for the harmonic oscillator, instead of a point picked by rounding noise.
    A fixed tolerance in ulps of each value is not used: the error of every
    level grows with the norm of H, and a 4-ulp tolerance misreads the
    rounding of the higher levels as order (alpha_star = 1.544 for that
    harmonic case).  Nor is the residual alone: it leaves out the rounding of
    H, and ranked by it the harmonic search misses alpha = 1 by up to 9e-5
    (dim 42 on (0.8, 5)).
    """
    lo, hi = (float(bracket[0]), float(bracket[1]))
    if not (0.0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got ({lo}, {hi})")
    if levels < 1 or levels > dim:
        raise ValueError("levels must lie in [1, dim]")

    def objective(a):
        spectrum = solve_spectrum(pot, constants, a, dim)
        w = spectrum.eigenvalues
        key = np.concatenate(([w[:levels].sum()], w[levels:]))
        norm = max(abs(w[0]), abs(w[-1]))
        bound = np.full(key.size, spectrum.residual_norm + _ENTRY_ROUNDING * _EPS * norm)
        bound[0] *= levels
        return key, bound

    def below(p, q):
        # the first key that differs by more than both bounds decides
        apart = np.abs(p[0] - q[0]) > p[1] + q[1]
        i = int(np.argmax(apart))
        return bool(apart[i] and p[0][i] < q[0][i])

    lo0, hi0 = lo, hi
    m1 = hi - _INVPHI * (hi - lo)
    m2 = lo + _INVPHI * (hi - lo)
    f1 = objective(m1)
    f2 = objective(m2)
    while hi - lo > max(REL_TOL * 0.5 * (lo + hi), WIDTH_FLOOR):
        if below(f1, f2):
            hi, m2, f2 = m2, m1, f1
            m1 = hi - _INVPHI * (hi - lo)
            f1 = objective(m1)
        else:
            lo, m1, f1 = m1, m2, f2
            m2 = lo + _INVPHI * (hi - lo)
            f2 = objective(m2)
    alpha_star = 0.5 * (lo + hi)
    energy = float(solve_spectrum(pot, constants, alpha_star, dim).eigenvalues[0])
    edge = 2.0 * max(REL_TOL * alpha_star, WIDTH_FLOOR)
    boundary = (alpha_star - lo0) <= edge or (hi0 - alpha_star) <= edge
    return MinimizeResult(alpha_star, energy, boundary)


def convergence_table(pot: PotentialSpec, constants: Constants, alpha: float,
                      dims) -> ConvergenceTable:
    """Spectra at fixed alpha across truncation sizes, ready for check_mhu."""
    dims = tuple(int(d) for d in dims)
    spectra = tuple(solve_spectrum(pot, constants, alpha, d).eigenvalues for d in dims)
    return ConvergenceTable(dims, spectra, float(alpha), pot)

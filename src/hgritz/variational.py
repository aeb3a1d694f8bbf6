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

from .basis import BasisSpec, Constants, _is_integer, _require_positive
from .eigensolver import Spectrum, _LevelSolver, eigh
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


def _level_error(dim):
    """A-priori bound on the error of every computed level, in units of eps ||H||_2.

    c = n_b^2 / 2 + 5 n_b + _ENTRY_ROUNDING, n_b = ceil(dim / 2) being the
    larger parity block of H, which every even potential splits into.  Each
    term is a first-order bound on a backward error, carried to the levels
    by Weyl's inequality; u = eps / 2 is the unit roundoff:

    - Householder, n_b^2 / 2.  Reflector k (k = 0 .. n_b - 3) has length
      m_k = n_b - 1 - k, and applied from one side it is exact for a
      perturbation of gamma_(m_k) = m_k u times the norm (Higham 2002,
      Lemma 19.3).  The reduction applies it from both sides, m_k eps,
      and the m_k sum to n_b (n_b - 1) / 2 - 1.
    - QL, 5 n_b.  Each implicit sweep is an exact orthogonal similarity of
      T perturbed by a few roundings of each tridiagonal entry it touches,
      at most 4 u = 2 eps times ||T||.  QL took at most 2.3 sweeps per
      level on every parity block of four Hamiltonian families at dims
      4 to 256 and on random dense matrices to dim 200; 2.5 per level is
      taken (_MAX_SWEEPS = 30 is only the eigensolver's hard cap).
    - the entries of H, _ENTRY_ROUNDING.

    On the harmonic, quartic, sextic and double-well Hamiltonians at dims 8
    to 64 and three widths, every level lay within 3.8 eps ||H|| of the
    exact level of the stored matrix (40-digit arithmetic), an eighth of c
    or less.
    """
    n_b = (dim + 1) // 2
    return 0.5 * n_b * n_b + 5.0 * n_b + _ENTRY_ROUNDING


def _build(pot, constants, alpha, dim):
    """The build of H at width alpha, a callable that returns it."""
    return lambda: hamiltonian_matrix(BasisSpec(alpha, constants.hbar, constants.mass), pot, dim)


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
    return eigh(_build(pot, constants, alpha, dim)())


def exact_diagonal_alpha(omega: float, constants: Constants = Constants()) -> float:
    """The width m omega / hbar that makes the harmonic matrix exactly diagonal."""
    _require_positive("omega", omega)
    return constants.mass * float(omega) / constants.hbar


def scan_alpha(pot: PotentialSpec, constants: Constants, dim: int,
               alphas) -> AlphaScanResult:
    """All Ritz levels per alpha over a grid; argmin is over the ground level.

    Each spectrum is bitwise `eigvalsh` of H at its width, the whole grid
    solved in one call.  The first width whose build or solve fails, in
    ascending order, raises what it raises alone, its message naming the
    width.
    """
    grid = np.asarray(alphas, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("need a non-empty alpha grid")
    if np.any(~np.isfinite(grid)) or np.any(grid <= 0.0):
        raise ValueError("alphas must be positive finite reals")
    grid = np.sort(grid)
    solver = _LevelSolver()
    try:
        energies = solver.solve(_build(pot, constants, float(a), dim) for a in grid)
        solver.certify()
    except (ConvergenceError, OverflowError) as err:
        # the error keeps its type and fields, and its message gains the width
        err.args = (f"eigensolver failed at alpha = {float(grid[solver.certified])!r}: {err}",)
        raise
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
    lies within c eps ||H|| of the exact one, ||H|| being the largest |level|
    and c = n_b^2 / 2 + 5 n_b + 4 for the larger parity block
    n_b = ceil(dim / 2): the backward errors of Householder's reduction and
    of QL and the rounding of H's entries, each carried to the levels by
    Weyl's inequality (`_level_error` derives it).  The levels come from
    `eigvalsh`, which forms no eigenvector, so no eigen residual enters the
    bound.  The summed objective of `levels` levels gets `levels` times that
    bound.  A tie is broken by the next Ritz levels in ascending order, the
    first pair that differs by more than its bounds deciding; a width
    where every level ties with the other loses the left part of the
    bracket.  By the Hylleraas-Undheim-MacDonald theorem each Ritz level is
    an upper bound on its exact level, so on a ground level that is flat to
    rounding (harmonic oscillator, dim 30: 0.5 to within one ulp for alpha
    in about (0.55, 1.75)) alpha_star is the tie-broken point, m omega / hbar
    for the harmonic oscillator, instead of a point picked by rounding noise.
    A fixed tolerance in ulps of each value is not used: the error of every
    level grows with the norm of H, and a 4-ulp tolerance misreads the
    rounding of the higher levels as order (alpha_star = 1.544 for that
    harmonic case).  Nor is a bound that leaves out the rounding of H:
    ranked by the eigen residual alone the harmonic search misses alpha = 1
    by up to 9e-5 (dim 42 on (0.8, 5)).  A bound too wide ties real order:
    with n_b^3 in place of the n_b^2 term that search misses alpha = 1 as
    well.

    Each width's levels are bitwise its `eigvalsh`'s, read before they are
    certified; the search certifies them before it returns and raises what
    the loop of eigvalsh over its widths, in solve order, would raise first.
    A width is solved when a comparison first reads it, so the last width
    the loop places, and the opening pair of a bracket already narrower
    than the tolerance, are never solved.
    """
    lo, hi = (float(bracket[0]), float(bracket[1]))
    if not (0.0 < lo < hi < math.inf):
        raise ValueError(f"bracket must hold finite 0 < lo < hi, got ({lo}, {hi})")
    if not (_is_integer(levels) and 1 <= levels <= dim):
        raise ValueError(f"levels must be an integer in [1, dim = {dim!r}], got {levels!r}")

    error = _level_error(dim) * _EPS
    solver = _LevelSolver()

    def levels_at(a):
        return solver.solve([_build(pot, constants, a, dim)])[0]

    def objective(a):
        w = levels_at(a)
        key = np.concatenate(([w[:levels].sum()], w[levels:]))
        bound = np.full(key.size, error * max(abs(w[0]), abs(w[-1])))
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
    # a width is solved when a comparison first reads it, so none that the
    # loop leaves unread is
    f1 = f2 = None
    while hi - lo > max(REL_TOL * 0.5 * (lo + hi), WIDTH_FLOOR):
        if f1 is None:
            f1 = objective(m1)
        if f2 is None:
            f2 = objective(m2)
        if below(f1, f2):
            hi, m2, f2 = m2, m1, f1
            m1, f1 = hi - _INVPHI * (hi - lo), None
        else:
            lo, m1, f1 = m1, m2, f2
            m2, f2 = lo + _INVPHI * (hi - lo), None
    alpha_star = 0.5 * (lo + hi)
    energy = float(levels_at(alpha_star)[0])
    solver.certify()
    edge = 2.0 * max(REL_TOL * alpha_star, WIDTH_FLOOR)
    boundary = (alpha_star - lo0) <= edge or (hi0 - alpha_star) <= edge
    return MinimizeResult(alpha_star, energy, boundary)


def convergence_table(pot: PotentialSpec, constants: Constants, alpha: float,
                      dims) -> ConvergenceTable:
    """Spectra at fixed alpha across truncation sizes, ready for check_mhu.

    H is built and densified once, at the largest dim, and each truncation
    d is solved on its leading d x d block.  Every band of H is elementwise
    in the row index, so that block is bitwise the matrix built at d and
    each spectrum is bitwise `eigvalsh(hamiltonian_matrix(spec, pot, d))`.
    Where a dim is invalid or the largest H leaves the float range, each
    dim's H is built on its own.  The first dim that fails raises what it
    raises alone.
    """
    dims = tuple(dims)
    builds = [_build(pot, constants, alpha, d) for d in dims]
    if dims and all(_is_integer(d) and d >= 1 for d in dims):
        try:
            whole = np.asarray(_build(pot, constants, alpha, max(dims))())
            whole.setflags(write=False)
        except (ValueError, OverflowError):
            pass  # each dim raises what it raises alone
        else:
            builds = [lambda d=d: whole[:d, :d] for d in dims]
    solver = _LevelSolver()
    spectra = solver.solve(builds)
    solver.certify()
    return ConvergenceTable(dims, tuple(spectra))

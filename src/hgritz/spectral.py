"""Structural checks on computed spectra and position-space reconstruction.

Two theorem-shaped properties are verified mechanically: truncated-matrix
eigenvalues must sit above the exact ones, decrease monotonically and
interlace as the basis grows (upper-bound/interlacing behaviour), and the
i-th eigenfunction must carry exactly i certified nodes (node structure).
The spectrum comparisons are non-strict with tolerance tol = 1e-10 (1 + |eps|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, basis_table
from .eigensolver import Spectrum
from .errors import DegenerateInputError
from .operators import PotentialSpec

EVEN = "even"
ODD = "odd"
MIXED = "mixed"

#: Tolerance of every check_mhu comparison, relative to 1 + |reference level|.
MHU_TOL = 1e-10

#: Relative floor under which samples count as boundary tail, not signal.
DEFAULT_AMPLITUDE_FLOOR = 1e-8

#: Grid used for node certification (see default_node_grid).
NODE_GRID_POINTS = 2001

#: Points of the shared half-line grid that node_counts evaluates at a time;
#: its working set is about (dim + states) x NODE_CHUNK floats.
NODE_CHUNK = 512


@dataclass(frozen=True, eq=False)
class ConvergenceTable:
    """Spectra of one Hamiltonian family across increasing truncation sizes."""

    dims: tuple[int, ...]
    spectra: tuple[np.ndarray, ...]
    alpha: float
    potential: PotentialSpec

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) == 0 or any(d < 1 for d in dims):
            raise ValueError("dims must be positive integers")
        if any(b <= a for a, b in zip(dims, dims[1:])):
            raise ValueError("dims must be strictly increasing")
        if len(self.spectra) != len(dims):
            raise ValueError("need one spectrum per dim")
        spectra = []
        for d, spec in zip(dims, self.spectra):
            arr = np.array(spec, dtype=float)
            if arr.shape != (d,):
                raise ValueError(f"spectrum for dim {d} must have {d} entries")
            if arr.size > 1 and np.any(np.diff(arr) < -1e-12 * (1.0 + np.abs(arr[:-1]))):
                raise ValueError("each spectrum must ascend")
            arr.setflags(write=False)
            spectra.append(arr)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spectra", tuple(spectra))
        object.__setattr__(self, "alpha", float(self.alpha))


@dataclass(frozen=True, eq=False)
class WavefunctionSamples:
    """Wavefunction sampled on an ascending grid, with certified node count."""

    grid: np.ndarray
    values: np.ndarray
    node_count: int


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "pass": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class MhuReport:
    """Outcome of the upper-bound/monotonicity/interlacing checks."""

    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dicts(self) -> list[dict]:
        return [c.to_dict() for c in self.checks]


def _scan_check(name, comparisons):
    """Fold (slack, tol, where) triples into a CheckResult; pass iff slack <= tol."""
    worst = None
    count = 0
    for slack, tol, where in comparisons:
        count += 1
        margin = slack - tol
        if worst is None or margin > worst[0]:
            worst = (margin, slack, where)
    if count == 0:
        return CheckResult(name, True, "vacuous: single truncation")
    margin, slack, where = worst
    if margin <= 0.0:
        return CheckResult(name, True, f"ok; worst slack {slack:.3e} at {where}")
    return CheckResult(name, False,
                       f"violated at {where}: slack {slack:.3e} above tolerance")


def check_mhu(table: ConvergenceTable, exact=None) -> MhuReport:
    """Verify upper-bound behaviour of a truncation family.

    (a) monotonicity: every level can only come down as the basis grows,
        eps_i(n) <= eps_i(m) + tol for truncations m < n;
    (b) interlacing: old levels sit between the new ones,
        eps_i(n) <= eps_i(m) <= eps_{i + (n - m)}(n) + tol;
    (c) upper bound, when `exact` energies are supplied:
        eps_i(n) >= E_i - tol for every truncation n.

    Each comparison uses tol = MHU_TOL * (1 + |reference eigenvalue|).
    """
    pairs = list(zip(table.dims, table.spectra))

    def monotone():
        for (dm, em), (dn, en) in zip(pairs, pairs[1:]):
            for i in range(dm):
                yield en[i] - em[i], MHU_TOL * (1.0 + abs(em[i])), f"(i={i}, dim={dn})"

    def interlace():
        for (dm, em), (dn, en) in zip(pairs, pairs[1:]):
            d = dn - dm
            for i in range(dm):
                tol = MHU_TOL * (1.0 + abs(em[i]))
                yield en[i] - em[i], tol, f"(i={i}, dim={dn}, lower)"
                yield em[i] - en[i + d], tol, f"(i={i}, dim={dn}, upper)"

    checks = [_scan_check("monotonicity", monotone()),
              _scan_check("interlacing", interlace())]

    if exact is not None:
        ref = np.asarray(exact, dtype=float)

        def bound():
            for dn, en in pairs:
                for i in range(min(ref.size, dn)):
                    yield ref[i] - en[i], MHU_TOL * (1.0 + abs(ref[i])), \
                        f"(i={i}, dim={dn})"

        checks.append(_scan_check("upper_bound", bound()))

    return MhuReport(tuple(checks))


def count_nodes(values, amplitude_floor: float = DEFAULT_AMPLITUDE_FLOOR) -> int:
    """Certified sign changes of a sampled function.

    Samples whose magnitude stays below amplitude_floor * max|values| are
    dropped first (boundary tails and grazing zeros carry no sign
    information); the count is over strict sign changes between consecutive
    surviving samples.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise DegenerateInputError("no samples")
    peak = float(np.abs(v).max())
    if peak == 0.0:
        raise DegenerateInputError("all samples are zero")
    kept = v[np.abs(v) > amplitude_floor * peak]
    if kept.size == 0:
        raise DegenerateInputError("all samples below the amplitude floor")
    signs = np.sign(kept)
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def reconstruct(spec: BasisSpec, coeffs, grid,
                amplitude_floor: float = DEFAULT_AMPLITUDE_FLOOR) -> WavefunctionSamples:
    """Sample psi = sum_r coeffs[r] phi_r on the grid and certify its nodes."""
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficients must be a non-empty vector")
    if not np.all(np.isfinite(c)):
        raise ValueError("coefficients must be finite")
    g = np.asarray(grid, dtype=float)
    values = c @ basis_table(spec, c.size - 1, g)
    return WavefunctionSamples(g, values, count_nodes(values, amplitude_floor))


def parity_classify(coeffs, tol: float = 1e-10) -> str:
    """Classify a coefficient vector as "even", "odd" or "mixed".

    Even (odd) means every odd-index (even-index) coefficient is at most
    tol * ||c||.  The zero vector carries no parity.
    """
    c = np.asarray(coeffs, dtype=float)
    norm = float(np.linalg.norm(c))
    if norm == 0.0:
        raise DegenerateInputError("zero vector has no parity")
    odd_part = float(np.abs(c[1::2]).max()) if c.size > 1 else 0.0
    even_part = float(np.abs(c[0::2]).max())
    if odd_part <= tol * norm:
        return EVEN
    if even_part <= tol * norm:
        return ODD
    return MIXED


def default_node_grid(spec: BasisSpec, pot: PotentialSpec, energy: float,
                      points: int = NODE_GRID_POINTS) -> np.ndarray:
    """Uniform grid over |x| <= x_turn + 5/sqrt(alpha).

    A bound state has no node past its outer turning point x_turn (see
    node_counts), so the grid covers every node, with a five-decay-length
    margin for the tail.
    """
    x_turn = pot.turning_point(energy, mass=spec.mass)
    half = x_turn + 5.0 / math.sqrt(spec.alpha)
    return np.linspace(-half, half, points)


def _half_line_grid(spec: BasisSpec, turns: np.ndarray) -> np.ndarray:
    """Grid k h, k = 0, 1, ..., on [0, max(turns)] and at most one step past it.

    h is the spacing of the finest default_node_grid over the outer turning
    points `turns`, so no state is sampled more coarsely than there.
    """
    half = float(turns.min()) + 5.0 / math.sqrt(spec.alpha)
    step = 2.0 * half / (NODE_GRID_POINTS - 1)
    return step * np.arange(math.ceil(float(turns.max()) / step) + 1)


def node_counts(spec: BasisSpec, pot: PotentialSpec, spectrum: Spectrum) -> np.ndarray:
    """Certified node count of every state of `spectrum`, from one shared sampling.

    Where V > E, psi''/psi > 0, so a bound state has no node past its outer
    turning point x_t(E) and at most one in each forbidden interval (Sturm
    comparison; Messiah, Quantum Mechanics I, ch. III); such a node shows as
    a sign change between the allowed pieces on either side.  State i is
    therefore sampled only on its allowed half-line set
    {0 <= x <= x_t(E_i), V(x) <= E_i} of one grid shared by all states
    (_half_line_grid), and its sign changes there are counted by
    count_nodes' rule: samples at most DEFAULT_AMPLITUDE_FLOOR times the
    state's peak on that set are dropped, and strict sign changes between
    the rest count.  The node count is twice that, plus one for an odd
    state, whose node at x = 0 the parity gives.

    The basis recurrence runs on NODE_CHUNK grid points at a time, twice:
    once for each state's peak, once for its sign changes.  Raises
    ValueError for a state whose coefficients are not exactly even or odd
    in the index, and DegenerateInputError for a state with no nonzero
    sample on its allowed set.
    """
    coeffs = spectrum.eigenvectors
    energies = spectrum.eigenvalues
    odd = ~coeffs[0::2].any(axis=0)
    mixed = ~odd & coeffs[1::2].any(axis=0)
    if mixed.any():
        raise ValueError(f"state {int(np.argmax(mixed))} is neither exactly even "
                         "nor exactly odd")
    turns = np.array([pot.turning_point(e, mass=spec.mass) for e in energies])
    grid = _half_line_grid(spec, turns)
    # per parity: its states by ascending turning point, with their
    # coefficients on the basis functions of that parity as rows
    blocks = []
    for p in range(min(2, spectrum.dim)):
        states = np.flatnonzero(odd == p)
        states = states[np.argsort(turns[states], kind="stable")]
        blocks.append((p, states, turns[states], coeffs[p::2, states].T.copy()))

    def samples():
        """(states, values) per chunk; values are 0 outside each allowed set."""
        for start in range(0, grid.size, NODE_CHUNK):
            x = grid[start:start + NODE_CHUNK]
            table = basis_table(spec, spectrum.dim - 1, x)
            v = pot.value(x, mass=spec.mass)
            for p, states, sorted_turns, rows in blocks:
                first = int(np.searchsorted(sorted_turns, x[0]))
                reach = states[first:]
                values = rows[first:] @ table[p::2]
                allowed = (x <= turns[reach, None]) & (v <= energies[reach, None])
                yield reach, np.where(allowed, values, 0.0)

    peak = np.zeros(spectrum.dim)
    for states, values in samples():
        peak[states] = np.maximum(peak[states], np.abs(values).max(axis=1))
    if not peak.all():
        raise DegenerateInputError(f"state {int(np.argmin(peak))} has no nonzero "
                                   "sample on its allowed set")
    floor = DEFAULT_AMPLITUDE_FLOOR * peak
    last = np.zeros(spectrum.dim)  # sign of each state's last kept sample
    changes = np.zeros(spectrum.dim, dtype=int)
    for states, values in samples():
        signs = np.where(np.abs(values) > floor[states, None], np.sign(values), 0.0)
        signs = np.concatenate([last[states, None], signs], axis=1)
        # carry the last kept sign over dropped samples
        kept = np.where(signs != 0.0, np.arange(signs.shape[1]), 0)
        signs = np.take_along_axis(signs, np.maximum.accumulate(kept, axis=1), axis=1)
        changes[states] += np.count_nonzero(signs[:, 1:] * signs[:, :-1] < 0.0, axis=1)
        last[states] = signs[:, -1]
    return 2 * changes + odd

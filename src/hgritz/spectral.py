"""Structural checks on computed spectra: MHU bounds and node counts.

Two theorem-shaped properties are verified mechanically: truncated-matrix
eigenvalues must sit above the exact ones, decrease monotonically and
interlace as the basis grows (upper-bound/interlacing behaviour), and the
i-th eigenfunction must carry exactly i certified nodes (node structure).
The spectrum comparisons are non-strict with tolerance tol = 1e-10 (1 + |eps|).
node_counts certifies every state of a spectrum from one shared sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, _is_integer, basis_table
from .eigensolver import Spectrum, ascent_tolerance
from .errors import DegenerateInputError
from .operators import PotentialSpec

EVEN = "even"
ODD = "odd"

#: Tolerance of every check_mhu comparison, relative to 1 + |reference level|.
MHU_TOL = 1e-10

#: Relative floor under which samples count as boundary tail, not signal.
DEFAULT_AMPLITUDE_FLOOR = 1e-8

#: Points of the uniform grid over |x| <= x_t + 5 / sqrt(alpha) whose spacing
#: bounds node_counts' grid step (see _half_line_grid).
NODE_GRID_POINTS = 2001

#: Basis-table entries of one node_counts chunk: a chunk takes
#: NODE_TABLE_ENTRIES // min(dim, 256) points of the shared half-line grid,
#: each point once, so a dim-256 chunk has 512 points and every dim past 256
#: keeps 512.  Its working set is about (dim + states) x points floats.
NODE_TABLE_ENTRIES = 512 * 256


@dataclass(frozen=True, eq=False)
class ConvergenceTable:
    """Spectra of one Hamiltonian family across increasing truncation sizes."""

    dims: tuple[int, ...]
    spectra: tuple[np.ndarray, ...]

    def __post_init__(self):
        dims = tuple(self.dims)
        if not dims or not all(_is_integer(d) and d >= 1 for d in dims):
            raise ValueError(f"dims must be positive integers, got {dims!r}")
        dims = tuple(int(d) for d in dims)
        if any(b <= a for a, b in zip(dims, dims[1:])):
            raise ValueError("dims must be strictly increasing")
        if len(self.spectra) != len(dims):
            raise ValueError("need one spectrum per dim")
        spectra = []
        for d, spec in zip(dims, self.spectra):
            arr = np.array(spec, dtype=float)
            if arr.shape != (d,):
                raise ValueError(f"spectrum for dim {d} must have {d} entries")
            _check_finite(arr, f"spectrum for dim {d}")
            if arr.size > 1 and np.any(np.diff(arr) < -ascent_tolerance(arr[:-1])):
                raise ValueError("each spectrum must ascend")
            arr.setflags(write=False)
            spectra.append(arr)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spectra", tuple(spectra))


def _check_finite(levels, name):
    """Raise ValueError naming the first non-finite entry of levels."""
    bad = np.flatnonzero(~np.isfinite(levels))
    if bad.size:
        raise ValueError(f"{name} holds {levels[bad[0]]} at index {bad[0]}; "
                         "levels must be finite")


def _tol(levels):
    """MHU_TOL (1 + |level|) for each reference level."""
    return MHU_TOL * (1.0 + np.abs(levels))


def _scan_check(name, comparisons):
    """Fold comparison blocks into a report check; pass iff every slack <= its tol.

    comparisons holds (slacks, tols, where) blocks in scan order: two arrays
    of one length, and where(j), the place of entry j of the block.  The
    worst comparison is the first one of largest slack - tol.
    """
    blocks = [(slacks, slacks - tols, where) for slacks, tols, where in comparisons
              if slacks.size]
    if not blocks:
        return {"name": name, "pass": True, "detail": "vacuous: single truncation"}
    firsts = [int(np.argmax(margins)) for _, margins, _ in blocks]
    # max keeps the first block of the largest margin, argmax its first entry
    b = max(range(len(blocks)), key=lambda k: blocks[k][1][firsts[k]])
    slacks, margins, where = blocks[b]
    j = firsts[b]
    if margins[j] <= 0.0:
        return {"name": name, "pass": True,
                "detail": f"ok; worst slack {slacks[j]:.3e} at {where(j)}"}
    return {"name": name, "pass": False,
            "detail": f"violated at {where(j)}: slack {slacks[j]:.3e} above tolerance"}


def check_mhu(table: ConvergenceTable, exact=None) -> list[dict]:
    """Verify upper-bound behaviour of a truncation family.

    (a) monotonicity: every level can only come down as the basis grows,
        eps_i(n) <= eps_i(m) + tol for truncations m < n;
    (b) interlacing: old levels sit between the new ones,
        eps_i(n) <= eps_i(m) <= eps_{i + (n - m)}(n) + tol;
    (c) upper bound, when `exact` energies are supplied:
        eps_i(n) >= E_i - tol for every truncation n.

    Each comparison uses tol = MHU_TOL * (1 + |reference eigenvalue|).
    Returns one {"name", "pass", "detail"} dict per check, in that order.
    A non-finite exact level raises ValueError naming its index.
    """
    pairs = list(zip(table.dims, table.spectra))
    steps = [(dm, em, dn, en) for (dm, em), (dn, en) in zip(pairs, pairs[1:])]
    monotone = [(en[:dm] - em, _tol(em), lambda i, dn=dn: f"(i={i}, dim={dn})")
                for dm, em, dn, en in steps]
    # old level i is compared below, then above: entries 2i and 2i + 1
    interlace = [(np.stack((en[:dm] - em, em - en[dn - dm:]), axis=1).ravel(),
                  np.repeat(_tol(em), 2),
                  lambda j, dn=dn: f"(i={j // 2}, dim={dn}, {('lower', 'upper')[j % 2]})")
                 for dm, em, dn, en in steps]
    checks = [_scan_check("monotonicity", monotone),
              _scan_check("interlacing", interlace)]

    if exact is not None:
        ref = np.asarray(exact, dtype=float)
        _check_finite(ref, "exact")
        bound = [(ref[:dn] - en[:ref.size], _tol(ref[:dn]),
                  lambda i, dn=dn: f"(i={i}, dim={dn})") for dn, en in pairs]
        checks.append(_scan_check("upper_bound", bound))

    return checks


def _half_line_grid(spec: BasisSpec, turns: np.ndarray, dim: int) -> tuple[float, float]:
    """(h, n): the grid k h, 0 <= k < n, spans [0, max(turns)] and at most a step more.

    h is the spacing of NODE_GRID_POINTS uniform points over
    |x| <= x_t + 5 / sqrt(alpha) for the smallest of the outer turning points
    `turns`, the finest such grid, so no state is sampled more coarsely than
    on its own; and at most pi / sqrt(alpha (2 dim - 1)), the spacing of the
    nodes of phi_{dim-1} near x = 0, so no basis function is sampled more
    coarsely than its nodes where a turning point lies far past them.  n is
    math.inf where max(turns) / h overflows; node_counts builds the grid one
    chunk at a time and ends it at its tail cut.
    """
    half = float(turns.min()) + 5.0 / math.sqrt(spec.alpha)
    step = min(2.0 * half / (NODE_GRID_POINTS - 1),
               math.pi / (math.sqrt(spec.alpha) * math.sqrt(2 * dim - 1)))
    end = float(turns.max()) / step
    return step, (math.ceil(end) + 1 if math.isfinite(end) else math.inf)


def node_counts(spec: BasisSpec, pot: PotentialSpec, spectrum: Spectrum) -> np.ndarray:
    """Certified node count of every state of `spectrum`, from one shared sampling.

    Where V > E, psi''/psi > 0, so a bound state has no node past its outer
    turning point x_t(E) and at most one in each forbidden interval (Sturm
    comparison; Messiah, Quantum Mechanics I, ch. III); such a node shows as
    a sign change between the allowed pieces on either side.  State i is
    therefore sampled only on its allowed half-line set {x >= 0 : V(x) <= E_i}
    of one grid shared by all states (_half_line_grid), which lies in
    [0, x_t(E_i)] as x_t(E) is the outermost root of V = E.  Its sign
    changes there are counted by one rule: samples at most
    DEFAULT_AMPLITUDE_FLOOR times the state's peak on that set are dropped
    (tails and grazing zeros carry no sign), and strict sign changes between
    the rest count.  The node count is twice that, plus one for an odd
    state, whose node at x = 0 the parity gives.

    One pass evaluates the basis recurrence on the grid a chunk at a time,
    NODE_TABLE_ENTRIES // min(dim, 256) points each, each point once.  The
    floor is known only when the pass ends, but the peak only grows, so a
    sample at or under the floor of the peak so far can never be kept.
    Each chunk therefore keeps, per state, the samples above that running
    floor as runs of one sign, and stores each run as its sign and its
    largest |value|.  At the end a run survives exactly when that value
    exceeds the final floor, so the sign changes between kept samples are
    the changes of sign between consecutive surviving runs: the rule's
    count bit for bit, in storage that grows with the nodes, not with the
    grid.

    The pass ends early, at a tail cut.  phi_r solves
    phi'' = alpha (alpha x^2 - (2 r + 1)) phi, so past
    x_r = sqrt((2 r + 1) / alpha) it has no zero and phi_r phi_r'' > 0; as
    phi_r -> 0, |phi_r| decreases there (from its last extremum, which lies
    inside x_r).  For x >= x_c >= x_{dim-1} = sqrt((2 dim - 1) / alpha)
    every |phi_r(x)|, r < dim, is then at most |phi_r(x_c)|, and
    Cauchy-Schwarz gives |psi_i(x)| <= ||c_i|| sqrt(sum_r phi_r(x_c)^2),
    with ||c_i||^2 <= 1 + 1e-10 by Spectrum's Gram check.  Where a chunk
    ends at such an x_c and twice that bound is at most the running floor
    of every state, the pass stops.  The factor 2 covers rounding: past
    every x_r the computed phi_r and psi_i carry relative errors far below
    1/3 wherever they are normal doubles.  Every sample dropped so lies at
    or under its state's running floor, which is at or under its final one,
    so the rule keeps none of them and the count is bit for bit its count
    on the whole grid.  The bound is 0.0 where every phi_r(x_c) is, and
    then every later sample is 0 too; so the pass ends within a bounded
    number of chunks past x_{dim-1} on every input, however far the
    turning points lie.

    Raises ValueError for a state whose coefficients are not exactly even
    or odd in the index, and DegenerateInputError for a state with no
    nonzero sample on its allowed set.
    """
    coeffs = spectrum.eigenvectors
    energies = spectrum.eigenvalues
    odd = ~coeffs[0::2].any(axis=0)
    mixed = ~odd & coeffs[1::2].any(axis=0)
    if mixed.any():
        raise ValueError(f"state {int(np.argmax(mixed))} is neither exactly even "
                         "nor exactly odd")
    # per parity: its states by ascending energy, with their coefficients on
    # the basis functions of that parity as rows
    blocks = []
    for p in range(min(2, spectrum.dim)):
        states = np.flatnonzero(odd == p)
        states = states[np.argsort(energies[states], kind="stable")]
        blocks.append((p, states, energies[states], coeffs[p::2, states].T.copy()))
    # x_t rises with E: each parity's lowest and highest level bound the grid
    turns = [pot.turning_point(e[end], mass=spec.mass) for _, _, e, _ in blocks for end in (0, -1)]
    step, stop = _half_line_grid(spec, np.array(turns), spectrum.dim)
    points = NODE_TABLE_ENTRIES // min(spectrum.dim, 256)
    x_top = math.sqrt((2 * spectrum.dim - 1) / spec.alpha)

    peak = np.zeros(spectrum.dim)
    run_states, run_signs, run_tops = [], [], []
    start = 0
    while start < stop:
        # bitwise the slice [start, start + points) of step * np.arange(stop)
        x = step * np.arange(start, min(start + points, stop))
        start += x.size
        table = basis_table(spec, spectrum.dim - 1, x)
        v = pot.value(x, mass=spec.mass)
        for p, states, sorted_energies, rows in blocks:
            first = int(np.searchsorted(sorted_energies, v.min()))
            reach = states[first:]
            values = rows[first:] @ table[p::2]
            positive = values > 0.0
            # |values| on each allowed set, 0 elsewhere
            size = np.abs(values, out=values)
            size *= v <= energies[reach, None]
            peak[reach] = np.maximum(peak[reach], size.max(axis=1))
            above = size > DEFAULT_AMPLITUDE_FLOOR * peak[reach, None]
            size *= above
            above = np.flatnonzero(above)
            if above.size == 0:
                continue
            # a run opens at each state's first sample above its running floor
            # and at each change of sign; it ends where the next run opens,
            # and the samples between are 0 in size
            positive = positive.ravel()[above]
            # (a state with none points at a later state's first, or at the
            # spare last slot)
            opens = np.zeros(above.size + 1, dtype=bool)
            opens[np.searchsorted(above, x.size * np.arange(reach.size))] = True
            opens[1:-1] |= positive[1:] != positive[:-1]
            opens = np.flatnonzero(opens[:-1])
            at = above[opens]
            run_states.append(reach[at // x.size])
            run_signs.append(positive[opens])
            run_tops.append(np.maximum.reduceat(size.ravel(), at))
        if x[-1] >= x_top:
            # the tail cut; math.hypot scales, so no square underflows
            bound = 2.0 * math.sqrt(1.0 + 1e-10) * math.hypot(*table[:, -1].tolist())
            if bound <= DEFAULT_AMPLITUDE_FLOOR * peak.min():
                break
    if not peak.all():
        raise DegenerateInputError(f"state {int(np.argmin(peak))} has no nonzero "
                                   "sample on its allowed set")
    # each state's runs in grid order, then those above its final floor
    states = np.concatenate(run_states)
    order = np.argsort(states, kind="stable")
    states = states[order]
    kept = np.concatenate(run_tops)[order] > DEFAULT_AMPLITUDE_FLOOR * peak[states]
    states, signs = states[kept], np.concatenate(run_signs)[order][kept]
    flips = (states[1:] == states[:-1]) & (signs[1:] != signs[:-1])
    changes = np.bincount(states[1:][flips], minlength=spectrum.dim)
    return 2 * changes + odd

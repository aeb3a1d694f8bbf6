"""Reference eigensolver by Numerov integration with bisection shooting.

Brute-force route to the exact bound-state energies, fully independent of
the basis-set machinery: integrate psi'' = (2m/hbar^2)(V - E) psi outward
from x = 0 with parity initial conditions (the potentials in scope are even,
so the even and odd channels decouple), and bisect on the sign of
psi(x_max).  The three-point scheme is fourth order in the step, but past a
few thousand steps rounding in the long recurrence outgrows the h^4 term:
bisected to full precision, the ground level of the quartic lambda x^4
(lambda = 1.06739) is off by 9.2e-13 at 5,000 steps but by 1.4e-10 at the
default 20,000.  The CLI uses the levels as bisected at one step count;
`richardson4` is not applied to them.

The energy scan that brackets the levels runs every scan energy of both
channels through one vectorized recurrence (`shoot_scan`), bitwise equal
to scalar `shoot` at each of them, and counts the sign changes of each
trajectory, a discrete Sturm count that says how many levels every scan
cell holds.  Refinement and node-count trajectories stay scalar, where one
energy is cheaper in Python floats than in numpy; batching a bracket's
midpoints does not pay either, since one 20,000-step `shoot_scan` pass of
12 energies costs about what 12 scalar shoots do.  Refinement instead
makes fewer shoots: Brent's method narrows each cell before bisection is
replayed on it (`_bisect`), with bisection's bits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .basis import Constants
from .errors import BracketingError, ScanResolutionError
from .operators import PotentialSpec
from .spectral import EVEN, ODD, count_nodes

#: Default number of grid intervals.  Here the recurrence's rounding, not the
#: h^4 truncation, sets the error: about 1.4e-10 on the quartic ground level
#: of the module docstring, against 9.2e-13 at 5,000 steps.
DEFAULT_STEPS = 20000

#: Accepted range of grid intervals.  Below the floor the fourth-order error
#: is no longer small.  At the cap each shoot holds several 8 MB arrays and
#: its pure-Python recurrence takes about 0.3 s, and a spectrum scan makes
#: hundreds of shoots; past it a typo can exhaust memory.
MIN_STEPS = 1000
MAX_STEPS = 1_000_000

#: Magnitude threshold that triggers internal rescaling during propagation.
_RESCALE_AT = 1e250

#: Steps per block of `shoot_scan`'s coefficients.
_CHUNK = 64

#: Width, relative to 1 + |E|, to which Brent's method narrows a bracket before
#: `_bisect` replays bisection on it.
_NARROW_WIDTH = 1e-12

#: Shoots Brent's method may take beyond bisection to the same width.
_NARROW_SLACK = 2

#: Required WKB tail suppression (in e-folds) between turning point and x_max.
_MIN_EFOLDS = 5.0


@dataclass(frozen=True)
class ShootingConfig:
    """Numerov grid: the half-line [0, x_max] in `steps` equal intervals."""

    x_max: float
    steps: int

    def __post_init__(self):
        if not (math.isfinite(self.x_max) and self.x_max > 0.0):
            raise ValueError(f"x_max must be positive, got {self.x_max!r}")
        if not MIN_STEPS <= self.steps <= MAX_STEPS:
            raise ValueError(
                f"steps must lie in [{MIN_STEPS}, {MAX_STEPS}], got {self.steps!r}")
        object.__setattr__(self, "x_max", float(self.x_max))
        object.__setattr__(self, "steps", int(self.steps))


def decay_length(pot: PotentialSpec, constants: Constants, energy: float) -> float:
    """Airy length scale at the turning point, (hbar^2 / 2m V'(x_t))^(1/3)."""
    x_t = pot.turning_point(energy, mass=constants.mass)
    slope = float(pot.derivative(x_t, mass=constants.mass))
    slope = max(slope, 1e-10)
    return (constants.hbar**2 / (2.0 * constants.mass * slope)) ** (1.0 / 3.0)


def _scan_start(pot, constants):
    """Lowest energy a spectrum scan looks at: just above min V."""
    v_min = pot.minimum(mass=constants.mass)
    return v_min + 1e-6 * (1.0 + abs(v_min))


def default_config(pot: PotentialSpec, constants: Constants, e_hi: float,
                   steps: int = DEFAULT_STEPS) -> ShootingConfig:
    """Domain sized for energies up to e_hi: turning point + 8 decay lengths.

    e_hi must lie above the scan start of `spectrum_below`, just above min V;
    below it there is no level to find.
    """
    start = _scan_start(pot, constants)
    if not float(e_hi) > start:
        raise ValueError(f"e_hi = {e_hi!r} must lie above the scan start {start!r}")
    x_t = pot.turning_point(e_hi, mass=constants.mass)
    x_max = x_t + 8.0 * decay_length(pot, constants, e_hi)
    return ShootingConfig(x_max, steps)


def _wkb_efolds(pot, constants, energy, x_from, x_to, points=64):
    """Integral of sqrt(2m(V - E))/hbar over [x_from, x_to], midpoint rule."""
    if x_to <= x_from:
        return 0.0
    h = (x_to - x_from) / points
    x = x_from + h * (np.arange(points) + 0.5)
    gap = pot.value(x, mass=constants.mass) - energy
    kappa = np.sqrt(2.0 * constants.mass * np.maximum(gap, 0.0)) / constants.hbar
    return float(kappa.sum() * h)


def _check_domain(pot, constants, config, energy):
    x_t = pot.turning_point(energy, mass=constants.mass)
    if x_t >= config.x_max:
        raise ValueError(
            f"x_max = {config.x_max:.6g} lies inside the classically allowed "
            f"region at E = {energy:.6g} (turning point {x_t:.6g})")
    efolds = _wkb_efolds(pot, constants, energy, x_t, config.x_max)
    if efolds < _MIN_EFOLDS:
        raise ValueError(
            f"x_max = {config.x_max:.6g} gives only {efolds:.2f} e-folds of "
            f"tail suppression at E = {energy:.6g}; need >= {_MIN_EFOLDS}")


def _grid_potential(pot, constants, config):
    """V on the Numerov grid x_i = i x_max / steps, i = 0 .. steps."""
    x = np.linspace(0.0, config.x_max, config.steps + 1)
    return np.asarray(pot.value(x, mass=constants.mass), dtype=float)


def _factors(constants, config, gap):
    """P = 1 - (h^2/12) f and 12 - 10 P for f = (2m/hbar^2) gap, gap = V - E.

    psi'' = f psi gives P_{n+1} psi_{n+1} = (12 - 10 P_n) psi_n - P_{n-1} psi_{n-1}.
    P overwrites gap.  Every entry is formed by the same operations whether
    gap is one energy's column or a block of energies.
    """
    h = config.x_max / config.steps
    gap *= 2.0 * constants.mass / constants.hbar**2
    gap *= h * h / 12.0
    pfac = np.subtract(1.0, gap, out=gap)
    al = pfac * 10.0
    np.subtract(12.0, al, out=al)
    return pfac, al


def _step_lists(pot, constants, config, energy):
    """V(0), and 12 - 10 P_i and P_i on the whole grid as lists of floats.

    `shoot`'s loop runs on Python floats, where one energy is cheaper than in
    numpy; no grid array outlives this call.
    """
    gap = _grid_potential(pot, constants, config)
    v0 = float(gap[0])
    gap -= energy
    pfac, al = _factors(constants, config, gap)
    return v0, al.tolist(), pfac.tolist()


def _seed(pot, constants, config, v0, energy, parity):
    """(psi_0, psi_1) from the parity-adapted Taylor expansion about x = 0.

    Even starts psi(0) = 1, psi'(0) = 0; odd starts psi(0) = 0, psi'(0) = 1.
    v0 is V(0); energy is a float or an array of energies.
    """
    h = config.x_max / config.steps
    c = 2.0 * constants.mass / constants.hbar**2
    f0 = c * (v0 - energy)
    fpp0 = c * pot.curvature_at_origin(mass=constants.mass)
    if parity == EVEN:
        return 1.0, 1.0 + 0.5 * h * h * f0 + (h**4 / 24.0) * (f0 * f0 + fpp0)
    return 0.0, h * (1.0 + h * h * f0 / 6.0 + (h**4 / 120.0) * (f0 * f0 + 3.0 * fpp0))


def shoot(pot: PotentialSpec, constants: Constants, config: ShootingConfig,
          energy: float, parity: str, *, return_trajectory: bool = False):
    """Integrate outward from x = 0 in the given parity channel; return psi(x_max).

    Even channel starts psi(0) = 1, psi'(0) = 0; odd starts psi(0) = 0,
    psi'(0) = 1; the first step comes from the parity-adapted Taylor
    expansion so the seed error stays below the scheme's order.  Sign changes of
    the returned value in E bracket eigenvalues.  Growing solutions are
    rescaled internally when they threaten overflow (sign is preserved, so
    bracketing is unaffected).
    """
    if parity not in (EVEN, ODD):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    energy = float(energy)
    _check_domain(pot, constants, config, energy)
    v0, al, pl = _step_lists(pot, constants, config, energy)
    prev, cur = _seed(pot, constants, config, v0, energy, parity)
    # step i uses 12 - 10 P_i, P_{i-1} and P_{i+1}, for i = 1 .. steps - 1
    steps = zip(itertools.islice(al, 1, None), pl, itertools.islice(pl, 2, None))
    if return_trajectory:
        traj = [prev, cur]
        for a, p_below, p_above in steps:
            prev, cur = cur, (a * cur - p_below * prev) / p_above
            traj.append(cur)
        if not math.isfinite(cur):
            raise OverflowError("propagation overflowed in trajectory mode")
        return cur, np.asarray(traj)
    for a, p_below, p_above in steps:
        prev, cur = cur, (a * cur - p_below * prev) / p_above
        if abs(cur) > _RESCALE_AT:
            scale = 1.0 / abs(cur)
            prev *= scale
            cur *= scale
    if not math.isfinite(cur):
        raise OverflowError("propagation overflowed despite rescaling")
    return cur


def _scan_chunk(constants, config, gap, prev, cur):
    """Advance a block of energies through one chunk; gap is V - E on its points.

    Returns the last two psi and how often each energy's psi changed sign in
    the chunk.  The steps run unchecked first, keeping every psi; the chunk
    is rerun step by step with `shoot`'s rescaling if any |psi| in it passed
    _RESCALE_AT.  Nothing of the chunk outlives the call.  One loop that
    rescales at every step gives the same bits but is slower (20,000 quartic
    steps: about 0.1 against 0.2 s at 64 energies), so the unchecked pass stays.
    """
    pfac, al = _factors(constants, config, gap)
    if not pfac.min() > 0.0:
        # psi and P psi must share their signs for the sign changes to count levels
        raise ValueError(
            f"the Numerov factor 1 - (h^2/12) (2m/hbar^2)(V - E) reaches {pfac.min():.6g} "
            f"on the grid of {config.steps} steps over [0, {config.x_max:.6g}]; "
            "it must stay positive, which takes more steps or a smaller x_max")
    block = (al[1:-1], pfac[:-2], pfac[2:])
    out = np.empty((len(gap) - 2, gap.shape[1]))
    ta, tb = np.empty_like(cur), np.empty_like(cur)
    p, c = prev, cur
    for a, pb, pa, row in zip(*block, out):
        np.multiply(a, c, out=ta)
        np.multiply(pb, p, out=tb)
        np.subtract(ta, tb, out=ta)
        np.divide(ta, pa, out=row)
        p, c = c, row
    # NaN fails both comparisons too
    if out.max() <= _RESCALE_AT and out.min() >= -_RESCALE_AT:
        signs = np.signbit(out)
        changes = np.count_nonzero(signs[1:] != signs[:-1], axis=0)
        changes += signs[0] != np.signbit(cur)
        return p.copy(), c.copy(), changes
    return _steps_rescaled(*block, prev, cur)


def _steps_rescaled(al, p_below, p_above, prev, cur):
    """The same steps, rescaling each energy exactly where `shoot` would."""
    prev, cur = prev.copy(), cur.copy()
    changes = np.zeros(cur.shape, dtype=int)
    for a, pb, pa in zip(al, p_below, p_above):
        prev, cur = cur, (a * cur - pb * prev) / pa
        changes += np.signbit(cur) != np.signbit(prev)
        big = np.abs(cur) > _RESCALE_AT
        if big.any():
            scale = 1.0 / np.abs(cur[big])
            prev[big] *= scale
            cur[big] *= scale
    return prev, cur, changes


def shoot_scan(pot: PotentialSpec, constants: Constants, config: ShootingConfig,
               energies) -> tuple[np.ndarray, np.ndarray]:
    """psi(x_max) and its trajectory's sign changes at every energy, in both channels.

    Returns two arrays of shape (2, len(energies)), row 0 for the even channel
    and row 1 for the odd one.  Entry [p, j] of the first is bitwise `shoot`
    at energies[j] with that parity.  Entry [p, j] of the second counts the
    sign changes of psi_0, psi_1, ..., psi_steps there (a +-0.0 counts by its
    sign bit, as `math.copysign` reads it).  This is a discrete Sturm count:
    with u_i = P_i psi_i the recurrence is a Jacobi three-term recurrence
    whose diagonal 12 / P_i - 10 falls as E rises, so while every P_i > 0
    (checked) the count rises by one at each level and its difference
    across a scan cell is the number of levels inside.  All energies of both
    channels step together through one recurrence, since they share every
    coefficient and differ only in the seed.  Coefficients are formed _CHUNK
    steps at a time (`_scan_chunk`), so the working set is
    O(_CHUNK x energies) at any step count.
    """
    energies = np.asarray(energies, dtype=float)
    for e in energies.tolist():
        _check_domain(pot, constants, config, e)
    both = np.concatenate([energies, energies])
    v = _grid_potential(pot, constants, config)
    (prev_even, cur_even), (prev_odd, cur_odd) = (
        _seed(pot, constants, config, v[0], energies, parity) for parity in (EVEN, ODD))
    prev = np.repeat([prev_even, prev_odd], energies.size)
    cur = np.concatenate([cur_even, cur_odd])
    changes = (np.signbit(prev) != np.signbit(cur)).astype(int)
    n = config.steps
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(1, n, _CHUNK):
            hi = min(lo + _CHUNK, n)
            # steps lo .. hi - 1 read P on points lo - 1 .. hi
            prev, cur, chunk_changes = _scan_chunk(
                constants, config, v[lo - 1:hi + 1, None] - both, prev, cur)
            changes += chunk_changes
    if not np.isfinite(cur).all():
        raise OverflowError("propagation overflowed despite rescaling")
    return cur.reshape(2, energies.size), changes.reshape(2, energies.size)


def eigenvalue(pot: PotentialSpec, constants: Constants, config: ShootingConfig,
               bracket: tuple[float, float], parity: str) -> float:
    """Bisect bracket = (lo, hi) on the sign of psi(x_max) to width 1e-10.

    lo and hi must be finite with lo < hi, and parity "even" or "odd".  The
    result is bisection's, reached in fewer shoots (`_bisect`).
    """
    lo, hi = (float(end) for end in bracket)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"energy bracket must satisfy lo < hi, got {bracket!r}")
    return _bisect(pot, constants, config, parity, lo, hi,
                   shoot(pot, constants, config, lo, parity),
                   shoot(pot, constants, config, hi, parity))


def _bisect(pot, constants, config, parity, lo, hi, flo, fhi):
    """`eigenvalue` on (lo, hi), given psi(x_max) at both ends as flo and fhi.

    The result is plain bisection's: halve (lo, hi) on the sign of psi(x_max)
    at its midpoint until it is at most 1e-10 wide and return the last
    midpoint, or the first midpoint where psi(x_max) is exactly 0.  Brent's
    method (`_brent_point`) first narrows (lo, hi) to a sign change at most
    _NARROW_WIDTH (1 + |E|) wide.  The bisection is then replayed, and only
    its midpoints within _NARROW_WIDTH (1 + |E|) of that sign change are
    shot; one below takes lo's sign and one above takes hi's.  That gives
    bisection's bits wherever psi(x_max) changes sign once in the cell away
    from the level, the premise bisection itself relies on.  The margin is
    there because rounding does not keep the sign clean at the level: at
    20,000 steps psi(x_max) was seen to change sign three times within
    4e-12 of a level near E = 15.5.  On 434 brackets of the benchmark's
    `certify` requests this takes 8.7 shoots per bracket where bisection
    takes 30.8.  Where 1 + |E| <= 33 it never takes more than 11 beyond
    bisection: ceil(log2(100)) = 7 to reach the finer width, _NARROW_SLACK,
    and at most 2 replayed midpoints in a window under 1e-10 wide.
    """
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise BracketingError(
            f"psi(x_max) has the same sign at both bracket ends "
            f"({lo:.6g}, {hi:.6g}) in the {parity} channel")
    tol = 0.5 * _NARROW_WIDTH * (1.0 + max(abs(lo), abs(hi)))
    budget = max(0, math.ceil(math.log2((hi - lo) / (2.0 * tol)))) + _NARROW_SLACK
    # b is the estimate, c the other end of the sign change and a the previous b
    a, fa, b, fb, c, fc = lo, flo, hi, fhi, lo, flo
    d = e = hi - lo
    for shots in itertools.count():
        if math.copysign(1.0, fb) == math.copysign(1.0, fc):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        if abs(c - b) <= 2.0 * tol or fb == 0.0:
            break
        x, d, e = _brent_point(a, fa, b, fb, c, fc, d, e, tol,
                               tol * 2.0 ** (budget - shots))
        a, fa = b, fb
        b, fb = x, shoot(pot, constants, config, x, parity)
    below, above = min(b, c) - 2.0 * tol, max(b, c) + 2.0 * tol
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if below < mid < above:
            fm = shoot(pot, constants, config, mid, parity)
        else:
            fm = flo if mid <= below else fhi
        if fm == 0.0:
            return mid
        if math.copysign(1.0, fm) == math.copysign(1.0, flo):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _brent_point(a, fa, b, fb, c, fc, d, e, tol, next_width):
    """The next energy of Brent's method, with its new last two steps (d, e).

    The zbrent form of Brent (1973, *Algorithms for Minimization without
    Derivatives*, ch. 4): b is the estimate, c the other end of the sign
    change, a the previous estimate, d and e the last two steps.  Inverse
    quadratic interpolation, or the secant step when a == c, is taken where
    it stays well inside the bracket and shrinks fast enough, else the
    bisection step; no step is shorter than tol / 2.  The point is then moved
    to within next_width - |c - b| / 2 of the bracket's midpoint, the
    projection of the ITP method (Oliveira & Takahashi 2021, ACM TOMS
    47(1):5), so the bracket it leaves is at most next_width wide.
    """
    half = 0.5 * (c - b)
    least = 0.5 * tol
    if abs(e) >= least and abs(fa) > abs(fb):
        s = fb / fa
        if a == c:
            p, q = 2.0 * half * s, 1.0 - s
        else:
            q, r = fa / fc, fb / fc
            p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
            q = (q - 1.0) * (r - 1.0) * (s - 1.0)
        if p > 0.0:
            q = -q
        p = abs(p)
        if 2.0 * p < min(3.0 * half * q - abs(least * q), abs(e * q)):
            d, e = p / q, d
        else:
            d = e = half
    else:
        d = e = half
    x = b + d if abs(d) > least else b + math.copysign(least, half)
    mid = b + half
    reach = max(next_width - abs(half), 0.0)
    if abs(x - mid) > reach:
        x = mid + math.copysign(reach, x - mid)
        d = e = x - b
    return x, d, e


def _trajectory_nodes(pot, constants, config, energy, parity):
    """Certified node count of the refined state on (0, x_t + 2 ell]."""
    _, traj = shoot(pot, constants, config, energy, parity, return_trajectory=True)
    h = config.x_max / config.steps
    x_t = pot.turning_point(energy, mass=constants.mass)
    cut = min(config.x_max, x_t + 2.0 * decay_length(pot, constants, energy))
    stop = min(traj.size, int(cut / h) + 1)
    # index 0 is x = 0; a node there belongs to the odd-channel boundary
    # condition, not to the half-line count, and is dropped by the floor.
    return count_nodes(traj[:stop])


def spectrum_below(pot: PotentialSpec, constants: Constants,
                   config: ShootingConfig, e_cap: float, *,
                   scan_points: int | None = None) -> np.ndarray:
    """All eigenvalues below e_cap, both parity channels, ascending.

    One `shoot_scan` of both channels gives psi(x_max) and the Sturm count
    at every scan energy.  The count at a cell's upper end minus that at its
    lower end is the number of levels in the cell, and each cell holding one
    is refined by `_bisect` from the scan's psi(x_max) at its ends.  A level
    below the scan start, or two levels sharing a cell, raise
    ScanResolutionError from the counts alone, whatever a refinement would
    find, so no level is dropped silently.  Each refined state is also
    checked to carry as many nodes as the count gives levels below it.
    """
    e_cap = float(e_cap)
    v_min = pot.minimum(mass=constants.mass)
    start = _scan_start(pot, constants)
    if e_cap <= start:
        return np.array([])
    if scan_points is None:
        scan_points = max(64, int(8.0 * (e_cap - v_min)))
    energies = np.linspace(start, e_cap, scan_points)
    grid = energies.tolist()
    psi, changes = shoot_scan(pot, constants, config, energies)
    found = []
    for parity, values, counts in zip((EVEN, ODD), psi.tolist(), changes.tolist()):
        if counts[0]:
            raise ScanResolutionError(
                f"an {parity}-channel level lies below the scan start E = {grid[0]:.8g} "
                f"(Sturm count {counts[0]} there), just above min V, where the scan "
                f"does not look")
        for k in range(len(grid) - 1):
            levels = counts[k + 1] - counts[k]
            if levels == 0:
                continue
            if levels != 1:
                raise ScanResolutionError(
                    f"the {parity}-channel scan cell ({grid[k]:.8g}, {grid[k + 1]:.8g}) "
                    f"holds {levels} levels (Sturm count {counts[k]} to {counts[k + 1]}); "
                    f"bisection can refine only a cell that holds one")
            e_found = _bisect(pot, constants, config, parity, grid[k], grid[k + 1],
                              values[k], values[k + 1])
            nodes = _trajectory_nodes(pot, constants, config, e_found, parity)
            if nodes != counts[k]:
                raise ScanResolutionError(
                    f"{parity} channel state {counts[k]} at E = {e_found:.8g} "
                    f"carries {nodes} nodes")
            found.append(e_found)
    return np.array(sorted(found))


def richardson4(coarse: float, fine: float) -> float:
    """Cancel the leading h^4 error from estimates at steps h and h/2."""
    return fine + (fine - coarse) / 15.0

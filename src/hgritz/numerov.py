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
to scalar `shoot` at each of them; bisection and node-count trajectories
stay scalar, where one energy is cheaper in Python floats than in numpy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .basis import Constants
from .errors import BracketingError, ScanResolutionError
from .operators import PotentialSpec
from .spectral import count_nodes

EVEN = "even"
ODD = "odd"

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

#: Required WKB tail suppression (in e-folds) between turning point and x_max.
_MIN_EFOLDS = 5.0


@dataclass(frozen=True)
class ShootingConfig:
    """Half-line integration domain, step count, energy bracket and parity."""

    x_max: float
    steps: int
    energy_bracket: tuple[float, float]
    parity: str

    def __post_init__(self):
        if not (math.isfinite(self.x_max) and self.x_max > 0.0):
            raise ValueError(f"x_max must be positive, got {self.x_max!r}")
        if not MIN_STEPS <= self.steps <= MAX_STEPS:
            raise ValueError(
                f"steps must lie in [{MIN_STEPS}, {MAX_STEPS}], got {self.steps!r}")
        lo, hi = self.energy_bracket
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"energy bracket must satisfy lo < hi, got {self.energy_bracket!r}")
        if self.parity not in (EVEN, ODD):
            raise ValueError(f"parity must be 'even' or 'odd', got {self.parity!r}")
        object.__setattr__(self, "x_max", float(self.x_max))
        object.__setattr__(self, "steps", int(self.steps))
        object.__setattr__(self, "energy_bracket", (float(lo), float(hi)))


def decay_length(pot: PotentialSpec, constants: Constants, energy: float) -> float:
    """Airy length scale at the turning point, (hbar^2 / 2m V'(x_t))^(1/3)."""
    x_t = pot.turning_point(energy, mass=constants.mass)
    slope = float(pot.derivative(x_t, mass=constants.mass))
    slope = max(slope, 1e-10)
    return (constants.hbar**2 / (2.0 * constants.mass * slope)) ** (1.0 / 3.0)


def default_config(pot: PotentialSpec, constants: Constants, e_hi: float,
                   parity: str = EVEN, steps: int = DEFAULT_STEPS,
                   bracket: tuple[float, float] | None = None) -> ShootingConfig:
    """Domain sized for energies up to e_hi: turning point + 8 decay lengths."""
    x_t = pot.turning_point(e_hi, mass=constants.mass)
    x_max = x_t + 8.0 * decay_length(pot, constants, e_hi)
    if bracket is None:
        v_min = pot.minimum(mass=constants.mass)
        bracket = (v_min + 1e-6 * (1.0 + abs(v_min)), float(e_hi))
    return ShootingConfig(x_max, steps, bracket, parity)


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
          energy: float, *, return_trajectory: bool = False):
    """Integrate outward from x = 0 and return psi(x_max).

    Even channel starts psi(0) = 1, psi'(0) = 0; odd starts psi(0) = 0,
    psi'(0) = 1; the first step comes from the parity-adapted Taylor
    expansion so the seed error stays below the scheme's order.  Sign changes of
    the returned value in E bracket eigenvalues.  Growing solutions are
    rescaled internally when they threaten overflow (sign is preserved, so
    bracketing is unaffected).
    """
    energy = float(energy)
    _check_domain(pot, constants, config, energy)
    v0, al, pl = _step_lists(pot, constants, config, energy)
    prev, cur = _seed(pot, constants, config, v0, energy, config.parity)
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

    The steps run unchecked first, keeping every psi; the chunk is rerun
    step by step with `shoot`'s rescaling if any |psi| in it passed
    _RESCALE_AT.  Nothing of the chunk outlives the call.  One loop that
    rescales at every step gives the same bits but is slower (20,000 quartic
    steps: about 0.1 against 0.2 s at 64 energies), so the unchecked pass stays.
    """
    pfac, al = _factors(constants, config, gap)
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
        return p.copy(), c.copy()
    return _steps_rescaled(*block, prev, cur)


def _steps_rescaled(al, p_below, p_above, prev, cur):
    """The same steps, rescaling each energy exactly where `shoot` would."""
    prev, cur = prev.copy(), cur.copy()
    for a, pb, pa in zip(al, p_below, p_above):
        prev, cur = cur, (a * cur - pb * prev) / pa
        big = np.abs(cur) > _RESCALE_AT
        if big.any():
            scale = 1.0 / np.abs(cur[big])
            prev[big] *= scale
            cur[big] *= scale
    return prev, cur


def shoot_scan(pot: PotentialSpec, constants: Constants, config: ShootingConfig,
               energies) -> np.ndarray:
    """psi(x_max) at every energy in both parity channels, shape (2, len(energies)).

    Row 0 is the even channel and row 1 the odd one; entry [p, j] is bitwise
    `shoot` at energies[j] with that parity (config.parity is ignored).  All
    energies of both channels step together through one recurrence, since
    they share every coefficient and differ only in the seed.  Coefficients
    are formed _CHUNK steps at a time (`_scan_chunk`), so the working set
    is O(_CHUNK x energies) at any step count.
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
    n = config.steps
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(1, n, _CHUNK):
            hi = min(lo + _CHUNK, n)
            # steps lo .. hi - 1 read P on points lo - 1 .. hi
            prev, cur = _scan_chunk(constants, config, v[lo - 1:hi + 1, None] - both,
                                    prev, cur)
    if not np.isfinite(cur).all():
        raise OverflowError("propagation overflowed despite rescaling")
    return cur.reshape(2, energies.size)


def eigenvalue(pot: PotentialSpec, constants: Constants,
               config: ShootingConfig) -> float:
    """Bisect the energy bracket on the sign of psi(x_max) to width 1e-10."""
    lo, hi = config.energy_bracket
    flo = shoot(pot, constants, config, lo)
    fhi = shoot(pot, constants, config, hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise BracketingError(
            f"psi(x_max) has the same sign at both bracket ends "
            f"({lo:.6g}, {hi:.6g}) in the {config.parity} channel")
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        fm = shoot(pot, constants, config, mid)
        if fm == 0.0:
            return mid
        if math.copysign(1.0, fm) == math.copysign(1.0, flo):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _trajectory_nodes(pot, constants, config, energy):
    """Certified node count of the refined state on (0, x_t + 2 ell]."""
    _, traj = shoot(pot, constants, config, energy, return_trajectory=True)
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

    The energy axis is scanned for sign changes of psi(x_max) in each
    channel, both channels in one `shoot_scan`, and every bracket is refined
    by bisection.  Each refined state is cross-checked against its expected
    node count; a mismatch means two eigenvalues shared one scan cell, which
    is reported instead of silently dropping a level.
    """
    e_cap = float(e_cap)
    v_min = pot.minimum(mass=constants.mass)
    start = v_min + 1e-6 * (1.0 + abs(v_min))
    if e_cap <= start:
        return np.array([])
    if scan_points is None:
        scan_points = max(64, int(8.0 * (e_cap - v_min)))
    energies = np.linspace(start, e_cap, scan_points)
    found = []
    for parity, values in zip((EVEN, ODD), shoot_scan(pot, constants, config, energies).tolist()):
        cfg = replace(config, parity=parity)
        channel_index = 0
        for k in range(len(values) - 1):
            if math.copysign(1.0, values[k]) == math.copysign(1.0, values[k + 1]):
                continue
            refine = replace(cfg, energy_bracket=(float(energies[k]), float(energies[k + 1])))
            e_found = eigenvalue(pot, constants, refine)
            nodes = _trajectory_nodes(pot, constants, cfg, e_found)
            if nodes != channel_index:
                raise ScanResolutionError(
                    f"{parity} channel state {channel_index} at E = {e_found:.8g} "
                    f"carries {nodes} nodes; the scan grid is too coarse "
                    f"(raise scan_points above {scan_points})")
            found.append(e_found)
            channel_index += 1
    return np.array(sorted(found))


def richardson4(coarse: float, fine: float) -> float:
    """Cancel the leading h^4 error from estimates at steps h and h/2."""
    return fine + (fine - coarse) / 15.0

"""Reference eigensolver by Numerov integration with bisection shooting.

Brute-force route to the exact bound-state energies, fully independent of
the basis-set machinery: integrate psi'' = (2m/hbar^2)(V - E) psi outward
from x = 0 with parity initial conditions (the potentials in scope are even,
so the even and odd channels decouple), and bisect on the sign of
psi(x_max).  The three-point scheme is fourth order in the step, so halving
the step shrinks eigenvalue errors by ~16 and Richardson extrapolation
cancels the leading term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .basis import Constants
from .errors import BracketingError, ScanResolutionError
from .operators import PotentialSpec
from .spectral import count_nodes

EVEN = "even"
ODD = "odd"

#: Default number of grid intervals; keeps truncation error below 1e-8 scale.
DEFAULT_STEPS = 20000

#: Accepted range of grid intervals.  Below the floor the fourth-order error
#: is no longer small.  At the cap each shoot holds several 8 MB arrays and
#: its pure-Python recurrence takes about 0.3 s, and a spectrum scan makes
#: hundreds of shoots; past it a typo can exhaust memory.
MIN_STEPS = 1000
MAX_STEPS = 1_000_000

#: Magnitude threshold that triggers internal rescaling during propagation.
_RESCALE_AT = 1e250

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
    n = config.steps
    h = config.x_max / n
    x = np.linspace(0.0, config.x_max, n + 1)
    c = 2.0 * constants.mass / constants.hbar**2
    f = c * (np.asarray(pot.value(x, mass=constants.mass), dtype=float) - energy)
    # psi'' = f psi  =>  P_{n+1} psi_{n+1} = (12 - 10 P_n) psi_n - P_{n-1} psi_{n-1}
    # with P = 1 - (h^2/12) f
    pfac = 1.0 - (h * h / 12.0) * f
    f0 = float(f[0])
    fpp0 = c * pot.curvature_at_origin(mass=constants.mass)
    if config.parity == EVEN:
        prev = 1.0
        cur = 1.0 + 0.5 * h * h * f0 + (h**4 / 24.0) * (f0 * f0 + fpp0)
    else:
        prev = 0.0
        cur = h * (1.0 + h * h * f0 / 6.0 + (h**4 / 120.0) * (f0 * f0 + 3.0 * fpp0))

    pl = pfac.tolist()
    al = (12.0 - 10.0 * pfac).tolist()
    traj = [prev, cur] if return_trajectory else None
    for i in range(1, n):
        nxt = (al[i] * cur - pl[i - 1] * prev) / pl[i + 1]
        prev, cur = cur, nxt
        if traj is not None:
            traj.append(nxt)
        elif abs(cur) > _RESCALE_AT:
            scale = 1.0 / abs(cur)
            prev *= scale
            cur *= scale
    if traj is not None:
        if not math.isfinite(cur):
            raise OverflowError("propagation overflowed in trajectory mode")
        return cur, np.asarray(traj)
    if not math.isfinite(cur):
        raise OverflowError("propagation overflowed despite rescaling")
    return cur


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
    channel and every bracket is refined by bisection.  Each refined state
    is cross-checked against its expected node count; a mismatch means two
    eigenvalues shared one scan cell, which is reported instead of silently
    dropping a level.
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
    for parity in (EVEN, ODD):
        cfg = replace(config, parity=parity)
        values = [shoot(pot, constants, cfg, e) for e in energies]
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

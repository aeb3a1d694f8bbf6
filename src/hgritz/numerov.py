"""Reference eigensolver by Numerov integration with shooting.

Brute-force route to the exact bound-state energies, fully independent of
the basis-set machinery: integrate psi'' = (2m/hbar^2)(V - E) psi outward
from x = 0 with parity initial conditions (the potentials in scope are even,
so the even and odd channels decouple), and refine each level on the sign
of psi(x_max).  The three-point scheme is fourth order in the step: its
eigenvalue error grows as (h k)^4 with the local wave number
k = sqrt(2m (E - V)) / hbar (Cooley 1961, Math. Comp. 15:363).
`lowest_levels` is the one entry that returns levels, asked for by count
(state n has n nodes).  It scans from min V to the Bohr-Sommerfeld estimate
of the first level not wanted, found from an energy scale of the potential's
own constants, so that range, grid and scan follow the levels in any units;
`default_config` sizes the grid there, h k_max <= MAX_STEP_PHASE.

Every integration runs the recurrence in summed form (Blatt 1967, J. Comput.
Phys. 1:382) on u = P psi, P = 1 - (h^2/12)(2m/hbar^2)(V - E): with
delta_i = 12 / P_i - 12, formed from V - E (`_factors`), each step is
d += delta_i u; u += d, and psi = u / P is read wherever a value leaves the
loop.  delta carries eps relative to itself, where the three-term form
P_{i+1} psi_{i+1} = (12 - 10 P_i) psi_i - P_{i-1} psi_{i-1} rounds a
coefficient near 2 at every step: refined to the float spacing, the quartic
ground level (lambda = 1.06739, x_max = 4.96) stays within 8e-14 of LAPACK
from 5,000 to 40,000 steps, where the three-term form moved it by 5.5e-10.

The recurrence is written once scalar (`_shoot`: counted, refinement and
node-count shoots) and once vectorized over every scan energy of both
channels (`shoot_scan`), bitwise equal to `_shoot` at each; both scale u and
d by a power of two wherever |u| has passed _RESCALE_AT, after every _CHUNK
steps and after the last.  The scan's sign changes per trajectory are a
discrete Sturm count of the levels in every scan cell (Atkinson 1964,
*Discrete and Continuous Boundary Problems*), nondecreasing in E; `_shoot`
returns the same count with psi.

`lowest_levels` takes its levels in three steps.  Locate: `shoot_scan` runs
on a coarse grid, the same x_max and scan energies at a fifth of the steps,
and picks each channel's one-level cells below `top`, the first energy
whose summed count reaches the wanted count.  Certify: each channel is shot
once on the fine grid, counting sign changes, at min V, at both ends of
every picked cell and at `top`.  Where every fine count equals the coarse
one, the fine counts equal the coarse ones at every scan energy up to
`top`, since both are nondecreasing and agree at the ends of every run of
constant count; the picked cells are the fine scan's cells, and the
psi(x_max) of their ends its bits.  Refine: `_bisect` narrows each cell by
Brent's method with the ITP projection to a sign change of psi(x_max) at
most 1e-10 wide, and `_trajectory_nodes` counts each state's nodes as the
Sturm count of one shoot on the grid prefix up to x_t + 2 ell, past which a
bound state has no node; the state in the cell of counts n to n + 1 must
carry n.  Otherwise (a grid raises, a count differs, a coarse cell holds two
levels or its count falls, or the coarse total falls short), `shoot_scan`
runs on the fine grid itself; refinement and every refusal are the same on
either route.

`_shoot` counts sign changes only at its rescaling checks, s = _CHUNK steps
apart, which is exact while at most one falls between two checks.  With
u_{i+1} - 2 u_i + u_{i-1} = delta_i u_i, delta_i >= -(h k_i)^2 where
E > V_i (k_i the local wave number; delta_i >= 0 elsewhere), so at energy E
each delta_i is at least -c, c = (h k)^2 with k = sqrt(2m (E - min V)) /
hbar.  By the discrete Sturm comparison theorem, between two sign changes
of u every solution of v_{i+1} - 2 v_i + v_{i-1} = -c v_i changes sign;
v_i = sin(i theta + phi) with c = 4 sin^2(theta / 2) changes sign once every
pi / theta steps, so u's sign changes lie pi / theta steps apart, up to a
step at either end.  h k <= 2 sin(pi / (4 s)) gives theta <= pi / (2 s):
sign changes at least 2 s - 2 steps apart, and for s >= 2 no s steps
between two checks hold two of them.  The checks are the steps where the
scan rescales, so psi is the scan's bits, and the count is exact for
h k_max <= _COUNT_PHASE = 2 sin(pi / (4 _CHUNK)) = 0.0245 at the last scan
energy, some 128 steps per sign change.  `default_config`'s grid keeps
h k_max <= MAX_STEP_PHASE = 0.01 (Cooley 1961), some 314, and every level
lies below the scan's top.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .basis import MAX_INDEX, Constants, _is_integer
from .errors import BracketingError, ScanResolutionError
from .operators import PotentialSpec
from .spectral import EVEN, ODD

#: Fewest grid intervals `default_config` derives.  The h^4 error of the low
#: levels is far below the 1e-10 refinement width here: the quartic ground
#: level of the module docstring is off by 1.6e-14, and the ground level of
#: 0,1,0,0.3 by 1.6e-13.
DEFAULT_STEPS = 5000

#: Largest phase h k_max per step that `default_config` allows at the top of
#: the scan, k_max = sqrt(2m (e_hi - min V)) / hbar.  The h^4 error of a
#: level grows as (h k)^4: with e_hi just past the 40th quartic level
#: (x_max k_max = 91.9), 5,000 steps (h k_max = 0.018) leave 2.5e-10,
#: the 9,186 derived here 2.2e-11 and 20,000 steps 1.1e-12.
MAX_STEP_PHASE = 0.01

#: Accepted range of grid intervals.  Below the floor the fourth-order error
#: is no longer small.  At the cap each shoot holds several 8 MB arrays and
#: its pure-Python recurrence takes about 0.3 s; past it a typo can exhaust
#: memory.
MIN_STEPS = 1000
MAX_STEPS = 1_000_000

#: Steps between two rescaling checks, and most steps per block of
#: `shoot_scan`'s coefficients; a power of two.
_CHUNK = 64

#: |u| past which an integration scales u and d by one power of two, checked
#: once per _CHUNK steps.  Each step grows m_i = max(|u_i|, |u_{i-1}|) by at
#: most 3 + |delta_i|, so a block whose steps keep |delta| <= 5 grows m by at
#: most 8^64 = 6.3e57, under the 1.8e58 between _RESCALE_AT and the float
#: range: a block that starts with m <= _RESCALE_AT stays finite.  The grids
#: of `default_config` keep |delta| far below that (h kappa << 1 at x_max);
#: past it |u| can overflow inside a block, and the integration raises.
_RESCALE_AT = 1e250

#: What an integration that overflowed between two checks raises.
_OVERFLOW = (f"the Numerov integration overflowed within {_CHUNK} steps, between two "
             "rescaling checks; it takes more steps or a smaller x_max")

#: Steps of the fine grid per step of the coarse grid `_located_cells` scans.
_COARSEN = 5

#: Largest h k_max at which `_shoot`'s count at its checks is the Sturm count,
#: 2 sin(pi / (4 _CHUNK)) = 0.0245: between two checks at most one sign change
#: (module docstring).
_COUNT_PHASE = 2.0 * math.sin(math.pi / (4 * _CHUNK))

#: Scan energies `lowest_levels` places per wanted level, and fewest per scan.
#: More narrow the cells refinement starts from, but cost more: at 5,000 steps
#: on a shared 2-core machine 160 energies per channel took 15 ms, 256 35 ms.
_SCAN_PER_LEVEL = 16
_MIN_SCAN = 64

#: Midpoints of `_cap`'s integral, and most steps of its search.
_COUNT_POINTS = 256
_CAP_STEPS = 64

#: Width of the sign change `_bisect` returns each level in.
_LEVEL_WIDTH = 1e-10

#: Factor on `_bisect`'s ITP targets, so that rounding the projected point
#: cannot leave the last bracket wider than the level width.
_ITP_MARGIN = 1.0 - 2.0**-10

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
        if not (_is_integer(self.steps) and MIN_STEPS <= self.steps <= MAX_STEPS):
            raise ValueError(
                f"steps must be an integer in [{MIN_STEPS}, {MAX_STEPS}], got {self.steps!r}")
        object.__setattr__(self, "x_max", float(self.x_max))
        object.__setattr__(self, "steps", int(self.steps))


def _airy_length(pot, constants, x_t, depth):
    """Airy length (hbar^2 / 2m V'(x_t))^(1/3) at the turning point x_t > 0 of a level.

    depth is the level's height above min V.  V'(x_t) is floored at the
    mean slope depth / x_t, the request's own slope scale, so that a flat
    turning point still gives a finite length in every system of units.  On
    a convex well the floor never binds.
    """
    slope = max(float(pot.derivative(x_t, mass=constants.mass)), depth / x_t)
    return (constants.hbar**2 / (2.0 * constants.mass * slope)) ** (1.0 / 3.0)


def default_config(pot: PotentialSpec, constants: Constants, e_hi: float) -> ShootingConfig:
    """Domain sized for energies up to e_hi: turning point + 8 decay lengths.

    e_hi must lie above min V, where `lowest_levels` starts its scan.  The
    grid takes the fewest steps, at least DEFAULT_STEPS, with h k_max <=
    MAX_STEP_PHASE, h = x_max / steps, k_max = sqrt(2m (e_hi - min V)) /
    hbar; past MAX_STEPS that raises ScanResolutionError.
    """
    v_min = pot.minimum(mass=constants.mass)
    if not float(e_hi) > v_min:
        raise ValueError(f"e_hi = {e_hi!r} must lie above the scan start, min V = {v_min!r}")
    x_t = pot.turning_point(e_hi, mass=constants.mass)
    x_max = x_t + 8.0 * _airy_length(pot, constants, x_t, float(e_hi) - v_min)
    return ShootingConfig(x_max, _derived_steps(constants, x_max, float(e_hi) - v_min))


def _derived_steps(constants, x_max, depth):
    """Fewest steps >= DEFAULT_STEPS over [0, x_max] with h k <= MAX_STEP_PHASE.

    k = sqrt(2m depth) / hbar (`_wave_number`) is the largest wave number of
    a level depth above min V.
    """
    phase = x_max * _wave_number(constants, depth)
    needed = phase / MAX_STEP_PHASE
    if not needed <= MAX_STEPS:
        raise ScanResolutionError(
            f"levels {depth:.6g} above min V span a phase x_max k_max = {phase:.6g}; "
            f"keeping h k_max <= {MAX_STEP_PHASE} takes {needed:.4g} steps, more than "
            f"MAX_STEPS = {MAX_STEPS}")
    return max(DEFAULT_STEPS, math.ceil(needed))


def _wave_number(constants, depth):
    """sqrt(2m depth) / hbar, the root taken by parts so that 2m depth cannot overflow."""
    return math.sqrt(2.0) * math.sqrt(constants.mass) * math.sqrt(depth) / constants.hbar


def _check_domain(pot, constants, config, energy):
    """Require x_max past x_t(E) by _MIN_EFOLDS e-folds of sqrt(2m(V - E))/hbar (midpoint rule).

    Passing at E implies passing below E: x_t(E), the outermost root of
    V = E, rises with E, and V - E > 0 past it falls as E rises.
    """
    x_t = pot.turning_point(energy, mass=constants.mass)
    if x_t >= config.x_max:
        raise ValueError(
            f"x_max = {config.x_max:.6g} lies inside the classically allowed "
            f"region at E = {energy:.6g} (turning point {x_t:.6g})")
    h = (config.x_max - x_t) / 64
    gap = pot.value(x_t + h * (np.arange(64) + 0.5), mass=constants.mass) - energy
    kappa = np.sqrt(2.0 * constants.mass * np.maximum(gap, 0.0)) / constants.hbar
    efolds = float(kappa.sum() * h)
    if efolds < _MIN_EFOLDS:
        raise ValueError(
            f"x_max = {config.x_max:.6g} gives only {efolds:.2f} e-folds of "
            f"tail suppression at E = {energy:.6g}; need >= {_MIN_EFOLDS}")


def _grid_potential(pot, constants, config, given=None):
    """V on the grid x_i = i x_max / steps, or `given` once its length is checked."""
    if given is not None:
        if np.shape(given) != (config.steps + 1,):
            raise ValueError(f"potential must hold V at the {config.steps + 1} grid points, "
                             f"got shape {np.shape(given)}")
        return given
    x = np.linspace(0.0, config.x_max, config.steps + 1)
    return np.asarray(pot.value(x, mass=constants.mass), dtype=float)


def _factors(constants, config, gap):
    """P = 1 - g and delta = 12 g / P for g = (h^2/12) (2m/hbar^2) gap, gap = V - E.

    With u_i = P_i psi_i, Numerov's P_{i+1} psi_{i+1} + P_{i-1} psi_{i-1} =
    (12 - 10 P_i) psi_i reads u_{i+1} - 2 u_i + u_{i-1} = delta_i u_i.  delta
    equals 12 / P - 12, but formed from g it keeps every digit that the
    difference would cancel.  delta overwrites gap.  Every entry is formed by
    the same operations whether gap is one energy's column or a block of
    energies.
    """
    h = config.x_max / config.steps
    gap *= 2.0 * constants.mass / constants.hbar**2
    gap *= h * h / 12.0
    pfac = np.subtract(1.0, gap)
    gap *= 12.0
    return pfac, np.divide(gap, pfac, out=gap)


def _check_factor(config, pfac):
    """Raise unless every P is positive, so that u = P psi and psi share their signs."""
    if not pfac.min() > 0.0:
        raise ValueError(
            f"the Numerov factor 1 - (h^2/12) (2m/hbar^2)(V - E) reaches {pfac.min():.6g} "
            f"on the grid of {config.steps} steps over [0, {config.x_max:.6g}]; "
            "it must stay positive, which takes more steps or a smaller x_max")


def _seed(pot, constants, config, v0, energy, parity):
    """(psi_0, psi_1) from the parity-adapted Taylor expansion about x = 0.

    Even starts psi(0) = 1, psi'(0) = 0; odd psi(0) = 0, psi'(0) = 1.  v0 is
    V(0); energy is a float or an array.  u starts from P_0 psi_0, P_1 psi_1.
    """
    h = config.x_max / config.steps
    c = 2.0 * constants.mass / constants.hbar**2
    f0 = c * (v0 - energy)
    fpp0 = c * pot.curvature_at_origin(mass=constants.mass)
    if parity == EVEN:
        return 1.0, 1.0 + 0.5 * h * h * f0 + (h**4 / 24.0) * (f0 * f0 + fpp0)
    return 0.0, h * (1.0 + h * h * f0 / 6.0 + (h**4 / 120.0) * (f0 * f0 + 3.0 * fpp0))


def _shoot(pot, constants, config, energy, parity, potential):
    """(psi, sign changes) at the last point of `potential`, V on a grid prefix, for one channel.

    energy is a float.  The first step comes from `_seed`.  Sign changes of
    psi in E bracket levels.  Every P is checked positive (`_check_factor`).
    Every _CHUNK steps and after the last, u and d are rescaled where |u|
    has passed _RESCALE_AT, exactly and keeping every sign, and u's sign is
    compared with its sign at the check before (u_0 against u_1 first; a
    +-0.0 by its sign bit).  Those changes are the Sturm count of u_0 ..
    u_last, the scan's count, wherever h k(E) <= _COUNT_PHASE (module
    docstring).  The checks are the steps where `shoot_scan` rescales, so
    psi is bitwise its value there.  The coefficients are formed
    elementwise, so a prefix of the grid integrates as the whole grid does
    up to its last point.  The caller has checked the domain at this energy
    or above (`_check_domain`).
    """
    pfac, deltas = _factors(constants, config, potential - energy)
    _check_factor(config, pfac)
    # delta_i of the steps i = 1 .. len - 2, as Python floats
    deltas = deltas[1:-1].tolist()
    psi_0, psi_1 = _seed(pot, constants, config, float(potential[0]), energy, parity)
    u_0, u = float(pfac[0]) * psi_0, float(pfac[1]) * psi_1
    d = u - u_0
    sign = math.copysign(1.0, u)
    changes = int(sign != math.copysign(1.0, u_0))
    for lo in range(0, len(deltas), _CHUNK):
        for delta in deltas[lo:lo + _CHUNK]:
            d += delta * u
            u += d
        if abs(u) > _RESCALE_AT:
            shift = -math.frexp(u)[1]
            d, u = math.ldexp(d, shift), math.ldexp(u, shift)
        if math.copysign(1.0, u) != sign:
            sign = -sign
            changes += 1
    psi = u / float(pfac[-1])
    if not math.isfinite(psi):
        raise OverflowError(_OVERFLOW)
    return psi, changes


def _scan_chunk(constants, config, gap, d, u):
    """Advance a block of energies through one chunk; gap is V - E at its steps' points.

    Returns d and u after the chunk and how often each energy's u changed
    sign in it.  The steps run unchecked; `shoot_scan` rescales between
    chunks by `_shoot`'s rule.  Nothing of the chunk outlives the call.
    """
    pfac, delta = _factors(constants, config, gap)
    _check_factor(config, pfac)
    out = np.empty_like(delta)
    step, diff, cur = np.empty_like(u), d.copy(), u
    for dl, row in zip(delta, out):
        np.multiply(dl, cur, out=step)
        np.add(diff, step, out=diff)
        np.add(cur, diff, out=row)
        cur = row
    signs = np.signbit(out)
    changes = np.count_nonzero(signs[1:] != signs[:-1], axis=0)
    changes += signs[0] != np.signbit(u)
    return diff, cur.copy(), changes


def shoot_scan(pot: PotentialSpec, constants: Constants, config: ShootingConfig,
               energies, *, potential: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """psi(x_max) and its trajectory's sign changes at every energy, in both channels.

    Returns two arrays of shape (2, len(energies)), row 0 for the even channel
    and row 1 for the odd one.  Entry [p, j] of the first is bitwise `_shoot`
    at energies[j] with that parity.  Entry [p, j] of the second counts the
    sign changes of u_0, u_1, ..., u_steps there (a +-0.0 counts by its sign
    bit, as `math.copysign` reads it).  This is a discrete Sturm count: the
    recurrence u_{i+1} + u_{i-1} = (2 + delta_i) u_i is a Jacobi three-term
    recurrence whose diagonal 2 + delta_i = 12 / P_i - 10 falls as E rises,
    so the count rises by one at each level and its difference across a scan
    cell is the number of levels inside.  Every P_i is checked positive, so
    the sign changes of u are those of psi.  All energies of both channels
    step together through one recurrence, since they share every coefficient
    and differ only in the seed.  Coefficients are formed a block of steps at
    a time (`_scan_chunk`): _CHUNK steps up to _CHUNK energies, and past that
    the power of two nearest _CHUNK^2 / energies down to 8, so that a block
    stays in cache and blocks end at every step where `_shoot` checks its
    rescaling.  The working set is O(_CHUNK x energies) at any step count.
    `potential` is V on the grid; None computes it here.  An `energies` that
    is empty, not finite or not one-dimensional raises ValueError first.
    """
    energies = np.asarray(energies, dtype=float)
    if energies.ndim != 1 or energies.size == 0 or not np.isfinite(energies).all():
        raise ValueError(f"energies must be finite and at least one, in one dimension, "
                         f"got {energies!r}")
    _check_domain(pot, constants, config, float(energies.max()))
    both = np.concatenate([energies, energies])
    v = _grid_potential(pot, constants, config, potential)
    n = config.steps
    (psi_0e, psi_1e), (psi_0o, psi_1o) = (
        _seed(pot, constants, config, v[0], energies, parity) for parity in (EVEN, ODD))
    # P on the points 0 and 1, which start u, and n, which reads psi(x_max) off it
    ends, _ = _factors(constants, config, v[[0, 1, n], None] - both)
    _check_factor(config, ends)
    u_0 = ends[0] * np.repeat([psi_0e, psi_0o], energies.size)
    u = ends[1] * np.concatenate([psi_1e, psi_1o])
    d = u - u_0
    changes = (np.signbit(u_0) != np.signbit(u)).astype(int)
    # a power of two that divides _CHUNK, so that blocks end at `_shoot`'s checks
    rows = min(_CHUNK, 2 ** max(3, round(math.log2(_CHUNK * _CHUNK / energies.size))))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(1, n, rows):
            hi = min(lo + rows, n)
            d, u, chunk_changes = _scan_chunk(
                constants, config, v[lo:hi, None] - both, d, u)
            changes += chunk_changes
            # hi - 1 steps are done: check where `_shoot` does
            if (hi - 1) % _CHUNK == 0 or hi == n:
                big = np.abs(u) > _RESCALE_AT
                if big.any():
                    shift = -np.frexp(u[big])[1]
                    d[big], u[big] = np.ldexp(d[big], shift), np.ldexp(u[big], shift)
        psi = u / ends[2]
    if not np.isfinite(psi).all():
        raise OverflowError(_OVERFLOW)
    return psi.reshape(2, energies.size), changes.reshape(2, energies.size)


def _bisect(pot, constants, config, parity, lo, hi, flo, fhi, potential):
    """A sign change of psi(x_max) in (lo, hi), given psi(x_max) at both ends as flo and fhi.

    Brent's method (`_brent_point`) narrows (lo, hi) on the sign of
    psi(x_max) until the sign change is at most width = _LEVEL_WIDTH wide,
    or 8 ulp of E where those are wider, and returns the end of it where
    |psi(x_max)| is smaller, or the first energy where psi(x_max) is exactly
    0.  Bisection takes budget = ceil(log2((hi - lo) / width)) shoots to
    that width.  Each shoot is projected toward the bracket's midpoint as the
    ITP method does with one step of slack (n0 = 1), so that shoot k (from
    0) leaves a bracket no wider than the larger of _ITP_MARGIN width
    2^(budget - k) and half the one before it: at most budget + 1 shoots,
    and fewer wherever Brent's interpolation converges first.  Should
    rounding make psi(x_max) change sign more than once near a level, the
    result lies at one of those sign changes, within the width of the others.
    `potential` is V on the grid.  The shoots check no domain: the callers
    have checked it at hi or above, which covers every energy below
    (`_check_domain`).  Ends of one sign raise BracketingError.
    """
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise BracketingError(
            f"psi(x_max) has the same sign at both bracket ends "
            f"({lo:.6g}, {hi:.6g}) in the {parity} channel")
    # from |E| = 2^16 up, 8 ulp of E are wider than _LEVEL_WIDTH
    width = max(_LEVEL_WIDTH, 8.0 * math.ulp(max(abs(lo), abs(hi))))
    tol = 0.5 * width
    budget = max(0, math.ceil(math.log2((hi - lo) / width)))
    # b is the estimate, c the other end of the sign change and a the previous b
    a, fa, b, fb, c, fc = lo, flo, hi, fhi, lo, flo
    d = e = hi - lo
    for shots in itertools.count():
        if math.copysign(1.0, fb) == math.copysign(1.0, fc):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        if abs(c - b) <= width or fb == 0.0:
            return b
        x, d, e = _brent_point(a, fa, b, fb, c, fc, d, e, tol,
                               _ITP_MARGIN * width * 2.0 ** (budget - shots))
        a, fa = b, fb
        b, fb = x, _shoot(pot, constants, config, x, parity, potential)[0]


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


def _trajectory_nodes(pot, constants, config, energy, parity, potential, v_min):
    """Node count of the refined state: the Sturm count of its trajectory on (0, x_t + 2 ell].

    One `_shoot` on the grid prefix up to that cut; potential is V on the
    grid.  The state lies below the scan's top, so h k(E) <= MAX_STEP_PHASE
    < _COUNT_PHASE and the count at the checks is exact (module docstring).
    """
    h = config.x_max / config.steps
    x_t = pot.turning_point(energy, mass=constants.mass)
    cut = min(config.x_max, x_t + 2.0 * _airy_length(pot, constants, x_t, energy - v_min))
    stop = int(cut / h) + 1
    return _shoot(pot, constants, config, energy, parity, potential[:max(stop, 2)])[1]


def _cap(pot, constants, v_min, count):
    """An energy where the Bohr-Sommerfeld count N(E) is count + 1/2, within 1/4.

    N(E) = (2/pi hbar) int_0^x_t sqrt(2m (E - V)) dx (midpoint rule); level n
    lies near N = n + 1/2, so the cap estimates level `count`, half a level
    past the last wanted one even in a double well's doublets.  The search
    takes secant steps on log N against log(E - min V), nearly a line, from
    slope 1 and the largest scale |c_k|^(1/(k+1)) (hbar^2/2m)^(k/(k+1)) of a
    term c_k x^(2k) (hbar omega / 2 if harmonic), which follows the levels
    in any units; a count of 0 doubles the depth.  A scale that rounds to
    min V raises ScanResolutionError.
    """
    def count_below(energy):
        h = pot.turning_point(energy, mass=constants.mass) / _COUNT_POINTS
        gap = energy - pot.value(h * (np.arange(_COUNT_POINTS) + 0.5), mass=constants.mass)
        action = h * float(np.sqrt(np.maximum(gap, 0.0)).sum())
        return math.sqrt(8.0) * math.sqrt(constants.mass) * action / (math.pi * constants.hbar)

    kinetic = 2.0 * math.log(constants.hbar) - math.log(2.0) - math.log(constants.mass)
    depth = max(math.exp((math.log(abs(c)) + k * kinetic) / (k + 1))
                for k, c in enumerate(pot.coefficients(mass=constants.mass)) if k and c)
    if not v_min + depth > v_min:
        raise ScanResolutionError(f"the energy scale {depth:.6g} of the potential's constants "
                                  f"rounds to min V = {v_min:.8g}; no scan can resolve its levels")
    target, n, slope = count + 0.5, count_below(v_min + depth), 1.0
    for _ in range(_CAP_STEPS):
        if abs(n - target) <= 0.25:
            break
        step = math.log(target / n) / slope if n > 0.0 else math.log(2.0)
        next_n = count_below(v_min + depth * math.exp(step))
        if n > 0.0 and next_n > 0.0 and next_n != n:
            slope = min(max(math.log(next_n / n) / step, 0.25), 4.0)
        depth, n = depth * math.exp(step), next_n
    return v_min + depth


def _top(changes, count):
    """The first scan energy whose Sturm counts, summed over both channels, reach `count`.

    None where the last one falls short.
    """
    total = changes.sum(axis=0)
    return int(np.argmax(total >= count)) if total[-1] >= count else None


def _cells(grid, psi, changes, top):
    """Per channel, its Sturm count at min V and the scan cells below `top` that hold levels.

    A cell is (lo, hi, psi(x_max) at lo and at hi, Sturm count at lo and at
    hi).  grid[k] is scan energy k; psi[p][k] and changes[p][k] are read in
    channel p at the ends of the cells that hold levels and, for the count,
    at k = 0.
    """
    return [(counts[0], [(grid[k], grid[k + 1], values[k], values[k + 1],
                          counts[k], counts[k + 1])
                         for k in range(top) if counts[k + 1] != counts[k]])
            for values, counts in zip(psi, changes)]


def _located_cells(pot, constants, config, energies, count, potential):
    """`_cells` of the scan on config's grid, found without that scan, or None.

    `shoot_scan` runs on a coarse grid, the same x_max at a fifth of the
    steps (_COARSEN), over the same energies, and gives the first energy
    `top` whose summed count reaches `count`.  Each channel is then shot on
    config's grid (`_shoot`, counted) at min V, at both ends of every coarse
    cell below `top` that holds a level, and at `top`.  Where every count
    equals the coarse one, the counts of the whole scan equal them too
    (module docstring), so the cells and `top` are the scan's and the psi
    values its bits.  The counts are exact: config is `default_config`'s
    grid for energies[-1], h k_max <= MAX_STEP_PHASE < _COUNT_PHASE.  None
    asks for the scan itself: where either grid raises, where the coarse
    total falls short of `count`, where a coarse cell holds two levels or
    the count falls, or where a count differs.  `potential` is V on config's
    grid.
    """
    try:
        coarse = ShootingConfig(config.x_max, config.steps // _COARSEN)
        _, changes = shoot_scan(pot, constants, coarse, energies)
    except (ValueError, OverflowError):
        return None
    top = _top(changes, count)
    if top is None:
        return None
    rises = np.diff(changes[:, :top + 1], axis=1)
    if ((rises != 0) & (rises != 1)).any():
        return None
    grid, changes = energies.tolist(), changes.tolist()
    psi = []
    for parity, counts in zip((EVEN, ODD), changes):
        cells = [k for k in range(top) if counts[k + 1] != counts[k]]
        values = {}
        for k in sorted({0, top, *cells, *(k + 1 for k in cells)}):
            try:
                values[k], changes_k = _shoot(pot, constants, config, grid[k], parity, potential)
            except (ValueError, OverflowError):
                return None
            if changes_k != counts[k]:
                return None
        psi.append(values)
    return _cells(grid, psi, changes, top)


def lowest_levels(pot: PotentialSpec, constants: Constants, count: int) -> np.ndarray:
    """The `count` lowest levels of both parity channels together, ascending.

    The scan runs from min V to `_cap`, on the grid `default_config` derives
    there, h k_max <= MAX_STEP_PHASE, at _SCAN_PER_LEVEL energies per
    wanted level, at least _MIN_SCAN; a cell holds as many levels as the
    Sturm count rises across it.  Its cells come from a coarse grid,
    certified by counted shoots on this one (`_located_cells`), or where
    that fails from `shoot_scan` on this grid; either way they are the same
    cells with the same bits (module docstring).  Where both channels hold
    fewer than `count`, the depth above min V doubles and the scan reruns.
    `_bisect` refines the cells below the first energy whose summed count
    reaches `count`, and each state must carry as many nodes as its count.
    A nonzero count at min V or a cell of two levels raises
    ScanResolutionError, so no level is dropped silently; a count that is
    no integer, a bool, or outside [1, MAX_INDEX] raises ValueError.
    """
    if not (_is_integer(count) and 1 <= count <= MAX_INDEX):
        raise ValueError(f"count must be an integer in [1, {MAX_INDEX}], got {count!r}")
    v_min = pot.minimum(mass=constants.mass)
    e_cap = _cap(pot, constants, v_min, count)
    while True:
        config = default_config(pot, constants, e_cap)
        energies = np.linspace(v_min, e_cap, max(_MIN_SCAN, _SCAN_PER_LEVEL * count))
        potential = _grid_potential(pot, constants, config)
        cells = _located_cells(pot, constants, config, energies, count, potential)
        if cells is not None:
            break
        psi, changes = shoot_scan(pot, constants, config, energies, potential=potential)
        top = _top(changes, count)
        if top is not None:
            cells = _cells(energies.tolist(), psi.tolist(), changes.tolist(), top)
            break
        e_cap = v_min + 2.0 * (e_cap - v_min)
    found = []
    for parity, (start, channel) in zip((EVEN, ODD), cells):
        if start:
            raise ScanResolutionError(
                f"the {parity}-channel Sturm count is {start} at min V = {v_min:.8g}, "
                f"where no level lies")
        for lo, hi, flo, fhi, below, above in channel:
            if above - below != 1:
                raise ScanResolutionError(
                    f"the {parity}-channel scan cell ({lo:.8g}, {hi:.8g}) "
                    f"holds {above - below} levels (Sturm count {below} to {above}); "
                    f"refinement can take only a cell that holds one")
            e_found = _bisect(pot, constants, config, parity, lo, hi, flo, fhi, potential)
            nodes = _trajectory_nodes(pot, constants, config, e_found, parity, potential,
                                      v_min)
            if nodes != below:
                raise ScanResolutionError(f"{parity} channel state {below} at "
                                          f"E = {e_found:.8g} carries {nodes} nodes")
            found.append(e_found)
    return np.array(sorted(found)[:count])

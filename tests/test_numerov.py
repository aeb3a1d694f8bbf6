import math
import sys

import numpy as np
import pytest

from hgritz import (BasisSpec, BracketingError, Constants, PotentialSpec,
                    ScanResolutionError, hamiltonian_matrix)
from hgritz import numerov
from hgritz.variational import minimize_alpha

from helpers import numerov_trajectory, sign_changes

C = Constants()
HARM = PotentialSpec.harmonic(1.0)
QUART = PotentialSpec.quartic(1.0)
SEXTIC = PotentialSpec.even_polynomial([0.0, 0.5, 0.0, 0.1])
DOUBLE_WELL = PotentialSpec.even_polynomial([0.0, -2.0, 0.5])
DEEP_WELL = PotentialSpec.even_polynomial([0.0, -10.0, 0.5])
#: A steep sextic whose 30 levels at alpha 3 derive 6,772 steps.
STEEP_SEXTIC = PotentialSpec.even_polynomial([0.0, 1.0, 0.0, 0.3])

#: Quartic ground state in natural units, certified by Richardson step-halving
#: of this module's own integrator and independently by the dim-40 basis solve.
QUARTIC_E0 = 0.667986

#: The odd level near 15.5485 of 0,1.93962,0.761412 (state 5), with the domain
#: and scan cell of a benchmark verify-mhu request.
ODD_LEVEL_POT = PotentialSpec.even_polynomial([0.0, 1.93962, 0.761412])
ODD_LEVEL = 5
ODD_LEVEL_X_MAX = 4.012210575973266
ODD_LEVEL_BRACKET = (15.53594570308352, 15.662254196604524)


def airy_length(pot, constants, energy):
    """`numerov._airy_length` at the turning point of `energy`, which lies above min V."""
    x_t = pot.turning_point(energy, mass=constants.mass)
    return numerov._airy_length(pot, constants, x_t, energy - pot.minimum(mass=constants.mass))


def lapack_level(pot, level):
    """Level `level` of LAPACK's dense solve at alpha 3 and dim 200.

    For the levels read here, widths 1.5-4 and dims 100-300 agree to 3e-12.
    """
    matrix = hamiltonian_matrix(BasisSpec(3.0), pot, 200).to_dense()
    return float(np.linalg.eigvalsh(matrix)[level])


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            numerov.ShootingConfig(5.0, 999)
        with pytest.raises(ValueError):
            numerov.ShootingConfig(5.0, numerov.MAX_STEPS + 1)
        with pytest.raises(ValueError):
            numerov.ShootingConfig(-1.0, 2000)

    def test_steps_must_be_an_integer(self):
        # int(1000.7) once made 1,000 steps silently, and a bool or a float
        # step count passed; numpy integers stay accepted
        for steps in (1000.7, 5000.0, True, np.float64(2000.0)):
            with pytest.raises(ValueError, match=r"steps must be an integer in \[1000, "):
                numerov.ShootingConfig(5.0, steps)
        assert numerov.ShootingConfig(5.0, np.int64(2000)).steps == 2000

    def test_default_config_domain(self):
        cfg = numerov.default_config(HARM, C, 0.6)
        x_t = HARM.turning_point(0.6, mass=1.0)
        assert cfg.x_max > x_t + 5.0 * airy_length(HARM, C, 0.6)

    def test_default_config_needs_e_hi_above_the_scan_start(self):
        # the scan starts at min V = 0; no level lies at or below it
        for e_hi in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="scan start"):
                numerov.default_config(HARM, C, e_hi)
        assert numerov.default_config(HARM, C, 1e-6).steps == numerov.DEFAULT_STEPS

    @pytest.mark.parametrize("pot, e_hi, want", [
        (HARM, 0.6, numerov.DEFAULT_STEPS),
        # the 40th quartic level at alpha 3, and the 30th of 0,1,0,0.3
        (QUART, 185.17592507775424, 9186),
        (STEEP_SEXTIC, 163.20997725634425, 6772),
    ], ids=["harmonic-floor", "quartic-40", "sextic-30"])
    def test_derived_steps(self, pot, e_hi, want):
        # the fewest steps, at least DEFAULT_STEPS, with h k_max <= MAX_STEP_PHASE
        cfg = numerov.default_config(pot, C, e_hi)
        assert cfg.steps == want
        k_max = math.sqrt(2.0 * (e_hi - pot.minimum(mass=1.0)))
        assert cfg.x_max / cfg.steps * k_max <= numerov.MAX_STEP_PHASE
        if want > numerov.DEFAULT_STEPS:
            assert cfg.x_max / (cfg.steps - 1) * k_max > numerov.MAX_STEP_PHASE

    def test_derived_steps_past_the_cap_are_named(self):
        # 10^6 harmonic quanta below e_hi: x_max k_max is about 3e6, so keeping
        # h k_max <= 0.01 would take some 3e8 steps
        with pytest.raises(ScanResolutionError, match="more than MAX_STEPS = 1000000"):
            numerov.default_config(HARM, Constants(hbar=1e-6), 1.0)

    def test_shallow_domain_rejected(self):
        # at E = 0.5 the turning point is 1: x_max = 1 lies inside the allowed
        # region, and past x_max = 1.2 the tail decays by only 0.09 e-folds
        for x_max, match in [(1.0, "inside the classically allowed region"),
                             (1.2, r"gives only 0\.09 e-folds of tail suppression")]:
            with pytest.raises(ValueError, match=match):
                numerov.shoot_scan(HARM, C, numerov.ShootingConfig(x_max, 2000), [0.5])

    def test_max_step_phase_lies_under_the_count_phase(self):
        # h k_max <= MAX_STEP_PHASE on every derived grid; under _COUNT_PHASE
        # the count at checks _CHUNK steps apart is the Sturm count
        assert numerov.MAX_STEP_PHASE < numerov._COUNT_PHASE


class TestShoot:
    def test_true_eigenvalue_gives_small_boundary_value(self):
        cfg = numerov.default_config(HARM, C, 0.6)
        off_lo, at_eigen, off_hi = np.abs(numerov.shoot_scan(HARM, C, cfg, [0.4, 0.5, 0.6])[0][0])
        assert at_eigen < 1e-6 * min(off_lo, off_hi)

    def test_bracketing_signs(self):
        cfg = numerov.default_config(HARM, C, 0.6)
        lo, hi = numerov.shoot_scan(HARM, C, cfg, [0.4, 0.6])[0][0]
        assert math.copysign(1.0, lo) != math.copysign(1.0, hi)

    def test_odd_channel_starts_at_zero(self):
        # psi_0 = 0 gives u_0 = +0.0, which counts as positive: the first
        # step adds no sign change
        cfg = numerov.default_config(HARM, C, 1.8)
        v = numerov._grid_potential(HARM, C, cfg)
        psi_0, psi_1 = numerov._seed(HARM, C, cfg, v[0], 1.5, numerov.ODD)
        assert psi_0 == 0.0 and psi_1 > 0.0
        psi, changes = numerov._shoot(HARM, C, cfg, 1.5, numerov.ODD, v[:2])
        assert psi == pytest.approx(psi_1, rel=1e-15)
        assert changes == 0

    def test_first_step_counts_its_sign_change(self):
        # at h k = 2 the even seed turns over within one step, psi_1 < 0 < psi_0;
        # the count starts from u_0 against u_1, as the reference counts it
        cfg = numerov.ShootingConfig(5.0, 1000)
        v = numerov._grid_potential(HARM, C, cfg)
        energy = 0.5 * (2.0 / 0.005) ** 2
        reference = numerov_trajectory(HARM, C, 5.0, 1000, energy, numerov.EVEN, 2)
        assert reference[0] > 0.0 > reference[1]
        assert numerov._shoot(HARM, C, cfg, energy, numerov.EVEN, v[:2])[1] == 1

    def test_overflow_inside_a_block_is_named(self):
        # h = 0.058 over [0, 58]: delta reaches 199 near x_max, where |u|
        # grows by far more than 1.8e58 within one block of _CHUNK steps
        # between two rescaling checks; no level is returned
        cfg = numerov.ShootingConfig(58.0, 1000)
        v = numerov._grid_potential(HARM, C, cfg)
        match = "overflowed within 64 steps, between two rescaling checks"
        with pytest.raises(OverflowError, match=match):
            numerov._shoot(HARM, C, cfg, 0.5, numerov.EVEN, v)
        with pytest.raises(OverflowError, match=match):
            numerov.shoot_scan(HARM, C, cfg, [0.5, 1.0])

    def test_shared_grid_potential(self):
        # lowest_levels hands every shoot V on the grid; the bits are the same
        cfg = numerov.default_config(HARM, C, 1.8)
        v = numerov._grid_potential(HARM, C, cfg)
        energies = [0.7, 1.2]
        shared = numerov.shoot_scan(HARM, C, cfg, energies, potential=v)
        own = numerov.shoot_scan(HARM, C, cfg, energies)
        assert all(a.tolist() == b.tolist() for a, b in zip(shared, own))
        with pytest.raises(ValueError, match="V at the 5001 grid points, got shape"):
            numerov.shoot_scan(HARM, C, cfg, [1.2], potential=v[:-1])


def refine(pot, cfg, bracket, parity):
    """`_bisect` on bracket, given psi(x_max) at both ends from `_shoot`."""
    v = numerov._grid_potential(pot, C, cfg)
    ends = [numerov._shoot(pot, C, cfg, end, parity, v)[0] for end in bracket]
    return numerov._bisect(pot, C, cfg, parity, *bracket, *ends, v)


class TestEigenvalue:
    def test_harmonic_ground(self):
        assert numerov.lowest_levels(HARM, C, 1).tolist() == \
            [pytest.approx(0.5, abs=1e-8)]

    def test_harmonic_first_excited(self):
        assert numerov.lowest_levels(HARM, C, 2)[1] == pytest.approx(1.5, abs=1e-8)

    def test_quartic_ground(self):
        assert numerov.lowest_levels(QUART, C, 1).tolist() == \
            [pytest.approx(QUARTIC_E0, abs=1e-6)]

    def test_no_sign_change_reported(self):
        cfg = numerov.default_config(HARM, C, 1.2)
        with pytest.raises(BracketingError):
            refine(HARM, cfg, (0.6, 1.2), numerov.EVEN)


class TestConvergenceOrder:
    def test_step_halving_is_fourth_order(self):
        # state 15 carries enough truncation error at coarse steps that the
        # h^4 signature is plain; its sign change is refined to adjacent
        # floats on grids over the x_max that `lowest_levels(HARM, C, 16)` takes
        x_max = first_scan(HARM, C, 16)[0].x_max
        vals = {steps: sign_change(HARM, numerov.ShootingConfig(x_max, steps), (15.4, 15.6),
                                   numerov.ODD)
                for steps in (1000, 2000, 4000)}
        ratio = (vals[1000] - vals[2000]) / (vals[2000] - vals[4000])
        assert 13.0 < ratio < 19.0
        # Richardson's step: the h^4 error of the 2,000-step level is 1/15 of the change
        rich = vals[2000] + (vals[2000] - vals[1000]) / 15.0
        assert rich == pytest.approx(15.5, abs=1e-9)


def scan_configs(monkeypatch):
    """The configs `lowest_levels` scans on, in order, as `default_config` hands them out."""
    configs = []
    default_config = numerov.default_config

    def spy(*args, **kwargs):
        configs.append(default_config(*args, **kwargs))
        return configs[-1]

    monkeypatch.setattr(numerov, "default_config", spy)
    return configs


class TestSpectrumBelow:
    """The spectrum below the cap that `lowest_levels` derives."""

    def test_harmonic_below_five(self):
        out = numerov.lowest_levels(HARM, C, 5)
        np.testing.assert_allclose(out, [0.5, 1.5, 2.5, 3.5, 4.5], atol=1e-8)

    def test_heavy_mass_deep_well_is_answered(self, monkeypatch):
        # at mass 1500 psi grows by some e^800 across the central barrier, and
        # the node-count trajectories overflowed before their cut
        heavy = Constants(mass=1500.0)
        configs = scan_configs(monkeypatch)
        levels = numerov.lowest_levels(DEEP_WELL, heavy, 4)
        # the two wells pair an even and an odd level, 1e-13 apart
        np.testing.assert_allclose(levels, [-49.91836702, -49.91836702,
                                            -49.7551678, -49.7551678], rtol=0.0, atol=1e-8)
        derived = configs[-1]
        monkeypatch.setattr(numerov, "DEFAULT_STEPS", 2 * derived.steps)
        finer = numerov.lowest_levels(DEEP_WELL, heavy, 4)
        assert configs[-1] == numerov.ShootingConfig(derived.x_max, 2 * derived.steps)
        assert np.abs(finer - levels).max() <= 1e-10

    def test_trajectory_scaling_keeps_the_counts(self, monkeypatch):
        # psi grows like exp(x^2 / 2) past the turning point, e^648 at x = 36:
        # past 1e250 but finite, so the unscaled shoot is at hand to compare.
        # Checked every 64 steps, rescaling moves psi by a power of two alone
        # and keeps the count of the reference trajectory
        cfg = numerov.ShootingConfig(36.0, 3600)
        v = numerov._grid_potential(HARM, C, cfg)
        for energy, parity in [(2.5, numerov.EVEN), (3.5, numerov.ODD), (4.2, numerov.EVEN)]:
            want = sign_changes(numerov_trajectory(HARM, C, 36.0, 3600, energy, parity))
            scaled, changes = numerov._shoot(HARM, C, cfg, energy, parity, v)
            monkeypatch.setattr(numerov, "_RESCALE_AT", math.inf)
            unscaled, unscaled_changes = numerov._shoot(HARM, C, cfg, energy, parity, v)
            monkeypatch.undo()
            assert abs(unscaled) > 1e250
            shift = math.frexp(scaled)[1] - math.frexp(unscaled)[1]
            assert shift < -800
            assert scaled == math.ldexp(unscaled, shift)
            assert changes == unscaled_changes == want

    @pytest.mark.parametrize("pot, count", [(HARM, 5), (DOUBLE_WELL, 3)],
                             ids=["harmonic", "double-well"])
    def test_node_trajectories_stop_at_their_cut(self, monkeypatch, pot, count):
        configs = scan_configs(monkeypatch)
        built = []
        shoot = numerov._shoot

        def spy(pot, constants, config, energy, parity, potential):
            if sys._getframe(1).f_code.co_name == "_trajectory_nodes":
                built.append((energy, len(potential)))
            return shoot(pot, constants, config, energy, parity, potential)

        monkeypatch.setattr(numerov, "_shoot", spy)
        levels = numerov.lowest_levels(pot, C, count)
        assert sorted(energy for energy, _ in built) == levels.tolist()
        cfg = configs[-1]
        h = cfg.x_max / cfg.steps
        for energy, points in built:
            x_t = pot.turning_point(energy, mass=1.0)
            cut = x_t + 2.0 * airy_length(pot, C, energy)
            assert points <= int(cut / h) + 2 < cfg.steps

    def test_count_outside_its_range_is_refused(self, monkeypatch):
        # named before the cap, the grid potential or the scan is built
        built = []
        for name in ("_cap", "_grid_potential"):
            monkeypatch.setattr(numerov, name, lambda *args, name=name: built.append(name))
        for count in (0, -1, numerov.MAX_INDEX + 1, 2.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="count must be an integer in"):
                numerov.lowest_levels(HARM, C, count)
        assert not built

    def test_bool_count_is_refused(self):
        # True once returned one level
        for count in (True, False, np.True_):
            with pytest.raises(ValueError, match="count must be an integer in"):
                numerov.lowest_levels(HARM, C, count)

    def test_cap_below_ground_state(self, monkeypatch):
        # a cap short of the ground state finds no level; the depth above
        # min V doubles until the scan holds the wanted count
        caps = []
        default_config = numerov.default_config

        def spy(pot, constants, e_hi):
            caps.append(e_hi)
            return default_config(pot, constants, e_hi)

        monkeypatch.setattr(numerov, "default_config", spy)
        monkeypatch.setattr(numerov, "_cap", lambda *args: 0.3)
        levels = numerov.lowest_levels(HARM, C, 3)
        np.testing.assert_allclose(levels, [0.5, 1.5, 2.5], atol=1e-8)
        assert caps == [0.3, 0.6, 1.2, 2.4, 4.8]

    def test_non_finite_cap(self):
        # the derived cap is finite and lies within a quarter level of level
        # `count`, (count + 1/2) hbar omega, in any units; a scale that rounds
        # to min V is named instead of a cap that cannot be scanned
        for constants in (C, Constants(hbar=1e-3), Constants(mass=1e4)):
            for count in (1, 5, 40):
                cap = numerov._cap(HARM, constants, 0.0, count)
                assert math.isfinite(cap)
                assert abs(cap / constants.hbar - (count + 0.5)) <= 0.25
        with pytest.raises(ScanResolutionError, match="rounds to min V"):
            numerov._cap(PotentialSpec.even_polynomial([0.0, -1e150, 1.0]), C, -2.5e299, 3)

    def test_parity_channels_alternate(self):
        merged = numerov.lowest_levels(HARM, C, 4)
        # channel structure: merged levels alternate even/odd, so consecutive
        # gaps stay near one quantum and never collapse to duplicates
        gaps = np.diff(merged)
        assert np.all(gaps > 0.5)
        np.testing.assert_allclose(merged, [0.5, 1.5, 2.5, 3.5], atol=1e-8)

    def test_quartic_matches_basis_solver(self):
        out = numerov.lowest_levels(QUART, C, 2)
        res = minimize_alpha(QUART, C, 40, (0.8, 4.0))
        from hgritz import solve_spectrum
        ritz = solve_spectrum(QUART, C, res.alpha_star, 40).eigenvalues
        assert out.size == 2
        np.testing.assert_allclose(out, ritz[:2], atol=1e-6)

    def test_coarse_scan_grid_reported(self, monkeypatch):
        # Sturm counts doubled, as if every level came with a twin in its
        # cell: the first cell that holds a level is refused before any
        # refinement shoot
        counted_twice(monkeypatch)
        recorder = RecordedShoots(monkeypatch)
        with pytest.raises(ScanResolutionError):
            numerov.lowest_levels(HARM, C, 5)
        assert not recorder.shots

    def test_a_level_at_min_v_is_reported(self, monkeypatch):
        # no level lies at or below min V, where the scan starts; a Sturm count
        # there says the integration has failed, and it is not passed over
        scan = numerov.shoot_scan

        def counted_once_more(*args, **kwargs):
            psi, changes = scan(*args, **kwargs)
            return psi, changes + 1

        monkeypatch.setattr(numerov, "shoot_scan", counted_once_more)
        with pytest.raises(ScanResolutionError,
                           match="even-channel Sturm count is 1 at min V = 0, where no level"):
            numerov.lowest_levels(HARM, C, 3)

    def test_two_levels_in_one_cell_reported(self, monkeypatch):
        # with twice its Sturm count the cell of the ground level holds two
        # levels, although psi(x_max) changes sign once across it
        counted_twice(monkeypatch)
        with pytest.raises(ScanResolutionError, match=r"even-channel scan cell \(.*\) holds 2 "
                                                      r"levels \(Sturm count 0 to 2\)"):
            numerov.lowest_levels(HARM, C, 5)


def counted_twice(monkeypatch):
    """`numerov.shoot_scan` replaced by itself with every Sturm count doubled."""
    scan = numerov.shoot_scan

    def doubled(*args, **kwargs):
        psi, changes = scan(*args, **kwargs)
        return psi, 2 * changes

    monkeypatch.setattr(numerov, "shoot_scan", doubled)


class TestUnitInvariance:
    """The quartic's levels in units where hbar or the mass is not 1."""

    @pytest.mark.parametrize("constants", [Constants(hbar=2.0**-10), Constants(hbar=2.0**10),
                                           Constants(mass=8.0)],
                             ids=["hbar-2^-10", "hbar-2^10", "mass-8"])
    def test_quartic_levels_scale(self, monkeypatch, constants):
        # levels scale as lam^(1/3) (hbar^2 / m)^(2/3), and the cap, the grid
        # and the scan with them; each level is refined to a sign change
        # _LEVEL_WIDTH wide in its own units, so the scaled levels agree
        # within that width at both scales
        scale = (constants.hbar**2 / constants.mass) ** (2.0 / 3.0)
        configs = scan_configs(monkeypatch)
        want = numerov.lowest_levels(QUART, C, 8)
        got = numerov.lowest_levels(QUART, constants, 8)
        assert got.size == want.size == 8
        assert [cfg.steps for cfg in configs] == [numerov.DEFAULT_STEPS] * 2
        assert np.abs(got / scale - want).max() <= numerov._LEVEL_WIDTH * (1.0 + 1.0 / scale)


def bisection_shoots(lo, hi):
    """Shoots plain bisection takes to halve (lo, hi) down to width 1e-10."""
    return max(0, math.ceil(math.log2((hi - lo) / 1e-10)))


def assert_at_a_sign_change(level, shots):
    """psi(x_max) is exactly 0 at level, or has the other sign within 1e-10 of it.

    shots holds (energy, psi(x_max)) at every energy refinement looked at,
    the ends of its bracket included; level must be one of them.
    """
    psi = dict(shots)
    assert level in psi
    if psi[level] == 0.0:
        return
    sign = math.copysign(1.0, psi[level])
    assert any(abs(energy - level) <= 1e-10 and math.copysign(1.0, value) != sign
               for energy, value in shots)


class RecordedShoots:
    """`numerov._shoot` replaced by itself, recording (energy, psi(x_max)) of every shoot to x_max.

    `_shoot` is the scalar integration behind every counted shoot of
    `_located_cells`, every refinement shoot of `_bisect`, and every
    node-count shoot of `_trajectory_nodes`, which stops at its cut and is
    not recorded.  `psi` stands in for the other shoots where given, as
    psi(energy), with no count.
    """

    def __init__(self, monkeypatch, psi=None):
        self.shots = []
        shoot = numerov._shoot

        def recorded(pot, constants, config, energy, parity, potential):
            if sys._getframe(1).f_code.co_name == "_trajectory_nodes":
                return shoot(pot, constants, config, energy, parity, potential)
            value, changes = (shoot(pot, constants, config, energy, parity, potential)
                              if psi is None else (psi(energy), None))
            self.shots.append((energy, value))
            return value, changes

        monkeypatch.setattr(numerov, "_shoot", recorded)


class TestRefinement:
    """`_bisect`: a sign change of psi(x_max) at most 1e-10 wide, in at most one
    shoot more than plain bisection takes to that width."""

    @pytest.mark.parametrize("steps", [2000, 5000, 20000])
    @pytest.mark.parametrize("pot, count", [(HARM, 4), (QUART, 3), (SEXTIC, 3),
                                            (DOUBLE_WELL, 3)],
                             ids=["harmonic", "quartic", "sextic", "double-well"])
    def test_levels_are_bisections_bits(self, monkeypatch, pot, count, steps):
        # every level lies at a sign change as narrow as bisection to 1e-10
        # would leave it, on grids of at least `steps` intervals
        monkeypatch.setattr(numerov, "DEFAULT_STEPS", steps)
        recorder = RecordedShoots(monkeypatch)
        calls = []
        refine = numerov._bisect

        def recorded(*args):
            start = len(recorder.shots)
            got = refine(*args)
            calls.append((args, got, recorder.shots[start:]))
            return got

        monkeypatch.setattr(numerov, "_bisect", recorded)
        levels = numerov.lowest_levels(pot, C, count)
        monkeypatch.undo()
        assert {args[3] for args, _, _ in calls} == {numerov.EVEN, numerov.ODD}
        assert levels.tolist() == sorted(got for _, got, _ in calls)
        for args, got, shots in calls:
            _, _, _, parity, lo, hi, flo, fhi, _ = args
            assert_at_a_sign_change(got, [(lo, flo), (hi, fhi), *shots])
            assert len(shots) <= bisection_shoots(lo, hi)

    def test_rounding_noise_at_the_level(self, monkeypatch):
        # an odd bracket from a benchmark verify-mhu request: at 20,000 steps
        # the three-term recurrence of psi changed sign three times within
        # 4e-12 of the level and put it 1.4e-10 above LAPACK; the summed
        # recurrence puts it within 1e-11 of LAPACK
        cfg = numerov.ShootingConfig(ODD_LEVEL_X_MAX, 20000)
        recorder = RecordedShoots(monkeypatch)
        got = refine(ODD_LEVEL_POT, cfg, ODD_LEVEL_BRACKET, numerov.ODD)
        assert_at_a_sign_change(got, recorder.shots)
        # two shoots at the ends, then the refinement
        assert len(recorder.shots) - 2 <= bisection_shoots(*ODD_LEVEL_BRACKET)
        assert abs(got - lapack_level(ODD_LEVEL_POT, ODD_LEVEL)) <= 1e-11

    @pytest.mark.parametrize("bracket", [(0.5, 0.7), (0.3, 0.5), (0.25, 0.75), (0.1, 0.9)],
                             ids=["zero-at-lo", "zero-at-hi", "zero-at-first-midpoint",
                                  "zero-at-second-midpoint"])
    def test_exact_zero(self, monkeypatch, bracket):
        recorder = RecordedShoots(monkeypatch, psi=lambda energy: energy - 0.5)
        cfg = numerov.ShootingConfig(5.0, 2000)
        assert refine(HARM, cfg, bracket, numerov.EVEN) == 0.5
        assert len(recorder.shots) - 2 <= bisection_shoots(*bracket)

    @pytest.mark.parametrize("psi", [
        lambda x: 1.0 if x < 0.0 else -1.0,
        lambda x: math.expm1(-60.0 * x),
        lambda x: -x ** 3,
        lambda x: -x * (1e250 if x < -1e-3 else 1.0),
    ], ids=["step", "exponential", "triple-root", "rescaled-jump"])
    def test_worst_case_shoots(self, monkeypatch, psi):
        # psi(E - root) with one sign change: a sign change at most 1e-10 wide,
        # in at most one shoot more than plain bisection (the ITP slack n0 = 1),
        # wherever the root falls
        cfg = numerov.ShootingConfig(5.0, 2000)
        rng = np.random.default_rng(11)
        recorder = RecordedShoots(monkeypatch, psi=lambda energy: psi(energy - root))
        for lo, hi in [(0.0, 1.0), (0.3, 0.45), (10.0, 12.5), (-30.0, -26.0)]:
            for root in lo + (hi - lo) * rng.random(40):
                recorder.shots.clear()
                ends = [(lo, psi(lo - root)), (hi, psi(hi - root))]
                got = numerov._bisect(HARM, C, cfg, numerov.EVEN, lo, hi,
                                      ends[0][1], ends[1][1], None)
                assert_at_a_sign_change(got, ends + recorder.shots)
                assert abs(got - root) <= 1e-10
                assert len(recorder.shots) <= bisection_shoots(lo, hi) + 1

    def test_fewer_shoots_than_before(self, monkeypatch):
        # the three-term recurrence with no ITP slack took 56, 52 and 141
        # refinement shoots on these spectra (7, 8 and 19 levels at 5,000
        # steps), from the cells of max(64, 8 (e_cap - min V)) scan energies
        # over [min V, e_cap]; the same cells are refined here
        before = {"quartic": 56, "sextic": 52, "deep-well": 141}
        recorder = RecordedShoots(monkeypatch)
        taken = {}
        for name, pot, e_cap in [("quartic", QUART, 20.0), ("sextic", SEXTIC, 20.0),
                                 ("deep-well", DEEP_WELL, 0.0)]:
            recorder.shots.clear()
            cfg = numerov.default_config(pot, C, e_cap)
            v = numerov._grid_potential(pot, C, cfg)
            v_min = pot.minimum(mass=1.0)
            energies = np.linspace(v_min, e_cap, int(max(64.0, 8.0 * (e_cap - v_min))))
            psi, changes = numerov.shoot_scan(pot, C, cfg, energies, potential=v)
            grid = energies.tolist()
            for parity, values, counts in zip((numerov.EVEN, numerov.ODD), psi.tolist(),
                                              changes.tolist()):
                for k in range(len(grid) - 1):
                    if counts[k + 1] != counts[k]:
                        numerov._bisect(pot, C, cfg, parity, grid[k], grid[k + 1],
                                        values[k], values[k + 1], v)
            taken[name] = len(recorder.shots)
        assert all(taken[name] < before[name] for name in before)
        assert sum(taken.values()) <= 0.7 * sum(before.values())

    def test_width_follows_the_float_spacing_at_large_energies(self, monkeypatch):
        # at |E| = 1e6 floats lie 1.16e-10 apart, so no bracket is 1e-10 wide;
        # the refinement stops at 8 ulp instead of looping.  psi is never 0
        recorder = RecordedShoots(monkeypatch,
                                  psi=lambda energy: 1.0 if energy < 1e6 + 0.3 else -1.0)
        # (x_max = 5 lies inside the allowed region at 1e6; _bisect checks
        # no domain)
        cfg = numerov.ShootingConfig(5.0, 2000)
        got = numerov._bisect(HARM, C, cfg, numerov.EVEN, 1e6, 1e6 + 1.0, 1.0, -1.0, None)
        assert abs(got - (1e6 + 0.3)) <= 8.0 * math.ulp(1e6)
        assert len(recorder.shots) <= bisection_shoots(0.0, 1.0)


class TestDerivedStepsAccuracy:
    """Levels at the derived step count against LAPACK on a large basis."""

    @pytest.mark.parametrize("pot, levels, dim", [
        (QUART, 40, 600),
        (STEEP_SEXTIC, 30, 300),
    ], ids=["quartic-40", "sextic-30"])
    def test_levels_within_1e10(self, pot, levels, dim):
        matrix = hamiltonian_matrix(BasisSpec(3.0), pot, dim).to_dense()
        want = np.linalg.eigvalsh(matrix)[:levels]
        got = numerov.lowest_levels(pot, C, levels)
        assert got.size == levels
        assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))


def sign_change(pot, cfg, bracket, parity):
    """The lower end of a sign change of psi(x_max) in bracket, refined by bisection to adjacent floats."""
    v = numerov._grid_potential(pot, C, cfg)
    lo, hi = bracket
    sign = math.copysign(1.0, numerov._shoot(pot, C, cfg, lo, parity, v)[0])
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if math.copysign(1.0, numerov._shoot(pot, C, cfg, mid, parity, v)[0]) == sign:
            lo = mid
        else:
            hi = mid
    return lo


class TestRoundingFloor:
    """Refined to the float spacing, a level holds still as the step count
    doubles past 10,000: the summed recurrence has no rounding floor.  The
    three-term recurrence of psi moved these levels by 5.5e-10 and 6.9e-10
    between 10,000 and 40,000 steps."""

    @pytest.mark.parametrize("pot, level, x_max, bracket, parity", [
        (PotentialSpec.quartic(1.06739), 0, 4.962148248076327, (0.6, 0.8), numerov.EVEN),
        (ODD_LEVEL_POT, ODD_LEVEL, ODD_LEVEL_X_MAX, ODD_LEVEL_BRACKET, numerov.ODD),
    ], ids=["quartic-ground", "odd-level-15.5"])
    def test_level_holds_as_the_steps_double(self, pot, level, x_max, bracket, parity):
        got = [sign_change(pot, numerov.ShootingConfig(x_max, steps), bracket, parity)
               for steps in (10000, 20000, 40000)]
        assert max(got) - min(got) <= 1e-12
        want = lapack_level(pot, level)
        assert all(abs(energy - want) <= 1e-11 for energy in got)


class TestShootScan:
    # 2021 steps: 2020 recurrence steps.  37 energies take 31 full 64-step
    # blocks and a part one, 129 energies 63 full 32-step blocks and a part one
    @pytest.mark.parametrize("pot, e_hi", [(HARM, 5.0), (QUART, 6.0), (DEEP_WELL, -20.0)])
    def test_equals_scalar_shoots(self, pot, e_hi):
        cfg = numerov.ShootingConfig(numerov.default_config(pot, C, e_hi).x_max, 2021)
        v_min = pot.minimum(mass=1.0)
        v = numerov._grid_potential(pot, C, cfg)
        for count in (37, 129):
            energies = np.linspace(v_min + 1e-3, e_hi, count)
            got, changes = numerov.shoot_scan(pot, C, cfg, energies)
            assert got.shape == changes.shape == (2, energies.size)
            for row, counts, parity in zip(got, changes, (numerov.EVEN, numerov.ODD)):
                want = [numerov._shoot(pot, C, cfg, e, parity, v)[0] for e in energies.tolist()]
                assert row.tolist() == want
                assert counts.tolist() == [
                    sign_changes(numerov_trajectory(pot, C, cfg.x_max, cfg.steps, e, parity))
                    for e in energies.tolist()]

    def test_rescale_path_equals_scalar_shoots(self, monkeypatch):
        # psi grows like exp(x^2 / 2) past the turning point: e^800 at x = 40,
        # so both integrations rescale, at the same steps
        cfg = numerov.ShootingConfig(40.0, 2021)
        v = numerov._grid_potential(HARM, C, cfg)
        for count in (11, 129):
            energies = np.linspace(0.3, 5.0, count).tolist()
            got, changes = numerov.shoot_scan(HARM, C, cfg, energies)
            with monkeypatch.context() as unscaled:
                unscaled.setattr(numerov, "_RESCALE_AT", math.inf)
                with pytest.raises(OverflowError):
                    numerov.shoot_scan(HARM, C, cfg, energies)
            for row, parity in zip(got, (numerov.EVEN, numerov.ODD)):
                assert row.tolist() == [numerov._shoot(HARM, C, cfg, e, parity, v)[0]
                                        for e in energies]
            # the Sturm count survives rescaling: levels n + 1/2 below each
            # energy, even n in row 0 and odd n in row 1
            for row, first in zip(changes, (0, 1)):
                assert row.tolist() == [sum(n + 0.5 < e for n in range(first, 6, 2))
                                        for e in energies]

    def test_domain_checked_once_at_the_largest_energy(self, monkeypatch):
        checked = []
        check = numerov._check_domain

        def spy(pot, constants, config, energy):
            checked.append(energy)
            check(pot, constants, config, energy)

        monkeypatch.setattr(numerov, "_check_domain", spy)
        cfg = numerov.ShootingConfig(numerov.default_config(HARM, C, 5.0).x_max, 2021)
        energies = np.random.default_rng(3).permutation(np.linspace(1e-3, 5.0, 37))
        numerov.shoot_scan(HARM, C, cfg, energies)
        assert checked == [5.0]

    def test_domain_checked_at_every_energy(self):
        # 0.5 is fine on [0, 5]; the turning point at 13 lies past x_max
        cfg = numerov.ShootingConfig(5.0, 2000)
        numerov.shoot_scan(HARM, C, cfg, [0.5])
        with pytest.raises(ValueError, match="classically allowed"):
            numerov.shoot_scan(HARM, C, cfg, [0.5, 13.0])

    @pytest.mark.parametrize("energies", [[], [0.5, math.nan], [math.inf], 0.5, [[0.5, 1.0]]],
                             ids=["empty", "nan", "inf", "scalar", "two-dimensional"])
    def test_energies_must_be_finite_and_given(self, monkeypatch, energies):
        # named before the domain check or any grid work
        called = []
        for name in ("_check_domain", "_grid_potential"):
            monkeypatch.setattr(numerov, name, lambda *args, name=name: called.append(name))
        cfg = numerov.ShootingConfig(5.0, 2000)
        with pytest.raises(ValueError, match="energies must be finite and at least one"):
            numerov.shoot_scan(HARM, C, cfg, energies)
        assert not called

    def test_numerov_factor_must_stay_positive(self):
        # h = 0.1 over [0, 100]: (h^2 / 12) 2 V(100) = 8.3, so P < 0 out there
        cfg = numerov.ShootingConfig(100.0, 1000)
        with pytest.raises(ValueError, match="Numerov factor"):
            numerov.shoot_scan(HARM, C, cfg, [0.5])


#: (potential, constants, level count) of the spectra the located route is
#: checked on; at mass 1500 psi grows by some e^800 across the deep well's
#: barrier, so its shoots rescale (unscaled, they overflow).
LOCATED = [(HARM, C, 5), (QUART, C, 8), (SEXTIC, C, 6), (DOUBLE_WELL, C, 6),
           (DEEP_WELL, C, 8), (DEEP_WELL, Constants(mass=1500.0), 4)]
LOCATED_IDS = ["harmonic", "quartic", "sextic", "double-well", "deep-well", "deep-well-mass-1500"]


def first_scan(pot, constants, count):
    """The grid, its V and the scan energies of `lowest_levels`' first scan."""
    v_min = pot.minimum(mass=constants.mass)
    e_cap = numerov._cap(pot, constants, v_min, count)
    cfg = numerov.default_config(pot, constants, e_cap)
    energies = np.linspace(v_min, e_cap, max(numerov._MIN_SCAN, numerov._SCAN_PER_LEVEL * count))
    return cfg, numerov._grid_potential(pot, constants, cfg), energies


def outcome(call):
    """The levels call() returns, as hex, or the text of what it raises."""
    try:
        return [level.hex() for level in call().tolist()]
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"


def fine_route(monkeypatch, pot, constants, count):
    """`outcome` of `lowest_levels` with every scan on the grid itself, no cell located."""
    with monkeypatch.context() as fine:
        fine.setattr(numerov, "_located_cells", lambda *args: None)
        return outcome(lambda: numerov.lowest_levels(pot, constants, count))


def scanned_steps(monkeypatch, fault=None, everywhere=False):
    """The step count of every `shoot_scan` run, in order.

    `fault` replaces what the scans of `_located_cells`, or with
    `everywhere` all scans, return: fault(psi, changes).
    """
    steps = []
    scan = numerov.shoot_scan

    def spy(pot, constants, config, energies, **kwargs):
        steps.append(config.steps)
        got = scan(pot, constants, config, energies, **kwargs)
        if fault is not None and (everywhere
                                  or sys._getframe(1).f_code.co_name == "_located_cells"):
            return fault(*got)
        return got

    monkeypatch.setattr(numerov, "shoot_scan", spy)
    return steps


def raise_overflow(psi, changes):
    raise OverflowError(numerov._OVERFLOW)


def raise_factor(psi, changes):
    raise ValueError("the Numerov factor reaches -1 on the coarse grid")


#: How a test corrupts a scan's (psi, changes), by the fallback it triggers.
SCAN_FAULTS = {
    "grid-overflows": raise_overflow,
    "grid-factor": raise_factor,
    "total-short": lambda psi, changes: (psi, 0 * changes),
    "two-levels-in-a-cell": lambda psi, changes: (psi, 2 * changes),
    "count-falls": lambda psi, changes: (psi, changes - (np.arange(changes.shape[1]) == 20)),
    "count-at-min-v": lambda psi, changes: (psi, changes + 1),
    "counts-one-energy-late": lambda psi, changes: (psi, np.concatenate(
        [changes[:, :1], changes[:, :-1]], axis=1)),
}


class TestLocatedCells:
    """Levels located on a coarse grid and certified by counted shoots on the
    fine one, or the fine scan wherever that certificate fails."""

    @pytest.mark.parametrize("pot, constants, count", LOCATED, ids=LOCATED_IDS)
    def test_counted_shoots_equal_the_scan(self, pot, constants, count):
        # at every scan energy, on the derived grid and on the coarsest grid
        # whose h k_max the count at the checks allows
        cfg, _, energies = first_scan(pot, constants, count)
        k_max = numerov._wave_number(constants, float(energies[-1] - energies[0]))
        coarsest = math.ceil(cfg.x_max * k_max / numerov._COUNT_PHASE)
        for steps in (cfg.steps, max(numerov.MIN_STEPS, coarsest)):
            grid = numerov.ShootingConfig(cfg.x_max, steps)
            v = numerov._grid_potential(pot, constants, grid)
            psi, changes = numerov.shoot_scan(pot, constants, grid, energies, potential=v)
            assert changes.max() >= 2
            for parity, row, counts in zip((numerov.EVEN, numerov.ODD), psi.tolist(),
                                           changes.tolist()):
                for energy, value, want in zip(energies.tolist(), row, counts):
                    assert numerov._shoot(pot, constants, grid, energy, parity, v) == (value, want)

    def test_counted_shoot_counts_its_trajectory(self):
        # psi oscillates up to x_max = 5 at these energies; at h k_max just
        # under _COUNT_PHASE its sign changes lie some 128 steps apart, and
        # the count at the checks is every one of them, also where the last
        # falls in the part block after the last check (steps 961 .. 999)
        cfg = numerov.ShootingConfig(5.0, 1000)
        v = numerov._grid_potential(HARM, C, cfg)
        energies = np.linspace(0.3, 12.0, 200)
        assert 0.024 < cfg.x_max / cfg.steps * math.sqrt(2.0 * 12.0) <= numerov._COUNT_PHASE
        in_the_last_block = 0
        for energy in energies.tolist():
            for parity in (numerov.EVEN, numerov.ODD):
                signs = np.sign(numerov_trajectory(HARM, C, 5.0, 1000, energy, parity))
                changes = np.flatnonzero(signs[1:] * signs[:-1] < 0)
                assert np.count_nonzero(signs[1:]) == 1000
                assert numerov._shoot(HARM, C, cfg, energy, parity, v)[1] == changes.size
                in_the_last_block += bool(changes.size) and changes[-1] >= 961
        assert in_the_last_block >= 3

    @pytest.mark.parametrize("pot, constants, count", LOCATED, ids=LOCATED_IDS)
    def test_located_cells_are_the_scans(self, monkeypatch, pot, constants, count):
        # the coarse scan alone picks the cells; the levels keep their bits
        cfg, v, energies = first_scan(pot, constants, count)
        psi, changes = numerov.shoot_scan(pot, constants, cfg, energies, potential=v)
        total = changes.sum(axis=0)
        want = numerov._cells(energies.tolist(), psi.tolist(), changes.tolist(),
                              int(np.argmax(total >= count)))
        assert numerov._located_cells(pot, constants, cfg, energies, count, v) == want
        steps = scanned_steps(monkeypatch)
        got = outcome(lambda: numerov.lowest_levels(pot, constants, count))
        assert steps == [cfg.steps // numerov._COARSEN]
        monkeypatch.undo()
        assert len(got) == count
        assert got == fine_route(monkeypatch, pot, constants, count)

    # a total short in every scan would double the depth up to MAX_STEPS
    @pytest.mark.parametrize("fault, everywhere", [
        *((fault, False) for fault in SCAN_FAULTS),
        *((fault, True) for fault in SCAN_FAULTS if fault != "total-short")],
        ids=[*(f"{fault}-coarse" for fault in SCAN_FAULTS),
             *(f"{fault}-both" for fault in SCAN_FAULTS if fault != "total-short")])
    def test_a_failed_certificate_runs_the_scan(self, monkeypatch, fault, everywhere):
        # a fault in the coarse scan alone leaves the fine route's levels; in
        # both scans, the fine route's levels or its error, with its text
        steps = scanned_steps(monkeypatch, SCAN_FAULTS[fault], everywhere)
        got = outcome(lambda: numerov.lowest_levels(QUART, C, 6))
        assert steps == [1000, numerov.DEFAULT_STEPS]
        assert got == fine_route(monkeypatch, QUART, C, 6)
        if not everywhere:
            assert len(got) == 6

    def test_a_counted_shoot_that_raises_runs_the_scan(self, monkeypatch):
        shoot = numerov._shoot

        def overflowing(*args):
            if sys._getframe(1).f_code.co_name == "_located_cells":
                raise OverflowError(numerov._OVERFLOW)
            return shoot(*args)

        monkeypatch.setattr(numerov, "_shoot", overflowing)
        steps = scanned_steps(monkeypatch)
        got = outcome(lambda: numerov.lowest_levels(QUART, C, 6))
        assert steps == [1000, numerov.DEFAULT_STEPS]
        monkeypatch.undo()
        assert got == fine_route(monkeypatch, QUART, C, 6)


#: The tunnelling double well of a CI verify-mhu request: its even and odd
#: levels pair into doublets that no float splits.
TUNNELLING = (PotentialSpec.even_polynomial([0.0, -41.8479, 0.530985]),
              Constants(mass=265.871), 6)


class TestNodeCounts:
    """`_trajectory_nodes`: the Sturm count of each refined state's trajectory up to its cut."""

    @pytest.mark.parametrize("pot, constants, count", [*LOCATED, TUNNELLING],
                             ids=[*LOCATED_IDS, "tunnelling-well"])
    def test_counts_equal_the_reference_trajectory(self, monkeypatch, pot, constants, count):
        # every refined state, on the derived grids, where h k(E) stays
        # under MAX_STEP_PHASE and the checks 64 steps apart see every node
        counted = []
        nodes = numerov._trajectory_nodes

        def spy(pot, constants, config, energy, parity, potential, v_min):
            got = nodes(pot, constants, config, energy, parity, potential, v_min)
            counted.append((config, energy, parity, got))
            return got

        monkeypatch.setattr(numerov, "_trajectory_nodes", spy)
        levels = numerov.lowest_levels(pot, constants, count)
        assert sorted(energy for _, energy, _, _ in counted)[:count] == levels.tolist()
        v_min = pot.minimum(mass=constants.mass)
        phases = []
        for config, energy, parity, got in counted:
            h = config.x_max / config.steps
            cut = (pot.turning_point(energy, mass=constants.mass)
                   + 2.0 * airy_length(pot, constants, energy))
            points = int(min(cut, config.x_max) / h) + 1
            reference = numerov_trajectory(pot, constants, config.x_max, config.steps, energy,
                                           parity, points)
            assert got == sign_changes(reference)
            phases.append(h * numerov._wave_number(constants, energy - v_min))
        # state n of a channel carries n nodes on the half line
        for parity in (numerov.EVEN, numerov.ODD):
            channel = sorted((energy, got) for _, energy, p, got in counted if p == parity)
            assert [got for _, got in channel] == list(range(len(channel)))
        assert max(phases) <= numerov.MAX_STEP_PHASE

    def test_a_state_with_a_wrong_node_count_is_refused(self, monkeypatch):
        # a node count one past the state's Sturm count says the refinement
        # left its cell; the level is refused, not returned
        nodes = numerov._trajectory_nodes
        monkeypatch.setattr(numerov, "_trajectory_nodes", lambda *args: nodes(*args) + 1)
        with pytest.raises(ScanResolutionError,
                           match=r"even channel state 0 at E = 0\.5 carries 1 nodes"):
            numerov.lowest_levels(HARM, C, 2)

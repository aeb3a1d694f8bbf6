import math

import numpy as np
import pytest

from helpers import numerov_bisection
from hgritz import BracketingError, Constants, PotentialSpec, ScanResolutionError
from hgritz import numerov
from hgritz.variational import minimize_alpha

C = Constants()
HARM = PotentialSpec.harmonic(1.0)
QUART = PotentialSpec.quartic(1.0)
SEXTIC = PotentialSpec.even_polynomial([0.0, 0.5, 0.0, 0.1])
DOUBLE_WELL = PotentialSpec.even_polynomial([0.0, -2.0, 0.5])

#: Quartic ground state in natural units, certified by Richardson step-halving
#: of this module's own integrator and independently by the dim-40 basis solve.
QUARTIC_E0 = 0.667986


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            numerov.ShootingConfig(5.0, 999)
        with pytest.raises(ValueError):
            numerov.ShootingConfig(5.0, numerov.MAX_STEPS + 1)
        with pytest.raises(ValueError):
            numerov.ShootingConfig(-1.0, 2000)

    def test_default_config_domain(self):
        cfg = numerov.default_config(HARM, C, 0.6, steps=2000)
        x_t = HARM.turning_point(0.6, mass=1.0)
        assert cfg.x_max > x_t + 5.0 * numerov.decay_length(HARM, C, 0.6)

    def test_default_config_needs_e_hi_above_the_scan_start(self):
        # the scan starts 1e-6 (1 + |min V|) above min V = 0
        with pytest.raises(ValueError, match="scan start"):
            numerov.default_config(HARM, C, 1e-6, steps=2000)
        with pytest.raises(ValueError, match="scan start"):
            numerov.default_config(HARM, C, math.nan, steps=2000)

    def test_shallow_domain_rejected(self):
        bad = numerov.ShootingConfig(1.0, 2000)
        with pytest.raises(ValueError):
            numerov.shoot(HARM, C, bad, 0.5, numerov.EVEN)


class TestShoot:
    def test_true_eigenvalue_gives_small_boundary_value(self):
        cfg = numerov.default_config(HARM, C, 0.6, steps=6000)
        at_eigen = abs(numerov.shoot(HARM, C, cfg, 0.5, numerov.EVEN))
        off_lo = abs(numerov.shoot(HARM, C, cfg, 0.4, numerov.EVEN))
        off_hi = abs(numerov.shoot(HARM, C, cfg, 0.6, numerov.EVEN))
        assert at_eigen < 1e-6 * min(off_lo, off_hi)

    def test_bracketing_signs(self):
        cfg = numerov.default_config(HARM, C, 0.6, steps=6000)
        lo = numerov.shoot(HARM, C, cfg, 0.4, numerov.EVEN)
        hi = numerov.shoot(HARM, C, cfg, 0.6, numerov.EVEN)
        assert math.copysign(1.0, lo) != math.copysign(1.0, hi)

    def test_odd_channel_starts_at_zero(self):
        cfg = numerov.default_config(HARM, C, 1.8, steps=2000)
        _, traj = numerov.shoot(HARM, C, cfg, 1.5, numerov.ODD, return_trajectory=True)
        assert traj[0] == 0.0
        assert traj.size == cfg.steps + 1

    def test_unknown_parity_rejected(self):
        cfg = numerov.default_config(HARM, C, 0.6, steps=2000)
        with pytest.raises(ValueError, match="parity"):
            numerov.shoot(HARM, C, cfg, 0.5, "both")


class TestEigenvalue:
    def test_harmonic_ground(self):
        cfg = numerov.default_config(HARM, C, 0.6, steps=6000)
        assert numerov.eigenvalue(HARM, C, cfg, (0.4, 0.6), numerov.EVEN) == \
            pytest.approx(0.5, abs=1e-8)

    def test_harmonic_first_excited(self):
        cfg = numerov.default_config(HARM, C, 1.8, steps=6000)
        assert numerov.eigenvalue(HARM, C, cfg, (1.2, 1.8), numerov.ODD) == \
            pytest.approx(1.5, abs=1e-8)

    def test_quartic_ground(self):
        cfg = numerov.default_config(QUART, C, 0.8, steps=6000)
        assert numerov.eigenvalue(QUART, C, cfg, (0.5, 0.8), numerov.EVEN) == \
            pytest.approx(QUARTIC_E0, abs=1e-6)

    def test_no_sign_change_reported(self):
        cfg = numerov.default_config(HARM, C, 1.2, steps=2000)
        with pytest.raises(BracketingError):
            numerov.eigenvalue(HARM, C, cfg, (0.6, 1.2), numerov.EVEN)

    @pytest.mark.parametrize("bracket, parity", [
        ((0.4, 0.6), "both"),
        ((0.6, 0.4), numerov.EVEN),
        ((0.5, 0.5), numerov.EVEN),
        ((0.4, math.inf), numerov.EVEN),
        ((math.nan, 0.6), numerov.EVEN),
    ], ids=["unknown-parity", "lo-above-hi", "lo-equals-hi", "infinite-end", "nan-end"])
    def test_bracket_and_parity_validation(self, bracket, parity):
        cfg = numerov.default_config(HARM, C, 0.6, steps=2000)
        with pytest.raises(ValueError):
            numerov.eigenvalue(HARM, C, cfg, bracket, parity)


class TestConvergenceOrder:
    def test_step_halving_is_fourth_order(self):
        # state 15 carries enough truncation error at coarse steps that the
        # h^4 signature is visible above the bisection quantization
        base = numerov.default_config(HARM, C, 16.0, steps=1000)
        vals = {}
        for steps in (1000, 2000, 4000):
            cfg = numerov.ShootingConfig(base.x_max, steps)
            vals[steps] = numerov.eigenvalue(HARM, C, cfg, (15.2, 15.8), numerov.ODD)
        ratio = (vals[1000] - vals[2000]) / (vals[2000] - vals[4000])
        assert 13.0 < ratio < 19.0
        rich = numerov.richardson4(vals[1000], vals[2000])
        assert rich == pytest.approx(15.5, abs=1e-9)


class TestSpectrumBelow:
    def test_harmonic_below_five(self):
        cfg = numerov.default_config(HARM, C, 5.0, steps=6000)
        out = numerov.spectrum_below(HARM, C, cfg, 5.0)
        np.testing.assert_allclose(out, [0.5, 1.5, 2.5, 3.5, 4.5], atol=1e-8)

    def test_cap_below_ground_state(self):
        cfg = numerov.default_config(HARM, C, 5.0, steps=2000)
        assert numerov.spectrum_below(HARM, C, cfg, 0.3).size == 0

    def test_parity_channels_alternate(self):
        cfg = numerov.default_config(HARM, C, 4.0, steps=4000)
        merged = numerov.spectrum_below(HARM, C, cfg, 4.0)
        even = numerov.spectrum_below(HARM, C, cfg, 4.0, scan_points=64)
        # channel structure: merged levels alternate even/odd, so consecutive
        # gaps stay near one quantum and never collapse to duplicates
        gaps = np.diff(merged)
        assert np.all(gaps > 0.5)
        np.testing.assert_allclose(merged, even, atol=1e-10)

    def test_quartic_matches_basis_solver(self):
        cfg = numerov.default_config(QUART, C, 3.0, steps=6000)
        out = numerov.spectrum_below(QUART, C, cfg, 3.0)
        res = minimize_alpha(QUART, C, 40, (0.8, 4.0))
        from hgritz import solve_spectrum
        ritz = solve_spectrum(QUART, C, res.alpha_star, 40).eigenvalues
        assert out.size == 2
        np.testing.assert_allclose(out, ritz[:2], atol=1e-6)

    def test_coarse_scan_grid_reported(self):
        cfg = numerov.default_config(HARM, C, 5.0, steps=2000)
        with pytest.raises(ScanResolutionError):
            numerov.spectrum_below(HARM, C, cfg, 5.0, scan_points=2)

    def test_two_levels_in_one_cell_reported(self):
        # 0.5 and 2.5 share the one even cell, so psi(x_max) has the same sign
        # at both its ends; the Sturm count still sees the two levels
        cfg = numerov.default_config(HARM, C, 5.0, steps=2000)
        with pytest.raises(ScanResolutionError, match="holds 2 levels"):
            numerov.spectrum_below(HARM, C, cfg, 3.0, scan_points=2)


#: Most shoots `_bisect` takes beyond plain bisection on one bracket with
#: 1 + |E| <= 33: ceil(log2(1e-10 / 1e-12)) = 7 for narrowing to the finer
#: width, _NARROW_SLACK = 2, and 2 midpoints replayed inside the narrowed
#: bracket and its margins, 3e-12 (1 + |E|) <= 1e-10 wide.
EXTRA_SHOOTS = 11


class TestRefinement:
    """`_bisect` against plain bisection (`helpers.numerov_bisection`)."""

    @pytest.mark.parametrize("steps", [2000, 20000])
    @pytest.mark.parametrize("pot, e_cap", [(HARM, 4.0), (QUART, 5.0), (SEXTIC, 4.0),
                                            (DOUBLE_WELL, 1.0)],
                             ids=["harmonic", "quartic", "sextic", "double-well"])
    def test_levels_are_bisections_bits(self, monkeypatch, pot, e_cap, steps):
        cfg = numerov.default_config(pot, C, e_cap, steps=steps)
        calls = []
        refine = numerov._bisect

        def recorded(*args):
            calls.append((args, refine(*args)))
            return calls[-1][1]

        monkeypatch.setattr(numerov, "_bisect", recorded)
        levels = numerov.spectrum_below(pot, C, cfg, e_cap)
        monkeypatch.undo()
        assert {args[3] for args, _ in calls} == {numerov.EVEN, numerov.ODD}
        assert levels.tolist() == sorted(got for _, got in calls)
        for args, got in calls:
            assert got == numerov_bisection(*args)
            _, _, _, parity, lo, hi, _, _ = args
            assert numerov.eigenvalue(pot, C, cfg, (lo, hi), parity) == got

    def test_rounding_noise_at_the_level(self):
        # an odd bracket from a benchmark verify-mhu request: at 20,000 steps
        # psi(x_max) changes sign three times within 4e-12 of the level, and
        # a bisection midpoint falls between them just outside the narrowed
        # bracket; the replay's margin shoots it
        pot = PotentialSpec.even_polynomial([0.0, 1.93962, 0.761412])
        cfg = numerov.ShootingConfig(4.012210575973266, 20000)
        bracket = (15.53594570308352, 15.662254196604524)
        ends = [numerov.shoot(pot, C, cfg, e, numerov.ODD) for e in bracket]
        want = numerov_bisection(pot, C, cfg, numerov.ODD, *bracket, *ends)
        assert want == 15.54850366836266
        assert numerov.eigenvalue(pot, C, cfg, bracket, numerov.ODD) == want

    @pytest.mark.parametrize("bracket", [(0.5, 0.7), (0.3, 0.5), (0.25, 0.75), (0.1, 0.9)],
                             ids=["zero-at-lo", "zero-at-hi", "zero-at-first-midpoint",
                                  "zero-at-second-midpoint"])
    def test_exact_zero(self, monkeypatch, bracket):
        monkeypatch.setattr(numerov, "shoot", lambda pot, constants, config, energy, parity:
                            energy - 0.5)
        cfg = numerov.ShootingConfig(5.0, 2000)
        lo, hi = bracket
        want = numerov_bisection(HARM, C, cfg, numerov.EVEN, lo, hi, lo - 0.5, hi - 0.5)
        assert want == 0.5
        assert numerov.eigenvalue(HARM, C, cfg, bracket, numerov.EVEN) == want

    @pytest.mark.parametrize("psi", [
        lambda x: 1.0 if x < 0.0 else -1.0,
        lambda x: math.expm1(-60.0 * x),
        lambda x: -x ** 3,
        lambda x: -x * (1e250 if x < -1e-3 else 1.0),
    ], ids=["step", "exponential", "triple-root", "rescaled-jump"])
    def test_worst_case_shoots(self, monkeypatch, psi):
        # psi(E - root) with one sign change: the bits of plain bisection, in
        # at most EXTRA_SHOOTS more shoots, wherever the root falls
        cfg = numerov.ShootingConfig(5.0, 2000)
        rng = np.random.default_rng(11)
        for lo, hi in [(0.0, 1.0), (0.3, 0.45), (10.0, 12.5), (-30.0, -26.0)]:
            for root in lo + (hi - lo) * rng.random(40):
                shoots = []

                def shoot(pot, constants, config, energy, parity, root=root):
                    shoots.append(energy)
                    return psi(energy - root)

                monkeypatch.setattr(numerov, "shoot", shoot)
                ends = (HARM, C, cfg, numerov.EVEN, lo, hi, psi(lo - root), psi(hi - root))
                want = numerov_bisection(*ends)
                plain = len(shoots)
                assert numerov._bisect(*ends) == want
                assert len(shoots) - plain <= plain + EXTRA_SHOOTS


class TestShootScan:
    # 2021 steps: 2020 recurrence steps, 31 full 64-step chunks and a part one
    @pytest.mark.parametrize("pot, e_hi", [(HARM, 5.0), (QUART, 6.0),
                                           (PotentialSpec.even_polynomial([0.0, -10.0, 0.5]),
                                            -20.0)])
    def test_equals_scalar_shoots(self, pot, e_hi):
        cfg = numerov.default_config(pot, C, e_hi, steps=2021)
        v_min = pot.minimum(mass=1.0)
        energies = np.linspace(v_min + 1e-3, e_hi, 37)
        got, changes = numerov.shoot_scan(pot, C, cfg, energies)
        assert got.shape == changes.shape == (2, energies.size)
        for row, counts, parity in zip(got, changes, (numerov.EVEN, numerov.ODD)):
            want = [numerov.shoot(pot, C, cfg, e, parity) for e in energies]
            assert row.tolist() == want
            trajectories = [numerov.shoot(pot, C, cfg, e, parity, return_trajectory=True)[1]
                            for e in energies]
            assert counts.tolist() == [int(np.count_nonzero(np.diff(np.signbit(t))))
                                       for t in trajectories]

    def test_rescale_path_equals_scalar_shoots(self, monkeypatch):
        # psi grows like exp(x^2 / 2) past the turning point: e^800 at x = 40
        reruns = []
        rescaled = numerov._steps_rescaled

        def spy(*args):
            reruns.append(1)
            return rescaled(*args)

        monkeypatch.setattr(numerov, "_steps_rescaled", spy)
        energies = np.linspace(0.3, 5.0, 11)
        cfg = numerov.ShootingConfig(40.0, 2021)
        got, changes = numerov.shoot_scan(HARM, C, cfg, energies)
        assert reruns
        for row, parity in zip(got, (numerov.EVEN, numerov.ODD)):
            assert row.tolist() == [numerov.shoot(HARM, C, cfg, e, parity) for e in energies]
        # the Sturm count survives rescaling: levels n + 1/2 below each energy,
        # even n in row 0 and odd n in row 1
        for row, first in zip(changes, (0, 1)):
            assert row.tolist() == [sum(n + 0.5 < e for n in range(first, 6, 2))
                                    for e in energies]

    def test_domain_checked_at_every_energy(self):
        # 0.5 is fine on [0, 5]; the turning point at 13 lies past x_max
        cfg = numerov.ShootingConfig(5.0, 2000)
        numerov.shoot(HARM, C, cfg, 0.5, numerov.EVEN)
        with pytest.raises(ValueError, match="classically allowed"):
            numerov.shoot_scan(HARM, C, cfg, [0.5, 13.0])

    def test_numerov_factor_must_stay_positive(self):
        # h = 0.1 over [0, 100]: (h^2 / 12) 2 V(100) = 8.3, so P < 0 out there
        cfg = numerov.ShootingConfig(100.0, 1000)
        with pytest.raises(ValueError, match="Numerov factor"):
            numerov.shoot_scan(HARM, C, cfg, [0.5])

import math

import numpy as np
import pytest

from hgritz import BracketingError, Constants, PotentialSpec, ScanResolutionError
from hgritz import numerov
from hgritz.variational import minimize_alpha

C = Constants()
HARM = PotentialSpec.harmonic(1.0)
QUART = PotentialSpec.quartic(1.0)

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


class TestShootScan:
    # 2021 steps: 2020 recurrence steps, 31 full 64-step chunks and a part one
    @pytest.mark.parametrize("pot, e_hi", [(HARM, 5.0), (QUART, 6.0),
                                           (PotentialSpec.even_polynomial([0.0, -10.0, 0.5]),
                                            -20.0)])
    def test_equals_scalar_shoots(self, pot, e_hi):
        cfg = numerov.default_config(pot, C, e_hi, steps=2021)
        v_min = pot.minimum(mass=1.0)
        energies = np.linspace(v_min + 1e-3, e_hi, 37)
        got = numerov.shoot_scan(pot, C, cfg, energies)
        assert got.shape == (2, energies.size)
        for row, parity in zip(got, (numerov.EVEN, numerov.ODD)):
            want = [numerov.shoot(pot, C, cfg, e, parity) for e in energies]
            assert row.tolist() == want

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
        got = numerov.shoot_scan(HARM, C, cfg, energies)
        assert reruns
        for row, parity in zip(got, (numerov.EVEN, numerov.ODD)):
            assert row.tolist() == [numerov.shoot(HARM, C, cfg, e, parity) for e in energies]

    def test_domain_checked_at_every_energy(self):
        # 0.5 is fine on [0, 5]; the turning point at 13 lies past x_max
        cfg = numerov.ShootingConfig(5.0, 2000)
        numerov.shoot(HARM, C, cfg, 0.5, numerov.EVEN)
        with pytest.raises(ValueError, match="classically allowed"):
            numerov.shoot_scan(HARM, C, cfg, [0.5, 13.0])

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
            numerov.ShootingConfig(5.0, 999, (0.4, 0.6), "even")
        with pytest.raises(ValueError):
            numerov.ShootingConfig(5.0, numerov.MAX_STEPS + 1, (0.4, 0.6), "even")
        with pytest.raises(ValueError):
            numerov.ShootingConfig(-1.0, 2000, (0.4, 0.6), "even")
        with pytest.raises(ValueError):
            numerov.ShootingConfig(5.0, 2000, (0.6, 0.4), "even")
        with pytest.raises(ValueError):
            numerov.ShootingConfig(5.0, 2000, (0.4, 0.6), "both")

    def test_default_config_domain(self):
        cfg = numerov.default_config(HARM, C, 0.6, steps=2000)
        x_t = HARM.turning_point(0.6, mass=1.0)
        assert cfg.x_max > x_t + 5.0 * numerov.decay_length(HARM, C, 0.6)

    def test_shallow_domain_rejected(self):
        bad = numerov.ShootingConfig(1.0, 2000, (0.4, 0.6), "even")
        with pytest.raises(ValueError):
            numerov.shoot(HARM, C, bad, 0.5)


class TestShoot:
    def test_true_eigenvalue_gives_small_boundary_value(self):
        cfg = numerov.default_config(HARM, C, 0.6, parity="even", steps=6000,
                                     bracket=(0.4, 0.6))
        at_eigen = abs(numerov.shoot(HARM, C, cfg, 0.5))
        off_lo = abs(numerov.shoot(HARM, C, cfg, 0.4))
        off_hi = abs(numerov.shoot(HARM, C, cfg, 0.6))
        assert at_eigen < 1e-6 * min(off_lo, off_hi)

    def test_bracketing_signs(self):
        cfg = numerov.default_config(HARM, C, 0.6, parity="even", steps=6000,
                                     bracket=(0.4, 0.6))
        lo = numerov.shoot(HARM, C, cfg, 0.4)
        hi = numerov.shoot(HARM, C, cfg, 0.6)
        assert math.copysign(1.0, lo) != math.copysign(1.0, hi)

    def test_odd_channel_starts_at_zero(self):
        cfg = numerov.default_config(HARM, C, 1.8, parity="odd", steps=2000,
                                     bracket=(1.2, 1.8))
        _, traj = numerov.shoot(HARM, C, cfg, 1.5, return_trajectory=True)
        assert traj[0] == 0.0
        assert traj.size == cfg.steps + 1


class TestEigenvalue:
    def test_harmonic_ground(self):
        cfg = numerov.default_config(HARM, C, 0.6, parity="even", steps=6000,
                                     bracket=(0.4, 0.6))
        assert numerov.eigenvalue(HARM, C, cfg) == pytest.approx(0.5, abs=1e-8)

    def test_harmonic_first_excited(self):
        cfg = numerov.default_config(HARM, C, 1.8, parity="odd", steps=6000,
                                     bracket=(1.2, 1.8))
        assert numerov.eigenvalue(HARM, C, cfg) == pytest.approx(1.5, abs=1e-8)

    def test_quartic_ground(self):
        cfg = numerov.default_config(QUART, C, 0.8, parity="even", steps=6000,
                                     bracket=(0.5, 0.8))
        assert numerov.eigenvalue(QUART, C, cfg) == pytest.approx(QUARTIC_E0, abs=1e-6)

    def test_no_sign_change_reported(self):
        cfg = numerov.default_config(HARM, C, 1.2, parity="even", steps=2000,
                                     bracket=(0.6, 1.2))
        with pytest.raises(BracketingError):
            numerov.eigenvalue(HARM, C, cfg)


class TestConvergenceOrder:
    def test_step_halving_is_fourth_order(self):
        # state 15 carries enough truncation error at coarse steps that the
        # h^4 signature is visible above the bisection quantization
        base = numerov.default_config(HARM, C, 16.0, parity="odd", steps=1000,
                                      bracket=(15.2, 15.8))
        vals = {}
        for steps in (1000, 2000, 4000):
            cfg = numerov.ShootingConfig(base.x_max, steps, (15.2, 15.8), "odd")
            vals[steps] = numerov.eigenvalue(HARM, C, cfg)
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

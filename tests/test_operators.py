import decimal
import math

import numpy as np
import pytest

from helpers import (exact_potential_entries, harmonic_bands, quartic_band4,
                     quartic_bands)
from hgritz import (BandedSymMatrix, BasisSpec, PotentialSpec, Spectrum,
                    hamiltonian_matrix, kinetic_matrix, potential_matrix)
from hgritz.errors import RangeError
import hgritz.operators as operators
from hgritz.operators import quartic_band4_misindexed

SPEC1 = BasisSpec(1.0)
HARM = PotentialSpec.harmonic(1.0)
QUART = PotentialSpec.quartic(1.0)


class TestPotentialSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            PotentialSpec.harmonic(0.0)
        with pytest.raises(ValueError):
            PotentialSpec.quartic(-1.0)
        with pytest.raises(ValueError):
            PotentialSpec.even_polynomial([])
        with pytest.raises(ValueError):
            PotentialSpec.even_polynomial([1.0])  # constant, not confining
        with pytest.raises(ValueError):
            PotentialSpec.even_polynomial([0.0, -1.0])  # falls off to -inf
        with pytest.raises(ValueError):
            PotentialSpec("cubic")

    @pytest.mark.parametrize("kind, given, message", [
        ("harmonic", {}, "harmonic potential requires omega"),
        ("harmonic", {"omega": 1.0, "lam": 1.0}, "harmonic potential takes only omega"),
        ("quartic", {}, "quartic potential requires lam"),
        ("quartic", {"lam": 1.0, "coeffs": (0.0, 1.0)}, "quartic potential takes only lam"),
        ("even_polynomial", {"omega": 1.0, "coeffs": (0.0, 1.0)},
         "even_polynomial potential takes only coeffs"),
        ("even_polynomial", {}, "even_polynomial requires coefficients"),
        ("even_polynomial", {"coeffs": (0.0, math.inf)}, "coefficients must be finite"),
    ])
    def test_each_field_check_names_its_fault(self, kind, given, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PotentialSpec(kind, **given)

    def test_trailing_zero_coefficients_trimmed(self):
        pot = PotentialSpec.even_polynomial([0.0, 1.0, 0.0])
        assert pot.coeffs == (0.0, 1.0)
        assert pot.degree == 2

    def test_degree(self):
        assert HARM.degree == 2
        assert QUART.degree == 4
        assert PotentialSpec.even_polynomial([0.0, 0.0, 0.0, 2.0]).degree == 6

    def test_value_and_derivative(self):
        x = np.linspace(-2.0, 2.0, 9)
        np.testing.assert_allclose(HARM.value(x, mass=3.0), 1.5 * x**2)
        np.testing.assert_allclose(QUART.value(x, mass=3.0), x**4)
        poly = PotentialSpec.even_polynomial([1.0, -0.5, 0.25])
        np.testing.assert_allclose(poly.value(x, mass=1.0),
                                   1.0 - 0.5 * x**2 + 0.25 * x**4)
        np.testing.assert_allclose(poly.derivative(x, mass=1.0), -x + x**3)
        assert HARM.curvature_at_origin(mass=2.0) == 2.0
        assert QUART.curvature_at_origin(mass=1.0) == 0.0
        assert poly.curvature_at_origin(mass=1.0) == -1.0

    def test_minimum(self):
        assert HARM.minimum(mass=1.0) == 0.0
        assert QUART.minimum(mass=1.0) == 0.0
        # double well 1 - x^2/2 + x^4/4 has minima at x = +-1, value 3/4
        well = PotentialSpec.even_polynomial([1.0, -0.5, 0.25])
        assert well.minimum(mass=1.0) == pytest.approx(0.75, rel=1e-12)

    def test_turning_point(self):
        assert HARM.turning_point(0.5, mass=1.0) == pytest.approx(1.0, rel=1e-14)
        assert QUART.turning_point(16.0, mass=1.0) == pytest.approx(2.0, rel=1e-14)
        poly = PotentialSpec.even_polynomial([0.0, 0.0, 1.0])
        assert poly.turning_point(16.0, mass=1.0) == pytest.approx(2.0, rel=1e-10)
        assert HARM.turning_point(-1.0, mass=1.0) == 0.0

    def test_quartic_turning_point_past_the_float_range_of_e_over_lam(self):
        # E / lam = 1e310 overflows; x_t = 1e77.5 does not
        tiny = PotentialSpec.quartic(1e-300)
        assert tiny.turning_point(1e10, mass=1.0) == pytest.approx(10.0**77.5, rel=1e-14)
        assert tiny.turning_point(1e-10, mass=1.0) == (1e-10 / 1e-300) ** 0.25

    def test_even_polynomial_turning_point_overflow_names_the_ratio(self):
        # the companion matrix of (c_0 - E) + c_2 u^2 holds (c_0 - E) / c_2 = -1e310
        poly = PotentialSpec.even_polynomial([0.0, 0.0, 1e-300])
        with pytest.raises(RangeError, match=r"^the turning-point coefficient \(c_0 - E\) / c_2 = 10\^310\.0 "):
            poly.turning_point(1e10, mass=1.0)
        poly = PotentialSpec.even_polynomial([0.0, 1e300, 1e-300])
        with pytest.raises(RangeError, match=r"^the turning-point coefficient c_1 / c_2 = 10\^600\.0 "):
            poly.turning_point(1.0, mass=1.0)


class TestBandedSymMatrix:
    def test_to_dense_structural(self):
        m = BandedSymMatrix(1, 0, (np.array([3.25]),))
        np.testing.assert_array_equal(m.to_dense(), [[3.25]])
        m = BandedSymMatrix(3, 2, (np.ones(3), np.zeros(2), np.array([0.5])))
        np.testing.assert_array_equal(
            m.to_dense(), [[1.0, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 1.0]])

    def test_dense_symmetric_and_round_trip(self):
        h = hamiltonian_matrix(BasisSpec(1.7), QUART, 9)
        dense = h.to_dense()
        assert np.abs(dense - dense.T).max() == 0.0
        for k in range(h.bandwidth + 1):
            np.testing.assert_array_equal(np.diag(dense, k), h.bands[k])

    def test_array_protocol_gives_the_dense_matrix(self):
        h = hamiltonian_matrix(SPEC1, QUART, 8)
        dense = np.asarray(h)
        for r in range(8):
            for s in range(8):
                k = abs(r - s)
                want = h.bands[k][min(r, s)] if k <= h.bandwidth else 0.0
                assert dense[r, s] == want

    def test_validation(self):
        with pytest.raises(ValueError):
            BandedSymMatrix(0, 0, (np.array([]),))
        with pytest.raises(ValueError):
            BandedSymMatrix(2, 2, (np.ones(2), np.ones(1), np.ones(0)))
        with pytest.raises(ValueError, match=r"^need exactly bandwidth \+ 1 band arrays$"):
            BandedSymMatrix(2, 1, (np.ones(2),))
        with pytest.raises(ValueError, match=r"^band 1 must have length 1, got \(2,\)$"):
            BandedSymMatrix(2, 1, (np.ones(2), np.ones(2)))
        with pytest.raises(ValueError, match="^band 0 contains non-finite entries$"):
            BandedSymMatrix(2, 1, (np.array([1.0, np.inf]), np.ones(1)))

    def test_sizes_must_be_integers(self):
        # a bool dim once built dim 1, and a bandwidth of 1.7 bandwidth 1
        with pytest.raises(ValueError, match="dim must be a positive integer, got True"):
            BandedSymMatrix(True, 0, (np.ones(1),))
        with pytest.raises(ValueError, match=r"bandwidth must be an integer in \[0, dim - 1\], "
                                             r"got 1\.7"):
            BandedSymMatrix(3, 1.7, (np.ones(3), np.ones(2)))
        assert BandedSymMatrix(np.int64(3), np.int64(1), (np.ones(3), np.ones(2))).bandwidth == 1


class TestKinetic:
    def test_scalar_case(self):
        t = kinetic_matrix(SPEC1, 1)
        np.testing.assert_array_equal(t.to_dense(), [[0.25]])

    def test_band_two_entry(self):
        t = kinetic_matrix(SPEC1, 3).to_dense()
        assert t[0, 2] == pytest.approx(-0.25 * math.sqrt(2.0), rel=1e-15)
        assert t[0, 1] == 0.0

    def test_diagonal_values(self):
        spec = BasisSpec(2.0, hbar=3.0, mass=0.5)
        t = kinetic_matrix(spec, 6).to_dense()
        coeff = 2.0 * 9.0 / (4.0 * 0.5)
        for r in range(6):
            assert t[r, r] == pytest.approx(coeff * (2 * r + 1), rel=1e-15)


class TestPotential:
    def test_harmonic_scalar(self):
        v = potential_matrix(SPEC1, HARM, 1)
        np.testing.assert_array_equal(v.to_dense(), [[0.25]])

    def test_quartic_scalar(self):
        v = potential_matrix(SPEC1, QUART, 1)
        np.testing.assert_array_equal(v.to_dense(), [[0.75]])

    def test_quartic_band_four_entry(self):
        v = potential_matrix(SPEC1, QUART, 6).to_dense()
        assert v[0, 4] == pytest.approx(0.25 * math.sqrt(24.0), rel=1e-15)

    def test_quartic_band_two_entry(self):
        # ladder value: 2 q (2r+3) sqrt((r+1)(r+2)) with q = lam / (4 a^2)
        v = potential_matrix(BasisSpec(2.0), PotentialSpec.quartic(3.0), 5).to_dense()
        q = 3.0 / 16.0
        assert v[1, 3] == pytest.approx(2.0 * q * 5.0 * math.sqrt(6.0), rel=1e-14)

    def test_misindexed_band4_differs(self):
        assert quartic_band4(0, 1.0, 1.0) == pytest.approx(0.25 * math.sqrt(24.0))
        assert quartic_band4_misindexed(0, 1.0, 1.0) == pytest.approx(0.25 * math.sqrt(40.0))
        v_bad = potential_matrix(SPEC1, QUART, 6, band4="misindexed")
        v_good = potential_matrix(SPEC1, QUART, 6)
        np.testing.assert_array_equal(v_bad.bands[4],
                                      quartic_band4_misindexed(np.arange(2), 1.0, 1.0))
        assert abs(v_bad.to_dense()[0, 4] - quartic_band4(0, 1.0, 1.0)) > 0.3
        for k in range(4):
            np.testing.assert_array_equal(v_bad.bands[k], v_good.bands[k])

    @pytest.mark.parametrize("pot,dim", [(HARM, 8), (PotentialSpec.even_polynomial([0, 0, 1]), 8),
                                         (QUART, 4), (QUART, 1)])
    def test_misindexed_band4_needs_quartic_band_four(self, pot, dim):
        # anywhere else the override would leave the matrix unchanged
        with pytest.raises(ValueError, match="misindexed"):
            potential_matrix(SPEC1, pot, dim, band4="misindexed")

    def test_unknown_band4_form(self):
        with pytest.raises(ValueError, match="unknown band4"):
            potential_matrix(SPEC1, QUART, 6, band4="shifted")

    def test_even_polynomial_reproduces_harmonic(self):
        # bitwise, so that H is exactly diagonal at alpha = m omega / hbar
        cases = [(BasisSpec(1.4, mass=2.0), 1.3),
                 (BasisSpec(1.0, hbar=2.0, mass=4.0), 0.5),
                 (BasisSpec(0.37, mass=0.6), 2.9)]
        for spec, omega in cases:
            pot_poly = PotentialSpec.even_polynomial([0.0, 0.5 * spec.mass * omega**2])
            for dim in (1, 2, 3, 4, 5, 30, 1024):
                closed = harmonic_bands(spec.alpha, spec.mass, omega, dim)
                for pot in (PotentialSpec.harmonic(omega), pot_poly):
                    v = potential_matrix(spec, pot, dim)
                    assert v.bandwidth == len(closed) - 1
                    for band, want in zip(v.bands, closed):
                        np.testing.assert_array_equal(
                            band, want, err_msg=f"{spec} omega={omega} dim={dim} {pot}")

    def test_even_polynomial_reproduces_quartic(self):
        for alpha, lam in [(0.9, 2.5), (1.0, 1.0), (3.7, 0.013)]:
            spec = BasisSpec(alpha)
            for dim in (1, 2, 3, 4, 5, 12, 30, 1024):
                closed = quartic_bands(alpha, lam, dim)
                for pot in (PotentialSpec.quartic(lam),
                            PotentialSpec.even_polynomial([0.0, 0.0, lam])):
                    v = potential_matrix(spec, pot, dim)
                    assert v.bandwidth == len(closed) - 1
                    for band, want in zip(v.bands, closed):
                        assert np.all(np.abs(band - want) <= 2.0 * np.spacing(np.abs(want))), \
                            (alpha, lam, dim, pot)

    @pytest.mark.parametrize("dim", [40, 64])
    @pytest.mark.parametrize("pot,coeffs", [
        (QUART, (0.0, 0.0, 1.0)),
        (PotentialSpec.even_polynomial([0.0, 0.3, 0.6]), (0.0, 0.3, 0.6)),
        (PotentialSpec.even_polynomial([0.0, 0.0, 0.0, 0.0, 1.0]), (0.0, 0.0, 0.0, 0.0, 1.0)),
        (PotentialSpec.even_polynomial([0.0, -10.0, 0.5]), (0.0, -10.0, 0.5)),
    ], ids=["quartic", "0,0.3,0.6", "x^8", "0,-10,0.5"])
    def test_entries_within_three_ulp_of_exact(self, pot, coeffs, dim):
        # exact values from the padded x ladder composed in 40-digit decimal
        alpha = 4.0
        v = potential_matrix(BasisSpec(alpha), pot, dim)
        dense = v.to_dense()
        exact = exact_potential_entries(alpha, coeffs, dim)
        checked = 0
        for r in range(dim):
            for s in range(r, min(dim, r + v.bandwidth + 1)):
                want = exact.get((r, s), decimal.Decimal(0))
                got = float(dense[r, s])
                if want == 0:
                    assert got == 0.0
                    continue
                ulps = abs(decimal.Decimal(got) - want) / decimal.Decimal(math.ulp(float(want)))
                assert ulps <= 3, f"V[{r},{s}] = {got!r} is {float(ulps):.2f} ulp from {want}"
                checked += 1
        assert checked == len([w for w in exact.values() if w != 0])

    def test_ladder_tables_are_cut_from_the_largest_dim_asked(self):
        # one read-only table per kmax, grown on demand: each call's first dim
        # columns are bitwise the tables built at that dim
        for kmax in (1, 2, 4):
            for dim in (3, 70, 5, 130, 1, 64):
                h, roots = operators._ladder_tables(kmax, dim)
                want_h, want_roots = operators._build_ladder_tables(kmax, dim)
                for got, want in zip((*h, roots), (*want_h, want_roots)):
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()
                    assert not got.flags.writeable
            assert operators._LADDERS[kmax][1].shape[1] >= 130

    def test_even_polynomial_constant_term_shifts_diagonal(self):
        spec = BasisSpec(1.0)
        base = potential_matrix(spec, PotentialSpec.even_polynomial([0.0, 1.0]), 5)
        shifted = potential_matrix(spec, PotentialSpec.even_polynomial([2.0, 1.0]), 5)
        np.testing.assert_allclose(shifted.to_dense() - base.to_dense(),
                                   2.0 * np.eye(5), atol=1e-14)


class TestHamiltonian:
    def test_exact_diagonal_choice(self):
        h = hamiltonian_matrix(SPEC1, HARM, 5)
        dense = h.to_dense()
        np.testing.assert_array_equal(np.diag(dense), [0.5, 1.5, 2.5, 3.5, 4.5])
        off = dense - np.diag(np.diag(dense))
        assert np.all(off == 0.0)

    def test_off_diagonal_cancellation_is_iff(self):
        # vanishing band 2 happens exactly when alpha hbar^2/4m = m omega^2/4 alpha
        h = hamiltonian_matrix(BasisSpec(1.0, hbar=2.0, mass=4.0),
                               PotentialSpec.harmonic(0.5), 8)
        assert np.abs(h.bands[2]).max() == 0.0
        h2 = hamiltonian_matrix(BasisSpec(1.1), HARM, 8)
        assert np.abs(h2.bands[2]).max() > 1e-3

    def test_band_two_entry_alpha_two(self):
        h = hamiltonian_matrix(BasisSpec(2.0), HARM, 4).to_dense()
        assert h[0, 2] == pytest.approx(-0.375 * math.sqrt(2.0), rel=1e-15)

    def test_quartic_scalar_sum(self):
        h = hamiltonian_matrix(SPEC1, QUART, 1)
        np.testing.assert_array_equal(h.to_dense(), [[1.0]])

    @pytest.mark.parametrize("pot", [HARM, QUART,
                                     PotentialSpec.even_polynomial([0.0, 0.3, 0.6]),
                                     PotentialSpec.even_polynomial([0.0, 1.6, 0.3, 0.04]),
                                     PotentialSpec.even_polynomial([0.0, -10.0, 0.5])])
    def test_additivity_exact(self, pot):
        # H is built in one pass, not from the two builders; at dims 1-5 the
        # dim cuts T's and V's bands off
        spec = BasisSpec(1.21)
        for dim in (1, 2, 3, 4, 5, 9):
            h = hamiltonian_matrix(spec, pot, dim)
            t = kinetic_matrix(spec, dim)
            v = potential_matrix(spec, pot, dim)
            assert h.bandwidth == max(t.bandwidth, v.bandwidth)
            for k in range(h.bandwidth + 1):
                want = v.bands[k] + t.bands[k] if k <= t.bandwidth else v.bands[k]
                assert np.array_equal(h.bands[k], want), (dim, k)

    @pytest.mark.parametrize("pot", [HARM, QUART,
                                     PotentialSpec.even_polynomial([0.1, 0.3, 0.0, 0.2])])
    def test_parity_selection_rule(self, pot):
        dense = hamiltonian_matrix(BasisSpec(0.77), pot, 11).to_dense()
        r, s = np.indices(dense.shape)
        assert np.all(dense[(r + s) % 2 == 1] == 0.0)

    def test_bandwidths(self):
        assert hamiltonian_matrix(SPEC1, HARM, 6).bandwidth == 2
        assert hamiltonian_matrix(SPEC1, QUART, 6).bandwidth == 4
        assert hamiltonian_matrix(SPEC1, QUART, 3).bandwidth == 2
        assert hamiltonian_matrix(SPEC1, QUART, 1).bandwidth == 0
        pot6 = PotentialSpec.even_polynomial([0.0, 0.0, 0.0, 1.0])
        assert hamiltonian_matrix(SPEC1, pot6, 9).bandwidth == 6


class TestSpectrum:
    def test_validation(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([2.0, 1.0]), np.eye(2))
        with pytest.raises(ValueError):
            Spectrum(np.array([1.0, 2.0]), np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            Spectrum(np.array([], dtype=float), np.zeros((0, 0)))
        # NaN passes every comparison-based check, so it is rejected by name
        with pytest.raises(ValueError, match="finite"):
            Spectrum(np.array([1.0, 2.0]), np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="finite"):
            Spectrum(np.array([np.nan, 2.0]), np.eye(2))
        s = Spectrum(np.array([1.0, 2.0]), np.eye(2))
        assert s.dim == 2

    def test_residual_norm(self):
        assert Spectrum(np.array([1.0, 2.0]), np.eye(2)).residual_norm == 0.0
        assert Spectrum(np.array([1.0]), np.eye(1), 3e-15).residual_norm == 3e-15
        with pytest.raises(ValueError):
            Spectrum(np.array([1.0]), np.eye(1), -1.0)
        with pytest.raises(ValueError):
            Spectrum(np.array([1.0]), np.eye(1), float("nan"))

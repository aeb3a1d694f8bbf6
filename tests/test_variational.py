import numpy as np
import pytest

import hgritz.eigensolver as eigensolver
import hgritz.variational as variational
from hgritz import (MAX_INDEX, BasisSpec, Constants, ConvergenceError, PotentialSpec,
                    check_mhu, convergence_table, eigh, exact_diagonal_alpha,
                    hamiltonian_matrix, minimize_alpha, scan_alpha,
                    solve_spectrum)
from hgritz.errors import RangeError
from hgritz.spectral import ConvergenceTable

C = Constants()
HARM = PotentialSpec.harmonic(1.0)
QUART = PotentialSpec.quartic(1.0)


def harmonic_ground_dim1(alpha):
    """Closed form for the 1x1 truncation: alpha/4 + 1/(4 alpha)."""
    return alpha / 4.0 + 1.0 / (4.0 * alpha)


def quartic_ground_dim1(alpha):
    """Closed form for the 1x1 truncation: alpha/4 + 3/(4 alpha^2)."""
    return alpha / 4.0 + 3.0 / (4.0 * alpha**2)


class TestExactDiagonalAlpha:
    def test_natural_units(self):
        assert exact_diagonal_alpha(1.0) == 1.0

    def test_direct_formula(self):
        assert exact_diagonal_alpha(3.0, Constants(hbar=1.0, mass=2.0)) == 6.0

    def test_returned_alpha_kills_the_off_band(self):
        constants = Constants(hbar=1.0, mass=2.0)
        omega = 3.0
        alpha = exact_diagonal_alpha(omega, constants)
        spec = BasisSpec(alpha, constants.hbar, constants.mass)
        h = hamiltonian_matrix(spec, PotentialSpec.harmonic(omega), 20)
        assert np.abs(h.bands[2]).max() == 0.0

    def test_returned_alpha_near_cancellation_generic_constants(self):
        # alpha = m omega / hbar is not exactly representable here, so the
        # cancellation is only down to rounding of the two quarter terms
        constants = Constants(hbar=1.5, mass=2.5)
        alpha = exact_diagonal_alpha(0.8, constants)
        spec = BasisSpec(alpha, constants.hbar, constants.mass)
        h = hamiltonian_matrix(spec, PotentialSpec.harmonic(0.8), 20)
        assert np.abs(h.bands[2]).max() <= 1e-13


def test_solve_spectrum_keeps_the_eigen_residual():
    expected = eigh(hamiltonian_matrix(BasisSpec(1.3, 1.0, 1.0), QUART, 12)).residual_norm
    assert expected > 0.0
    assert solve_spectrum(QUART, C, 1.3, 12).residual_norm == expected


@pytest.fixture
def reductions(monkeypatch):
    """The stack shape of every Householder reduction, which each solve runs, eigh's or values-only."""
    dims = []
    reduce = eigensolver._householder_tridiag

    def counted(stack):
        dims.append(stack.shape)
        return reduce(stack)

    monkeypatch.setattr(eigensolver, "_householder_tridiag", counted)
    return dims


def test_level_searches_solve_for_values_only(monkeypatch):
    # scan_alpha, minimize_alpha and convergence_table read only levels:
    # every solve runs the values-only reduce phase, alone or in a family,
    # and none forms eigenvectors, through eigh or otherwise
    solves = []
    reduce = eigensolver._reduce

    def no_vectors(*args):
        raise AssertionError("eigenvectors formed")

    def counted(group):
        solves.extend(sum(len(r) for r in rows) for _, rows, _ in group)
        return reduce(group)

    monkeypatch.setattr(variational, "eigh", no_vectors)
    monkeypatch.setattr(eigensolver, "eigh", no_vectors)
    monkeypatch.setattr(eigensolver, "_tridiagonal_vectors", no_vectors)
    monkeypatch.setattr(eigensolver, "_reduce", counted)
    scan_alpha(QUART, C, 6, [0.8, 1.6])
    assert solves == [6, 6]
    solves.clear()
    minimize_alpha(QUART, C, 5, (0.5, 4.0))
    assert len(solves) > 10 and set(solves) == {5}
    solves.clear()
    convergence_table(QUART, C, 1.3, (2, 4, 8))
    assert solves == [2, 4, 8]


class TestScanAlpha:
    def test_harmonic_dim1_closed_form(self):
        scan = scan_alpha(HARM, C, 1, [0.5, 1.0, 2.0])
        np.testing.assert_allclose([e[0] for e in scan.energies],
                                   [0.625, 0.5, 0.625], rtol=1e-14)
        assert scan.argmin_alpha == 1.0

    def test_ground_level_never_undercuts_exact(self):
        scan = scan_alpha(HARM, C, 7, np.linspace(0.3, 3.0, 12))
        for e in scan.energies:
            assert e[0] >= 0.5 - 1e-12

    def test_quartic_dim1_closed_form(self):
        alphas = [0.7, 1.3, 2.1, 3.4]
        scan = scan_alpha(QUART, C, 1, alphas)
        np.testing.assert_allclose([e[0] for e in scan.energies],
                                   [quartic_ground_dim1(a) for a in alphas], rtol=1e-14)

    def test_argmin_invariant_under_consistent_scaling(self):
        # hbar = mass = 2 keeps m omega / hbar = 1, so the argmin stays put
        scan = scan_alpha(HARM, Constants(hbar=2.0, mass=2.0), 1, [0.5, 1.0, 2.0])
        assert scan.argmin_alpha == 1.0

    def test_range_error_names_the_width_as_a_plain_float(self):
        with pytest.raises(OverflowError, match=r"^eigensolver failed at alpha = 1e-300: "
                                                r"\(2 alpha\)\^2 = 10\^-599\.4 lies outside"):
            scan_alpha(QUART, C, 3, [1e-300, 1.0])

    def test_convergence_error_names_the_width_and_keeps_its_fields(self, monkeypatch):
        def stall(d, e):
            raise ConvergenceError("QL stalled", dim=3, index=1)

        monkeypatch.setattr(eigensolver, "_ql_implicit", stall)
        with pytest.raises(ConvergenceError,
                           match=r"^eigensolver failed at alpha = 0\.5: QL stalled$") as err:
            scan_alpha(QUART, C, 3, np.array([1.0, 0.5]))
        assert (err.value.dim, err.value.index) == (3, 1)

    def test_convergence_error_names_the_first_failing_width(self, monkeypatch):
        # the grid's solves share one stack: QL stalls on the third block,
        # block 0 of the second width, and every later block solves
        ql = eigensolver._ql_implicit
        calls = []

        def stall_third(d, e):
            calls.append(d.size)
            if len(calls) == 3:
                raise ConvergenceError("QL stalled", dim=d.size, index=0)
            return ql(d, e)

        monkeypatch.setattr(eigensolver, "_ql_implicit", stall_third)
        with pytest.raises(ConvergenceError,
                           match=r"^eigensolver failed at alpha = 1\.0: QL stalled$") as err:
            scan_alpha(QUART, C, 3, [2.0, 1.0, 0.5])
        assert (err.value.dim, err.value.index) == (2, 0)
        assert calls == [2, 1, 2, 1, 2, 1]

    def test_a_failed_certificate_names_its_width_though_later_widths_solved(self, monkeypatch):
        # level 1 of the third block, block 0 of the second width, moves by
        # 1.0; its certificate refuses it once every width is reduced
        ql = eigensolver._ql_implicit
        calls = []

        def move_third(d, e):
            calls.append(d.size)
            values = ql(d, e)
            if len(calls) == 3:
                values[1] += 1.0
            return values

        monkeypatch.setattr(eigensolver, "_ql_implicit", move_third)
        with pytest.raises(ConvergenceError, match=r"^eigensolver failed at alpha = 1\.0: "
                                                   r"Sturm count puts no eigenvalue") as err:
            scan_alpha(QUART, C, 3, [2.0, 1.0, 0.5])
        assert calls == [2, 1, 2, 1, 2, 1]
        # eigvalsh at that width alone, its first QL call moved the same way
        calls[:] = [0, 0]
        with pytest.raises(ConvergenceError) as alone:
            eigensolver.eigvalsh(hamiltonian_matrix(BasisSpec(1.0), QUART, 3))
        assert str(err.value) == f"eigensolver failed at alpha = 1.0: {alone.value}"
        assert (err.value.dim, err.value.index) == (alone.value.dim, alone.value.index)
        assert err.value.dim == 2

    def test_input_validation(self):
        with pytest.raises(ValueError):
            scan_alpha(HARM, C, 3, [])
        with pytest.raises(ValueError):
            scan_alpha(HARM, C, 3, [1.0, -2.0])


class TestMinimizeAlpha:
    def test_harmonic_dim1(self):
        res = minimize_alpha(HARM, C, 1, (0.1, 10.0))
        assert abs(res.alpha_star - 1.0) <= 1e-6
        assert abs(res.energy - 0.5) <= 1e-10
        assert not res.boundary

    def test_quartic_dim1_against_calculus_oracle(self):
        # d/da (a/4 + 3/(4 a^2)) = 0  =>  a^3 = 6
        alpha_true = 6.0 ** (1.0 / 3.0)
        res = minimize_alpha(QUART, C, 1, (0.5, 5.0))
        assert abs(res.alpha_star - alpha_true) <= 1e-6
        assert abs(res.energy - quartic_ground_dim1(alpha_true)) <= 1e-12
        assert not res.boundary

    def test_monotone_objective_flagged_as_boundary(self):
        # on [2, 5] the dim-1 harmonic ground energy increases, so the search
        # converges onto the left endpoint
        res = minimize_alpha(HARM, C, 1, (2.0, 5.0))
        assert res.boundary
        assert res.alpha_star == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("dim, bracket", [
        (30, (0.1, 10.0)), (30, (0.2, 3.0)), (30, (0.5, 10.0)),
        (4, (0.05, 20.0)), (42, (0.8, 5.0))])
    def test_harmonic_plateau_resolves_to_exact_width(self, dim, bracket):
        # at dim 30 the ground level is 0.5 to within one ulp for alpha in
        # about (0.55, 1.75); the higher levels break the tie at alpha = 1.
        # Dims 4 and 42 miss by 2e-5 and 9e-5 when the error bound leaves
        # out the rounding of the matrix entries.
        res = minimize_alpha(HARM, C, dim, bracket)
        assert abs(res.alpha_star - 1.0) <= 1e-6
        assert not res.boundary

    def test_quartic_plateau_stays_interior(self):
        # breaking ties by the trace instead of level by level drives this
        # search onto the right end of the bracket
        res = minimize_alpha(QUART, C, 40, (0.8, 4.0))
        assert not res.boundary

    def test_levels_objective(self):
        res = minimize_alpha(HARM, C, 2, (0.2, 5.0), levels=2)
        assert abs(res.alpha_star - 1.0) <= 1e-6

    def test_bracket_validation(self):
        with pytest.raises(ValueError):
            minimize_alpha(HARM, C, 1, (2.0, 1.0))
        with pytest.raises(ValueError):
            minimize_alpha(HARM, C, 1, (-1.0, 2.0))
        with pytest.raises(ValueError):
            minimize_alpha(HARM, C, 2, (0.5, 2.0), levels=3)

    @pytest.mark.parametrize("levels", [True, 1.5, 0, 3])
    def test_levels_must_be_an_integer_in_range(self, reductions, levels):
        # levels=True once ran as 1, and 1.5 raised numpy's slice TypeError
        # from inside the first solve; now both are named before any solve
        with pytest.raises(ValueError, match=r"levels must be an integer in \[1, dim = 2\], "
                                             rf"got {levels!r}$"):
            minimize_alpha(HARM, C, 2, (0.5, 2.0), levels=levels)
        assert not reductions
        minimize_alpha(HARM, C, 2, (0.5, 2.0))
        assert reductions  # the spy sees the search's solves

    @pytest.mark.parametrize("bracket", [(0.5, np.inf), (0.5, np.nan), (np.nan, 2.0)])
    def test_bracket_must_be_finite(self, reductions, bracket):
        # (0.5, inf) once reached the first solve and raised "alpha must be a
        # positive finite real, got nan", naming neither the bracket nor its value
        with pytest.raises(ValueError, match=r"bracket must hold finite 0 < lo < hi, got "
                                             rf"\({bracket[0]}, {bracket[1]}\)"):
            minimize_alpha(HARM, C, 2, bracket)
        assert not reductions
        minimize_alpha(HARM, C, 2, (0.5, 2.0))
        assert reductions


class TestMinimizeAlphaSolves:
    @pytest.fixture
    def widths(self, monkeypatch):
        """The width of every H the search builds, in build order."""
        built = []
        build = variational.hamiltonian_matrix

        def counted(spec, pot, dim):
            built.append(spec.alpha)
            return build(spec, pot, dim)

        monkeypatch.setattr(variational, "hamiltonian_matrix", counted)
        return built

    def test_no_width_the_search_never_reads_is_solved(self, widths):
        # on (2, 5) the dim-1 harmonic ground level rises, so every
        # comparison keeps the left part; each width is read by the
        # comparison after it is placed, except the last one placed
        res = minimize_alpha(HARM, C, 1, (2.0, 5.0))
        lo, hi = 2.0, 5.0
        m1, m2 = hi - variational._INVPHI * (hi - lo), lo + variational._INVPHI * (hi - lo)
        comparisons = 0
        while hi - lo > max(variational.REL_TOL * 0.5 * (lo + hi), variational.WIDTH_FLOOR):
            hi, m2 = m2, m1
            m1 = hi - variational._INVPHI * (hi - lo)
            comparisons += 1
        # the opening pair, one width per later comparison, and alpha_star
        assert len(widths) == 2 + (comparisons - 1) + 1
        assert len(set(widths)) == len(widths)
        assert widths[-1] == res.alpha_star

    def test_a_converged_bracket_solves_only_its_midpoint(self, widths):
        res = minimize_alpha(HARM, C, 2, (1.0, 1.0 + 1e-9))
        assert widths == [res.alpha_star]
        assert res.energy == float(
            eigensolver.eigvalsh(hamiltonian_matrix(BasisSpec(res.alpha_star), HARM, 2))[0])


class TestMinimizeAlphaErrors:
    """The search raises what the loop of eigvalsh over its widths, in solve order, raises first.

    Within a width that is QL's error, then the certificate's, then the
    unscaling's; the certificates run later than the solves, in shared
    passes, so faults are placed by build index: the dim-8 quartic on
    (0.5, 4) builds about 40 widths.
    """

    DIM = 8

    @pytest.fixture
    def faults(self, monkeypatch):
        """{'moved', 'stalled', 'refused'}: the build index at which each fault strikes.

        moved: level 1 of each block moves by 1.0, which its certificate
        refuses; stalled: QL raises a ConvergenceError; refused: the build
        raises a RangeError.  The dict also gets 'widths', every width built.
        """
        plan = {"widths": []}
        build = variational.hamiltonian_matrix
        ql = eigensolver._ql_implicit

        def built(spec, pot, dim):
            plan["widths"].append(spec.alpha)
            if len(plan["widths"]) - 1 == plan.get("refused"):
                raise RangeError("the refused width", 400.0)
            return build(spec, pot, dim)

        def faulty(d, e):
            width = len(plan["widths"]) - 1
            if width == plan.get("stalled"):
                raise ConvergenceError("QL stalled", dim=d.size, index=2)
            values = ql(d, e)
            if width == plan.get("moved"):
                values[1] += 1.0
            return values

        monkeypatch.setattr(variational, "hamiltonian_matrix", built)
        monkeypatch.setattr(eigensolver, "_ql_implicit", faulty)
        return plan

    def alone(self, faults, k):
        """(type, text, dim, index) of what eigvalsh raises on width k alone, its faults in place."""
        del faults["widths"][k + 1:]
        h = hamiltonian_matrix(BasisSpec(faults["widths"][k]), QUART, self.DIM)
        with pytest.raises(Exception) as err:
            eigensolver.eigvalsh(h)
        return failure(err)

    def search(self):
        with pytest.raises(Exception) as err:
            minimize_alpha(QUART, C, self.DIM, (0.5, 4.0))
        return failure(err)

    def test_a_failed_certificate_is_raised_though_later_widths_solved(self, faults):
        faults["moved"] = 5
        got = self.search()
        assert len(faults["widths"]) > 20
        want = self.alone(faults, 5)
        assert got == want
        assert want[0] is ConvergenceError and want[1].startswith("Sturm count puts no eigenvalue")
        assert (want[2], want[3]) == (4, 1)

    @pytest.mark.parametrize("later", ["stalled", "refused"])
    def test_an_earlier_failed_certificate_wins_over_a_later_error(self, faults, later):
        faults["moved"], faults[later] = 5, 7
        got = self.search()
        assert len(faults["widths"]) == 8
        assert got == self.alone(faults, 5)

    @pytest.mark.parametrize("fault", ["stalled", "refused"])
    def test_a_later_error_is_raised_where_every_certificate_passes(self, faults, fault):
        faults[fault] = 7
        got = self.search()
        assert len(faults["widths"]) == 8
        if fault == "refused":
            assert got == (RangeError, "the refused width = 10^400.0 lies outside the float range",
                           None, None)
        else:
            assert got == self.alone(faults, 7) == (ConvergenceError, "QL stalled", 4, 2)


def failure(err):
    """(type, text, dim, index) of a caught exception."""
    return (type(err.value), str(err.value), getattr(err.value, "dim", None),
            getattr(err.value, "index", None))


class TestConvergenceTable:
    def test_exact_diagonal_prefixes(self):
        table = convergence_table(HARM, C, 1.0, (2, 4, 8))
        for d, spectrum in zip(table.dims, table.spectra):
            np.testing.assert_allclose(spectrum, np.arange(d) + 0.5, atol=1e-13)

    def test_quartic_ground_energy_improves_with_dim(self):
        table = convergence_table(QUART, C, 2.0, (10, 20, 40))
        ground = [s[0] for s in table.spectra]
        assert ground[1] <= ground[0] + 1e-12
        assert ground[2] <= ground[1] + 1e-12
        gaps = np.diff(ground)
        assert abs(gaps[1]) <= abs(gaps[0])
        assert all(c["pass"] for c in check_mhu(table))

    def test_single_dim_table(self):
        table = convergence_table(HARM, C, 1.3, (6,))
        assert all(c["pass"] for c in check_mhu(table))

    @pytest.mark.parametrize("pot, constants, alpha, dims", [
        (QUART, C, 1.3, tuple(range(1, 25))),
        (PotentialSpec.even_polynomial([0.2, 0.4, 0.1, 0.05]), C, 0.7, tuple(range(2, 41, 2))),
        (PotentialSpec.even_polynomial([0.0, -41.8479, 0.530985]), Constants(mass=265.871),
         2.32961, (3, 10, 19)),
        # entries past 2^256: eigvalsh solves every truncation scaled down
        (PotentialSpec.quartic(1e75), C, 0.01, (3, 8, 13)),
    ], ids=["quartic-every-dim", "sextic-even-dims", "deep-double-well", "scaled"])
    def test_spectra_are_the_per_dim_solves(self, pot, constants, alpha, dims):
        # each truncation is the leading block of the largest H, bit for bit
        spec = BasisSpec(alpha, constants.hbar, constants.mass)
        table = convergence_table(pot, constants, alpha, dims)
        for d, levels in zip(dims, table.spectra):
            h = hamiltonian_matrix(spec, pot, d)
            assert levels.tobytes() == eigensolver.eigvalsh(h).tobytes()
        if pot.kind == "quartic" and pot.lam > 1.0:
            assert np.abs(np.asarray(h)).max() > 2.0**256

    @pytest.mark.parametrize("dims", [(0, 2), (2, -1), (), (4, 2), (2, MAX_INDEX + 1)])
    def test_invalid_dims_raise_as_the_per_dim_builds(self, dims):
        with pytest.raises(ValueError) as got:
            convergence_table(QUART, C, 1.3, dims)
        with pytest.raises(ValueError) as want:
            ConvergenceTable(dims, tuple(
                eigensolver.eigvalsh(hamiltonian_matrix(BasisSpec(1.3), QUART, d)) for d in dims))
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)

    @pytest.mark.parametrize("dims, bad", [((2.5, 4), "2.5"), ((True, 4), "True"),
                                           ((2, 4.0), "4.0")])
    def test_dims_must_be_integers(self, dims, bad):
        # (2.5, 4) once gave dims (2, 4), and (True, 4) dims (1, 4); each
        # is now refused as the per-dim build refuses it
        with pytest.raises(ValueError, match=f"dim must be a positive integer, got {bad}$"):
            convergence_table(QUART, C, 1.3, dims)
        assert convergence_table(QUART, C, 1.3, (np.int64(2), 4)).dims == (2, 4)

    @pytest.mark.parametrize("dims", [(4, 12), (8, 11, 12)])
    def test_range_error_is_the_first_failing_dims(self, dims):
        # V leaves the float range at dim 12, and the levels already at dim 11
        pot = PotentialSpec.quartic(1e300)
        with pytest.raises(OverflowError) as got:
            convergence_table(pot, C, 1e-3, dims)
        with pytest.raises(OverflowError) as want:
            for d in dims:
                eigensolver.eigvalsh(hamiltonian_matrix(BasisSpec(1e-3), pot, d))
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)

    @pytest.mark.parametrize("pot, alpha", [(QUART, 1.3), (PotentialSpec.quartic(1e300), 1e-3)],
                             ids=["leading-blocks", "dim-by-dim"])
    def test_a_failed_certificate_is_the_first_failing_dims(self, monkeypatch, pot, alpha):
        # a level of every block of 4 rows moves by 1e-3 of the block's
        # largest: dim 8's certificate fails once dims 4 and 12 are built;
        # at lambda 1e300 the dim-12 H leaves the float range, so each dim
        # is built on its own
        ql = eigensolver._ql_implicit
        calls = []

        def moved(d, e):
            calls.append(d.size)
            values = ql(d, e)
            if d.size == 4:
                values[1] += 1e-3 * np.abs(values).max()
            return values

        monkeypatch.setattr(eigensolver, "_ql_implicit", moved)
        dims = (4, 8, 12)
        with pytest.raises(ConvergenceError) as got:
            convergence_table(pot, C, alpha, dims)
        assert calls == ([2, 2, 4, 4, 6, 6] if pot is QUART else [2, 2, 4, 4])
        with pytest.raises(ConvergenceError) as want:
            for d in dims:
                eigensolver.eigvalsh(hamiltonian_matrix(BasisSpec(alpha), pot, d))
        assert failure(got) == failure(want)
        assert str(got.value).startswith("Sturm count") and got.value.dim == 4

    def test_monotone_improvement_fixed_alpha(self):
        energies = [solve_spectrum(HARM, C, 0.7, d).eigenvalues[0]
                    for d in (4, 8, 16, 32)]
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))

import math

import numpy as np
import pytest

from helpers import count_nodes, exact_parity, node_grid

import hgritz.spectral as spectral
from hgritz import (BasisSpec, Constants, ConvergenceTable, DegenerateInputError,
                    PotentialSpec, Spectrum, basis_table, check_mhu, node_counts,
                    solve_spectrum)

SPEC1 = BasisSpec(1.0)
HARM = PotentialSpec.harmonic(1.0)
C = Constants()


class TestCountNodes:
    def test_positive_gaussian(self):
        x = np.linspace(-6.0, 6.0, 501)
        assert count_nodes(np.exp(-x * x)) == 0

    @pytest.mark.parametrize("periods", [1, 2, 3])
    def test_sine_interior_zeros(self, periods):
        # analytic zero count: 2k - 1 interior zeros over k full periods
        x = np.linspace(0.0, 2.0 * math.pi * periods, 2001)
        assert count_nodes(np.sin(x)) == 2 * periods - 1

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            count_nodes(np.zeros(10))

    def test_floor_above_everything_rejected(self):
        with pytest.raises(DegenerateInputError):
            count_nodes(np.ones(10), amplitude_floor=2.0)

    @pytest.mark.parametrize("values", [[np.nan, 1.0], [1.0, np.inf, -1.0],
                                        [1.0, -np.inf]])
    def test_non_finite_samples_named(self, values):
        with pytest.raises(ValueError, match="samples are not finite"):
            count_nodes(values)

    def test_grazing_zero_does_not_split_count(self):
        # a sample that lands almost exactly on the axis must not hide the crossing
        values = np.array([1.0, 1e-14, -1.0])
        assert count_nodes(values) == 1
        assert count_nodes(np.array([1.0, 1e-14, 1.0])) == 0


class TestParityClassify:
    @pytest.mark.parametrize("pot,alpha", [(HARM, 0.7), (HARM, 1.3),
                                           (PotentialSpec.quartic(1.0), 2.0)])
    def test_eigenvectors_never_mixed(self, pot, alpha):
        spectrum = solve_spectrum(pot, C, alpha, 14)
        for i in range(14):
            parity = exact_parity(spectrum.eigenvectors[:, i])
            assert parity == ("even" if i % 2 == 0 else "odd")


class TestCheckMhu:
    def test_exact_diagonal_family_zero_slack(self):
        dims = (2, 4, 8)
        spectra = tuple(np.arange(d) + 0.5 for d in dims)
        table = ConvergenceTable(dims, spectra)
        checks = check_mhu(table, exact=[i + 0.5 for i in range(8)])
        assert all(c["pass"] for c in checks)
        assert [c["name"] for c in checks] == ["monotonicity", "interlacing",
                                               "upper_bound"]

    def test_constant_prefix_passes_with_equality(self):
        table = ConvergenceTable((2, 3), (np.array([1.0, 2.0]),
                                          np.array([1.0, 2.0, 9.0])))
        assert all(c["pass"] for c in check_mhu(table))

    def test_single_truncation_vacuous_monotonicity(self):
        table = ConvergenceTable((4,), (np.array([0.6, 1.7, 2.8, 3.9]),))
        checks = check_mhu(table, exact=[0.5, 1.5, 2.5, 3.5])
        assert all(c["pass"] for c in checks)
        mono = next(c for c in checks if c["name"] == "monotonicity")
        assert "vacuous" in mono["detail"]

    def test_solver_tables_respect_the_bound(self):
        for alpha in (0.5, 2.0):
            table_dims = tuple(range(2, 31, 2))
            spectra = tuple(solve_spectrum(HARM, C, alpha, d).eigenvalues
                            for d in table_dims)
            table = ConvergenceTable(table_dims, spectra)
            exact = [i + 0.5 for i in range(30)]
            assert all(c["pass"] for c in check_mhu(table, exact))

    def test_tampered_table_rejected_with_location(self):
        dims = (2, 4)
        spectra = (np.array([0.5, 1.5]), np.array([0.4, 1.5, 2.5, 3.5]))
        table = ConvergenceTable(dims, spectra)
        checks = check_mhu(table, exact=[0.5, 1.5, 2.5, 3.5])
        bound = next(c for c in checks if c["name"] == "upper_bound")
        assert [c["name"] for c in checks if not c["pass"]] == ["upper_bound"]
        assert "(i=0, dim=4)" in bound["detail"]

    def test_table_validation(self):
        with pytest.raises(ValueError, match="^dims must be strictly increasing$"):
            ConvergenceTable((4, 2), (np.zeros(4), np.zeros(2)))
        with pytest.raises(ValueError, match="^each spectrum must ascend$"):
            ConvergenceTable((2,), (np.array([2.0, 1.0]),))
        with pytest.raises(ValueError, match="^spectrum for dim 2 must have 2 entries$"):
            ConvergenceTable((2,), (np.array([1.0, 2.0, 3.0]),))
        with pytest.raises(ValueError, match="^need one spectrum per dim$"):
            ConvergenceTable((2, 4), (np.array([1.0, 2.0]),))

    def test_dims_must_be_integers(self):
        # dims (2.9,) were once truncated to (2,)
        for dims in [(2.9,), (True,), (2.0,)]:
            with pytest.raises(ValueError, match=rf"dims must be positive integers, "
                                                 rf"got \({dims[0]!r},\)"):
                ConvergenceTable(dims, (np.array([1.0, 2.0]),))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_spectrum_named(self, bad):
        # a NaN level once passed the ascent test and all three checks
        with pytest.raises(ValueError, match=f"spectrum for dim 4 holds {bad} at index 1"):
            ConvergenceTable((2, 4), ([0.5, 1.5], [0.5, bad, 2.5, 3.5]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_exact_named(self, bad):
        # a NaN exact level once passed upper_bound
        table = ConvergenceTable((2, 4), ([0.5, 1.5], [0.5, 1.5, 2.5, 3.5]))
        with pytest.raises(ValueError, match=f"exact holds {bad} at index 1"):
            check_mhu(table, [0.5, bad])


class TestNodeGrid:
    def test_covers_turning_point_with_margin(self):
        # the spacing of 2001 points over |x| <= x_t + 5 / sqrt(alpha), x_t = 1;
        # the grid ends within a step past x_t
        step, size = spectral._half_line_grid(SPEC1, np.array([1.0]), 1)
        assert step == pytest.approx(2.0 * (1.0 + 5.0) / 2000, rel=1e-12)
        assert (size - 2) * step < 1.0 <= (size - 1) * step

    def test_node_theorem_harmonic(self):
        # reference: count_nodes on the whole line, one state at a time
        for dim in (12, 25):
            spectrum = solve_spectrum(HARM, C, 1.0, dim)
            counts = node_counts(SPEC1, HARM, spectrum)
            for i in range(11):
                grid = node_grid(SPEC1, HARM, float(spectrum.eigenvalues[i]))
                values = spectrum.eigenvectors[:, i] @ basis_table(SPEC1, dim - 1, grid)
                assert counts[i] == count_nodes(values) == i, (dim, i)


def allowed_samples(spec, pot, spectrum):
    """(grid indices, samples) of each state on its allowed half-line set.

    The set is {0 <= x <= x_t(E_i), V(x) <= E_i} of the grid node_counts
    shares between the states; the samples come from one full basis table.
    node_counts reads the set from V alone, so these references check that
    V selects the same samples.
    """
    energies = spectrum.eigenvalues
    turns = np.array([pot.turning_point(e, mass=spec.mass) for e in energies])
    step, size = spectral._half_line_grid(spec, turns, spectrum.dim)
    grid = step * np.arange(size)
    values = spectrum.eigenvectors.T @ basis_table(spec, spectrum.dim - 1, grid)
    potential = pot.value(grid, mass=spec.mass)
    out = []
    for i, energy in enumerate(energies):
        where = np.flatnonzero((grid <= turns[i]) & (potential <= energy))
        out.append((where, values[i, where]))
    return out


class TestNodeCounts:
    QUART = PotentialSpec.quartic(1.0)
    DEEP = PotentialSpec.even_polynomial((0.0, -10.0, 0.5))
    FAR = PotentialSpec.harmonic(0.513853)

    def test_shared_grid_no_coarser_than_default_grids(self):
        spectrum = solve_spectrum(self.QUART, C, 1.8, 40)
        spec = BasisSpec(1.8)
        energies = spectrum.eigenvalues
        turns = np.array([self.QUART.turning_point(e, mass=1.0) for e in energies])
        step, size = spectral._half_line_grid(spec, turns, spectrum.dim)
        grid = step * np.arange(size)
        finest = min(np.diff(node_grid(spec, self.QUART, e)).min() for e in energies)
        assert grid[0] == 0.0
        assert np.diff(grid).max() <= finest * (1.0 + 1e-12)
        assert grid[-1] >= turns.max()

    def test_agrees_with_count_nodes_across_chunk_boundaries(self, monkeypatch):
        spectrum = solve_spectrum(self.QUART, C, 1.8, 40)
        spec = BasisSpec(1.8)
        samples = allowed_samples(spec, self.QUART, spectrum)
        odd = [exact_parity(c) == "odd" for c in spectrum.eigenvectors.T]

        def reference(floor):
            return [2 * count_nodes(values, floor) + o for (_, values), o in zip(samples, odd)]

        where, values = samples[9]
        # state 9 changes sign between samples k - 1 and k for the second time;
        # `drop` is the smaller of the two, and `floor` drops it alone there
        k = int(np.flatnonzero(values[1:] * values[:-1] < 0.0)[1]) + 1
        drop = k if abs(values[k]) < abs(values[k - 1]) else k - 1
        kept = min(abs(values[drop - 1]), abs(values[drop + 1]))
        assert abs(values[drop]) < kept
        floor = math.sqrt(abs(values[drop]) * kept) / np.abs(values).max()
        default = spectral.DEFAULT_AMPLITUDE_FLOOR
        cases = [(where[k], default),         # the change spans a chunk boundary
                 (where[drop], floor),        # the dropped sample opens a chunk
                 (where[drop] + 1, floor),    # the dropped sample closes a chunk
                 (1, floor), (1, default)]    # every sample is a chunk boundary
        for chunk, amplitude_floor in cases:
            monkeypatch.setattr(spectral, "NODE_TABLE_ENTRIES", int(chunk) * spectrum.dim)
            monkeypatch.setattr(spectral, "DEFAULT_AMPLITUDE_FLOOR", amplitude_floor)
            want = reference(amplitude_floor)
            assert want[9] == 9
            got = node_counts(spec, self.QUART, spectrum)
            assert got.tolist() == want, (chunk, amplitude_floor)
        # deep double well at 16-point chunks: whole chunks lie inside the
        # barrier for its lowest states, and reach none of them
        deep = solve_spectrum(self.DEEP, C, 1.59369, 69)
        spec = BasisSpec(1.59369)
        samples = allowed_samples(spec, self.DEEP, deep)
        odd = [exact_parity(c) == "odd" for c in deep.eigenvectors.T]
        assert samples[0][0][0] >= 2 * 16 and samples[1][0][0] >= 2 * 16
        monkeypatch.setattr(spectral, "NODE_TABLE_ENTRIES", 16 * deep.dim)
        monkeypatch.setattr(spectral, "DEFAULT_AMPLITUDE_FLOOR", default)
        want = [2 * count_nodes(v, default) + o for (_, v), o in zip(samples, odd)]
        assert node_counts(spec, self.DEEP, deep).tolist() == want

    def test_run_dropped_by_the_final_floor_before_the_peak(self, monkeypatch):
        spectrum = solve_spectrum(self.QUART, C, 1.8, 40)
        spec = BasisSpec(1.8)
        samples = allowed_samples(spec, self.QUART, spectrum)
        odd = [exact_parity(c) == "odd" for c in spectrum.eigenvectors.T]
        where, values = samples[4]
        size = np.abs(values)
        # state 4's first run of one sign, samples [0, end), is its smallest;
        # `floor` drops it and keeps the second run, the chunk holds it alone
        end, end2 = (np.flatnonzero(values[1:] * values[:-1] < 0.0) + 1)[:2]
        first, second = size[:end].max(), size[end:end2].max()
        floor = math.sqrt(first * second) / size.max()
        chunk = int(where[end])
        drop = int(np.argmax(size[:end]))
        assert where[drop] // chunk < where[np.argmax(size)] // chunk
        assert size[drop] > floor * size[where < chunk].max()  # above the running floor
        assert size[drop] <= floor * size.max()                # below the final floor
        kept = size > floor * size.max()
        changes = [np.count_nonzero(np.diff(np.sign(values[k])))
                   for k in (kept, kept | (np.arange(values.size) == drop))]
        assert changes[0] == changes[1] - 1
        monkeypatch.setattr(spectral, "NODE_TABLE_ENTRIES", chunk * spectrum.dim)
        monkeypatch.setattr(spectral, "DEFAULT_AMPLITUDE_FLOOR", floor)
        got = node_counts(spec, self.QUART, spectrum)
        want = [2 * count_nodes(v, floor) + o for (_, v), o in zip(samples, odd)]
        assert got.tolist() == want
        assert got[4] == 2 * changes[0] == 2

    def test_basis_table_called_once_per_chunk(self, monkeypatch):
        spectrum = solve_spectrum(self.DEEP, C, 1.59369, 69)
        spec = BasisSpec(1.59369)
        turns = np.array([self.DEEP.turning_point(e, mass=1.0) for e in spectrum.eigenvalues])
        step, size = spectral._half_line_grid(spec, turns, spectrum.dim)
        grid = step * np.arange(size)
        # the grid ends inside the basis top, so the pass covers all of it
        assert grid[-1] < math.sqrt((2 * 69 - 1) / 1.59369)
        chunks = []

        def table(spec_, rmax, x):
            chunks.append(np.array(x))
            return basis_table(spec_, rmax, x)

        monkeypatch.setattr(spectral, "basis_table", table)
        monkeypatch.setattr(spectral, "NODE_TABLE_ENTRIES", 512 * 69)
        node_counts(spec, self.DEEP, spectrum)
        assert len(chunks) == math.ceil(grid.size / 512) > 1
        assert np.array_equal(np.concatenate(chunks), grid)

    def test_tail_cut_counts_equal_the_whole_grid(self, monkeypatch):
        # the harmonic turning points lie near 22, the basis top near 6.5:
        # at any chunk size the pass evaluates a prefix of the grid that ends
        # past the basis top, and its counts are those of the whole grid
        spectrum = solve_spectrum(self.FAR, C, 1.87333, 40)
        spec = BasisSpec(1.87333)
        samples = allowed_samples(spec, self.FAR, spectrum)
        turns = np.array([self.FAR.turning_point(e, mass=1.0) for e in spectrum.eigenvalues])
        step, size = spectral._half_line_grid(spec, turns, spectrum.dim)
        grid = step * np.arange(size)
        odd = [exact_parity(c) == "odd" for c in spectrum.eigenvectors.T]
        chunks = []

        def table(spec_, rmax, x):
            chunks.append(np.array(x))
            return basis_table(spec_, rmax, x)

        monkeypatch.setattr(spectral, "basis_table", table)
        want = [2 * count_nodes(values) + o for (_, values), o in zip(samples, odd)]
        assert want == list(range(40))
        for chunk in (None, 700, 16, 1):
            if chunk is not None:
                monkeypatch.setattr(spectral, "NODE_TABLE_ENTRIES", chunk * 40)
            chunks.clear()
            assert node_counts(spec, self.FAR, spectrum).tolist() == want, chunk
            seen = np.concatenate(chunks)
            assert seen.size < grid.size and np.array_equal(seen, grid[:seen.size]), chunk
            assert seen[-1] >= math.sqrt((2 * 40 - 1) / 1.87333), chunk
            # every sample left out lies at or under its state's floor
            for where, values in samples:
                floor = spectral.DEFAULT_AMPLITUDE_FLOOR * np.abs(values).max()
                assert np.all(np.abs(values[where >= seen.size]) <= floor), chunk
        # point by point the pass stops short of half the grid
        assert seen.size < grid.size / 2

    @pytest.mark.parametrize("dim, points", [(8, 16384), (40, 3276), (255, 514),
                                             (256, 512), (300, 512)])
    def test_chunks_follow_the_dim_budget(self, monkeypatch, dim, points):
        # a chunk's table holds at most 512 x 256 entries up to dim 256, and
        # larger dims keep 512 points; omega 1e-6 puts the turning points
        # near 1e6, so the grid holds far more points than any chunk
        assert spectral.NODE_TABLE_ENTRIES == 512 * 256
        pot = PotentialSpec.harmonic(1e-6)
        spectrum = solve_spectrum(pot, C, 1.0, dim)
        sizes = []

        def table(spec_, rmax, x):
            sizes.append(np.size(x))
            return basis_table(spec_, rmax, x)

        monkeypatch.setattr(spectral, "basis_table", table)
        assert node_counts(SPEC1, pot, spectrum).tolist() == list(range(dim))
        assert sizes == [points] * len(sizes)

    def test_turning_points_only_at_the_parity_ends(self, monkeypatch):
        spectrum = solve_spectrum(self.DEEP, C, 1.59369, 69)
        calls = []
        turning_point = PotentialSpec.turning_point

        def spy(pot, energy, *, mass):
            calls.append(energy)
            return turning_point(pot, energy, mass=mass)

        monkeypatch.setattr(PotentialSpec, "turning_point", spy)
        node_counts(BasisSpec(1.59369), self.DEEP, spectrum)
        assert 0 < len(calls) <= 4

    def test_odd_node_at_origin_counted_once(self):
        # harmonic phi_1: the node at 0 lies in the allowed set, sampled as 0
        exact = Spectrum([0.5, 1.5], np.eye(2))
        assert node_counts(SPEC1, HARM, exact).tolist() == [0, 1]
        # deep double well: state 1's node at 0 lies inside the barrier
        spectrum = solve_spectrum(self.DEEP, C, 1.59369, 69)
        assert self.DEEP.value(0.0, mass=1.0) > spectrum.eigenvalues[1]
        assert node_counts(BasisSpec(1.59369), self.DEEP, spectrum)[:2].tolist() == [0, 1]

    def test_mixed_parity_rejected(self):
        c, s = math.cos(0.3), math.sin(0.3)
        mixed = Spectrum([0.5, 1.5], [[c, -s], [s, c]])
        with pytest.raises(ValueError, match="neither exactly even nor exactly odd"):
            node_counts(SPEC1, HARM, mixed)

    def test_state_below_min_v_rejected(self):
        # no point of the grid is allowed at E = -1 < min V, so the state has
        # no sample to count its nodes on
        below = Spectrum([-1.0], [[1.0]])
        with pytest.raises(DegenerateInputError,
                           match="state 0 has no nonzero sample on its allowed set"):
            node_counts(SPEC1, HARM, below)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_exact_diagonal_harmonic(self, dim):
        spectrum = solve_spectrum(HARM, C, 1.0, dim)
        assert node_counts(SPEC1, HARM, spectrum).tolist() == list(range(dim))

import math

import numpy as np
import pytest

from helpers import charpoly_eigenvalues, ql_rotation_by_rotation

from hgritz import (BandedSymMatrix, BasisSpec, ConvergenceError, PotentialSpec, eigh,
                    hamiltonian_matrix)
from hgritz import eigensolver
from hgritz.errors import RangeError


def tridiagonal(diag, offdiag):
    """The dense symmetric tridiagonal matrix with these diagonals."""
    return np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1)


def reduce_block(a):
    """(d, e, betas) of Householder on a copy of the one symmetric block a."""
    d, e, betas = eigensolver._householder_tridiag(a[None].copy())
    return d[0], e[0], betas[0]


def test_two_by_two_closed_form():
    res = eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(res.eigenvalues, [1.0, 3.0], atol=1e-14)
    expect0 = np.array([1.0, -1.0]) / math.sqrt(2.0)
    expect1 = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert min(np.abs(res.eigenvectors[:, 0] - expect0).max(),
               np.abs(res.eigenvectors[:, 0] + expect0).max()) < 1e-14
    assert min(np.abs(res.eigenvectors[:, 1] - expect1).max(),
               np.abs(res.eigenvectors[:, 1] + expect1).max()) < 1e-14


def test_identity():
    res = eigh(np.eye(5))
    np.testing.assert_array_equal(res.eigenvalues, np.ones(5))


def test_harmonic_exact_diagonal_matrix():
    spec = BasisSpec(1.0)
    h = hamiltonian_matrix(spec, PotentialSpec.harmonic(1.0), 5)
    res = eigh(h)
    np.testing.assert_allclose(res.eigenvalues, [0.5, 1.5, 2.5, 3.5, 4.5], atol=1e-14)


def test_tridiagonal_scalar():
    res = eigh(tridiagonal([0.0], []))
    np.testing.assert_array_equal(res.eigenvalues, [0.0])


def test_tridiagonal_hermite_jacobi_order_two():
    res = eigh(tridiagonal([0.0, 0.0], [math.sqrt(0.5)]))
    np.testing.assert_allclose(res.eigenvalues,
                               [-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)],
                               atol=1e-15)


def test_tridiagonal_two_by_two_closed_form():
    a, b = 1.7, -0.4
    res = eigh(tridiagonal([a, a], [b]))
    np.testing.assert_allclose(res.eigenvalues, [a - abs(b), a + abs(b)], atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 34, 50])
def test_random_reconstruction_orthogonality(n):
    rng = np.random.default_rng(1000 + n)
    a = rng.standard_normal((n, n))
    a = a + a.T
    res = eigh(a)
    recon = res.eigenvectors @ np.diag(res.eigenvalues) @ res.eigenvectors.T
    scale = 1.0 + np.abs(a).max()
    assert np.abs(recon - a).max() <= 1e-9 * scale
    assert np.abs(res.eigenvectors.T @ res.eigenvectors - np.eye(n)).max() <= 1e-10
    assert res.residual_norm <= 1e-10 * (1.0 + np.abs(a).sum(axis=1).max())
    # third route: library reference
    np.testing.assert_allclose(res.eigenvalues, np.linalg.eigvalsh(a),
                               atol=1e-11 * scale)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_matches_characteristic_polynomial_bisection(n):
    rng = np.random.default_rng(77 + n)
    a = rng.standard_normal((n, n))
    a = a + a.T
    res = eigh(a)
    roots = charpoly_eigenvalues(a)
    np.testing.assert_allclose(res.eigenvalues, roots, atol=1e-9)


def test_permutation_similarity():
    rng = np.random.default_rng(5)
    n = 17
    a = rng.standard_normal((n, n))
    a = a + a.T
    perm = rng.permutation(n)
    p = np.eye(n)[perm]
    res_a = eigh(a)
    res_p = eigh(p @ a @ p.T)
    np.testing.assert_allclose(res_a.eigenvalues, res_p.eigenvalues, atol=1e-10)


def test_deterministic_and_sign_convention():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((12, 12))
    a = a + a.T
    first = eigh(a)
    second = eigh(a)
    np.testing.assert_array_equal(first.eigenvalues, second.eigenvalues)
    np.testing.assert_array_equal(first.eigenvectors, second.eigenvectors)
    for j in range(12):
        i = int(np.argmax(np.abs(first.eigenvectors[:, j])))
        assert first.eigenvectors[i, j] > 0.0


def test_degenerate_cluster_stays_orthonormal():
    # eigenvectors inside a degenerate cluster are arbitrary up to rotation;
    # only orthonormality and the reconstructed projector are contractual
    a = np.diag([2.0, 2.0, 5.0])
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
    a = q @ a @ q.T
    a = 0.5 * (a + a.T)
    res = eigh(a)
    np.testing.assert_allclose(res.eigenvalues, [2.0, 2.0, 5.0], atol=1e-12)
    recon = res.eigenvectors @ np.diag(res.eigenvalues) @ res.eigenvectors.T
    np.testing.assert_allclose(recon, a, atol=1e-12)


def test_input_validation():
    with pytest.raises(ValueError):
        eigh(np.ones((2, 3)))
    with pytest.raises(ValueError):
        eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        eigh(np.array([[np.nan]]))


@pytest.mark.parametrize("solve", [eigh, eigensolver.eigvalsh], ids=["eigh", "eigvalsh"])
def test_empty_matrix_is_refused(solve):
    with pytest.raises(ValueError, match=r"^matrix must have dim >= 1$"):
        solve(np.zeros((0, 0)))


def test_residual_above_the_gate_raises_with_dim():
    # the residual check of eigh's blocks, handed one vector moved off its
    # eigenvector by 1e-6; the same vectors unmoved pass it
    a = tridiagonal([1.0, 2.0, 3.0], [0.5, 0.5])
    w, v = np.linalg.eigh(a)
    assert eigensolver._finish(a, w, v.copy(), 0)[2] <= 1e-14
    v[:, 1] += 1e-6 * v[:, 0]
    with pytest.raises(ConvergenceError,
                       match=r"^eigen residual 1\.\d{3}e-06 above tolerance for dim 3$") as err:
        eigensolver._finish(a, w, v, 0)
    assert err.value.dim == 3


# -- parity blocks ------------------------------------------------------------

_EPS = np.finfo(float).eps

BLOCK_POTENTIALS = {
    "harmonic": PotentialSpec.harmonic(1.0),
    "quartic": PotentialSpec.quartic(1.0),
    "degree6": PotentialSpec.even_polynomial([0.0, 0.5, 0.2, 0.1]),
    "double_well": PotentialSpec.even_polynomial([0.0, -10.0, 0.5]),
}


def assert_matches_lapack(res, a):
    # per level: 1e-9 relative, or the 10 eps ||H|| that LAPACK itself
    # guarantees where that is larger (a test-only ceiling)
    ref = np.linalg.eigvalsh(a)
    norm = float(np.abs(ref).max())
    gap = np.abs(res.eigenvalues - ref)
    ceiling = np.maximum(1e-9 * np.maximum(1.0, np.abs(ref)), 10.0 * _EPS * norm)
    assert np.all(gap <= ceiling), float((gap / ceiling).max())


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 63, 64, 256])
@pytest.mark.parametrize("name", list(BLOCK_POTENTIALS))
def test_parity_blocks_match_lapack_with_exact_parity(name, dim):
    h = hamiltonian_matrix(BasisSpec(1.5), BLOCK_POTENTIALS[name], dim)
    res = eigh(h)
    a = h.to_dense()
    assert_matches_lapack(res, a)
    v = res.eigenvectors
    even = np.all(v[1::2] == 0.0, axis=0)
    odd = np.all(v[0::2] == 0.0, axis=0)
    assert np.all(even ^ odd)
    assert int(even.sum()) == (dim + 1) // 2
    # H is block diagonal under the parity permutation, so the larger block
    # residual is the residual of the whole matrix
    resid = a @ v - v * res.eigenvalues
    full = float(np.sqrt((resid * resid).sum(axis=0)).max())
    assert full <= res.residual_norm + 16.0 * _EPS * float(np.abs(a).sum(axis=1).max())


def test_near_tie_across_blocks_follows_oscillation_order():
    # odd level 0 lies 4e-16 below even level 0, inside the ascent
    # tolerance of Spectrum, so the even level comes first; odd level 1
    # lies 1e-9 below even level 1, which is a real order and is kept
    d = np.array([1.0, 1.0 - 4e-16, 2.0, 2.0 - 1e-9])
    res = eigh(BandedSymMatrix(4, 2, (d, np.zeros(3), np.zeros(2))))
    np.testing.assert_array_equal(res.eigenvalues, [1.0, 1.0 - 4e-16, 2.0 - 1e-9, 2.0])
    np.testing.assert_array_equal(res.eigenvectors, np.eye(4)[:, [0, 1, 3, 2]])


def test_nonzero_odd_band_takes_the_full_path():
    rng = np.random.default_rng(21)
    n = 40
    bands = tuple(rng.standard_normal(n - k) for k in range(4))
    h = BandedSymMatrix(n, 3, bands)
    res = eigh(h)
    assert_matches_lapack(res, h.to_dense())
    v = res.eigenvectors
    assert np.all(np.abs(v[0::2]).max(axis=0) > 0.0)
    assert np.all(np.abs(v[1::2]).max(axis=0) > 0.0)


def test_dense_hamiltonian_matches_lapack():
    a = hamiltonian_matrix(BasisSpec(1.5), BLOCK_POTENTIALS["quartic"], 30).to_dense()
    res = eigh(a)
    assert_matches_lapack(res, a)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 63, 64, 256])
@pytest.mark.parametrize("name", list(BLOCK_POTENTIALS))
def test_banded_and_dense_input_solve_bit_identically(name, dim):
    h = hamiltonian_matrix(BasisSpec(1.5), BLOCK_POTENTIALS[name], dim)
    banded, dense = eigh(h), eigh(h.to_dense())
    np.testing.assert_array_equal(banded.eigenvalues, dense.eigenvalues)
    np.testing.assert_array_equal(banded.eigenvectors, dense.eigenvectors)
    assert banded.residual_norm == dense.residual_norm


@pytest.mark.parametrize("name", list(BLOCK_POTENTIALS))
def test_entries_past_2_256_solve_scaled_bit_for_bit(name):
    # eigh scales such a matrix down by a power of two, which is exact, so
    # 2^600 H gives 2^600 times the levels and residual of H and its vectors
    h = hamiltonian_matrix(BasisSpec(1.5), BLOCK_POTENTIALS[name], 64).to_dense()
    small, big = eigh(h), eigh(np.ldexp(h, 600))
    np.testing.assert_array_equal(big.eigenvalues, np.ldexp(small.eigenvalues, 600))
    np.testing.assert_array_equal(big.eigenvectors, small.eigenvectors)
    assert big.residual_norm == math.ldexp(small.residual_norm, 600)


def test_eigenvalue_past_the_float_range_is_named():
    with pytest.raises(RangeError, match=r"^the largest eigenvalue = 10\^308\.3 lies "
                                         r"outside the float range$"):
        eigh(np.full((2, 2), 1e308))


def test_tridiagonal_blocks_skip_the_reduction():
    # Householder makes no reflector for a tridiagonal block and hands its
    # diagonals to QL bit for bit.  The harmonic parity blocks, the Hermite
    # Jacobi matrix and a 2 x 2 block are each tridiagonal.
    harmonic = hamiltonian_matrix(BasisSpec(1.5), BLOCK_POTENTIALS["harmonic"], 20)
    jacobi = tridiagonal(np.zeros(30), np.sqrt(np.arange(1, 30) / 2.0))
    pair = np.array([[0.3, -1.2], [-1.2, 2.0]])
    for a, step in ((harmonic.to_dense(), 2), (jacobi, 1), (pair, 1)):
        for p in range(step):
            block = a[p::step, p::step]
            d, e, betas = reduce_block(block)
            assert not betas.any()
            assert d.tobytes() == np.diag(block).tobytes()
            assert e.tobytes() == np.diag(block, 1).tobytes()


def test_tridiagonal_leading_columns_then_dense():
    # Householder skips the leading columns and makes its first reflector
    # in the dense trailing block
    rng = np.random.default_rng(13)
    n, lead = 14, 5
    a = tridiagonal(rng.standard_normal(n), rng.standard_normal(n - 1))
    tail = rng.standard_normal((n - lead, n - lead))
    a[lead:, lead:] += tail + tail.T
    res = eigh(a)
    assert_matches_lapack(res, a)
    assert res.residual_norm <= 1e-10 * (1.0 + np.abs(a).sum(axis=1).max())
    d, e, betas = reduce_block(a)
    assert not betas[:lead].any() and betas[lead] > 0.0
    np.testing.assert_array_equal(d[:lead], np.diag(a)[:lead])


# -- QL against the rotation-by-rotation reference ----------------------------


def ql_inputs(a):
    """(d, e) that eigh hands QL for the symmetric block a."""
    return reduce_block(a)[:2]


def assert_ql_matches_oracle(d, e):
    # QL's eigenvalues are bitwise those of the reference, which rotates
    # row 0 of the identity after every rotation
    d0, e0 = d.copy(), e.copy()
    want_w, _ = ql_rotation_by_rotation(d, e, np.eye(d.size)[:1])
    got_w = eigensolver._ql_implicit(d, e)
    np.testing.assert_array_equal(d, d0)
    np.testing.assert_array_equal(e, e0)
    assert got_w.tobytes() == want_w.tobytes()


@pytest.mark.parametrize("dim", [2, 3, 5, 16, 64, 129, 256])
@pytest.mark.parametrize("name", list(BLOCK_POTENTIALS))
def test_wave_rotations_match_rotation_by_rotation_on_family_blocks(name, dim):
    a = hamiltonian_matrix(BasisSpec(1.5), BLOCK_POTENTIALS[name], dim).to_dense()
    for p in range(2):
        assert_ql_matches_oracle(*ql_inputs(a[p::2, p::2]))


@pytest.mark.parametrize("n", [1, 2, 9, 40, 100])
def test_wave_rotations_match_rotation_by_rotation_on_random_dense(n):
    a = np.random.default_rng(2017 + n).standard_normal((n, n))
    assert_ql_matches_oracle(*ql_inputs(a + a.T))


def test_wave_rotations_on_diagonal_and_split_tridiagonals():
    rng = np.random.default_rng(11)
    d = rng.standard_normal(30)
    # diagonal: no rotation at all
    assert_ql_matches_oracle(d, np.zeros(29))
    # exact zeros in e split T, so sweeps stop short of the last row
    e = rng.standard_normal(29)
    e[[0, 5, 17, 28]] = 0.0
    assert_ql_matches_oracle(d, e)


def test_wave_rotations_through_the_underflow_branch():
    # subnormal entries drive hypot(f, g) to 0 mid-sweep, which ends the
    # sweep early
    assert_ql_matches_oracle(np.array([1e-323, 5e-324, -5e-324, 1e-323, -5e-324, 1e-323]),
                             np.array([1e-323, 1e-323, -5e-324, 2e-323, 5e-324]))
    assert_ql_matches_oracle(np.array([5e-324, 5e-324, 0.0, 0.0]),
                             np.array([5e-324, 5e-324, 1e-323]))


def test_wave_rotations_on_hermite_jacobi_matrix():
    # the Jacobi matrix gauss_hermite_rule solves for oracle-compare at dim 64
    order = 134
    assert_ql_matches_oracle(np.zeros(order), np.sqrt(np.arange(1, order) / 2.0))


# -- clusters of close eigenvalues --------------------------------------------


def wilkinson_plus(copies=1, glue=0.0):
    """W21+ (diagonal |10 - i|, off-diagonals 1), or copies of it glued by glue."""
    d = np.tile(np.abs(np.arange(-10.0, 11.0)), copies)
    e = np.ones(21 * copies - 1)
    e[20::21] = glue
    return tridiagonal(d, e)


def random_symmetric(n, seed):
    a = np.random.default_rng(seed).standard_normal((n, n))
    return a + a.T


def sextic_block(parity, alpha):
    h = hamiltonian_matrix(BasisSpec(alpha), BLOCK_POTENTIALS["degree6"], 512).to_dense()
    return h[parity::2, parity::2]


# each matrix, and how many clusters of close eigenvalues its solve sends to
# inverse iteration: W21+ pairs its top levels to 1e-14, gluing copies of it
# repeats every level, and a sextic block's norm of 3e8 groups its low levels
CLUSTER_CASES = {
    "W21+": (lambda: wilkinson_plus(), 4),
    "glued W21+ 1e-10": (lambda: wilkinson_plus(5, 1e-10), 17),
    "glued W21+ 1e-14": (lambda: wilkinson_plus(5, 1e-14), 17),
    "repeated diagonal": (lambda: np.diag([1.0, 2.0, 1.0, 3.0, 2.0, 1.0, 1.0]), 0),
    "all ones": (lambda: np.ones((40, 40)), 0),
    "random dense": (lambda: random_symmetric(120, 31), 0),
    "sextic even 256 block": (lambda: sextic_block(0, 0.7), 1),
    "sextic odd 256 block": (lambda: sextic_block(1, 0.7), 1),
}


def ql_levels(a):
    """Ascending values-only QL eigenvalues of each parity block of a, or of a."""
    step = 2 if a.shape[0] > 1 and not a[0::2, 1::2].any() else 1
    levels = [eigensolver._ql_implicit(*ql_inputs(a[p::step, p::step])) for p in range(step)]
    return np.sort(np.concatenate(levels))


@pytest.mark.parametrize("name", list(CLUSTER_CASES))
def test_clustered_spectra_pass_every_gate(name, monkeypatch):
    build, clusters = CLUSTER_CASES[name]
    a = build()
    seen = []
    cluster_vectors = eigensolver._cluster_vectors

    def spy(d, e, lam, bounds):
        seen.append(len(bounds) - 1)
        return cluster_vectors(d, e, lam, bounds)

    monkeypatch.setattr(eigensolver, "_cluster_vectors", spy)
    res = eigh(a)
    assert sum(seen) == clusters
    assert_matches_lapack(res, a)
    assert res.residual_norm <= 1e-10 * (1.0 + np.abs(a).sum(axis=1).max())
    v = res.eigenvectors
    assert np.abs(v.T @ v - np.eye(a.shape[0])).max() <= 1e-10
    assert res.eigenvalues.tobytes() == ql_levels(a).tobytes()


def test_tiny_clustered_matrix_solves_scaled_bit_for_bit():
    # each piece of T is solved scaled by a power of two to a norm near 1,
    # so inverse iteration on 2^-900 times glued W21+ cannot overflow, and
    # it gives the same vectors
    a = wilkinson_plus(5, 1e-14)
    small, tiny = eigh(a), eigh(np.ldexp(a, -900))
    assert tiny.eigenvalues.tobytes() == np.ldexp(small.eigenvalues, -900).tobytes()
    assert tiny.eigenvectors.tobytes() == small.eigenvectors.tobytes()


def test_exhausted_sweep_budget_raises_with_dim_and_index(monkeypatch):
    # e[0] = 0 deflates level 0 at once, so the first sweep is at index 1
    monkeypatch.setattr(eigensolver, "_MAX_SWEEPS", 0)
    with pytest.raises(ConvergenceError) as err:
        eigh(tridiagonal([1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 1.0]))
    assert (err.value.dim, err.value.index) == (4, 1)


def test_spectrum_checks_orthonormality_past_one_strip():
    n = eigensolver._GRAM_STRIP + 5
    q = np.linalg.qr(np.random.default_rng(4).standard_normal((n, n)))[0]
    assert eigensolver.Spectrum(np.arange(n, dtype=float), q).dim == n
    # break orthogonality between a column of the second strip and one of the first
    q[:, n - 1] += 1e-6 * q[:, 0]
    with pytest.raises(ValueError, match="orthonormal"):
        eigensolver.Spectrum(np.arange(n, dtype=float), q)


# -- eigvalsh: eigh's eigenvalues without eigenvectors -------------------------


def assert_eigvalsh_is_eighs(a):
    w = eigensolver.eigvalsh(a)
    assert w.tobytes() == eigh(a).eigenvalues.tobytes()
    return w


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.8, 3.0])
@pytest.mark.parametrize("name", list(BLOCK_POTENTIALS))
def test_eigvalsh_is_eighs_bit_for_bit_on_hamiltonians(name, alpha):
    for dim in [*range(1, 17), 21, 30, 31, 32, 42, 47, 63, 64]:
        assert_eigvalsh_is_eighs(hamiltonian_matrix(BasisSpec(alpha), BLOCK_POTENTIALS[name],
                                                    dim))


@pytest.mark.parametrize("n", [2, 9, 40, 100])
def test_eigvalsh_is_eighs_on_dense_random_matrices(n):
    a = random_symmetric(n, 100 + n)
    assert a[0::2, 1::2].any()  # no parity split: one block
    assert_eigvalsh_is_eighs(a)


@pytest.mark.parametrize("name", list(BLOCK_POTENTIALS))
def test_eigvalsh_past_2_256_is_scaled_bit_for_bit(name):
    h = hamiltonian_matrix(BasisSpec(1.5), BLOCK_POTENTIALS[name], 64).to_dense()
    big = assert_eigvalsh_is_eighs(np.ldexp(h, 600))
    assert big.tobytes() == np.ldexp(eigensolver.eigvalsh(h), 600).tobytes()


def test_eigvalsh_of_the_harmonic_oscillator_at_the_exact_diagonal_width():
    h = hamiltonian_matrix(BasisSpec(1.0), BLOCK_POTENTIALS["harmonic"], 40)
    np.testing.assert_array_equal(assert_eigvalsh_is_eighs(h), np.arange(40) + 0.5)


def test_eigvalsh_keeps_eighs_doublet_order_and_errors():
    d = np.array([1.0, 1.0 - 4e-16, 2.0, 2.0 - 1e-9])
    assert_eigvalsh_is_eighs(BandedSymMatrix(4, 2, (d, np.zeros(3), np.zeros(2))))
    with pytest.raises(RangeError, match=r"^the largest eigenvalue = 10\^308\.3"):
        eigensolver.eigvalsh(np.full((2, 2), 1e308))
    for bad in (np.ones((2, 3)), np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([[np.nan]])):
        with pytest.raises(ValueError):
            eigensolver.eigvalsh(bad)


def test_eigvalsh_on_clustered_and_split_spectra():
    for build, _ in CLUSTER_CASES.values():
        assert_eigvalsh_is_eighs(build())


def test_certificate_rejects_a_level_moved_by_1e6_of_the_norm(monkeypatch):
    a = hamiltonian_matrix(BasisSpec(1.5), BLOCK_POTENTIALS["quartic"], 30).to_dense()
    ql = eigensolver._ql_implicit
    norm = float(np.abs(np.linalg.eigvalsh(a)).max())

    def moved(d, e):
        values = ql(d, e)
        values[3] += 1e-6 * norm
        return values

    monkeypatch.setattr(eigensolver, "_ql_implicit", moved)
    with pytest.raises(ConvergenceError, match=r"Sturm count .* for dim 15$") as err:
        eigensolver.eigvalsh(a)
    assert err.value.dim == 15


def test_certificate_rejects_a_reduction_that_moves_the_norm(monkeypatch):
    reduce = eigensolver._householder_tridiag

    def stretched(a):
        d, e, betas = reduce(a)
        return d, e * (1.0 + 1e-6), betas

    monkeypatch.setattr(eigensolver, "_householder_tridiag", stretched)
    with pytest.raises(ConvergenceError, match=r"Frobenius norm .* for dim 40$") as err:
        eigensolver.eigvalsh(random_symmetric(40, 3))
    assert err.value.dim == 40


@pytest.mark.parametrize("case", ["random", "zero pivots", "split with zero pivots", "tiny"])
def test_sturm_counts_match_lapack(case, monkeypatch):
    rng = np.random.default_rng(8)
    d, e = rng.standard_normal(12), rng.standard_normal(11)
    if case == "zero pivots":
        # x = d[0] makes the first pivot exactly 0 and the second infinite
        d[:] = 0.5
    if case == "split with zero pivots":
        # e[0] = 0 after that zero pivot: 0 / 0 sends the count to the guarded pass
        e[0] = 0.0
    guarded = []
    floored = eigensolver._floored
    monkeypatch.setattr(eigensolver, "_floored",
                        lambda x, pivmin: guarded.append(1) or floored(x, pivmin))
    if case == "tiny":
        d, e = np.ldexp(d, -1000), np.ldexp(e, -1000)
    a = tridiagonal(d, e)
    levels = np.linalg.eigvalsh(a)
    x = np.concatenate([levels - 1e-9 * np.abs(levels).max(), d[:1], [0.0],
                        levels + 1e-9 * np.abs(levels).max()])
    expect = (levels[:, None] < x).sum(axis=0)
    if case == "split with zero pivots":
        # x = d[0] is the level of the split-off 1 x 1 piece, which counts as
        # below x, as a zero pivot counts as negative
        expect[levels.size] = 1 + (np.linalg.eigvalsh(a[1:, 1:]) < d[0]).sum()
    counts = eigensolver._sturm_counts(d[None], e[None], x[None], np.zeros(1, dtype=int))
    np.testing.assert_array_equal(counts[0], expect)
    assert bool(guarded) == (case == "split with zero pivots")



def test_sturm_counts_of_a_padded_stack_are_each_members_alone():
    # members of 12, 7, 3 and 1 rows at scales 2^-1000 to 2^600, one of them
    # taking the guarded pass (a zero pivot before an e of 0), padded in
    # front to 12 rows; each member's counts are its counts alone
    rng = np.random.default_rng(21)
    members = []
    for size, exponent in ((12, 0), (7, -1000), (3, 600), (1, 0), (7, 0)):
        members.append((np.ldexp(rng.standard_normal(size), exponent),
                        np.ldexp(rng.standard_normal(size - 1), exponent)))
    d, e = members[4]
    d[:] = 0.5
    e[0] = 0.0
    x = [np.concatenate([np.linalg.eigvalsh(tridiagonal(d, e)), d[:1], [0.0]]) for d, e in members]
    x = [np.resize(row, 14) for row in x]
    alone = [eigensolver._sturm_counts(d[None], e[None], row[None], np.zeros(1, dtype=int))[0]
             for (d, e), row in zip(members, x)]
    pads = np.array([12 - d.size for d, _ in members])
    stacked = eigensolver._sturm_counts(
        np.array([np.concatenate([np.zeros(p), d]) for (d, _), p in zip(members, pads)]),
        np.array([np.concatenate([np.zeros(p), e]) for (_, e), p in zip(members, pads)]),
        np.array(x), pads)
    np.testing.assert_array_equal(stacked, alone)

# -- columns whose squared norm is not a normal float -------------------------


@pytest.mark.parametrize("coupling", [1e-155, 1e-160])
def test_reflector_from_a_column_whose_squared_norm_is_subnormal(coupling):
    # the first column below the diagonal is (0, c, 0), whose squared norm
    # 1e-310 or 1e-320 is subnormal: 2 / ||v||^2 overflowed, and QL ran out
    # of sweeps on the NaNs that followed
    a = np.array([[1.0, 0.0, coupling, 0.0], [0.0, 2.0, 1.0, 0.0],
                  [coupling, 1.0, 3.0, 1.0], [0.0, 0.0, 1.0, 4.0]])
    want = np.linalg.eigvalsh(a)
    np.testing.assert_allclose(assert_eigvalsh_is_eighs(a), want, rtol=1e-14)
    d, e, betas = reduce_block(a)
    assert betas[0] > 0.0 and e[0] == pytest.approx(-coupling, rel=1e-15)


@pytest.mark.parametrize("exponent", [-580, -900, -1000])
def test_matrices_whose_squares_underflow_solve_scaled_bit_for_bit(exponent):
    # every entry's square underflows, so every column's squared norm was 0
    # and its reflector was skipped: the levels came out wrong.  Each column
    # is now scaled by a power of two first, which is exact throughout.
    a = random_symmetric(9, 5)
    tiny = np.ldexp(a, exponent)
    assert not (tiny * tiny).any()
    w = assert_eigvalsh_is_eighs(tiny)
    assert w.tobytes() == np.ldexp(eigensolver.eigvalsh(a), exponent).tobytes()
    assert eigh(tiny).eigenvectors.tobytes() == eigh(a).eigenvectors.tobytes()


# -- the values-only driver: levels now, certificates later --------------------


def hamiltonian(name, alpha, dim):
    return hamiltonian_matrix(BasisSpec(alpha), BLOCK_POTENTIALS[name], dim)


def builds_of(matrices):
    """A build for each matrix, which returns it."""
    return [lambda m=m: m for m in matrices]


def solved(solver, builds, together):
    """Each build's levels from the solver, certified before they are returned.

    together: every build in one solve call, as a table or a grid solves
    them; else one per call, as a search does.
    """
    if together:
        levels = solver.solve(builds)
    else:
        levels = [w for build in builds for w in solver.solve([build])]
    solver.certify()
    assert solver.certified == len(levels)
    return levels


FAMILIES = {
    # odd dims pad their odd block; every dim from 1 pads blocks of 1 to 9
    "odd and mixed dims": lambda: [hamiltonian("quartic", 1.3, d) for d in range(1, 18)],
    "dense, no split": lambda: [random_symmetric(n, 40 + n) for n in (2, 5, 9, 17)],
    "split and unsplit": lambda: [hamiltonian("double_well", 2.0, 11), random_symmetric(7, 3),
                                  hamiltonian("degree6", 0.7, 30), np.eye(1)],
    # entries past 2^256 scale a member down by its own power of two
    "scale shifts": lambda: [hamiltonian_matrix(BasisSpec(0.01), PotentialSpec.quartic(1e75), d)
                             for d in (3, 8, 13)] + [hamiltonian("quartic", 1.5, 13)],
    # harmonic blocks at the exact-diagonal width and off it are tridiagonal
    "tridiagonal blocks": lambda: [hamiltonian("harmonic", alpha, d)
                                   for alpha in (1.0, 1.5) for d in (2, 5, 16)]
                                  + [random_symmetric(6, 2)],
}


def assert_solved_is_eigvalsh_per_matrix(matrices, entries, together, monkeypatch):
    # one shared pass for each run of a block size, or one pass per stack
    monkeypatch.setattr(eigensolver, "_CERTIFY_ENTRIES", entries)
    want = [eigensolver.eigvalsh(m).tobytes() for m in matrices]
    got = solved(eigensolver._LevelSolver(), builds_of(matrices), together)
    assert [w.tobytes() for w in got] == want


@pytest.mark.parametrize("name", list(FAMILIES))
def test_family_is_eigvalsh_per_matrix_bit_for_bit(name, monkeypatch):
    # the whole family in one solve call, as a table or a grid solves it
    for entries in (1 << 15, 1):
        assert_solved_is_eigvalsh_per_matrix(FAMILIES[name](), entries, True, monkeypatch)


@pytest.mark.parametrize("entries", [1 << 15, 1])
@pytest.mark.parametrize("name", list(FAMILIES))
def test_deferred_levels_are_eigvalsh_per_matrix_bit_for_bit(name, entries, monkeypatch):
    # one matrix per solve call, as a search solves its widths
    assert_solved_is_eigvalsh_per_matrix(FAMILIES[name](), entries, False, monkeypatch)


def test_family_splits_its_stacks_at_the_entry_cap(monkeypatch):
    reduce = eigensolver._householder_tridiag
    stacks = []

    def counted(a):
        stacks.append(a.shape)
        return reduce(a)

    monkeypatch.setattr(eigensolver, "_householder_tridiag", counted)
    matrices = [hamiltonian("degree6", 1.5, d) for d in (4, 9, 10, 16, 3)]
    want = [eigensolver.eigvalsh(m).tobytes() for m in matrices]
    for entries, split in [(1 << 19, [(10, 8, 8)]),
                           # 2 x 2^2 + 2 x 5^2 > 40: each stack holds the
                           # matrices that fit, or one
                           (40, [(2, 2, 2), (2, 5, 5), (2, 5, 5), (2, 8, 8), (2, 2, 2)])]:
        monkeypatch.setattr(eigensolver, "_STACK_ENTRIES", entries)
        stacks.clear()
        got = solved(eigensolver._LevelSolver(), builds_of(matrices), True)
        assert [w.tobytes() for w in got] == want
        assert stacks == split


def test_deferred_levels_share_passes_of_one_block_size(monkeypatch):
    shapes = []
    certify = eigensolver._certify
    monkeypatch.setattr(eigensolver, "_certify",
                        lambda reduced: shapes.append(reduced.d.shape) or certify(reduced))
    # dims 16 and 15 both stack blocks of 8 rows, dim 9 blocks of 5
    matrices = builds_of([hamiltonian("quartic", alpha, dim) for dim, alpha in
                          [(16, 1.0), (16, 1.5), (15, 2.0), (16, 2.5), (9, 1.0), (9, 2.0)]])
    solved(eigensolver._LevelSolver(), matrices, False)
    assert shapes == [(8, 8), (4, 5)]
    # solved together, they share one stack, padded to 8 rows, and one pass
    shapes.clear()
    solved(eigensolver._LevelSolver(), matrices, True)
    assert shapes == [(12, 8)]
    # 2 blocks x 8 x 16 pivots per dim-16 matrix: two fit under 512
    monkeypatch.setattr(eigensolver, "_CERTIFY_ENTRIES", 512)
    shapes.clear()
    solved(eigensolver._LevelSolver(), matrices, False)
    assert shapes == [(4, 8), (4, 8), (4, 5)]


def failure(run):
    """(type, text, dim, index) of what run raises."""
    with pytest.raises(Exception) as err:
        run()
    return (type(err.value), str(err.value), getattr(err.value, "dim", None),
            getattr(err.value, "index", None))


def raising_build():
    raise OverflowError("the build")


# the build of each member and what it fails by: QL of blocks of 7 stalls,
# a level of blocks of 15 moves by 1e-6 of the norm, a 2 x 3 array is
# refused, one build raises, and "range and certificate" is one block whose
# certificate fails and whose levels leave the float range when unscaled
FAILING = {
    "ok": lambda: hamiltonian("quartic", 1.5, 10),
    "ql block 0": lambda: hamiltonian("quartic", 1.5, 13),  # blocks of 7 and 6
    "ql block 1": lambda: hamiltonian("quartic", 1.5, 15),  # blocks of 8 and 7
    "certificate": lambda: hamiltonian("quartic", 1.5, 30),
    "refused": lambda: np.ones((2, 3)),
    "range": lambda: np.full((2, 2), 1e308),
    "range and certificate": lambda: np.full((3, 3), 1e308),
    "build": raising_build,
}


MEMBERS = [
    ("ok", "ql block 1", "certificate", "ql block 0"),
    ("ok", "ok", "certificate", "ql block 0"),
    ("ok", "certificate", "refused"),
    ("ok", "refused", "ql block 0"),
    ("ql block 0", "refused"),
    ("ok", "range", "ql block 1"),
    ("ok", "certificate", "range"),
    ("ok", "range and certificate"),
    ("ok", "ok", "refused"),
    ("ok", "build"),
    ("ok", "certificate", "build", "ql block 0"),
]


def assert_solved_raises_what_the_per_matrix_loop_raises_first(members, together, monkeypatch):
    ql = eigensolver._ql_implicit
    norm = {15: float(np.abs(np.linalg.eigvalsh(hamiltonian("quartic", 1.5, 30).to_dense())).max())}

    def faulty(d, e):
        if d.size == 7:
            raise ConvergenceError(f"QL stalled for dim {d.size}", dim=d.size, index=2)
        values = ql(d, e)
        if d.size in norm:
            values[3] += 1e-6 * norm[d.size]
        if d.size == 3:
            values[0] += 1e-3 * np.abs(values).max()
        return values

    monkeypatch.setattr(eigensolver, "_ql_implicit", faulty)
    failing = [FAILING[name] for name in members]
    clean = []
    want = failure(lambda: [clean.append(eigensolver.eigvalsh(build())) for build in failing])
    solver = eigensolver._LevelSolver()
    assert failure(lambda: solved(solver, failing, together)) == want
    # the failure belongs to the matrix after the ones certified clean
    assert solver.certified == len(clean)
    if "range and certificate" in members:
        assert want[0] is ConvergenceError and "Sturm count" in want[1]
    return clean


@pytest.mark.parametrize("members", MEMBERS)
def test_family_raises_what_the_per_matrix_loop_raises_first(members, monkeypatch):
    # the whole family in one solve call
    clean = assert_solved_raises_what_the_per_matrix_loop_raises_first(members, True, monkeypatch)
    # the members before the first failing one, alone, solve to their levels
    levels = solved(eigensolver._LevelSolver(), [FAILING[name] for name in members[:len(clean)]], True)
    assert [w.tobytes() for w in levels] == [w.tobytes() for w in clean]


@pytest.mark.parametrize("members", MEMBERS)
def test_deferred_levels_raise_what_the_per_matrix_loop_raises_first(members, monkeypatch):
    # one matrix per solve call
    assert_solved_raises_what_the_per_matrix_loop_raises_first(members, False, monkeypatch)

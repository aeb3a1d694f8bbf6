import math

import numpy as np
import pytest

from helpers import charpoly_eigenvalues

from hgritz import (BandedSymMatrix, BasisSpec, PotentialSpec, eigh, eigh_tridiagonal,
                    hamiltonian_matrix)


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
    res = eigh_tridiagonal([0.0], [])
    np.testing.assert_array_equal(res.eigenvalues, [0.0])


def test_tridiagonal_hermite_jacobi_order_two():
    res = eigh_tridiagonal([0.0, 0.0], [math.sqrt(0.5)])
    np.testing.assert_allclose(res.eigenvalues,
                               [-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)],
                               atol=1e-15)


def test_tridiagonal_two_by_two_closed_form():
    a, b = 1.7, -0.4
    res = eigh_tridiagonal([a, a], [b])
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
    with pytest.raises(ValueError):
        eigh_tridiagonal([1.0, 2.0], [0.5, 0.5])


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


def test_tridiagonal_blocks_skip_the_reduction():
    # the harmonic parity blocks are tridiagonal, so each goes to QL alone
    # and gives the bits of eigh_tridiagonal on the same block
    h = hamiltonian_matrix(BasisSpec(1.5), BLOCK_POTENTIALS["harmonic"], 20)
    res = eigh(h)
    for p in (0, 1):
        block = eigh_tridiagonal(h.bands[0][p::2], h.bands[2][p::2])
        rows = res.eigenvectors[p::2]
        cols = np.any(rows != 0.0, axis=0)
        np.testing.assert_array_equal(res.eigenvalues[cols], block.eigenvalues)
        np.testing.assert_array_equal(rows[:, cols], block.eigenvectors)

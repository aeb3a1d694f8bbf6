import math

import numpy as np
import pytest

from helpers import (HERMITE_EVAL_MAX, basis_table_decimal, hermite_eval,
                     x_recurrence_coeffs)

import hgritz.quadrature as quadrature
from hgritz import (BasisSpec, Constants, MAX_INDEX, PotentialSpec, basis_table,
                    gauss_hermite_rule)

SPEC1 = BasisSpec(1.0)


def basis_row(spec, r, x):
    """phi_r on x: row r of basis_table."""
    return basis_table(spec, r, x)[r]


def oracle_derivative(spec, r, order):
    """(x, phi_r'(x)) at the nodes of a rule of `order`, as the quadrature oracle forms it."""
    rule = gauss_hermite_rule(order)
    tables = quadrature._OracleTables(spec, PotentialSpec.harmonic(1.0), rule, [r])
    return rule.nodes / math.sqrt(spec.alpha), tables.dphi[0]


# explicit low-order Hermite polynomials, the textbook cross-check route
EXPLICIT_H = {
    0: lambda y: np.ones_like(y),
    1: lambda y: 2.0 * y,
    2: lambda y: 4.0 * y**2 - 2.0,
    3: lambda y: 8.0 * y**3 - 12.0 * y,
    4: lambda y: 16.0 * y**4 - 48.0 * y**2 + 12.0,
}


def test_hermite_trivial_values():
    assert hermite_eval(0, 3.7) == 1.0
    assert hermite_eval(1, 0.5) == 1.0


def test_hermite_matches_explicit_polynomials():
    y = np.linspace(-3.0, 3.0, 41)
    for s, closed in EXPLICIT_H.items():
        np.testing.assert_allclose(hermite_eval(s, y), closed(y), rtol=1e-13, atol=1e-12)
    # frozen value from the explicit cubic: 8 - 12
    assert hermite_eval(3, 1.0) == -4.0


def test_hermite_parity():
    y = np.linspace(0.1, 4.0, 17)
    for s in range(HERMITE_EVAL_MAX + 1):
        np.testing.assert_allclose(hermite_eval(s, -y), (-1.0) ** s * hermite_eval(s, y),
                                   rtol=1e-13)


def test_hermite_index_errors():
    with pytest.raises(ValueError):
        hermite_eval(HERMITE_EVAL_MAX + 1, 0.0)
    with pytest.raises(ValueError):
        hermite_eval(-1, 0.0)
    with pytest.raises(TypeError):
        hermite_eval(2.0, 0.0)


def test_basis_value_at_origin():
    assert basis_row(SPEC1, 0, 0.0) == pytest.approx(math.pi ** -0.25, rel=1e-14)
    assert basis_row(SPEC1, 1, 0.0) == 0.0


def test_basis_value_gaussian_decay():
    assert abs(basis_row(BasisSpec(4.0), 0, 10.0)) < 1e-80


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_basis_value_matches_closed_form(alpha):
    # independent route: explicit normalization constant times H_r
    spec = BasisSpec(alpha)
    x = np.linspace(-3.0, 3.0, 31)
    for r in range(13):
        norm = (alpha / math.pi) ** 0.25 / math.sqrt(2.0**r * math.factorial(r))
        direct = norm * hermite_eval(r, x * math.sqrt(alpha)) * np.exp(-0.5 * alpha * x * x)
        np.testing.assert_allclose(basis_row(spec, r, x), direct, rtol=1e-12, atol=1e-13)


def test_basis_parity_exact():
    spec = BasisSpec(0.8)
    x = np.linspace(0.05, 10.0, 57)
    for r in range(51):
        left = basis_row(spec, r, -x)
        right = (-1.0) ** r * basis_row(spec, r, x)
        np.testing.assert_allclose(left, right, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("r", [0, 1, 2, 5, 17, 33, 50])
def test_x_recurrence_identity_pointwise(r):
    alpha = 1.3
    spec = BasisSpec(alpha)
    up, down = x_recurrence_coeffs(r, alpha)
    x = np.linspace(-6.0, 6.0, 100)
    lhs = x * basis_row(spec, r, x)
    rhs = up * basis_row(spec, r + 1, x)
    if r > 0:
        rhs = rhs + down * basis_row(spec, r - 1, x)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_x_recurrence_coeff_values():
    assert x_recurrence_coeffs(0, 2.0) == (0.5, 0.0)
    up, down = x_recurrence_coeffs(3, 1.0)
    assert up == pytest.approx(math.sqrt(4.0 / 2.0), rel=1e-15)
    assert down == pytest.approx(math.sqrt(3.0 / 2.0), rel=1e-15)


@pytest.mark.parametrize("alpha,r", [(1.0, 0), (1.0, 1), (0.5, 4), (2.0, 9), (1.0, 25)])
def test_derivative_matches_finite_differences(alpha, r):
    # the quadrature oracle's derivative ladder, at the nodes of its rule
    spec = BasisSpec(alpha)
    h = 1e-5
    x, exact = oracle_derivative(spec, r, 2 * r + 8)
    fd = (basis_row(spec, r, x + h) - basis_row(spec, r, x - h)) / (2.0 * h)
    # away from the extrema, so the relative comparison is meaningful
    mask = np.abs(exact) > 1e-3
    assert mask.sum() >= 4
    np.testing.assert_allclose(exact[mask], fd[mask], rtol=1e-6)


def test_derivative_at_origin():
    # an odd rule's middle node is 0
    x, slope = oracle_derivative(SPEC1, 0, 3)
    assert x[1] == 0.0 and slope[1] == 0.0
    # phi_1 = sqrt(2 alpha) x phi_0, so its slope at 0 is sqrt(2) pi^(-1/4);
    # the finite-difference oracle certifies the same number
    expected = math.sqrt(2.0) * math.pi ** -0.25
    _, slope = oracle_derivative(SPEC1, 1, 3)
    assert slope[1] == pytest.approx(expected, rel=1e-13)
    h = 1e-5
    fd = (basis_row(SPEC1, 1, h) - basis_row(SPEC1, 1, -h)) / (2.0 * h)
    assert slope[1] == pytest.approx(fd[0], rel=1e-8)


@pytest.mark.parametrize("r", [0, 1, 5, 17, 50])
def test_node_structure(r):
    alpha = 1.7
    spec = BasisSpec(alpha)
    half = math.sqrt((2 * r + 1) / alpha) + 5.0 / math.sqrt(alpha)
    x = np.linspace(-half, half, 4001)
    v = basis_row(spec, r, x)
    kept = v[np.abs(v) > 1e-10 * np.abs(v).max()]
    signs = np.sign(kept)
    assert int(np.count_nonzero(signs[1:] != signs[:-1])) == r


def test_no_overflow_high_index():
    spec = BasisSpec(4.0)
    x = np.linspace(-10.0, 10.0, 201)  # |x sqrt(alpha)| <= 20
    v = basis_row(spec, 200, x)
    assert np.all(np.isfinite(v))
    assert np.abs(v).max() < 10.0


def test_basis_table_consistent_with_basis_value():
    # row r is the same whatever rows follow it
    spec = BasisSpec(0.7)
    x = np.linspace(-2.0, 2.0, 9)
    table = basis_table(spec, 6, x)
    assert table.shape == (7, 9)
    for r in range(7):
        np.testing.assert_array_equal(table[r], basis_row(spec, r, x))


def test_spec_validation():
    with pytest.raises(ValueError):
        BasisSpec(0.0)
    with pytest.raises(ValueError):
        BasisSpec(-1.0)
    with pytest.raises(ValueError):
        BasisSpec(1.0, hbar=0.0)
    with pytest.raises(ValueError):
        BasisSpec(1.0, mass=-2.0)
    with pytest.raises(ValueError):
        BasisSpec(float("nan"))
    # a bool or a string is no real, though float() takes both
    with pytest.raises(ValueError, match="^alpha must be a positive real, got True$"):
        BasisSpec(True)
    with pytest.raises(ValueError, match="^hbar must be a positive real, got '1'$"):
        Constants(hbar="1")


def test_index_cap():
    with pytest.raises(ValueError, match=f"index {MAX_INDEX} above cap {MAX_INDEX}"):
        basis_table(SPEC1, MAX_INDEX, 0.0)
    with pytest.raises(ValueError, match="index must be non-negative"):
        basis_table(SPEC1, -1, 0.0)
    with pytest.raises(TypeError, match="index must be an integer"):
        basis_table(SPEC1, 2.0, 0.0)


def test_grid_of_two_dimensions_is_refused():
    # a 2 x 2 grid once failed inside the recurrence, on numpy's broadcast
    with pytest.raises(ValueError, match=r"one-dimensional, got shape \(2, 2\)"):
        basis_table(SPEC1, 3, np.zeros((2, 2)))
    # a scalar is a grid of one point, with the same bits
    x = np.linspace(-3.0, 3.0, 7)
    table = basis_table(SPEC1, 3, x)
    assert table.shape == (4, 7)
    for k, point in enumerate(x.tolist()):
        assert basis_table(SPEC1, 3, point).tobytes() == table[:, k:k + 1].tobytes()


def _plain_table(spec, rmax, x):
    """The recurrence seeded with phi_0 as a plain double, for bit comparison."""
    y = np.asarray(x, dtype=float) * math.sqrt(spec.alpha)
    out = np.empty((rmax + 1, y.size))
    out[0] = (spec.alpha / math.pi) ** 0.25 * np.exp(-0.5 * y * y)
    out[1] = math.sqrt(2.0) * y * out[0]
    for k in range(1, rmax):
        out[k + 1] = (math.sqrt(2.0) * y * out[k] - math.sqrt(k) * out[k - 1]) / math.sqrt(k + 1)
    return out


def test_basis_table_past_seed_underflow_matches_decimal():
    # alpha x^2 = 1514, 1620 and 1960: exp(-alpha x^2 / 2) is 0 in doubles,
    # yet phi_1023 is O(0.1) out to its turning point x = 33.7
    spec = BasisSpec(1.8)
    x = [29.0, 30.0, 33.0]
    got = basis_table(spec, 1023, x)
    want = basis_table_decimal(1.8, 1023, x)
    np.testing.assert_allclose(got[1023], [-0.13149048385, 0.19427940715, 0.15198688226],
                               rtol=1e-10)
    np.testing.assert_allclose(got[1023], want[1023], rtol=1e-10)
    # every row against its running envelope, so rows near a node count too
    envelope = np.maximum.accumulate(np.abs(want), axis=0)
    normal = envelope > np.finfo(float).tiny
    assert np.all(np.abs(got - want)[normal] <= 1e-10 * envelope[normal])
    for r in (0, 700, 1022):
        np.testing.assert_array_equal(basis_row(spec, r, x), got[r])


def test_basis_table_bits_unchanged_where_seed_is_normal():
    spec = BasisSpec(4.0)
    x = np.linspace(-22.0, 22.0, 221)
    got = basis_table(spec, 300, x)
    plain = _plain_table(spec, 300, x)
    normal = plain[0] >= np.finfo(float).tiny
    assert 0 < normal.sum() < x.size
    np.testing.assert_array_equal(got[:, normal], plain[:, normal])
    # past the underflow the plain seed loses the rows the carried one keeps
    want = basis_table_decimal(4.0, 300, x[~normal])
    envelope = np.maximum.accumulate(np.abs(want), axis=0)[300]
    assert np.all(np.abs(got[300, ~normal] - want[300]) <= 1e-10 * envelope)
    assert not np.all(np.abs(plain[300, ~normal] - want[300]) <= 1e-10 * envelope)


def _stacked_rows(spec, rmax, x):
    """The recurrence row by row in fresh arrays, with the carried exponent, stacked.

    The reference for basis_table's in-place rows: each row is
    (sq2y * phi_k - sqrt(k) * phi_{k-1}) / sqrt(k + 1) in its own temporaries.
    """
    y = np.asarray(x, dtype=float) * math.sqrt(spec.alpha)
    sq2y = math.sqrt(2.0) * y
    cur = (spec.alpha / math.pi) ** 0.25 * np.exp(-0.5 * y * y)
    deep = np.flatnonzero(cur < np.finfo(float).tiny)
    with np.errstate(over="ignore"):
        log2_phi0 = (0.25 * math.log(spec.alpha / math.pi) - 0.5 * y[deep] ** 2) / math.log(2.0)
    exponent = np.maximum(np.floor(log2_phi0), -(2**30))
    m_cur = np.exp2(log2_phi0 - exponent)
    m_below = np.zeros_like(m_cur)
    exponent = exponent.astype(np.int64)
    cur[deep] = np.ldexp(m_cur, exponent)
    below = np.zeros_like(cur)
    rows = [cur]
    for k in range(rmax):
        below, cur = cur, (sq2y * cur - math.sqrt(k) * below) / math.sqrt(k + 1)
        m_below, m_cur = m_cur, (sq2y[deep] * m_cur - math.sqrt(k) * m_below) / math.sqrt(k + 1)
        big = np.abs(m_cur) > 2.0**256
        m_cur[big] = np.ldexp(m_cur[big], -256)
        m_below[big] = np.ldexp(m_below[big], -256)
        exponent[big] += 256
        cur[deep] = np.ldexp(m_cur, exponent)
        rows.append(cur)
    return np.array(rows)


@pytest.mark.parametrize("alpha, x, rmax", [
    (1.8, np.linspace(-20.0, 20.0, 161), 300),     # alpha x^2 <= 720: no carried point
    (1.8, np.linspace(-40.0, 40.0, 161), 300),     # straddles alpha x^2 = 1416
    (4.0, np.linspace(19.0, 60.0, 83), 300),       # alpha x^2 >= 1444: every point carried
    (0.7, np.linspace(-60.0, 60.0, 13), MAX_INDEX - 1),
], ids=["below", "straddling", "above", "index-cap"])
def test_basis_table_rows_bitwise_equal_the_stacked_recurrence(alpha, x, rmax):
    spec = BasisSpec(alpha)
    got = basis_table(spec, rmax, x)
    want = _stacked_rows(spec, rmax, x)
    assert got.tobytes() == want.tobytes()
    for r in (0, 1, rmax):
        assert basis_row(spec, r, x).tobytes() == got[r].tobytes()


def test_far_points_give_zero():
    # points where every row underflows, infinite ones too, carry mantissa 0
    # and not an exponent that overflows its integer cast
    spec = BasisSpec(1.0)
    with np.errstate(invalid="ignore"):
        # phi_1 is inf * 0 there, as it always was
        assert basis_row(spec, 0, np.inf) == 0.0
        assert basis_row(spec, 0, -np.inf) == 0.0
    with np.errstate(over="raise", invalid="raise"):
        np.testing.assert_array_equal(basis_table(spec, 5, [1e10, -1e10, 1e5]), 0.0)
        assert basis_row(spec, 1023, 1e5) == 0.0

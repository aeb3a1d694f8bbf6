import functools
import math
import sys

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

from helpers import (element_by_inner_products, hermite_eval, inner_product,
                     kinetic_second_form, ql_rotation_by_rotation)

import hgritz.cli as cli
import hgritz.eigensolver as eigensolver
import hgritz.quadrature as quadrature
from hgritz import (MAX_INDEX, BasisSpec, ConvergenceError, PotentialSpec, QuadratureError,
                    QuadratureRule, basis_table, element_oracle, gauss_hermite_rule,
                    kinetic_matrix, potential_matrix)
from hgritz.quadrature import MAX_ORDER, oracle_matrices

SQRT_PI = math.sqrt(math.pi)
EPS = np.finfo(float).eps
SPEC1 = BasisSpec(1.0)
HARM = PotentialSpec.harmonic(1.0)
QUART = PotentialSpec.quartic(1.0)


def double_factorial_moment(j):
    """integral y^(2j) e^(-y^2) dy = sqrt(pi) (2j-1)!! / 2^j."""
    val = SQRT_PI
    for k in range(1, j + 1):
        val *= (2 * k - 1) / 2.0
    return val


@functools.lru_cache(maxsize=None)
def golub_welsch(order):
    """(QL's unsorted eigenvalues, nodes, weights) of the order-K Golub-Welsch rule.

    The reference QL rotates row 0 of the identity with the Jacobi matrix
    of the Hermite recurrence (zero diagonal, off-diagonals sqrt(k / 2));
    the nodes are its eigenvalues ascending, the weights sqrt(pi) times the
    squares of that row (Golub & Welsch 1969, Math. Comp. 23:221).
    """
    d, e = np.zeros(order), np.sqrt(np.arange(1, order) / 2.0)
    values, row = ql_rotation_by_rotation(d, e, np.eye(order)[:1])
    ranks = np.argsort(values, kind="stable")
    return values, values[ranks], SQRT_PI * row[0][ranks] ** 2


@pytest.fixture
def unbuilt_rules(monkeypatch):
    """An empty store of rules for one test, so that every order is built anew.

    The process's own store is put back afterwards.
    """
    monkeypatch.setattr(quadrature, "_RULES", {})


#: Orders compared with the Golub-Welsch reference, whose rotation-by-rotation
#: QL takes seconds at the largest orders.
GOLUB_WELSCH_ORDERS = [*range(2, 41), 64, 100, 134, 200, MAX_ORDER]


class TestRule:
    @pytest.mark.parametrize("nodes, weights, order, message", [
        ([0.0], [SQRT_PI], 2, "nodes and weights must both have length `order`"),
        ([-1.0, 1.0], [SQRT_PI, 0.0], 2, "weights must be positive"),
        ([-1.0, 2.0], [SQRT_PI / 2, SQRT_PI / 2], 2, "rule must be symmetric about 0"),
        ([-1.0, 1.0], [1.0, 1.0], 2, r"zeroth moment must equal sqrt\(pi\)"),
    ])
    def test_each_rule_check_names_its_fault(self, nodes, weights, order, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            QuadratureRule(np.array(nodes), np.array(weights), order)

    def test_order_one(self):
        rule = gauss_hermite_rule(1)
        np.testing.assert_array_equal(rule.nodes, [0.0])
        np.testing.assert_allclose(rule.weights, [SQRT_PI], rtol=1e-15)

    def test_order_two(self):
        rule = gauss_hermite_rule(2)
        np.testing.assert_allclose(rule.nodes, [-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)],
                                   atol=1e-15)
        np.testing.assert_allclose(rule.weights, [SQRT_PI / 2.0, SQRT_PI / 2.0], rtol=1e-14)
        # the nodes are the roots of the degree-2 Hermite polynomial
        assert abs(hermite_eval(2, rule.nodes[0])) < 1e-13

    @pytest.mark.parametrize("order", [2, 3, 5, 8, 13, 21, 40])
    def test_second_moment(self, order):
        rule = gauss_hermite_rule(order)
        assert float((rule.weights * rule.nodes**2).sum()) == pytest.approx(
            SQRT_PI / 2.0, abs=1e-12)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 6, 9, 12])
    def test_polynomial_exactness(self, order):
        # exact for all even monomials up to degree 2K - 1
        rule = gauss_hermite_rule(order)
        for j in range(order):
            got = float((rule.weights * rule.nodes ** (2 * j)).sum())
            want = double_factorial_moment(j)
            assert got == pytest.approx(want, rel=1e-12)

    def test_symmetry_and_positivity(self):
        rule = gauss_hermite_rule(17)
        np.testing.assert_array_equal(rule.nodes, -rule.nodes[::-1])
        np.testing.assert_array_equal(rule.weights, rule.weights[::-1])
        assert np.all(rule.weights > 0.0)
        assert rule.nodes[8] == 0.0
        assert float(rule.weights.sum()) == pytest.approx(SQRT_PI, abs=1e-12)

    def test_large_order(self):
        rule = gauss_hermite_rule(128)
        assert float(rule.weights.sum()) == pytest.approx(SQRT_PI, abs=1e-12)

    def test_max_order_builds_with_normal_weights(self):
        rule = gauss_hermite_rule(MAX_ORDER)
        assert float(rule.weights.min()) >= np.finfo(float).tiny
        with pytest.raises(ValueError, match="order must lie in"):
            gauss_hermite_rule(MAX_ORDER + 1)

    @pytest.mark.parametrize("order", GOLUB_WELSCH_ORDERS)
    def test_tracked_row_is_the_rotation_by_rotation_row(self, order):
        # QL's eigenvalues of the Jacobi matrix are bitwise the reference's;
        # QL no longer tracks a row, and the rule no longer runs QL
        d, e = np.zeros(order), np.sqrt(np.arange(1, order) / 2.0)
        assert eigensolver._ql_implicit(d, e).tobytes() == golub_welsch(order)[0].tobytes()

    @pytest.mark.parametrize("order", GOLUB_WELSCH_ORDERS)
    def test_rule_matches_golub_welsch(self, order):
        # QL is backward stable: each eigenvalue lies within a small multiple
        # of K eps ||J|| of the exact node, ||J|| < sqrt(2K + 1), and its
        # eigenvectors are orthonormal to K eps, so each weight sqrt(pi) u_0^2
        # is within K eps sqrt(pi).  The Newton rule is a few ulps from the
        # exact rule (test_rule_matches_hermgauss); 4 more eps cover the
        # rounding of both rules' last operations at small K
        _, nodes, weights = golub_welsch(order)
        rule = gauss_hermite_rule(order)
        slack = (order + 4) * EPS
        assert np.abs(rule.nodes - nodes).max() <= slack * math.sqrt(2 * order + 1)
        assert np.abs(rule.weights - weights).max() <= slack * SQRT_PI

    @pytest.mark.parametrize("order", range(1, MAX_ORDER + 1))
    def test_rule_matches_hermgauss(self, order, monkeypatch, unbuilt_rules):
        # hermgauss polishes LAPACK's eigenvalues by one Newton step, and the
        # rule stops Newton once its correction is at most 4 ulps: each node
        # is within 4 ulps of max(1, |y|) of the exact one.  At a zero of h_K,
        # d log w / dy = -4y for the Christoffel weight
        # w = sqrt(pi) (h_0 / h_{K-1})^2 / K, so those node errors move w by
        # at most 4 |y| times theirs; the recurrence adds O(K eps) of its own.
        # Every order settles within 4 Newton passes of its starting points
        monkeypatch.setattr(quadrature, "_NEWTON_PASSES", 4)
        rule = gauss_hermite_rule(order)
        nodes, weights = hermgauss(order)
        node_tol = 8.0 * EPS * np.maximum(1.0, np.abs(nodes))
        assert np.all(np.abs(rule.nodes - nodes) <= node_tol)
        weight_tol = 4.0 * np.abs(nodes) * node_tol + 4.0 * order * EPS
        assert np.all(np.abs(rule.weights - weights) <= weight_tol * weights)

    def test_rule_off_its_second_moment_raises(self, monkeypatch, unbuilt_rules):
        # h_0 enters the rule only through the weights
        functions = quadrature._hermite_functions

        def skewed(y, top):
            h0, below, h = functions(y, top)
            return h0 * (1.0 + 1e-9), below, h

        monkeypatch.setattr(quadrature, "_hermite_functions", skewed)
        with pytest.raises(ConvergenceError, match="integrates y\\^2") as err:
            gauss_hermite_rule(12)
        assert err.value.dim == 12

    def test_colliding_nodes_raise(self, monkeypatch, unbuilt_rules):
        # two starting points on one zero: Newton takes both to it
        starts = quadrature._starting_nodes

        def doubled(order):
            y = starts(order)
            y[1] = y[2]
            return y

        monkeypatch.setattr(quadrature, "_starting_nodes", doubled)
        with pytest.raises(ConvergenceError, match="not strictly ascending") as err:
            gauss_hermite_rule(12)
        assert err.value.dim == 12

    def test_newton_out_of_passes_raises(self, monkeypatch, unbuilt_rules):
        monkeypatch.setattr(quadrature, "_NEWTON_PASSES", 1)
        with pytest.raises(ConvergenceError, match="did not settle within 1 passes") as err:
            gauss_hermite_rule(13)
        assert err.value.dim == 13

    def test_order_validation(self):
        # True == 1 as a key: the order is checked before the stored rule is looked up
        assert gauss_hermite_rule(1) is quadrature._RULES[1]
        for order in (True, 0, 2.5, MAX_ORDER + 1, 513):
            with pytest.raises(ValueError):
                gauss_hermite_rule(order)

    def test_one_rule_per_order(self):
        rule = gauss_hermite_rule(40)
        assert gauss_hermite_rule(np.int64(40)) is rule
        assert quadrature._RULES[40] is rule
        for array in (rule.nodes, rule.weights):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_failed_build_stores_nothing(self, monkeypatch, unbuilt_rules):
        with monkeypatch.context() as patch:
            patch.setattr(quadrature, "_NEWTON_PASSES", 1)
            for _ in range(2):
                with pytest.raises(ConvergenceError, match="within 1 passes"):
                    gauss_hermite_rule(13)
                assert quadrature._RULES == {}
        rule = gauss_hermite_rule(13)
        assert quadrature._RULES == {13: rule}
        fresh = quadrature._build_rule(13)
        np.testing.assert_array_equal(rule.nodes, fresh.nodes)
        np.testing.assert_array_equal(rule.weights, fresh.weights)


class TestInnerProduct:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_orthonormality(self, alpha):
        rule = gauss_hermite_rule(48)
        spec = BasisSpec(alpha)
        for r in range(21):
            for s in range(r, 21):
                got = inner_product(spec,
                                    lambda x: basis_table(spec, r, x)[r],
                                    lambda x: basis_table(spec, s, x)[s],
                                    rule)
                want = 1.0 if r == s else 0.0
                assert abs(got - want) <= 1e-10

    def test_opposite_parity_vanishes(self):
        rule = gauss_hermite_rule(8)
        got = inner_product(SPEC1,
                            lambda x: basis_table(SPEC1, 0, x)[0],
                            lambda x: basis_table(SPEC1, 1, x)[1],
                            rule)
        assert abs(got) <= 1e-14

    def test_x_squared_cross_element(self):
        rule = gauss_hermite_rule(8)
        got = inner_product(SPEC1,
                            lambda x: basis_table(SPEC1, 0, x)[0],
                            lambda x: x * x * basis_table(SPEC1, 2, x)[2],
                            rule)
        assert got == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)

    def test_non_finite_contribution_reported(self):
        # a legal rule whose nodes sit far enough out that e^(y^2) overflows
        rule = QuadratureRule(np.array([-27.0, 27.0]),
                              np.array([SQRT_PI / 2.0, SQRT_PI / 2.0]), 2)
        with pytest.raises(QuadratureError) as err:
            inner_product(SPEC1, lambda x: np.ones_like(x), lambda x: np.ones_like(x), rule)
        assert err.value.node is not None


class TestElementOracle:
    def test_harmonic_diagonal(self):
        t, v = element_oracle(SPEC1, HARM, 0, 0)
        assert t == pytest.approx(0.25, abs=1e-12)
        assert v == pytest.approx(0.25, abs=1e-12)

    def test_parity_zero(self):
        t, v = element_oracle(SPEC1, HARM, 0, 1)
        assert abs(t) <= 1e-14
        assert abs(v) <= 1e-14

    def test_quartic_band_four(self):
        _, v = element_oracle(SPEC1, QUART, 0, 4)
        assert v == pytest.approx(0.25 * math.sqrt(24.0), abs=1e-10)

    def test_element_past_the_order_cap_names_itself(self, monkeypatch):
        # element (200, 200) of a quartic needs order 408; nothing is built
        monkeypatch.setattr(quadrature, "_build_rule", None)
        monkeypatch.setattr(quadrature, "_OracleTables", None)
        with pytest.raises(ValueError, match=r"^element \(200, 200\) needs a rule of order "
                           r"408, above MAX_ORDER = 370$"):
            element_oracle(SPEC1, QUART, 200, 200)

    def test_insufficient_order_rejected(self):
        # (6, 6) of a quartic needs ceil((6 + 6 + 4) / 2) + 2 = 10; 10 is taken
        with pytest.raises(ValueError, match=r"^rule order 9 below exactness threshold 10 "
                                             r"for element \(6, 6\)$"):
            element_oracle(SPEC1, QUART, 6, 6, gauss_hermite_rule(9))
        element_oracle(SPEC1, QUART, 6, 6, gauss_hermite_rule(10))

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("pot", [HARM, QUART,
                                     PotentialSpec.even_polynomial([0.2, 0.4, 0.1])])
    def test_oracle_matches_analytic_matrices(self, alpha, pot):
        spec = BasisSpec(alpha)
        dim = 13
        rule = gauss_hermite_rule(2 * (dim - 1) + pot.degree + 4)
        t_matrix = kinetic_matrix(spec, dim).to_dense()
        v_matrix = potential_matrix(spec, pot, dim).to_dense()
        worst_t = worst_v = 0.0
        for r in range(dim):
            for s in range(r, dim):
                t_ref, v_ref = element_oracle(spec, pot, r, s, rule)
                worst_t = max(worst_t, abs(t_matrix[r, s] - t_ref))
                worst_v = max(worst_v, abs(v_matrix[r, s] - v_ref))
        assert worst_t <= 1e-10
        assert worst_v <= 1e-10


class TestSecondDerivativeForm:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_integration_by_parts_consistency(self, alpha):
        spec = BasisSpec(alpha)
        rule = gauss_hermite_rule(32)
        for r in range(0, 11, 2):
            for s in range(r, 11, 2):
                first, _ = element_oracle(spec, HARM, r, s, rule)
                second = kinetic_second_form(spec, r, s, rule)
                assert abs(first - second) <= 1e-8


SEXTIC = PotentialSpec.even_polynomial([0.2, 0.4, 0.1, 0.05])
DEEP_WELL = PotentialSpec.even_polynomial([0.0, -10.0, 0.5])


def _checked_rows(dim):
    """Rows compared entry by entry: all of them up to dim 21, else the ends and middle."""
    if dim <= 21:
        return range(dim)
    return [0, 1, dim // 2, dim - 1]


class TestOracleMatrices:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    # 37 and 64 rows split into row blocks unevenly and evenly
    @pytest.mark.parametrize("dim", [1, 2, 21, 37, 64])
    @pytest.mark.parametrize("pot", [HARM, QUART, SEXTIC, DEEP_WELL],
                             ids=["harmonic", "quartic", "sextic", "deep-well"])
    def test_rows_bitwise_equal_element_oracle(self, pot, dim, alpha):
        spec = BasisSpec(alpha)
        rule = gauss_hermite_rule(2 * (dim - 1) + pot.degree + 4)
        t_upper, v_upper = oracle_matrices(spec, pot, dim)
        assert not np.tril(t_upper, -1).any() and not np.tril(v_upper, -1).any()
        for r in _checked_rows(dim):
            for s in range(r, dim):
                assert (t_upper[r, s], v_upper[r, s]) == element_oracle(spec, pot, r, s, rule)
        # the last column crosses every row at dim 64 too
        for r in range(dim):
            assert (t_upper[r, -1], v_upper[r, -1]) == element_oracle(spec, pot, r, dim - 1, rule)

    @pytest.mark.parametrize("pot", [QUART, SEXTIC, DEEP_WELL],
                             ids=["quartic", "sextic", "deep-well"])
    def test_element_oracle_is_the_inner_product_integral(self, pot):
        # element_oracle shares the batched row code; the per-element route
        # through inner_product on basis_table rows pins both
        spec = BasisSpec(1.3)
        dim = 21
        rule = gauss_hermite_rule(2 * (dim - 1) + pot.degree + 4)
        t_upper, v_upper = oracle_matrices(spec, pot, dim)
        for r in range(dim):
            for s in range(r, dim):
                want = element_by_inner_products(spec, pot, r, s, rule)
                assert element_oracle(spec, pot, r, s, rule) == want
                assert (t_upper[r, s], v_upper[r, s]) == want

    @pytest.mark.parametrize("dim", [0, -3, True, 2.0, MAX_INDEX + 1])
    def test_dim_checks(self, dim):
        with pytest.raises(ValueError):
            oracle_matrices(SPEC1, QUART, dim)

    def test_dim_past_the_order_cap_names_itself(self, monkeypatch):
        # dim 200 of a quartic needs order 406, and dim 183, one past the
        # largest dim, order 372
        monkeypatch.setattr(quadrature, "_build_rule", None)
        monkeypatch.setattr(quadrature, "_OracleTables", None)
        with pytest.raises(ValueError, match=r"^dim 200 needs a rule of order 406, "
                           r"above MAX_ORDER = 370$"):
            oracle_matrices(SPEC1, QUART, 200)
        with pytest.raises(ValueError, match="dim 183 needs a rule of order 372"):
            oracle_matrices(SPEC1, QUART, 183)

    def test_top_index_element(self):
        # phi_1023' needs phi_1024, one past the basis table's cap
        order = 1030
        nodes = np.linspace(-6.0, 6.0, order)
        rule = QuadratureRule(0.5 * (nodes - nodes[::-1]), np.full(order, SQRT_PI / order), order)
        got = element_oracle(SPEC1, HARM, 1023, 1023, rule)
        assert got == element_by_inner_products(SPEC1, HARM, 1023, 1023, rule)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_first_non_finite_entry_error_matches(self, dim, monkeypatch):
        # legal rule with outer nodes where e^(y^2) overflows
        weights = np.array([1e-3, 0.3, SQRT_PI - 2 * (1e-3 + 0.3), 0.3, 1e-3])
        rule = QuadratureRule(np.array([-27.0, -1.0, 0.0, 1.0, 27.0]), weights, 5)
        monkeypatch.setattr(quadrature, "gauss_hermite_rule", lambda order: rule)
        with pytest.raises(QuadratureError) as batched:
            oracle_matrices(SPEC1, HARM, dim)
        with pytest.raises(QuadratureError) as single:
            for r in range(dim):
                for s in range(r, dim):
                    element_oracle(SPEC1, HARM, r, s, rule)
        assert type(batched.value) is type(single.value)
        assert str(batched.value) == str(single.value)
        assert batched.value.node_index == single.value.node_index
        assert batched.value.node == single.value.node

    @pytest.mark.parametrize("y0, coeff, dim, entry", [(12.0, 1e280, 20, (18, 19)),
                                                      (24.0, 1e250, 32, (27, 31))])
    def test_non_finite_term_in_a_later_block(self, y0, coeff, dim, entry, monkeypatch):
        # V phi_s e^(y^2) overflows at the outer nodes only once r + s is
        # large: every entry of the first row block is finite, and the first
        # non-finite one lies in a later block
        order = 81
        nodes = np.linspace(-y0, y0, order)
        rule = QuadratureRule(0.5 * (nodes - nodes[::-1]), np.full(order, SQRT_PI / order), order)
        pot = PotentialSpec.even_polynomial([0.0, coeff])
        monkeypatch.setattr(quadrature, "gauss_hermite_rule", lambda order: rule)
        with pytest.raises(QuadratureError) as batched:
            oracle_matrices(SPEC1, pot, dim)
        first = None
        with pytest.raises(QuadratureError) as single:
            for r in range(dim):
                for s in range(r, dim):
                    first = (r, s)
                    element_oracle(SPEC1, pot, r, s, rule)
        assert first == entry and entry[0] >= quadrature._BLOCK_ROWS
        assert str(batched.value) == str(single.value)
        assert batched.value.node_index == single.value.node_index
        assert batched.value.node == single.value.node


def test_oracle_runs_without_the_eigensolver(monkeypatch, capsys, unbuilt_rules):
    # the oracle checks the eigensolver's matrices, so it must not run it:
    # every binding of QL, eigh and eigvalsh in the package raises, and every
    # rule below is built while they do
    solver = {id(f) for f in (eigensolver._ql_implicit, eigensolver.eigh,
                              eigensolver.eigvalsh)}

    def refuse(*args, **kwargs):
        raise AssertionError("the quadrature oracle ran the eigensolver")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hgritz":
            for attr, value in list(vars(module).items()):
                if id(value) in solver:
                    monkeypatch.setattr(module, attr, refuse)
    assert gauss_hermite_rule(MAX_ORDER).order == MAX_ORDER
    assert element_oracle(SPEC1, QUART, 0, 4)[1] == pytest.approx(0.25 * math.sqrt(24.0),
                                                                   abs=1e-10)
    t_upper, v_upper = oracle_matrices(SPEC1, QUART, 21)
    assert (t_upper[3, 5], v_upper[3, 5]) == element_oracle(SPEC1, QUART, 3, 5,
                                                            gauss_hermite_rule(48))
    assert cli.main(["oracle-compare", "--potential", "quartic", "--dim", "21"]) == 0
    assert capsys.readouterr().out.startswith("matrix,max_discrepancy")

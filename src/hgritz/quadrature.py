"""Gauss-Hermite quadrature oracle for inner products and matrix elements.

Independent cross-check route for every analytic matrix element: nodes and
weights come from the eigenvalues and first eigenvector row of the Jacobi
matrix of the Hermite recurrence (zero diagonal, off-diagonals sqrt(k/2)),
so a rule of order K integrates exp(-y^2) times any polynomial of degree
<= 2K - 1 exactly.

Inner products (f, g) = integral f(x) g(x) dx are evaluated by substituting
y = x sqrt(alpha) and dividing the Gaussian factor carried by the integrand
back out, leaving the rule a purely polynomial job.

`oracle_matrices` gives the upper triangles of the quadrature T and V in the
quadrature-matrix form (Light, Hamilton & Lill 1985, J. Chem. Phys.
82:1400): one basis recurrence pass at the rule's nodes, and per row r one
product over (s >= r, nodes) summed along the nodes.  It keeps `inner_product`'s
multiplication order, ((w f) g) exp(y^2) / sqrt(alpha), so each entry is
bitwise the per-element `element_oracle`, which runs the same row code on
its two rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, _phi_neighbours, check_index
from .eigensolver import _ql_implicit
from .errors import ConvergenceError, QuadratureError
from .operators import PotentialSpec

#: Largest order whose weights are all normal doubles.  The smallest weight
#: falls below the smallest normal double (2.2e-308) from order 371 and is
#: 1e-323 at order 388; from 389 on it underflows to 0 and the rule fails its
#: positivity check.
MAX_ORDER = 370


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights of an exp(-y^2)-weighted rule, symmetric about 0."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if nodes.shape != (self.order,) or weights.shape != (self.order,):
            raise ValueError("nodes and weights must both have length `order`")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be positive")
        if np.any(nodes + nodes[::-1] != 0.0) or np.any(weights != weights[::-1]):
            raise ValueError("rule must be symmetric about 0")
        if abs(float(weights.sum()) - math.sqrt(math.pi)) > 1e-12:
            raise ValueError("zeroth moment must equal sqrt(pi)")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def gauss_hermite_rule(order: int) -> QuadratureRule:
    """Order-K rule from the Jacobi matrix of the Hermite recurrence.

    Nodes are the Jacobi eigenvalues; weights are sqrt(pi) times the squared
    first components of the eigenvectors (Golub & Welsch 1969, Math. Comp.
    23:221).  Both come from the eigensolver's QL routine run on the Jacobi
    matrix with row 0 of its eigenvectors tracked, O(K^2) work with no K x K
    array.  Exact symmetry about 0 is restored after the solve (the matrix
    is symmetric under index reversal with sign).  The rule must integrate
    y^2 to sqrt(pi) / 2 within 1e-12, or ConvergenceError is raised.
    """
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)):
        raise ValueError(f"order must be an integer, got {order!r}")
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must lie in [1, {MAX_ORDER}], got {order}")
    order = int(order)
    if order == 1:
        return QuadratureRule(np.zeros(1), np.array([math.sqrt(math.pi)]), 1)
    offdiag = np.sqrt(np.arange(1, order) / 2.0)
    values, first = _ql_implicit(np.zeros(order), offdiag, row=True)
    ranks = np.argsort(values, kind="stable")
    nodes = values[ranks]
    weights = math.sqrt(math.pi) * np.array(first)[ranks] ** 2
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    if order % 2 == 1:
        nodes[order // 2] = 0.0
    second = float((weights * nodes * nodes).sum())
    if abs(second - 0.5 * math.sqrt(math.pi)) > 1e-12:
        raise ConvergenceError(
            f"Gauss-Hermite rule of order {order} integrates y^2 to {second!r}, "
            "not sqrt(pi) / 2", dim=order)
    return QuadratureRule(nodes, weights, order)


def _node_values(spec, rule):
    """The rule's nodes y, x = y / sqrt(alpha), and the boost exp(y^2)."""
    y = rule.nodes
    with np.errstate(over="ignore"):
        boost = np.exp(y * y)
    return y, y / math.sqrt(spec.alpha), boost


def _first_non_finite(terms, y):
    """Raise QuadratureError for the first non-finite entry of a terms row."""
    bad = ~np.isfinite(terms)
    if bad.any():
        i = int(np.argmax(bad))
        raise QuadratureError(
            f"non-finite integrand contribution at node {i} (y = {y[i]:.6g})",
            node_index=i, node=float(y[i]))


def inner_product(spec: BasisSpec, f, g, rule: QuadratureRule) -> float:
    """Integral of f(x) g(x) over the line, for f g decaying like exp(-alpha x^2).

    f and g must accept ndarray arguments.  The Gaussian factor is divided
    back out at the nodes, so the result is exact whenever the de-weighted
    product is a polynomial the rule can integrate.
    """
    y, x, boost = _node_values(spec, rule)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = rule.weights * np.asarray(f(x), dtype=float) \
            * np.asarray(g(x), dtype=float) * boost
    _first_non_finite(terms, y)
    return float(terms.sum()) / math.sqrt(spec.alpha)


def minimum_order(r: int, s: int, degree: int) -> int:
    """Smallest admissible rule order for the (r, s) element of a degree-d V."""
    return math.ceil((r + s + degree) / 2) + 2


class _OracleTables:
    """phi_k', phi_k and V phi_k at a rule's nodes, for each index k in rows.

    One basis recurrence pass feeds all three; the derivative rows use
    `basis_derivative`'s formula and operation order, so every row is
    bitwise what the per-element evaluators give.  Rows are addressed by
    their position in rows.
    """

    def __init__(self, spec, pot, rule, rows):
        self.spec = spec
        self.rule = rule
        self.y, x, self.boost = _node_values(spec, rule)
        below, self.phi, above = _phi_neighbours(spec, rows, x)
        k = np.asarray(rows, dtype=float)[:, None]
        self.dphi = 0.5 * math.sqrt(2.0 * spec.alpha) * (np.sqrt(k) * below
                                                         - np.sqrt(k + 1.0) * above)
        self.vphi = pot.value(x, mass=spec.mass) * self.phi

    def row(self, i, cols):
        """Oracle (t_rs, v_rs) for r at position i and s at the positions cols.

        Each entry is `inner_product`'s ((w f) g) boost, summed along the
        nodes and divided by sqrt(alpha).  A non-finite term raises the
        QuadratureError of the first such entry in (s, kinetic before
        potential) order.
        """
        spec, w = self.spec, self.rule.weights
        with np.errstate(over="ignore", invalid="ignore"):
            t_terms = (w * self.dphi[i]) * self.dphi[cols] * self.boost
            v_terms = (w * self.phi[i]) * self.vphi[cols] * self.boost
        bad_t = ~np.isfinite(t_terms).all(axis=1)
        bad_v = ~np.isfinite(v_terms).all(axis=1)
        if bad_t.any() or bad_v.any():
            first = int(np.argmax(bad_t | bad_v))
            _first_non_finite(t_terms[first] if bad_t[first] else v_terms[first], self.y)
        scale = spec.hbar**2 / (2.0 * spec.mass)
        root = math.sqrt(spec.alpha)
        return scale * (t_terms.sum(axis=1) / root), v_terms.sum(axis=1) / root


def element_oracle(spec: BasisSpec, pot: PotentialSpec, r: int, s: int,
                   rule: QuadratureRule | None = None) -> tuple[float, float]:
    """Quadrature values (t_rs, v_rs) of the kinetic and potential elements.

    The kinetic element uses the integrated-by-parts first-derivative form
    (hbar^2/2m) (phi_r', phi_s'), whose integrand is manifestly polynomial
    times Gaussian.  When no rule is supplied one of order r + s + deg(V) + 4
    is built (over-provisioned); a supplied rule below the exactness threshold
    is rejected rather than silently inexact.  It runs `oracle_matrices`'
    row code on the rows r and s alone.
    """
    r = check_index(r)
    s = check_index(s)
    need = minimum_order(r, s, pot.degree)
    if rule is None:
        rule = gauss_hermite_rule(r + s + pot.degree + 4)
    elif rule.order < need:
        raise ValueError(
            f"rule order {rule.order} below exactness threshold {need} "
            f"for element ({r}, {s})")
    t_row, v_row = _OracleTables(spec, pot, rule, [r, s]).row(0, slice(1, 2))
    return float(t_row[0]), float(v_row[0])


def oracle_matrices(spec: BasisSpec, pot: PotentialSpec,
                    dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Upper triangles (s >= r) of the quadrature T and V, dim x dim.

    The rule is the one `element_oracle` builds for the (dim-1, dim-1)
    element, and entry (r, s) is bitwise `element_oracle` under that rule;
    entries below the diagonal are 0.  One basis recurrence pass at the
    rule's nodes serves every row, and row r is one product over (s >= r,
    nodes), so the working set is O(dim x order).
    """
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim!r}")
    last = check_index(int(dim) - 1)
    rule = gauss_hermite_rule(2 * last + pot.degree + 4)
    tables = _OracleTables(spec, pot, rule, range(dim))
    t_upper = np.zeros((dim, dim))
    v_upper = np.zeros((dim, dim))
    for r in range(dim):
        t_upper[r, r:], v_upper[r, r:] = tables.row(r, slice(r, dim))
    return t_upper, v_upper

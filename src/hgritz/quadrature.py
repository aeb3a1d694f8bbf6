"""Gauss-Hermite quadrature oracle for inner products and matrix elements.

Independent cross-check route for every analytic matrix element: nodes and
weights come from the eigen-decomposition of the Jacobi matrix of the Hermite
recurrence (zero diagonal, off-diagonals sqrt(k/2)), so a rule of order K
integrates exp(-y^2) times any polynomial of degree <= 2K - 1 exactly.

Inner products (f, g) = integral f(x) g(x) dx are evaluated by substituting
y = x sqrt(alpha) and dividing the Gaussian factor carried by the integrand
back out, leaving the rule a purely polynomial job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, basis_derivative, basis_value, check_index
from .eigensolver import eigh_tridiagonal
from .errors import QuadratureError
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
    first components of the eigenvectors.  Exact symmetry about 0 is restored
    after the solve (the matrix is symmetric under index reversal with sign).
    """
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)):
        raise ValueError(f"order must be an integer, got {order!r}")
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must lie in [1, {MAX_ORDER}], got {order}")
    order = int(order)
    if order == 1:
        return QuadratureRule(np.zeros(1), np.array([math.sqrt(math.pi)]), 1)
    offdiag = np.sqrt(np.arange(1, order) / 2.0)
    result = eigh_tridiagonal(np.zeros(order), offdiag)
    nodes = result.eigenvalues.copy()
    weights = math.sqrt(math.pi) * result.eigenvectors[0, :] ** 2
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    if order % 2 == 1:
        nodes[order // 2] = 0.0
    return QuadratureRule(nodes, weights, order)


def inner_product(spec: BasisSpec, f, g, rule: QuadratureRule) -> float:
    """Integral of f(x) g(x) over the line, for f g decaying like exp(-alpha x^2).

    f and g must accept ndarray arguments.  The Gaussian factor is divided
    back out at the nodes, so the result is exact whenever the de-weighted
    product is a polynomial the rule can integrate.
    """
    y = rule.nodes
    x = y / math.sqrt(spec.alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        boost = np.exp(y * y)
        terms = rule.weights * np.asarray(f(x), dtype=float) \
            * np.asarray(g(x), dtype=float) * boost
    bad = ~np.isfinite(terms)
    if bad.any():
        i = int(np.argmax(bad))
        raise QuadratureError(
            f"non-finite integrand contribution at node {i} (y = {y[i]:.6g})",
            node_index=i, node=float(y[i]))
    return float(terms.sum()) / math.sqrt(spec.alpha)


def minimum_order(r: int, s: int, degree: int) -> int:
    """Smallest admissible rule order for the (r, s) element of a degree-d V."""
    return math.ceil((r + s + degree) / 2) + 2


def element_oracle(spec: BasisSpec, pot: PotentialSpec, r: int, s: int,
                   rule: QuadratureRule | None = None) -> tuple[float, float]:
    """Quadrature values (t_rs, v_rs) of the kinetic and potential elements.

    The kinetic element uses the integrated-by-parts first-derivative form
    (hbar^2/2m) (phi_r', phi_s'), whose integrand is manifestly polynomial
    times Gaussian.  When no rule is supplied one of order r + s + deg(V) + 4
    is built (over-provisioned); a supplied rule below the exactness threshold
    is rejected rather than silently inexact.
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
    scale = spec.hbar**2 / (2.0 * spec.mass)
    t_rs = scale * inner_product(
        spec,
        lambda x: basis_derivative(spec, r, x),
        lambda x: basis_derivative(spec, s, x),
        rule)
    v_rs = inner_product(
        spec,
        lambda x: basis_value(spec, r, x),
        lambda x: pot.value(x, mass=spec.mass) * basis_value(spec, s, x),
        rule)
    return t_rs, v_rs

"""Gauss-Hermite quadrature oracle for inner products and matrix elements.

Independent cross-check route for every analytic matrix element: the nodes
of a rule of order K are the zeros of the K-th oscillator eigenfunction,
found by Newton's method on the Hermite-function recurrence, and its weights
follow from the Christoffel-Darboux formula, so a rule of order K integrates
exp(-y^2) times any polynomial of degree <= 2K - 1 exactly.  No eigensolver
is involved, so the oracle shares no code with the solver it checks.

An inner product (f, g) = integral f(x) g(x) dx is evaluated by
substituting y = x sqrt(alpha) and dividing the Gaussian factor carried by
the integrand back out, leaving the rule a purely polynomial job: the sum
over the nodes of ((w f) g) exp(y^2), divided by sqrt(alpha).

`oracle_matrices` gives the upper triangles of the quadrature T and V in the
quadrature-matrix form (Light, Hamilton & Lill 1985, J. Chem. Phys.
82:1400): one basis recurrence pass at the rule's nodes, then the rows in
blocks of `_BLOCK_ROWS`, each block one product over (rows, s >= its first
row, nodes) summed along the nodes in that order, so each entry is bitwise
the per-element `element_oracle`, which runs the same block code on its two
rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, _is_integer, _recurrence, check_index
from .errors import ConvergenceError, QuadratureError
from .operators import PotentialSpec

#: Largest order whose weights are all normal doubles.  The smallest weight
#: falls below the smallest normal double (2.2e-308) from order 371 and is
#: 1e-323 at order 388; from 389 on it underflows to 0 and the rule fails its
#: positivity check.
MAX_ORDER = 370

_EPS = float(np.finfo(float).eps)


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


#: Newton stops once every node's correction is at most this many ulps of
#: max(1, |y|).  Its rounding floor stays under one ulp at orders 2 to 370.
_NEWTON_ULPS = 4
#: Newton passes allowed before a rule is refused; orders 2 to 370 settle
#: within 4.
_NEWTON_PASSES = 10


def _airy_zeros(count):
    """The first `count` zeros of Ai, descending from -2.338, asymptotically.

    a_k = -T(3 pi (4k - 1) / 8) with T(t) = t^(2/3) (1 + 5/48 t^-2 - 5/36 t^-4
    + 77125/82944 t^-6 - 108056875/6967296 t^-8) (Abramowitz & Stegun
    10.4.94 and 10.4.105): 9e-4 off at k = 1, 8e-7 at k = 2 and closer
    beyond, enough for a starting point.
    """
    t = 3.0 * math.pi / 8.0 * (4.0 * np.arange(1, count + 1) - 1.0)
    return -t ** (2.0 / 3.0) * (1.0 + 5.0 / 48.0 * t**-2 - 5.0 / 36.0 * t**-4
                                + 77125.0 / 82944.0 * t**-6
                                - 108056875.0 / 6967296.0 * t**-8)


def _starting_nodes(order):
    """Estimates of the ceil(K/2) nonnegative Gauss-Hermite nodes, ascending.

    The positive zeros of H_K are the square roots of the m = floor(K/2)
    zeros of the Laguerre polynomial L_m^(a), a = -1/2 for even K and 1/2
    for odd K, and nu = 4m + 2a + 2 = 2K + 1.  The lower half of those zeros
    comes from Tricomi's formula, x = nu t - (5 / (4 (1 - t)^2) - 1 / (1 - t)
    - 1 + 3 a^2) / (3 nu) with t = cos^2(theta / 2) and theta - sin(theta) =
    (4m - 4k + 3) pi / nu for the k-th smallest; the upper half from
    Gatteschi's expansion in the Airy zeros a_j, j-th largest first
    (Gatteschi 2002, J. Comput. Appl. Math. 144:7).  Townsend, Trogdon &
    Olver (2016, IMA J. Numer. Anal. 36:337) start Newton from the same
    pair.  For odd K the node 0 leads, exactly.
    """
    m = order // 2
    a = 0.5 if order % 2 else -0.5
    nu = 2.0 * order + 1.0
    inner = m // 2
    rhs = (4.0 * m - 4.0 * np.arange(1, inner + 1) + 3.0) * math.pi / nu
    theta = np.full(inner, 0.5 * math.pi)
    for _ in range(8):
        theta -= (theta - np.sin(theta) - rhs) / (1.0 - np.cos(theta))
    t = np.cos(0.5 * theta) ** 2
    tricomi = nu * t - (5.0 / (4.0 * (1.0 - t) ** 2) - 1.0 / (1.0 - t) - 1.0
                        + 3.0 * a * a) / (3.0 * nu)
    z = _airy_zeros(m - inner)[::-1]
    gatteschi = (nu + 2.0 ** (2.0 / 3.0) * z * nu ** (1.0 / 3.0)
                 + 0.2 * 2.0 ** (4.0 / 3.0) * z**2 * nu ** (-1.0 / 3.0)
                 + (11.0 / 35.0 - a * a - 12.0 / 175.0 * z**3) / nu
                 + (16.0 / 1575.0 * z + 92.0 / 7875.0 * z**4) * 2.0 ** (2.0 / 3.0)
                 * nu ** (-5.0 / 3.0)
                 - (15152.0 / 3031875.0 * z**5 + 1088.0 / 121275.0 * z**2)
                 * 2.0 ** (1.0 / 3.0) * nu ** (-7.0 / 3.0))
    roots = np.sqrt(np.concatenate((tricomi, gatteschi)))
    return np.concatenate(([0.0], roots)) if order % 2 else roots


def _hermite_functions(y, top):
    """(h_0, h_{top-1}, h_top) at y, for the orthonormal Hermite functions.

    h_0 = pi^(-1/4) exp(-y^2 / 2), h_1 = sqrt(2) y h_0 and
    h_{k+1} = sqrt(2 / (k + 1)) y h_k - sqrt(k / (k + 1)) h_{k-1}: the
    oscillator eigenfunctions in y, one recurrence pass vectorized over y.
    """
    h0 = math.pi**-0.25 * np.exp(-0.5 * y * y)
    below, h = np.zeros_like(y), h0
    for k in range(top):
        above = y * h
        above *= math.sqrt(2.0 / (k + 1))
        above -= math.sqrt(k / (k + 1)) * below
        below, h = h, above
    return h0, below, h


#: order -> its read-only `gauss_hermite_rule`, built on the first request.
_RULES = {}


def gauss_hermite_rule(order: int) -> QuadratureRule:
    """Order-K rule whose nodes are the zeros of the oscillator eigenfunction h_K.

    A rule depends on K alone, so each order is built once per process, on
    its first request, and that read-only rule is returned to every later
    caller; a build that raises stores nothing.  At most `MAX_ORDER` rules
    are kept, about 1.1 MB if every order is asked for.  The order is
    checked before the lookup: a bool, a non-integer or an order outside
    [1, `MAX_ORDER`] raises ValueError.

    Newton's method runs once, vectorized over the ceil(K/2) nonnegative
    nodes from `_starting_nodes`, with the step h_K / h_K' =
    h_K / (sqrt(2K) h_{K-1} - y h_K), until every step is at most
    `_NEWTON_ULPS` ulps of max(1, |y|) (Townsend, Trogdon & Olver 2016).  The
    weights are Christoffel-Darboux's w = exp(-y^2) / (K h_{K-1}(y)^2),
    formed as sqrt(pi) (h_0 / h_{K-1})^2 / K so that exp(-y^2) never
    underflows.  They come from the pass whose step passed that test: its
    h_0 and h_{K-1} are carried across that last step of at most 4 ulps to
    first order, h_0' = -y h_0 and h_{K-1}' = y h_{K-1} - sqrt(2K) h_K, so
    no recurrence pass is run for the weights alone.  O(K^2) work with no
    eigensolver.  The rule is symmetric by construction: the negative half
    mirrors the nonnegative one.
    ConvergenceError is raised if Newton has not settled within
    `_NEWTON_PASSES` passes, if the nodes are not strictly ascending, or if
    the rule does not integrate y^2 to sqrt(pi) / 2 within 1e-12.
    """
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)):
        raise ValueError(f"order must be an integer, got {order!r}")
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must lie in [1, {MAX_ORDER}], got {order}")
    order = int(order)
    rule = _RULES.get(order)
    if rule is None:
        rule = _RULES[order] = _build_rule(order)
    return rule


def _build_rule(order):
    """`gauss_hermite_rule` at a checked order, built by Newton's method."""
    if order == 1:
        return QuadratureRule(np.zeros(1), np.array([math.sqrt(math.pi)]), 1)
    y = _starting_nodes(order)
    root = math.sqrt(2.0 * order)
    for _ in range(_NEWTON_PASSES):
        h0, below, h = _hermite_functions(y, order)
        step = h / (root * below - y * h)
        y_next = y - step
        if np.all(np.abs(step) <= _NEWTON_ULPS * _EPS * np.maximum(1.0, y_next)):
            break
        y = y_next
    else:
        raise ConvergenceError(
            f"Newton's method for the Gauss-Hermite nodes of order {order} did not "
            f"settle within {_NEWTON_PASSES} passes", dim=order)
    # h_0 and h_{K-1} carried from y to y - step to first order
    h0 = h0 + (y * h0) * step
    below = below - (y * below - root * h) * step
    half = math.sqrt(math.pi) * (h0 / below) ** 2 / order
    y = y_next
    # an odd rule's middle node 0 is not mirrored
    mirror = slice(None, 0, -1) if order % 2 else slice(None, None, -1)
    nodes = np.concatenate((-y[mirror], y))
    weights = np.concatenate((half[mirror], half))
    if not np.all(np.diff(nodes) > 0.0):
        raise ConvergenceError(
            f"Gauss-Hermite nodes of order {order} are not strictly ascending", dim=order)
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


#: Rows of one `_OracleTables.block`, whose terms are formed together.
_BLOCK_ROWS = 16
#: Floats in the one terms buffer of an `_OracleTables`: a block's columns
#: are taken in as few equal passes as keep rows x columns x order within it.
_BUFFER_TERMS = 1 << 14


class _OracleTables:
    """phi_k', phi_k and V phi_k at a rule's nodes, for each index k in rows.

    One basis recurrence pass over phi_0 .. phi_{max(rows) + 1} feeds all
    three; the derivative rows are the ladder
    phi_k' = (sqrt(2 alpha) / 2) (sqrt(k) phi_{k-1} - sqrt(k + 1) phi_{k+1}),
    with phi_{-1} = 0.  phi_{k+1} may be phi_1024, one past `basis_table`'s
    cap.  Rows are addressed by their position in rows.
    """

    def __init__(self, spec, pot, rule, rows):
        self.spec = spec
        self.y, x, self.boost = _node_values(spec, rule)
        # row 0 is phi_{-1} = 0, row k + 1 is phi_k
        table = np.zeros((max(rows) + 3, x.size))
        _recurrence(spec, x, table[1:])
        index = np.asarray(rows)
        below, phi, above = table[index], table[index + 1], table[index + 2]
        k = index.astype(float)[:, None]
        self.dphi = 0.5 * math.sqrt(2.0 * spec.alpha) * (np.sqrt(k) * below
                                                         - np.sqrt(k + 1.0) * above)
        self.vphi = pot.value(x, mass=spec.mass) * phi
        # the first factor w f of each inner product, for f = phi_r' and f = phi_r
        self.w_dphi = rule.weights * self.dphi
        self.w_phi = rule.weights * phi
        height = min(_BLOCK_ROWS, len(k))
        self.width = min(len(k), max(1, _BUFFER_TERMS // (height * rule.order)))
        self.terms = np.empty((height, self.width, rule.order))

    def block(self, first, stop, lead):
        """Oracle (t_rs, v_rs) for r at positions first..stop-1 and s at lead.. on.

        At most `_BLOCK_ROWS` rows.  Each entry is the inner product's
        ((w f) g) boost, summed along the nodes and divided by sqrt(alpha).
        Entry (r, s) counts only where s >= r, as in an upper triangle: a
        non-finite term among those raises the QuadratureError of the first
        such entry in (r, s, kinetic before potential) order, and entries
        with s < r are left for the caller to discard.
        """
        rows, count = slice(first, stop), stop - first
        size = self.dphi.shape[0] - lead
        passes = -(-size // self.width)
        width = -(-size // passes)
        t_sums, v_sums = np.empty((count, size)), np.empty((count, size))
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, size, width):
                end = min(start + width, size)
                cols, out = slice(lead + start, lead + end), slice(start, end)
                terms = self.terms[:count, :end - start]
                for sums, f, g in ((t_sums, self.w_dphi, self.dphi),
                                   (v_sums, self.w_phi, self.vphi)):
                    np.multiply(f[rows, None], g[cols], out=terms)
                    terms *= self.boost
                    terms.sum(axis=2, out=sums[:, out])
        # a non-finite term makes its sum non-finite; only then are the rows rerun
        if not (np.isfinite(t_sums).all() and np.isfinite(v_sums).all()):
            for r in range(first, stop):
                self._check_row(r, slice(max(r, lead), None))
        scale = self.spec.hbar**2 / (2.0 * self.spec.mass)
        root = math.sqrt(self.spec.alpha)
        return scale * (t_sums / root), v_sums / root

    def _check_row(self, r, cols):
        """Raise QuadratureError for the first non-finite entry (r, s), s at cols."""
        with np.errstate(over="ignore", invalid="ignore"):
            t_terms = self.w_dphi[r] * self.dphi[cols] * self.boost
            v_terms = self.w_phi[r] * self.vphi[cols] * self.boost
        bad_t = ~np.isfinite(t_terms).all(axis=1)
        bad_v = ~np.isfinite(v_terms).all(axis=1)
        if bad_t.any() or bad_v.any():
            s = int(np.argmax(bad_t | bad_v))
            _first_non_finite(t_terms[s] if bad_t[s] else v_terms[s], self.y)


def _oracle_rule(order, what):
    """`gauss_hermite_rule(order)` for `what`, which is refused past `MAX_ORDER`."""
    if order > MAX_ORDER:
        raise ValueError(f"{what} needs a rule of order {order}, "
                         f"above MAX_ORDER = {MAX_ORDER}")
    return gauss_hermite_rule(order)


def element_oracle(spec: BasisSpec, pot: PotentialSpec, r: int, s: int,
                   rule: QuadratureRule | None = None) -> tuple[float, float]:
    """Quadrature values (t_rs, v_rs) of the kinetic and potential elements.

    The kinetic element uses the integrated-by-parts first-derivative form
    (hbar^2/2m) (phi_r', phi_s'), whose integrand is manifestly polynomial
    times Gaussian.  When no rule is supplied the one of order
    r + s + deg(V) + 4 (over-provisioned) is taken from `gauss_hermite_rule`,
    and an element that needs an order past `MAX_ORDER` raises ValueError
    before anything is built; a supplied rule below the exactness threshold
    ceil((r + s + deg(V)) / 2) + 2 is rejected rather than silently inexact.
    It runs `oracle_matrices`' block code on the rows r and s alone.
    """
    r = check_index(r)
    s = check_index(s)
    need = math.ceil((r + s + pot.degree) / 2) + 2
    if rule is None:
        rule = _oracle_rule(r + s + pot.degree + 4, f"element ({r}, {s})")
    elif rule.order < need:
        raise ValueError(
            f"rule order {rule.order} below exactness threshold {need} "
            f"for element ({r}, {s})")
    t, v = _OracleTables(spec, pot, rule, [r, s]).block(0, 1, 1)
    return float(t[0, 0]), float(v[0, 0])


def oracle_matrices(spec: BasisSpec, pot: PotentialSpec,
                    dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Upper triangles (s >= r) of the quadrature T and V, dim x dim.

    The rule is the one `element_oracle` takes for the (dim-1, dim-1)
    element, the same object, and entry (r, s) is bitwise `element_oracle`
    under that rule; entries below the diagonal are 0.  A dim whose rule
    order would pass `MAX_ORDER` raises ValueError before anything is
    built.  One basis recurrence pass at the rule's nodes serves every row.
    The rows go in blocks of `_BLOCK_ROWS`, each against the columns from
    its first row on, so the few entries below the diagonal inside a block
    are formed and then zeroed; the terms pass through one buffer of at
    most `_BUFFER_TERMS` floats, so the working set is O(dim x order).  Only
    a block with a non-finite sum has its rows rerun one by one, to raise
    the error of the first entry with a non-finite term.
    """
    if not (_is_integer(dim) and dim >= 1):
        raise ValueError(f"dim must be a positive integer, got {dim!r}")
    last = check_index(int(dim) - 1)
    rule = _oracle_rule(2 * last + pot.degree + 4, f"dim {dim}")
    tables = _OracleTables(spec, pot, rule, range(dim))
    t_upper = np.zeros((dim, dim))
    v_upper = np.zeros((dim, dim))
    for first in range(0, dim, _BLOCK_ROWS):
        stop = min(first + _BLOCK_ROWS, dim)
        t_upper[first:stop, first:], v_upper[first:stop, first:] = \
            tables.block(first, stop, first)
    # a block's columns begin at its first row: its entries s < r go
    return np.triu(t_upper), np.triu(v_upper)

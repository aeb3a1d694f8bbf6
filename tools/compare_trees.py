"""Check that two source trees give the same numbers and the same reports.

    python tools/compare_trees.py OLD_SRC NEW_SRC

Each tree (a directory holding the hgritz package) is imported in its own
subprocess, and the two run at once.  Each runs seven sweeps:

- eigensolver: 345 Hamiltonians of five potential families (harmonic,
  quartic, quartic and sextic single wells, double wells) at dims 1 to 256
  and three widths, five random dense symmetric matrices, and the
  Gauss-Hermite rules of every order from 1 to 370.  The eigenvalues,
  eigenvectors and residual_norm of every solve and the nodes and weights
  of every rule are compared bit for bit.
- Numerov: `numerov.lowest_levels`, on the grid it derives from the wanted
  levels as `verify-mhu` runs it, on the five families at three strengths
  each, for the lowest 1, 4, 10 and 25 levels: 60 spectra, each located on
  a coarser grid first; the lowest 4 levels of the deep double well
  0,-10,0.5 at mass 1500, whose node-count trajectories grow past the float
  range before their cut; and the lowest 6 levels of the tunnelling double
  well 0,-41.8479,0.530985 at mass 265.871, whose doublets no float splits:
  62 spectra.  Every level is compared bit for bit, and a spectrum that
  raises in either tree counts as differing.
  A differing spectrum's line gives its largest |dE| / max(1, |E|), levels
  paired by position, and its level counts where they changed.
- node counts: `spectral.node_counts` on the quartic (lam 1) and the deep
  double well 0,-10,0.5 at dims 512 and 1024, whose shared grids span many
  chunks; on two harmonic wells whose turning points lie far past the basis
  functions, so that the tail cut ends the pass; and on a harmonic dim-3
  request whose turning point, near 1.8e3, once made the grid step too
  coarse and the count raise.  The counts are compared exactly, and a case
  that raises is compared by its exception's text.
- tables and grids: `variational.convergence_table` on the five eigen
  families at two widths, over dims 2:40:2 and over (1, 3, 8, 13); on the
  quartic of lambda 1e75 at alpha 0.01, whose entries pass 2^256, over
  (3, 8, 13); and on the quartic of lambda 1e300 at alpha 1e-3 over
  (4, 12) and (8, 11, 12), whose dim-12 H leaves the float range, so each
  dim is built on its own and the table raises.  `variational.scan_alpha`
  on the five families over a 12-point grid at dims 8 to 64, odd ones
  among them, and on the dim-3 quartic over (1e-300, 1.0), whose first
  width raises.  Every spectrum is compared bit for bit, and a case that
  raises is compared by its exception's text.
- searches: `variational.minimize_alpha` on the five eigen families on
  (0.5, 4) at dims 1 to 64, odd ones among them, for the lowest 1 to 4
  levels; on a bracket whose objective rises, so the search ends on its
  boundary; on the harmonic dim-30 plateau (0.1, 10), where the higher
  levels break the tie; on the quartic of lambda 1e75, whose entries pass
  2^256; and on a bracket whose first width leaves the float range.
  alpha_star, energy and boundary are compared bit for bit, and a search
  that raises is compared by its exception's text.
- oracle: `quadrature.oracle_matrices` on four potential families
  (harmonic, quartic, a sextic single well and a deep double well) at four
  widths and 18 dims from 1 to 64, those either side of each 16-row block
  among them: the bytes of T and V.  Beside them, `basis_table` of 2, 65
  and 1,024 rows at three widths on 161 points of [-40, 40], where
  alpha x^2 passes 1416 at two of the widths and the rows run on carried
  mantissas, and on points so far out that every row is 0 or NaN: the bytes
  of each table.  A case that raises is compared by its exception's text.
- CLI reports: the first 40 requests of each benchmark workload (solve,
  minimize, certify) on seeds 1 to 3, as `bench/workloads.stream` makes
  them, through `hgritz.cli.main(argv + ["--format", "json"])`, the call the
  benchmark makes.  The exit code and the stdout bytes are compared; a
  request that raises is compared by its exception's text.

One line is printed per differing record, naming its fields, then one
summary line per sweep.  Where an eigen solve's eigenvalues agree bit for
bit and its eigenvectors do not, the line and the summary also give the
largest 1 - |<v_old, v_new>| over the eigenvector columns.  A differing
rule's line and the summary give its largest |dy| / max(1, |y|) over the
nodes and |dw| / w over the weights.  The Numerov summary gives the largest
level change over its differing spectra and how many changed their level
count.  Where a CLI
request's stdout differs and both are JSON reports, the line names the
`results` keys that differ (a nested key by its dotted path), each with its
largest relative change |new - old| / max(1, |old|), the scale of the
Numerov sweep, or, for an index pair such as `potential.worst_entry`, its
old and new pair; the summary counts the requests each key moved on, per
workload, with the largest relative change of each key that is no index
pair.  The exit code is 0 exactly when every record agrees.
"""

from __future__ import annotations

import collections
import contextlib
import importlib.util
import io
import itertools
import json
import math
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
BENCH = TOOLS.parent / "bench"

#: Each sweep and the words of its summary line after "k of n".
SWEEPS = {"eigh": "solves and rules bit-identical",
          "numerov": "spectra bit-identical",
          "nodes": "node counts identical",
          "tables": "tables and grids bit-identical",
          "searches": "searches bit-identical",
          "oracle": "oracle matrices and basis tables bit-identical",
          "cli": "requests identical"}

#: The field that holds the exception a Numerov spectrum raised.  It never
#: agrees: every spectrum of the sweep is meant to solve.
RAISED = "raised"

EIGH_FAMILIES = {
    "harmonic": lambda k: ("harmonic", 0.5 + 0.25 * k),
    "quartic": lambda k: ("quartic", 0.1 * (k + 1)),
    "quartic_well": lambda k: ("even_polynomial", (0.0, 0.2 * (k + 1), 0.5)),
    "sextic_well": lambda k: ("even_polynomial", (0.0, 0.5, 0.1 * k, 0.05 * (k + 1))),
    "double_well": lambda k: ("even_polynomial", (0.0, -2.0 * (k + 1), 0.5)),
}
EIGH_DIMS = (1, 2, 3, 4, 5, 7, 8, 13, 16, 21, 30, 31, 32, 47, 50, 63, 64, 77, 90,
             100, 128, 200, 256)
EIGH_ALPHAS = (0.7, 1.5, 2.5)
#: Gauss-Hermite rule orders, up to quadrature.MAX_ORDER.
RULE_ORDERS = range(1, 371)

NUMEROV_FAMILIES = {
    "harmonic": lambda k: ("harmonic", 0.75 + 0.5 * k),
    "quartic": lambda k: ("quartic", 0.5 + k),
    "quartic_well": lambda k: ("even_polynomial", (0.0, 0.3 + 0.4 * k, 0.5)),
    "sextic_well": lambda k: ("even_polynomial", (0.0, 0.5, 0.1 * k, 0.05 * (k + 1))),
    "double_well": lambda k: ("even_polynomial", (0.0, -2.0 * (k + 1), 0.5)),
}
#: Strengths k of each Numerov family.
NUMEROV_STRENGTHS = range(3)
#: How many of the lowest levels each spectrum holds.
NUMEROV_COUNTS = (1, 4, 10, 25)
#: (name, potential kind, its parameter, mass, level count) of each spectrum
#: run beside the families.
NUMEROV_CASES = (
    ("heavy_double_well", "even_polynomial", (0.0, -10.0, 0.5), 1500.0, 4),
    ("tunnelling_double_well", "even_polynomial", (0.0, -41.8479, 0.530985), 265.871, 6),
)

#: (name, potential kind, its parameter, alpha, dim) of each node count.
NODE_CASES = (
    ("quartic", "quartic", 1.0, 1.8, 512),
    ("quartic", "quartic", 1.0, 1.8, 1024),
    ("deep_double_well", "even_polynomial", (0.0, -10.0, 0.5), 1.59369, 512),
    ("deep_double_well", "even_polynomial", (0.0, -10.0, 0.5), 1.59369, 1024),
    ("far_harmonic", "harmonic", 0.513853, 1.87333, 247),
    ("far_harmonic", "harmonic", 0.05, 2.0, 100),
    ("farthest_harmonic", "harmonic", 0.000867646, 5.04458, 3),
)

#: Dims of each convergence table of the five eigen families, at each width.
TABLE_DIMS = (tuple(range(2, 41, 2)), (1, 3, 8, 13))
TABLE_ALPHAS = (0.8, 2.0)
#: (name, potential kind, its parameter, alpha, dims) of each table run
#: beside the families.
TABLE_CASES = (("scaled_quartic", "quartic", 1e75, 0.01, (3, 8, 13)),
               ("out_of_range", "quartic", 1e300, 1e-3, (4, 12)),
               ("out_of_range", "quartic", 1e300, 1e-3, (8, 11, 12)))
#: Dims of the alpha grids, and the grid each runs: 12 log-spaced widths.
GRID_DIMS = (8, 13, 21, 32, 47, 64)
GRID_ALPHAS = tuple(0.6 * 7.5 ** (k / 11) for k in range(12))
#: (name, potential kind, its parameter, dim, alphas) of each grid run
#: beside the families.
GRID_CASES = (("out_of_range", "quartic", 1.0, 3, (1e-300, 1.0)),)

#: Dims of the searches of the five eigen families; family k at dim index i
#: sums the lowest 1 + (i + k) % 4 levels, at most dim.
SEARCH_DIMS = (1, 2, 3, 5, 8, 9, 16, 21, 32, 47, 64)
SEARCH_BRACKET = (0.5, 4.0)
#: (name, potential kind, its parameter, dim, bracket, levels) of each search
#: run beside the families.
SEARCH_CASES = (
    ("boundary", "harmonic", 1.0, 8, (2.0, 5.0), 1),
    ("plateau", "harmonic", 1.0, 30, (0.1, 10.0), 1),
    ("scaled_quartic", "quartic", 1e75, 13, (0.005, 0.02), 2),
    ("out_of_range", "quartic", 1.0, 8, (1e-300, 1e300), 1),
)

#: Potential families of the oracle sweep, each at the four widths.
ORACLE_FAMILIES = {
    "harmonic": ("harmonic", 1.0),
    "quartic": ("quartic", 1.0),
    "sextic_well": ("even_polynomial", (0.0, 0.5, 0.1, 0.05)),
    "double_well": ("even_polynomial", (0.0, -10.0, 0.5)),
}
ORACLE_ALPHAS = (0.5, 1.0, 1.5, 2.5)
#: Dims up to `cli.ORACLE_MAX_DIM`, either side of each 16-row block.
ORACLE_DIMS = (1, 2, 3, 4, 5, 7, 8, 13, 15, 16, 17, 31, 32, 33, 47, 48, 63, 64)
#: Widths and last rows of the basis tables on `TABLE_POINTS`: alpha x^2
#: reaches 640, 2,880 and 6,400, so the last two pass the 1416 where phi_0
#: leaves the normal doubles.
BASIS_ALPHAS = (0.4, 1.8, 4.0)
BASIS_ROWS = (1, 64, 1023)
TABLE_POINTS = 161
#: Points past the reach of every row: each row is 0 there, or NaN (inf * 0)
#: at the infinite ones.
FAR_POINTS = (1e5, -1e10, float("inf"), float("-inf"))

#: Last parts of the `results` keys that hold an index pair, such as the
#: (r, s) of an oracle report's largest discrepancy: a moved one is named by
#: its old and new pair, not by a relative change.
INDEX_KEYS = ("worst_entry",)

WORKLOADS = ("solve", "minimize", "certify")
SEEDS = (1, 2, 3)
REQUESTS = 40

#: What each subprocess runs: this module's run_sweeps on one tree.
_CHILD = (f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import compare_trees; "
          "compare_trees.run_sweeps(sys.argv[1])")


def _eigh_sweep():
    from hgritz import BasisSpec, eigh, gauss_hermite_rule, hamiltonian_matrix
    import numpy as np

    def solve(label, matrix):
        s = eigh(matrix)
        return label, {"eigenvalues": s.eigenvalues.tobytes(),
                       "eigenvectors": s.eigenvectors.tobytes(),
                       "residual_norm": np.float64(s.residual_norm).tobytes()}

    out = []
    for name, param in EIGH_FAMILIES.items():
        for i, dim in enumerate(EIGH_DIMS):
            for j, alpha in enumerate(EIGH_ALPHAS):
                kind, value = param((i + j) % 4)
                matrix = hamiltonian_matrix(BasisSpec(alpha), _potential(kind, value), dim)
                out.append(solve(f"{name} {value} alpha={alpha} dim={dim}", matrix))
    rng = np.random.default_rng(2017)
    for n in (1, 2, 9, 40, 100):
        a = rng.standard_normal((n, n))
        out.append(solve(f"random dense dim={n}", a + a.T))
    for order in RULE_ORDERS:
        rule = gauss_hermite_rule(order)
        out.append((f"gauss-hermite rule order={order}",
                    {"nodes": rule.nodes.tobytes(), "weights": rule.weights.tobytes()}))
    return out


def _numerov_sweep():
    from hgritz import Constants, numerov

    def spectrum(label, pot, constants, count):
        try:
            levels = numerov.lowest_levels(pot, constants, count)
            fields = {"levels": [x.hex() for x in levels.tolist()]}
        except Exception as exc:  # reported as a difference, never equal
            fields = {RAISED: f"{type(exc).__name__}: {exc}"}
        return f"{label} count={count}", fields

    out = []
    for name, param in NUMEROV_FAMILIES.items():
        for k in NUMEROV_STRENGTHS:
            kind, value = param(k)
            pot = _potential(kind, value)
            for count in NUMEROV_COUNTS:
                out.append(spectrum(f"{name} {value}", pot, Constants(), count))
    for name, kind, value, mass, count in NUMEROV_CASES:
        out.append(spectrum(f"{name} {value} mass={mass}", _potential(kind, value),
                            Constants(mass=mass), count))
    return out


def _node_sweep():
    from hgritz import BasisSpec, Constants, node_counts, solve_spectrum

    out = []
    for name, kind, value, alpha, dim in NODE_CASES:
        pot = _potential(kind, value)
        spectrum = solve_spectrum(pot, Constants(), alpha, dim)
        try:
            fields = {"nodes": node_counts(BasisSpec(alpha), pot, spectrum).tolist()}
        except Exception as exc:  # a raising case is compared by its text
            fields = {"nodes": f"raised {type(exc).__name__}: {exc}"}
        out.append((f"{name} alpha={alpha} dim={dim}", fields))
    return out


def _table_sweep():
    from hgritz import Constants, convergence_table, scan_alpha

    def spectra(label, solve):
        try:
            fields = {"spectra": [levels.tobytes() for levels in solve()]}
        except Exception as exc:  # a raising case is compared by its text
            fields = {"spectra": f"raised {type(exc).__name__}: {exc}"}
        return label, fields

    out = []
    cases = [(f"{name} {param(k)[1]}", *param(k), alpha, dims)
             for k, (name, param) in enumerate(EIGH_FAMILIES.items())
             for alpha in TABLE_ALPHAS for dims in TABLE_DIMS]
    cases += [(f"{name} {value}", kind, value, alpha, dims)
              for name, kind, value, alpha, dims in TABLE_CASES]
    for label, kind, value, alpha, dims in cases:
        pot = _potential(kind, value)
        out.append(spectra(f"table {label} alpha={alpha} dims={dims}",
                           lambda: convergence_table(pot, Constants(), alpha, dims).spectra))
    for k, (name, param) in enumerate(EIGH_FAMILIES.items()):
        kind, value = param(k)
        pot = _potential(kind, value)
        for dim in GRID_DIMS:
            out.append(spectra(f"grid {name} {value} dim={dim}",
                               lambda: scan_alpha(pot, Constants(), dim, GRID_ALPHAS).energies))
    for name, kind, value, dim, alphas in GRID_CASES:
        pot = _potential(kind, value)
        out.append(spectra(f"grid {name} {value} dim={dim} alphas={alphas}",
                           lambda: scan_alpha(pot, Constants(), dim, alphas).energies))
    return out


def _search_sweep():
    from hgritz import Constants, variational

    def search(label, pot, dim, bracket, levels):
        try:
            res = variational.minimize_alpha(pot, Constants(), dim, bracket, levels=levels)
            fields = {"result": (res.alpha_star.hex(), res.energy.hex(), res.boundary)}
        except Exception as exc:  # a raising case is compared by its text
            fields = {"result": f"raised {type(exc).__name__}: {exc}"}
        return f"search {label} dim={dim} bracket={bracket} levels={levels}", fields

    out = []
    for k, (name, param) in enumerate(EIGH_FAMILIES.items()):
        kind, value = param(k)
        pot = _potential(kind, value)
        for i, dim in enumerate(SEARCH_DIMS):
            out.append(search(f"{name} {value}", pot, dim, SEARCH_BRACKET,
                              min(1 + (i + k) % 4, dim)))
    for name, kind, value, dim, bracket, levels in SEARCH_CASES:
        out.append(search(f"{name} {value}", _potential(kind, value), dim, bracket, levels))
    return out


def _oracle_sweep():
    from hgritz import BasisSpec, basis_table
    from hgritz.quadrature import oracle_matrices
    import numpy as np

    def record(label, field, build):
        try:
            value = tuple(array.tobytes() for array in build())
        except Exception as exc:  # a raising case is compared by its text
            value = f"raised {type(exc).__name__}: {exc}"
        return label, {field: value}

    out = []
    for name, (kind, value) in ORACLE_FAMILIES.items():
        pot = _potential(kind, value)
        for alpha, dim in itertools.product(ORACLE_ALPHAS, ORACLE_DIMS):
            out.append(record(f"oracle {name} {value} alpha={alpha} dim={dim}", "T and V",
                              lambda: oracle_matrices(BasisSpec(alpha), pot, dim)))
    x = np.linspace(-40.0, 40.0, TABLE_POINTS)
    for alpha, rmax in itertools.product(BASIS_ALPHAS, BASIS_ROWS):
        out.append(record(f"basis table alpha={alpha} rows={rmax + 1}", "table",
                          lambda: [basis_table(BasisSpec(alpha), rmax, x)]))
    with np.errstate(invalid="ignore"):  # phi_1 at an infinite point is inf * 0
        out.append(record(f"basis table far points {FAR_POINTS}", "table",
                          lambda: [basis_table(BasisSpec(1.0), 1023, FAR_POINTS)]))
    return out


def _cli_sweep():
    import workloads
    from hgritz.cli import main

    out = []
    for workload, seed in itertools.product(WORKLOADS, SEEDS):
        requests = itertools.islice(workloads.stream(workload, seed), REQUESTS)
        for i, request in enumerate(requests):
            text = io.StringIO()
            with contextlib.redirect_stdout(text), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main([*request.argv, "--format", "json"])
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a raising request is compared too
                    code = f"raised {type(exc).__name__}: {exc}"
            out.append((f"{workload} seed {seed} request {i}",
                        {"exit code": code, "stdout": text.getvalue()}))
    return out


def _potential(kind, value):
    from hgritz import PotentialSpec

    if kind == "harmonic":
        return PotentialSpec.harmonic(value)
    if kind == "quartic":
        return PotentialSpec.quartic(value)
    return PotentialSpec.even_polynomial(value)


def run_sweeps(src):
    """Write the pickled records of every sweep, run on the tree src, to stdout."""
    sys.path[:0] = [src, str(BENCH)]
    sys.dont_write_bytecode = True  # leave both trees and bench/ as they are
    found = importlib.util.find_spec("hgritz")
    if found is None or Path(found.origin).parent.parent.resolve() != Path(src).resolve():
        raise SystemExit(f"{src} holds no hgritz package")
    runs = {"eigh": _eigh_sweep(), "numerov": _numerov_sweep(), "nodes": _node_sweep(),
            "tables": _table_sweep(), "searches": _search_sweep(),
            "oracle": _oracle_sweep(), "cli": _cli_sweep()}
    sys.stdout.buffer.write(pickle.dumps(runs))


def _vector_angle(old, new):
    """max_j 1 - |<v_old_j, v_new_j>| over the eigenvector columns of two eigen records."""
    import numpy as np

    n = len(old["eigenvalues"]) // 8
    v_old = np.frombuffer(old["eigenvectors"]).reshape(n, n)
    v_new = np.frombuffer(new["eigenvectors"]).reshape(n, n)
    return float((1.0 - np.abs((v_old * v_new).sum(axis=0))).max())


def _rule_change(old, new):
    """(largest |dy| / max(1, |y|), largest |dw| / w) of two rule records of one order.

    y and w are OLD's nodes and weights.
    """
    import numpy as np

    y_old, y_new, w_old, w_new = (np.frombuffer(run[name]) for name in ("nodes", "weights")
                                  for run in (old, new))
    return (float((np.abs(y_new - y_old) / np.maximum(1.0, np.abs(y_old))).max()),
            float((np.abs(w_new - w_old) / w_old).max()))


def _level_change(old, new):
    """Largest |E_new - E_old| / max(1, |E_old|) over two spectra's levels, paired by position.

    old and new are Numerov records' level lists, as float hex strings; 0.0
    where either is empty.
    """
    return max((abs(float.fromhex(b) - float.fromhex(a)) / max(1.0, abs(float.fromhex(a)))
                for a, b in zip(old, new)), default=0.0)


def _relative_change(old, new):
    """Largest |new - old| / max(1, |old|) of two JSON values; inf where they do not pair up.

    Lists pair entry by entry and must have one length; numbers (not
    booleans) compare by that change, as `_level_change` does, so a level
    near 0 is not magnified; anything else is 0 when equal and inf when not.
    """
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return max((_relative_change(a, b) for a, b in zip(old, new)), default=0.0)
    if old == new:
        return 0.0
    numbers = [isinstance(x, (int, float)) and not isinstance(x, bool) for x in (old, new)]
    if all(numbers):
        return abs(new - old) / max(1.0, abs(old))
    return math.inf


def _leaves(results, prefix=""):
    """{dotted key: value} of a results object, descending into nested objects."""
    out = {}
    for key, value in results.items():
        if isinstance(value, dict):
            out.update(_leaves(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def _index_move(old, new):
    """'(62, 62) -> (63, 63)': an index pair's old and new value."""
    return " -> ".join(str(tuple(v)) if isinstance(v, list) else str(v) for v in (old, new))


def _results_changes(old, new):
    """{key: change} over the differing `results` keys of two reports.

    The change is the largest relative change (`_relative_change`), or, for
    a key in `INDEX_KEYS`, the text of its move (`_index_move`).  A key of
    a nested object is named by its dotted path, such as
    `potential.max_discrepancy` of an `oracle-compare` report.  None where
    either stdout is not a JSON report with a `results` object.
    """
    try:
        a, b = (json.loads(text)["results"] for text in (old, new))
    except (ValueError, KeyError, TypeError):
        return None
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return None
    a, b = _leaves(a), _leaves(b)
    changes = {}
    for key in dict.fromkeys([*a, *b]):
        if a.get(key) != b.get(key):
            change = _index_move if key.rsplit(".", 1)[-1] in INDEX_KEYS else _relative_change
            changes[key] = change(a.get(key), b.get(key))
    return changes


def compare(old, new) -> int:
    """Compare two trees' records, sweep by sweep and record by record.

    old and new map each sweep to its list of (label, fields) records; a
    sweep may be missing.  Records are paired by position.  A pair differs
    where its labels differ, where one tree has no record, or in every field
    whose values differ or that holds a raised Numerov spectrum.  Prints one
    line per differing record and the summary of every sweep; returns 0
    exactly when every record agrees.  An eigen record whose eigenvalues
    agree bit for bit but whose eigenvectors differ also gets the largest
    1 - |<v_old, v_new>| over its columns, and its sweep's summary the
    largest of those.  A rule record whose nodes or weights differ gets its
    `_rule_change`, and the summary the largest of each.  A Numerov record
    whose levels differ in both trees gets the largest level change
    (`_level_change`) and its level counts where they changed, and the
    Numerov summary the largest of those changes and the number of changed
    counts.  A CLI record whose stdout differs between two JSON
    reports also gets its differing `results` keys and the change of each
    (`_results_changes`), and the CLI summary the number of requests each
    key moved on, per workload, with its largest relative change where it
    holds no index pair.
    """
    differ_any = False
    summaries = []
    for sweep, words in SWEEPS.items():
        pairs = list(itertools.zip_longest(old.get(sweep, []), new.get(sweep, [])))
        differ = levels = recounted = 0
        angles, level_changes, rule_changes = [], [], []
        # results key -> workloads of the requests it moved on, and its largest change
        moved = collections.defaultdict(collections.Counter)
        largest = {}
        for a, b in pairs:
            if a is None or b is None:
                label, tree = (b[0], "OLD") if a is None else (a[0], "NEW")
                line = f"{label}: missing in {tree}"
            elif a[0] != b[0]:
                line = f"{a[0]}: labelled {b[0]!r} in NEW"
            else:
                fields = list(dict.fromkeys([*a[1], *b[1]]))
                names = [name for name in fields
                         if name == RAISED or a[1].get(name) != b[1].get(name)]
                if not names:
                    levels += len(a[1].get("levels", ()))
                    continue
                line = f"{a[0]}: {', '.join(names)} differ"
                if "eigenvectors" in names and "eigenvalues" not in names:
                    angles.append(_vector_angle(a[1], b[1]))
                    line += f" (eigenvalues bitwise; vectors within {angles[-1]:.1e})"
                if sweep == "eigh" and ("nodes" in names or "weights" in names):
                    rule_changes.append(_rule_change(a[1], b[1]))
                    line += (f" (largest |dy| / max(1, |y|) {rule_changes[-1][0]:.1e}, "
                             f"|dw| / w {rule_changes[-1][1]:.1e})")
                if "levels" in names and all("levels" in run[1] for run in (a, b)):
                    old_levels, new_levels = a[1]["levels"], b[1]["levels"]
                    level_changes.append(_level_change(old_levels, new_levels))
                    line += f" (largest |dE| / max(1, |E|) {level_changes[-1]:.1e}"
                    if len(old_levels) != len(new_levels):
                        recounted += 1
                        line += f"; {len(old_levels)} levels in OLD, {len(new_levels)} in NEW"
                    line += ")"
                changes = (_results_changes(a[1]["stdout"], b[1]["stdout"])
                           if sweep == "cli" and "stdout" in names else None)
                if changes:
                    line += " (results: " + ", ".join(
                        f"{key} {change}" if isinstance(change, str) else f"{key} by {change:.1e}"
                        for key, change in changes.items()) + ")"
                    for key, change in changes.items():
                        moved[key][a[0].split()[0]] += 1
                        if not isinstance(change, str):
                            largest[key] = max(largest.get(key, 0.0), change)
                raised = [f"{tree} raised {run[1][RAISED]}"
                          for tree, run in (("OLD", a), ("NEW", b)) if RAISED in run[1]]
                if raised:
                    line += f" ({'; '.join(raised)})"
            differ += 1
            print(line)
        summary = f"{len(pairs) - differ} of {len(pairs)} {words}"
        if sweep == "numerov":
            summary += f" ({levels} levels)"
        if level_changes:
            summary += (f" ({len(level_changes)} with moved levels, largest |dE| / max(1, |E|) "
                        f"{max(level_changes):.1e}; {recounted} with a changed level count)")
        if angles:
            summary += (f" ({len(angles)} with bitwise eigenvalues have vectors within "
                        f"{max(angles):.1e})")
        if rule_changes:
            summary += (f" ({len(rule_changes)} rules moved, largest |dy| / max(1, |y|) "
                        f"{max(c[0] for c in rule_changes):.1e}, |dw| / w "
                        f"{max(c[1] for c in rule_changes):.1e})")
        if moved:
            summary += " (results moved: " + "; ".join(
                f"{key} on " + ", ".join(f"{count} {workload}" for workload, count
                                         in sorted(moved[key].items())) + " requests"
                + (f", largest relative change {largest[key]:.1e}" if key in largest else "")
                for key in moved) + ")"
        summaries.append(summary)
        differ_any = differ_any or differ > 0
    print("\n".join(summaries))
    return 1 if differ_any else 0


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    trees = list(zip(("OLD", "NEW"), argv[1:]))
    with contextlib.ExitStack() as stack:
        files = [[stack.enter_context(tempfile.TemporaryFile()) for _ in range(2)]
                 for _ in trees]
        # both children start before either is waited on
        children = [subprocess.Popen([sys.executable, "-c", _CHILD, src],
                                     stdout=out, stderr=err)
                    for (_, src), (out, err) in zip(trees, files)]
        runs, failed = [], False
        for (tree, src), child, (out, err) in zip(trees, children, files):
            if child.wait() == 0:
                out.seek(0)
                runs.append(pickle.load(out))
                continue
            err.seek(0)
            tail = err.read().decode(errors="replace").strip().splitlines()[-5:]
            print(f"{tree} tree {src}: the sweeps exited with code {child.returncode}")
            print("\n".join(f"    {line}" for line in tail))
            runs.append({})
            failed = True
    return max(compare(*runs), int(failed))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))

"""The comparison rule of tools/compare_trees.py, on synthetic records only."""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_trees.py"
_spec = importlib.util.spec_from_file_location("compare_trees", TOOL)
compare_trees = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_trees)

SUMMARIES = ["2 of 2 solves and rules bit-identical",
             "2 of 2 spectra bit-identical (3 levels)",
             "2 of 2 node counts identical",
             "2 of 2 tables and grids bit-identical",
             "2 of 2 searches bit-identical",
             "2 of 2 oracle matrices and basis tables bit-identical",
             "2 of 2 requests identical"]


def records():
    vectors = np.eye(2)
    return {
        "eigh": [("harmonic 0.5 alpha=0.7 dim=2",
                  {"eigenvalues": np.array([0.5, 1.5]).tobytes(),
                   "eigenvectors": vectors.tobytes(),
                   "residual_norm": np.float64(0.0).tobytes()}),
                 ("gauss-hermite rule order=1",
                  {"nodes": np.zeros(1).tobytes(), "weights": np.ones(1).tobytes()})],
        "numerov": [("harmonic 0.75 count=1", {"levels": [(0.375).hex()]}),
                    ("quartic 0.5 count=4",
                     {"levels": [(0.53).hex(), (1.9).hex()]})],
        "nodes": [("quartic alpha=1.8 dim=512", {"nodes": list(range(512))}),
                  ("deep_double_well alpha=1.59369 dim=512",
                   {"nodes": "raised DegenerateInputError: state 1 has no nonzero sample"})],
        "tables": [("table harmonic 0.5 alpha=0.8 dims=(1, 3)",
                    {"spectra": [np.array([0.5]).tobytes(), np.array([0.5, 1.5, 2.5]).tobytes()]}),
                   ("grid quartic 0.2 dim=8",
                    {"spectra": "raised ConvergenceError: QL stalled"})],
        "searches": [("search harmonic 0.5 dim=1 bracket=(0.5, 4.0) levels=1",
                      {"result": ((1.0).hex(), (0.5).hex(), False)}),
                     ("search out_of_range 1.0 dim=8 bracket=(1e-300, 1e+300) levels=1",
                      {"result": "raised RangeError: (2 alpha)^2 = 10^599.8 lies outside"})],
        "oracle": [("oracle quartic 1.0 alpha=1.0 dim=2",
                    {"T and V": (np.array([[0.5, 0.0], [0.0, 1.5]]).tobytes(),
                                 np.array([[0.75, 0.0], [0.0, 3.75]]).tobytes())}),
                   ("basis table alpha=1.8 rows=2", {"table": (np.ones((2, 3)).tobytes(),)})],
        "cli": [("solve seed 1 request 0", {"exit code": 0, "stdout": "{}\n"}),
                ("solve seed 1 request 1",
                 {"exit code": "raised ValueError: no", "stdout": ""})],
    }


def run(capsys, old, new):
    code = compare_trees.compare(old, new)
    return code, capsys.readouterr().out.splitlines()


def test_identical_records_agree(capsys):
    code, lines = run(capsys, records(), records())
    assert code == 0
    assert lines == SUMMARIES


def test_one_ulp_in_one_eigenvector_differs(capsys):
    new = records()
    vectors = np.eye(2)
    vectors[1, 1] = np.nextafter(1.0, 0.0)
    label, fields = new["eigh"][0]
    new["eigh"][0] = (label, {**fields, "eigenvectors": vectors.tobytes()})
    code, lines = run(capsys, records(), new)
    assert code == 1
    assert lines == ["harmonic 0.5 alpha=0.7 dim=2: eigenvectors differ "
                     "(eigenvalues bitwise; vectors within 1.1e-16)",
                     "1 of 2 solves and rules bit-identical "
                     "(1 with bitwise eigenvalues have vectors within 1.1e-16)", *SUMMARIES[1:]]


def test_rotated_eigenvectors_report_the_largest_angle(capsys):
    # 1 - |<v_old, v_new>| ignores a column's sign; with the eigenvalues
    # changed too no angle is given
    new = records()
    c, s = math.cos(1e-3), math.sin(1e-3)
    vectors = np.array([[c, s], [s, -c]])
    label, fields = new["eigh"][0]
    new["eigh"][0] = (label, {**fields, "eigenvectors": vectors.tobytes(),
                              "residual_norm": np.float64(1e-16).tobytes()})
    code, lines = run(capsys, records(), new)
    assert code == 1
    assert lines[:2] == [f"{label}: eigenvectors, residual_norm differ "
                         f"(eigenvalues bitwise; vectors within {1.0 - c:.1e})",
                         "1 of 2 solves and rules bit-identical "
                         f"(1 with bitwise eigenvalues have vectors within {1.0 - c:.1e})"]
    new["eigh"][0][1]["eigenvalues"] = np.array([0.5, 1.25]).tobytes()
    code, lines = run(capsys, records(), new)
    assert lines[:2] == [f"{label}: eigenvalues, eigenvectors, residual_norm differ",
                         "1 of 2 solves and rules bit-identical"]


def test_moved_rule_reports_its_largest_node_and_weight_changes(capsys):
    # |dy| / max(1, |y|): 0.5 moved by 1e-12 gives 1.0e-12, 3 moved by 6e-12
    # gives 2.0e-12; |dw| / w: 0.25 moved by 1e-13 gives 4.0e-13
    old, new = records(), records()
    rule = ("gauss-hermite rule order=2",
            {"nodes": np.array([-3.0, 0.5]).tobytes(), "weights": np.array([0.25, 0.5]).tobytes()})
    old["eigh"][1] = rule
    new["eigh"][1] = (rule[0], {"nodes": np.array([-3.0 - 6e-12, 0.5 + 1e-12]).tobytes(),
                                "weights": np.array([0.25 + 1e-13, 0.5]).tobytes()})
    code, lines = run(capsys, old, new)
    assert code == 1
    assert lines[:2] == ["gauss-hermite rule order=2: nodes, weights differ "
                         "(largest |dy| / max(1, |y|) 2.0e-12, |dw| / w 4.0e-13)",
                         "1 of 2 solves and rules bit-identical (1 rules moved, largest "
                         "|dy| / max(1, |y|) 2.0e-12, |dw| / w 4.0e-13)"]
    # weights alone: the nodes give 0
    new["eigh"][1] = (rule[0], {**rule[1], "weights": np.array([0.25, 0.5 * 1.5]).tobytes()})
    code, lines = run(capsys, old, new)
    assert lines[0] == ("gauss-hermite rule order=2: weights differ "
                        "(largest |dy| / max(1, |y|) 0.0e+00, |dw| / w 5.0e-01)")


def test_numerov_spectrum_raising_in_both_trees_differs(capsys):
    old, new = records(), records()
    for run_ in (old, new):
        run_["numerov"][1] = ("quartic 0.5 count=4",
                              {compare_trees.RAISED: "ScanResolutionError: shared cell"})
    code, lines = run(capsys, old, new)
    assert code == 1
    assert lines[0].startswith("quartic 0.5 count=4: raised differ")
    assert "OLD raised ScanResolutionError: shared cell" in lines[0]
    assert "NEW raised ScanResolutionError: shared cell" in lines[0]
    assert lines[2] == "1 of 2 spectra bit-identical (1 levels)"


def test_moved_numerov_levels_report_their_largest_change(capsys):
    # |dE| / max(1, |E|): 1.9 moved by 3.8e-11 gives 2.0e-11, and 0.53 moved
    # by 1e-11 gives 1.0e-11 (below 1 the change is taken as absolute)
    new = records()
    new["numerov"][1] = ("quartic 0.5 count=4",
                         {"levels": [(0.53 + 1e-11).hex(), (1.9 + 3.8e-11).hex()]})
    code, lines = run(capsys, records(), new)
    assert code == 1
    assert lines[0] == ("quartic 0.5 count=4: levels differ "
                        "(largest |dE| / max(1, |E|) 2.0e-11)")
    assert lines[2] == ("1 of 2 spectra bit-identical (1 levels) (1 with moved levels, "
                        "largest |dE| / max(1, |E|) 2.0e-11; 0 with a changed level count)")


def test_a_changed_numerov_level_count_is_reported(capsys):
    # levels pair by position; the extra level adds no change of its own
    new = records()
    new["numerov"][0] = ("harmonic 0.75 count=1",
                         {"levels": [(0.375).hex(), (1.125).hex()]})
    new["numerov"][1] = ("quartic 0.5 count=4",
                         {"levels": [(0.53).hex(), (1.9 * (1.0 + 5e-11)).hex()]})
    code, lines = run(capsys, records(), new)
    assert code == 1
    assert lines[:2] == ["harmonic 0.75 count=1: levels differ "
                         "(largest |dE| / max(1, |E|) 0.0e+00; 1 levels in OLD, 2 in NEW)",
                         "quartic 0.5 count=4: levels differ "
                         "(largest |dE| / max(1, |E|) 5.0e-11)"]
    assert lines[3] == ("0 of 2 spectra bit-identical (0 levels) (2 with moved levels, "
                        "largest |dE| / max(1, |E|) 5.0e-11; 1 with a changed level count)")


def test_numerov_sweep_covers_the_default_step_count(monkeypatch):
    # verify-mhu runs the grid lowest_levels derives from the wanted levels,
    # its only grid; the sweep asks for no other
    from hgritz import numerov

    calls = []

    def lowest_levels(pot, constants, count, **given):
        calls.append((count, given))
        return np.arange(count, dtype=float)

    monkeypatch.setattr(numerov, "lowest_levels", lowest_levels)
    sweep = compare_trees._numerov_sweep()
    assert len(sweep) == len(calls) == 62
    counts = [int(label.rsplit("count=", 1)[1]) for label, _ in sweep]
    assert {c: counts.count(c) for c in counts} == {1: 15, 4: 16, 6: 1, 10: 15, 25: 15}
    assert [label for label, _ in sweep[-2:]] == [
        "heavy_double_well (0.0, -10.0, 0.5) mass=1500.0 count=4",
        "tunnelling_double_well (0.0, -41.8479, 0.530985) mass=265.871 count=6"]
    for (label, fields), count, (asked, given) in zip(sweep, counts, calls):
        assert (asked, given) == (count, {})
        assert fields["levels"] == [float(n).hex() for n in range(count)]


def test_one_search_result_differs(capsys):
    new = records()
    label, fields = new["searches"][0]
    alpha, energy, boundary = fields["result"]
    new["searches"][0] = (label, {"result": (alpha, np.nextafter(0.5, 1.0).hex(), boundary)})
    code, lines = run(capsys, records(), new)
    assert code == 1
    assert lines == [f"{label}: result differ", *SUMMARIES[:4],
                     "1 of 2 searches bit-identical", *SUMMARIES[5:]]


def test_search_sweep_covers_families_dims_levels_and_edge_cases(monkeypatch):
    from hgritz import variational

    calls = []

    def minimize_alpha(pot, constants, dim, bracket, *, levels):
        calls.append((pot.kind, dim, bracket, levels))
        if bracket[0] == 1e-300:
            raise OverflowError("out of range")
        return variational.MinimizeResult(1.0, 0.5, False)

    monkeypatch.setattr(variational, "minimize_alpha", minimize_alpha)
    sweep = compare_trees._search_sweep()
    assert len(sweep) == len(calls) == 5 * len(compare_trees.SEARCH_DIMS) + 4
    dims = {dim for _, dim, _, _ in calls}
    assert min(dims) == 1 and max(dims) == 64 and any(dim % 2 for dim in dims if dim > 1)
    assert {levels for _, _, _, levels in calls} == {1, 2, 3, 4}
    assert all(levels <= dim for _, dim, _, levels in calls)
    names = [label.split()[1] for label, _ in sweep]
    assert {name: names.count(name) for name in compare_trees.EIGH_FAMILIES} == \
        dict.fromkeys(compare_trees.EIGH_FAMILIES, len(compare_trees.SEARCH_DIMS))
    assert calls[-3:-1] == [("harmonic", 30, (0.1, 10.0), 1), ("quartic", 13, (0.005, 0.02), 2)]
    assert sweep[-1][1] == {"result": "raised OverflowError: out of range"}
    assert sweep[0][1] == {"result": ((1.0).hex(), (0.5).hex(), False)}


def test_cli_request_raising_the_same_text_agrees(capsys):
    old, new = records(), records()
    assert old["cli"][1][1]["exit code"].startswith("raised ")
    code, lines = run(capsys, old, new)
    assert code == 0
    new["cli"][1][1]["exit code"] = "raised ValueError: other"
    code, lines = run(capsys, old, new)
    assert code == 1
    assert lines[0] == "solve seed 1 request 1: exit code differ"


def report(**results):
    return json.dumps({"command": "scan-alpha", "results": results}, indent=2) + "\n"


def test_cli_report_names_its_moved_results_keys(capsys):
    # two minimize requests and a certify one: alpha_star moves on both
    # minimize reports, energy on neither, and a spectrum entry on the certify one
    labels = ["minimize seed 1 request 0", "minimize seed 2 request 5",
              "certify seed 1 request 3"]
    before = [report(alpha_star=1.5, energy=0.5, boundary=False),
              report(alpha_star=2.0, energy=0.75, boundary=False),
              report(dims=[2, 4], spectra=[[1.0, 3.0], [0.5, 2.5]])]
    after = [report(alpha_star=1.5 * (1.0 + 3e-8), energy=0.5, boundary=False),
             report(alpha_star=2.0 * (1.0 - 1e-7), energy=0.75, boundary=False),
             report(dims=[2, 4], spectra=[[1.0, 3.0], [0.5, 2.5 * (1.0 + 2e-9)]])]
    old, new = records(), records()
    old["cli"] = [(label, {"exit code": 0, "stdout": text}) for label, text in zip(labels, before)]
    new["cli"] = [(label, {"exit code": 0, "stdout": text}) for label, text in zip(labels, after)]
    code, lines = run(capsys, old, new)
    assert code == 1
    assert lines[:3] == ["minimize seed 1 request 0: stdout differ (results: alpha_star by 3.0e-08)",
                         "minimize seed 2 request 5: stdout differ (results: alpha_star by 1.0e-07)",
                         "certify seed 1 request 3: stdout differ (results: spectra by 2.0e-09)"]
    assert lines[-1] == ("0 of 3 requests identical (results moved: alpha_star on 2 minimize "
                         "requests, largest relative change 1.0e-07; spectra on 1 certify "
                         "requests, largest relative change 2.0e-09)")


def oracle_report(kinetic, potential):
    """An oracle-compare report of two (max_discrepancy, worst_entry) pairs."""
    return json.dumps({"command": "oracle-compare", "results": {
        "band4": "ladder",
        "kinetic": {"max_discrepancy": kinetic[0], "worst_entry": kinetic[1]},
        "potential": {"max_discrepancy": potential[0], "worst_entry": potential[1]}}})


def test_moved_oracle_report_names_its_discrepancy_change(capsys):
    # results.potential is an object: its keys are reported by dotted path, so
    # the discrepancy's change reads as a number, and the moved entry as its
    # old and new index pair
    before = oracle_report((2e-15, [3, 3]), (4e-10, [55, 55]))
    after = oracle_report((2e-15, [3, 3]), (3e-10, [44, 55]))
    old, new = records(), records()
    old["cli"] = [("certify seed 1 request 2", {"exit code": 0, "stdout": before})]
    new["cli"] = [("certify seed 1 request 2", {"exit code": 0, "stdout": after})]
    code, lines = run(capsys, old, new)
    assert code == 1
    assert lines[0] == ("certify seed 1 request 2: stdout differ (results: "
                        "potential.max_discrepancy by 1.0e-10, "
                        "potential.worst_entry (55, 55) -> (44, 55))")
    assert lines[-1] == ("0 of 1 requests identical (results moved: potential.max_discrepancy "
                         "on 1 certify requests, largest relative change 1.0e-10; "
                         "potential.worst_entry on 1 certify requests)")


def test_moved_worst_entry_is_named_by_its_pairs(capsys):
    # a worst entry that moves on two requests, with the discrepancy moving on
    # one: the pairs are no number, so only the discrepancy has a largest
    # relative change; an entry missing from a report reads None
    labels = ["certify seed 1 request 2", "certify seed 2 request 7"]
    before = [oracle_report((2e-15, [3, 3]), (6.9e-11, [62, 62])),
              oracle_report((2e-15, [3, 3]), (1e-14, [5, 5]))]
    after = [oracle_report((2e-15, [3, 5]), (9.5e-11, [63, 63])),
             oracle_report((2e-15, None), (1e-14, [5, 5]))]
    old, new = records(), records()
    old["cli"] = [(label, {"exit code": 0, "stdout": text}) for label, text in zip(labels, before)]
    new["cli"] = [(label, {"exit code": 0, "stdout": text}) for label, text in zip(labels, after)]
    code, lines = run(capsys, old, new)
    assert code == 1
    assert lines[:2] == ["certify seed 1 request 2: stdout differ (results: "
                         "kinetic.worst_entry (3, 3) -> (3, 5), potential.max_discrepancy "
                         "by 2.6e-11, potential.worst_entry (62, 62) -> (63, 63))",
                         "certify seed 2 request 7: stdout differ (results: "
                         "kinetic.worst_entry (3, 3) -> None)"]
    assert lines[-1] == ("0 of 2 requests identical (results moved: kinetic.worst_entry on "
                         "2 certify requests; potential.max_discrepancy on 1 certify requests, "
                         "largest relative change 2.6e-11; potential.worst_entry on 1 certify "
                         "requests)")


def test_cli_stdout_that_is_no_report_names_no_keys(capsys):
    new = records()
    new["cli"][0] = (new["cli"][0][0], {"exit code": 0, "stdout": "alpha_star,energy\n"})
    code, lines = run(capsys, records(), new)
    assert code == 1
    assert lines[0] == "solve seed 1 request 0: stdout differ"
    assert lines[-1] == "1 of 2 requests identical"


@pytest.mark.parametrize("old, new, change", [
    (2.0, 2.5, 0.25), ([1.0, [4.0, 8.0]], [1.0, [5.0, 8.0]], 0.25), (3, 3, 0.0),
    (0.0, 1e-300, 1e-300), (True, False, math.inf), ([1.0], [1.0, 2.0], math.inf),
    ("a", "b", math.inf), (1.0, None, math.inf),
    # below 1 in size the change is absolute: a level near 0 is not magnified
    (0.5, 0.75, 0.25), (-0.25, 0.25, 0.5)])
def test_relative_change(old, new, change):
    assert compare_trees._relative_change(old, new) == change


def test_one_node_count_differs(capsys):
    new = records()
    label, fields = new["nodes"][0]
    nodes = list(fields["nodes"])
    nodes[300] += 2
    new["nodes"][0] = (label, {"nodes": nodes})
    code, lines = run(capsys, records(), new)
    assert code == 1
    assert lines == ["quartic alpha=1.8 dim=512: nodes differ",
                     *SUMMARIES[:2], "1 of 2 node counts identical", *SUMMARIES[3:]]


def test_one_table_spectrum_differs(capsys):
    new = records()
    label, fields = new["tables"][0]
    spectra = list(fields["spectra"])
    spectra[1] = np.array([0.5, 1.5, np.nextafter(2.5, 3.0)]).tobytes()
    new["tables"][0] = (label, {"spectra": spectra})
    code, lines = run(capsys, records(), new)
    assert code == 1
    assert lines == [f"{label}: spectra differ", *SUMMARIES[:3],
                     "1 of 2 tables and grids bit-identical", *SUMMARIES[4:]]


def test_table_sweep_covers_families_and_raising_cases(monkeypatch):
    import hgritz

    calls = []

    def convergence_table(pot, constants, alpha, dims):
        calls.append(("table", pot.kind, alpha, dims))
        if max(dims) == 12:
            raise OverflowError("out of range")
        return hgritz.spectral.ConvergenceTable(dims, tuple(np.zeros(d) for d in dims))

    def scan_alpha(pot, constants, dim, alphas):
        calls.append(("grid", pot.kind, dim, tuple(alphas)))
        if alphas[0] == 1e-300:
            raise OverflowError("out of range")
        return hgritz.variational.AlphaScanResult(np.asarray(alphas), (np.zeros(dim),), 1.0)

    monkeypatch.setattr(hgritz, "convergence_table", convergence_table)
    monkeypatch.setattr(hgritz, "scan_alpha", scan_alpha)
    sweep = compare_trees._table_sweep()
    assert len(sweep) == len(calls) == 54
    kinds = [call[0] for call in calls]
    assert kinds.count("table") == 5 * 2 * 2 + 3 and kinds.count("grid") == 5 * 6 + 1
    assert calls[21:23] == [("table", "quartic", 1e-3, (4, 12)),
                            ("table", "quartic", 1e-3, (8, 11, 12))]
    assert calls[-1] == ("grid", "quartic", 3, (1e-300, 1.0))
    raised = [label for label, fields in sweep
              if fields["spectra"] == "raised OverflowError: out of range"]
    assert raised == ["table out_of_range 1e+300 alpha=0.001 dims=(4, 12)",
                      "table out_of_range 1e+300 alpha=0.001 dims=(8, 11, 12)",
                      "grid out_of_range 1.0 dim=3 alphas=(1e-300, 1.0)"]


def test_one_oracle_entry_differs(capsys):
    new = records()
    label, fields = new["oracle"][0]
    t_bytes, _ = fields["T and V"]
    v = np.array([[0.75, 0.0], [0.0, np.nextafter(3.75, 4.0)]])
    new["oracle"][0] = (label, {"T and V": (t_bytes, v.tobytes())})
    code, lines = run(capsys, records(), new)
    assert code == 1
    assert lines == [f"{label}: T and V differ", *SUMMARIES[:5],
                     "1 of 2 oracle matrices and basis tables bit-identical", SUMMARIES[6]]


def test_oracle_sweep_covers_families_dims_and_carried_points(monkeypatch):
    import hgritz
    import hgritz.quadrature as quadrature

    oracles, tables = [], []

    def oracle_matrices(spec, pot, dim):
        oracles.append((pot.kind, pot.degree, spec.alpha, dim))
        if dim == 64 and pot.kind == "harmonic":
            raise ValueError("too large")
        return np.zeros((dim, dim)), np.ones((dim, dim))

    def basis_table(spec, rmax, x):
        x = np.asarray(x, dtype=float)
        tables.append((spec.alpha, rmax, x))
        return np.zeros((rmax + 1, x.size))

    monkeypatch.setattr(quadrature, "oracle_matrices", oracle_matrices)
    monkeypatch.setattr(hgritz, "basis_table", basis_table)
    sweep = compare_trees._oracle_sweep()
    assert len(sweep) == len(oracles) + len(tables) == 4 * 4 * 18 + 3 * 3 + 1
    assert {(kind, degree) for kind, degree, _, _ in oracles} == \
        {("harmonic", 2), ("quartic", 4), ("even_polynomial", 6), ("even_polynomial", 4)}
    dims = {dim for _, _, _, dim in oracles}
    assert min(dims) == 1 and max(dims) == 64 and {15, 16, 17, 63} <= dims
    # points past alpha x^2 = 1416 run on carried mantissas; the last table
    # holds points where every row is 0
    assert any(alpha * np.max(x * x) > 1416.0 for alpha, _, x in tables[:-1])
    assert any(alpha * np.max(x * x) < 1416.0 for alpha, _, x in tables[:-1])
    assert max(rmax for _, rmax, _ in tables) == hgritz.MAX_INDEX - 1
    assert np.isinf(tables[-1][2]).any()
    assert sweep[0][1] == {"T and V": (np.zeros((1, 1)).tobytes(), np.ones((1, 1)).tobytes())}
    raised = [label for label, fields in sweep
              if fields.get("T and V") == "raised ValueError: too large"]
    assert raised == [f"oracle harmonic 1.0 alpha={alpha} dim=64"
                      for alpha in compare_trees.ORACLE_ALPHAS]
    assert sweep[-1][1] == {"table": (np.zeros((1024, 4)).tobytes(),)}


@pytest.mark.parametrize("sweep", ["eigh", "numerov", "nodes", "tables", "searches", "oracle",
                                   "cli"])
def test_shorter_record_list_is_reported(capsys, sweep):
    new = records()
    dropped = new[sweep].pop()[0]
    code, lines = run(capsys, records(), new)
    assert code == 1
    assert lines[0] == f"{dropped}: missing in NEW"
    code, lines = run(capsys, new, records())
    assert code == 1
    assert lines[0] == f"{dropped}: missing in OLD"


def test_label_mismatch_is_reported(capsys):
    new = records()
    new["cli"][0] = ("solve seed 2 request 0", new["cli"][0][1])
    code, lines = run(capsys, records(), new)
    assert code == 1
    assert lines[0] == "solve seed 1 request 0: labelled 'solve seed 2 request 0' in NEW"
    assert lines[-1] == "1 of 2 requests identical"


def test_a_failed_tree_differs_everywhere(capsys):
    code, lines = run(capsys, records(), {})
    assert code == 1
    assert lines[-7:] == ["0 of 2 solves and rules bit-identical",
                          "0 of 2 spectra bit-identical (0 levels)",
                          "0 of 2 node counts identical",
                          "0 of 2 tables and grids bit-identical",
                          "0 of 2 searches bit-identical",
                          "0 of 2 oracle matrices and basis tables bit-identical",
                          "0 of 2 requests identical"]


def test_wrong_argument_count_is_a_usage_error(capsys):
    assert compare_trees.main(["compare_trees.py", "only-one"]) == 2
    assert "OLD_SRC NEW_SRC" in capsys.readouterr().err


def test_a_tree_that_fails_to_import_is_reported(capsys, tmp_path):
    trees = []
    for name in ("old", "new"):
        package = tmp_path / name / "hgritz"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text(f"raise ImportError('{name} tree is broken')\n")
        trees.append(str(tmp_path / name))
    assert compare_trees.main(["compare_trees.py", *trees]) == 1
    out = capsys.readouterr().out
    assert f"OLD tree {trees[0]}: the sweeps exited with code 1" in out
    assert "ImportError: old tree is broken" in out
    assert "ImportError: new tree is broken" in out
    assert out.endswith("0 of 0 requests identical\n")


def test_a_path_without_the_package_is_reported(capsys, monkeypatch, tmp_path):
    # the package found on PYTHONPATH must not stand in for the missing one
    monkeypatch.setenv("PYTHONPATH", str(TOOL.parent.parent / "src"))
    assert compare_trees.main(["compare_trees.py", str(tmp_path), str(tmp_path)]) == 1
    assert "holds no hgritz package" in capsys.readouterr().out

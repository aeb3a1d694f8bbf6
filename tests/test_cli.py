import json
import math
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import hgritz.basis as basis
import hgritz.cli as cli
import hgritz.quadrature as quadrature
import hgritz.spectral as spectral
import hgritz.variational as variational
from hgritz import numerov
from hgritz import (BasisSpec, ConvergenceTable, PotentialSpec, basis_table,
                    hamiltonian_matrix)

GOLDEN = Path(__file__).parent / "golden"

#: One invocation per report shape: (golden name, exit code, argv).  The
#: expected stdout of each is tests/golden/<name>.csv and <name>.json.
REPORTS = [
    ("solve", 0, ["solve", "--potential", "even-polynomial", "--coeffs", "0,-1,0.5",
                  "--alpha", "2", "--dim", "6"]),
    ("verify_mhu", 0, ["verify-mhu", "--alpha", "1.3", "--dims", "2,4",
                       "--exact", "analytic", "--exact-levels", "2"]),
    ("verify_mhu_vacuous", 0, ["verify-mhu", "--alpha", "1", "--dims", "3",
                               "--exact", "analytic", "--exact-levels", "2"]),
    ("scan_grid", 0, ["scan-alpha", "--potential", "quartic", "--dim", "4",
                      "--alpha-grid", "0.5,1.5,3", "--levels", "3"]),
    ("scan_bracket", 0, ["scan-alpha", "--potential", "quartic", "--dim", "1",
                         "--alpha-bracket", "0.5,5"]),
    ("scan_bracket_boundary", 0, ["scan-alpha", "--dim", "1", "--alpha-bracket", "2,5"]),
    ("oracle", 0, ["oracle-compare", "--potential", "quartic", "--dim", "6",
                   "--alpha", "1.5"]),
    ("oracle_misindexed", 1, ["oracle-compare", "--potential", "quartic", "--dim", "5",
                              "--band4", "misindexed"]),
]


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name,code,argv", REPORTS, ids=[r[0] for r in REPORTS])
def test_report_bytes(capsys, name, code, argv, fmt):
    got, out, _ = run_cli(capsys, argv + ["--format", fmt])
    assert got == code
    assert out == (GOLDEN / f"{name}.{fmt}").read_bytes().decode("utf-8")


class TestSolve:
    def test_exact_diagonal_golden_csv(self, capsys):
        code, out, _ = run_cli(capsys, [
            "solve", "--potential", "harmonic", "--omega", "1",
            "--alpha", "exact-diagonal", "--dim", "5"])
        assert code == 0
        assert out == ("index,energy,parity,nodes\n"
                       "0,0.5,e,0\n"
                       "1,1.5,o,1\n"
                       "2,2.5,e,2\n"
                       "3,3.5,o,3\n"
                       "4,4.5,e,4\n")

    def test_single_row(self, capsys):
        code, out, _ = run_cli(capsys, ["solve", "--alpha", "1", "--dim", "1"])
        assert code == 0
        assert out == "index,energy,parity,nodes\n0,0.5,e,0\n"

    def test_quartic_ground_matches_reference(self, capsys):
        code, out, _ = run_cli(capsys, [
            "solve", "--potential", "quartic", "--lambda", "1",
            "--alpha", "1.8", "--dim", "40"])
        assert code == 0
        first = out.splitlines()[1].split(",")
        assert float(first[1]) == pytest.approx(0.667986, abs=2e-6)
        assert first[2] == "e" and first[3] == "0"

    @pytest.mark.parametrize("alpha,dim", [("4", "120"), ("1.43181", "147")])
    def test_deep_double_well_parity_and_nodes(self, capsys, alpha, dim):
        # the lowest doublets agree to 12 digits; a solver that mixed the
        # two parity blocks reported every state as "m", state 0 with 1 node
        code, out, _ = run_cli(capsys, [
            "solve", "--potential", "even-polynomial", "--coeffs", "0,-10,0.5",
            "--alpha", alpha, "--dim", dim])
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:11]]
        assert [row[2] for row in rows] == ["e", "o"] * 5
        assert [int(row[3]) for row in rows] == list(range(10))

    @pytest.mark.parametrize("argv,pot,named", [
        (["--potential", "quartic", "--alpha", "1.8", "--dim", "200"],
         PotentialSpec.quartic(1.0), [39, 41]),
        (["--potential", "even-polynomial", "--coeffs", "0,-10,0.5",
          "--alpha", "1.59369", "--dim", "69"],
         PotentialSpec.even_polynomial((0.0, -10.0, 0.5)), [0, 1]),
        (["--potential", "even-polynomial", "--coeffs", "0,1.63174,0.321317,0.0370751",
          "--alpha", "2.82865", "--dim", "87"],
         PotentialSpec.even_polynomial((0.0, 1.63174, 0.321317, 0.0370751)),
         [23, 24, 25, 26]),
    ], ids=["quartic", "deep-well", "sextic"])
    def test_converged_states_report_index_nodes_and_parity(self, capsys, argv, pot, named):
        # converged as the benchmark checks define it: the LAPACK level at
        # dim agrees with the one at 2 dim to 1e-12.  The node grid used to
        # run 5/sqrt(alpha) past the turning point and into double-well
        # barriers, where the Ritz tails ripple: 53 and 83 nodes for quartic
        # states 39 and 41, 22 and 21 for the deep-well ground doublet
        code, out, _ = run_cli(capsys, ["solve", *argv, "--format", "json"])
        assert code == 0
        rows = json.loads(out)["results"]
        alpha, dim = float(argv[-3]), int(argv[-1])

        def levels(n):
            return np.linalg.eigvalsh(hamiltonian_matrix(BasisSpec(alpha), pot, n).to_dense())

        ref, ref2 = levels(dim), levels(2 * dim)
        converged = [i for i in range(dim)
                     if abs(ref[i] - ref2[i]) <= 1e-12 * max(1.0, abs(ref2[i]))]
        assert set(named) <= set(converged)
        wrong = [(i, rows[i]["nodes"], rows[i]["parity"]) for i in converged
                 if (rows[i]["nodes"], rows[i]["parity"]) != (i, "eo"[i % 2])]
        assert wrong == []

    def test_node_certification_cost(self, capsys, monkeypatch):
        # one sampling shared by all states, not a basis table per state:
        # per state, 128 recurrence rows on 2001 points
        evaluated = []

        def counted(spec, rmax, x):
            evaluated.append((rmax + 1) * np.size(x))
            return basis_table(spec, rmax, x)

        monkeypatch.setattr(spectral, "basis_table", counted)
        code, _, _ = run_cli(capsys, ["solve", "--potential", "quartic",
                                      "--alpha", "1.8", "--dim", "128"])
        assert code == 0
        assert 0 < sum(evaluated) <= 128 * 128 * 2001 // 10

    def test_oracle_compare_cost(self, capsys, monkeypatch):
        # one basis recurrence pass at the rule nodes for the whole dim-64
        # oracle, and no per-element oracle call
        elements, passes = [], []
        element_oracle = quadrature.element_oracle
        recurrence = basis._recurrence

        def counted_element(*args, **kwargs):
            elements.append(1)
            return element_oracle(*args, **kwargs)

        def counted_pass(spec, xv, stop):
            passes.append(stop)
            return recurrence(spec, xv, stop)

        monkeypatch.setattr(quadrature, "element_oracle", counted_element)
        monkeypatch.setattr(basis, "_recurrence", counted_pass)
        code, out, _ = run_cli(capsys, ["oracle-compare", "--potential", "quartic",
                                        "--dim", "64"])
        assert code in (0, 1)
        assert out.startswith("matrix,max_discrepancy")
        assert elements == []
        # rows 0 .. 64: phi_63' reads phi_64
        assert passes == [65]

    def test_numerov_scan_makes_no_scalar_shoot(self, capsys, monkeypatch):
        # the scan runs batched and hands each bracket psi(x_max) at its
        # ends; scalar shoots come only from bisection midpoints and the
        # node-count trajectories
        callers = []
        shoot = numerov.shoot

        def counted(*args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return shoot(*args, **kwargs)

        monkeypatch.setattr(numerov, "shoot", counted)
        code, _, _ = run_cli(capsys, ["verify-mhu", "--potential", "quartic", "--alpha", "2",
                                      "--dims", "2:12:2", "--exact", "numerov",
                                      "--exact-levels", "3", "--numerov-steps", "2000"])
        assert code == 0
        assert callers.count("_trajectory_nodes") == 3
        assert callers.count("_bisect") > 3 * 2
        assert set(callers) == {"_bisect", "_trajectory_nodes"}

    def test_json_schema_and_determinism(self, capsys):
        argv = ["solve", "--alpha", "exact-diagonal", "--dim", "4", "--format", "json"]
        code, out1, _ = run_cli(capsys, argv)
        assert code == 0
        code, out2, _ = run_cli(capsys, argv)
        assert out1 == out2
        doc = json.loads(out1)
        jsonschema.validate(doc, cli.report_schema())
        assert doc["command"] == "solve"
        assert doc["results"][2] == {"index": 2, "energy": 2.5, "parity": "e", "nodes": 2}

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, ["solve", "--alpha", "1", "--dim", "2",
                                        "--output", str(target)])
        assert code == 0
        assert out == ""
        text = target.read_text()
        assert text.startswith("index,energy,parity,nodes\n")
        assert text.endswith("\n")

    def test_exact_diagonal_requires_harmonic(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["solve", "--potential", "quartic",
                      "--alpha", "exact-diagonal", "--dim", "3"])
        assert err.value.code == 2

    def test_missing_dim_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["solve", "--alpha", "1"])
        assert err.value.code == 2

    def test_bad_alpha_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["solve", "--alpha", "tiny", "--dim", "2"])
        assert err.value.code == 2


class TestVerifyMhu:
    def test_harmonic_passes(self, capsys):
        code, out, _ = run_cli(capsys, [
            "verify-mhu", "--alpha", "2", "--dims", "2:30:2",
            "--exact", "analytic", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, cli.report_schema())
        assert all(c["pass"] for c in doc["checks"])
        assert {c["name"] for c in doc["checks"]} == {"monotonicity", "interlacing",
                                                      "upper_bound"}

    def test_numerov_exact_values(self, capsys):
        code, out, _ = run_cli(capsys, [
            "verify-mhu", "--alpha", "1.3", "--dims", "2,4",
            "--exact", "numerov", "--exact-levels", "2",
            "--numerov-steps", "2000", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        np.testing.assert_allclose(doc["results"]["exact"], [0.5, 1.5], atol=1e-7)

    def test_numerov_levels_below_the_scan_start_are_an_error(self, capsys):
        # at hbar 1e-8 the wanted levels lie within 1e-6 of min V, where the
        # Numerov scan does not look; a vacuous upper_bound check would pass
        code, out, err = run_cli(capsys, [
            "verify-mhu", "--hbar", "1e-8", "--alpha", "exact-diagonal", "--dims", "2,4",
            "--exact", "numerov", "--numerov-steps", "2000"])
        assert (code, out) == (1, "")
        assert "scan start" in err

    def test_numerov_level_below_the_scan_start_is_named(self, capsys):
        # at hbar 1e-6 the ground level 5e-7 lies below the scan start 1e-6;
        # the report names that, and no option the CLI does not have
        code, out, err = run_cli(capsys, [
            "verify-mhu", "--potential", "harmonic", "--hbar", "1e-6",
            "--alpha", "exact-diagonal", "--dims", "2,4", "--exact", "numerov",
            "--numerov-steps", "2000"])
        assert (code, out) == (1, "")
        assert "even-channel level lies below the scan start" in err
        assert "scan_points" not in err

    @pytest.mark.parametrize("steps", ["0", "999", "1000001", "100000000000"])
    def test_numerov_steps_out_of_range_is_usage_error(self, capsys, steps):
        # 1e11 steps used to die on a 745 GiB allocation
        with pytest.raises(SystemExit) as err:
            cli.main(["verify-mhu", "--dims", "2,4", "--exact", "numerov",
                      "--numerov-steps", steps])
        assert err.value.code == 2
        assert "--numerov-steps must lie in [1000, 1000000]" in capsys.readouterr().err

    def test_single_dim_vacuous(self, capsys):
        code, out, _ = run_cli(capsys, [
            "verify-mhu", "--alpha", "1", "--dims", "5",
            "--exact", "analytic", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        mono = next(c for c in doc["checks"] if c["name"] == "monotonicity")
        assert "vacuous" in mono["detail"]

    def test_tampered_table_fails_with_location(self, capsys, monkeypatch):
        # negative control: corrupt the table the command builds
        def corrupted(pot, constants, alpha, dims):
            dims = tuple(dims)
            spectra = []
            for d in dims:
                s = np.arange(d) + 0.5
                spectra.append(s)
            spectra[-1] = spectra[-1].copy()
            spectra[-1][0] = 0.25  # below the exact ground energy
            return ConvergenceTable(dims, tuple(spectra))

        monkeypatch.setattr(cli, "convergence_table", corrupted)
        code, out, _ = run_cli(capsys, [
            "verify-mhu", "--alpha", "1", "--dims", "2,4",
            "--exact", "analytic", "--format", "json"])
        assert code == 1
        doc = json.loads(out)
        bound = next(c for c in doc["checks"] if c["name"] == "upper_bound")
        assert not bound["pass"]
        assert "(i=0, dim=4)" in bound["detail"]


class TestScanAlpha:
    def test_grid_golden_csv(self, capsys):
        code, out, _ = run_cli(capsys, [
            "scan-alpha", "--dim", "1", "--alpha-grid", "0.5,1,2"])
        assert code == 0
        assert out == ("alpha,e0\n"
                       "0.5,0.625\n"
                       "1,0.5\n"
                       "2,0.625\n"
                       "# argmin_alpha,1\n")

    def test_bracket_finds_exact_diagonal_width(self, capsys):
        code, out, _ = run_cli(capsys, [
            "scan-alpha", "--dim", "1", "--alpha-bracket", "0.1,10",
            "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["alpha_star"] == pytest.approx(1.0, abs=1e-6)
        assert doc["results"]["energy"] == pytest.approx(0.5, abs=1e-10)
        assert doc["results"]["boundary"] is False

    def test_quartic_bracket(self, capsys):
        code, out, _ = run_cli(capsys, [
            "scan-alpha", "--potential", "quartic", "--dim", "1",
            "--alpha-bracket", "0.5,5", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["alpha_star"] == pytest.approx(6 ** (1 / 3), abs=1e-6)

    def test_boundary_solution_warns_but_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, [
            "scan-alpha", "--dim", "1", "--alpha-bracket", "2,5",
            "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["boundary"] is True
        assert "warning" in doc["results"]

    def test_grid_xor_bracket(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["scan-alpha", "--dim", "1",
                      "--alpha-grid", "1", "--alpha-bracket", "0.5,2"])
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            cli.main(["scan-alpha", "--dim", "1"])
        assert err.value.code == 2


class TestOracleCompare:
    def test_harmonic_passes(self, capsys):
        code, out, _ = run_cli(capsys, [
            "oracle-compare", "--dim", "21", "--alpha", "2", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, cli.report_schema())
        assert all(c["pass"] for c in doc["checks"])

    def test_scalar_case_trivially_passes(self, capsys):
        code, _, _ = run_cli(capsys, ["oracle-compare", "--dim", "1"])
        assert code == 0

    def test_misindexed_band4_fails_at_0_4(self, capsys):
        code, out, _ = run_cli(capsys, [
            "oracle-compare", "--potential", "quartic", "--dim", "5",
            "--band4", "misindexed", "--format", "json"])
        assert code == 1
        doc = json.loads(out)
        potential = next(c for c in doc["checks"]
                         if c["name"] == "potential_oracle_agreement")
        assert not potential["pass"]
        assert doc["results"]["potential"]["worst_entry"] == [0, 4]
        assert doc["results"]["potential"]["max_discrepancy"] == pytest.approx(
            0.25 * (math.sqrt(40.0) - math.sqrt(24.0)), rel=1e-6)

    @pytest.mark.parametrize("argv", [
        ["--potential", "harmonic", "--dim", "8"],
        ["--potential", "even-polynomial", "--coeffs", "0,0,1", "--dim", "8"],
        ["--potential", "quartic", "--dim", "4"],
    ], ids=["harmonic", "even-polynomial", "quartic-dim-4"])
    def test_misindexed_band4_without_quartic_band_four_is_usage_error(self, capsys, argv):
        # the override would leave the matrix unchanged and both checks pass
        with pytest.raises(SystemExit) as err:
            cli.main(["oracle-compare", "--band4", "misindexed"] + argv)
        assert err.value.code == 2
        assert "band4 'misindexed' needs a quartic potential" in capsys.readouterr().err

    def test_dim_cap_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["oracle-compare", "--dim", "65"])
        assert err.value.code == 2


#: (argv, flag): each gives the named basis-width flag an invalid value.
BAD_WIDTHS = [
    (["solve", "--alpha", "inf", "--dim", "2"], "--alpha"),
    (["verify-mhu", "--alpha", "inf", "--dims", "2,4"], "--alpha"),
    (["oracle-compare", "--alpha", "inf", "--dim", "2"], "--alpha"),
    (["scan-alpha", "--dim", "2", "--alpha-grid", "1,inf"], "--alpha-grid"),
    (["scan-alpha", "--dim", "2", "--alpha-bracket", "1,inf"], "--alpha-bracket"),
    (["solve", "--alpha", "nan", "--dim", "2"], "--alpha"),
    (["oracle-compare", "--alpha", "-1", "--dim", "2"], "--alpha"),
    (["scan-alpha", "--dim", "2", "--alpha-grid", "0,1"], "--alpha-grid"),
    (["scan-alpha", "--dim", "2", "--alpha-bracket", "nan,1"], "--alpha-bracket"),
]


@pytest.mark.parametrize("argv,flag", BAD_WIDTHS, ids=[" ".join(a) for a, _ in BAD_WIDTHS])
def test_width_must_be_positive_and_finite(capsys, argv, flag):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    assert f"{flag} must be positive and finite" in capsys.readouterr().err


BAD_DIMS = [
    (["solve", "--dim", "1025"], "--dim", 1025),
    (["solve", "--dim", "0"], "--dim", 0),
    (["scan-alpha", "--dim", "1025", "--alpha-grid", "1"], "--dim", 1025),
    (["scan-alpha", "--dim", "-2", "--alpha-bracket", "1,2"], "--dim", -2),
    (["verify-mhu", "--dims", "1024,1025"], "--dims", 1025),
    (["verify-mhu", "--dims", "0:4:2"], "--dims", 0),
]


@pytest.mark.parametrize("argv,flag,dim", BAD_DIMS, ids=[" ".join(a) for a, _, _ in BAD_DIMS])
def test_dim_must_lie_within_the_index_cap(capsys, monkeypatch, argv, flag, dim):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the usage error")

    monkeypatch.setattr(cli, "solve_spectrum", no_solve)
    monkeypatch.setattr(variational, "solve_spectrum", no_solve)
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    assert f"{flag} must lie in [1, {basis.MAX_INDEX}], got {dim}" in capsys.readouterr().err

import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from helpers import exact_parity

import hgritz.basis as basis
import hgritz.cli as cli
import hgritz.quadrature as quadrature
import hgritz.spectral as spectral
import hgritz.variational as variational
from hgritz import numerov
from hgritz import (BasisSpec, ConvergenceTable, PotentialSpec, basis_table,
                    hamiltonian_matrix, kinetic_matrix)

GOLDEN = Path(__file__).parent / "golden"

#: A Numerov reference that needs rescaling: at mass 1500 psi grows by some
#: e^800 across the central barrier of the deep double well 0,-10,0.5.
RESCALED_MHU = ["verify-mhu", "--potential", "even-polynomial", "--coeffs", "0,-10,0.5",
                "--mass", "1500", "--alpha", "4", "--dims", "20:40:10", "--exact", "numerov",
                "--exact-levels", "2"]

#: One invocation per report shape: (golden name, exit code, argv).  The
#: expected stdout of each is tests/golden/<name>.csv and <name>.json.
REPORTS = [
    ("solve", 0, ["solve", "--potential", "even-polynomial", "--coeffs", "0,-1,0.5",
                  "--alpha", "2", "--dim", "6"]),
    ("verify_mhu", 0, ["verify-mhu", "--alpha", "1.3", "--dims", "2,4",
                       "--exact", "analytic", "--exact-levels", "2"]),
    ("verify_mhu_vacuous", 0, ["verify-mhu", "--alpha", "1", "--dims", "3",
                               "--exact", "analytic", "--exact-levels", "2"]),
    ("verify_mhu_rescaled", 0, RESCALED_MHU),
    ("scan_grid", 0, ["scan-alpha", "--potential", "quartic", "--dim", "4",
                      "--alpha-grid", "0.5,1.5,3", "--levels", "3"]),
    ("scan_bracket", 0, ["scan-alpha", "--potential", "quartic", "--dim", "1",
                         "--alpha-bracket", "0.5,5"]),
    ("scan_bracket_boundary", 0, ["scan-alpha", "--dim", "1", "--alpha-bracket", "2,5"]),
    # two parity blocks per width, stacked; at dim 9 the odd block is padded
    ("scan_bracket_two_blocks", 0, ["scan-alpha", "--potential", "quartic", "--dim", "8",
                                    "--alpha-bracket", "0.5,4"]),
    ("scan_bracket_padded", 0, ["scan-alpha", "--potential", "quartic", "--dim", "9",
                                "--alpha-bracket", "0.5,4"]),
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

    @pytest.mark.parametrize("argv", [
        ["--potential", "even-polynomial", "--coeffs", "0,-10,0.5",
         "--alpha", "4", "--dim", "120"],
        ["--potential", "even-polynomial", "--coeffs", "0,-10,0.5",
         "--alpha", "1.43181", "--dim", "147"],
        ["--potential", "even-polynomial", "--coeffs", "0,1.63174,0.321317,0.0370751",
         "--alpha", "2.82865", "--dim", "64"],
        ["--alpha", "exact-diagonal", "--dim", "1"],
        ["--alpha", "exact-diagonal", "--dim", "2"],
    ], ids=["deep-well-120", "deep-well-147", "sextic-64", "harmonic-1", "harmonic-2"])
    def test_parity_column_is_each_vector_parity(self, capsys, monkeypatch, argv):
        # solve reads the letter from the parity of the certified node
        # count; it must be the parity of the eigenvector itself
        spectra = []

        def spy(spec, pot, spectrum):
            spectra.append(spectrum)
            return spectral.node_counts(spec, pot, spectrum)

        monkeypatch.setattr(cli, "node_counts", spy)
        code, out, _ = run_cli(capsys, ["solve", *argv, "--format", "json"])
        assert code == 0
        (spectrum,) = spectra
        letter = {"even": "e", "odd": "o", "mixed": "m"}
        want = [letter[exact_parity(spectrum.eigenvectors[:, i])]
                for i in range(spectrum.dim)]
        assert [row["parity"] for row in json.loads(out)["results"]] == want

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

        def counted_pass(spec, xv, out):
            passes.append(len(out))
            return recurrence(spec, xv, out)

        monkeypatch.setattr(quadrature, "element_oracle", counted_element)
        monkeypatch.setattr(basis, "_recurrence", counted_pass)
        monkeypatch.setattr(quadrature, "_recurrence", counted_pass)
        code, out, _ = run_cli(capsys, ["oracle-compare", "--potential", "quartic",
                                        "--dim", "64"])
        assert code in (0, 1)
        assert out.startswith("matrix,max_discrepancy")
        assert elements == []
        # rows 0 .. 64: phi_63' reads phi_64
        assert passes == [65]

    def test_numerov_scan_makes_no_scalar_shoot(self, capsys, monkeypatch):
        # the scans run batched; scalar shoots (_shoot) come only from the
        # counted shoots that certify the coarse scan's cells and hand each
        # bracket psi(x_max) at its ends, the refinement and the node-count
        # trajectories
        callers = []
        shoot = numerov._shoot

        def count(*args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return shoot(*args, **kwargs)

        monkeypatch.setattr(numerov, "_shoot", count)
        code, _, _ = run_cli(capsys, ["verify-mhu", "--potential", "quartic", "--alpha", "2",
                                      "--dims", "2:12:2", "--exact", "numerov",
                                      "--exact-levels", "3"])
        assert code == 0
        assert callers.count("_trajectory_nodes") == 3
        assert callers.count("_bisect") > 3 * 2
        assert set(callers) == {"_located_cells", "_bisect", "_trajectory_nodes"}

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

    def test_numerov_reference_that_rescales(self, capsys, monkeypatch):
        # the bytes are pinned in tests/golden/verify_mhu_rescaled.*; with no
        # rescaling the same request overflows
        argv = RESCALED_MHU + ["--format", "json"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert json.loads(out)["results"]["exact"] == [-49.9183670162] * 2
        monkeypatch.setattr(numerov, "_RESCALE_AT", math.inf)
        code, _, err = run_cli(capsys, argv)
        assert code == 1
        assert "overflowed" in err

    def test_numerov_exact_values(self, capsys):
        code, out, _ = run_cli(capsys, [
            "verify-mhu", "--alpha", "1.3", "--dims", "2,4",
            "--exact", "numerov", "--exact-levels", "2", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        np.testing.assert_allclose(doc["results"]["exact"], [0.5, 1.5], atol=1e-7)

    @pytest.mark.parametrize("hbar", ["1e-6", "1e-8"])
    def test_numerov_levels_near_min_v_are_found(self, capsys, hbar):
        # the scan used to start 1e-6 (1 + |min V|) above min V, past the
        # ground level hbar / 2, and exited 1 naming it; it starts at min V now
        code, out, _ = run_cli(capsys, [
            "verify-mhu", "--potential", "harmonic", "--hbar", hbar,
            "--alpha", "exact-diagonal", "--dims", "2,4", "--exact", "numerov",
            "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert [c["pass"] for c in doc["checks"]] == [True, True, True]
        np.testing.assert_allclose(doc["results"]["exact"],
                                   [(n + 0.5) * float(hbar) for n in range(4)],
                                   rtol=0.0, atol=1e-10)

    def test_numerov_reference_within_the_upper_bound_tolerance(self, capsys):
        # at the fixed 20,000 steps the reference's rounding put the ground
        # level 2.083e-10 above tolerance; the derived 5,000 steps leave slack
        code, out, _ = run_cli(capsys, [
            "verify-mhu", "--potential", "quartic", "--lambda", "1.06739",
            "--alpha", "2.80778", "--dims", "2:26:2", "--exact", "numerov",
            "--exact-levels", "7", "--format", "json"])
        assert code == 0
        upper = next(c for c in json.loads(out)["checks"] if c["name"] == "upper_bound")
        assert upper["pass"]

    def test_numerov_reference_holds_every_wanted_level(self, capsys, monkeypatch):
        # a table whose level 3 lies 1e-6 under the exact 7.33572999523 breaks
        # the upper bound; the reference is taken by level count, so it holds
        # level 3 whatever the table says
        table = cli.convergence_table

        def corrupted(*args):
            good = table(*args)
            spectra = [np.array(s) for s in good.spectra]
            for s in spectra:
                s[3] = 7.33572999523 - 1e-6
            return ConvergenceTable(good.dims, tuple(spectra))

        monkeypatch.setattr(cli, "convergence_table", corrupted)
        code, out, _ = run_cli(capsys, [
            "verify-mhu", "--potential", "quartic", "--alpha", "2", "--dims", "20,30",
            "--exact", "numerov", "--exact-levels", "4", "--format", "json"])
        assert code == 1
        doc = json.loads(out)
        assert len(doc["results"]["exact"]) == 4
        assert doc["results"]["exact"][3] == pytest.approx(7.33572999523, abs=1e-9)
        upper = next(c for c in doc["checks"] if c["name"] == "upper_bound")
        assert not upper["pass"]
        assert "(i=3, dim=20)" in upper["detail"]

    @pytest.mark.parametrize("pot, scale", [
        (["--lambda", "1e200"], 1e200 ** (1.0 / 3.0)),
        (["--lambda", "1e250", "--mass", "1e-300"], 1e250 ** (1.0 / 3.0) * 1e200),
    ], ids=["1e200", "1e250-light"])
    def test_numerov_extreme_quartic_is_answered(self, capsys, pot, scale):
        # a scan of 8 energies per unit energy asked for about 1e201 energies
        # here and was refused; taken by level count it scans 64.  Levels
        # scale as lam^(1/3) (hbar^2 / m)^(2/3), and on the derived grid,
        # DEFAULT_STEPS at every scale, they are those of lam = 1 to the
        # refinement width
        levels = []
        for argv in (pot, []):
            code, out, _ = run_cli(capsys, [
                "verify-mhu", "--potential", "quartic", *argv, "--dims", "2,4",
                "--exact", "numerov", "--format", "json"])
            assert code == 0
            levels.append(json.loads(out)["results"]["exact"])
        np.testing.assert_allclose(np.array(levels[0]) / scale, levels[1], rtol=1e-10)

    def test_numerov_levels_within_the_rounding_of_min_v_are_named(self, capsys):
        # min V = -2.5e299, whose float spacing is some 1e209 times the
        # level spacing; the search for the cap once never ended
        start = time.perf_counter()
        code, out, err = run_cli(capsys, [
            "verify-mhu", "--potential", "even-polynomial", "--coeffs", "0,-1e150,1",
            "--dims", "2,4", "--exact", "numerov"])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err.startswith("error: the energy scale 7.07107e+74 of the potential's "
                              "constants rounds to min V = -2.5e+299")

    def test_numerov_levels_scale_with_hbar(self, capsys):
        # quartic levels scale as hbar^(4/3): the scan of 8 energies per unit
        # energy up to the Ritz levels at alpha 1 took 1.4e6 steps and exited 1
        levels = []
        for hbar in ("1e-3", "1"):
            code, out, _ = run_cli(capsys, [
                "verify-mhu", "--potential", "quartic", "--hbar", hbar, "--dims", "2,4",
                "--exact", "numerov", "--format", "json"])
            assert code == 0
            levels.append(json.loads(out)["results"]["exact"])
        assert len(levels[0]) == 4
        np.testing.assert_allclose(levels[0], np.array(levels[1]) * 1e-4, rtol=0.0, atol=1e-10)

    def test_numerov_reference_in_a_deep_double_well(self, capsys):
        # the Ritz cap sat 591 above min V, and every level of both wells
        # below it was refined: this ran past 10 minutes
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, [
            "verify-mhu", "--potential", "even-polynomial", "--coeffs", "0,-41.8479,0.530985",
            "--mass", "265.871", "--alpha", "2.32961", "--dims", "3,10,19",
            "--exact", "numerov", "--exact-levels", "6", "--format", "json"])
        assert time.perf_counter() - start < 5.0
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, cli.report_schema())
        exact = doc["results"]["exact"]
        # three doublets, each an even and an odd level of the two wells
        assert len(exact) == 6
        assert exact == sorted(exact)
        assert all(c["pass"] for c in doc["checks"])

    def test_numerov_reference_at_a_slope_below_1e_10(self, capsys):
        # V'(x_t) is 9.5e-14 at hbar omega = 1e-9: an absolute slope floor of
        # 1e-10 made the decay length and x_max 10 times too short, and the
        # domain check refused the request with 0.47 e-folds
        code, out, _ = run_cli(capsys, [
            "verify-mhu", "--potential", "harmonic", "--omega", "1e-9", "--alpha", "1e-9",
            "--dims", "2,4", "--exact", "numerov", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert all(c["pass"] for c in doc["checks"])
        # the refinement width is an absolute 1e-10, a tenth of hbar omega
        assert doc["results"]["exact"] == pytest.approx([0.5e-9, 1.5e-9, 2.5e-9, 3.5e-9],
                                                        rel=1e-4)

    @pytest.mark.parametrize("argv, message", [
        (["--dims", "4,2"], "--dims must be strictly increasing"),
        (["--dims", "2,4", "--exact", "analytic", "--exact-levels", "0"],
         "--exact-levels must be positive"),
        (["--potential", "quartic", "--dims", "2,4", "--exact", "analytic"],
         "--exact analytic applies only to the harmonic potential"),
        # whose table leaves the float range: the usage error comes first
        (["--potential", "quartic", "--lambda", "1e300", "--alpha", "1e-3", "--dims", "4,12",
          "--exact", "analytic"], "--exact analytic applies only to the harmonic potential"),
        (["--potential", "quartic", "--lambda", "1e300", "--alpha", "1e-3", "--dims", "4,12",
          "--exact", "numerov", "--exact-levels", "0"], "--exact-levels must be positive"),
    ])
    def test_usage_errors_name_their_flag(self, capsys, monkeypatch, argv, message):
        # each is refused before any level is solved
        monkeypatch.setattr(cli, "convergence_table", None)
        with pytest.raises(SystemExit) as err:
            cli.main(["verify-mhu", *argv])
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n")

    def test_dims_range_steps_by_one_by_default(self, capsys):
        code, out, _ = run_cli(capsys, ["verify-mhu", "--alpha", "1.3", "--dims", "2:5",
                                        "--format", "json"])
        assert code == 0
        assert json.loads(out)["config"]["dims"] == [2, 3, 4, 5]

    @pytest.mark.parametrize("steps", ["0", "999", "2000", "1000001", "100000000000"])
    def test_numerov_steps_out_of_range_is_usage_error(self, capsys, steps):
        # the Numerov grid is derived from the wanted levels alone; a step
        # count, inside [MIN_STEPS, MAX_STEPS] or outside it, is an unknown option
        with pytest.raises(SystemExit) as err:
            cli.main(["verify-mhu", "--dims", "2,4", "--exact", "numerov",
                      "--numerov-steps", steps])
        assert err.value.code == 2
        assert "unrecognized arguments: --numerov-steps" in capsys.readouterr().err

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

    def test_stored_rule_gives_the_golden_report(self, capsys, monkeypatch):
        # from an empty store of rules, the first run builds the order-18 rule
        # and the second reuses it; the (5, 5) element takes that same rule
        monkeypatch.setattr(quadrature, "_RULES", {})
        built = []
        build = quadrature._build_rule

        def counted(order):
            built.append(order)
            return build(order)

        monkeypatch.setattr(quadrature, "_build_rule", counted)
        argv = next(argv for name, _, argv in REPORTS if name == "oracle")
        golden = (GOLDEN / "oracle.json").read_bytes()
        for _ in range(2):
            code, out, _ = run_cli(capsys, argv + ["--format", "json"])
            assert code == 0
            assert out.encode("utf-8") == golden
        assert built == [18]
        spec, pot = BasisSpec(1.5), PotentialSpec.quartic(1.0)
        for r, s in [(5, 5), (0, 4), (2, 7), (30, 31)]:
            rule = quadrature.gauss_hermite_rule(r + s + pot.degree + 4)
            assert quadrature.element_oracle(spec, pot, r, s) == \
                quadrature.element_oracle(spec, pot, r, s, rule=rule)
        assert built == [18, 12, 17, 69]

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


#: Inputs whose solve leaves the float range: (argv, the error message).
OUT_OF_RANGE = [
    (["solve", "--potential", "harmonic", "--omega", "1e200", "--dim", "3"],
     "m omega^2 / 2 = 10^399.7"),
    (["solve", "--potential", "quartic", "--alpha", "1e-300", "--dim", "3"],
     "(2 alpha)^2 = 10^-599.4"),
    (["solve", "--potential", "quartic", "--alpha", "1e-160", "--dim", "10"],
     "the largest potential matrix entry = 10^322.1"),
    (["solve", "--alpha", "1e308", "--dim", "10"],
     "the kinetic matrix entry alpha hbar^2 (2 dim - 1) / 4m = 10^308.7"),
    (["scan-alpha", "--potential", "quartic", "--dim", "3", "--alpha-grid", "1e-300,1"],
     "eigensolver failed at alpha = 1e-300: (2 alpha)^2 = 10^-599.4"),
    (["scan-alpha", "--potential", "quartic", "--dim", "8", "--alpha-bracket", "1e-300,1e300"],
     "(2 alpha)^2 = 10^599.8"),
]


@pytest.mark.parametrize("argv,quantity", OUT_OF_RANGE, ids=[" ".join(a) for a, _ in OUT_OF_RANGE])
def test_out_of_range_quantity_is_named(capsys, argv, quantity):
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {quantity} lies outside the float range\n"


@pytest.mark.parametrize("lam,dim", [(1e300, 4), (1e200, 10), (1e150, 10)])
def test_quartic_past_the_squares_range_solves(capsys, lam, dim):
    # the residual's squares (lambda 1e300) and Householder's column norms
    # (lambda 1e200) would overflow unscaled
    code, out, err = run_cli(capsys, ["solve", "--potential", "quartic", "--lambda", repr(lam),
                                      "--alpha", "1", "--dim", str(dim), "--format", "json"])
    assert (code, err) == (0, "")
    rows = json.loads(out)["results"]
    h = hamiltonian_matrix(BasisSpec(1.0), PotentialSpec.quartic(lam), dim)
    np.testing.assert_allclose([row["energy"] for row in rows],
                               np.linalg.eigvalsh(h.to_dense()), rtol=1e-11)
    assert [row["nodes"] for row in rows] == list(range(dim))


def test_harmonic_levels_near_the_float_limit_solve(capsys):
    # 2 E / m overflows at these levels although each turning point is finite
    code, out, err = run_cli(capsys, ["solve", "--potential", "harmonic", "--omega", "1e154",
                                      "--dim", "3", "--format", "json"])
    assert (code, err) == (0, "")
    rows = json.loads(out)["results"]
    h = hamiltonian_matrix(BasisSpec(1.0), PotentialSpec.harmonic(1e154), 3)
    np.testing.assert_allclose([row["energy"] for row in rows],
                               np.linalg.eigvalsh(h.to_dense()), rtol=1e-11)
    assert [row["nodes"] for row in rows] == [0, 1, 2]


@pytest.mark.parametrize("mass,hbar,alpha,t", [(1e308, 1e154, 10.0, 2.5),
                                               (1e300, 1e200, 1.0, 2.5e99)],
                         ids=["both-halves-overflow", "hbar-squared-overflows"])
def test_kinetic_scale_past_the_squares_range_solves(capsys, mass, hbar, alpha, t):
    # alpha hbar^2 and 4m both overflowed, and their ratio was NaN; or hbar^2
    # raised, and a finite t was reported out of range
    code, out, err = run_cli(capsys, ["solve", "--mass", repr(mass), "--hbar", repr(hbar),
                                      "--alpha", repr(alpha), "--dim", "3", "--format", "json"])
    assert (code, err) == (0, "")
    rows = json.loads(out)["results"]
    spec = BasisSpec(alpha, hbar, mass)
    assert kinetic_matrix(spec, 3).bands[0][0] == pytest.approx(t, rel=1e-15)
    h = hamiltonian_matrix(spec, PotentialSpec.harmonic(1.0), 3)
    np.testing.assert_allclose([row["energy"] for row in rows],
                               np.linalg.eigvalsh(h.to_dense()), rtol=1e-11)
    assert [row["nodes"] for row in rows] == [0, 1, 2]


def assert_tiny_quartic_solves(capsys, lam, hbar):
    # every entry of H lies near 1e-170 or 1e-160, and the squares of a
    # Householder column's entries underflow
    code, out, err = run_cli(capsys, ["solve", "--potential", "quartic", "--lambda", lam,
                                      "--alpha", "1", "--hbar", hbar, "--dim", "8",
                                      "--format", "json"])
    assert (code, err) == (0, "")
    rows = json.loads(out)["results"]
    h = hamiltonian_matrix(BasisSpec(1.0, float(hbar)), PotentialSpec.quartic(float(lam)), 8)
    want = np.ldexp(np.linalg.eigvalsh(np.ldexp(h.to_dense(), 600)), -600)
    np.testing.assert_allclose([row["energy"] for row in rows], want, rtol=1e-11)
    assert [row["nodes"] for row in rows] == list(range(8))


def test_quartic_whose_squares_underflow_to_zero_solves(capsys):
    # the columns' squared norms were 0 and their reflectors skipped: exit 0
    # with a ground level of 2.99071223696e-171, 56 % below 6.72793e-171
    assert_tiny_quartic_solves(capsys, "1e-170", "1e-85")


def test_quartic_whose_squares_are_subnormal_solves(capsys):
    # 2 / ||v||^2 from a subnormal squared norm overflowed: a RuntimeWarning,
    # then exit 1
    assert_tiny_quartic_solves(capsys, "1e-160", "1e-80")


@pytest.mark.parametrize("argv", [
    ["--potential", "quartic", "--lambda", "1e-300", "--alpha", "1e10", "--dim", "3"],
    ["--potential", "quartic", "--lambda", "1e-300", "--dim", "6"],
    ["--potential", "harmonic", "--omega", "0.000867646", "--alpha", "5.04458", "--dim", "3"],
    ["--potential", "harmonic", "--omega", "1e-9", "--dim", "8"],
], ids=["e-over-lambda-overflows", "dim-6", "harmonic-turning-point-1.8e+03",
        "harmonic-omega-1e-9"])
def test_turning_point_far_past_the_basis_is_answered(capsys, argv):
    # the Ritz levels put the turning point near 1e3 to 1e77, far past the
    # basis functions: the node grid keeps their node spacing, the tail cut
    # ends it past the basis top, and every state gets its count
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["solve", *argv, "--format", "json"])
    assert (code, err) == (0, "")
    rows = json.loads(out)["results"]
    assert [row["nodes"] for row in rows] == list(range(len(rows)))


def test_even_polynomial_turning_point_overflow_is_named(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["solve", "--potential", "even-polynomial",
                                          "--coeffs", "0,0,1e-300", "--mass", "1e-300",
                                          "--dim", "6"])
    assert (code, out) == (1, "")
    assert err == ("error: the turning-point coefficient (c_0 - E) / c_2 = 10^599.0 "
                   "lies outside the float range\n")


@pytest.mark.parametrize("argv,want", [
    (["solve", "--potential", "quartic", "--alpha", "1.8", "--dim", "8"], 0),
    (["solve", "--alpha", "1", "--dim", "0"], 2),
], ids=["solve", "usage-error"])
def test_module_entry_matches_main(capsys, argv, want):
    # `python -m hgritz.cli` goes through entry(), which exits with main's code
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "hgritz.cli", *argv], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == code == want
    assert proc.stdout == captured.out.encode()
    assert proc.stderr == captured.err.encode()

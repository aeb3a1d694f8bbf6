"""Self-tests of the benchmark: smoke runs at tiny sizes and negative controls.

Run from the root of a checkout:

    python3 -m pytest bench/selftest.py -q

The file is not named test_*.py, so the repository's own test run does not
collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

run._import_hgritz()

import checks  # noqa: E402
import spans  # noqa: E402
import hgritz  # noqa: E402


class _TinyDesign(workloads._Design):
    """The workloads' own round builders, with every basis size cut to at most 12."""

    def dims(self, key, index, lo, hi, slots):
        return [min(d, 12) for d in super().dims(key, index, lo, hi, slots)]

    @staticmethod
    def weyl(key, index):
        # smallest Numerov truncation range and level count the design allows
        return 0.0


def _tiny_round(workload, seed=1):
    return workloads._ROUNDS[workload](_TinyDesign(f"{workload}:{seed}"), 0)


def _report(request):
    code, stdout, raised = run._invoke(request.argv)
    assert raised is None
    return code, stdout


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "ROUNDS", {w: 1 for w in workloads.WORKLOADS})
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_untraced(tiny, monkeypatch, workload):
    requests = _tiny_round(workload)
    args = SimpleNamespace(workload=workload, seed=1, seconds=0.01, trace=0)
    # set-up takes 0.5 s while the reference launch runs at half the reference
    # speed, so it counts half its wall time
    monkeypatch.setattr(run, "setup_sample",
                        lambda w, s: (0.5, 2.0 * run.REFERENCE_LAUNCH_S))
    attempted, metrics, details, found = run.run_untraced(
        args, iter(requests), len(requests), checks.Checker())
    assert attempted == len(requests)
    assert metrics["setup_s"][0] == pytest.approx(0.25)
    assert len(details["setup_samples_s"]) == min(run.SETUP_SAMPLES, len(requests))
    assert metrics["throughput_ops_per_s"][0] == pytest.approx(
        details["raw_wall_clock"]["throughput_ops_per_s"] * details["speed_factor"])
    assert found["failures"] == []
    assert found["claims"] > 0
    for name in ("throughput_ops_per_s", "latency_p50_s", "latency_tail_s", "setup_s",
                 "peak_rss_mb"):
        assert metrics[name][0] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_traced(tiny, workload):
    requests = _tiny_round(workload)
    args = SimpleNamespace(workload=workload, seed=1, seconds=0.01, trace=1)
    attempted, metrics, details, found = run.run_traced(
        args, iter(requests), len(requests), checks.Checker())
    assert found["failures"] == []
    assert metrics["cli.calls"][0] >= 1
    shares = sum(metrics[f"{layer}.share"][0] for layer in spans.LAYERS)
    assert 0.5 < shares <= 1.0
    assert (tiny / f"spans-{workload}-seed1.jsonl").is_file()
    # the recorder is gone once the traced run is over
    assert hgritz.cli.main.__module__ == "hgritz.cli"
    assert not hasattr(hgritz.cli.main, "__wrapped__")


def test_wrong_eigenvalue_fails_the_request():
    request = _tiny_round("solve")[0]
    code, stdout = _report(request)
    checker = checks.Checker()
    assert checker.check(request, code, stdout).failure is None
    doc = json.loads(stdout)
    doc["results"][2]["energy"] *= 1.0 + 1e-6
    verdict = checker.check(request, code, json.dumps(doc))
    assert verdict.failure is not None and "level 2" in verdict.failure


def test_small_error_in_a_low_level_fails_at_dim_256():
    # The largest-norm family at the largest dim, where the eps * ||H|| term of
    # the gate is widest: a 1e-7 relative error in level 1 must still fail.
    pot = workloads.Potential("even_polynomial", coeffs=(0.0, 0.680833, 0.107497, 0.172263))
    argv = ("solve", *pot.argv(), "--alpha", "1.03992", "--dim", "256")
    request = workloads.Request("solve", pot, argv, {"alpha": 1.03992, "dim": 256})
    code, stdout = _report(request)
    checker = checks.Checker()
    assert checker.check(request, code, stdout).failure is None
    doc = json.loads(stdout)
    doc["results"][1]["energy"] *= 1.0 + 1e-7
    verdict = checker.check(request, code, json.dumps(doc))
    assert verdict.failure is not None and "level 1" in verdict.failure


def test_non_finite_number_fails_the_request():
    request = _tiny_round("solve")[0]
    code, stdout = _report(request)
    doc = json.loads(stdout)
    doc["results"][0]["energy"] = float("nan")
    verdict = checks.Checker().check(request, code, json.dumps(doc))
    assert verdict.failure == "report holds a non-finite number"


def test_flipped_verdict_is_a_wrong_claim():
    request = next(r for r in _tiny_round("certify")
                   if r.command == "oracle-compare" and r.params["band4"] == "ladder")
    code, stdout = _report(request)
    checker = checks.Checker()
    clean = checker.check(request, code, stdout)
    assert clean.failure is None and clean.wrong == [] and clean.claims == 2
    doc = json.loads(stdout)
    doc["checks"][1]["pass"] = False
    verdict = checker.check(request, 1, json.dumps(doc))
    assert verdict.failure is None
    assert len(verdict.wrong) == 1 and "truth pass" in verdict.wrong[0]


def test_misindexed_control_failing_is_a_correct_claim():
    request = next(r for r in _tiny_round("certify") if r.params.get("band4") == "misindexed")
    code, stdout = _report(request)
    assert code == 1
    verdict = checks.Checker().check(request, code, stdout)
    assert verdict.failure is None and verdict.wrong == [] and verdict.claims == 2
    doc = json.loads(stdout)
    for check in doc["checks"]:
        check["pass"] = True
    flipped = checks.Checker().check(request, 0, json.dumps(doc))
    assert len(flipped.wrong) == 1 and "truth fail" in flipped.wrong[0]


def test_exit_code_must_agree_with_checks():
    request = _tiny_round("certify")[1]
    code, stdout = _report(request)
    verdict = checks.Checker().check(request, 1 - code, stdout)
    assert verdict.failure is not None and "disagrees" in verdict.failure


def test_recorder_rebinds_copied_references():
    recorder = spans.Recorder()
    original = hgritz.eigensolver.eigh
    recorder.install()
    try:
        assert hgritz.variational.eigh is hgritz.eigensolver.eigh is hgritz.eigh
        assert hgritz.eigh is not original
        result = recorder.call(0, hgritz.variational.solve_spectrum,
                               hgritz.PotentialSpec.quartic(1.0), hgritz.Constants(), 1.5, 6)
    finally:
        recorder.uninstall()
    assert hgritz.variational.eigh is original and hgritz.eigh is original
    assert result.dim == 6
    names = {span[0]: span for span in recorder.spans}
    solve, eigh = names["variational.solve_spectrum"], names["eigensolver.eigh"]
    assert recorder.spans[eigh[3]] is solve and solve[3] == 0
    assert recorder.counts[0]["eigensolver.n3_sum"] == 6 ** 3
    assert recorder.counts[0]["variational.objective_evals"] == 1


def test_quantile_and_tail():
    assert run.quantile([2.0] * 30, 0.5) == pytest.approx(2.0)
    values = [float(i) for i in range(1, 41)]
    assert run.quantile(values, 0.5) == pytest.approx(20.5, abs=0.05)
    value, percentile = run.tail(values, 40)
    assert percentile == 75.0 and 28 < value < 32
    assert run.tail(values + values, 40)[1] == 75.0


def test_one_slow_calibration_pass_does_not_move_the_speed():
    ref = run.REFERENCE_CALIBRATION_S
    speeds = run.local_speeds([ref, 2 * ref, 9 * ref, 2 * ref, ref, ref])
    assert speeds == pytest.approx([2.0, 2.0, 2.0, 2.0, 1.5, 1.0])


def test_streams_are_seeded():
    first = [r.argv for r in _take(workloads.stream("solve", 7), 16)]
    again = [r.argv for r in _take(workloads.stream("solve", 7), 16)]
    other = [r.argv for r in _take(workloads.stream("solve", 8), 16)]
    assert first == again and first != other
    assert len(set(first)) == len(first)


def _take(stream, n):
    return [next(stream) for _ in range(n)]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "solve",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no hgritz sources" in proc.stderr

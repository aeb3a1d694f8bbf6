"""hgritz benchmark: one workload, one seed, one closed-loop client.

Usage, from the root of a checkout:

    python3 bench/run.py --workload solve --seed 1 --seconds 10 --trace 0

Requests are in-process ``hgritz.cli.main([..., "--format", "json"])`` calls
with stdout captured; the next starts when the previous one has returned.
No threads are started and BLAS keeps its default thread count, which the
environment record states.  After the timed phase every report is checked
against independent references (see checks.py).

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` is a separate
run that installs the span recorder (spans.py) around each request and
reports the per-layer metrics; each request of the first round also runs
once untraced, just before, to measure the recorder's overhead.  Human-readable lines come
first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full records, with
every wrong claim and its argv, and the spans go to ``.bench_out/``.
"""

from __future__ import annotations

import time

PROCESS_T0 = time.perf_counter()

import argparse
import collections
import contextlib
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Fresh-process set-ups per run, spread evenly over the round floor; setup_s
#: is the median of their times over the reference launch's.
SETUP_SAMPLES = 9

#: Arguments of the reference launch, a Python process that only imports
#: numpy.  Timed just before and just after each set-up probe, it measures how
#: fast the machine starts processes and imports, which most of set-up is.
REFERENCE_LAUNCH = ("-c", "import numpy")

#: Rounds of requests generated during set-up; later ones are generated lazily.
PREGENERATED_ROUNDS = 64

#: latency_tail_s is the highest percentile with this many samples above it in
#: a run of the round floor.
TAIL_BEYOND = 10

#: Seconds one pass of `calibrate` takes at the reference speed (its median on
#: the baseline machine); end-to-end timings are reported at this speed.
REFERENCE_CALIBRATION_S = 5.0e-3

#: A request's speed factor is the median of the calibration passes made
#: before it and before the SPEED_WINDOW requests on each side of it.
SPEED_WINDOW = 2

#: Seconds one reference launch takes at the reference speed: its wall time
#: over the calibration speed factor was 0.11-0.15 s on the baseline machine.
#: setup_s is reported at this speed.
REFERENCE_LAUNCH_S = 0.125


def _import_hgritz():
    """Import hgritz from this checkout's sources, or exit without a result."""
    if not (SRC / "hgritz" / "__init__.py").is_file():
        sys.exit(f"error: no hgritz sources at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import hgritz
    if not Path(hgritz.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported hgritz from {hgritz.__file__}, not from {SRC}")
    return hgritz


def calibrate() -> float:
    """Seconds for one pass of a fixed kernel that runs no hgritz code.

    It mixes the three kinds of work requests do: interpreted float
    arithmetic, numpy vector operations and BLAS matrix-vector products.
    The machine's speed drifts by 10-30 % over minutes; the kernel, timed
    before every request, measures that drift, so runs made at different
    times can be compared.
    """
    import numpy as np
    start = time.perf_counter()
    table = [0.5 + k / 64.0 for k in range(64)]
    x = 0.0
    for i in range(30000):
        x = (x + table[i & 63] * 1.0001) * 0.5
    v = np.linspace(0.0, 1.0, 2001)
    w = np.empty_like(v)
    for _ in range(500):
        np.multiply(v, 1.0001, out=w)
        w += 0.5
    m = np.full((256, 256), 1.0 / 256.0)
    u = np.ones(256)
    for _ in range(200):
        u = m @ u
    return time.perf_counter() - start


def _invoke(argv):
    """One request: (exit code, stdout, exception text or None)."""
    out, err = io.StringIO(), io.StringIO()
    main = sys.modules["hgritz.cli"].main
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--format", "json"])
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 1), out.getvalue(), None
    except Exception as exc:  # a request that raises is counted, not fatal
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), None


def _blas():
    """BLAS name and thread count from the OpenBLAS library numpy loaded."""
    import ctypes
    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return f"{info.get('name')} {info.get('version')}", threads


def environment() -> dict:
    import numpy as np
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas, threads = _blas()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "blas": blas, "blas_threads": threads,
            "blas_thread_env": {k: v for k, v in os.environ.items()
                                if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                         "MKL_NUM_THREADS")},
            "cpu": cpu, "platform": platform.platform()}


def set_up(workload, seed):
    """Import, generate inputs, build the checker and pay first-call costs."""
    _import_hgritz()
    import checks
    stream = workloads.stream(workload, seed)
    pregenerated = []
    while not pregenerated or pregenerated[-1].round < PREGENERATED_ROUNDS:
        pregenerated.append(next(stream))
    round_size = sum(1 for r in pregenerated if r.round == 0)
    checker = checks.Checker()
    for request in workloads.warmup_requests():
        code, stdout, raised = _invoke(request.argv)
        verdict = checker.check(request, code, stdout, raised)
        if verdict.failure is not None:
            print(f"warning: warm-up {' '.join(request.argv)}: {verdict.failure}",
                  file=sys.stderr)
    return itertools.chain(pregenerated, stream), round_size, checker


def _launch(argv, until_ready):
    """Wall time of a fresh process until it prints "ready", or until it exits."""
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline() if until_ready else child.stdout.read()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=60)
    if code != 0 or (until_ready and line.strip() != "ready"):
        raise RuntimeError(f"launch of {argv[1:]} failed with exit {code}")
    return elapsed


def setup_sample(workload, seed):
    """(seconds a fresh process takes from launch to ready-for-first-request,
    mean seconds of the reference launches just before and just after it)."""
    probe = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"]
    reference = [sys.executable, *REFERENCE_LAUNCH]
    before = _launch(reference, False)
    elapsed = _launch(probe, True)
    after = _launch(reference, False)
    return elapsed, (before + after) / 2.0


def closed_loop(requests, seconds, min_rounds, call, between=None):
    """Run whole rounds of requests back to back, for at least `seconds` and
    at least `min_rounds` rounds.

    Whole rounds keep the mix of request kinds and sizes the same in every
    run.  The round floor is sized to outlast `seconds` at this commit, so
    runs of one program hold the same number of samples and the tail
    percentile does not move with the machine's speed; a program fast
    enough to finish them early runs more rounds until `seconds` is up.
    `between(rid)`, if given, runs before each request; its time is not
    counted.
    """
    samples = []
    start = time.perf_counter()
    paused = 0.0
    rounds, current = 0, None
    for rid, request in enumerate(requests):
        if request.round != current:
            if rounds >= min_rounds and time.perf_counter() - start - paused >= seconds:
                break
            rounds, current = rounds + 1, request.round
        if between is not None:
            t0 = time.perf_counter()
            between(rid)
            paused += time.perf_counter() - t0
        t0 = time.perf_counter()
        code, stdout, raised = call(rid, request)
        samples.append((request, code, stdout, raised, time.perf_counter() - t0))
    return samples, time.perf_counter() - start - paused


def judge(checker, samples):
    """Check every sample; return its failures, claims, wrong claims and loose levels."""
    found = {"failures": [], "claims": 0, "wrong": [], "loose": []}
    for request, code, stdout, raised, _ in samples:
        verdict = checker.check(request, code, stdout, raised)
        argv = list(request.argv)
        if verdict.failure is not None:
            found["failures"].append({"argv": argv, "reason": verdict.failure})
        found["claims"] += verdict.claims
        if verdict.wrong:
            found["wrong"].append({"argv": argv, "claims": verdict.claims,
                                   "wrong": verdict.wrong})
        if verdict.loose:
            found["loose"].append({"argv": argv, "loose": verdict.loose})
    return found


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile.

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of the order statistics: it
    draws on the samples around the quantile instead of one or two, so a
    single request slowed by the machine cannot move it.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 64
    weights = []
    for i in range(n):
        h = 1.0 / (n * steps)
        xs = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(h * sum(math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
                                        - log_beta) for x in xs))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def tail(latencies, floor):
    """(value, percentile) of the tail: the highest percentile that leaves
    TAIL_BEYOND samples above it in a run of `floor` samples, the round floor.

    A run holds at least `floor` samples, so at least TAIL_BEYOND lie above;
    fixing the percentile by the floor keeps it the same in every run.
    """
    percentile = 1.0 - TAIL_BEYOND / floor
    return quantile(latencies, percentile), 100.0 * percentile


def local_speeds(calibrations):
    """Speed factor at each request: the median calibration time within
    SPEED_WINDOW requests of it, over REFERENCE_CALIBRATION_S."""
    h = SPEED_WINDOW
    return [statistics.median(calibrations[max(0, i - h):i + h + 1]) / REFERENCE_CALIBRATION_S
            for i in range(len(calibrations))]


def run_untraced(args, requests, round_size, checker):
    """End-to-end metrics of one closed-loop run, at the reference speed.

    Each request's time is divided by its local speed factor (local_speeds),
    which follows the machine's drift within the run; throughput is
    multiplied by the run's factor, total raw over total scaled time.
    Set-up is timed by SETUP_SAMPLES fresh processes spread over the run,
    each over the mean of the reference launches around it, times
    REFERENCE_LAUNCH_S.  The raw figures stay in the record.
    """
    floor = workloads.ROUNDS[args.workload] * round_size
    every = max(1, floor // SETUP_SAMPLES)
    calibrations, setup = [], []

    def between(rid):
        if rid % every == 0 and len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample(args.workload, args.seed))
        calibrations.append(calibrate())

    samples, wall = closed_loop(requests, args.seconds, workloads.ROUNDS[args.workload],
                                lambda rid, r: _invoke(r.argv), between)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies = [s[4] for s in samples]
    setup_s = [elapsed for elapsed, _ in setup]
    launch_s = [launch for _, launch in setup]
    scaled = [t / factor for t, factor in zip(latencies, local_speeds(calibrations))]
    speed = sum(latencies) / sum(scaled)
    tail_value, tail_pct = tail(scaled, floor)
    found = judge(checker, samples)
    raw = {
        "throughput_ops_per_s": len(samples) / wall,
        "latency_p50_s": quantile(latencies, 0.5),
        "latency_tail_s": tail(latencies, floor)[0],
        "setup_s": statistics.median(setup_s),
    }
    setup_speed = statistics.median(launch_s) / REFERENCE_LAUNCH_S
    metrics = {
        "throughput_ops_per_s": (raw["throughput_ops_per_s"] * speed, "1/s"),
        "latency_p50_s": (quantile(scaled, 0.5), "s"),
        "latency_tail_s": (tail_value, "s"),
        "setup_s": (statistics.median([e / r for e, r in setup]) * REFERENCE_LAUNCH_S, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    details = {
        "raw_wall_clock": raw,
        "speed_factor": speed,
        "setup_speed_factor": setup_speed,
        "latency_tail": {"percentile": tail_pct, "samples": len(samples),
                         "order_statistic_s": sorted(scaled)[floor - TAIL_BEYOND - 1]},
        "sample_median_s": statistics.median(latencies),
        "setup_samples_s": setup_s,
        "setup_reference_launch_s": launch_s,
        "wall_s": wall,
        "requests": [[s[4], s[1], " ".join(s[0].argv)] for s in samples],
    }
    return len(samples), metrics, details, found


def _lapack_seconds(name, args, kwargs):
    """Best of three numpy.linalg.eigh timings on the matrix an eigen call received."""
    import numpy as np
    import spans as tracing
    if name == "eigensolver.eigh_tridiagonal":
        diag = np.asarray(tracing.call_arg(args, kwargs, 0, "diag"), dtype=float)
        off = np.asarray(tracing.call_arg(args, kwargs, 1, "offdiag"), dtype=float)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    else:
        matrix = tracing.call_arg(args, kwargs, 0, "matrix")
        dense = matrix.to_dense() if hasattr(matrix, "to_dense") else np.asarray(matrix)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        np.linalg.eigh(dense)
        best = min(best, time.perf_counter() - t0)
    return best


def run_traced(args, requests, round_size, checker):
    import spans as tracing
    recorder = tracing.Recorder()
    twins = []

    def call(rid, request):
        # Each first-round request also runs untraced just before its traced
        # run, so that the pair sees the same machine and gives the overhead.
        if rid < round_size:
            start = time.perf_counter()
            twins.append((request, *_invoke(request.argv), time.perf_counter() - start))
        recorder.keep_inputs = rid < round_size
        recorder.install()
        try:
            return recorder.call(rid, _invoke, request.argv)
        finally:
            recorder.uninstall()

    samples, _ = closed_loop(requests, args.seconds, workloads.ROUNDS[args.workload], call)
    found = judge(checker, samples)
    for twin, traced in zip(twins, samples):
        if twin[1:4] != traced[1:4]:
            found["failures"].append({"argv": list(twin[0].argv),
                                      "reason": "traced output differs from untraced output"})
    n = len(samples)
    first = set(range(round_size))
    self_s, calls, errors, wall = tracing.layer_totals(recorder.spans)
    _, _, _, traced_first_s = tracing.layer_totals(recorder.spans, first)
    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = (self_s[layer] / n, "s")
        metrics[f"{layer}.share"] = (self_s[layer] / wall, "ratio")
        metrics[f"{layer}.calls"] = (calls[layer] / n, "count")
        metrics[f"{layer}.errors"] = (errors[layer] / n, "count")
    counts = sum((recorder.counts[rid] for rid in first), collections.Counter())
    for name in tracing.COUNTERS:
        metrics[name] = (counts[name] / round_size, "count")
    hgritz_s = sum(recorder.spans[sid][2] - recorder.spans[sid][1]
                   for _, sid, _, _ in recorder.eigen_inputs)
    lapack_s = sum(_lapack_seconds(recorder.spans[sid][0], a, k)
                   for _, sid, a, k in recorder.eigen_inputs)
    metrics["eigensolver.lapack_ratio"] = (hgritz_s / lapack_s if lapack_s else 0.0, "x")
    metrics["cli.output_bytes"] = (
        sum(len(s[2].encode()) for s in samples[:round_size]) / round_size, "B")
    untraced_first_s = sum(twin[4] for twin in twins)
    metrics["trace.overhead_share"] = (traced_first_s / untraced_first_s - 1.0, "ratio")
    details = {"traced_requests": n, "bench_capture_share": self_s[tracing.REQUEST] / wall,
               "untraced_round_s": untraced_first_s, "traced_round_s": traced_first_s}
    OUT.mkdir(exist_ok=True)
    recorder.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return n, metrics, details, found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    requests, round_size, checker = set_up(args.workload, args.seed)
    setup_main_s = time.perf_counter() - PROCESS_T0
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    env = environment()
    if args.trace:
        attempted, metrics, details, found = run_traced(args, requests, round_size, checker)
    else:
        attempted, metrics, details, found = run_untraced(args, requests, round_size, checker)
    details["setup_in_process_s"] = setup_main_s
    failures, claims, wrong = found["failures"], found["claims"], found["wrong"]
    wrong_count = sum(len(w["wrong"]) for w in wrong)
    summary = {
        "failed_ops_ratio": len(failures) / attempted,
        "wrong_claims_ratio": wrong_count / claims if claims else 0.0,
        "claims": claims, "wrong_claims": wrong_count,
        "loose_levels": sum(len(x["loose"]) for x in found["loose"]),
    }

    if args.trace:
        metrics["failed_ops_ratio"] = (summary["failed_ops_ratio"], "ratio")
        metrics["wrong_claims_ratio"] = (summary["wrong_claims_ratio"], "ratio")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"requests {attempted}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        if name not in summary:
            print(f"  {name:34s} {value:14.6g} {unit}")
    print(f"  {'failed_ops_ratio':34s} {summary['failed_ops_ratio']:14.6g} ratio "
          f"({len(failures)} of {attempted} requests)")
    print(f"  {'wrong_claims_ratio':34s} {summary['wrong_claims_ratio']:14.6g} ratio "
          f"({wrong_count} of {claims} claims)")
    if "latency_tail" in details:
        t = details["latency_tail"]
        print(f"  latency_tail_s is p{t['percentile']:.1f} of {t['samples']} samples, "
              f"at least {TAIL_BEYOND} above")
        print(f"  timings are at the reference speed: machine speed factor "
              f"{details['speed_factor']:.4f} (set-up {details['setup_speed_factor']:.4f}); "
              "raw wall clock " + ", ".join(f"{k} {v:.6g}"
                                            for k, v in details["raw_wall_clock"].items()))
    for f in failures:
        print(f"  FAILED {' '.join(f['argv'])}: {f['reason']}")
    for w in wrong:
        print(f"  WRONG {len(w['wrong'])}/{w['claims']} {' '.join(w['argv'])}: {w['wrong'][0]}")
    for x in found["loose"]:
        print(f"  LOOSE {len(x['loose'])} {' '.join(x['argv'])}: {x['loose'][0]}")

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "attempted": attempted,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "summary": summary, "details": details, "failures": failures,
              "wrong_claims": wrong, "loose_levels": found["loose"]}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

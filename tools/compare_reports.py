"""Check that two source trees print the same reports for the benchmark's requests.

    python tools/compare_reports.py OLD_SRC NEW_SRC

Each tree (a directory holding the hgritz package) is imported in its own
subprocess and runs the first 40 requests of each benchmark workload
(solve, minimize, certify) on seeds 1 to 3, as `bench/workloads.stream`
makes them, through `hgritz.cli.main(argv + ["--format", "json"])`, the
call the benchmark makes.  The stdout bytes and the exit code of every
request are compared; the exit code is 0 exactly when all 360 agree.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import pickle
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
BENCH = TOOLS.parent / "bench"
WORKLOADS = ("solve", "minimize", "certify")
SEEDS = (1, 2, 3)
REQUESTS = 40

#: What each subprocess runs: this module's run_requests on one tree.
_CHILD = (f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import compare_reports; "
          "compare_reports.run_requests(sys.argv[1])")


def run_requests(src):
    """Write the pickled (label, exit code, stdout) of every request to stdout."""
    sys.path[:0] = [src, str(BENCH)]
    sys.dont_write_bytecode = True  # leave bench/ as it is
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
            out.append((f"{workload} seed {seed} request {i}", code, text.getvalue()))
    sys.stdout.buffer.write(pickle.dumps(out))


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    runs = [pickle.loads(subprocess.run([sys.executable, "-c", _CHILD, src],
                                        check=True, capture_output=True).stdout)
            for src in argv[1:]]
    differ = 0
    for (label, code0, out0), (_, code1, out1) in zip(*runs):
        fields = [name for name, same in (("exit code", code0 == code1),
                                          ("stdout", out0 == out1)) if not same]
        if fields:
            differ += 1
            print(f"{label}: {', '.join(fields)} differ")
    print(f"{len(runs[0]) - differ} of {len(runs[0])} requests identical")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))

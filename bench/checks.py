"""Reference checks for hgritz JSON reports, run outside the timed region.

Every report is parsed and validated against ``hgritz.cli.report_schema()``.
Its numbers are then compared with LAPACK (``numpy.linalg.eigvalsh``) on the
same dense Hamiltonian, and its claims with the truth:

* a request *fails* when it raised, exited with 2, left no report, produced
  a non-finite number, returned an exit code that disagrees with its own
  checks, or returned a number off its reference;
* a *claim* is a statement the report makes that has a known truth: the
  parity letter and node count of each converged ``solve`` state, each
  ``verify-mhu`` verdict, each ``oracle-compare`` verdict, and each
  ``scan-alpha`` minimizer.  A wrong claim is a defect in the program's
  reasoning, not in its numbers, and does not fail the request.

Eigenvalues are gated level by level, as the ROADMAP states it: each may
miss LAPACK by at most 1e-9 * max(1, |E_i|), or by EIG_NORM_ULPS * eps * ||H||
where that is larger.  The second term is the accuracy the reference itself
is guaranteed: a backward-stable solver, LAPACK included, answers to a small
multiple of eps * ||H||, which on the sextic matrices at dim 200 and more
(||H|| about 1e7) exceeds 1e-9 of the lowest levels.  A level that misses
by more fails the request.  Levels inside the second term but outside the
first are listed as *loose*.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from jsonschema import Draft7Validator

from hgritz.basis import BasisSpec
from hgritz.cli import report_schema
from hgritz.operators import PotentialSpec, hamiltonian_matrix

#: Eigenvalue gate against LAPACK on the same matrix: level i may miss by this
#: times max(1, |E_i|) ...
EIG_RTOL = 1e-9

#: ... or by this many eps * ||H||, the reference's own accuracy, if larger.
#: The self-contained solver has been seen at 1.7 eps * ||H|| on sextic dim-216
#: matrices, where 1e-9 of the lowest levels is about eps * ||H||.
EIG_NORM_ULPS = 10.0

#: A solve state is converged, and its parity and nodes checkable, when its
#: LAPACK eigenvalue at dim agrees with the one at 2 * dim to this, relative.
CONVERGED_RTOL = 1e-12

#: Reference levels for verify-mhu come from LAPACK at this basis size.
REFERENCE_DIM = 256

#: Numerov reference levels against LAPACK at REFERENCE_DIM, relative to
#: max(1, |E|); the two routes agree to about 1e-10 on these inputs.
NUMEROV_RTOL = 1e-8

#: Points of the dense alpha grid a minimizer must not lose to.
MINIMIZER_GRID_POINTS = 128


@dataclass
class Verdict:
    """Outcome of checking one request."""

    failure: str | None = None
    claims: int = 0
    wrong: list[str] = field(default_factory=list)
    loose: list[str] = field(default_factory=list)


class RequestFailed(Exception):
    """A report is missing, malformed or numerically off its reference."""


def _close(value, ref, rtol):
    return abs(value - ref) <= rtol * max(1.0, abs(ref))


def _finite(node):
    if isinstance(node, float):
        return math.isfinite(node)
    if isinstance(node, dict):
        return all(_finite(v) for v in node.values())
    if isinstance(node, list):
        return all(_finite(v) for v in node)
    return True


def _compare(verdict, what, values, spectrum):
    """Gate reported levels against the leading levels of a full LAPACK spectrum."""
    ref = spectrum[:len(values)]
    deviation = np.abs(np.asarray(values, dtype=float) - ref)
    relative = EIG_RTOL * np.maximum(1.0, np.abs(ref))
    floor = EIG_NORM_ULPS * np.finfo(float).eps * float(np.abs(spectrum).max())
    missed = np.flatnonzero(deviation > np.maximum(relative, floor))
    if missed.size:
        i = int(missed[0])
        raise RequestFailed(f"{what} level {i} = {values[i]!r}, LAPACK {float(ref[i])!r}")
    for i in np.flatnonzero(deviation > relative):
        verdict.loose.append(f"{what} level {i} = {values[i]!r}, LAPACK {float(ref[i])!r} "
                             f"(within {EIG_NORM_ULPS:g} eps * ||H||)")


def potential_spec(pot) -> PotentialSpec:
    return PotentialSpec(pot.kind, omega=pot.omega, lam=pot.lam, coeffs=pot.coeffs)


def lapack_levels(pot, alpha: float, dim: int) -> np.ndarray:
    """Ascending eigenvalues of the dense H by LAPACK."""
    h = hamiltonian_matrix(BasisSpec(float(alpha)), potential_spec(pot), int(dim))
    return np.linalg.eigvalsh(h.to_dense())


class Checker:
    """Judges (request, exit code, stdout) triples against the references."""

    def __init__(self):
        self._validator = Draft7Validator(report_schema())

    def check(self, request, code, stdout: str, raised: str | None = None) -> Verdict:
        try:
            doc = self._report(request, code, stdout, raised)
            verdict = Verdict()
            _HANDLERS[request.command](request, doc, verdict)
            return verdict
        except RequestFailed as err:
            return Verdict(failure=str(err))

    def _report(self, request, code, stdout, raised):
        if raised is not None:
            raise RequestFailed(f"raised {raised}")
        if code == 2:
            raise RequestFailed("usage error (exit 2)")
        if not stdout:
            raise RequestFailed(f"exit {code} without a report")
        try:
            doc = json.loads(stdout)
        except ValueError as err:
            raise RequestFailed(f"report is not JSON: {err}") from None
        error = next(iter(self._validator.iter_errors(doc)), None)
        if error is not None:
            raise RequestFailed(f"report violates the schema: {error.message}")
        if doc["command"] != request.command:
            raise RequestFailed(f"report is for {doc['command']!r}")
        if not _finite(doc["results"]):
            raise RequestFailed("report holds a non-finite number")
        expected = 0 if all(c["pass"] for c in doc["checks"]) else 1
        if code != expected:
            raise RequestFailed(f"exit {code} disagrees with the report's checks")
        return doc


def _check_solve(request, doc, verdict):
    alpha, dim = request.params["alpha"], request.params["dim"]
    rows = doc["results"]
    if [row["index"] for row in rows] != list(range(dim)):
        raise RequestFailed(f"expected rows 0..{dim - 1}")
    ref = lapack_levels(request.potential, alpha, dim)
    ref2 = lapack_levels(request.potential, alpha, 2 * dim)
    _compare(verdict, "energy", [row["energy"] for row in rows], ref)
    for i, row in enumerate(rows):
        if not _close(ref[i], ref2[i], CONVERGED_RTOL):
            continue
        parity = "e" if i % 2 == 0 else "o"
        verdict.claims += 2
        if row["parity"] != parity:
            verdict.wrong.append(f"state {i} (E = {row['energy']!r}): parity "
                                 f"{row['parity']!r}, truth {parity!r}")
        if row["nodes"] != i:
            verdict.wrong.append(f"state {i} (E = {row['energy']!r}): "
                                 f"{row['nodes']} nodes, truth {i}")


def _check_scan(request, doc, verdict):
    p, res = request.params, doc["results"]
    dim = p["dim"]
    if "grid" in p:
        alphas = res["alphas"]
        if alphas != sorted(p["grid"]):
            raise RequestFailed("alpha grid differs from the request")
        grounds = []
        for a, row in zip(alphas, res["energies"]):
            ref = lapack_levels(request.potential, a, dim)
            if len(row) != p["levels"]:
                raise RequestFailed(f"expected {p['levels']} levels per row")
            _compare(verdict, f"alpha {a!r}", row, ref)
            grounds.append(ref[0])
        if res["argmin_alpha"] not in alphas:
            raise RequestFailed("argmin_alpha is not a grid point")
        claimed = grounds[alphas.index(res["argmin_alpha"])]
        best, best_alpha = min(zip(grounds, alphas))
    else:
        lo, hi = p["bracket"]
        alpha_star = res["alpha_star"]
        if not lo <= alpha_star <= hi:
            raise RequestFailed(f"alpha_star {alpha_star!r} outside the bracket")
        ref = lapack_levels(request.potential, alpha_star, dim)
        _compare(verdict, f"alpha_star {alpha_star!r}", [res["energy"]], ref)
        claimed = ref[0]
        best, best_alpha = min((lapack_levels(request.potential, a, dim)[0], a)
                               for a in np.geomspace(lo, hi, MINIMIZER_GRID_POINTS))
    verdict.claims += 1
    if claimed > best + EIG_RTOL * max(1.0, abs(best)):
        verdict.wrong.append(f"minimizer energy {float(claimed)!r} above {float(best)!r} "
                             f"at alpha {float(best_alpha):.6g}")


def _check_mhu(request, doc, verdict):
    p, res = request.params, doc["results"]
    if tuple(res["dims"]) != p["dims"]:
        raise RequestFailed("dims differ from the request")
    for d, spectrum in zip(p["dims"], res["spectra"]):
        _compare(verdict, f"dim {d}", spectrum, lapack_levels(request.potential, p["alpha"], d))
    exact = res.get("exact")
    wanted = min(p["levels"], p["dims"][-1])
    if exact is None or len(exact) != wanted:
        raise RequestFailed(f"expected {wanted} reference levels")
    ref = lapack_levels(request.potential, p["alpha"], REFERENCE_DIM)
    for i, value in enumerate(exact):
        if not _close(value, ref[i], NUMEROV_RTOL):
            raise RequestFailed(f"{p['exact']} level {i} = {value!r}, "
                                f"LAPACK dim {REFERENCE_DIM} {float(ref[i])!r}")
    for check in doc["checks"]:
        verdict.claims += 1
        if not check["pass"]:
            verdict.wrong.append(f"{check['name']} reported fail, truth pass: {check['detail']}")


def _check_oracle(request, doc, verdict):
    p = request.params
    if doc["results"]["band4"] != p["band4"]:
        raise RequestFailed("band4 differs from the request")
    # The misindexed band-4 form is wrong from entry (0, 4) on, so its
    # potential check must fail; every other check must pass.
    control = p["band4"] == "misindexed" and request.potential.kind == "quartic" \
        and p["dim"] >= 5
    for check in doc["checks"]:
        truth = not (control and check["name"] == "potential_oracle_agreement")
        verdict.claims += 1
        if check["pass"] != truth:
            verdict.wrong.append(f"{check['name']} reported "
                                 f"{'pass' if check['pass'] else 'fail'}, truth "
                                 f"{'pass' if truth else 'fail'}: {check['detail']}")


_HANDLERS = {"solve": _check_solve, "scan-alpha": _check_scan,
             "verify-mhu": _check_mhu, "oracle-compare": _check_oracle}

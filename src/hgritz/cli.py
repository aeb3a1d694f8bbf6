"""Command-line front end.

Four subcommands cover the solver surface:

    solve           one diagonalization, rows of (index, energy, parity, nodes)
    verify-mhu      convergence table + upper-bound/monotonicity/interlacing report
    scan-alpha      ground-energy scan over an alpha grid, or bracketed minimization
    oracle-compare  analytic matrix elements against the quadrature oracle

Exit codes: 0 success, 1 computational failure or violated check, 2 usage
error.  Output is deterministic: fixed float formatting (12 significant
digits, scientific below 1e-3), fixed row order, sorted JSON keys.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from importlib import resources

import numpy as np

from .basis import MAX_INDEX, BasisSpec, Constants
from .errors import (BracketingError, ConvergenceError, QuadratureError,
                     ScanResolutionError)
from .operators import (BAND4_LADDER, BAND4_MISINDEXED, PotentialSpec, _check_band4,
                        kinetic_matrix, potential_matrix)
from .quadrature import oracle_matrices
from .spectral import check_mhu, node_counts
from .variational import (convergence_table, exact_diagonal_alpha,
                          minimize_alpha, scan_alpha, solve_spectrum)
from . import numerov

ORACLE_TOLERANCE = 1e-10

#: Largest oracle-compare dim.  The oracle's rounding error grows with dim and
#: rule order, and no a-priori bound for it exists yet to replace the fixed
#: tolerance; past this dim it would outgrow that tolerance further still.
ORACLE_MAX_DIM = 64


def fmt_float(v: float) -> str:
    """12 significant digits; scientific notation for small nonzero values."""
    v = float(v)
    if v != 0.0 and abs(v) < 1e-3:
        return f"{v:.11e}"
    return f"{v:.12g}"


def _round12(doc):
    """doc with every float, at any depth, rounded to 12 significant digits."""
    if isinstance(doc, float):
        return float(f"{doc:.12g}")
    if isinstance(doc, dict):
        return {key: _round12(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_round12(value) for value in doc]
    return doc


def _cell(value) -> str:
    """One CSV cell: bools as true/false, floats by fmt_float, the rest by str."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return fmt_float(value)
    return str(value)


def report_schema() -> dict:
    """The shipped JSON schema that every JSON report validates against."""
    text = resources.files("hgritz").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)


def _config(pot: PotentialSpec, constants: Constants, **fields) -> dict:
    """A report's config: the potential, the constants and the runner's resolved fields."""
    potential = {"kind": pot.kind, "omega": pot.omega, "lambda": pot.lam, "coeffs": pot.coeffs}
    return {"potential": {k: v for k, v in potential.items() if v is not None},
            "hbar": constants.hbar, "mass": constants.mass, **fields}


def _parse_floats(text, parser, flag):
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        parser.error(f"{flag} expects a comma-separated list of reals, got {text!r}")
    if not values:
        parser.error(f"{flag} expects at least one value")
    return values


def _width(value: float, parser, flag) -> float:
    """A basis width alpha from the command line: positive and finite."""
    if not 0.0 < value < math.inf:
        parser.error(f"{flag} must be positive and finite, got {value!r}")
    return value


def _dim(value: int, parser, flag) -> int:
    """A basis size from the command line: 1 to the index cap MAX_INDEX."""
    if not 1 <= value <= MAX_INDEX:
        parser.error(f"{flag} must lie in [1, {MAX_INDEX}], got {value}")
    return value


def _parse_dims(text, parser):
    """Dims as a comma list ("2,4,8") or an inclusive range ("2:30:2")."""
    try:
        if ":" in text:
            parts = [int(tok) for tok in text.split(":")]
            if len(parts) == 2:
                parts.append(1)
            if len(parts) != 3 or parts[2] < 1:
                raise ValueError
            start, stop, step = parts
            dims = tuple(range(start, stop + 1, step))
        else:
            dims = tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        parser.error(f"--dims expects 'a,b,c' or 'start:stop[:step]', got {text!r}")
    if not dims or any(b <= a for a, b in zip(dims, dims[1:])):
        parser.error("--dims must be strictly increasing")
    return tuple(_dim(d, parser, "--dims") for d in dims)


def _potential_from_args(args, parser) -> PotentialSpec:
    try:
        if args.potential == "harmonic":
            return PotentialSpec.harmonic(args.omega)
        if args.potential == "quartic":
            return PotentialSpec.quartic(args.lam)
        if args.coeffs is None:
            parser.error("--potential even-polynomial requires --coeffs")
        return PotentialSpec.even_polynomial(_parse_floats(args.coeffs, parser, "--coeffs"))
    except ValueError as err:
        parser.error(str(err))


def _constants_from_args(args, parser) -> Constants:
    try:
        return Constants(args.hbar, args.mass)
    except ValueError as err:
        parser.error(str(err))


def _alpha_from_args(args, parser, pot, constants) -> tuple[float, str]:
    if args.alpha == "exact-diagonal":
        if pot.kind != "harmonic":
            parser.error("--alpha exact-diagonal applies only to the harmonic potential")
        return exact_diagonal_alpha(pot.omega, constants), "exact-diagonal"
    try:
        alpha = float(args.alpha)
    except ValueError:
        parser.error(f"--alpha expects a positive real or 'exact-diagonal', got {args.alpha!r}")
    return _width(alpha, parser, "--alpha"), "explicit"


def _report(args, command, config, results, checks, table) -> int:
    """Write one report in the chosen format; return the exit code.

    JSON is the document {command, config, results, checks} with every float
    rounded to 12 significant digits; CSV is `table`, header row first, one
    line per row.  The exit code is 1 exactly when an entry of `checks`
    failed.
    """
    if args.format == "json":
        doc = {"command": command, "config": config,
               "results": results, "checks": checks}
        text = json.dumps(_round12(doc), indent=2, sort_keys=True) + "\n"
    else:
        text = "".join(",".join(_cell(v) for v in row) + "\n" for row in table)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return 0 if all(c["pass"] for c in checks) else 1


def _run_solve(args, parser, pot, constants) -> int:
    alpha, mode = _alpha_from_args(args, parser, pot, constants)
    dim = _dim(args.dim, parser, "--dim")
    config = _config(pot, constants, alpha=alpha, alpha_mode=mode, dim=dim)
    spectrum = solve_spectrum(pot, constants, alpha, dim)
    # node_counts has checked each state exactly even or odd; only odd counts are odd
    nodes = node_counts(BasisSpec(alpha, constants.hbar, constants.mass), pot, spectrum)
    rows = [{"index": i,
             "energy": float(spectrum.eigenvalues[i]),
             "parity": "eo"[nodes[i] % 2],
             "nodes": int(nodes[i])}
            for i in range(spectrum.dim)]
    header = ["index", "energy", "parity", "nodes"]
    table = [header] + [[row[key] for key in header] for row in rows]
    return _report(args, "solve", config, rows, [], table)


def _exact_values(args, pot, constants, dims):
    if args.exact == "none":
        return None
    levels = min(args.exact_levels, dims[-1])
    if args.exact == "analytic":
        return [(i + 0.5) * constants.hbar * pot.omega for i in range(levels)]
    return list(numerov.lowest_levels(pot, constants, levels))


def _run_verify_mhu(args, parser, pot, constants) -> int:
    alpha, mode = _alpha_from_args(args, parser, pot, constants)
    dims = _parse_dims(args.dims, parser)
    if args.exact != "none" and args.exact_levels < 1:
        parser.error("--exact-levels must be positive")
    if args.exact == "analytic" and pot.kind != "harmonic":
        parser.error("--exact analytic applies only to the harmonic potential")
    config = _config(pot, constants, alpha=alpha, alpha_mode=mode, dims=dims)
    table = convergence_table(pot, constants, alpha, dims)
    exact = _exact_values(args, pot, constants, dims)
    checks = check_mhu(table, exact)
    results = {"dims": list(dims), "spectra": [list(s) for s in table.spectra]}
    if exact is not None:
        results["exact"] = exact
    rows = [["check", "pass", "detail"]]
    rows += [[c["name"], c["pass"], f"\"{c['detail']}\""] for c in checks]
    return _report(args, "verify-mhu", config, results, checks, rows)


def _run_scan_alpha(args, parser, pot, constants) -> int:
    if (args.alpha_grid is None) == (args.alpha_bracket is None):
        parser.error("provide exactly one of --alpha-grid or --alpha-bracket")
    dim = _dim(args.dim, parser, "--dim")
    levels = args.levels
    if levels < 1 or levels > dim:
        parser.error("--levels must lie in [1, dim]")

    if args.alpha_grid is not None:
        grid = tuple(_width(a, parser, "--alpha-grid")
                     for a in _parse_floats(args.alpha_grid, parser, "--alpha-grid"))
        config = _config(pot, constants, dim=dim, alpha_grid=grid)
        scan = scan_alpha(pot, constants, dim, grid)
        results = {
            "alphas": list(scan.alphas),
            "energies": [list(e[:levels]) for e in scan.energies],
            "argmin_alpha": scan.argmin_alpha,
        }
        rows = [["alpha"] + [f"e{i}" for i in range(levels)]]
        rows += [[a, *e[:levels]] for a, e in zip(scan.alphas, scan.energies)]
        rows.append(["# argmin_alpha", scan.argmin_alpha])
        return _report(args, "scan-alpha", config, results, [], rows)

    bracket = tuple(_width(a, parser, "--alpha-bracket")
                    for a in _parse_floats(args.alpha_bracket, parser, "--alpha-bracket"))
    if len(bracket) != 2 or not bracket[0] < bracket[1]:
        parser.error("--alpha-bracket expects 'lo,hi' with 0 < lo < hi")
    config = _config(pot, constants, dim=dim, alpha_bracket=bracket)
    result = minimize_alpha(pot, constants, dim, bracket, levels=levels)
    results = {
        "alpha_star": result.alpha_star,
        "energy": result.energy,
        "boundary": result.boundary,
    }
    if result.boundary:
        results["warning"] = "boundary solution: objective looks monotone on the bracket"
    rows = [["alpha_star", "energy", "boundary"],
            [result.alpha_star, result.energy, result.boundary]]
    return _report(args, "scan-alpha", config, results, [], rows)


def _run_oracle_compare(args, parser, pot, constants) -> int:
    if not 1 <= args.dim <= ORACLE_MAX_DIM:
        parser.error(f"--dim must lie in [1, {ORACLE_MAX_DIM}] (the oracle's rounding "
                     f"error grows with dim and has no bound past it)")
    try:
        _check_band4(pot, args.dim, args.band4)
    except ValueError as err:
        parser.error(str(err))
    alpha = _width(args.alpha, parser, "--alpha")
    config = _config(pot, constants, alpha=alpha, alpha_mode="explicit", dim=args.dim)
    spec = BasisSpec(alpha, constants.hbar, constants.mass)
    t_matrix = kinetic_matrix(spec, args.dim)
    v_matrix = potential_matrix(spec, pot, args.dim, band4=args.band4)
    t_oracle, v_oracle = oracle_matrices(spec, pot, args.dim)
    # worst entry of each upper triangle in row order; the first maximum wins
    # and NaN never does, as in a scan that keeps only strictly larger values
    upper = np.triu_indices(args.dim)
    worst = {}
    for name, analytic, oracle in (("kinetic", t_matrix, t_oracle),
                                   ("potential", v_matrix, v_oracle)):
        disc = np.abs(analytic.to_dense()[upper] - oracle[upper])
        disc = np.where(disc > 0.0, disc, 0.0)
        k = int(np.argmax(disc))
        worst[name] = (float(disc[k]), int(upper[0][k]), int(upper[1][k]))
    checks = []
    results = {"band4": args.band4}
    rows = [["matrix", "max_discrepancy", "worst_r", "worst_s", "pass"]]
    for name in ("kinetic", "potential"):
        disc, r, s = worst[name]
        ok = disc <= ORACLE_TOLERANCE
        detail = (f"max |analytic - quadrature| = {disc:.3e} at (r={r}, s={s}), "
                  f"tolerance {ORACLE_TOLERANCE:.0e}")
        checks.append({"name": f"{name}_oracle_agreement", "pass": ok, "detail": detail})
        results[name] = {"max_discrepancy": disc, "worst_entry": [r, s]}
        rows.append([name, disc, r, s, ok])
    return _report(args, "oracle-compare", config, results, checks, rows)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--potential", choices=["harmonic", "quartic", "even-polynomial"],
                        default="harmonic")
    common.add_argument("--omega", type=float, default=1.0,
                        help="angular frequency (harmonic)")
    common.add_argument("--lambda", dest="lam", type=float, default=1.0,
                        help="quartic coupling")
    common.add_argument("--coeffs", default=None,
                        help="comma-separated c_k for V = sum_k c_k x^(2k)")
    common.add_argument("--hbar", type=float, default=1.0)
    common.add_argument("--mass", type=float, default=1.0)
    common.add_argument("--format", choices=["csv", "json"], default="csv")
    common.add_argument("--output", default="-", help="output path, '-' for stdout")

    parser = argparse.ArgumentParser(
        prog="hgritz",
        description="Variational spectral solver in a Hermite-Gaussian basis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[common],
                       help="diagonalize once and list eigenvalues with parity and nodes")
    p.add_argument("--alpha", default="1.0",
                   help="basis width, a positive real or 'exact-diagonal' (harmonic)")
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(func=_run_solve)

    p = sub.add_parser("verify-mhu", parents=[common],
                       help="check upper-bound, monotonicity and interlacing over dims")
    p.add_argument("--alpha", default="1.0")
    p.add_argument("--dims", required=True, help="'2,4,8' or '2:30:2'")
    p.add_argument("--exact", choices=["none", "analytic", "numerov"], default="none",
                   help="reference energies for the upper-bound check")
    p.add_argument("--exact-levels", type=int, default=5)
    p.set_defaults(func=_run_verify_mhu)

    p = sub.add_parser("scan-alpha", parents=[common],
                       help="scan or minimize the ground energy over the basis width")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--alpha-grid", default=None, help="comma-separated alphas")
    p.add_argument("--alpha-bracket", default=None, help="'lo,hi' for golden-section search")
    p.add_argument("--levels", type=int, default=1,
                   help="grid mode: the lowest LEVELS eigenvalues form each row; "
                        "bracket mode: the search minimizes the sum of the lowest "
                        "LEVELS eigenvalues, and the reported energy is still the "
                        "ground level at alpha_star")
    p.set_defaults(func=_run_scan_alpha)

    p = sub.add_parser("oracle-compare", parents=[common],
                       help="compare analytic matrix elements against the quadrature oracle")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--band4", choices=[BAND4_LADDER, BAND4_MISINDEXED],
                   default=BAND4_LADDER,
                   help="quartic band-4 variant; 'misindexed' is a negative control "
                        "that needs --potential quartic and --dim >= 5")
    p.set_defaults(func=_run_oracle_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser, _potential_from_args(args, parser),
                         _constants_from_args(args, parser))
    except (ConvergenceError, BracketingError, ScanResolutionError,
            QuadratureError, OverflowError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

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
import json
import math
import sys
from dataclasses import dataclass
from importlib import resources

from .basis import BasisSpec, Constants
from .errors import (BracketingError, ConvergenceError, QuadratureError,
                     ScanResolutionError)
from .operators import (BAND4_LADDER, BAND4_MISINDEXED, PotentialSpec,
                        kinetic_matrix, potential_matrix)
from .quadrature import element_oracle, gauss_hermite_rule
from .spectral import check_mhu, default_node_grid, parity_classify, reconstruct
from .variational import (convergence_table, exact_diagonal_alpha,
                          minimize_alpha, scan_alpha, solve_spectrum)
from . import numerov

ORACLE_TOLERANCE = 1e-10
ORACLE_MAX_DIM = 64

_PARITY_LETTER = {"even": "e", "odd": "o", "mixed": "m"}


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


@dataclass(frozen=True)
class ProblemConfig:
    """Resolved invocation: potential, constants, width choice and mode inputs."""

    potential: PotentialSpec
    constants: Constants
    alpha: float | None = None
    alpha_mode: str | None = None
    dim: int | None = None
    dims: tuple[int, ...] | None = None
    alpha_grid: tuple[float, ...] | None = None
    alpha_bracket: tuple[float, float] | None = None

    def to_dict(self) -> dict:
        pot = {"kind": self.potential.kind}
        if self.potential.omega is not None:
            pot["omega"] = self.potential.omega
        if self.potential.lam is not None:
            pot["lambda"] = self.potential.lam
        if self.potential.coeffs is not None:
            pot["coeffs"] = list(self.potential.coeffs)
        out = {
            "potential": pot,
            "hbar": self.constants.hbar,
            "mass": self.constants.mass,
        }
        if self.alpha is not None:
            out["alpha"] = self.alpha
        if self.alpha_mode is not None:
            out["alpha_mode"] = self.alpha_mode
        if self.dim is not None:
            out["dim"] = self.dim
        if self.dims is not None:
            out["dims"] = list(self.dims)
        if self.alpha_grid is not None:
            out["alpha_grid"] = list(self.alpha_grid)
        if self.alpha_bracket is not None:
            out["alpha_bracket"] = list(self.alpha_bracket)
        return out


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
    if not dims or any(d < 1 for d in dims) or any(b <= a for a, b in zip(dims, dims[1:])):
        parser.error("--dims must be strictly increasing positive integers")
    return dims


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
        doc = {"command": command, "config": config.to_dict(),
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


def _run_solve(args, parser) -> int:
    pot = _potential_from_args(args, parser)
    constants = _constants_from_args(args, parser)
    alpha, mode = _alpha_from_args(args, parser, pot, constants)
    if args.dim < 1:
        parser.error("--dim must be a positive integer")
    config = ProblemConfig(pot, constants, alpha=alpha, alpha_mode=mode, dim=args.dim)
    spectrum = solve_spectrum(pot, constants, alpha, args.dim)
    spec = BasisSpec(alpha, constants.hbar, constants.mass)
    rows = []
    for i in range(spectrum.dim):
        coeffs = spectrum.eigenvectors[:, i]
        grid = default_node_grid(spec, pot, float(spectrum.eigenvalues[i]))
        samples = reconstruct(spec, coeffs, grid)
        rows.append({
            "index": i,
            "energy": float(spectrum.eigenvalues[i]),
            "parity": _PARITY_LETTER[parity_classify(coeffs)],
            "nodes": samples.node_count,
        })
    header = ["index", "energy", "parity", "nodes"]
    table = [header] + [[row[key] for key in header] for row in rows]
    return _report(args, "solve", config, rows, [], table)


def _exact_values(args, parser, pot, constants, table):
    if args.exact == "none":
        return None
    levels = args.exact_levels
    if levels < 1:
        parser.error("--exact-levels must be positive")
    levels = min(levels, table.dims[-1])
    if args.exact == "analytic":
        if pot.kind != "harmonic":
            parser.error("--exact analytic applies only to the harmonic potential")
        return [(i + 0.5) * constants.hbar * pot.omega for i in range(levels)]
    # numerov reference values: scan just past the highest wanted Ritz level,
    # which bounds the exact one from above
    e_cap = float(table.spectra[-1][levels - 1]) + 1e-9
    cfg = numerov.default_config(pot, constants, e_cap, steps=args.numerov_steps)
    exact = numerov.spectrum_below(pot, constants, cfg, e_cap)
    return list(exact[:levels])


def _run_verify_mhu(args, parser) -> int:
    pot = _potential_from_args(args, parser)
    constants = _constants_from_args(args, parser)
    alpha, mode = _alpha_from_args(args, parser, pot, constants)
    dims = _parse_dims(args.dims, parser)
    if not numerov.MIN_STEPS <= args.numerov_steps <= numerov.MAX_STEPS:
        parser.error(f"--numerov-steps must lie in [{numerov.MIN_STEPS}, "
                     f"{numerov.MAX_STEPS}], got {args.numerov_steps}")
    config = ProblemConfig(pot, constants, alpha=alpha, alpha_mode=mode, dims=dims)
    table = convergence_table(pot, constants, alpha, dims)
    exact = _exact_values(args, parser, pot, constants, table)
    checks = check_mhu(table, exact).to_dicts()
    results = {"dims": list(dims), "spectra": [list(s) for s in table.spectra]}
    if exact is not None:
        results["exact"] = exact
    rows = [["check", "pass", "detail"]]
    rows += [[c["name"], c["pass"], f"\"{c['detail']}\""] for c in checks]
    return _report(args, "verify-mhu", config, results, checks, rows)


def _run_scan_alpha(args, parser) -> int:
    pot = _potential_from_args(args, parser)
    constants = _constants_from_args(args, parser)
    if (args.alpha_grid is None) == (args.alpha_bracket is None):
        parser.error("provide exactly one of --alpha-grid or --alpha-bracket")
    if args.dim < 1:
        parser.error("--dim must be a positive integer")
    levels = args.levels
    if levels < 1 or levels > args.dim:
        parser.error("--levels must lie in [1, dim]")

    if args.alpha_grid is not None:
        grid = tuple(_width(a, parser, "--alpha-grid")
                     for a in _parse_floats(args.alpha_grid, parser, "--alpha-grid"))
        config = ProblemConfig(pot, constants, dim=args.dim, alpha_grid=grid)
        scan = scan_alpha(pot, constants, args.dim, grid)
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
    config = ProblemConfig(pot, constants, dim=args.dim, alpha_bracket=bracket)
    result = minimize_alpha(pot, constants, args.dim, bracket, levels=levels)
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


def _run_oracle_compare(args, parser) -> int:
    pot = _potential_from_args(args, parser)
    constants = _constants_from_args(args, parser)
    if not 1 <= args.dim <= ORACLE_MAX_DIM:
        parser.error(f"--dim must lie in [1, {ORACLE_MAX_DIM}] (oracle cost)")
    alpha = _width(args.alpha, parser, "--alpha")
    config = ProblemConfig(pot, constants, alpha=alpha, alpha_mode="explicit", dim=args.dim)
    spec = BasisSpec(alpha, constants.hbar, constants.mass)
    t_matrix = kinetic_matrix(spec, args.dim)
    v_matrix = potential_matrix(spec, pot, args.dim, band4=args.band4)
    rule = gauss_hermite_rule(2 * (args.dim - 1) + pot.degree + 4)
    worst = {"kinetic": (0.0, 0, 0), "potential": (0.0, 0, 0)}
    for r in range(args.dim):
        for s in range(r, args.dim):
            t_ref, v_ref = element_oracle(spec, pot, r, s, rule)
            dt = abs(t_matrix.entry(r, s) - t_ref)
            dv = abs(v_matrix.entry(r, s) - v_ref)
            if dt > worst["kinetic"][0]:
                worst["kinetic"] = (dt, r, s)
            if dv > worst["potential"][0]:
                worst["potential"] = (dv, r, s)
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


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--numerov-steps", type=int, default=numerov.DEFAULT_STEPS,
                   help=f"Numerov grid intervals, {numerov.MIN_STEPS} to {numerov.MAX_STEPS}")
    p.set_defaults(func=_run_verify_mhu)

    p = sub.add_parser("scan-alpha", parents=[common],
                       help="scan or minimize the ground energy over the basis width")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--alpha-grid", default=None, help="comma-separated alphas")
    p.add_argument("--alpha-bracket", default=None, help="'lo,hi' for golden-section search")
    p.add_argument("--levels", type=int, default=1,
                   help="number of eigenvalue columns in scan output")
    p.set_defaults(func=_run_scan_alpha)

    p = sub.add_parser("oracle-compare", parents=[common],
                       help="compare analytic matrix elements against the quadrature oracle")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--band4", choices=[BAND4_LADDER, BAND4_MISINDEXED],
                   default=BAND4_LADDER,
                   help="quartic band-4 variant; 'misindexed' is a negative control")
    p.set_defaults(func=_run_oracle_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (ConvergenceError, BracketingError, ScanResolutionError,
            QuadratureError, OverflowError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

"""Seeded request streams for the three benchmark workloads.

A stream is an endless sequence of rounds, and a round holds one request per
slot of the workload's mix.  Request cost grows like dim^3, so independent
draws of the basis size would make the work in a half-minute run, and every
latency quantile, depend on the seed far more than on the program.  The
sizes therefore follow a fixed stratified, low-discrepancy design: round r
places one dim in each of K equal bands of log(dim), at the offset
frac(u0 + r * 0.618...) inside the band, and the band each slot gets rotates
with r.  The dims are log-uniform over their range and a few rounds cover
it evenly; the Numerov truncation range and level count, the other inputs
that set a request's cost, follow the same kind of sequence.  The seed draws
everything else: potential coefficients, widths, brackets, grid levels.
Every request of a stream is a new input.

Each request carries the argv passed to ``hgritz.cli.main`` and the resolved
parameters the reference checks rebuild the problem from.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("solve", "minimize", "certify")

#: Fewest whole rounds a run measures: 20-30 seconds at the first measured
#: baseline (see README.md), and 48, 40 and 36 samples, so that
#: latency_tail_s sits at p79, p75 and p72.
ROUNDS = {"solve": 6, "minimize": 5, "certify": 6}

#: The deep double well from ROADMAP item 2; every solve round contains it.
DEEP_WELL = (0.0, -10.0, 0.5)


@dataclass(frozen=True)
class Potential:
    """One potential, as CLI flags and as the fields of hgritz.PotentialSpec."""

    kind: str
    omega: float | None = None
    lam: float | None = None
    coeffs: tuple[float, ...] | None = None

    def argv(self) -> list[str]:
        if self.kind == "harmonic":
            return ["--potential", "harmonic", "--omega", _num(self.omega)]
        if self.kind == "quartic":
            return ["--potential", "quartic", "--lambda", _num(self.lam)]
        return ["--potential", "even-polynomial",
                "--coeffs", ",".join(_num(c) for c in self.coeffs)]


@dataclass(frozen=True)
class Request:
    """One CLI invocation plus what the checker needs to judge its report.

    ``command`` is the subcommand; ``params`` holds the resolved numeric
    inputs (alpha, dim, dims, bracket, grid, levels, band4, exact).
    """

    command: str
    potential: Potential
    argv: tuple[str, ...]
    params: dict = field(hash=False)
    round: int = 0


def _num(v: float) -> str:
    return f"{float(v):.6g}"


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    """Log-uniform draw rounded to 6 significant digits, as the argv carries it."""
    return _log_interp(lo, hi, rng.random())


def _log_interp(lo: float, hi: float, u: float) -> float:
    return float(_num(lo * (hi / lo) ** u))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class _Design:
    """Seeded draws for one stream, plus its fixed low-discrepancy sequences."""

    def __init__(self, seed_text: str):
        self.rng = random.Random(seed_text)

    @staticmethod
    def weyl(key: str, index: int) -> float:
        """Element `index` of frac(u0 + index * golden), with u0 fixed per key."""
        return (random.Random(key).random() + index * _GOLDEN) % 1.0

    def dims(self, key: str, index: int, lo: int, hi: int, slots: int) -> list[int]:
        """One log-uniform dim per band of log(dim); slot s gets band (s + index) mod slots."""
        u = self.weyl(key, index)
        bands = [round(lo * (hi / lo) ** ((j + u) / slots)) for j in range(slots)]
        return [bands[(s + index) % slots] for s in range(slots)]


def _quartic(rng):
    return Potential("quartic", lam=_loguniform(rng, 0.5, 2.0))


def _single_well4(rng):
    return Potential("even_polynomial",
                     coeffs=(0.0, _loguniform(rng, 0.5, 2.0), _loguniform(rng, 0.1, 1.0)))


def _single_well6(rng):
    return Potential("even_polynomial",
                     coeffs=(0.0, _loguniform(rng, 0.5, 2.0), _loguniform(rng, 0.05, 0.5),
                             _loguniform(rng, 0.02, 0.2)))


def _double_well(rng):
    # barrier height g^2 / 4h runs from about 0.03 (shallow) to 50 (deep)
    return Potential("even_polynomial",
                     coeffs=(0.0, -_loguniform(rng, 0.5, 10.0), _loguniform(rng, 0.5, 2.0)))


def _deep_well(rng):
    return Potential("even_polynomial", coeffs=DEEP_WELL)


def _harmonic(rng):
    return Potential("harmonic", omega=_loguniform(rng, 0.5, 2.0))


def _solve_round(design: _Design, index: int) -> list[Request]:
    # Eight slots; the two harmonic slots bracket reconstruction cost: at the
    # exact-diagonal width the eigen solve is nearly free.
    rng = design.rng
    families = [_quartic, _quartic, _single_well4, _single_well6,
                _double_well, _deep_well, _harmonic, _harmonic]
    dims = design.dims("dim", index, 32, 256, len(families))
    out = []
    for slot, (family, dim) in enumerate(zip(families, dims)):
        pot = family(rng)
        if slot == 6:
            alpha, alpha_arg = pot.omega, "exact-diagonal"
        else:
            alpha = _loguniform(rng, 0.8, 4.0)
            alpha_arg = _num(alpha)
        argv = ("solve", *pot.argv(), "--alpha", alpha_arg, "--dim", str(dim))
        out.append(Request("solve", pot, argv, {"alpha": alpha, "dim": dim}, index))
    return out


def _minimize_round(design: _Design, index: int) -> list[Request]:
    # Two slots in eight are grid scans, rotating over the families.
    rng = design.rng
    families = [_quartic, _quartic, _single_well4, _single_well6,
                _double_well, _deep_well, _harmonic, _harmonic]
    dims = design.dims("dim", index, 8, 64, len(families))
    out = []
    for slot, (family, dim) in enumerate(zip(families, dims)):
        pot = family(rng)
        lo = _loguniform(rng, 0.5, 1.0)
        hi = _loguniform(rng, 3.0, 6.0)
        if (slot + index) % 4 == 0:
            levels = rng.randint(1, 4)
            grid = tuple(_log_interp(lo, hi, k / 11) for k in range(12))
            argv = ("scan-alpha", *pot.argv(), "--dim", str(dim),
                    "--alpha-grid", ",".join(_num(a) for a in grid), "--levels", str(levels))
            params = {"dim": dim, "grid": grid, "levels": levels}
        else:
            argv = ("scan-alpha", *pot.argv(), "--dim", str(dim),
                    "--alpha-bracket", f"{_num(lo)},{_num(hi)}")
            params = {"dim": dim, "bracket": (lo, hi)}
        out.append(Request("scan-alpha", pot, argv, params, index))
    return out


def _certify_round(design: _Design, index: int) -> list[Request]:
    rng = design.rng
    # Numerov reference route: the potential family rotates with the round so
    # that a few rounds cover all four non-harmonic families evenly.
    numerov_families = [_quartic, _single_well4, _single_well6, _double_well]
    pot = numerov_families[index % len(numerov_families)](rng)
    out = [_mhu_request(design, index, pot, "numerov"),
           _mhu_request(design, index, _harmonic(rng), "analytic")]
    # Oracle comparisons over the whole CLI range 8..64; the last slot is the
    # misindexed band-4 negative control, whose potential check must fail.
    oracle_families = [_quartic, _quartic, _single_well6, _quartic]
    dims = design.dims("oracle-dim", index, 8, 64, len(oracle_families))
    for slot, (family, dim) in enumerate(zip(oracle_families, dims)):
        pot = family(rng)
        alpha = _loguniform(rng, 0.5, 2.0)
        band4 = "misindexed" if slot == len(oracle_families) - 1 else "ladder"
        argv = ("oracle-compare", *pot.argv(), "--alpha", _num(alpha), "--dim", str(dim),
                "--band4", band4)
        out.append(Request("oracle-compare", pot, argv,
                           {"alpha": alpha, "dim": dim, "band4": band4}, index))
    return out


def _mhu_request(design, index, pot, exact):
    stop = round(_log_interp(12, 40, design.weyl(f"{exact}-stop", index)))
    levels = 3 + int(6 * design.weyl(f"{exact}-levels", index))
    alpha = _loguniform(design.rng, 0.8, 4.0)
    dims = tuple(range(2, stop + 1, 2))
    argv = ("verify-mhu", *pot.argv(), "--alpha", _num(alpha), "--dims", f"2:{stop}:2",
            "--exact", exact, "--exact-levels", str(levels))
    return Request("verify-mhu", pot, argv,
                   {"alpha": alpha, "dims": dims, "levels": levels, "exact": exact}, index)


_ROUNDS = {"solve": _solve_round, "minimize": _minimize_round, "certify": _certify_round}


def stream(workload: str, seed: int):
    """Endless request stream of a workload; the same seed gives the same stream."""
    if workload not in _ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    design = _Design(f"{workload}:{seed}")
    index = 0
    while True:
        yield from _ROUNDS[workload](design, index)
        index += 1


def warmup_requests() -> list[Request]:
    """Tiny requests of every subcommand, run during set-up so that lazy imports
    and first-call costs are paid before timing starts."""
    quartic = Potential("quartic", lam=1.0)
    harmonic = Potential("harmonic", omega=1.0)
    return [
        Request("solve", quartic, ("solve", *quartic.argv(), "--alpha", "1", "--dim", "4"),
                {"alpha": 1.0, "dim": 4}),
        Request("scan-alpha", quartic,
                ("scan-alpha", *quartic.argv(), "--dim", "2", "--alpha-bracket", "0.5,2"),
                {"dim": 2, "bracket": (0.5, 2.0)}),
        Request("verify-mhu", harmonic,
                ("verify-mhu", *harmonic.argv(), "--alpha", "1", "--dims", "2:4:2",
                 "--exact", "analytic", "--exact-levels", "2"),
                {"alpha": 1.0, "dims": (2, 4), "levels": 2, "exact": "analytic"}),
        Request("oracle-compare", quartic,
                ("oracle-compare", *quartic.argv(), "--alpha", "1", "--dim", "4",
                 "--band4", "ladder"),
                {"alpha": 1.0, "dim": 4, "band4": "ladder"}),
    ]

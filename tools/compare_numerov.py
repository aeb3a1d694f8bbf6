"""Check that two source trees give bit-identical Numerov reference levels.

    python tools/compare_numerov.py OLD_SRC NEW_SRC

Each tree (a directory holding the hgritz package) is imported in its own
subprocess and runs `numerov.spectrum_below` on the same sweep: five
potential families (harmonic, quartic, quartic and sextic single wells,
double wells) at two strengths each, three energy caps 1, 3 and 8 above the
potential minimum, and 2,000 and 20,000 steps, 60 spectra in all.  Every
level is compared bit for bit; a spectrum that raises in either tree counts
as differing.  The exit code is 0 exactly when every spectrum agrees.
"""

from __future__ import annotations

import pickle
import subprocess
import sys

FAMILIES = {
    "harmonic": lambda k: ("harmonic", 0.75 + 0.5 * k),
    "quartic": lambda k: ("quartic", 0.5 + k),
    "quartic_well": lambda k: ("even_polynomial", (0.0, 0.3 + 0.4 * k, 0.5)),
    "sextic_well": lambda k: ("even_polynomial", (0.0, 0.5, 0.1 * k, 0.05 * (k + 1))),
    "double_well": lambda k: ("even_polynomial", (0.0, -2.0 * (k + 1), 0.5)),
}
#: Energy caps above the potential minimum.
SPANS = (1.0, 3.0, 8.0)
STEPS = (2000, 20000)


def cases():
    """(label, kind, parameter, span, steps): 5 families x 2 strengths x 3 caps x 2."""
    for name, param in FAMILIES.items():
        for k in range(2):
            kind, value = param(k)
            for span in SPANS:
                for steps in STEPS:
                    yield f"{name} {value} span={span} steps={steps}", kind, value, span, steps


def _levels_all(src):
    sys.path.insert(0, src)
    from hgritz import Constants, PotentialSpec, numerov

    constants = Constants()
    out = []
    for label, kind, value, span, steps in cases():
        if kind == "harmonic":
            pot = PotentialSpec.harmonic(value)
        elif kind == "quartic":
            pot = PotentialSpec.quartic(value)
        else:
            pot = PotentialSpec.even_polynomial(value)
        e_cap = pot.minimum(mass=constants.mass) + span
        config = numerov.default_config(pot, constants, e_cap, steps=steps)
        try:
            levels = numerov.spectrum_below(pot, constants, config, e_cap).tolist()
        except Exception as exc:  # a raising spectrum is reported, never equal
            levels = f"raised {type(exc).__name__}: {exc}"
        out.append((label, levels))
    return out


def main(argv) -> int:
    if len(argv) == 3 and argv[1] == "--levels":
        sys.stdout.buffer.write(pickle.dumps(_levels_all(argv[2])))
        return 0
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    runs = [pickle.loads(subprocess.run([sys.executable, __file__, "--levels", src],
                                        check=True, capture_output=True).stdout)
            for src in argv[1:]]
    differ = levels = 0
    for (label, old), (_, new) in zip(*runs):
        if (isinstance(old, list) and isinstance(new, list)
                and [x.hex() for x in old] == [x.hex() for x in new]):
            levels += len(old)
        else:
            differ += 1
            print(f"{label}: {old!r} against {new!r}")
    print(f"{len(runs[0]) - differ} of {len(runs[0])} spectra bit-identical "
          f"({levels} levels)")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))

"""Check that two source trees give bit-identical eigh results.

    python tools/compare_eigh.py OLD_SRC NEW_SRC

Each tree (a directory holding the hgritz package) is imported in its own
subprocess and solves the same sweep: 345 Hamiltonians of five potential
families (harmonic, quartic, quartic and sextic single wells, double wells)
at dims 1 to 256 and several widths, given as BandedSymMatrix, five random
dense symmetric matrices, and the Gauss-Hermite rules of every order from 1
to 370, which solve the Hermite Jacobi matrices.  The eigenvalues,
eigenvectors and residual_norm of every solve, and the nodes and weights of
every rule, are compared bit for bit; the exit code is 0 exactly when all of
them agree.
"""

from __future__ import annotations

import pickle
import subprocess
import sys

import numpy as np

FAMILIES = {
    "harmonic": lambda k: ("harmonic", 0.5 + 0.25 * k),
    "quartic": lambda k: ("quartic", 0.1 * (k + 1)),
    "quartic_well": lambda k: ("even_polynomial", (0.0, 0.2 * (k + 1), 0.5)),
    "sextic_well": lambda k: ("even_polynomial", (0.0, 0.5, 0.1 * k, 0.05 * (k + 1))),
    "double_well": lambda k: ("even_polynomial", (0.0, -2.0 * (k + 1), 0.5)),
}
DIMS = (1, 2, 3, 4, 5, 7, 8, 13, 16, 21, 30, 31, 32, 47, 50, 63, 64, 77, 90, 100,
        128, 200, 256)
#: Gauss-Hermite rule orders, up to quadrature.MAX_ORDER.
RULE_ORDERS = range(1, 371)
ALPHAS = (0.7, 1.5, 2.5)


def cases():
    """(label, kind, parameter, alpha, dim): 5 families x 23 dims x 3 widths."""
    for name, param in FAMILIES.items():
        for i, dim in enumerate(DIMS):
            for j, alpha in enumerate(ALPHAS):
                kind, value = param((i + j) % 4)
                yield f"{name} {value} alpha={alpha} dim={dim}", kind, value, alpha, dim


def _solve_all(src):
    sys.path.insert(0, src)
    from hgritz import (BasisSpec, PotentialSpec, eigh, gauss_hermite_rule,
                        hamiltonian_matrix)

    def fields(s):
        return {"eigenvalues": s.eigenvalues, "eigenvectors": s.eigenvectors,
                "residual_norm": s.residual_norm}

    out = []
    for label, kind, value, alpha, dim in cases():
        if kind == "harmonic":
            pot = PotentialSpec.harmonic(value)
        elif kind == "quartic":
            pot = PotentialSpec.quartic(value)
        else:
            pot = PotentialSpec.even_polynomial(value)
        out.append((label, fields(eigh(hamiltonian_matrix(BasisSpec(alpha), pot, dim)))))
    rng = np.random.default_rng(2017)
    for n in (1, 2, 9, 40, 100):
        a = rng.standard_normal((n, n))
        out.append((f"random dense dim={n}", fields(eigh(a + a.T))))
    for order in RULE_ORDERS:
        rule = gauss_hermite_rule(order)
        out.append((f"gauss-hermite rule order={order}",
                    {"nodes": rule.nodes, "weights": rule.weights}))
    return out


def main(argv) -> int:
    if len(argv) == 3 and argv[1] == "--solve":
        sys.stdout.buffer.write(pickle.dumps(_solve_all(argv[2])))
        return 0
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    runs = [pickle.loads(subprocess.run([sys.executable, __file__, "--solve", src],
                                        check=True, capture_output=True).stdout)
            for src in argv[1:]]
    differ = 0
    for (label, old), (_, new) in zip(*runs):
        differing = [name for name in old
                     if np.asarray(old[name]).tobytes() != np.asarray(new[name]).tobytes()]
        if differing:
            differ += 1
            print(f"{label}: {', '.join(differing)} differ")
    print(f"{len(runs[0]) - differ} of {len(runs[0])} solves and rules bit-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))

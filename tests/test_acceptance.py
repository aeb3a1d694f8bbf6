"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Tolerances are pinned here and nowhere else.
"""

import numpy as np

from helpers import (charpoly_eigenvalues, exact_parity, node_grid,
                     oscillator_state_closed_form)

from hgritz import (BasisSpec, Constants, ConvergenceTable, PotentialSpec,
                    basis_table, check_mhu, convergence_table, eigh, element_oracle,
                    gauss_hermite_rule, hamiltonian_matrix, kinetic_matrix,
                    minimize_alpha, node_counts, potential_matrix, solve_spectrum)
from hgritz import numerov

C = Constants()
HARM = PotentialSpec.harmonic(1.0)
QUART = PotentialSpec.quartic(1.0)


def _report(number, ok, text):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {text}")


def test_criterion_1_exact_diagonalization():
    h = hamiltonian_matrix(BasisSpec(1.0), HARM, 30)
    dense = h.to_dense()
    off = dense - np.diag(np.diag(dense))
    off_zero = bool(np.all(off == 0.0))
    eigen = eigh(h).eigenvalues
    eig_err = float(np.abs(eigen - (np.arange(30) + 0.5)).max())
    ok = off_zero and eig_err <= 1e-13
    _report(1, ok, f"exact diagonalization at alpha = m omega/hbar; "
                   f"off-diagonal exactly zero: {off_zero}, "
                   f"max eigenvalue error {eig_err:.2e} (tol 1e-13)")
    assert off_zero
    assert eig_err <= 1e-13


def test_criterion_2_eigenfunctions_match_closed_form():
    spec = BasisSpec(1.0)
    spectrum = solve_spectrum(HARM, C, 1.0, 30)
    worst = 0.0
    for r in range(11):
        grid = node_grid(spec, HARM, float(spectrum.eigenvalues[r]))
        values = spectrum.eigenvectors[:, r] @ basis_table(spec, 29, grid)
        direct = oscillator_state_closed_form(r, grid)
        err = min(np.abs(values - direct).max(), np.abs(values + direct).max())
        worst = max(worst, err)
    ok = worst <= 1e-10
    _report(2, ok, f"reconstructed eigenfunctions r <= 10 match the closed form "
                   f"on 2001-point grids; worst pointwise error {worst:.2e} (tol 1e-10)")
    assert worst <= 1e-10


def test_criterion_3_mhu_suite():
    all_ok = True
    details = []
    exact = [i + 0.5 for i in range(30)]
    for alpha in (0.5, 2.0):
        table = convergence_table(HARM, C, alpha, tuple(range(2, 31, 2)))
        checks = check_mhu(table, exact)
        # bound also at the criterion's absolute tolerance
        bound_slack = max(float((np.asarray(exact[:d]) - s).max())
                          for d, s in zip(table.dims, table.spectra))
        ok = all(c["pass"] for c in checks) and bound_slack <= 1e-10
        all_ok = all_ok and ok
        details.append(f"alpha={alpha}: checks {'pass' if ok else 'FAIL'}, "
                       f"bound slack {bound_slack:.2e}")
    # negative control: a table with one level pushed below the exact energy
    dims = (2, 4)
    spectra = (np.array([0.5, 1.5]), np.array([0.5 - 1e-6, 1.5, 2.5, 3.5]))
    control = check_mhu(ConvergenceTable(dims, spectra), exact)
    control_ok = not all(c["pass"] for c in control)
    all_ok = all_ok and control_ok
    details.append(f"corrupted table rejected: {control_ok}")
    _report(3, all_ok, "upper bound, monotonicity, interlacing over dims 2..30; "
            + "; ".join(details))
    assert all_ok


def test_criterion_4_node_theorem_suite():
    opt = minimize_alpha(QUART, C, 40, (0.8, 4.0))
    cases = [("harmonic dim=12", HARM, 1.0, 12), ("harmonic dim=25", HARM, 1.0, 25),
             ("quartic dim=40", QUART, opt.alpha_star, 40)]
    failures = []
    for name, pot, alpha, dim in cases:
        spectrum = solve_spectrum(pot, C, alpha, dim)
        nodes = node_counts(BasisSpec(alpha), pot, spectrum)
        failures += [f"{name} state {i}: {n} nodes" for i, n in enumerate(nodes) if n != i]
    ok = not failures
    _report(4, ok, "node counts equal the state index for every state, harmonic "
                   f"(dims 12, 25) and quartic (dim 40, alpha = {opt.alpha_star:.4f})"
                   + ("" if ok else f"; failures: {failures}"))
    assert ok, failures


def test_criterion_5_oracle_equivalence():
    dim = 21
    worst = 0.0
    for pot in (HARM, QUART):
        rule = gauss_hermite_rule(2 * (dim - 1) + pot.degree + 4)
        for alpha in (0.5, 1.0, 2.0):
            spec = BasisSpec(alpha)
            t_matrix = kinetic_matrix(spec, dim).to_dense()
            v_matrix = potential_matrix(spec, pot, dim).to_dense()
            for r in range(dim):
                for s in range(r, dim):
                    t_ref, v_ref = element_oracle(spec, pot, r, s, rule)
                    worst = max(worst,
                                abs(t_matrix[r, s] - t_ref),
                                abs(v_matrix[r, s] - v_ref))
    agree = worst <= 1e-10

    # the shifted-index band-4 variant must be caught at (0, 4), the
    # ladder-consistent one must agree there
    spec = BasisSpec(1.0)
    rule = gauss_hermite_rule(12)
    _, v_ref = element_oracle(spec, QUART, 0, 4, rule)
    bad = potential_matrix(spec, QUART, 5, band4="misindexed").to_dense()[0, 4]
    good = potential_matrix(spec, QUART, 5).to_dense()[0, 4]
    bad_caught = abs(bad - v_ref) > 1e-2
    good_agrees = abs(good - v_ref) <= 1e-10
    ok = agree and bad_caught and good_agrees
    _report(5, ok, f"analytic vs quadrature, r,s <= 20, alpha in (0.5, 1, 2): "
                   f"max discrepancy {worst:.2e} (tol 1e-10); misindexed band-4 "
                   f"off by {abs(bad - v_ref):.3f} at (0,4), ladder form within "
                   f"{abs(good - v_ref):.2e}")
    assert agree
    assert bad_caught
    assert good_agrees


def test_criterion_6_quartic_ground_state_two_routes(monkeypatch):
    ritz = minimize_alpha(QUART, C, 40, (0.8, 4.0)).energy

    # the ground level as the CLI's Numerov reference gets it, at three step
    # counts: its derived grid sits on the DEFAULT_STEPS floor, set here
    values = {}
    for steps in (10000, 20000, 40000):
        with monkeypatch.context() as floor:
            floor.setattr(numerov, "DEFAULT_STEPS", steps)
            values[steps] = float(numerov.lowest_levels(QUART, C, 1)[0])
    # Richardson's step cancels the h^4 error: E_fine + (E_fine - E_coarse) / 15
    rich1 = values[20000] + (values[20000] - values[10000]) / 15.0
    rich2 = values[40000] + (values[40000] - values[20000]) / 15.0
    converged = abs(rich2 - rich1) < 1e-8
    agreement = abs(ritz - rich2)
    ok = converged and agreement <= 1e-6
    _report(6, ok, f"quartic ground state: basis route {ritz:.12f} vs shooting "
                   f"route {rich2:.12f}; |difference| {agreement:.2e} (tol 1e-6), "
                   f"Richardson step-halving change {abs(rich2 - rich1):.2e} (tol 1e-8)")
    assert converged
    assert agreement <= 1e-6


def test_criterion_7_variational_minimizer():
    results = {}

    r1 = minimize_alpha(HARM, C, 1, (0.1, 10.0))
    results["harmonic dim 1 alpha"] = abs(r1.alpha_star - 1.0) <= 1e-6
    results["harmonic dim 1 energy"] = abs(r1.energy - 0.5) <= 1e-10

    r30 = minimize_alpha(HARM, C, 30, (0.1, 10.0))
    results["harmonic dim 30 alpha"] = abs(r30.alpha_star - 1.0) <= 1e-6
    results["harmonic dim 30 energy"] = abs(r30.energy - 0.5) <= 1e-10

    alpha_true = 6.0 ** (1.0 / 3.0)
    rq = minimize_alpha(QUART, C, 1, (0.5, 5.0))
    results["quartic dim 1 alpha"] = abs(rq.alpha_star - alpha_true) <= 1e-6

    ok = all(results.values())
    _report(7, ok, "; ".join(f"{k}: {'ok' if v else 'FAIL'}"
                             for k, v in results.items())
            + f" (dim-30 search returned alpha* = {r30.alpha_star:.6f})")
    assert ok, (
        f"failing sub-checks: {[k for k, v in results.items() if not v]}. "
        f"Note: at dim 30 the harmonic ground energy equals 0.5 to machine "
        f"precision for every alpha in roughly (0.55, 1.75), so the search "
        f"has to break ties by the higher Ritz levels to localize the exact "
        f"minimizer 1.0; it returned {r30.alpha_star!r} with energy "
        f"{r30.energy!r}.")


def test_criterion_8_eigensolver_properties():
    rng = np.random.default_rng(20240811)
    worst_recon = worst_orth = worst_char = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 51))
        a = rng.standard_normal((n, n))
        a = a + a.T
        res = eigh(a)
        recon = res.eigenvectors @ np.diag(res.eigenvalues) @ res.eigenvectors.T
        worst_recon = max(worst_recon,
                          float(np.abs(recon - a).max()) / (1.0 + float(np.abs(a).max())))
        worst_orth = max(worst_orth, float(np.abs(
            res.eigenvectors.T @ res.eigenvectors - np.eye(n)).max()))
        if 2 <= n <= 4:
            roots = charpoly_eigenvalues(a)
            worst_char = max(worst_char, float(np.abs(res.eigenvalues - roots).max()))
    ok = worst_recon <= 1e-9 and worst_orth <= 1e-10 and worst_char <= 1e-9
    _report(8, ok, f"200 random symmetric matrices (dim <= 50): reconstruction "
                   f"{worst_recon:.2e} (tol 1e-9), orthogonality {worst_orth:.2e} "
                   f"(tol 1e-10), characteristic-polynomial match {worst_char:.2e} "
                   f"(tol 1e-9)")
    assert worst_recon <= 1e-9
    assert worst_orth <= 1e-10
    assert worst_char <= 1e-9


def test_criterion_9_parity_suite():
    cases = [(HARM, a) for a in (0.5, 1.0, 2.0)]
    cases += [(QUART, a) for a in (1.0, 2.0)]
    cases += [(PotentialSpec.even_polynomial([0.0, 0.3, 0.5]), 1.2)]
    bad = []
    for pot, alpha in cases:
        spectrum = solve_spectrum(pot, C, alpha, 14)
        for i in range(14):
            parity = exact_parity(spectrum.eigenvectors[:, i])
            expected = "even" if i % 2 == 0 else "odd"
            if parity != expected:
                bad.append((pot.kind, alpha, i, parity))
    ok = not bad
    _report(9, ok, "every eigenvector is exactly even or odd (coefficients on the "
                   "other parity exactly 0.0), alternating with the index, across "
                   "the potential/alpha suite"
                   + ("" if ok else f"; failures: {bad}"))
    assert ok, bad

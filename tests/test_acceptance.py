"""Acceptance suite: one test per criterion, each printing a PASS line.

Numerical tolerances are asserted exactly as stated; the runtime budgets are
design targets and are printed rather than asserted so the suite stays robust
on loaded machines.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import dblquad

import vibronic as vb

SQRT2 = math.sqrt(2.0)
SINGLE = np.zeros((1, 1))
POT = vb.PowerLaw(1.0, 6)


def _report(criterion, elapsed, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.1f}s) {detail}")


def _excited_pair_form(geometry, kappa, xi, nu, params):
    state = tuple(1 if i < 2 else 0 for i in range(geometry.n_atoms))
    coup = vb.ExplicitCouplings(kappa=kappa, xi=xi, nu=nu)
    form = vb.assemble_state_hamiltonian(state, geometry, coup, params)
    basis, reduced = vb.reduce_modes([form], params)
    return basis, reduced


def test_criterion_01_graph_topologies():
    start = time.time()
    cases = [
        (vb.dumbbell(), -1.0, "01", 3, "path", [1, 1, 2]),
        (vb.triangle(), -1.0, "001", 6, "ring", [2, 2, 2, 2, 2, 2]),
        (vb.tetrahedron(), -1.0, "1000", 10, "other", [2, 2, 2, 2, 2, 2, 3, 3, 3, 3]),
        (vb.tetrahedron(), -3.0, "1110", 5, "star", [1, 1, 1, 1, 4]),
    ]
    for geom, delta, seed, n_nodes, label, degrees in cases:
        graph = vb.build_resonant_manifold(geom, delta, POT, vb.config_from_string(seed))
        got_label, got_degrees = vb.graph_classify(graph)
        assert graph.n_nodes == n_nodes
        assert got_label == label
        assert sorted(got_degrees) == degrees
    _report("criterion 1 (graph topologies)", time.time() - start)


def test_criterion_02_mode_reduction_dimensions():
    start = time.time()
    params = vb.PhysicalParams(omega=1.0, d=1.0, x0=0.1)
    pot = vb.ExplicitCouplings(kappa=-1.0, xi=0.1, nu=0.1, v_d=1.0)
    coup = vb.derive_couplings(pot, params)
    expected = {"dumbbell": 1, "triangle": 4, "tetrahedron": 9}
    for geom, seed in [
        (vb.dumbbell(), (0, 1)),
        (vb.triangle(), (0, 0, 1)),
        (vb.tetrahedron(), (1, 0, 0, 0)),
    ]:
        graph = vb.build_resonant_manifold(geom, -1.0, pot, seed)
        basis, _ = vb.build_molecular_model(graph, coup, params)
        assert basis.dim == expected[geom.name]
    _report("criterion 2 (mode reduction dimensions)", time.time() - start)


def test_criterion_03_dumbbell_energy_oracle():
    start = time.time()
    params = vb.PhysicalParams(omega=1.0, Omega=0.0)
    worst = 0.0
    for kappa in np.linspace(0.0, 1.0, 5):
        for xibar in np.linspace(-2.0, 0.9, 5):
            xi = xibar * (-0.25)
            _, forms = vb.dumbbell_hamiltonian(params, vb.ExplicitCouplings(kappa, xi, 0.1))
            report = vb.converge_cutoff(
                SINGLE, [forms[1]], params, e_tol=1e-9, max_cutoff=256, frame="displaced"
            )
            assert report.converged
            assert report.cutoff <= 256
            target = vb.epsilon2(float(kappa), xi, 1.0)
            worst = max(worst, abs(report.energy - target))
            assert abs(report.energy - target) < 1e-6
    _report("criterion 3 (two-atom energy oracle)", time.time() - start, f"max|dE|={worst:.2e}")


def test_criterion_04_tetrahedron_energy_oracle():
    start = time.time()
    nu = 0.5
    params = vb.PhysicalParams(omega=1.0, Omega=0.0, d=1.0, x0=nu)
    _, kappa_c = vb.critical_points(1.0, nu)
    geom = vb.tetrahedron()
    worst = 0.0
    for kappabar in (0.0, 0.25, 0.5, 0.75):
        for xibar in (-1.0, -0.5, 0.0, 0.5):
            kappa = kappabar * kappa_c
            xi = xibar * (-0.25)
            basis, reduced = _excited_pair_form(geom, kappa, xi, nu, params)
            # with no linear coupling the perpendicular terms vanish and only
            # the axis mode stays coupled; the free modes contribute nothing
            assert basis.dim == (3 if kappa != 0.0 else 1)
            report = vb.converge_cutoff(
                SINGLE, reduced, params, e_tol=1e-9, max_cutoff=64, frame="displaced"
            )
            assert report.converged
            target = vb.epsilon4(kappa, xi, 1.0, nu)
            worst = max(worst, abs(report.energy - target))
            assert abs(report.energy - target) < 1e-6
    _report("criterion 4 (four-atom energy oracle)", time.time() - start, f"max|dE|={worst:.2e}")


def test_criterion_05_instability_detection():
    start = time.time()
    params = vb.PhysicalParams(omega=1.0, Omega=0.0)

    def excited_block(kappa, xi):
        _, forms = vb.dumbbell_hamiltonian(params, vb.ExplicitCouplings(kappa, xi, 0.1))
        return [forms[1]]

    # curvature instability on the pair mode
    unstable = vb.converge_cutoff(
        SINGLE, excited_block(0.0, 1.2 * (-0.25)), params, e_tol=1e-8, max_cutoff=256
    )
    assert not unstable.converged
    drops = [e1 - e2 for (_, e1), (_, e2) in zip(unstable.energy_history, unstable.energy_history[1:])]
    assert drops[-1] > 1e-3
    stable = vb.converge_cutoff(
        SINGLE, excited_block(0.0, 0.8 * (-0.25)), params, e_tol=1e-8, max_cutoff=256
    )
    assert stable.converged

    # linear-coupling instability on the perpendicular modes at nu = 0.1
    nu = 0.1
    run = vb.PhysicalParams(omega=1.0, Omega=0.0, d=1.0, x0=nu)
    _, kappa_c = vb.critical_points(1.0, nu)
    geom = vb.tetrahedron()
    _, red_unstable = _excited_pair_form(geom, 1.2 * kappa_c, 0.0, nu, run)
    rep_unstable = vb.converge_cutoff(
        SINGLE, red_unstable, run, e_tol=1e-8, max_cutoff=32, frame="displaced"
    )
    assert not rep_unstable.converged
    drops = [
        e1 - e2 for (_, e1), (_, e2) in zip(rep_unstable.energy_history, rep_unstable.energy_history[1:])
    ]
    assert drops[-1] > 1e-3
    _, red_stable = _excited_pair_form(geom, 0.8 * kappa_c, 0.0, nu, run)
    rep_stable = vb.converge_cutoff(
        SINGLE, red_stable, run, e_tol=1e-8, max_cutoff=64, frame="displaced"
    )
    assert rep_stable.converged
    assert abs(rep_stable.energy - vb.epsilon4(0.8 * kappa_c, 0.0, 1.0, nu)) < 1e-6
    _report("criterion 5 (instability detection)", time.time() - start)


def test_criterion_06_instability_persists_at_finite_drive():
    start = time.time()
    params = vb.PhysicalParams(omega=1.0, Omega=0.5)
    for kappa in (0.0, 0.2):
        model = vb.dumbbell_hamiltonian(params, vb.ExplicitCouplings(kappa, 1.1 * (-0.25), 0.1))
        report = vb.converge_cutoff(*model, params, e_tol=1e-8, max_cutoff=256)
        assert not report.converged
        history = [e for _, e in report.energy_history]
        assert all(e2 < e1 for e1, e2 in zip(history, history[1:]))
    _report("criterion 6 (instability persists at finite drive)", time.time() - start)


def test_criterion_07_wigner_distribution():
    start = time.time()
    for w in (0.0, 0.3, -0.3, 0.9, -0.9):
        total, _ = dblquad(
            lambda ai, ar: vb.wigner(w, complex(ar, ai)), -np.inf, np.inf, -np.inf, np.inf,
            epsabs=1e-10,
        )
        assert abs(total - 1.0) < 1e-6
        w_plus, w_minus = vb.wigner_widths(w)
        assert abs(w_plus * w_minus - 4.0) < 1e-12
    widths = []
    for kappabar in (0.5, 0.9, 0.99):
        sol = vb.bogoliubov_w(1.0, kappabar * (-0.25))
        widths.append(vb.wigner_widths(sol.w)[1])
    assert widths[0] < widths[1] < widths[2]
    _report("criterion 7 (phase-space distribution)", time.time() - start)


def test_criterion_08_displacement_bound_near_instability():
    start = time.time()
    nu = 1.5
    params = vb.PhysicalParams(omega=1.0, Omega=0.0, d=1.0, x0=nu)
    _, kappa_c = vb.critical_points(1.0, nu)
    kappa = 0.99 * kappa_c
    basis, reduced = _excited_pair_form(vb.tetrahedron(), kappa, 0.0, nu, params)
    op = vb.build_fock_matrix(SINGLE, reduced, params, cutoff=64, frame="displaced")
    energy, state = vb.ground_state(op)
    # sanity on the solved problem; the strongly squeezed perpendicular
    # zero-point energy converges slowly in cutoff, the displacement does not
    assert abs(energy - vb.epsilon4(kappa, 0.0, 1.0, nu)) < 1e-4
    moves = vb.mean_displacements(op, state, basis)
    biggest = float(np.linalg.norm(moves, axis=1).max())
    assert biggest < 0.4 * params.x0
    _report(
        "criterion 8 (displacement bound)",
        time.time() - start,
        f"max move {biggest / params.x0:.3f} x0",
    )


def test_criterion_09_surface_quadratic_form_and_triple_minimum():
    start = time.time()
    nu, omega = 0.5, 1.0
    params = vb.PhysicalParams(omega=omega, Omega=0.0, d=1.0, x0=nu)
    _, kappa_c = vb.critical_points(omega, nu)
    kappa, xi = 0.5 * kappa_c, -0.05
    pot = vb.ExplicitCouplings(kappa=kappa, xi=xi, nu=nu, v_d=1.0)
    graph = vb.build_resonant_manifold(vb.triangle(), -1.0, pot, (0, 0, 1))
    basis, forms = vb.build_molecular_model(graph, vb.derive_couplings(pot, params), params)
    surface = vb.build_bo_surface(graph, forms, params)

    report = vb.minimize_bo(surface)
    assert report.degeneracy == 3
    assert len(report.minima) == 3
    spread = max(e for _, e in report.minima) - report.global_energy
    assert spread <= 1e-8

    center = report.minima[0][0]
    fit = vb.bo_quadratic_check(surface, center)
    diags = [f.energy_at(center) for f in forms]
    resident = int(np.argmin(diags))
    pair = tuple(i for i, b in enumerate(graph.configs[resident]) if b)
    par, perps = vb.edge_mode_directions(graph.geometry, pair, basis)

    x0 = params.x0
    want_par = omega / (2 * x0**2) + 2 * xi / x0**2
    want_perp = omega / (2 * x0**2) + SQRT2 * nu * kappa / x0**2
    want_linear = 2 * kappa / x0
    got_par = float(par @ fit.quadratic @ par)
    got_perp = float(perps[0] @ fit.quadratic @ perps[0])
    got_linear = float((fit.linear - 2.0 * fit.quadratic @ fit.center) @ par)
    assert abs(got_par - want_par) < 1e-4 * abs(want_par)
    assert abs(got_perp - want_perp) < 1e-4 * abs(want_perp)
    assert abs(abs(got_linear) - abs(want_linear)) < 1e-4 * abs(want_linear)
    _report("criterion 9 (surface quadratic form)", time.time() - start)


def test_criterion_10_zero_point_correction():
    start = time.time()
    nu = 0.5
    params = vb.PhysicalParams(omega=1.0, Omega=0.0, d=1.0, x0=nu)
    _, kappa_c = vb.critical_points(1.0, nu)
    for kappabar, xibar in ((0.5, 0.0), (0.4, 0.3)):
        kappa = kappabar * kappa_c
        xi = xibar * (-0.25)
        pot = vb.ExplicitCouplings(kappa=kappa, xi=xi, nu=nu, v_d=1.0)
        graph = vb.build_resonant_manifold(vb.triangle(), -1.0, pot, (0, 0, 1))
        basis, forms = vb.build_molecular_model(graph, vb.derive_couplings(pot, params), params)
        quantum = vb.converge_cutoff(
            graph, forms, params, e_tol=1e-7, max_cutoff=16, frame="displaced"
        )
        assert quantum.converged
        surface = vb.build_bo_surface(graph, forms, params)
        minima = vb.minimize_bo(surface)
        measured = quantum.energy - minima.global_energy
        predicted = vb.quantum_correction(kappa, xi, 1.0, nu)
        assert abs(measured - predicted) < 1e-6
    _report("criterion 10 (zero-point correction)", time.time() - start)


def test_criterion_11_structural_transition_shape():
    start = time.time()
    nu = 0.5
    params = vb.PhysicalParams(omega=1.0, Omega=0.0, d=1.0, x0=nu)
    _, kappa_c = vb.critical_points(1.0, nu)
    kappa = 0.5 * kappa_c
    pot = vb.ExplicitCouplings(kappa=kappa, xi=0.0, nu=nu, v_d=1.0)
    graph = vb.build_resonant_manifold(vb.triangle(), -1.0, pot, (0, 0, 1))
    basis, forms = vb.build_molecular_model(graph, vb.derive_couplings(pot, params), params)
    surface = vb.build_bo_surface(graph, forms, params)

    # the scan window brackets the kink; the well-hybridization bend right at
    # zero drive is genuine curvature of the exact curve unrelated to the
    # kink-vs-smooth contrast, so the grid starts just above it
    result = vb.transition_scan(
        graph,
        forms,
        params,
        np.linspace(0.06, 0.30, 121),
        e_tol=1e-3,
        max_cutoff=8,
        frame="bare",
    )
    ratio = result.bo_second_diff_max / result.quantum_second_diff_max
    assert ratio >= 5.0
    # adiabatic curve has a kink inside the scan window
    assert 0.08 < result.kink_omega < 0.28

    # near zero drive the exact energy sits below the adiabatic minimum by the
    # (negative) zero-point correction
    e_bo_0 = vb.minimize_bo(surface, starts=vb.light_start_points(surface)).global_energy
    e_q_0 = vb.converge_cutoff(
        graph, forms, params, e_tol=1e-3, max_cutoff=8, frame="bare"
    ).energy
    gap0 = e_q_0 - e_bo_0
    predicted = vb.quantum_correction(kappa, 0.0, 1.0, nu)
    assert predicted < 0
    assert gap0 < 0
    assert abs(gap0 - predicted) < 1e-3
    _report(
        "criterion 11 (structural transition shape)",
        time.time() - start,
        f"kink/smooth ratio {ratio:.1f}",
    )


def test_criterion_12_deterministic_artifacts(tmp_path):
    start = time.time()
    from vibronic.cli import main

    cfg = {
        "task": "gs-scan-xi",
        "geometry": {"preset": "dumbbell", "d": 1.0},
        "potential": {"type": "explicit", "kappa": 0.3, "xi": 0.0, "nu": 0.1, "v_d": 1.0},
        "params": {"omega": 1.0, "Omega": 0.0, "delta": "-V"},
        "solver": {"e_tol": 1e-9, "max_cutoff": 128, "frame": "displaced"},
        "scan": {"start": 0.0, "stop": 0.95, "samples": 9, "units": "critical"},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["gs-scan-xi", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["gs-scan-xi", "--config", str(path), "--out", str(out2)]) == 0
    csv1 = (out1 / "scan-xi.csv").read_bytes()
    csv2 = (out2 / "scan-xi.csv").read_bytes()
    assert csv1 == csv2
    assert (out1 / "run-manifest.json").read_bytes() == (out2 / "run-manifest.json").read_bytes()
    _report("criterion 12 (deterministic artifacts)", time.time() - start)

import dataclasses
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from vibronic import (
    DomainError,
    ExplicitCouplings,
    InstabilityError,
    Model,
    PhysicalParams,
    assemble_graph_hamiltonians,
    bo_energy,
    bo_quadratic_check,
    build_fock_matrix,
    build_molecular_model,
    build_resonant_manifold,
    converge_cutoff,
    converge_scan,
    critical_points,
    derive_couplings,
    dumbbell,
    edge_mode_directions,
    ground_state,
    light_start_points,
    minimize_bo,
    quantum_correction,
    transition_scan,
    triangle,
)
from vibronic.bopes import _derivatives, transition_scan_csv
from vibronic.fock import stage_tol

SQRT2 = math.sqrt(2.0)


def triangle_setup(kappa, xi=0.0, nu=0.5, omega=1.0, Omega=0.0):
    params = PhysicalParams(omega=omega, Omega=Omega, d=1.0, x0=nu)
    pot = ExplicitCouplings(kappa=kappa, xi=xi, nu=nu, v_d=1.0)
    graph = build_resonant_manifold(triangle(), -1.0, pot, (0, 0, 1))
    coup = derive_couplings(pot, params)
    basis, forms = build_molecular_model(graph, coup, params)
    surface = Model.build(graph, forms, params)
    return params, graph, basis, forms, surface


def test_surface_vanishes_at_origin_without_drive():
    _, _, _, _, surface = triangle_setup(kappa=-0.3)
    assert bo_energy(surface, np.zeros(4)) == pytest.approx(0.0, abs=1e-15)


def test_pure_drive_surface_is_a_graph_eigenvalue():
    # with no vibronic coupling the minimum sits at the origin and equals the
    # most negative drive eigenvalue: -2 Omega for the six-ring (the coupled
    # mode space degenerates to a single free direction there)
    params, graph, basis, forms, surface = triangle_setup(kappa=0.0, Omega=0.4)
    assert bo_energy(surface, np.zeros(surface.dim)) == pytest.approx(-0.8, rel=1e-12)
    report = minimize_bo(surface)
    assert len(report.minima) == 1
    assert report.global_energy == pytest.approx(-0.8, rel=1e-10)
    assert np.linalg.norm(report.minima[0][0]) < 1e-5


def test_dumbbell_drive_only_surface():
    params = PhysicalParams(omega=1.0, Omega=0.25, d=1.0, x0=0.1)
    pot = ExplicitCouplings(kappa=0.0, xi=0.0, nu=0.1, v_d=1.0)
    graph = build_resonant_manifold(dumbbell(), -1.0, pot, (0, 1))
    basis, forms = build_molecular_model(graph, derive_couplings(pot, params), params)
    surface = Model.build(graph, forms, params)
    assert bo_energy(surface, np.zeros(1)) == pytest.approx(-SQRT2 * 0.25, rel=1e-12)


def test_dimension_mismatch_is_rejected():
    _, _, _, _, surface = triangle_setup(kappa=-0.3)
    with pytest.raises(DomainError):
        bo_energy(surface, np.zeros(3))
    with pytest.raises(DomainError, match=r"expected 4 coordinates, got shape \(3,\)"):
        bo_quadratic_check(surface, np.zeros(3))


def test_three_degenerate_broken_minima():
    kappa = -0.35
    _, graph, basis, forms, surface = triangle_setup(kappa=kappa)
    report = minimize_bo(surface)
    assert len(report.minima) == 3
    assert report.degeneracy == 3
    expected = -2 * kappa**2 / 1.0
    for _, energy in report.minima:
        assert energy == pytest.approx(expected, abs=1e-10)
    # the three minima map onto each other under the threefold symmetry:
    # all at the same distance from the origin, mutually well separated
    radii = [np.linalg.norm(q) for q, _ in report.minima]
    assert max(radii) - min(radii) < 1e-6
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.linalg.norm(report.minima[i][0] - report.minima[j][0]) > 0.1 * radii[0]


def test_strong_drive_restores_the_symmetric_shape():
    # the broken triple merges into one minimum whose distortion is a pure
    # breathing mode: every atom displaced by the same amount
    _, _, basis, _, surface = triangle_setup(kappa=-0.35, Omega=1.0)
    report = minimize_bo(surface)
    assert report.degeneracy == 1
    assert len(report.minima) == 1
    atom_moves = basis.to_full(report.minima[0][0]).reshape(3, 2)
    norms = np.linalg.norm(atom_moves, axis=1)
    assert norms.max() - norms.min() < 1e-6


def test_quadratic_fit_matches_the_local_surface_form():
    kappa, xi, nu = -0.3536, -0.05, 0.5
    params, graph, basis, forms, surface = triangle_setup(kappa=kappa, xi=xi, nu=nu)
    report = minimize_bo(surface)
    center = report.minima[0][0]
    fit = bo_quadratic_check(surface, center)

    diags = [f.energy_at(center) for f in forms]
    resident = int(np.argmin(diags))
    pair = tuple(i for i, b in enumerate(graph.configs[resident]) if b)
    par, perps = edge_mode_directions(graph.geometry, pair, basis)

    x0 = params.x0
    assert par @ fit.quadratic @ par == pytest.approx(1 / (2 * x0**2) + 2 * xi / x0**2, rel=1e-6)
    assert perps[0] @ fit.quadratic @ perps[0] == pytest.approx(
        1 / (2 * x0**2) + SQRT2 * nu * kappa / x0**2, rel=1e-6
    )
    # stationarity at the minimum, and the bare linear coupling at the origin
    assert np.linalg.norm(fit.linear) < 1e-6
    linear_at_origin = fit.linear - 2.0 * fit.quadratic @ fit.center
    assert abs(linear_at_origin @ par) == pytest.approx(2 * abs(kappa) / x0, rel=1e-6)


def test_quadratic_form_of_the_driven_surface_matches_second_differences():
    # with a drive the lowest eigenvector mixes the nodes, so the form holds
    # the excited-state sum of the Hessian; check it against energies alone
    _, _, _, _, surface = triangle_setup(kappa=-0.35, Omega=0.15)
    center = minimize_bo(surface).minima[0][0]
    fit = bo_quadratic_check(surface, center)
    assert np.linalg.norm(fit.linear) < 1e-6
    assert fit.constant == pytest.approx(bo_energy(surface, center), abs=1e-14)

    h, dim = 1e-3 * surface.params.x0, surface.dim
    steps = h * np.eye(dim)

    def energy(*offsets):
        return bo_energy(surface, center + sum(offsets))

    fd = np.zeros((dim, dim))
    for i in range(dim):
        fd[i, i] = (energy(steps[i]) - 2.0 * energy() + energy(-steps[i])) / h**2
        for j in range(i):
            ei, ej = steps[i], steps[j]
            cross = energy(ei, ej) - energy(ei, -ej) - energy(-ei, ej) + energy(-ei, -ej)
            fd[i, j] = fd[j, i] = cross / (4.0 * h**2)
    assert np.abs(fit.quadratic - 0.5 * fd).max() <= 1e-5 * np.abs(fit.quadratic).max()


def test_gradient_matches_finite_differences():
    _, _, _, _, surface = triangle_setup(kappa=-0.35, Omega=0.15)
    rng = np.random.default_rng(7)
    for _ in range(4):
        q = 0.3 * rng.standard_normal(4)
        grad = _derivatives(surface, q)[2]
        fd = np.zeros(4)
        h = 1e-6
        for m in range(4):
            e = np.zeros(4)
            e[m] = h
            fd[m] = (bo_energy(surface, q + e) - bo_energy(surface, q - e)) / (2 * h)
        assert grad == pytest.approx(fd, rel=1e-5, abs=1e-6)


def test_drive_derivative_is_bounded_by_the_graph_spectrum():
    # |dE/dOmega| at fixed q cannot exceed the spectral radius of the adjacency
    _, graph, _, _, surface = triangle_setup(kappa=-0.35)
    lam_max = max(abs(np.linalg.eigvalsh(np.asarray(graph.adjacency, dtype=float))))
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(4):
        q = 0.4 * rng.standard_normal(4)
        e_plus = bo_energy(surface.with_drive(0.2 + h), q)
        e_minus = bo_energy(surface.with_drive(0.2 - h), q)
        assert abs(e_plus - e_minus) / (2 * h) <= lam_max + 1e-6


def test_quantum_floor_sits_above_surface_floor_by_zero_point_shift():
    kappa, nu = -0.3536, 0.5
    params, graph, basis, forms, surface = triangle_setup(kappa=kappa, nu=nu)
    report = minimize_bo(surface)
    quantum = converge_cutoff(graph, forms, params, e_tol=1e-7, max_cutoff=16)
    assert quantum.converged
    measured = quantum.energy - report.global_energy
    predicted = quantum_correction(kappa, 0.0, 1.0, nu)
    assert measured == pytest.approx(predicted, abs=1e-7)


# the criterion-11 solver settings
SCAN_SOLVER = {"e_tol": 1e-3, "max_cutoff": 8}


def test_transition_scan_bo_only():
    params, graph, basis, forms, surface = triangle_setup(kappa=-0.3536)
    omegas = np.linspace(0.0, 0.3, 33)
    result = transition_scan(Model.build(graph, forms, params), omegas, **SCAN_SOLVER)
    assert 0.05 < result.kink_omega < 0.28
    assert result.kink_uncertainty < omegas[1] - omegas[0]
    assert result.bo_second_diff_max > 0
    # surface minimum decreases monotonically with the drive
    assert np.all(np.diff(result.e_bo) < 0)


def test_transition_scan_minimizes_each_drive_once(monkeypatch):
    # refinement drives bitwise equal to grid drives reuse the grid's minima
    import vibronic.bopes

    drives = []
    original = vibronic.bopes.minimize_bo

    def spy(surface, starts=None):
        drives.append(surface.params.Omega)
        return original(surface, starts=starts)

    monkeypatch.setattr(vibronic.bopes, "minimize_bo", spy)
    params = PhysicalParams(omega=1.0, Omega=0.0, d=1.0, x0=0.1)
    pot = ExplicitCouplings(kappa=0.25, xi=0.0, nu=0.1, v_d=1.0)
    graph = build_resonant_manifold(dumbbell(), -1.0, pot, (0, 1))
    _, forms = build_molecular_model(graph, derive_couplings(pot, params), params)
    omegas = np.linspace(0.0, 0.4, 33)
    result = transition_scan(Model.build(graph, forms, params), omegas, e_tol=1e-6, max_cutoff=16)
    d2 = result.e_bo[2:] - 2.0 * result.e_bo[1:-1] + result.e_bo[:-2]
    kink_idx = int(np.argmax(np.abs(d2))) + 1
    fine = np.linspace(omegas[kink_idx - 1], omegas[kink_idx + 1], 9)
    refined = [f for f in fine if f not in omegas]
    assert len(refined) < fine.size
    assert drives == list(omegas) + refined


def test_transition_scan_validates_grid():
    params, graph, basis, forms, _ = triangle_setup(kappa=-0.3536)
    with pytest.raises(DomainError):
        transition_scan(Model.build(graph, forms, params), np.linspace(0, 0.3, 8))
    with pytest.raises(DomainError):
        transition_scan(Model.build(graph, forms, params), np.zeros(40))


def test_csv_writers():
    params, graph, basis, forms, surface = triangle_setup(kappa=-0.3536)
    omegas = np.linspace(0.0, 0.3, 33)
    result = transition_scan(Model.build(graph, forms, params), omegas, **SCAN_SOLVER)
    scan_text = transition_scan_csv(result)
    scan_lines = scan_text.strip().split("\n")
    assert scan_lines[0] == "Omega,E_BO,E_quantum,E_analytic,converged,cutoff"
    assert len(scan_lines) == 34


# -- gradient-first minimization on the criterion-11 model -------------------

CRITERION_11_KAPPA = 0.5 * critical_points(1.0, 0.5)[1]


def fd_hessian(surface, q, h=1e-5):
    """Symmetrized central-difference Hessian of the analytic gradient."""
    rows = []
    for m in range(surface.dim):
        e = np.zeros(surface.dim)
        e[m] = h * surface.params.x0
        plus, minus = _derivatives(surface, q + e)[2], _derivatives(surface, q - e)[2]
        rows.append((plus - minus) / (2 * e[m]))
    hess = np.array(rows)
    return 0.5 * (hess + hess.T)


def nelder_mead_energy(surface, start):
    """Energy the plain simplex reaches from one start (no gradient polish)."""
    res = minimize(
        lambda q: bo_energy(surface, q),
        start,
        method="Nelder-Mead",
        options={
            "xatol": 1e-10 * surface.params.x0,
            "fatol": 1e-13,
            "maxiter": 4000 * surface.dim,
            "maxfev": 4000 * surface.dim,
        },
    )
    return float(res.fun)


def assert_true_minima(surface, report):
    for q, _ in report.minima:
        assert _derivatives(surface, q)[1] > 1e-7 * surface.params.omega
        assert np.linalg.eigvalsh(fd_hessian(surface, q))[0] > 0


def test_descent_from_the_origin_leaves_the_saddle():
    _, _, _, _, base = triangle_setup(kappa=CRITERION_11_KAPPA)
    surface = base.with_drive(0.06)
    # plain gradient descent from the origin stays in the symmetric subspace
    # and stops on a saddle of the lowest branch: a doubly degenerate
    # negative curvature across the symmetry-breaking directions
    saddle = minimize(
        lambda q: bo_energy(surface, q),
        np.zeros(surface.dim),
        jac=lambda q: _derivatives(surface, q)[2],
        method="L-BFGS-B",
        options={"ftol": 1e-18, "gtol": 1e-14, "maxiter": 500},
    ).x
    assert _derivatives(surface, saddle)[1] > 1e-7
    curvatures = np.linalg.eigvalsh(fd_hessian(surface, saddle))
    assert curvatures[:2] == pytest.approx([-16.4, -16.4], abs=0.05)
    assert curvatures[2] > 0

    report = minimize_bo(surface, starts=light_start_points(surface))
    assert len(report.minima) == 3
    assert report.degeneracy == 3
    assert_true_minima(surface, report)
    for q, _ in report.minima:
        assert np.linalg.norm(q - saddle) > 0.1 * surface.params.x0


def test_minima_report_counts_the_search():
    _, _, _, _, base = triangle_setup(kappa=CRITERION_11_KAPPA)
    surface = base.with_drive(0.06)
    starts = light_start_points(surface)
    report = minimize_bo(surface, starts=starts)
    assert report.starts == len(starts) == 4
    assert report.starts_lost == 0
    assert report.saddles_left >= 1
    # every saddle left starts one more descent, and each descent evaluates
    assert report.descents == report.starts + report.saddles_left
    assert report.evaluations > report.descents
    # the origin start alone is the one that meets the saddle
    origin = minimize_bo(surface, starts=np.zeros((1, surface.dim)))
    assert origin.saddles_left >= 1
    assert origin.starts_lost == 0
    again = minimize_bo(surface, starts=starts)
    counts = ("starts", "descents", "evaluations", "saddles_left", "starts_lost")
    assert [getattr(again, c) for c in counts] == [getattr(report, c) for c in counts]


def test_minima_at_a_crossing_start():
    # at zero drive the surface is the lowest node energy, and at the origin
    # every node energy vanishes: the branch has no derivatives there
    _, _, _, _, surface = triangle_setup(kappa=CRITERION_11_KAPPA)
    origin = np.zeros(surface.dim)
    assert _derivatives(surface, origin)[1] == 0.0
    with pytest.raises(DomainError):
        bo_quadratic_check(surface, origin)
    # at zero drive the minima are read off the node forms without a search,
    # so the origin start is unused and all three broken basins are found
    report = minimize_bo(surface, starts=origin[None, :])
    assert len(report.minima) == 3
    assert report.degeneracy == 3
    # the closed form is exact to a few ulp; the simplex's float evaluation
    # may read an ulp below it, so both compare within 4 eps |E|
    exact = -2 * CRITERION_11_KAPPA**2 / surface.params.omega**2
    slack = 4 * np.finfo(float).eps * abs(exact)
    assert report.global_energy == pytest.approx(exact, rel=0, abs=slack)
    assert report.global_energy <= nelder_mead_energy(surface, origin) + slack
    counts = ("starts", "descents", "evaluations", "saddles_left", "starts_lost")
    assert [getattr(report, c) for c in counts] == [0] * len(counts)
    # a tiny drive leaves the origin a crossing: a start there yields nothing
    driven = surface.with_drive(1e-9)
    with pytest.raises(DomainError):
        minimize_bo(driven, starts=origin[None, :])
    report = minimize_bo(driven, starts=light_start_points(driven))
    assert report.starts_lost == 1
    assert len(report.minima) == 3


def test_unstable_surface_raises_at_every_drive():
    # beyond the critical coupling a node Hessian has a negative eigenvalue,
    # so the surface is unbounded below whatever the drive
    _, _, _, _, surface = triangle_setup(kappa=1.1 * critical_points(1.0, 0.5)[1])
    assert np.linalg.eigvalsh(surface.hessians)[:, 0].min() < 0.0
    for drive in (0.0, 0.1):
        with pytest.raises(InstabilityError):
            minimize_bo(surface.with_drive(drive))


# manifolds of different node counts, pairs per node and mode dimensions
MANIFOLDS = {
    "dumbbell": (dumbbell(), -1.0, (0, 1)),
    "triangle": (triangle(), -1.0, (0, 0, 1)),
    "triangle -3V": (triangle(), -3.0, (1, 1, 1)),
    "triangle full_3d": (triangle(full_3d=True), -1.0, (0, 0, 1)),
}


@settings(max_examples=10, deadline=None)
@given(
    manifold=st.sampled_from(sorted(MANIFOLDS)),
    kappabar=st.floats(min_value=-0.9, max_value=0.9),
    xibar=st.floats(min_value=-0.9, max_value=0.9),
    nu=st.floats(min_value=0.1, max_value=0.5),
)
# all three branches lie within 3e-8 omega at the pair node's stationary
# point, which sits 1.7e-4 x0 from the others': no node is tied there
@example(manifold="dumbbell", kappabar=6.103515625e-05, xibar=0.0, nu=0.25)
def test_zero_drive_minima_are_minima_of_the_surface(manifold, kappabar, xibar, nu):
    geometry, delta, seed = MANIFOLDS[manifold]
    params = PhysicalParams(omega=1.0, Omega=0.0, d=1.0, x0=nu)
    xi_c, kappa_c = critical_points(1.0, nu)
    pot = ExplicitCouplings(kappa=kappabar * kappa_c, xi=xibar * xi_c, nu=nu, v_d=1.0)
    graph = build_resonant_manifold(geometry, delta, pot, seed)
    _, forms = build_molecular_model(graph, derive_couplings(pot, params), params)
    surface = Model.build(graph, forms, params)
    if np.linalg.eigvalsh(surface.hessians)[:, 0].min() <= 0.0:
        # several pairs on one node can add up past the one-pair bound
        with pytest.raises(InstabilityError):
            minimize_bo(surface)
        return
    report = minimize_bo(surface)
    for start in light_start_points(surface):
        assert report.global_energy <= nelder_mead_energy(surface, start) + 1e-12
    steps = 1e-4 * surface.params.x0 * np.eye(surface.dim)
    for q, e in report.minima:
        assert e == pytest.approx(bo_energy(surface, q), abs=1e-14)
        for step in steps:
            assert bo_energy(surface, q + step) >= e - 1e-14
            assert bo_energy(surface, q - step) >= e - 1e-14


@settings(max_examples=10, deadline=None)
@given(
    manifold=st.sampled_from(["dumbbell", "triangle"]),
    kappabar=st.floats(min_value=-0.6, max_value=0.6),
    xibar=st.floats(min_value=-0.6, max_value=0.6),
    nu=st.floats(min_value=0.1, max_value=0.5),
    drive=st.sampled_from([0.0, 0.2]),
)
def test_reduction_preserves_minima_and_ground_energies(manifold, kappabar, xibar, nu, drive):
    # the directions reduce_modes drops are free spectator modes: the unreduced
    # forms give the same surface minimum and, on the dumbbell, the same
    # converged ground energy (couplings within 0.6 of critical, where the
    # default max_cutoff converges both)
    geometry, delta, seed = MANIFOLDS[manifold]
    params = PhysicalParams(omega=1.0, Omega=drive, d=1.0, x0=nu)
    xi_c, kappa_c = critical_points(1.0, nu)
    pot = ExplicitCouplings(kappa=kappabar * kappa_c, xi=xibar * xi_c, nu=nu, v_d=1.0)
    graph = build_resonant_manifold(geometry, delta, pot, seed)
    coup = derive_couplings(pot, params)
    _, reduced = build_molecular_model(graph, coup, params)
    unreduced = assemble_graph_hamiltonians(graph, coup, params)
    minima = [minimize_bo(Model.build(graph, f, params)) for f in (reduced, unreduced)]
    assert minima[0].global_energy == pytest.approx(minima[1].global_energy, abs=1e-12)
    if manifold == "dumbbell":
        e_tol = 1e-8
        reports = [converge_cutoff(graph, f, params, e_tol=e_tol) for f in (reduced, unreduced)]
        assert all(report.converged for report in reports)
        assert reports[0].energy == pytest.approx(reports[1].energy, abs=e_tol)


@settings(max_examples=40, deadline=None)
@given(
    drive=st.floats(min_value=0.0, max_value=0.3),
    q=st.lists(st.floats(min_value=-1.5, max_value=1.5), min_size=4, max_size=4),
)
def test_exact_derivatives_match_central_differences(drive, q):
    _, _, _, _, base = triangle_setup(kappa=CRITERION_11_KAPPA)
    surface = base.with_drive(drive)
    q = surface.params.x0 * np.array(q)
    energy, gap, grad, hess = _derivatives(surface, q)
    assume(gap > 1e-3 * surface.params.omega)
    assert energy == pytest.approx(bo_energy(surface, q), abs=1e-14)
    h = 1e-6 * surface.params.x0
    steps = h * np.eye(surface.dim)
    fd_grad = [(bo_energy(surface, q + e) - bo_energy(surface, q - e)) / (2 * h) for e in steps]
    grads = [(_derivatives(surface, q + e)[2], _derivatives(surface, q - e)[2]) for e in steps]
    fd_hess = [(plus - minus) / (2 * h) for plus, minus in grads]
    assert np.abs(grad - fd_grad).max() <= 1e-6 * max(1.0, np.abs(grad).max())
    assert np.abs(hess - np.array(fd_hess)).max() <= 1e-5 * max(1.0, np.abs(hess).max())


def test_symmetric_local_minimum_is_reported():
    _, _, basis, _, base = triangle_setup(kappa=CRITERION_11_KAPPA)
    surface = base.with_drive(0.06 + 12 * 0.24 / 31)  # criterion-11 scan row near 0.153
    starts = light_start_points(surface)
    report = minimize_bo(surface, starts=starts)
    assert_true_minima(surface, report)
    assert report.degeneracy == 3
    assert len(report.minima) == 4
    # the metastable basin above the broken triple keeps the threefold
    # symmetry: every atom moves by the same amount
    q_sym, e_sym = report.minima[-1]
    assert e_sym - report.global_energy > 1e-4
    norms = np.linalg.norm(basis.to_full(q_sym).reshape(3, 2), axis=1)
    assert norms.max() - norms.min() < 1e-6
    # the simplex from the origin steps over that basin onto the broken floor,
    # which the gradient-first search reaches to the same energy
    assert nelder_mead_energy(surface, np.zeros(surface.dim)) < e_sym - 1e-4
    floor = min(nelder_mead_energy(surface, s) for s in starts)
    assert abs(report.global_energy - floor) < 1e-12


@settings(max_examples=15, deadline=None)
@given(drive=st.floats(min_value=0.0, max_value=0.3))
def test_minima_are_checked_and_below_the_simplex(drive):
    _, _, _, _, base = triangle_setup(kappa=CRITERION_11_KAPPA)
    surface = base.with_drive(drive)
    starts = light_start_points(surface)
    report = minimize_bo(surface, starts=starts)
    assert_true_minima(surface, report)
    for start in starts:
        assert report.global_energy <= nelder_mead_energy(surface, start) + 1e-12
    again = minimize_bo(surface, starts=starts)
    assert again.degeneracy == report.degeneracy
    assert again.global_energy == report.global_energy
    assert len(again.minima) == len(report.minima)
    for (q1, e1), (q2, e2) in zip(report.minima, again.minima):
        assert q1.tobytes() == q2.tobytes()
        assert e1 == e2


def test_light_starts_drop_exact_duplicates():
    _, _, _, _, base = triangle_setup(kappa=CRITERION_11_KAPPA)
    half_width = 3.0 * base.params.x0
    # the seed list before deduplication: three of the six node forms have
    # their stationary point at the origin
    repeated = np.array(
        [np.zeros(base.dim)]
        + [np.clip(f.stationary_point(), -half_width, half_width) for f in base.forms]
    )
    assert len(repeated) == 7
    starts = light_start_points(base)
    assert len(starts) == 4
    assert len({s.tobytes() for s in starts}) == 4
    # each start is kept at its first occurrence, in the original order
    first = [next(i for i, s in enumerate(repeated) if s.tobytes() == t.tobytes()) for t in starts]
    assert first == [0, 3, 5, 6]
    for drive in (0.06, 0.06 + 12 * 0.24 / 31, 0.3):
        surface = base.with_drive(drive)
        a = minimize_bo(surface, starts=starts)
        b = minimize_bo(surface, starts=repeated)
        assert (a.degeneracy, a.global_energy, a.degeneracy_tol) == (
            b.degeneracy, b.global_energy, b.degeneracy_tol
        )
        assert len(a.minima) == len(b.minima)
        for (q1, e1), (q2, e2) in zip(a.minima, b.minima):
            assert q1.tobytes() == q2.tobytes()
            assert e1 == e2


def test_transition_scan_rows_match_independent_solves():
    # the criterion-11 grid: carrying operators and vectors along the drives
    # changes no cutoff or converged flag, and energies only in the last digits
    params, graph, _, forms, surface = triangle_setup(kappa=0.5 * critical_points(1.0, 0.5)[1])
    drives = np.linspace(0.06, 0.30, 121)
    result = transition_scan(Model.build(graph, forms, params), drives, **SCAN_SOLVER)
    for i, drive in enumerate(drives):
        row = converge_cutoff(graph, forms, dataclasses.replace(params, Omega=drive), **SCAN_SOLVER)
        assert result.quantum_cutoffs[i] == row.cutoff
        assert result.quantum_converged[i] == row.converged
        assert result.e_quantum[i] == pytest.approx(row.energy, abs=1e-10)


def test_scan_energies_keep_the_stage_residual_bound():
    # at e_tol 1e-3 each stage is solved only to stage_tol(1e-3); by Weinstein's
    # bound its energy still lies within that residual of the strict ground energy
    params, graph, _, forms, _ = triangle_setup(kappa=0.5 * critical_points(1.0, 0.5)[1])
    drives = np.linspace(0.06, 0.30, 121)[::40]
    rows = [Model.build(graph, forms, params).with_drive(drive) for drive in drives]
    target = stage_tol(SCAN_SOLVER["e_tol"])
    assert target == 1e-6
    for row, report in zip(rows, converge_scan(rows, **SCAN_SOLVER)):
        assert report.converged
        strict, _ = ground_state(build_fock_matrix(row, report.cutoff), tol=1e-11)
        assert abs(report.energy - strict) <= target * max(1.0, abs(strict))


def test_import_leaves_scipy_optimize_unloaded():
    # nothing in the package uses scipy.optimize, and only ARPACK stages
    # import scipy.sparse.linalg
    import vibronic

    src = str(Path(vibronic.__file__).resolve().parents[1])
    code = "import sys, vibronic.cli; print(*(m in sys.modules for m in sys.argv[1:]))"
    out = subprocess.run(
        [sys.executable, "-c", code, "scipy.optimize", "scipy.sparse.linalg"],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": src, "PATH": ""},
    )
    loaded_optimize, loaded_sparse_linalg = out.stdout.split()
    assert loaded_optimize == "False"
    assert loaded_sparse_linalg == "False"


@pytest.mark.parametrize("entry", ["minimize_bo", "transition_scan"])
def test_tuple_model_names_model_build(entry):
    # the (graph, forms, params) spelling was removed; it is refused with the
    # way to build a Model
    params, graph, _, forms, _ = triangle_setup(kappa=-0.3, Omega=0.1)
    row = (graph.adjacency, forms, params)
    message = r"expected a Model, got tuple: build one with Model\.build\(graph, forms, params\)"
    with pytest.raises(DomainError, match=message):
        if entry == "minimize_bo":
            minimize_bo(row)
        else:
            transition_scan(row, np.linspace(0.06, 0.30, 8))

import math

import numpy as np
import pytest

from vibronic import (
    DomainError,
    ExplicitCouplings,
    Geometry,
    PhysicalParams,
    PowerLaw,
    PowerLawSum,
    QuadraticVibronic,
    UnsupportedVariantError,
    assemble_graph_hamiltonians,
    assemble_state_hamiltonian,
    build_bo_surface,
    build_fock_matrix,
    build_molecular_model,
    build_resonant_manifold,
    derive_couplings,
    dumbbell,
    dumbbell_hamiltonian,
    edge_mode_directions,
    expansion_coeffs,
    identity_basis,
    reduce_modes,
    tetrahedron,
    triangle,
)

SQRT2 = math.sqrt(2.0)
POT = PowerLaw(1.0, 6)


def mode_form_coefficients(form, params):
    """Ladder-operator coefficients (l, Q) of a reduced quadratic form.

    h = omega sum b'b + sum l_m X_m + sum Q_mn X_m X_n with X = b + b'.
    """
    trap = params.omega / (2 * params.x0**2)
    l = form.linear * params.x0 / SQRT2
    q = (form.hessian - trap * np.eye(form.dim)) * params.x0**2 / 2
    return l, q


def test_expansion_coeffs_axis_pair():
    coeffs = expansion_coeffs((1, 0), dumbbell(d=1.0, full_3d=True), POT)
    assert coeffs.gradient == pytest.approx([-6.0, 0.0, 0.0])
    assert coeffs.hess_radial == pytest.approx(np.diag([42.0, 0.0, 0.0]))
    assert coeffs.hess_transverse == pytest.approx(np.diag([0.0, -6.0, -6.0]))


def test_expansion_spectrum_is_curvature_and_slope():
    # eigenvalues of Ha + Hb are {V'', V'/r0, V'/r0}; verified numerically
    geom = tetrahedron()
    for pair in geom.pairs():
        coeffs = expansion_coeffs(pair, geom, POT)
        vals = np.linalg.eigvalsh(coeffs.hess_radial + coeffs.hess_transverse)
        assert sorted(vals) == pytest.approx(sorted([42.0, -6.0, -6.0]), rel=1e-12)


def test_expansion_structure_properties():
    geom = tetrahedron()
    coeffs = expansion_coeffs((2, 3), geom, POT)
    rvec = geom.positions[2] - geom.positions[3]
    rhat = rvec / np.linalg.norm(rvec)
    # radial part has rank 1 along the pair axis, transverse part kills the axis
    assert np.linalg.matrix_rank(coeffs.hess_radial, tol=1e-10) == 1
    assert coeffs.hess_transverse @ rhat == pytest.approx(np.zeros(3), abs=1e-12)
    assert coeffs.hess_radial == pytest.approx(coeffs.hess_radial.T)
    assert coeffs.hess_transverse == pytest.approx(coeffs.hess_transverse.T)


def test_expansion_vanishes_at_potential_stationary_point():
    lj = PowerLawSum((PowerLaw(1.0, 12), PowerLaw(-2.0, 6)))  # V'(1) = 0
    coeffs = expansion_coeffs((0, 1), dumbbell(full_3d=True), lj)
    assert coeffs.gradient == pytest.approx(np.zeros(3), abs=1e-12)
    assert coeffs.hess_transverse == pytest.approx(np.zeros((3, 3)), abs=1e-12)


def test_single_excitation_states_are_trap_only():
    params = PhysicalParams(omega=1.0, x0=0.1)
    coup = ExplicitCouplings(kappa=-1.0, xi=0.3, nu=0.1)
    for geom, state in [(dumbbell(), (0, 1)), (triangle(), (0, 1, 0)), (tetrahedron(), (1, 0, 0, 0))]:
        form = assemble_state_hamiltonian(state, geom, coup, params)
        trap = params.omega / (2 * params.x0**2)
        assert form.linear == pytest.approx(np.zeros(form.dim), abs=1e-15)
        assert form.hessian == pytest.approx(trap * np.eye(form.dim), rel=1e-15)


def test_dumbbell_pair_couplings_reproduce_closed_forms():
    params = PhysicalParams(omega=1.0, x0=0.1)
    coup = ExplicitCouplings(kappa=-0.42426406871192851, xi=0.21, nu=0.1)
    form = assemble_state_hamiltonian((1, 1), dumbbell(), coup, params)
    basis, (red,) = reduce_modes([form], params)
    assert basis.dim == 1
    l, q = mode_form_coefficients(red, params)
    assert abs(l[0]) == pytest.approx(SQRT2 * abs(coup.kappa), rel=1e-12)
    assert q[0, 0] == pytest.approx(coup.xi, rel=1e-12)


@pytest.mark.parametrize("nu", [0.1, 0.5])
def test_tetrahedron_pair_mode_coefficients(nu):
    # one parallel mode carrying (sqrt(2) kappa, xi) and two perpendicular
    # modes carrying nu kappa / sqrt(2) each
    params = PhysicalParams(omega=1.0, x0=nu)
    coup = ExplicitCouplings(kappa=-1.0, xi=0.05, nu=nu)
    form = assemble_state_hamiltonian((1, 1, 0, 0), tetrahedron(), coup, params)
    basis, (red,) = reduce_modes([form], params)
    assert basis.dim == 3
    l, q = mode_form_coefficients(red, params)
    qvals = sorted(np.linalg.eigvalsh(q))
    perp = nu * coup.kappa / SQRT2
    assert qvals == pytest.approx(sorted([coup.xi, perp, perp]), rel=1e-10, abs=1e-12)
    # the linear coupling lives on the parallel mode only
    assert np.linalg.norm(l) == pytest.approx(SQRT2 * abs(coup.kappa), rel=1e-12)
    par, perps = edge_mode_directions(tetrahedron(), (0, 1), basis)
    assert abs(l @ par) == pytest.approx(SQRT2 * abs(coup.kappa), rel=1e-10)
    for pdir in perps:
        assert l @ pdir == pytest.approx(0.0, abs=1e-10)


def test_reduced_dimensions_for_presets():
    params = PhysicalParams(omega=1.0, x0=0.1)
    pot = ExplicitCouplings(kappa=-1.0, xi=0.1, nu=0.1, v_d=1.0)
    coup = derive_couplings(pot, params)
    expected = {"dumbbell": 1, "triangle": 4, "tetrahedron": 9}
    for geom, seed in [(dumbbell(), (0, 1)), (triangle(), (0, 0, 1)), (tetrahedron(), (1, 0, 0, 0))]:
        graph = build_resonant_manifold(geom, -1.0, pot, seed)
        basis, forms = build_molecular_model(graph, coup, params)
        assert basis.dim == expected[geom.name]
        assert len(forms) == graph.n_nodes


def test_mode_basis_orthonormal_and_spanning():
    params = PhysicalParams(omega=1.0, x0=0.1)
    coup = ExplicitCouplings(kappa=-1.0, xi=0.1, nu=0.1)
    graph = build_resonant_manifold(
        tetrahedron(), -1.0, ExplicitCouplings(-1.0, 0.1, 0.1, 1.0), (1, 0, 0, 0)
    )
    forms = assemble_graph_hamiltonians(graph, coup, params)
    basis, reduced = reduce_modes(forms, params)
    w = basis.vectors
    assert w.T @ w == pytest.approx(np.eye(basis.dim), abs=1e-12)
    trap = params.omega / (2 * params.x0**2)
    projector = np.eye(w.shape[0]) - w @ w.T
    for form in forms:
        assert np.linalg.norm(projector @ form.linear) < 1e-10
        nontrap = form.hessian - trap * np.eye(form.dim)
        assert np.abs(projector @ nontrap).max() < 1e-10


def test_center_of_mass_never_enters_the_basis():
    params = PhysicalParams(omega=1.0, x0=0.1)
    coup = ExplicitCouplings(kappa=-1.0, xi=0.1, nu=0.1)
    for geom, seed in [(triangle(), (0, 0, 1)), (tetrahedron(), (1, 0, 0, 0))]:
        graph = build_resonant_manifold(geom, -1.0, ExplicitCouplings(-1.0, 0.1, 0.1, 1.0), seed)
        basis, _ = build_molecular_model(graph, coup, params)
        for axis in range(geom.n_axes):
            translation = np.zeros(geom.n_atoms * geom.n_axes)
            translation[axis :: geom.n_axes] = 1.0
            translation /= np.linalg.norm(translation)
            assert np.linalg.norm(basis.vectors.T @ translation) < 1e-10


def test_reduced_dimension_is_relabeling_invariant():
    params = PhysicalParams(omega=1.0, x0=0.1)
    coup = ExplicitCouplings(kappa=-1.0, xi=0.1, nu=0.1)
    geom = tetrahedron()
    perm = [1, 2, 3, 0]
    from vibronic import Geometry

    permuted = Geometry(geom.positions[perm], n_axes=3, d=geom.d, name="tetrahedron")
    for g in (geom, permuted):
        graph = build_resonant_manifold(g, -1.0, ExplicitCouplings(-1.0, 0.1, 0.1, 1.0), (1, 0, 0, 0))
        basis, _ = build_molecular_model(graph, coup, params)
        assert basis.dim == 9


def test_full_3d_override_enlarges_the_mode_space():
    # axial/planar defaults reproduce the minimal coupled spaces; forcing full
    # 3D motion adds the out-of-plane relative directions
    params = PhysicalParams(omega=1.0, x0=0.1)
    pot = ExplicitCouplings(kappa=-1.0, xi=0.1, nu=0.1, v_d=1.0)
    coup = derive_couplings(pot, params)

    graph = build_resonant_manifold(dumbbell(full_3d=True), -1.0, pot, (0, 1))
    basis, _ = build_molecular_model(graph, coup, params)
    assert basis.dim == 3  # one axial plus two transverse relative directions

    graph = build_resonant_manifold(triangle(full_3d=True), -1.0, pot, (0, 0, 1))
    basis, _ = build_molecular_model(graph, coup, params)
    assert basis.dim == 6  # all relative motion, in plane and out of plane


def test_two_state_model_matches_spec_form():
    params = PhysicalParams(omega=1.0, Omega=0.4, x0=0.2)
    coup = ExplicitCouplings(kappa=-0.7, xi=0.12, nu=0.2)
    adjacency, forms = dumbbell_hamiltonian(params, coup)
    # the off-diagonal weight sqrt(2) multiplies the drive Omega
    assert params.Omega * adjacency[0, 1] == pytest.approx(SQRT2 * 0.4, rel=1e-15)
    assert adjacency[0, 1] == adjacency[1, 0] == SQRT2
    l0, q0 = mode_form_coefficients(forms[0], params)
    assert l0 == pytest.approx([0.0]) and q0[0, 0] == pytest.approx(0.0, abs=1e-15)
    l1, q1 = mode_form_coefficients(forms[1], params)
    assert l1[0] == pytest.approx(SQRT2 * coup.kappa, rel=1e-14)
    assert q1[0, 0] == pytest.approx(coup.xi, rel=1e-14)


def test_identity_basis_covers_active_coordinates():
    geom = triangle()
    basis = identity_basis(geom)
    assert basis.dim == 6
    assert basis.vectors == pytest.approx(np.eye(6))


def test_pinned_couplings_reject_off_nominal_pairs():
    # the square's diagonal pairs sit at sqrt(2) d, where pinned couplings are undefined
    square = Geometry(np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]))
    params = PhysicalParams(omega=1.0, d=1.0, x0=0.1)
    model = ExplicitCouplings(kappa=0.1, xi=0.02, nu=0.1)
    edge = assemble_state_hamiltonian((1, 1, 0, 0), square, model, params)
    # atom 0 feels V'(d) = sqrt(2) kappa / (nu d) along the pair axis
    assert edge.linear[:3] == pytest.approx([-SQRT2, 0.0, 0.0])
    with pytest.raises(UnsupportedVariantError, match="nominal distance"):
        assemble_state_hamiltonian((1, 0, 1, 0), square, model, params)


@pytest.mark.parametrize(
    "adjacency",
    [
        [[0.0, SQRT2], [0.0, 0.0]],  # upper triangle only: the Fock build would read it
        [[0.0, 0.0], [SQRT2, 0.0]],  # lower triangle only: the surface's eigh would read it
        [[0.0, SQRT2], [SQRT2 + 1e-3, 0.0]],
        [[0.5, SQRT2], [SQRT2, 0.0]],  # a drive on the diagonal
        [[0.0, SQRT2, 0.0], [SQRT2, 0.0, 0.0]],
    ],
)
def test_every_solver_rejects_an_adjacency_it_would_read_differently(adjacency):
    params = PhysicalParams(omega=1.0, Omega=0.2, x0=0.3)
    _, forms = dumbbell_hamiltonian(params, ExplicitCouplings(kappa=0.2, xi=0.0, nu=0.3))
    with pytest.raises(DomainError, match="adjacency"):
        build_fock_matrix(np.array(adjacency), forms, params, cutoff=4)
    with pytest.raises(DomainError, match="adjacency"):
        build_bo_surface(np.array(adjacency), forms, params)


def test_every_solver_rejects_forms_of_different_mode_counts():
    # the surface once stacked such forms into numpy's inhomogeneous-shape ValueError
    params = PhysicalParams(omega=1.0, Omega=0.2, x0=0.3)
    forms = [QuadraticVibronic((0,), 0.0, np.zeros(n), np.eye(n)) for n in (1, 2)]
    adjacency = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(DomainError, match="mode count"):
        build_fock_matrix(adjacency, forms, params, cutoff=4)
    with pytest.raises(DomainError, match="mode count"):
        build_bo_surface(adjacency, forms, params)

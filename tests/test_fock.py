import dataclasses
import functools
import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from vibronic import (
    DomainError,
    EigensolverError,
    ExplicitCouplings,
    Model,
    PhysicalParams,
    QuadraticVibronic,
    ResourceBudgetError,
    assemble_graph_hamiltonians,
    bogoliubov_w,
    build_fock_matrix,
    build_molecular_model,
    build_resonant_manifold,
    converge_cutoff,
    converge_scan,
    critical_points,
    derive_couplings,
    dumbbell,
    dumbbell_hamiltonian,
    edge_mode_directions,
    epsilon2,
    ground_state,
    identity_basis,
    mean_displacements,
    minimize_bo,
    pair_epsilon,
    perpendicular_xi_eff,
    quadrature_moments,
    reduce_modes,
    assemble_state_hamiltonian,
    tetrahedron,
    triangle,
    wigner_widths,
)
from vibronic import fock
from vibronic.fock import _zero_pad

SQRT2 = math.sqrt(2.0)
SINGLE = np.zeros((1, 1))
KAPPA_C = -1.0 / (2.0 * SQRT2 * 0.1)  # the critical kappa at nu 0.1


def two_state(params, kappa, xi, nu=0.1):
    return dumbbell_hamiltonian(params, ExplicitCouplings(kappa=kappa, xi=xi, nu=nu))


def excited_block(params, kappa, xi, nu=0.1):
    return [two_state(params, kappa, xi, nu).forms[1]]


def triangle_model(drive=0.1):
    pot = ExplicitCouplings(kappa=-0.2, xi=0.0, nu=0.5, v_d=1.0)
    params = PhysicalParams(omega=1.0, Omega=drive, x0=0.5)
    graph = build_resonant_manifold(triangle(), -1.0, pot, (0, 0, 1))
    _, forms = build_molecular_model(graph, derive_couplings(pot, params), params)
    return graph, forms, params


def cold_energy(graph, forms, params, cutoff):
    return ground_state(build_fock_matrix(Model.build(graph, forms, params), cutoff))[0]


def refuse_shifts(monkeypatch):
    """Hold every node in the trap frame from now on: each stationary point
    reads as out of range, as a numerically singular form's does."""
    monkeypatch.setattr(fock, "MAX_FRAME_SHIFT", 0.0)


def linear_operator(op):
    """``op`` as a scipy ``LinearOperator``, for ARPACK calls of the tests' own."""
    return LinearOperator((op.dim, op.dim), matvec=op.apply, dtype=np.float64)


def applying(matrix):
    """``matrix``'s product written into a caller's buffer, as ``FockOperator.apply`` writes it."""

    def apply(x, out):
        out[:] = matrix @ x
        return out

    return apply


def test_displaced_oscillator_closed_form():
    params = PhysicalParams(omega=1.0, Omega=0.0)
    op = build_fock_matrix(two_state(params, 0.5, 0.0), cutoff=64)
    energy, _ = ground_state(op)
    assert energy == pytest.approx(-0.5, abs=1e-10)


def test_free_trap_ground_energy_is_zero():
    params = PhysicalParams(omega=1.0, Omega=0.0)
    op = build_fock_matrix(two_state(params, 0.0, 0.0), cutoff=8)
    energy, _ = ground_state(op)
    assert energy == pytest.approx(0.0, abs=1e-12)


def test_pure_electronic_coupling():
    for drive in (0.3, -0.3, 1.0):
        params = PhysicalParams(omega=1.0, Omega=drive)
        op = build_fock_matrix(two_state(params, 0.0, 0.0), cutoff=8)
        energy, _ = ground_state(op)
        assert energy == pytest.approx(-SQRT2 * abs(drive), abs=1e-12)


def test_dimension_counting():
    params = PhysicalParams(omega=1.0, Omega=0.1)
    op = build_fock_matrix(two_state(params, 0.2, 0.0), cutoff=16)
    assert op.dim == 2 * 16
    shape = (op.n_nodes,) + (op.cutoff,) * op.n_modes
    assert np.unravel_index(0, shape) == (0, 0)
    assert np.unravel_index(17, shape) == (1, 1)

    pot = ExplicitCouplings(kappa=-0.2, xi=0.0, nu=0.5, v_d=1.0)
    pp = PhysicalParams(omega=1.0, Omega=0.1, x0=0.5)
    graph = build_resonant_manifold(triangle(), -1.0, pot, (0, 0, 1))
    basis, forms = build_molecular_model(graph, derive_couplings(pot, pp), pp)
    op = build_fock_matrix(Model.build(graph, forms, pp), cutoff=3)
    assert op.dim == 6 * 3**4


# links exist only where Omega A != 0, so only in the trap frame
@pytest.mark.parametrize("frame", ["bare"])
def test_build_stores_the_reference_upper_triangle_and_diagonal(frame):
    # the operator is stored once, so it is symmetric by construction: what
    # is left to check is that the half it stores is the reference's
    pot = ExplicitCouplings(kappa=-0.4, xi=0.06, nu=0.5, v_d=1.0)
    params = PhysicalParams(omega=1.0, Omega=0.25, x0=0.5)
    graph = build_resonant_manifold(triangle(), -1.0, pot, (0, 0, 1))
    basis, forms = build_molecular_model(graph, derive_couplings(pot, params), params)
    op = assert_same_operator(graph, forms, params, 4)
    assert op.links and not op.displacements.any()


def test_trap_only_nodes_store_only_their_links():
    # on the criterion-11 triangle three nodes hold no excited pair: their
    # reduced form is exactly the trap, so their rows keep no CSR entry and
    # the operator holds nothing of them but their links
    kappa = 0.5 * critical_points(1.0, 0.5)[1]
    pot = ExplicitCouplings(kappa=kappa, xi=0.0, nu=0.5, v_d=1.0)
    params = PhysicalParams(omega=1.0, Omega=0.1, x0=0.5)
    graph = build_resonant_manifold(triangle(), -1.0, pot, (0, 0, 1))
    coup = derive_couplings(pot, params)
    _, forms = build_molecular_model(graph, coup, params)
    full = assemble_graph_hamiltonians(graph, coup, params)
    trap = params.omega / (2.0 * params.x0**2)
    trap_only = [
        s
        for s, f in enumerate(full)
        if np.array_equal(f.hessian, trap * np.eye(f.dim)) and not f.linear.any()
    ]
    assert len(trap_only) == 3
    op = build_fock_matrix(Model.build(graph, forms, params), cutoff=4)
    per_node = op.cutoff**op.n_modes
    occupation = np.indices((op.cutoff,) * op.n_modes).sum(axis=0).ravel()
    for s in trap_only:
        assert np.array_equal(forms[s].hessian, trap * np.eye(forms[s].dim))
        assert not forms[s].linear.any()
        block = slice(s * per_node, (s + 1) * per_node)
        assert op.matrix[block].nnz == 0
        higher = [t for t in range(s + 1, op.n_nodes) if graph.adjacency[s, t]]
        links = [(t, value) for r, t, value in op.links if r == s]
        assert links == [(t, params.Omega * graph.adjacency[s, t]) for t in higher]
        assert np.array_equal(op.diagonal[block], params.omega * occupation)
    assert build_fock_matrix(Model.build(graph, forms, params), cutoff=8).matrix.nnz == 182_528


def test_zero_drive_is_block_diagonal():
    params = PhysicalParams(omega=1.0, Omega=0.0)
    op = build_fock_matrix(two_state(params, 0.5, 0.1), cutoff=8)
    dense = op.toarray()
    assert np.abs(dense[:8, 8:]).max() == 0.0
    assert np.abs(dense[8:, :8]).max() == 0.0


def test_block_symmetry_at_zero_drive():
    # the full ground energy equals min over blocks: min(omega eps2, 0)
    params = PhysicalParams(omega=1.0, Omega=0.0)
    cases = [
        (0.5, 0.0),  # eps2 < 0: the coupled block wins
        (0.1, 0.5),  # xibar = -2, eps2 > 0: the free block wins
    ]
    for kappa, xi in cases:
        op = build_fock_matrix(two_state(params, kappa, xi), cutoff=128)
        energy, _ = ground_state(op)
        expected = min(epsilon2(kappa, xi, 1.0), 0.0)
        assert energy == pytest.approx(expected, abs=1e-8)


def test_path_and_two_state_models_agree():
    pot = ExplicitCouplings(kappa=0.5, xi=0.1, nu=0.1, v_d=1.0)
    params = PhysicalParams(omega=1.0, Omega=0.3, d=1.0, x0=0.1)
    graph = build_resonant_manifold(dumbbell(), -1.0, pot, (0, 1))
    basis, forms = build_molecular_model(graph, derive_couplings(pot, params), params)
    e_path, _ = ground_state(build_fock_matrix(Model.build(graph, forms, params), cutoff=32))
    e_two, _ = ground_state(
        build_fock_matrix(dumbbell_hamiltonian(params, derive_couplings(pot, params)), cutoff=32)
    )
    assert e_path == pytest.approx(e_two, abs=1e-10)


def test_variational_monotonicity_in_cutoff():
    params = PhysicalParams(omega=1.0, Omega=0.2)
    energies = []
    for cutoff in (4, 8, 16, 32):
        op = build_fock_matrix(two_state(params, 0.6, -0.15), cutoff=cutoff)
        energies.append(ground_state(op)[0])
    assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(energies, energies[1:]))


def test_converge_cutoff_stable_and_unstable():
    params = PhysicalParams(omega=1.0, Omega=0.0)
    stable = converge_cutoff(
        SINGLE, excited_block(params, 0.0, 0.8 * (-0.25)), params, e_tol=1e-8, max_cutoff=256
    )
    assert stable.converged
    assert stable.energy == pytest.approx(epsilon2(0.0, -0.2, 1.0), abs=1e-8)

    unstable = converge_cutoff(
        SINGLE, excited_block(params, 0.0, 1.2 * (-0.25)), params, e_tol=1e-8, max_cutoff=256
    )
    assert not unstable.converged
    history = [e for _, e in unstable.energy_history]
    assert all(e2 < e1 for e1, e2 in zip(history, history[1:]))
    assert history[-2] - history[-1] > 1e-3

    cutoffs = [c for c, _ in unstable.energy_history]
    assert cutoffs == sorted(cutoffs)
    assert cutoffs[0] == 4 and cutoffs[-1] == 256


@settings(max_examples=20, deadline=None)
@given(
    kappabar=st.floats(min_value=0.0, max_value=0.6),
    xibar=st.floats(min_value=-1.0, max_value=0.6),
    nu=st.floats(min_value=0.1, max_value=0.5),
)
def test_excited_pair_energy_matches_the_closed_form(kappabar, xibar, nu):
    # the doubly excited pair with none, one and two perpendicular modes
    params = PhysicalParams(omega=1.0, x0=nu)
    coup = ExplicitCouplings(kappa=kappabar * -1.0 / (2.0 * SQRT2 * nu), xi=xibar * -0.25, nu=nu)
    pairs = ((dumbbell(), (1, 1)), (triangle(), (1, 1, 0)), (tetrahedron(), (1, 1, 0, 0)))
    for geometry, config in pairs:
        form = assemble_state_hamiltonian(config, geometry, coup, params)
        _, reduced = reduce_modes([form], params)
        report = converge_cutoff(SINGLE, reduced, params, e_tol=1e-9, max_cutoff=32)
        assert report.converged
        n_perp = geometry.n_axes - 1
        assert report.energy == pytest.approx(
            pair_epsilon(coup.kappa, coup.xi, 1.0, nu, n_perp), abs=1e-6
        )


def test_converge_cutoff_trivial_point_converges_immediately():
    params = PhysicalParams(omega=1.0, Omega=0.0)
    report = converge_cutoff(
        SINGLE, excited_block(params, 0.0, 0.0), params, e_tol=1e-10, max_cutoff=64
    )
    assert report.converged
    assert report.cutoff == 8  # first comparison happens at the second stage


@settings(max_examples=20, deadline=None)
@given(
    kappabar=st.floats(min_value=-0.9, max_value=0.9),
    xibar=st.floats(min_value=-0.9, max_value=0.9),
    nu=st.floats(min_value=0.1, max_value=0.5),
    drive=st.sampled_from([0.0, 0.2, 0.5]),
)
# draws pinned before, at kappa 0.3203125, 0.1875 and 0.21875 (nu 0.1)
@example(kappabar=0.3203125 / KAPPA_C, xibar=-0.3203125, nu=0.1, drive=0.0)
@example(kappabar=0.1875 / KAPPA_C, xibar=-0.28125, nu=0.1, drive=0.25)
@example(kappabar=0.21875 / KAPPA_C, xibar=-0.3125, nu=0.1, drive=0.5)
@example(kappabar=0.3 / KAPPA_C, xibar=0.85, nu=0.1, drive=0.5)  # demo 02's driven row
# the displaced links read -1.7e23 here, against a bound of -5.17
@example(kappabar=0.56, xibar=0.58, nu=0.2, drive=0.2)
def test_stage_energies_stay_above_the_adiabatic_bound(kappabar, xibar, nu, drive):
    # the trap is normal-ordered and the kinetic energy is positive, so no
    # state lies below the surface minimum less the zero-point energy of
    # every mode, and no truncated basis does either.  At zero drive the
    # converged energy is the closed form.  Energies need not fall with the
    # cutoff: the X^2 bands are truncated products.
    xi_c, kappa_c = critical_points(1.0, nu)
    kappa, xi = kappabar * kappa_c, xibar * xi_c
    params = PhysicalParams(omega=1.0, Omega=drive)
    model = two_state(params, kappa, xi, nu=nu)
    bound = minimize_bo(model).global_energy - model.dim * params.omega / 2.0
    (report,) = converge_scan([model], e_tol=1e-10, max_cutoff=128)
    assert all(energy >= bound for _, energy in report.energy_history)
    if drive == 0.0:
        assert report.converged
        assert report.energy == pytest.approx(min(epsilon2(kappa, xi, 1.0), 0.0), abs=1e-9)


def test_quadrature_moments_vacuum():
    params = PhysicalParams(omega=1.0, Omega=0.0, x0=0.7)
    op = build_fock_matrix(Model.build(SINGLE, excited_block(params, 0.0, 0.0), params), cutoff=16)
    state = np.zeros(op.dim)
    state[0] = 1.0
    mean_x, var_x, var_p = quadrature_moments(op, state, 0)
    assert mean_x == pytest.approx(0.0, abs=1e-14)
    assert var_x == pytest.approx(0.7**2 / 2, rel=1e-12)
    assert var_p == pytest.approx(1 / (2 * 0.7**2), rel=1e-12)


def test_quadrature_moments_displaced_ground_state():
    # mean displacement of the coupled mode: x0 <X>/sqrt(2) with <X> = -2 sqrt(2) kappa/omega
    params = PhysicalParams(omega=1.0, Omega=0.0, x0=1.0)
    kappa = 0.5
    op = build_fock_matrix(Model.build(SINGLE, excited_block(params, kappa, 0.0), params), 64)
    assert op.displacements.any()  # a single node is centred on its minimum
    energy, state = ground_state(op)
    mean_x, var_x, var_p = quadrature_moments(op, state, 0)
    assert mean_x == pytest.approx(-2 * kappa / 1.0, rel=1e-8)
    # a displaced ground state keeps vacuum variances and minimum uncertainty
    assert var_x == pytest.approx(0.5, rel=1e-7)
    assert var_x * var_p == pytest.approx(0.25, rel=1e-7)


def test_quadrature_moments_squeezed_uncertainty_product():
    params = PhysicalParams(omega=1.0, Omega=0.0)
    op = build_fock_matrix(Model.build(SINGLE, excited_block(params, 0.0, -0.2), params), 128)
    _, state = ground_state(op)
    mean_x, var_x, var_p = quadrature_moments(op, state, 0)
    assert var_x * var_p == pytest.approx(0.25, rel=1e-8)
    assert var_x > 0.5  # softened potential widens the position quadrature


def test_quadrature_moments_validation():
    params = PhysicalParams(omega=1.0, Omega=0.0)
    op = build_fock_matrix(Model.build(SINGLE, excited_block(params, 0.0, 0.0), params), cutoff=8)
    good = np.zeros(op.dim)
    good[0] = 1.0
    with pytest.raises(DomainError):
        quadrature_moments(op, good, 5)
    with pytest.raises(DomainError):
        quadrature_moments(op, 0.5 * good, 0)
    # a NaN norm is not within 1e-8 of 1 either
    with pytest.raises(DomainError, match="normalized"):
        quadrature_moments(op, np.full(op.dim, math.nan), 0)


def test_mean_displacements_of_excited_pair():
    # both atoms move by x0 |beta| in opposite directions along the axis
    params = PhysicalParams(omega=1.0, Omega=0.0, x0=0.3, d=1.0)
    kappa = 0.4
    coup = ExplicitCouplings(kappa=kappa, xi=0.0, nu=0.3)
    form = assemble_state_hamiltonian((1, 1), dumbbell(), coup, params)
    basis, reduced = reduce_modes([form], params)
    op = build_fock_matrix(Model.build(SINGLE, reduced, params), cutoff=64)
    _, state = ground_state(op)
    disp = mean_displacements(op, state, basis)
    expected = params.x0 * SQRT2 * kappa / 1.0  # x0 |beta*|, beta* = -sqrt(2) kappa/omega
    assert np.abs(disp).flatten() == pytest.approx([expected, expected], rel=1e-8)
    assert disp.sum() == pytest.approx(0.0, abs=1e-10)  # no center-of-mass motion


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_exact_squeezing_matches_the_closed_form(seed):
    # the tetrahedron pair block as gs-scan-kappa builds it, at xi = 0: each
    # perpendicular mode is squeezed by xi_eff = nu kappa / sqrt(2), so its
    # 2 var_x / x0^2 is 2 / w_plus of the closed form; the axial mode is not
    rng = np.random.default_rng(seed)
    nu, kappabar = rng.uniform(0.1, 0.5), rng.uniform(0.2, 0.8)
    kappa = kappabar * critical_points(1.0, nu)[1]
    params = PhysicalParams(omega=1.0, Omega=0.0, d=1.0, x0=nu)
    coup = ExplicitCouplings(kappa=kappa, xi=0.0, nu=nu)
    form = assemble_state_hamiltonian((1, 1, 0, 0), tetrahedron(), coup, params)
    basis, reduced = reduce_modes([form], params)
    model = Model.build(SINGLE, reduced, params)
    (report,) = converge_scan([model], e_tol=1e-10)
    assert report.converged and model.dim == 3
    op = build_fock_matrix(model, report.cutoff)
    _, state = ground_state(op, tol=fock.EIG_TOL)
    parallel, _ = edge_mode_directions(tetrahedron(), (0, 1), basis)
    axial = int(np.argmax(np.abs(parallel)))
    assert abs(parallel[axial]) == pytest.approx(1.0, abs=1e-12)
    w_plus, _ = wigner_widths(bogoliubov_w(1.0, perpendicular_xi_eff(kappa, nu)).w)
    for mode in range(model.dim):
        ratio = 2.0 * quadrature_moments(op, state, mode)[1] / params.x0**2
        assert ratio == pytest.approx(1.0 if mode == axial else 2.0 / w_plus, abs=1e-12)


@functools.lru_cache(maxsize=None)
def triangle_operator(frame, cutoff):
    """The triangle at a drive of 0.1 (the trap frame) or 0 (every node on its minimum)."""
    pot = ExplicitCouplings(kappa=-0.2, xi=0.0, nu=0.5, v_d=1.0)
    params = PhysicalParams(omega=1.0, Omega=0.0 if frame == "displaced" else 0.1, x0=0.5)
    graph = build_resonant_manifold(triangle(), -1.0, pot, (0, 0, 1))
    basis, forms = build_molecular_model(graph, derive_couplings(pot, params), params)
    return basis, build_fock_matrix(Model.build(graph, forms, params), cutoff)


def dense_moments(op, state, mode):
    """``(mean_x, var_x, var_p)`` of one mode from the lab-frame X and P^2 over the whole basis.

    X = b + b^dag and P^2 = (i(b^dag - b))^2 are written out as matrices of
    the truncated mode, embedded with ``kron``, and X is moved by each node's
    frame shift; X^2 is the product of the truncated X with itself.
    """
    c, per_node = op.cutoff, op.cutoff**op.n_modes
    sq = np.sqrt(np.arange(1.0, c))
    x = sp.diags([sq, sq], [-1, 1], format="csr")
    n = np.arange(float(c))
    p2 = np.diag(2.0 * n + 1.0)
    off = np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0))
    for i, v in enumerate(off):
        p2[i, i + 2] = -v
        p2[i + 2, i] = -v

    def embed(local):
        left = sp.identity(op.n_nodes * c**mode, format="csr")
        right = sp.identity(c ** (op.n_modes - mode - 1), format="csr")
        return sp.kron(sp.kron(left, sp.csr_matrix(local)), right, format="csr")

    shift = sp.kron(sp.diags(2.0 * op.displacements[:, mode]), sp.identity(per_node))
    x_state = (embed(x) + shift) @ state
    mean = state @ x_state
    return (
        op.x0 * mean / SQRT2,
        op.x0**2 * (x_state @ x_state - mean**2) / 2.0,
        state @ (embed(p2) @ state) / (2.0 * op.x0**2),
    )


@settings(max_examples=40, deadline=None)
@given(
    frame=st.sampled_from(["bare", "displaced"]),
    cutoff=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_quadrature_moments_match_dense_operators(frame, cutoff, seed):
    # random states over every node and mode, in both frames; at cutoff 2 the
    # +-2 band is empty.  Means of random states come as small as 1e-5, so a
    # mean is compared to 1e-12 of its value or of the mode's position spread.
    basis, op = triangle_operator(frame, cutoff)
    assert (frame == "displaced") == bool(np.any(op.displacements))
    state = np.random.default_rng(seed).standard_normal(op.dim)
    state /= np.linalg.norm(state)
    means, spreads = [], []
    for mode in range(op.n_modes):
        mean_x, var_x, var_p = dense_moments(op, state, mode)
        got = quadrature_moments(op, state, mode)
        assert got[0] == pytest.approx(mean_x, rel=1e-12, abs=1e-12 * math.sqrt(var_x))
        assert got[1:] == pytest.approx((var_x, var_p), rel=1e-12)
        means.append(mean_x)
        spreads.append(math.sqrt(var_x))
    expected = basis.to_full(np.array(means)).reshape(basis.n_atoms, basis.n_axes)
    got = mean_displacements(op, state, basis)
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-12 * min(spreads))


def test_reduction_preserves_energies():
    # discarded directions are free modes: solving in the unreduced coordinate
    # space gives the same ground energy as the reduced model
    pot = ExplicitCouplings(kappa=0.4, xi=0.08, nu=0.1, v_d=1.0)
    for drive in (0.0, 0.25):
        params = PhysicalParams(omega=1.0, Omega=drive, d=1.0, x0=0.1)
        graph = build_resonant_manifold(dumbbell(), -1.0, pot, (0, 1))
        coup = derive_couplings(pot, params)
        basis_r, forms_r = build_molecular_model(graph, coup, params)
        basis_f = identity_basis(graph.geometry)
        forms_f = assemble_graph_hamiltonians(graph, coup, params)
        assert basis_r.dim == 1 and basis_f.dim == 2
        e_r, _ = ground_state(build_fock_matrix(Model.build(graph, forms_r, params), cutoff=48))
        e_f, _ = ground_state(build_fock_matrix(Model.build(graph, forms_f, params), cutoff=48))
        assert e_r == pytest.approx(e_f, abs=1e-9)


def test_resource_budget_guard(monkeypatch):
    pot = ExplicitCouplings(kappa=-0.2, xi=0.0, nu=0.5, v_d=1.0)
    params = PhysicalParams(omega=1.0, Omega=0.1, x0=0.5)
    graph = build_resonant_manifold(triangle(), -1.0, pot, (0, 0, 1))
    basis, forms = build_molecular_model(graph, derive_couplings(pot, params), params)
    monkeypatch.setattr(fock, "MAX_BYTES", 10**6)
    with pytest.raises(ResourceBudgetError) as err:
        build_fock_matrix(Model.build(graph, forms, params), cutoff=64)
    assert err.value.estimated_bytes > 10**6


def test_cutoff_validation():
    params = PhysicalParams(omega=1.0, Omega=0.0)
    with pytest.raises(DomainError):
        build_fock_matrix(Model.build(SINGLE, excited_block(params, 0.0, 0.0), params), cutoff=1)
    with pytest.raises(DomainError):
        converge_cutoff(SINGLE, excited_block(params, 0.0, 0.0), params, max_cutoff=2)


def test_integer_cutoffs_only():
    # a float cutoff is a domain error, not a failure inside the build;
    # a NumPy integer builds the same operator as a Python int
    params = PhysicalParams(omega=1.0, Omega=0.2, x0=0.3)
    model = two_state(params, 0.35, -0.1)
    for cutoff in (4.0, 4.5, "4", None):
        with pytest.raises(DomainError, match="integer"):
            build_fock_matrix(model, cutoff)
    op, ref = build_fock_matrix(model, np.int64(4)), build_fock_matrix(model, 4)
    assert op.toarray().tobytes() == ref.toarray().tobytes()


@pytest.mark.parametrize("e_tol", [math.inf, math.nan, -1e-9, -math.inf])
def test_tolerances_that_turn_the_residual_check_off_are_refused(e_tol):
    # with e_tol = inf the dumbbell's first pair (4, 8) would stop converged
    # at E(8) = -0.6133052, 2.5e-4 above the converged -0.6135577; with NaN
    # every stage's residual limit is NaN, so every check fails
    params = PhysicalParams(omega=1.0, Omega=0.2, x0=0.3)
    model = two_state(params, 0.35, -0.1)
    with pytest.raises(DomainError, match="e_tol"):
        converge_scan([model], e_tol=e_tol, max_cutoff=16)


@pytest.mark.parametrize("max_cutoff", [math.nan, 10.5, 16.0, "16", 2])
def test_converge_scan_refuses_a_max_cutoff_that_is_not_an_integer_of_at_least_4(max_cutoff):
    # unchecked, NaN runs no stage and fails on the empty history
    # (IndexError), and 10.5 silently stops the doubling at 8
    params = PhysicalParams(omega=1.0, Omega=0.2, x0=0.3)
    model = two_state(params, 0.35, -0.1)
    with pytest.raises(DomainError, match="max_cutoff must be an integer of at least 4"):
        converge_scan([model], max_cutoff=max_cutoff)
    assert converge_scan([model], max_cutoff=np.int64(16))[0].energy_history


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-11])
def test_ground_state_refuses_a_tolerance_that_is_not_positive_and_finite(tol):
    params = PhysicalParams(omega=1.0, Omega=0.2, x0=0.3)
    op = build_fock_matrix(two_state(params, 0.35, -0.1), 4)
    with pytest.raises(DomainError, match="tol"):
        ground_state(op, tol=tol)


def test_stage_tol_moves_only_above_1e_8():
    # compared on e_tol: max(1e-11, e_tol / 1000) would read 1.0000000000000001e-11 at 1e-8
    assert [fock.stage_tol(e_tol) for e_tol in (0.0, 1e-9, 1e-8)] == [fock.EIG_TOL] * 3
    assert [fock.stage_tol(e_tol) for e_tol in (1e-7, 1e-6, 1e-3)] == [1e-10, 1e-9, 1e-6]


def test_zero_pad_keeps_every_basis_state():
    graph, forms, params = triangle_model()
    small = build_fock_matrix(Model.build(graph, forms, params), cutoff=2)
    big = build_fock_matrix(Model.build(graph, forms, params), cutoff=4)
    state = np.arange(1.0, small.dim + 1.0)
    padded = _zero_pad(small, state, big.cutoff)
    assert padded.shape == (big.dim,)
    landed = np.flatnonzero(padded)
    assert landed.size == small.dim
    big_shape = (big.n_nodes,) + (big.cutoff,) * big.n_modes
    small_shape = (small.n_nodes,) + (small.cutoff,) * small.n_modes
    for j in landed:
        assert np.unravel_index(j, big_shape) == np.unravel_index(int(padded[j]) - 1, small_shape)


def test_warm_stages_match_cold_solves():
    # every stage after the first starts from the padded previous ground vector
    graph, forms, params = triangle_model()
    report = converge_cutoff(graph, forms, params, e_tol=0.0, max_cutoff=8)
    assert [c for c, _ in report.energy_history] == [4, 8]
    for cutoff, energy in report.energy_history:
        assert energy == pytest.approx(cold_energy(graph, forms, params, cutoff), abs=1e-10)

    nu = 0.5
    pair = PhysicalParams(omega=1.0, Omega=0.0, d=1.0, x0=nu)
    coup = ExplicitCouplings(kappa=-0.5 / (2.0 * SQRT2 * nu), xi=-0.1, nu=nu)
    form = assemble_state_hamiltonian((1, 1, 0, 0), tetrahedron(), coup, pair)
    _, reduced = reduce_modes([form], pair)
    report = converge_cutoff(SINGLE, reduced, pair, e_tol=0.0, max_cutoff=32)
    assert [c for c, _ in report.energy_history] == [4, 8, 16, 32]
    assert 32 ** reduced[0].dim == 32768
    for cutoff, energy in report.energy_history:
        cold = cold_energy(SINGLE, reduced, pair, cutoff)
        assert energy == pytest.approx(cold, abs=1e-10)


def test_warm_path_keeps_instability_unconverged():
    # beyond xi_c the energy keeps falling; the last stage (dim 512) is warm
    params = PhysicalParams(omega=1.0, Omega=0.2)
    model = two_state(params, 0.0, 1.2 * (-0.25))
    report = converge_scan([model], e_tol=1e-8, max_cutoff=256)[0]
    assert not report.converged
    assert report.cutoff == 256
    history = [e for _, e in report.energy_history]
    assert all(e2 < e1 for e1, e2 in zip(history, history[1:]))
    cold = ground_state(build_fock_matrix(model, cutoff=256))[0]
    assert history[-1] == pytest.approx(cold, abs=1e-10)


def test_lobpcg_miss_falls_back_to_arpack(monkeypatch):
    graph, forms, params = triangle_model()
    stalled = []

    def no_progress(apply, diagonal, v0, tol):
        stalled.append(v0.size)
        return float(v0 @ apply(v0, np.empty_like(v0))), v0

    monkeypatch.setattr(fock, "_jacobi_lobpcg", no_progress)
    report = converge_cutoff(graph, forms, params, e_tol=0.0, max_cutoff=8)
    assert stalled == [6 * 8**4]
    assert report.energy == pytest.approx(cold_energy(graph, forms, params, 8), abs=1e-10)


def test_eigensolver_failure_never_converges(monkeypatch):
    # a failed stage reports its best estimate; two equal estimates must not
    # read as convergence, and the next stage starts cold
    graph, forms, params = triangle_model()

    def failing_eigsh(matrix, **kwargs):
        raise ArpackNoConvergence("no convergence", np.array([-1.0]), np.ones((matrix.shape[0], 1)))

    def unexpected_lobpcg(*args, **kwargs):
        raise AssertionError("a failed stage must not warm-start the next one")

    monkeypatch.setattr("scipy.sparse.linalg.eigsh", failing_eigsh)
    monkeypatch.setattr(fock, "_jacobi_lobpcg", unexpected_lobpcg)
    report = converge_cutoff(graph, forms, params, e_tol=1e-8, max_cutoff=8)
    assert not report.converged
    assert report.energy_history == ((4, -1.0), (8, -1.0))


def csr_parts(matrix):
    return tuple(a.copy() for a in (matrix.indptr, matrix.indices, matrix.data))


def link_array(op):
    """The operator's links ``(s, t, value)`` as rows of one float array."""
    return np.array(op.links, dtype=float).reshape(-1, 3)


def operator_parts(op):
    """Every stored array of an operator: its CSR arrays, diagonal and links."""
    return (*csr_parts(op.matrix), op.diagonal.copy(), link_array(op))


def same_bits(a, b):
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in zip(a, b))


def fresh_build(model, cutoff):
    """``build_fock_matrix(model, cutoff)`` assembled anew, with no node block kept before."""
    fock._memo.clear()
    return build_fock_matrix(model, cutoff)


def kappa_rows(kappabars, nu=0.25, xi=0.15):
    """``gs-scan-kappa`` rows of the tetrahedron pair; kappa = 0 leaves only the axial mode."""
    params = PhysicalParams(omega=1.0, x0=nu)
    kappa_c = -1.0 / (2.0 * SQRT2 * nu)
    rows = []
    for kappabar in kappabars:
        coup = ExplicitCouplings(kappa=kappabar * kappa_c, xi=xi, nu=nu)
        form = assemble_state_hamiltonian((1, 1, 0, 0), tetrahedron(), coup, params)
        rows.append(Model.build(SINGLE, reduce_modes([form], params)[1], params))
    return rows


# the frame of the nonzero drives: "displaced" runs the model without its
# links, whose nodes sit on their minima at every drive
@pytest.mark.parametrize(
    "model, frame, max_cutoff",
    [
        ("dumbbell", "bare", 16),
        ("dumbbell", "displaced", 16),
        ("triangle", "bare", 4),
        ("triangle", "displaced", 4),
        ("dumbbell-couplings", "displaced", 16),
    ],
)
def test_drive_scan_operators_match_fresh_builds(monkeypatch, model, frame, max_cutoff):
    # siblings share each cutoff's node blocks, each with its own links;
    # every stage must see the build of its own row bitwise, also after a
    # zero drive, which has no links and so its own build, on a grid that
    # starts there, and when the forms or the trap change at one nonzero
    # drive, where the operators of the previous model must be dropped
    if model == "triangle":
        graph, forms, params = triangle_model(0.0)
    else:
        params = PhysicalParams(omega=1.0, Omega=0.0)
        pair_model = two_state(params, 0.3, -0.1)
        graph, forms = pair_model.adjacency, pair_model.forms
    if frame == "displaced":
        graph = np.zeros((len(forms), len(forms)))
    drives = [0.0, 0.1, 0.25, 0.0, 0.4]
    base = Model.build(graph, forms, params)
    rows = [base.with_drive(d) for d in drives]
    if model == "dumbbell-couplings":
        other = two_state(params, -0.2, 0.05).forms
        driven = dataclasses.replace(params, Omega=0.25)
        rows = [Model.build(graph, f, driven) for f in (forms, other, forms, other)]
        rows.append(Model.build(graph, other, dataclasses.replace(driven, omega=1.25)))
    cutoffs = [c for c in (4, 8, 16) if c <= max_cutoff]
    seen = []
    solve = fock.ground_state

    def spy(op, tol=1e-11, v0=None):
        seen.append((op.cutoff, operator_parts(op)))
        return solve(op, tol=tol, v0=v0)

    monkeypatch.setattr(fock, "ground_state", spy)
    reports = converge_scan(rows, e_tol=0.0, max_cutoff=max_cutoff)
    assert [[c for c, _ in r.energy_history] for r in reports] == [cutoffs] * len(rows)
    shifted = [fresh_build(row, 4).displacements.any() for row in rows]
    assert shifted == [frame == "displaced" or row.params.Omega == 0.0 for row in rows]
    fresh = {
        (i, c): operator_parts(fresh_build(row, c))
        for i, row in enumerate(rows)
        for c in cutoffs
    }
    row, matched = 0, set()
    for cutoff, parts in seen:  # stages run row by row; a re-solve repeats one
        while not same_bits(parts, fresh[row, cutoff]):  # KeyError: no row's build
            row += 1
        matched.add((row, cutoff))
    # rows whose builds are bitwise equal (no links) cannot be told apart
    assert all(any(same_bits(fresh[key], fresh[m]) for m in matched if m[1] == key[1]) for key in fresh)


def test_a_row_repeated_after_its_sibling_solves_at_its_own_drive(monkeypatch):
    # the rows share their node blocks, and a model that comes back after its
    # sibling must take its own links again, not the last row's
    params = PhysicalParams(omega=1.0, Omega=0.1)
    model = two_state(params, 0.3, -0.1)
    rows = [model, model.with_drive(0.2), model]
    current, seen = [], []
    solve = fock.ground_state

    def spy(op, tol=1e-11, v0=None):
        seen.append((current[-1], op.cutoff, operator_parts(op)))
        return solve(op, tol=tol, v0=v0)

    def lazy_rows():
        for i, row in enumerate(rows):
            current.append(i)
            yield row

    monkeypatch.setattr(fock, "ground_state", spy)
    converge_scan(lazy_rows(), e_tol=0.0, max_cutoff=16)
    assert {i for i, _, _ in seen} == {0, 1, 2}
    for i, cutoff, parts in seen:
        assert same_bits(parts, operator_parts(fresh_build(rows[i], cutoff)))


def test_rows_edited_in_place_between_rows_are_another_model():
    # a lazily produced row may edit its input forms in place after the last
    # row was built: a model built after the edit sees it, and one built
    # before holds copies that the edit cannot reach, so its sibling at a
    # later row solves the unedited model
    params = PhysicalParams(omega=1.0, Omega=0.2, d=1.0, x0=0.3)
    driven = dataclasses.replace(params, Omega=0.3)
    solver = {"e_tol": 1e-9, "max_cutoff": 64}

    def inputs(edited):
        pair_model = two_state(params, 0.35, -0.1, nu=0.3)
        forms = [
            dataclasses.replace(f, linear=f.linear.copy(), hessian=f.hessian.copy())
            for f in pair_model.forms
        ]
        if edited:
            forms[1].hessian[0, 0] *= 1.5
        return pair_model.adjacency, forms

    def rows():
        adjacency, forms = inputs(edited=False)
        first = Model.build(adjacency, forms, params)
        yield first
        forms[1].hessian[0, 0] *= 1.5
        yield Model.build(adjacency, forms, driven)
        yield first.with_drive(driven.Omega)

    reports = converge_scan(rows(), **solver)
    alone = [converge_cutoff(*inputs(False), params, **solver),
             converge_cutoff(*inputs(True), driven, **solver),
             converge_cutoff(*inputs(False), driven, **solver)]
    assert len(reports) == 3
    for report, independent in zip(reports, alone):
        assert report.converged and independent.converged
        assert report.energy == pytest.approx(independent.energy, abs=solver["e_tol"])


def test_drive_scan_warm_starts_match_independent_solves(monkeypatch):
    # a triangle drive scan, then kappa rows of another shape at the same
    # cutoffs: one mode (kappa = 0, dense stages only), then three modes,
    # whose cutoff-8 stages must not start from the triangle's vectors
    graph, forms, params = triangle_model()
    drives = np.linspace(0.06, 0.14, 5)
    rows = [Model.build(graph, forms, params).with_drive(d) for d in drives]
    rows += kappa_rows([0.0, 0.2, 0.4, 0.6])
    assert [row.dim for row in rows[len(drives):]] == [1, 3, 3, 3]
    starts = []
    solve = fock.ground_state

    def spy(op, tol=1e-11, v0=None):
        if op.dim > fock.DENSE_CUTOVER:
            starts.append((op.cutoff, v0 is not None))
        return solve(op, tol=tol, v0=v0)

    monkeypatch.setattr(fock, "ground_state", spy)
    reports = converge_scan(rows, e_tol=0.0, max_cutoff=8)
    monkeypatch.undo()
    # only the first drive's first stage starts cold among the sparse stages
    assert starts[0] == (4, False)
    assert all(warm for _, warm in starts[1:])
    for row, report in zip(rows, reports):
        alone = converge_scan([row], e_tol=0.0, max_cutoff=8)[0]
        assert [c for c, _ in report.energy_history] == [4, 8]
        assert report.converged == alone.converged
        for (_, energy), (_, energy_alone) in zip(report.energy_history, alone.energy_history):
            assert energy == pytest.approx(energy_alone, abs=1e-10)


def test_scan_keeps_a_trail_per_frame(monkeypatch):
    # a zero-drive row centres the nodes on their minima and a driven row
    # does not, so the first driven row starts no stage from its vectors
    graph, forms, params = triangle_model()
    rows = [Model.build(graph, forms, params).with_drive(d) for d in (0.0, 0.1, 0.12)]
    offered = []
    extrapolate = fock._extrapolate

    def spy(trail):
        offered.append(len(trail))
        return extrapolate(trail)

    monkeypatch.setattr(fock, "_extrapolate", spy)
    reports = converge_scan(rows, e_tol=0.0, max_cutoff=8)
    assert [[c for c, _ in r.energy_history] for r in reports] == [[4, 8]] * 3
    assert offered == [0, 0, 0, 0, 1, 1]


def test_continuation_above_the_lower_stage_is_solved_again(monkeypatch):
    # a start that lands on an excited state of the cutoff-8 stage ends above
    # the cutoff-4 energy: the stage is re-solved from the padded cutoff-4
    # vector (the stage bases are not nested, so a ground energy can rise
    # with the cutoff too, and such a start is re-solved all the same)
    graph, forms, params = triangle_model()
    op = build_fock_matrix(Model.build(graph, forms, params), cutoff=8)
    values, vectors = eigsh(linear_operator(op), k=2, which="SA", tol=1e-13)
    assert values[1] - values[0] > 1e-3
    starts = iter([None, vectors[:, 1]])  # cutoff 4 starts cold, cutoff 8 on the excited state
    monkeypatch.setattr(fock, "_extrapolate", lambda trail: next(starts))
    report = converge_cutoff(graph, forms, params, e_tol=0.0, max_cutoff=8)
    for cutoff, energy in report.energy_history:
        assert energy == pytest.approx(cold_energy(graph, forms, params, cutoff), abs=1e-10)


def test_scan_starts_are_keyed_by_shape(monkeypatch):
    # kappa = 0 leaves one mode, any other kappa three; each shape carries its
    # own start, and a sparse start is lowered to the shape's top dense stage
    rows = kappa_rows([0.0, 0.0, 0.2, 0.3, 0.0])
    stages = []
    stage_pair = fock._stage_pair

    def spy(op, tol, guess, padded, bound):
        if op.dim > fock.DENSE_CUTOVER:
            stages.append((op.n_modes, op.cutoff, guess is not None, padded is not None))
        return stage_pair(op, tol, guess, padded, bound)

    def no_arpack(*args, **kwargs):
        raise AssertionError("no stage of this scan should reach ARPACK")

    monkeypatch.setattr(fock, "_stage_pair", spy)
    monkeypatch.setattr("scipy.sparse.linalg.eigsh", no_arpack)
    reports = converge_scan(rows, e_tol=1e-9, max_cutoff=32)
    assert all(r.converged and r.cutoff == 32 for r in reports)
    # row 1 starts at half of row 0's 32; it is decided by its first pair, so
    # the next one-mode row starts at half its own start.  The three-mode rows
    # would start at 16, a sparse stage, so they start at 4, the dense one.
    assert [r.energy_history[0][0] for r in reports] == [4, 16, 4, 4, 8]
    # only the first three-mode row meets its sparse stages without a trail,
    # and it starts each from its lower stage; every later stage extrapolates
    assert stages[:3] == [(3, 8, False, True), (3, 16, False, True), (3, 32, False, True)]
    assert len(stages) == 6 and all(guess for _, _, guess, _ in stages[3:])


def test_scan_start_falls_on_a_descending_grid():
    # xi-bar falling from 0.9: the first row needs cutoff 64; each later row
    # decided by its first pair hands the next row half its start, so the
    # rows after a hard one do not all pay for its top stages
    params = PhysicalParams(omega=1.0, Omega=0.0, d=1.0, x0=0.3)
    rows = [two_state(params, 0.35, -0.25 * xb, nu=0.3) for xb in (0.9, 0.6, 0.3, 0.0, -0.3)]
    solver = dict(e_tol=1e-9, max_cutoff=128)
    reports = converge_scan(rows, **solver)
    assert [r.energy_history[0][0] for r in reports] == [4, 32, 16, 8, 4]
    assert [r.cutoff for r in reports] == [64, 64, 32, 16, 16]
    for row, report in zip(rows, reports):
        alone = converge_scan([row], **solver)[0]
        assert report.converged and alone.converged and report.cutoff >= alone.cutoff


def test_scan_over_the_budget_keeps_every_row(monkeypatch):
    # the criterion-11 triangle: row 0 converges at 16, and row 1's build at
    # cutoff 8 and a nonzero drive is made to exceed the budget.  Row 1's
    # carried start of 8 is a sparse stage, so it starts at 4 and ends there
    # unconverged, as it does when no start is carried.
    nu = 0.5
    params = PhysicalParams(omega=1.0, Omega=0.0, d=1.0, x0=nu)
    pot = ExplicitCouplings(kappa=0.5 * (-1.0 / (2.0 * SQRT2 * nu)), xi=0.0, nu=nu, v_d=1.0)
    graph = build_resonant_manifold(triangle(), -1.0, pot, (0, 0, 1))
    _, forms = build_molecular_model(graph, derive_couplings(pot, params), params)
    rows = [Model.build(graph, forms, params).with_drive(d) for d in (0.0, 0.1)]
    solver = dict(e_tol=1e-6)
    builds = []
    build = fock.build_fock_matrix

    def spy(model, cutoff=8):
        builds.append((model.params.Omega, cutoff))
        if (model.params.Omega, cutoff) == (0.1, 8):
            raise ResourceBudgetError("over the budget", estimated_bytes=fock.MAX_BYTES + 1)
        return build(model, cutoff)

    monkeypatch.setattr(fock, "build_fock_matrix", spy)
    first, second = converge_scan(rows, max_cutoff=16, **solver)
    assert builds == [(0.0, 4), (0.0, 8), (0.0, 16), (0.1, 4), (0.1, 8)]
    assert first.converged and first.cutoff == 16
    assert not second.converged and second.cutoff == 4
    # a scan stopped at 4 carries nothing, so its row 1 starts at 4 on the same trail
    at_four = converge_scan(rows, max_cutoff=4, **solver)[1]
    assert second.energy_history == at_four.energy_history
    alone = converge_scan([rows[0]], max_cutoff=16, **solver)[0]
    assert first.energy_history == alone.energy_history


def test_excited_starts_at_carried_stages_do_not_end_the_row(monkeypatch):
    # row 0 stops at 32, so row 1 would start at 16.  Every sparse stage of
    # row 1 starts on its first excited state, whose level has converged to
    # 1e-9 by cutoff 16: a row starting at 16 would end on it.  The row
    # starts at the dense cutoff 4 instead, so each excited start lies above
    # its lower stage's energy and is solved again from that stage's vector.
    rows = kappa_rows([0.2, 0.3])
    solver = dict(e_tol=1e-9, max_cutoff=32)
    alone = converge_scan([rows[1]], **solver)[0]
    assert alone.converged and alone.energy == pytest.approx(-0.25588444143224, abs=1e-12)
    excited = {}
    for cutoff in (8, 16, 32):
        op = build_fock_matrix(rows[1], cutoff)
        values, vectors = eigsh(linear_operator(op), k=2, which="SA", tol=1e-13)
        assert values[1] - values[0] > 0.8
        excited[op.dim] = values[1], vectors[:, 1]
    assert abs(excited[4096][0] - excited[32768][0]) < 1e-9
    extrapolate = fock._extrapolate
    offered = []

    def excited_start(trail):
        # row 1's stages are the first whose trails hold one vector
        if len(trail) == 1 and trail[0].size in excited:
            offered.append(trail[0].size)
            return excited[trail[0].size][1]
        return extrapolate(trail)

    monkeypatch.setattr(fock, "_extrapolate", excited_start)
    first, second = converge_scan(rows, **solver)
    assert first.cutoff == 32
    assert offered == [512, 4096, 32768]
    assert [c for c, _ in second.energy_history] == [4, 8, 16, 32]
    assert second.converged
    assert second.energy == pytest.approx(alone.energy, abs=1e-12)


@st.composite
def stable_scans(draw):
    """A dumbbell xi scan or a tetrahedron-pair kappa scan on stable couplings,
    as ``(rows, solver)``; the grids are unsorted and may repeat a point."""
    if draw(st.booleans()):
        params = PhysicalParams(omega=1.0, Omega=0.0, d=1.0, x0=draw(st.floats(0.1, 0.5)))
        kappa = draw(st.floats(-0.4, 0.4))
        xibars = draw(st.lists(st.floats(-1.0, 0.9), min_size=2, max_size=8))
        rows = [two_state(params, kappa, -0.25 * xb, nu=params.x0) for xb in xibars]
        return rows, dict(e_tol=1e-9, max_cutoff=128)
    kappabars = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    kappabars = draw(st.lists(kappabars, min_size=2, max_size=4))
    xibar = draw(st.floats(-1.0, -0.3))
    rows = kappa_rows(kappabars, nu=draw(st.floats(0.2, 0.3)), xi=-0.25 * xibar)
    return rows, dict(e_tol=1e-9, max_cutoff=32)


def near_e_tol(report, e_tol, eig_tol=1e-11):
    """Whether two consecutive stages of ``report`` lie within eigensolver
    noise of ``e_tol``: each energy is within ``eig_tol * max(1, |E|)`` of an
    eigenvalue, so a pair's gap can move by four times that between solves
    from different starts.  ``eig_tol`` is ``fock.stage_tol(e_tol)`` for the
    ``e_tol`` of 1e-8 and below that the callers use."""
    pairs = zip(report.energy_history, report.energy_history[1:])
    return any(abs(abs(b - a) - e_tol) <= 4 * eig_tol * max(1.0, abs(b)) for (_, a), (_, b) in pairs)


@settings(max_examples=12, deadline=None)
@given(scan=stable_scans())
def test_scan_rows_agree_with_independent_solves(scan):
    # a row may start above 4, so it can stop at a higher cutoff than a solve
    # of its own, never at a lower one, and never with another verdict.  A
    # sparse stage is solved from different starts in the two, so a pair
    # within solver noise of e_tol may be decided either way.
    rows, solver = scan
    for row, report in zip(rows, converge_scan(rows, **solver)):
        alone = converge_scan([row], **solver)[0]
        if report.converged != alone.converged or report.cutoff < alone.cutoff:
            assert near_e_tol(report, solver["e_tol"]) or near_e_tol(alone, solver["e_tol"])
        elif report.converged:
            assert abs(report.energy - alone.energy) < solver["e_tol"]


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1), size=st.floats(1e-9, 0.5))
@example(n=4, seed=2892494, size=0.375)  # stalled at 2.1e-8 when shifts below rho were floored
def test_lobpcg_kernel_matches_dense_eigh(n, seed, size):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    a = a + a.T
    values, vectors = np.linalg.eigh(a)
    start = vectors[:, 0] + size * rng.normal(size=n) / math.sqrt(n)
    start /= np.linalg.norm(start)
    rho = float(start @ a @ start)
    assume(rho < values[1])  # below the first excited level, so the ground state is reached
    energy, vec = fock._jacobi_lobpcg(applying(sp.csr_matrix(a)), np.diagonal(a), start, 1e-11)
    limit = fock._residual_limit(1e-11, rho)
    assert np.linalg.norm(a @ vec - energy * vec) <= limit
    assert abs(energy - values[0]) <= limit


@pytest.mark.parametrize("a", [[[1.0, 1.0], [1.0, -1.0]], [[-1.0, 1.0], [1.0, 1.0]],
                               [[2.0, 1.0], [1.0, -1.0]], [[3.0, 1.0], [1.0, -1.0]]])
def test_lobpcg_goes_on_without_p_once_it_falls_into_the_span(monkeypatch, a):
    # in two dimensions x, w and p cannot be independent: with a limit at
    # rounding level the first step's answer still misses it, the next Gram
    # matrix has no Cholesky factor, and that step drops p
    failed = []
    cholesky = np.linalg.cholesky

    def spy(gram):
        try:
            return cholesky(gram)
        except np.linalg.LinAlgError:
            failed.append(gram.shape)
            raise

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    a = np.array(a)
    matrix = sp.csr_matrix(a)
    energy, vec = fock._jacobi_lobpcg(applying(matrix), np.diagonal(a), np.array([0.0, 1.0]), 1e-16)
    monkeypatch.undo()
    assert failed and set(failed) == {(3, 3)}
    assert fock._checked_pair(matrix, energy, vec, 1e-16, "LOBPCG")[0] == energy
    assert energy == pytest.approx(np.linalg.eigvalsh(a)[0], abs=1e-15)


def test_lobpcg_drops_p_from_a_numerically_singular_gram_matrix():
    # the unit-row Gram factor's last pivot falls to 1.5e-8 here, and with p
    # kept the step coefficients blew up to rho = -1.2e128
    a = np.array([[1.0, 0.3], [0.3, 2.0]])
    start = np.array([1.0, 2.0]) / math.sqrt(5.0)
    energy, _ = fock._jacobi_lobpcg(applying(sp.csr_matrix(a)), np.diagonal(a), start, 1e-15)
    assert abs(energy - np.linalg.eigvalsh(a)[0]) <= 1e-12


def count_preparations(monkeypatch):
    """Calls of fock._frame_displacements from now on, with no model kept."""
    calls = []
    prepare = fock._frame_displacements

    def spy(model):
        calls.append(model.params.Omega)
        return prepare(model)

    fock._memo.clear()
    monkeypatch.setattr(fock, "_frame_displacements", spy)
    return calls


def test_scan_prepares_each_model_once(monkeypatch):
    # every stage of a row builds the operator, but the model is prepared
    # once: per row over distinct models, once over a drive scan of one model
    params = PhysicalParams(omega=1.0, Omega=0.0, d=1.0, x0=0.3)
    rows = [two_state(params, 0.35, xi) for xi in (-0.2, -0.1, 0.0, 0.05)]
    calls = count_preparations(monkeypatch)
    reports = converge_scan(rows, e_tol=1e-9, max_cutoff=128)
    assert sum(len(r.energy_history) for r in reports) > len(rows)
    assert len(calls) == len(rows)

    # a zero drive centres the nodes on their minima and gets its own build,
    # and the next nonzero drive builds afresh: a drive scan of siblings
    # prepares each zero-drive row and the first driven row after it
    base = two_state(params, 0.3, -0.1)
    drives = [0.0, 0.1, 0.2, 0.0, 0.3]
    rows = [base.with_drive(d) for d in drives]
    calls = count_preparations(monkeypatch)
    reports = converge_scan(rows, e_tol=1e-9, max_cutoff=128)
    assert all(len(r.energy_history) > 1 for r in reports)
    assert calls == [0.0, 0.1, 0.0, 0.3]

    # with no link every drive is in the shifted frame, so the blocks a zero
    # drive builds serve the whole scan: one preparation, one assembly per cutoff
    linkless = Model.build(np.zeros((2, 2)), base.forms, base.params)
    rows = [linkless.with_drive(d) for d in drives]
    calls = count_preparations(monkeypatch)
    assemblies = []
    assemble = fock._assemble

    def spy(terms, steps, idx, omega, cutoff):
        assemblies.append(cutoff)
        return assemble(terms, steps, idx, omega, cutoff)

    monkeypatch.setattr(fock, "_assemble", spy)
    reports = converge_scan(rows, e_tol=1e-9, max_cutoff=128)
    assert all(len(r.energy_history) > 1 for r in reports)
    assert calls == [0.0]
    assert sorted(assemblies) == sorted({c for r in reports for c, _ in r.energy_history})


def test_extrapolation_is_exact_on_quadratic_trails():
    # integer vectors keep the arithmetic exact; the large constant part keeps
    # every pair of vectors at a positive overlap, so only the flips below flip
    rng = np.random.default_rng(7)
    b, c = rng.integers(-3, 4, size=(2, 6)).astype(float)
    v0, v1, v2, v3 = (100.0 + b * k + c * k**2 for k in range(4))
    assert np.array_equal(fock._extrapolate([v2, v1, v0]), v3)
    assert np.array_equal(fock._extrapolate([v2, -v1, -v0]), v3)
    assert np.array_equal(fock._extrapolate([-v2, v1, -v0]), -v3)
    u0, u1, u2 = (100.0 + b * k for k in range(3))  # a linear trail
    assert np.array_equal(fock._extrapolate([u1, -u0]), u2)
    assert fock._extrapolate([v0]) is v0
    assert fock._extrapolate([]) is None


def test_built_operators_are_read_only():
    # nonzero-drive siblings share the node blocks that the first one's build
    # keeps, so no row can alter the operator another row solves
    graph, forms, params = triangle_model(0.1)
    model = Model.build(graph, forms, params)
    ops = [build_fock_matrix(row, 4) for row in (model, model.with_drive(0.2))]
    assert ops[1].matrix is ops[0].matrix
    assert ops[1].links != ops[0].links
    for op in ops:
        for array in (op.matrix.data, op.matrix.indices, op.matrix.indptr, op.diagonal):
            with pytest.raises(ValueError):
                array[0] = 1


def test_import_leaves_scipy_sparse_unloaded():
    # the first Fock build imports scipy.sparse, so importing the package does not
    import vibronic

    src = str(Path(vibronic.__file__).resolve().parents[1])
    code = "import sys, vibronic.cli; print('scipy.sparse' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": src, "PATH": ""},
    )
    assert out.stdout.split() == ["False"]


def test_lobpcg_breakdown_hands_over_quietly():
    # demo 02's driven dumbbell: the stable row at 0.85 xi_c converges, and
    # past the instability, at 1.15 xi_c, the stages keep falling; neither
    # raises a floating-point warning on the way
    params = PhysicalParams(omega=1.0, Omega=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stable = converge_scan([two_state(params, 0.3, 0.85 * (-0.25))], max_cutoff=256)[0]
        unstable = converge_scan([two_state(params, 0.3, 1.15 * (-0.25))], max_cutoff=256)[0]
    assert stable.converged and stable.cutoff == 128
    assert stable.energy == pytest.approx(-1.5777352836696001, abs=1e-8)
    assert not unstable.converged and unstable.cutoff == 256
    assert unstable.energy == pytest.approx(-47.7, abs=0.05)


def test_ground_state_leaves_the_warm_start_alone(monkeypatch):
    # LOBPCG normalizes the start into its own iterate and only ARPACK gets
    # a normalized copy: on either path the caller's vector is untouched and
    # each solver starts from padded / ||padded||, bitwise
    graph, forms, params = triangle_model()
    model = Model.build(graph, forms, params)
    small, op = build_fock_matrix(model, 4), build_fock_matrix(model, 8)
    # a start of any scale; at 5 times the padded vector, dividing by its
    # norm and multiplying by the reciprocal give different bits
    padded = 5.0 * _zero_pad(small, ground_state(small)[1], 8)
    unit = padded / np.linalg.norm(padded)
    assert unit.tobytes() != (padded * (1.0 / np.linalg.norm(padded))).tobytes()
    kept = padded.copy()
    applied, starts = [], []
    apply, eigsh = fock.FockOperator.apply, sp.linalg.eigsh

    def spy_apply(self, x, out=None):
        applied.append(x.copy())
        return apply(self, x, out)

    def spy_eigsh(matrix, **kwargs):
        starts.append(kwargs["v0"].copy())
        return eigsh(matrix, **kwargs)

    monkeypatch.setattr(fock.FockOperator, "apply", spy_apply)
    monkeypatch.setattr("scipy.sparse.linalg.eigsh", spy_eigsh)
    for maxiter, solver in ((fock.LOBPCG_MAXITER, "LOBPCG"), (0, "ARPACK")):
        monkeypatch.setattr(fock, "LOBPCG_MAXITER", maxiter)  # 0: LOBPCG misses
        applied.clear()
        starts.clear()
        energy, vec = ground_state(op, v0=padded)
        assert padded.tobytes() == kept.tobytes()
        # LOBPCG runs first on either path, and its first product is H x0
        assert applied[0].tobytes() == unit.tobytes()
        if solver == "ARPACK":
            assert len(starts) == 1 and starts[0].tobytes() == unit.tobytes()
        else:
            assert not starts
        # the pair does not depend on the start's scale: doubling is exact
        ref_energy, ref_vec = ground_state(op, v0=2.0 * padded)
        assert energy == ref_energy and vec.tobytes() == ref_vec.tobytes()


@pytest.mark.parametrize("entry", ["converge_scan", "build_fock_matrix"])
def test_tuple_rows_name_model_build(entry):
    # the (graph, forms, params) spelling of a row was removed; a row in it
    # is refused with the way to build a Model
    graph, forms, params = triangle_model()
    row = (graph.adjacency, forms, params)
    message = r"expected a Model, got tuple: build one with Model\.build\(graph, forms, params\)"
    with pytest.raises(DomainError, match=message):
        if entry == "converge_scan":
            converge_scan([Model.build(*row), row], max_cutoff=4)
        else:
            build_fock_matrix(row, 4)


def test_ground_state_rejects_unchecked_pair(monkeypatch):
    graph, forms, params = triangle_model()
    op = build_fock_matrix(Model.build(graph, forms, params), cutoff=4)

    def wrong_vector(matrix, **kwargs):
        return np.array([-0.5]), np.ones((matrix.shape[0], 1)) / math.sqrt(matrix.shape[0])

    monkeypatch.setattr("scipy.sparse.linalg.eigsh", wrong_vector)
    with pytest.raises(EigensolverError) as err:
        ground_state(op)
    assert err.value.best_estimate == -0.5


def test_budget_overrun_keeps_finished_stages(monkeypatch):
    graph, forms, params = triangle_model()
    monkeypatch.setattr(fock, "MAX_BYTES", 5 * 10**6)  # the cutoff-8 build needs 7.8 MB
    report = converge_cutoff(graph, forms, params, max_cutoff=16)
    assert not report.converged
    assert report.energy_history == ((4, cold_energy(graph, forms, params, 4)),)
    monkeypatch.setattr(fock, "MAX_BYTES", 10**5)
    with pytest.raises(ResourceBudgetError):
        converge_cutoff(graph, forms, params, max_cutoff=16)


def reference_fock_matrix(graph, forms, params, cutoff=8):
    """The operator assembled term by term from Kronecker products and ``bmat``.

    Each node block is a sparse sum of single-mode operators embedded with
    ``kron``; the links are identities, as no node of a driven model with
    links is shifted; the blocks are joined by ``scipy.sparse.bmat``.
    ``build_fock_matrix`` must store exactly the entries of this matrix.
    """
    model = Model.build(graph, forms, params)
    adjacency, forms = model.adjacency, model.forms
    n_nodes, n_modes = len(forms), model.dim
    beta = fock._frame_displacements(model)
    per_node = cutoff**n_modes

    def embed(op_local, mode):
        left = sp.identity(cutoff**mode, format="csr")
        right = sp.identity(cutoff ** (n_modes - mode - 1), format="csr")
        return sp.kron(sp.kron(left, op_local, format="csr"), right, format="csr")

    sq = np.sqrt(np.arange(1.0, cutoff))
    x_full = [embed(sp.diags([sq, sq], [-1, 1], format="csr"), m) for m in range(n_modes)]
    n_full = [embed(sp.diags(np.arange(float(cutoff)), 0, format="csr"), m) for m in range(n_modes)]
    trap_op = sum(n_full[1:], n_full[0]) if n_modes > 1 else n_full[0]

    blocks = [[None] * n_nodes for _ in range(n_nodes)]
    x0, omega = params.x0, params.omega
    for s, form in enumerate(forms):
        l = form.linear * (x0 / SQRT2)
        q = (form.hessian - omega / (2.0 * x0**2) * np.eye(n_modes)) * (x0**2 / 2.0)
        b = beta[s]
        const_s = form.constant + omega * float(b @ b) + 2.0 * float(l @ b) + 4.0 * float(b @ q @ b)
        # a shift is onto the node's stationary point, where l + omega b + 4 Q b is exactly 0
        l_s = np.zeros(n_modes) if b.any() else l
        h = (omega * trap_op) + const_s * sp.identity(per_node, format="csr")
        for m in range(n_modes):
            if l_s[m] != 0.0:
                h = h + l_s[m] * x_full[m]
        for m in range(n_modes):
            for n in range(m, n_modes):
                c = q[m, n] if m == n else 2.0 * q[m, n]
                if c != 0.0:
                    h = h + c * (x_full[m] @ x_full[n])
        blocks[s][s] = h

    for s in range(n_nodes):
        for t in range(s + 1, n_nodes):
            if adjacency[s, t] == 0 or params.Omega == 0.0:
                continue
            assert not beta.any()
            blocks[s][t] = (params.Omega * adjacency[s, t]) * sp.identity(per_node, format="csr")
            blocks[t][s] = blocks[s][t].T

    matrix = sp.bmat(blocks, format="csr")
    if n_nodes == 1:
        # bmat hands a lone block back in the row order its sparse sums left,
        # which is not sorted; the stored entries are the same
        matrix.sort_indices()
    return matrix


def assert_same_operator(graph, forms, params, cutoff):
    """The build stores the reference's node-block strict upper triangle and
    diagonal bitwise, and its link blocks exactly."""
    op = build_fock_matrix(Model.build(graph, forms, params), cutoff)
    ref = reference_fock_matrix(graph, forms, params, cutoff)
    n = op.dim // op.n_nodes
    upper = sp.triu(ref, 1, format="coo")
    inside = upper.row // n == upper.col // n  # the node blocks
    upper = sp.csr_matrix(
        (upper.data[inside], (upper.row[inside], upper.col[inside])), shape=ref.shape
    )
    upper.sort_indices()
    links = []
    for s in range(op.n_nodes):
        for t in range(s + 1, op.n_nodes):
            block = ref[s * n : (s + 1) * n, t * n : (t + 1) * n]
            if block.nnz:  # a link block: one value times the identity
                assert np.array_equal(block.indptr, np.arange(n + 1))
                assert np.array_equal(block.indices, np.arange(n))
                assert block.data.tobytes() == np.full(n, block.data[0]).tobytes()
                links.append((s, t, block.data[0]))
    assert link_array(op).tobytes() == np.array(links, dtype=float).reshape(-1, 3).tobytes()
    for name in ("indptr", "indices"):
        ours, theirs = getattr(op.matrix, name), getattr(upper, name)
        assert ours.dtype == theirs.dtype == np.int32
        assert np.array_equal(ours, theirs), name
    assert op.matrix.data.tobytes() == upper.data.tobytes()
    assert op.diagonal.tobytes() == ref.diagonal().tobytes()
    return op


def pair_manifold(drive):
    # six nodes, one per excited pair, each centred on its own shifted minimum
    pot = ExplicitCouplings(kappa=-0.2, xi=-0.05, nu=0.3, v_d=1.0)
    params = PhysicalParams(omega=1.0, Omega=drive, x0=0.3)
    graph = build_resonant_manifold(tetrahedron(), -3.0, pot, (1, 1, 0, 0))
    _, forms = build_molecular_model(graph, derive_couplings(pot, params), params)
    return graph, forms, params


@pytest.mark.parametrize("cutoff", [2, 4, 8])
def test_stencil_matches_reference_triangle(cutoff):
    graph, forms, params = triangle_model()
    assert_same_operator(graph, forms, params, cutoff)


def test_stencil_matches_reference_tetrahedron_pairs():
    # the pairs share no link, so at any drive each node sits on its minimum
    graph, forms, params = pair_manifold(drive=0.2)
    assert len(forms) == 6 and not graph.adjacency.any()
    op = assert_same_operator(graph, forms, params, cutoff=2)
    shifts = {tuple(row) for row in op.displacements}
    assert len(shifts) == 6


@pytest.mark.parametrize("drive, frame", [(0.0, "bare"), (0.0, "displaced"), (0.3, "bare")])
def test_stencil_matches_reference_dumbbell(monkeypatch, drive, frame):
    # at zero drive the nodes sit on their minima unless their shifts are
    # refused, as a numerically singular form's are; a drive with links
    # keeps the trap frame
    if frame == "bare" and drive == 0.0:
        refuse_shifts(monkeypatch)
    params = PhysicalParams(omega=1.0, Omega=drive, d=1.0, x0=0.1)
    pot = ExplicitCouplings(kappa=0.4, xi=0.05, nu=0.1, v_d=1.0)
    model = dumbbell_hamiltonian(params, derive_couplings(pot, params))
    for cutoff in (2, 3, 16):
        op = assert_same_operator(model.adjacency, model.forms, params, cutoff)
        assert op.displacements.any() == (frame == "displaced")


def test_stencil_matches_reference_bare_adjacency():
    # weighted, with one missing edge, on the triangle's forms, driven and not
    _, forms, params = triangle_model(drive=0.3)
    adjacency = np.zeros((6, 6))
    for s, t, w in [(0, 1, 1.0), (0, 2, 0.5), (1, 3, SQRT2), (2, 4, -2.0), (3, 5, 0.0), (4, 5, 1.0)]:
        adjacency[s, t] = adjacency[t, s] = w
    for drive in (0.3, 0.0):
        assert_same_operator(adjacency, forms, dataclasses.replace(params, Omega=drive), 3)


def test_stencil_matches_reference_unreduced_forms():
    pot = ExplicitCouplings(kappa=0.4, xi=0.08, nu=0.1, v_d=1.0)
    params = PhysicalParams(omega=1.0, Omega=0.25, d=1.0, x0=0.1)
    graph = build_resonant_manifold(dumbbell(), -1.0, pot, (0, 1))
    forms = assemble_graph_hamiltonians(graph, derive_couplings(pot, params), params)
    assert forms[0].dim == 2
    for drive in (0.25, 0.0):
        assert_same_operator(graph, forms, dataclasses.replace(params, Omega=drive), 8)


@pytest.mark.parametrize("cutoff", [2, 3, 8])
def test_stencil_matches_reference_single_node(cutoff):
    nu = 0.5
    pair = PhysicalParams(omega=1.0, Omega=0.0, d=1.0, x0=nu)
    coup = ExplicitCouplings(kappa=-0.5 / (2.0 * SQRT2 * nu), xi=-0.1, nu=nu)
    form = assemble_state_hamiltonian((1, 1, 0, 0), tetrahedron(), coup, pair)
    _, reduced = reduce_modes([form], pair)
    op = assert_same_operator(SINGLE, reduced, pair, cutoff)
    assert op.matrix.has_sorted_indices and op.displacements.any()


def displaced_stencil_models():
    """``(adjacency, forms, params)`` of every model the stencil and memo
    tests compare with shifted nodes, each at zero drive or without links."""
    graph, triangle_forms, triangle_params = triangle_model(0.0)
    _, edited, _ = triangle_model(0.0)
    edited[1].hessian[0, 0] += 0.25  # as the memo test edits it
    pairs, pair_forms, pair_params = pair_manifold(0.2)  # no links
    params = PhysicalParams(omega=1.0, Omega=0.0, d=1.0, x0=0.1)
    pot = ExplicitCouplings(kappa=0.4, xi=0.05, nu=0.1, v_d=1.0)
    pair_model = dumbbell_hamiltonian(params, derive_couplings(pot, params))
    pot = ExplicitCouplings(kappa=0.4, xi=0.08, nu=0.1, v_d=1.0)
    unreduced_graph = build_resonant_manifold(dumbbell(), -1.0, pot, (0, 1))
    unreduced = assemble_graph_hamiltonians(unreduced_graph, derive_couplings(pot, params), params)
    nu = 0.5
    pair = PhysicalParams(omega=1.0, Omega=0.0, d=1.0, x0=nu)
    coup = ExplicitCouplings(kappa=-0.5 / (2.0 * SQRT2 * nu), xi=-0.1, nu=nu)
    form = assemble_state_hamiltonian((1, 1, 0, 0), tetrahedron(), coup, pair)
    _, single = reduce_modes([form], pair)
    return [
        (graph.adjacency, triangle_forms, triangle_params),
        (graph.adjacency, edited, triangle_params),
        (pairs.adjacency, pair_forms, pair_params),
        (pair_model.adjacency, pair_model.forms, params),
        (unreduced_graph.adjacency, unreduced, params),
        (SINGLE, single, pair),
    ]


def test_shifted_nodes_drop_only_rounding():
    # a node shifted onto its stationary point has the linear term
    # l + omega b + 4 Q b = 0 exactly; the build stores that zero, and on the
    # compared models the arithmetic it replaces leaves at most rounding
    for adjacency, forms, params in displaced_stencil_models():
        model = Model.build(adjacency, forms, params)
        beta = fock._frame_displacements(model)
        assert beta.any()  # every model shifts some node
        terms = fock._term_table(model, beta)
        x0 = params.x0
        for form, b, row in zip(forms, beta, terms):
            if not b.any():
                continue
            l = form.linear * (x0 / SQRT2)
            q = (form.hessian - params.omega / (2.0 * x0**2) * np.eye(form.dim)) * (x0**2 / 2.0)
            assert np.abs(l + params.omega * b + 4.0 * (q @ b)).max() <= 1e-12
            assert not row[1 : 1 + form.dim].any()


@pytest.mark.parametrize("frame", ["bare", "displaced"])
def test_memo_sees_arrays_edited_in_place(frame):
    # a model holds read-only copies of its input: a form's Hessian and an
    # adjacency entry edited in place after Model.build leave that model's
    # operator as it was, and a model built after the edit gives the edited
    # operator.  Without links ("displaced") the first build centres the
    # nodes on their minima, and the link that the edit adds moves them back
    graph, forms, params = triangle_model(drive=0.3)
    adjacency = np.array(graph.adjacency, dtype=float)
    if frame == "displaced":
        adjacency[...] = 0.0
    model = Model.build(adjacency, forms, params)
    first = build_fock_matrix(model, 3)
    assert first.displacements.any() == (frame == "displaced")
    forms[1].hessian[0, 0] += 0.25
    assert adjacency[0, 1] == 0.0
    adjacency[0, 1] = adjacency[1, 0] = 0.75
    op = assert_same_operator(adjacency, forms, params, 3)
    assert op.dim == first.dim and len(op.links) == len(first.links) + 1
    assert not op.displacements.any()
    again = build_fock_matrix(model, 3)
    assert same_bits(operator_parts(again), operator_parts(first))
    assert same_bits([again.diagonal, again.displacements], [first.diagonal, first.displacements])
    for array in (model.adjacency, model.forms[1].hessian):
        with pytest.raises(ValueError):
            array[0, 0] = 1.0


def test_shared_build_arrays_are_read_only():
    model = Model.build(*triangle_model(0.0))
    op = build_fock_matrix(model, 4)
    assert np.any(op.displacements)
    with pytest.raises(ValueError):
        op.displacements[0, 0] = 1.0
    steps = fock._prepared(model)[2]
    factors = [f for _, _, _, step_factors in fock._stencil(steps, 4) for f in step_factors]
    assert factors
    for factor in factors:
        with pytest.raises(ValueError):
            factor[...] = 0.0


def test_bad_frame_raises_after_a_valid_build():
    # converge_cutoff still takes the frame keyword a benchmark caller
    # passes; it selects nothing, but a value outside the two names is an error
    graph, forms, params = triangle_model()
    build_fock_matrix(Model.build(graph, forms, params), 4)
    for frame in ("bare", "displaced"):
        assert converge_cutoff(graph, forms, params, max_cutoff=4, frame=frame).cutoff == 4
    for frame in ("Displaced", None, ["bare"]):
        with pytest.raises(DomainError):
            converge_cutoff(graph, forms, params, max_cutoff=4, frame=frame)


def _coupling(scale):
    return st.one_of(st.just(0.0), st.floats(-scale, scale, allow_nan=False, allow_infinity=False))


@st.composite
def small_models(draw):
    n_nodes = draw(st.integers(1, 3))
    n_modes = draw(st.integers(1, 3))
    params = PhysicalParams(
        omega=draw(st.sampled_from([1.0, 0.7])),
        Omega=draw(_coupling(0.5)),
        x0=draw(st.sampled_from([0.3, 1.0])),
    )
    trap = params.omega / (2.0 * params.x0**2)
    forms = []
    for s in range(n_nodes):
        hessian = np.zeros((n_modes, n_modes))
        for m in range(n_modes):
            # an exact trap diagonal leaves Q_mm = 0
            hessian[m, m] = trap + draw(st.one_of(st.just(0.0), st.floats(-0.5, 2.0)))
            for n in range(m + 1, n_modes):
                hessian[m, n] = hessian[n, m] = draw(_coupling(0.5))
        linear = np.array([draw(_coupling(1.0)) for _ in range(n_modes)])
        forms.append(QuadraticVibronic((s,), draw(_coupling(1.0)), linear, hessian))
    adjacency = np.zeros((n_nodes, n_nodes))
    for s in range(n_nodes):
        for t in range(s + 1, n_nodes):
            adjacency[s, t] = adjacency[t, s] = draw(st.sampled_from([0.0, 1.0, SQRT2, -0.5]))
    cutoff = draw(st.integers(2, 6))
    return adjacency, forms, params, cutoff


@settings(max_examples=100, deadline=None)
@given(model=small_models())
# node 0 is trap-only with a nonzero constant: the constant takes the term
# table's column 0, which reaches the diagonal and no stencil step
@example(
    model=(
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        [
            QuadraticVibronic((0,), 0.7, np.zeros(2), 0.5 * np.eye(2)),
            QuadraticVibronic((1,), -0.2, np.array([0.3, 0.0]), np.array([[0.9, 0.1], [0.1, 0.5]])),
        ],
        PhysicalParams(omega=1.0, Omega=0.3, x0=1.0),
        4,
    )
)
def test_stencil_matches_reference_random_models(model):
    adjacency, forms, params, cutoff = model
    assert_same_operator(adjacency, forms, params, cutoff)


def assert_same_links(op, ref):
    assert link_array(op).tobytes() == link_array(ref).tobytes()


@pytest.mark.parametrize("cells", [4, 3 * 4**3 * 19])
def test_stencil_matches_reference_in_slabs(monkeypatch, cells):
    # a node's rows are written a few first-mode values at a time: at 4
    # cells one value per slab, whose rows alone exceed the bound; at
    # 3 * 4**3 * 19 cells the triangle's widest nodes (19 columns) get slabs
    # of 3 values and 1 at cutoff 4, and its trap-only nodes (no column) one
    # slab of all their rows
    graph, forms, params = triangle_model()
    model = Model.build(graph, forms, params)
    whole = {cutoff: build_fock_matrix(model, cutoff) for cutoff in (4, 8)}
    adjacency, single, pair = displaced_stencil_models()[-1]
    alone = {cutoff: build_fock_matrix(Model.build(adjacency, single, pair), cutoff) for cutoff in (3, 8)}
    monkeypatch.setattr(fock, "GATHER_CELLS", cells)
    for cutoff, ref in whole.items():
        assert_same_links(assert_same_operator(graph, forms, params, cutoff), ref)
    for cutoff, ref in alone.items():
        op = assert_same_operator(adjacency, single, pair, cutoff)
        assert same_bits(csr_parts(op.matrix), csr_parts(ref.matrix))


@settings(max_examples=100, deadline=None)
@given(model=small_models())
def test_stencil_matches_reference_random_models_in_slabs(model):
    adjacency, forms, params, cutoff = model
    ref = build_fock_matrix(Model.build(adjacency, forms, params), cutoff)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fock, "GATHER_CELLS", 4)
        assert_same_links(assert_same_operator(adjacency, forms, params, cutoff), ref)


@settings(max_examples=100, deadline=None)
@given(model=small_models(), seed=st.integers(0, 2**32 - 1), stride=st.sampled_from([1, 2]))
def test_apply_and_dense_form_match_the_full_matrix_bitwise(model, seed, stride):
    # the split product sums each row in the full CSR row's order; a scipy
    # whose kernels summed in another order would fail here.  With stride 2,
    # x and out are every other element of a longer array, so a term written
    # through a contiguous copy of out (``out.ravel()``) would be lost
    adjacency, forms, params, cutoff = model
    op = build_fock_matrix(Model.build(adjacency, forms, params), cutoff)
    ref = reference_fock_matrix(adjacency, forms, params, cutoff)
    x = np.random.default_rng(seed).normal(size=stride * op.dim)[::stride]
    assert (op @ x).tobytes() == (ref @ x).tobytes()
    out = np.full(stride * op.dim, np.nan)[::stride]
    assert op.apply(x, out) is out and out.tobytes() == (ref @ x).tobytes()
    assert op.toarray().tobytes() == ref.toarray().tobytes()
    # the kernels would read or write past the end of a short vector
    with pytest.raises(ValueError):
        op @ x[1:]
    with pytest.raises(ValueError):
        op.apply(x, out[1:])


def test_budget_guard_fires_before_allocation(monkeypatch):
    graph, forms, params = triangle_model()
    monkeypatch.setattr(fock, "MAX_BYTES", 10**6)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError):
            build_fock_matrix(Model.build(graph, forms, params), cutoff=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


@pytest.mark.parametrize("cutoff", [4, 8, 16])
def test_budget_counts_what_the_build_allocates(monkeypatch, cutoff):
    graph, forms, params = triangle_model()
    monkeypatch.setattr(fock, "MAX_BYTES", 0)
    with pytest.raises(ResourceBudgetError) as err:
        build_fock_matrix(Model.build(graph, forms, params), cutoff)
    footprint = err.value.estimated_bytes
    monkeypatch.setattr(fock, "MAX_BYTES", footprint - 1)
    with pytest.raises(ResourceBudgetError):
        build_fock_matrix(Model.build(graph, forms, params), cutoff)
    monkeypatch.setattr(fock, "MAX_BYTES", footprint)
    tracemalloc.start()
    try:
        build_fock_matrix(Model.build(graph, forms, params), cutoff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.8 * peak <= footprint <= 1.25 * peak


def test_budget_ends_doubling_at_largest_affordable_cutoff():
    # cutoff 32 (dim 6.3 M) is over the default budget; the stages up to 16 stay
    graph, forms, params = triangle_model()
    report = converge_cutoff(graph, forms, params, e_tol=0.0, max_cutoff=32)
    assert not report.converged
    assert report.cutoff == 16
    assert [c for c, _ in report.energy_history] == [4, 8, 16]

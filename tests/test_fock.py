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
from scipy.linalg import expm
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from vibronic import (
    DomainError,
    EigensolverError,
    ExplicitCouplings,
    PhysicalParams,
    QuadraticVibronic,
    ResourceBudgetError,
    build_fock_matrix,
    build_molecular_model,
    build_resonant_manifold,
    converge_cutoff,
    converge_drives,
    derive_couplings,
    dumbbell,
    dumbbell_hamiltonian,
    dump_matrix_coo,
    epsilon2,
    ground_state,
    mean_displacements,
    node_data,
    pair_epsilon,
    quadrature_moments,
    reduce_modes,
    assemble_state_hamiltonian,
    tetrahedron,
    triangle,
)
from vibronic import fock
from vibronic.fock import _zero_pad, displacement_matrix

SQRT2 = math.sqrt(2.0)
SINGLE = np.zeros((1, 1))


def two_state(params, kappa, xi, nu=0.1):
    return dumbbell_hamiltonian(params, ExplicitCouplings(kappa=kappa, xi=xi, nu=nu))


def excited_block(params, kappa, xi, nu=0.1):
    _, forms = two_state(params, kappa, xi, nu)
    return [forms[1]]


def triangle_model(drive=0.1):
    pot = ExplicitCouplings(kappa=-0.2, xi=0.0, nu=0.5, v_d=1.0)
    params = PhysicalParams(omega=1.0, Omega=drive, x0=0.5)
    graph = build_resonant_manifold(triangle(), -1.0, pot, (0, 0, 1))
    _, forms = build_molecular_model(graph, derive_couplings(pot, params), params)
    return graph, forms, params


def cold_energy(graph, forms, params, cutoff, frame="bare"):
    return ground_state(build_fock_matrix(graph, forms, params, cutoff, frame=frame))[0]


def test_displaced_oscillator_closed_form():
    params = PhysicalParams(omega=1.0, Omega=0.0)
    op = build_fock_matrix(*two_state(params, 0.5, 0.0), params, cutoff=64)
    energy, _ = ground_state(op)
    assert energy == pytest.approx(-0.5, abs=1e-10)


def test_free_trap_ground_energy_is_zero():
    params = PhysicalParams(omega=1.0, Omega=0.0)
    op = build_fock_matrix(*two_state(params, 0.0, 0.0), params, cutoff=8)
    energy, _ = ground_state(op)
    assert energy == pytest.approx(0.0, abs=1e-12)


def test_pure_electronic_coupling():
    for drive in (0.3, -0.3, 1.0):
        params = PhysicalParams(omega=1.0, Omega=drive)
        op = build_fock_matrix(*two_state(params, 0.0, 0.0), params, cutoff=8)
        energy, _ = ground_state(op)
        assert energy == pytest.approx(-SQRT2 * abs(drive), abs=1e-12)


def test_dimension_counting():
    params = PhysicalParams(omega=1.0, Omega=0.1)
    op = build_fock_matrix(*two_state(params, 0.2, 0.0), params, cutoff=16)
    assert op.dim == 2 * 16
    shape = (op.n_nodes,) + (op.cutoff,) * op.n_modes
    assert np.unravel_index(0, shape) == (0, 0)
    assert np.unravel_index(17, shape) == (1, 1)

    pot = ExplicitCouplings(kappa=-0.2, xi=0.0, nu=0.5, v_d=1.0)
    pp = PhysicalParams(omega=1.0, Omega=0.1, x0=0.5)
    graph = build_resonant_manifold(triangle(), -1.0, pot, (0, 0, 1))
    basis, forms = build_molecular_model(graph, derive_couplings(pot, pp), pp)
    op = build_fock_matrix(graph, forms, pp, cutoff=3)
    assert op.dim == 6 * 3**4


def test_hermiticity_residual():
    pot = ExplicitCouplings(kappa=-0.4, xi=0.06, nu=0.5, v_d=1.0)
    params = PhysicalParams(omega=1.0, Omega=0.25, x0=0.5)
    graph = build_resonant_manifold(triangle(), -1.0, pot, (0, 0, 1))
    basis, forms = build_molecular_model(graph, derive_couplings(pot, params), params)
    for frame in ("bare", "displaced"):
        op = build_fock_matrix(graph, forms, params, cutoff=4, frame=frame)
        residual = np.abs((op.matrix - op.matrix.T)).max()
        assert residual < 1e-12


def test_zero_drive_is_block_diagonal():
    params = PhysicalParams(omega=1.0, Omega=0.0)
    op = build_fock_matrix(*two_state(params, 0.5, 0.1), params, cutoff=8)
    dense = op.matrix.toarray()
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
        op = build_fock_matrix(
            *two_state(params, kappa, xi), params, cutoff=128, frame="displaced"
        )
        energy, _ = ground_state(op)
        expected = min(epsilon2(kappa, xi, 1.0), 0.0)
        assert energy == pytest.approx(expected, abs=1e-8)


def test_path_and_two_state_models_agree():
    pot = ExplicitCouplings(kappa=0.5, xi=0.1, nu=0.1, v_d=1.0)
    params = PhysicalParams(omega=1.0, Omega=0.3, d=1.0, x0=0.1)
    graph = build_resonant_manifold(dumbbell(), -1.0, pot, (0, 1))
    basis, forms = build_molecular_model(graph, derive_couplings(pot, params), params)
    e_path, _ = ground_state(build_fock_matrix(graph, forms, params, cutoff=32))
    e_two, _ = ground_state(
        build_fock_matrix(*dumbbell_hamiltonian(params, derive_couplings(pot, params)),
                          params, cutoff=32)
    )
    assert e_path == pytest.approx(e_two, abs=1e-10)


def test_variational_monotonicity_in_cutoff():
    params = PhysicalParams(omega=1.0, Omega=0.2)
    energies = []
    for cutoff in (4, 8, 16, 32):
        op = build_fock_matrix(*two_state(params, 0.6, -0.15), params, cutoff=cutoff)
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
        report = converge_cutoff(
            SINGLE, reduced, params, e_tol=1e-9, max_cutoff=32, frame="displaced"
        )
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


def test_frames_agree_at_finite_drive():
    # the displaced frame represents the same operator: energies must match the
    # bare frame once both are converged (exercises the overlap off-diagonals)
    pot = ExplicitCouplings(kappa=0.4, xi=0.05, nu=0.1, v_d=1.0)
    params = PhysicalParams(omega=1.0, Omega=0.3, d=1.0, x0=0.1)
    model = dumbbell_hamiltonian(params, derive_couplings(pot, params))
    e_bare = converge_cutoff(*model, params, e_tol=1e-10, max_cutoff=128, frame="bare")
    e_disp = converge_cutoff(*model, params, e_tol=1e-10, max_cutoff=128, frame="displaced")
    assert e_bare.converged and e_disp.converged
    assert e_bare.energy == pytest.approx(e_disp.energy, abs=1e-9)
    assert e_disp.cutoff <= e_bare.cutoff


@settings(max_examples=20, deadline=None)
@given(
    kappa=st.floats(min_value=-0.4, max_value=0.4),
    xibar=st.floats(min_value=-1.0, max_value=0.6),
    drive=st.floats(min_value=0.0, max_value=0.5),
)
def test_frames_agree_on_random_stable_couplings(kappa, xibar, drive):
    # one operator in two frames: both converge to one energy, the displaced
    # frame at no larger cutoff
    params = PhysicalParams(omega=1.0, Omega=drive, d=1.0, x0=0.1)
    model = two_state(params, kappa, xibar * -0.25, nu=0.1)
    bare = converge_cutoff(*model, params, e_tol=1e-10, max_cutoff=128, frame="bare")
    displaced = converge_cutoff(*model, params, e_tol=1e-10, max_cutoff=128, frame="displaced")
    assert bare.converged and displaced.converged
    assert bare.energy == pytest.approx(displaced.energy, abs=1e-9)
    assert displaced.cutoff <= bare.cutoff


def test_displacement_matrix_against_expm_oracle():
    # oracle: expm of alpha (b^dag - b) on a larger space, then truncated
    alpha, m_small, m_big = 0.8, 12, 60
    n = np.arange(m_big)
    bdag = np.zeros((m_big, m_big))
    bdag[np.arange(1, m_big), np.arange(m_big - 1)] = np.sqrt(n[1:])
    oracle = expm(alpha * (bdag - bdag.T))[:m_small, :m_small]
    ours = displacement_matrix(alpha, m_small)
    assert ours == pytest.approx(oracle, abs=1e-12)


def test_displacement_matrix_basics():
    assert displacement_matrix(0.0, 6) == pytest.approx(np.eye(6))
    d = displacement_matrix(0.35, 40)
    # far from the truncation edge the matrix is orthogonal
    assert (d.T @ d)[:20, :20] == pytest.approx(np.eye(20), abs=1e-12)


def test_quadrature_moments_vacuum():
    params = PhysicalParams(omega=1.0, Omega=0.0, x0=0.7)
    op = build_fock_matrix(
        SINGLE, excited_block(params, 0.0, 0.0), params, cutoff=16
    )
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
    for frame in ("bare", "displaced"):
        op = build_fock_matrix(
            SINGLE, excited_block(params, kappa, 0.0), params, cutoff=64, frame=frame
        )
        energy, state = ground_state(op)
        mean_x, var_x, var_p = quadrature_moments(op, state, 0)
        assert mean_x == pytest.approx(-2 * kappa / 1.0, rel=1e-8)
        # a displaced ground state keeps vacuum variances and minimum uncertainty
        assert var_x == pytest.approx(0.5, rel=1e-7)
        assert var_x * var_p == pytest.approx(0.25, rel=1e-7)


def test_quadrature_moments_squeezed_uncertainty_product():
    params = PhysicalParams(omega=1.0, Omega=0.0)
    op = build_fock_matrix(
        SINGLE, excited_block(params, 0.0, -0.2), params, cutoff=128
    )
    _, state = ground_state(op)
    mean_x, var_x, var_p = quadrature_moments(op, state, 0)
    assert var_x * var_p == pytest.approx(0.25, rel=1e-8)
    assert var_x > 0.5  # softened potential widens the position quadrature


def test_quadrature_moments_validation():
    params = PhysicalParams(omega=1.0, Omega=0.0)
    op = build_fock_matrix(SINGLE, excited_block(params, 0.0, 0.0), params, cutoff=8)
    good = np.zeros(op.dim)
    good[0] = 1.0
    with pytest.raises(DomainError):
        quadrature_moments(op, good, 5)
    with pytest.raises(DomainError):
        quadrature_moments(op, 0.5 * good, 0)


def test_mean_displacements_of_excited_pair():
    # both atoms move by x0 |beta| in opposite directions along the axis
    params = PhysicalParams(omega=1.0, Omega=0.0, x0=0.3, d=1.0)
    kappa = 0.4
    coup = ExplicitCouplings(kappa=kappa, xi=0.0, nu=0.3)
    form = assemble_state_hamiltonian((1, 1), dumbbell(), coup, params)
    basis, reduced = reduce_modes([form], params)
    op = build_fock_matrix(SINGLE, reduced, params, cutoff=64)
    _, state = ground_state(op)
    disp = mean_displacements(op, state, basis)
    expected = params.x0 * SQRT2 * kappa / 1.0  # x0 |beta*|, beta* = -sqrt(2) kappa/omega
    assert np.abs(disp).flatten() == pytest.approx([expected, expected], rel=1e-8)
    assert disp.sum() == pytest.approx(0.0, abs=1e-10)  # no center-of-mass motion


@functools.lru_cache(maxsize=None)
def triangle_operator(frame, cutoff):
    pot = ExplicitCouplings(kappa=-0.2, xi=0.0, nu=0.5, v_d=1.0)
    params = PhysicalParams(omega=1.0, Omega=0.1, x0=0.5)
    graph = build_resonant_manifold(triangle(), -1.0, pot, (0, 0, 1))
    basis, forms = build_molecular_model(graph, derive_couplings(pot, params), params)
    return basis, build_fock_matrix(graph, forms, params, cutoff, frame=frame)


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
        basis_r, forms_r = build_molecular_model(graph, coup, params, reduce=True)
        basis_f, forms_f = build_molecular_model(graph, coup, params, reduce=False)
        assert basis_r.dim == 1 and basis_f.dim == 2
        e_r, _ = ground_state(build_fock_matrix(graph, forms_r, params, cutoff=48))
        e_f, _ = ground_state(build_fock_matrix(graph, forms_f, params, cutoff=48))
        assert e_r == pytest.approx(e_f, abs=1e-9)


def test_resource_budget_guard():
    pot = ExplicitCouplings(kappa=-0.2, xi=0.0, nu=0.5, v_d=1.0)
    params = PhysicalParams(omega=1.0, Omega=0.1, x0=0.5)
    graph = build_resonant_manifold(triangle(), -1.0, pot, (0, 0, 1))
    basis, forms = build_molecular_model(graph, derive_couplings(pot, params), params)
    with pytest.raises(ResourceBudgetError) as err:
        build_fock_matrix(graph, forms, params, cutoff=64, max_bytes=10**6)
    assert err.value.estimated_bytes > 10**6


def test_cutoff_validation():
    params = PhysicalParams(omega=1.0, Omega=0.0)
    with pytest.raises(DomainError):
        build_fock_matrix(SINGLE, excited_block(params, 0.0, 0.0), params, cutoff=1)
    with pytest.raises(DomainError):
        converge_cutoff(SINGLE, excited_block(params, 0.0, 0.0), params, max_cutoff=2)


def test_matrix_dump_roundtrip():
    params = PhysicalParams(omega=1.0, Omega=0.2)
    op = build_fock_matrix(*two_state(params, 0.3, 0.0), params, cutoff=4)
    text = dump_matrix_coo(op)
    rows = [line.split() for line in text.strip().split("\n")]
    rebuilt = sp.coo_matrix(
        (
            [float(v) for _, _, v in rows],
            ([int(i) for i, _, _ in rows], [int(j) for _, j, _ in rows]),
        ),
        shape=op.matrix.shape,
    ).tocsr()
    assert np.abs(rebuilt - op.matrix).max() < 1e-15


def test_zero_pad_keeps_every_basis_state():
    graph, forms, params = triangle_model()
    small = build_fock_matrix(graph, forms, params, cutoff=2)
    big = build_fock_matrix(graph, forms, params, cutoff=4)
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
    report = converge_cutoff(SINGLE, reduced, pair, e_tol=0.0, max_cutoff=32, frame="displaced")
    assert [c for c, _ in report.energy_history] == [4, 8, 16, 32]
    assert 32 ** reduced[0].dim == 32768
    for cutoff, energy in report.energy_history:
        cold = cold_energy(SINGLE, reduced, pair, cutoff, frame="displaced")
        assert energy == pytest.approx(cold, abs=1e-10)


def test_warm_path_keeps_instability_unconverged():
    # beyond xi_c the energy keeps falling; the last stage (dim 512) is warm
    params = PhysicalParams(omega=1.0, Omega=0.2)
    model = two_state(params, 0.0, 1.2 * (-0.25))
    report = converge_cutoff(*model, params, e_tol=1e-8, max_cutoff=256)
    assert not report.converged
    assert report.cutoff == 256
    history = [e for _, e in report.energy_history]
    assert all(e2 < e1 for e1, e2 in zip(history, history[1:]))
    cold = ground_state(build_fock_matrix(*model, params, cutoff=256))[0]
    assert history[-1] == pytest.approx(cold, abs=1e-10)


def test_lobpcg_miss_falls_back_to_arpack(monkeypatch):
    graph, forms, params = triangle_model()
    stalled = []

    def no_progress(matrix, diagonal, v0, tol):
        stalled.append(matrix.shape[0])
        return float(v0 @ (matrix @ v0)), v0

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


def same_bits(a, b):
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in zip(a, b))


@pytest.mark.parametrize(
    "model, frame, max_cutoff",
    [
        ("dumbbell", "bare", 16),
        ("dumbbell", "displaced", 16),
        ("triangle", "bare", 4),
        ("triangle", "displaced", 4),
    ],
)
def test_drive_scan_operators_match_fresh_builds(monkeypatch, model, frame, max_cutoff):
    # a scan rewrites each cutoff's link entries in place; every stage must
    # see the build at its own drive bitwise, also after a zero drive, which
    # has no links and so its own build, and on a grid that starts there
    if model == "dumbbell":
        params = PhysicalParams(omega=1.0, Omega=0.0)
        graph, forms = two_state(params, 0.3, -0.1)
    else:
        graph, forms, params = triangle_model(0.0)
    drives = [0.0, 0.1, 0.25, 0.0, 0.4]
    cutoffs = [c for c in (4, 8, 16) if c <= max_cutoff]
    seen = []
    solve = fock.ground_state

    def spy(op, tol=1e-11, v0=None):
        seen.append((op.cutoff, csr_parts(op.matrix)))
        return solve(op, tol=tol, v0=v0)

    monkeypatch.setattr(fock, "ground_state", spy)
    reports = converge_drives(
        graph, forms, params, drives, e_tol=0.0, max_cutoff=max_cutoff, frame=frame
    )
    assert [[c for c, _ in r.energy_history] for r in reports] == [cutoffs] * len(drives)
    fresh = {
        (i, c): csr_parts(
            build_fock_matrix(graph, forms, dataclasses.replace(params, Omega=d), c, frame=frame).matrix
        )
        for i, d in enumerate(drives)
        for c in cutoffs
    }
    drive, matched = 0, set()
    for cutoff, parts in seen:  # stages run drive by drive; a re-solve repeats one
        while not same_bits(parts, fresh[drive, cutoff]):  # KeyError: no drive's build
            drive += 1
        matched.add((drive, cutoff))
    assert matched == set(fresh)


def test_drive_scan_warm_starts_match_independent_solves(monkeypatch):
    graph, forms, params = triangle_model()
    drives = np.linspace(0.06, 0.14, 5)
    starts = []
    solve = fock.ground_state

    def spy(op, tol=1e-11, v0=None):
        starts.append((op.cutoff, v0 is not None))
        return solve(op, tol=tol, v0=v0)

    monkeypatch.setattr(fock, "ground_state", spy)
    reports = converge_drives(graph, forms, params, drives, e_tol=0.0, max_cutoff=8)
    monkeypatch.undo()
    # only the first drive's first stage starts cold
    assert starts[0] == (4, False)
    assert all(warm for _, warm in starts[1:])
    for drive, report in zip(drives, reports):
        alone = converge_cutoff(
            graph, forms, dataclasses.replace(params, Omega=drive), e_tol=0.0, max_cutoff=8
        )
        assert [c for c, _ in report.energy_history] == [4, 8]
        for (_, energy), (_, energy_alone) in zip(report.energy_history, alone.energy_history):
            assert energy == pytest.approx(energy_alone, abs=1e-10)


def test_continuation_above_the_lower_stage_is_solved_again(monkeypatch):
    # a start that lands on an excited state of the cutoff-8 stage ends above
    # the cutoff-4 energy, which nested bases forbid: the stage is re-solved
    # from the padded cutoff-4 vector
    graph, forms, params = triangle_model()
    op = build_fock_matrix(graph, forms, params, cutoff=8)
    values, vectors = eigsh(op.matrix, k=2, which="SA", tol=1e-13)
    assert values[1] - values[0] > 1e-3
    starts = iter([None, vectors[:, 1]])  # cutoff 4 starts cold, cutoff 8 on the excited state
    monkeypatch.setattr(fock, "_extrapolate", lambda trail: next(starts))
    report = converge_cutoff(graph, forms, params, e_tol=0.0, max_cutoff=8)
    for cutoff, energy in report.energy_history:
        assert energy == pytest.approx(cold_energy(graph, forms, params, cutoff), abs=1e-10)


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
    energy, vec = fock._jacobi_lobpcg(sp.csr_matrix(a), np.diagonal(a), start, 1e-11)
    limit = fock._residual_limit(1e-11, rho)
    assert np.linalg.norm(a @ vec - energy * vec) <= limit
    assert abs(energy - values[0]) <= limit


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


@pytest.mark.parametrize("frame", ["bare", "displaced"])
def test_recorded_diagonal_survives_link_rewrites(frame):
    graph, forms, params = triangle_model(0.1)
    op = build_fock_matrix(graph, forms, params, cutoff=4, frame=frame)
    assert op.links
    for drive in (0.1, 0.25, 0.4):
        fock._write_links(op.matrix.data, op.links, drive)
        assert same_bits([op.diagonal], [op.matrix.diagonal()])
    zero = build_fock_matrix(graph, forms, dataclasses.replace(params, Omega=0.0), cutoff=4, frame=frame)
    assert same_bits([zero.diagonal], [zero.matrix.diagonal()])


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
    # past the instability the displaced frame's stages reach energies near
    # -1e7 with a diagonal below 256; LOBPCG runs out of directions there and
    # must leave the stage to ARPACK without a floating-point warning
    params = PhysicalParams(omega=1.0, Omega=0.5)
    model = two_state(params, 0.3, 0.85 * (-0.25))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = converge_cutoff(*model, params, max_cutoff=256, frame="displaced")
    assert not report.converged
    assert report.cutoff == 256


def test_ground_state_rejects_unchecked_pair(monkeypatch):
    graph, forms, params = triangle_model()
    op = build_fock_matrix(graph, forms, params, cutoff=4)

    def wrong_vector(matrix, **kwargs):
        return np.array([-0.5]), np.ones((matrix.shape[0], 1)) / math.sqrt(matrix.shape[0])

    monkeypatch.setattr("scipy.sparse.linalg.eigsh", wrong_vector)
    with pytest.raises(EigensolverError) as err:
        ground_state(op)
    assert err.value.best_estimate == -0.5


def test_budget_overrun_keeps_finished_stages():
    graph, forms, params = triangle_model()
    report = converge_cutoff(graph, forms, params, max_cutoff=16, max_bytes=10**7)
    assert not report.converged
    assert report.energy_history == ((4, cold_energy(graph, forms, params, 4)),)
    with pytest.raises(ResourceBudgetError):
        converge_cutoff(graph, forms, params, max_cutoff=16, max_bytes=10**5)


def reference_fock_matrix(graph, forms, params, cutoff=8, frame="bare"):
    """The operator assembled term by term from Kronecker products and ``bmat``.

    Each node block is a sparse sum of single-mode operators embedded with
    ``kron``; the links are Kronecker products of displacement matrices; the
    blocks are joined by ``scipy.sparse.bmat``.  ``build_fock_matrix`` must
    store exactly the entries of this matrix.
    """
    adjacency, forms = node_data(graph, forms)
    n_nodes, n_modes = len(forms), forms[0].dim
    beta = fock._frame_displacements(forms, params, frame)
    per_node = cutoff**n_modes
    eye_local = sp.identity(cutoff, format="csr")

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
        l_s = l + omega * b + 4.0 * (q @ b)
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
            factors = []
            for m in range(n_modes):
                delta = beta[t, m] - beta[s, m]
                if delta == 0.0:
                    factors.append(eye_local)
                else:
                    factors.append(sp.csr_matrix(displacement_matrix(delta, cutoff)))
            overlap = factors[0]
            for f in factors[1:]:
                overlap = sp.kron(overlap, f, format="csr")
            blocks[s][t] = (params.Omega * adjacency[s, t]) * overlap
            blocks[t][s] = blocks[s][t].T

    matrix = sp.bmat(blocks, format="csr")
    if n_nodes == 1:
        # bmat hands a lone block back in the row order its sparse sums left,
        # which is not sorted; the stored entries are the same
        matrix.sort_indices()
    return matrix


def assert_same_operator(graph, forms, params, cutoff, frame="bare"):
    op = build_fock_matrix(graph, forms, params, cutoff, frame=frame)
    ref = reference_fock_matrix(graph, forms, params, cutoff, frame)
    for name in ("indptr", "indices"):
        ours, theirs = getattr(op.matrix, name), getattr(ref, name)
        assert ours.dtype == theirs.dtype == np.int32
        assert np.array_equal(ours, theirs), name
    assert op.matrix.data.tobytes() == ref.data.tobytes()
    assert dump_matrix_coo(op) == dump_matrix_coo(dataclasses.replace(op, matrix=ref))
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
    graph, forms, params = pair_manifold(drive=0.2)
    assert len(forms) == 6
    op = assert_same_operator(graph, forms, params, cutoff=2, frame="displaced")
    shifts = {tuple(row) for row in op.displacements}
    assert len(shifts) == 6  # every link displaces some modes


@pytest.mark.parametrize("frame", ["bare", "displaced"])
@pytest.mark.parametrize("drive", [0.0, 0.3])
def test_stencil_matches_reference_dumbbell(frame, drive):
    params = PhysicalParams(omega=1.0, Omega=drive, d=1.0, x0=0.1)
    pot = ExplicitCouplings(kappa=0.4, xi=0.05, nu=0.1, v_d=1.0)
    model = dumbbell_hamiltonian(params, derive_couplings(pot, params))
    for cutoff in (2, 3, 16):
        assert_same_operator(*model, params, cutoff, frame)


def test_stencil_matches_reference_bare_adjacency():
    # weighted, with one missing edge, on the triangle's forms
    _, forms, params = triangle_model(drive=0.3)
    adjacency = np.zeros((6, 6))
    for s, t, w in [(0, 1, 1.0), (0, 2, 0.5), (1, 3, SQRT2), (2, 4, -2.0), (3, 5, 0.0), (4, 5, 1.0)]:
        adjacency[s, t] = adjacency[t, s] = w
    for frame in ("bare", "displaced"):
        assert_same_operator(adjacency, forms, params, 3, frame)


def test_stencil_matches_reference_unreduced_forms():
    pot = ExplicitCouplings(kappa=0.4, xi=0.08, nu=0.1, v_d=1.0)
    params = PhysicalParams(omega=1.0, Omega=0.25, d=1.0, x0=0.1)
    graph = build_resonant_manifold(dumbbell(), -1.0, pot, (0, 1))
    _, forms = build_molecular_model(graph, derive_couplings(pot, params), params, reduce=False)
    assert forms[0].dim == 2
    for frame in ("bare", "displaced"):
        assert_same_operator(graph, forms, params, 8, frame)


@pytest.mark.parametrize("cutoff", [2, 3, 8])
def test_stencil_matches_reference_single_node(cutoff):
    nu = 0.5
    pair = PhysicalParams(omega=1.0, Omega=0.0, d=1.0, x0=nu)
    coup = ExplicitCouplings(kappa=-0.5 / (2.0 * SQRT2 * nu), xi=-0.1, nu=nu)
    form = assemble_state_hamiltonian((1, 1, 0, 0), tetrahedron(), coup, pair)
    _, reduced = reduce_modes([form], pair)
    for frame in ("bare", "displaced"):
        op = assert_same_operator(SINGLE, reduced, pair, cutoff, frame)
        assert op.matrix.has_sorted_indices


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
    frame = draw(st.sampled_from(["bare", "displaced"]))
    return adjacency, forms, params, cutoff, frame


@settings(max_examples=100, deadline=None)
@given(model=small_models())
def test_stencil_matches_reference_random_models(model):
    adjacency, forms, params, cutoff, frame = model
    assert_same_operator(adjacency, forms, params, cutoff, frame)


def test_budget_guard_fires_before_allocation():
    graph, forms, params = triangle_model()
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError):
            build_fock_matrix(graph, forms, params, cutoff=64, max_bytes=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


@pytest.mark.parametrize("cutoff", [4, 8, 16])
def test_budget_counts_what_the_build_allocates(cutoff):
    graph, forms, params = triangle_model()
    with pytest.raises(ResourceBudgetError) as err:
        build_fock_matrix(graph, forms, params, cutoff, max_bytes=0)
    footprint = err.value.estimated_bytes
    with pytest.raises(ResourceBudgetError):
        build_fock_matrix(graph, forms, params, cutoff, max_bytes=footprint - 1)
    tracemalloc.start()
    try:
        build_fock_matrix(graph, forms, params, cutoff, max_bytes=footprint)
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

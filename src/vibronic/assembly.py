"""Per-configuration vibrational Hamiltonians and collective-mode reduction.

Each electronic configuration carries a quadratic Hamiltonian for the atomic
displacements: the second-order expansion of the interaction around the
equilibrium positions plus the isotropic trap.  Quadratic forms are stored in
displacement coordinates ``u`` (length units) with the convention

    E(u) = constant + linear . u + u^T hessian u

so the trap contributes ``omega/(2 x0^2)`` per diagonal entry of ``hessian``.
Quantization maps each coordinate through ``u = x0 (b + b^dag)/sqrt(2)`` with
the trap kept exactly as ``omega b^dag b`` (normal-ordered, no zero-point
constant).  ``reduce_modes`` compresses the full coordinate space to the span
actually coupled by the electronic states; discarded directions are free
oscillators that contribute nothing to normal-ordered ground energies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .graphs import Geometry, ResonantGraph
from .params import PhysicalParams, pair_potential

SQRT2 = math.sqrt(2.0)

# Generators with residual shorter than this after orthogonalization are
# considered inside the span already.
GS_DROP_TOL = 1e-10
# Non-trap hessian eigenvalues below this (relative) are treated as zero.
EIG_KEEP_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ExpansionCoefficients:
    """Gradient and split Hessian of the pair interaction at equilibrium.

    ``hess_radial`` acts along the pair axis (curvature of the potential),
    ``hess_transverse`` acts in the perpendicular plane (slope over distance).
    """

    gradient: np.ndarray
    hess_radial: np.ndarray
    hess_transverse: np.ndarray


@dataclass(frozen=True, eq=False)
class QuadraticVibronic:
    """Quadratic displacement Hamiltonian attached to one electronic state.

    ``linear`` and ``hessian`` follow the module convention
    ``E(u) = constant + linear . u + u^T hessian u``; the hessian includes the
    trap term ``omega/(2 x0^2)`` on the diagonal.
    """

    state: tuple
    constant: float
    linear: np.ndarray
    hessian: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.linear, dtype=float)
        h = np.asarray(self.hessian, dtype=float)
        if h.shape != (g.size, g.size):
            raise DomainError(f"hessian shape {h.shape} does not match linear size {g.size}")
        object.__setattr__(self, "linear", g)
        object.__setattr__(self, "hessian", h)
        object.__setattr__(self, "state", tuple(self.state))

    @property
    def dim(self) -> int:
        return self.linear.size

    def energy_at(self, q) -> float:
        """Classical energy at displacement q (kinetic energy omitted)."""
        q = np.asarray(q, dtype=float)
        return float(self.constant + self.linear @ q + q @ self.hessian @ q)

    def stationary_point(self) -> np.ndarray:
        """Displacement where the gradient vanishes (least-squares if singular)."""
        a = 2.0 * self.hessian
        try:
            return np.linalg.solve(a, -self.linear)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(a, -self.linear, rcond=None)[0]


@dataclass(frozen=True, eq=False)
class ModeBasis:
    """Orthonormal collective displacement directions spanning all couplings."""

    vectors: np.ndarray  # (n_coords, dim), columns are modes
    n_atoms: int
    n_axes: int

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def to_reduced(self, full_vector) -> np.ndarray:
        return self.vectors.T @ np.asarray(full_vector, dtype=float)

    def to_full(self, reduced_vector) -> np.ndarray:
        return self.vectors @ np.asarray(reduced_vector, dtype=float)


def expansion_coeffs(pair, geometry: Geometry, model) -> ExpansionCoefficients:
    """Second-order expansion coefficients of the pair interaction.

    The gradient points along the pair axis with magnitude V'(r0); the radial
    Hessian is V''(r0) on the axis and the transverse Hessian is V'(r0)/r0 on
    the perpendicular plane.
    """
    k, l = pair
    if k == l:
        raise DomainError(f"pair must consist of two distinct atoms, got ({k},{l})")
    r0 = geometry.distance(k, l)
    _, v1, v2 = pair_potential(model, r0, geometry.d)
    rvec = geometry.positions[k] - geometry.positions[l]
    rhat = rvec / np.linalg.norm(rvec)
    proj = np.outer(rhat, rhat)
    return ExpansionCoefficients(
        gradient=v1 * rhat,
        hess_radial=v2 * proj,
        hess_transverse=(v1 / r0) * (np.eye(3) - proj),
    )


def _coord_index(atom: int, axis: int, n_axes: int) -> int:
    return atom * n_axes + axis


def assemble_state_hamiltonian(
    state,
    geometry: Geometry,
    couplings,
    params: PhysicalParams,
) -> QuadraticVibronic:
    """Quadratic displacement Hamiltonian of one electronic configuration.

    Sums the pair expansion over all doubly excited pairs and adds the trap.
    Configurations with fewer than two excitations are governed by the trap
    alone.  ``couplings`` may be a :class:`Couplings`/:class:`ExplicitCouplings`
    instance (pinned at the nominal distance) or any radial potential model.
    """
    state = tuple(state)
    if len(state) != geometry.n_atoms:
        raise DomainError(
            f"state length {len(state)} does not match atom count {geometry.n_atoms}"
        )
    na = geometry.n_axes
    n_coords = geometry.n_atoms * na
    linear = np.zeros(n_coords)
    hessian = (params.omega / (2.0 * params.x0**2)) * np.eye(n_coords)

    for k, l in geometry.pairs():
        if not (state[k] and state[l]):
            continue
        coeffs = expansion_coeffs((k, l), geometry, couplings)
        g = coeffs.gradient[:na]
        s = 0.5 * (coeffs.hess_radial + coeffs.hess_transverse)[:na, :na]
        ik = [_coord_index(k, a, na) for a in range(na)]
        il = [_coord_index(l, a, na) for a in range(na)]
        linear[ik] += g
        linear[il] -= g
        hessian[np.ix_(ik, ik)] += s
        hessian[np.ix_(il, il)] += s
        hessian[np.ix_(ik, il)] -= s
        hessian[np.ix_(il, ik)] -= s

    return QuadraticVibronic(state=state, constant=0.0, linear=linear, hessian=hessian)


def assemble_graph_hamiltonians(graph: ResonantGraph, couplings, params: PhysicalParams):
    """One quadratic form per graph node, in node order."""
    return [
        assemble_state_hamiltonian(c, graph.geometry, couplings, params) for c in graph.configs
    ]


def _fix_sign(v: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0 else v


def reduce_modes(forms, params: PhysicalParams):
    """Build the coupled collective-mode basis and rewrite the forms in it.

    Generators are collected deterministically: every state's linear vector
    (in node order), then every state's non-trap hessian eigenvectors ordered
    by descending eigenvalue magnitude.  Gram-Schmidt with a fixed drop
    threshold yields a reproducible orthonormal basis.  Returns
    ``(ModeBasis, reduced_forms)`` where the reduced forms use the same
    quadratic convention over the reduced coordinates.
    """
    if not forms:
        raise DomainError("reduce_modes needs at least one quadratic form")
    n_coords = forms[0].dim
    if any(f.dim != n_coords for f in forms):
        raise DomainError("all forms must share one coordinate space")

    generators = []
    scale = max(1.0, max(np.abs(f.hessian).max() for f in forms))
    for f in forms:
        if np.linalg.norm(f.linear) > EIG_KEEP_TOL * scale:
            generators.append(f.linear.copy())
    trap = params.omega / (2.0 * params.x0**2)
    for f in forms:
        nontrap = f.hessian - trap * np.eye(n_coords)
        if np.abs(nontrap).max() <= EIG_KEEP_TOL * scale:
            continue
        vals, vecs = np.linalg.eigh(nontrap)
        order = np.argsort(-np.abs(vals), kind="stable")
        for idx in order:
            if abs(vals[idx]) > EIG_KEEP_TOL * scale:
                generators.append(_fix_sign(vecs[:, idx].copy()))

    basis_vectors = []
    for gen in generators:
        v = gen / np.linalg.norm(gen)
        for _ in range(2):  # double orthogonalization for tight orthonormality
            for b in basis_vectors:
                v = v - (b @ v) * b
        r = np.linalg.norm(v)
        if r < GS_DROP_TOL:
            continue
        basis_vectors.append(_fix_sign(v / r))

    if not basis_vectors:
        # No couplings anywhere: keep a single arbitrary direction so downstream
        # solvers still have a (free) mode to act on.
        basis_vectors = [np.eye(n_coords)[:, 0]]

    w = np.column_stack(basis_vectors)
    n_atoms = len(forms[0].state)
    basis = ModeBasis(vectors=w, n_atoms=n_atoms, n_axes=n_coords // n_atoms)

    reduced = [
        QuadraticVibronic(
            state=f.state,
            constant=f.constant,
            linear=w.T @ f.linear,
            hessian=w.T @ f.hessian @ w,
        )
        for f in forms
    ]
    return basis, reduced


def identity_basis(geometry: Geometry) -> ModeBasis:
    """Unreduced basis over the full active coordinate space."""
    n_coords = geometry.n_atoms * geometry.n_axes
    return ModeBasis(vectors=np.eye(n_coords), n_atoms=geometry.n_atoms, n_axes=geometry.n_axes)


def build_molecular_model(graph: ResonantGraph, couplings, params: PhysicalParams):
    """Assemble per-node forms and reduce them to the coupled modes.

    Returns ``(ModeBasis, reduced_forms)`` as :func:`reduce_modes` does.  The
    discarded directions are free spectator modes, so the ground energies are
    those of the unreduced model, which is ``identity_basis(graph.geometry)``
    with ``assemble_graph_hamiltonians(graph, couplings, params)``.
    """
    return reduce_modes(assemble_graph_hamiltonians(graph, couplings, params), params)


def edge_mode_directions(geometry: Geometry, pair, basis: ModeBasis):
    """Unit displacement generators of a pair's relative motion.

    Returns ``(parallel, perpendiculars)`` in the coordinates of ``basis``
    (:func:`identity_basis` keeps the full coordinate space).  The parallel
    direction moves the two atoms apart along their axis; perpendicular
    directions move them oppositely within the orthogonal plane intersected
    with the active axes.
    """
    k, l = pair
    na = geometry.n_axes
    n_coords = geometry.n_atoms * na
    rvec = geometry.positions[k] - geometry.positions[l]
    rhat = (rvec / np.linalg.norm(rvec))[:na]

    def embed(direction):
        v = np.zeros(n_coords)
        for a in range(na):
            v[_coord_index(k, a, na)] = direction[a]
            v[_coord_index(l, a, na)] = -direction[a]
        return v / np.linalg.norm(v)

    parallel = embed(rhat)
    perps = []
    # Orthonormal completion of rhat inside the active-axis subspace.
    candidates = np.eye(na)
    acc = [rhat / np.linalg.norm(rhat)]
    for c in candidates:
        v = c.copy()
        for b in acc:
            v = v - (b @ v) * b
        if np.linalg.norm(v) > 1e-10:
            v = v / np.linalg.norm(v)
            acc.append(v)
            perps.append(embed(v))
    return basis.to_reduced(parallel), [basis.to_reduced(p) for p in perps]


def dumbbell_hamiltonian(params: PhysicalParams, couplings):
    """Two-state model of the driven pair over its axial relative mode.

    The symmetric single-excitation combination couples to the doubly excited
    state with strength ``sqrt(2) Omega``, so the adjacency carries the weight
    ``sqrt(2)``; the antisymmetric combination decouples entirely.  Returns
    ``(adjacency, forms)``, the model input every solver reads, with the two
    quadratic forms (trap-only, coupled) over the single relative coordinate:
    diagonal blocks ``omega b'b`` and
    ``omega b'b + sqrt(2) kappa (b+b') + xi (b+b')^2``.
    """
    omega, x0 = params.omega, params.x0
    trap = omega / (2.0 * x0**2)
    plus = QuadraticVibronic(
        state=(0, 1), constant=0.0, linear=np.zeros(1), hessian=np.array([[trap]])
    )
    excited = QuadraticVibronic(
        state=(1, 1),
        constant=0.0,
        linear=np.array([2.0 * couplings.kappa / x0]),
        hessian=np.array([[trap + 2.0 * couplings.xi / x0**2]]),
    )
    return np.array([[0.0, SQRT2], [SQRT2, 0.0]]), [plus, excited]


def node_data(graph, forms):
    """Weighted adjacency and per-node forms of a model input.

    ``graph`` may be a :class:`ResonantGraph` or a plain adjacency matrix.
    Returns ``(adjacency, forms)`` with a float adjacency whose entries
    multiply the drive ``Omega``; it must be symmetric with a zero diagonal,
    one row per form, as the Fock and surface solvers read different halves,
    and every form must have the same mode count.
    """
    adjacency = graph.adjacency if isinstance(graph, ResonantGraph) else graph
    adjacency = np.asarray(adjacency, dtype=float)
    if adjacency.shape != (len(forms), len(forms)):
        raise DomainError(f"adjacency of shape {adjacency.shape} for {len(forms)} forms")
    if adjacency.diagonal().any() or (adjacency != adjacency.T).any():
        raise DomainError("adjacency must be symmetric with a zero diagonal")
    if len({f.dim for f in forms}) > 1:
        raise DomainError("all node forms must share the same mode count")
    return adjacency, list(forms)

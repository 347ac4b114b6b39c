"""Clamped-coordinate potential energy surfaces and structural transitions.

The adiabatic surface at fixed collective coordinates q is the smallest
eigenvalue of the electronic matrix ``M(q) = Omega A + diag(E_s(q))`` where
``E_s`` is the classical (kinetic-free) energy of node s.  This module reads
its minima off the node forms at zero drive or with no links, and finds them
by multistart Newton descent (exact gradient and Hessian from one ``eigh`` of
M) at any other drive, expands it to second order about a point from the
same ``eigh``, and scans the surface minimum against the drive strength to
expose the symmetry-breaking transition and its smoothing by quantum effects.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .assembly import node_data
from .errors import DomainError, InstabilityError
from .fock import converge_scan
from .params import PhysicalParams

DEFAULT_DEDUP_TOL = 1e-4  # basin deduplication distance, in units of x0
DEFAULT_DEGENERACY_TOL = 1e-8  # energy tolerance for degenerate minima, units of omega
GAP_TOL = 1e-7  # electronic gap below which the branch counts as crossing, units of omega
CURVATURE_FLOOR = 1e-3  # smallest |curvature| a Newton step divides by, units of omega/x0^2
DECREMENT_TOL = 1e-15  # Newton decrement that ends a descent, relative to max(omega, |E|)
STEP_TOL = 1e-10  # Newton step that ends a descent, units of x0
MAX_NEWTON_STEPS = 100  # Newton steps per descent
MAX_BACKTRACKS = 40  # step halvings per Newton step
ARMIJO = 1e-4  # sufficient-decrease fraction of the line search
SADDLE_STEP = 0.1  # step off a saddle along negative curvature, units of x0
MAX_DESCENTS = 3  # Newton descents per start before the start counts as lost
MIN_SCAN_SAMPLES = 32  # drive samples a transition scan needs to place the kink


@dataclass(frozen=True, eq=False)
class BoSurface:
    """Electronic matrix data for clamped-coordinate energies.

    The node forms are also held stacked, so node energies, gradients and
    Hessians at q take a few array operations.
    """

    adjacency: np.ndarray
    forms: tuple  # per-node QuadraticVibronic over reduced coordinates
    constants: np.ndarray  # (n,) stacked form constants
    linears: np.ndarray  # (n, dim) stacked linear terms
    hessians: np.ndarray  # (n, dim, dim) stacked Hessians
    Omega: float
    omega: float
    x0: float

    @property
    def dim(self) -> int:
        return self.linears.shape[1]

    def with_omega(self, Omega: float) -> "BoSurface":
        return dataclasses.replace(self, Omega=float(Omega))


@dataclass(frozen=True, eq=False)
class MinimaReport:
    """Distinct local minima sorted by energy, and the search's work counts (0 in closed form)."""

    minima: tuple  # ((q, energy), ...) sorted by energy
    degeneracy: int
    global_energy: float
    degeneracy_tol: float
    starts: int
    descents: int  # Newton descents, restarts off saddles included
    evaluations: int  # diagonalizations of the electronic matrix
    saddles_left: int
    starts_lost: int  # starts that met a crossing or ended on a saddle every time


def build_bo_surface(graph, forms, params: PhysicalParams) -> BoSurface:
    """Bundle a model (any input :func:`node_data` accepts) into a surface at ``params.Omega``."""
    adjacency, forms = node_data(graph, forms)
    return BoSurface(
        adjacency=adjacency,
        forms=tuple(forms),
        constants=np.array([f.constant for f in forms]),
        linears=np.array([f.linear for f in forms]),
        hessians=np.array([f.hessian for f in forms]),
        Omega=params.Omega,
        omega=params.omega,
        x0=params.x0,
    )


def _electronic_matrix(surface: BoSurface, q: np.ndarray) -> np.ndarray:
    energies = surface.constants + surface.linears @ q + (surface.hessians @ q) @ q
    return surface.Omega * surface.adjacency + np.diag(energies)


def _point(surface: BoSurface, q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != (surface.dim,):
        raise DomainError(f"expected {surface.dim} coordinates, got shape {q.shape}")
    return q


def bo_energy(surface: BoSurface, q) -> float:
    """Smallest electronic eigenvalue at clamped coordinates q."""
    return float(np.linalg.eigvalsh(_electronic_matrix(surface, _point(surface, q)))[0])


def _derivatives(surface: BoSurface, q: np.ndarray):
    """Lowest eigenvalue, electronic gap, exact gradient and Hessian from one ``eigh``.

    With eigenpairs ``(E_k, u_k)`` of M, ``v = u_0`` and node gradients
    ``G = L + 2 H q``, the gradient is ``sum_s v_s^2 G_s`` and the Hessian
    ``sum_s v_s^2 2 H_s + 2 sum_{k>0} b_k b_k^T / (E_0 - E_k)`` with
    ``b_k = G^T (v * u_k)``.  Valid away from electronic degeneracies.
    """
    vals, vecs = np.linalg.eigh(_electronic_matrix(surface, q))
    v = vecs[:, 0]
    node_grads = surface.linears + 2.0 * surface.hessians @ q
    b = node_grads.T @ (v[:, None] * vecs[:, 1:])
    hess = 2.0 * np.einsum("s,sij->ij", v * v, surface.hessians)
    with np.errstate(all="ignore"):  # no Hessian at a crossing, where callers stop
        hess += 2.0 * (b / (vals[0] - vals[1:])) @ b.T
    gap = float(vals[1] - vals[0]) if vals.size > 1 else math.inf
    return float(vals[0]), gap, (v * v) @ node_grads, hess


def default_start_points(surface: BoSurface) -> np.ndarray:
    """Deterministic multistart seeds inside a box of half-width 3 x0.

    Includes the origin, single-coordinate offsets in both signs, every
    node's own stationary point (clipped to the box), and the sign-sector
    corners when the dimension keeps their count reasonable.
    """
    dim, x0 = surface.dim, surface.x0
    half_width = 3.0 * x0
    step = 1.5 * x0
    starts = [np.zeros(dim)]
    for m in range(dim):
        for sign in (+1.0, -1.0):
            v = np.zeros(dim)
            v[m] = sign * step
            starts.append(v)
    for f in surface.forms:
        starts.append(np.clip(f.stationary_point(), -half_width, half_width))
    if dim <= 5:
        for code in range(2**dim):
            corner = np.array([step if (code >> m) & 1 else -step for m in range(dim)])
            starts.append(corner)
    return np.array(starts)


def light_start_points(surface: BoSurface) -> np.ndarray:
    """Reduced seed set for scans: the origin plus every node's stationary point.

    Covers the symmetric basin and each configuration's own displaced basin,
    which is where surface minima live for the preset geometries.  Exact
    duplicates (every node whose stationary point is the origin) are kept
    once, at their first occurrence; a bitwise repeat of a start can only
    repeat its descent.
    """
    half_width = 3.0 * surface.x0
    starts = [np.zeros(surface.dim)]
    for f in surface.forms:
        start = np.clip(f.stationary_point(), -half_width, half_width)
        if all(start.tobytes() != s.tobytes() for s in starts):
            starts.append(start)
    return np.array(starts)


def _newton(surface: BoSurface, q: np.ndarray, tally: dict):
    """Saddle-free Newton descent on the lowest branch, with Armijo backtracking.

    Each step divides the gradient by the absolute Hessian eigenvalues, each
    floored at ``CURVATURE_FLOOR omega/x0^2``, so it descends along negative
    curvature too.  The descent ends when the Newton decrement ``-g.p`` is
    below ``DECREMENT_TOL max(omega, |E|)`` or the step below ``STEP_TOL x0``,
    and returns ``(q, energy, curvatures, directions)`` there; it returns
    None at an electronic crossing (gap at most ``GAP_TOL omega``) or when
    it does not converge.
    """
    floor = CURVATURE_FLOOR * surface.omega / surface.x0**2
    tally["descents"] += 1
    tally["evaluations"] += 1
    e, gap, grad, hess = _derivatives(surface, q)
    for _ in range(MAX_NEWTON_STEPS):
        if gap <= GAP_TOL * surface.omega:
            return None
        curvatures, directions = np.linalg.eigh(hess)
        step = -directions @ ((directions.T @ grad) / np.maximum(np.abs(curvatures), floor))
        decrement = -float(grad @ step)
        small_step = np.linalg.norm(step) <= STEP_TOL * surface.x0
        if decrement <= DECREMENT_TOL * max(surface.omega, abs(e)) or small_step:
            return q, e, curvatures, directions
        for halvings in range(MAX_BACKTRACKS):
            alpha = 0.5**halvings
            tally["evaluations"] += 1
            trial = _derivatives(surface, q + alpha * step)
            if trial[0] <= e - ARMIJO * alpha * decrement:
                break
        else:
            return None
        q = q + alpha * step
        e, gap, grad, hess = trial
    return None


def _zero_drive_minima(surface: BoSurface) -> list:
    """Minima of a surface with ``Omega A = 0``, the envelope ``min_s E_s(q)``, in closed form.

    A node's stationary point is one when its branch is within ``GAP_TOL omega``
    of the lowest there and every branch that close is stationary there too
    (its own stationary point within ``DEFAULT_DEDUP_TOL x0``), or when its
    value is the lowest of them all: the envelope's global minimum.
    """
    points = [f.stationary_point() for f in surface.forms]
    branches = [np.diag(_electronic_matrix(surface, q)) for q in points]  # M = diag(E_s) here
    floor = min(energies[s] for s, energies in enumerate(branches))
    found = []
    for s, (q, energies) in enumerate(zip(points, branches)):
        near = np.flatnonzero(energies - energies.min() <= GAP_TOL * surface.omega)
        tied = all(np.linalg.norm(points[t] - q) <= DEFAULT_DEDUP_TOL * surface.x0 for t in near)
        if s in near and (tied or energies[s] == floor):
            found.append((q, float(energies.min())))
    return found


def minimize_bo(surface: BoSurface, starts=None) -> MinimaReport:
    """Locate the surface minima: in closed form where ``Omega A = 0``, else by multistart Newton.

    A node Hessian that is not positive definite (the surface is then unbounded
    below at every drive) raises :class:`InstabilityError`.  Where
    ``Omega A = 0`` ``starts`` is unused.  Else a saddle-free Newton descent
    (:func:`_newton`) runs from every start; an endpoint is a minimum only
    where the gap exceeds ``GAP_TOL omega`` and the exact Hessian is positive
    definite, and a saddle is left ``SADDLE_STEP x0`` along its most negative
    curvature, at most ``MAX_DESCENTS`` descents in all.  A start still at a
    crossing or a saddle is counted in ``starts_lost``; if every start is,
    :class:`DomainError` is raised.  Basins within ``DEFAULT_DEDUP_TOL x0``
    merge, and the degeneracy counts minima within
    ``DEFAULT_DEGENERACY_TOL * omega`` of the lowest.
    """
    if np.any(np.linalg.eigvalsh(surface.hessians)[:, 0] <= 0.0):
        raise InstabilityError("a node Hessian is not positive definite: the surface is unbounded")
    degeneracy_tol = DEFAULT_DEGENERACY_TOL * surface.omega
    tally = dict.fromkeys(("starts", "descents", "evaluations", "saddles_left", "starts_lost"), 0)
    if surface.Omega == 0.0 or not surface.adjacency.any():
        found = _zero_drive_minima(surface)
    else:
        if starts is None:
            starts = default_start_points(surface)
        starts = np.atleast_2d(np.asarray(starts, dtype=float))
        if starts.shape[1] != surface.dim:
            raise DomainError(f"expected {surface.dim} coordinates per start, got {starts.shape[1]}")
        found = []
        for q in starts:
            for _ in range(MAX_DESCENTS):
                end = _newton(surface, q, tally)
                if end is None:  # an electronic crossing
                    break
                q, e, curvatures, directions = end
                if curvatures[0] > 0.0:
                    found.append((q, e))
                    break
                tally["saddles_left"] += 1
                q = q + SADDLE_STEP * surface.x0 * directions[:, 0]
        tally["starts"] = len(starts)
        tally["starts_lost"] = len(starts) - len(found)  # each start yields at most one minimum
    if not found:
        raise DomainError(f"no surface minimum found at drive {surface.Omega}")

    dedup_dist = DEFAULT_DEDUP_TOL * surface.x0
    found.sort(key=lambda qe: (qe[1], tuple(qe[0])))
    unique = []
    for q, e in found:
        if all(np.linalg.norm(q - uq) > dedup_dist for uq, _ in unique):
            unique.append((q, e))

    global_energy = unique[0][1]
    degeneracy = sum(1 for _, e in unique if e - global_energy <= degeneracy_tol)
    return MinimaReport(
        minima=tuple((q.copy(), e) for q, e in unique),
        degeneracy=degeneracy,
        global_energy=global_energy,
        degeneracy_tol=degeneracy_tol,
        **tally,
    )


@dataclass(frozen=True, eq=False)
class QuadraticFit:
    """Second-order expansion of the surface about a point."""

    center: np.ndarray
    constant: float
    linear: np.ndarray  # gradient at the center
    quadratic: np.ndarray  # coefficient matrix C in E = const + b.d + d^T C d


def bo_quadratic_check(surface: BoSurface, center) -> QuadraticFit:
    """Exact local quadratic form of the surface at ``center``, from :func:`_derivatives`.

    ``constant`` is the lowest eigenvalue there, ``linear`` its gradient and
    ``quadratic`` half its symmetrized Hessian.  Raises :class:`DomainError`
    for a wrong-length point and at an electronic crossing (gap at most
    ``GAP_TOL omega``), where the branch has no derivatives, as at a zero-drive
    minimum where tied branches meet; driven minima lie off every crossing.
    """
    center = _point(surface, center)
    energy, gap, grad, hess = _derivatives(surface, center)
    if gap <= GAP_TOL * surface.omega:
        raise DomainError(f"electronic gap {gap:.3g} at the expansion center: a level crossing")
    quadratic = 0.25 * (hess + hess.T)
    return QuadraticFit(center=center, constant=energy, linear=grad, quadratic=quadratic)


@dataclass(frozen=True, eq=False)
class TransitionScanResult:
    """Surface minima and exact ground energies over a drive-strength grid.

    ``e_quantum``, ``quantum_converged`` and ``quantum_cutoffs`` hold the
    cutoff-doubling report of every drive.
    """

    omegas: np.ndarray
    e_bo: np.ndarray
    e_quantum: np.ndarray
    quantum_converged: np.ndarray
    quantum_cutoffs: np.ndarray
    kink_omega: float
    kink_uncertainty: float
    bo_second_diff_max: float
    quantum_second_diff_max: float


def _second_differences(values: np.ndarray) -> np.ndarray:
    return values[2:] - 2.0 * values[1:-1] + values[:-2]


def transition_scan(graph, forms, params: PhysicalParams, omegas, **solver) -> TransitionScanResult:
    """Scan the surface minimum and the exact ground energy against the drive.

    Every drive's surface minimum comes from :func:`minimize_bo`, seeded with
    the :func:`light_start_points` of the zero-drive surface.  The kink of
    the clamped-coordinate curve is located as the maximizer of the discrete
    second difference, refined once on a finer local grid, whose drives
    bitwise equal to grid drives reuse those minima; its uncertainty is the
    refined grid spacing.  The exact curve is computed with the
    cutoff-doubling solver at every grid point, in one :func:`converge_scan`
    over the model at each drive, so operators and vectors are carried along
    the grid; it gets the ``solver`` keywords (``e_tol``, ``max_cutoff``,
    ``frame``) unchanged, so each stage is solved to the residual target
    ``fock.stage_tol(e_tol)``.  The grid needs at least ``MIN_SCAN_SAMPLES``
    strictly increasing drive values.
    """
    omegas = np.asarray(omegas, dtype=float)
    if omegas.size < MIN_SCAN_SAMPLES:
        raise DomainError(f"need at least {MIN_SCAN_SAMPLES} drive samples, got {omegas.size}")
    if np.any(np.diff(omegas) <= 0):
        raise DomainError("drive grid must be strictly increasing")

    base = build_bo_surface(graph, forms, params).with_omega(0.0)
    starts = light_start_points(base)

    def bo_minimum(omega_drive: float) -> float:
        return minimize_bo(base.with_omega(omega_drive), starts=starts).global_energy

    e_bo = np.array([bo_minimum(o) for o in omegas])
    rows = [(graph, forms, dataclasses.replace(params, Omega=float(o))) for o in omegas]
    reports = converge_scan(rows, **solver)
    e_quantum = np.array([report.energy for report in reports])

    d2_bo = _second_differences(e_bo)
    kink_idx = int(np.argmax(np.abs(d2_bo))) + 1
    fine = np.linspace(omegas[kink_idx - 1], omegas[kink_idx + 1], 9)
    on_grid = {o.tobytes(): e for o, e in zip(omegas, e_bo)}
    e_fine = [on_grid[o.tobytes()] if o.tobytes() in on_grid else bo_minimum(o) for o in fine]
    d2_fine = _second_differences(np.array(e_fine))
    return TransitionScanResult(
        omegas=omegas,
        e_bo=e_bo,
        e_quantum=e_quantum,
        quantum_converged=np.array([report.converged for report in reports], dtype=bool),
        quantum_cutoffs=np.array([report.cutoff for report in reports], dtype=int),
        kink_omega=float(fine[int(np.argmax(np.abs(d2_fine))) + 1]),
        kink_uncertainty=float(fine[1] - fine[0]),
        bo_second_diff_max=float(np.max(np.abs(d2_bo))),
        quantum_second_diff_max=float(np.max(np.abs(_second_differences(e_quantum)))),
    )


def transition_scan_csv(result: TransitionScanResult, analytic=None) -> str:
    """CSV rows ``Omega, E_BO, E_quantum, E_analytic, converged, cutoff``.

    ``analytic`` is an optional array aligned with the drive grid; NaN entries
    (and a missing array) leave the column empty.  Closed-form ground energies
    exist only at zero drive, so that is typically the only filled row.
    """
    lines = ["Omega,E_BO,E_quantum,E_analytic,converged,cutoff"]
    for i in range(result.omegas.size):
        ea = math.nan if analytic is None else float(analytic[i])
        lines.append(
            ",".join(
                [
                    repr(float(result.omegas[i])),
                    repr(float(result.e_bo[i])),
                    repr(float(result.e_quantum[i])),
                    "" if math.isnan(ea) else repr(ea),
                    str(bool(result.quantum_converged[i])).lower(),
                    str(int(result.quantum_cutoffs[i])),
                ]
            )
        )
    return "\n".join(lines) + "\n"

"""Clamped-coordinate potential energy surfaces and structural transitions.

The adiabatic surface at fixed collective coordinates q is the smallest
eigenvalue of the electronic matrix ``M(q) = Omega A + diag(E_s(q))`` where
``E_s`` is the classical (kinetic-free) energy of node s.  This module locates
its minima by deterministic multistart Newton descent (exact gradient and
Hessian of the lowest eigenvalue from one ``eigh`` of M, each endpoint
checked to be a true minimum, Nelder-Mead simplex only as the fallback at
electronic crossings), fits local quadratics, and scans the surface minimum
against the drive strength to expose the symmetry-breaking transition and
its smoothing by quantum effects.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .assembly import node_data
from .errors import DomainError
from .fock import converge_drives
from .params import PhysicalParams

DEFAULT_DEDUP_TOL = 1e-4  # basin deduplication distance, in units of x0
DEFAULT_DEGENERACY_TOL = 1e-8  # energy tolerance for degenerate minima, units of omega
SIMPLEX_TOL = 1e-13  # energy tolerance of the simplex fallback
GAP_TOL = 1e-7  # electronic gap below which the branch counts as crossing, units of omega
CURVATURE_FLOOR = 1e-3  # smallest |curvature| a Newton step divides by, units of omega/x0^2
DECREMENT_TOL = 1e-15  # Newton decrement that ends a descent, relative to max(omega, |E|)
STEP_TOL = 1e-10  # Newton step that ends a descent, units of x0
MAX_NEWTON_STEPS = 100  # Newton steps per descent
MAX_BACKTRACKS = 40  # step halvings per Newton step
ARMIJO = 1e-4  # sufficient-decrease fraction of the line search
SADDLE_STEP = 0.1  # step off a saddle along negative curvature, units of x0
MAX_DESCENTS = 3  # Newton descents per start before the simplex fallback
MIN_SCAN_SAMPLES = 32  # drive samples a transition scan needs to place the kink
FIT_RADIUS = 0.1  # initial stencil radius of the quadratic fit, units of x0
FIT_GAP_TOL = 1e-9  # electronic gap every fit stencil point must exceed
FIT_MAX_SHRINKS = 8  # stencil halvings before the fit gives up on a crossing


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

    @property
    def n_nodes(self) -> int:
        return len(self.forms)

    def with_omega(self, Omega: float) -> "BoSurface":
        return dataclasses.replace(self, Omega=float(Omega))


@dataclass(frozen=True, eq=False)
class MinimaReport:
    """Distinct local minima of the multistart search, sorted by energy, and its work counts."""

    minima: tuple  # ((q, energy), ...) sorted by energy
    degeneracy: int
    global_energy: float
    degeneracy_tol: float
    starts: int
    descents: int  # Newton descents, restarts off saddles and simplex polishes included
    evaluations: int  # diagonalizations of the electronic matrix, simplex ones included
    saddles_left: int
    simplex_fallbacks: int  # starts that met a crossing or ended on a saddle every time


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


def bo_energy(surface: BoSurface, q) -> float:
    """Smallest electronic eigenvalue at clamped coordinates q."""
    q = np.asarray(q, dtype=float)
    if q.shape != (surface.dim,):
        raise DomainError(f"expected {surface.dim} coordinates, got shape {q.shape}")
    return float(np.linalg.eigvalsh(_electronic_matrix(surface, q))[0])


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


def bo_eigen_gap(surface: BoSurface, q) -> float:
    """Gap between the two lowest electronic eigenvalues at q."""
    return _derivatives(surface, np.asarray(q, dtype=float))[1]


def bo_gradient(surface: BoSurface, q) -> np.ndarray:
    """Gradient of the lowest eigenvalue; valid away from electronic degeneracies."""
    return _derivatives(surface, np.asarray(q, dtype=float))[2]


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


def _simplex(surface: BoSurface, start: np.ndarray, tally: dict):
    """Nelder-Mead descent plus a Newton polish away from crossings."""
    from scipy.optimize import minimize  # only the crossing fallback needs it

    options = {
        "xatol": 1e-10 * surface.x0,
        "fatol": SIMPLEX_TOL,
        "maxiter": 4000 * surface.dim,
        "maxfev": 4000 * surface.dim,
    }
    res = minimize(lambda q: bo_energy(surface, q), start, method="Nelder-Mead", options=options)
    tally["evaluations"] += res.nfev
    q, e = res.x, float(res.fun)
    # away from crossings a Newton polish lands the simplex stall on its basin floor
    polished = _newton(surface, q, tally)
    if polished is not None and polished[1] <= e:
        q, e = polished[0], polished[1]
    return q, e


def minimize_bo(surface: BoSurface, starts=None) -> MinimaReport:
    """Locate the surface minima by deterministic multistart Newton descent.

    From every start, a saddle-free Newton descent (:func:`_newton`) runs on
    the lowest branch with the exact gradient and Hessian.  An endpoint
    counts as a minimum only when the electronic gap there exceeds
    ``GAP_TOL omega`` and the exact Hessian is positive definite; a saddle is
    left ``SADDLE_STEP x0`` along its most negative curvature and descended
    again, at most ``MAX_DESCENTS`` descents in all.  At an electronic
    crossing, or on a saddle after the last descent, the start falls back to
    Nelder-Mead simplex descent (energy tolerance ``SIMPLEX_TOL``) with a
    Newton polish.

    Distinct basins are deduplicated at distance ``1e-4 x0``; minima are
    reported sorted by energy and the degeneracy counts those within
    ``DEFAULT_DEGENERACY_TOL * omega`` of the global minimum.
    """
    if starts is None:
        starts = default_start_points(surface)
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    if starts.shape[1] != surface.dim:
        raise DomainError(f"expected {surface.dim} coordinates per start, got {starts.shape[1]}")
    degeneracy_tol = DEFAULT_DEGENERACY_TOL * surface.omega

    tally = dict.fromkeys(("descents", "evaluations", "saddles_left", "simplex_fallbacks"), 0)
    found = []
    for start in starts:
        q, minimum = start, None
        for _ in range(MAX_DESCENTS):
            end = _newton(surface, q, tally)
            if end is None:  # an electronic crossing
                break
            q, e, curvatures, directions = end
            if curvatures[0] > 0.0:
                minimum = (q, e)
                break
            tally["saddles_left"] += 1
            q = q + SADDLE_STEP * surface.x0 * directions[:, 0]
        if minimum is None:
            tally["simplex_fallbacks"] += 1
            minimum = _simplex(surface, start, tally)
        found.append(minimum)

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
        starts=len(starts),
        **tally,
    )


@dataclass(frozen=True, eq=False)
class QuadraticFit:
    """Least-squares quadratic model of the surface around a point."""

    center: np.ndarray
    constant: float
    linear: np.ndarray  # gradient coefficients at the center
    quadratic: np.ndarray  # coefficient matrix C in E = const + b.d + d^T C d
    radius: float

    def linear_at_origin(self) -> np.ndarray:
        """Linear coefficient of the same quadratic expanded about q = 0."""
        return self.linear - 2.0 * self.quadratic @ self.center


def bo_quadratic_check(surface: BoSurface, center) -> QuadraticFit:
    """Fit the surface by a quadratic on a small stencil around ``center``.

    The stencil starts at radius ``FIT_RADIUS * x0``.  If any stencil point
    approaches an electronic level crossing (gap at most ``FIT_GAP_TOL``) the
    radius is halved and the fit retried, at most ``FIT_MAX_SHRINKS`` times,
    so the fit always samples a single smooth eigenvalue branch.
    """
    center = np.asarray(center, dtype=float)
    dim = surface.dim
    radius = FIT_RADIUS * surface.x0

    eye, signs = np.eye(dim), (1.0, -1.0)
    pairs = [eye[m] + s * eye[n] for m in range(dim) for n in range(m + 1, dim) for s in signs]
    offsets = np.array([np.zeros(dim)] + [s * e for e in eye for s in signs] + pairs)

    for _ in range(FIT_MAX_SHRINKS + 1):
        points = center + radius * offsets
        gaps = [bo_eigen_gap(surface, p) for p in points]
        if min(gaps) > FIT_GAP_TOL:
            break
        radius *= 0.5
    else:
        raise DomainError("could not avoid a level crossing around the fit center")

    energies = np.array([bo_energy(surface, p) for p in points])
    # Design matrix over the monomials 1, d_m, d_m d_n (m <= n).
    deltas = points - center
    rows, cols = np.triu_indices(dim)
    design = np.column_stack([np.ones(len(points)), deltas, deltas[:, rows] * deltas[:, cols]])
    coef, *_ = np.linalg.lstsq(design, energies, rcond=None)

    quad = np.zeros((dim, dim))
    quad[rows, cols] = coef[1 + dim :] / 2.0
    return QuadraticFit(
        center=center,
        constant=float(coef[0]),
        linear=coef[1 : 1 + dim],
        quadratic=quad + quad.T,
        radius=radius,
    )


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
    cutoff-doubling solver at every grid point, carried along the grid by
    :func:`converge_drives`, which gets the ``solver`` keywords (``e_tol``,
    ``max_cutoff``, ``frame``, ``eig_tol``, ...) unchanged.  The grid needs
    at least ``MIN_SCAN_SAMPLES`` strictly increasing drive values.
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
    reports = converge_drives(graph, forms, params, omegas, **solver)
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

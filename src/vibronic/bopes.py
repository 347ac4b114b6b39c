"""Clamped-coordinate potential energy surfaces and structural transitions.

The adiabatic surface at fixed collective coordinates q is the smallest
eigenvalue of the electronic matrix ``M(q) = Omega A + diag(E_s(q))`` where
``E_s`` is the classical (kinetic-free) energy of node s.  This module locates
its minima by deterministic multistart gradient descent (L-BFGS-B with the
eigenvector-sandwich gradient, each endpoint checked to be a true minimum,
Nelder-Mead simplex only as the fallback at electronic crossings), fits local
quadratics, and scans the surface minimum against the drive strength to expose
the symmetry-breaking transition and its smoothing by quantum effects.
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
HESSIAN_STEP = 1e-5  # finite-difference step of the minimum check, units of x0
SADDLE_STEP = 0.1  # step off a saddle along negative curvature, units of x0
MAX_DESCENTS = 3  # gradient descents per start before the simplex fallback
_LBFGS_OPTIONS = {"ftol": 1e-18, "gtol": 1e-14, "maxiter": 500}
MIN_SCAN_SAMPLES = 32  # drive samples a transition scan needs to place the kink
FIT_RADIUS = 0.1  # initial stencil radius of the quadratic fit, units of x0
FIT_GAP_TOL = 1e-9  # electronic gap every fit stencil point must exceed
FIT_MAX_SHRINKS = 8  # stencil halvings before the fit gives up on a crossing


@dataclass(frozen=True, eq=False)
class BoSurface:
    """Electronic matrix data for clamped-coordinate energies."""

    adjacency: np.ndarray
    forms: tuple  # per-node QuadraticVibronic over reduced coordinates
    Omega: float
    omega: float
    x0: float

    @property
    def dim(self) -> int:
        return self.forms[0].dim

    @property
    def n_nodes(self) -> int:
        return len(self.forms)

    def with_omega(self, Omega: float) -> "BoSurface":
        return dataclasses.replace(self, Omega=float(Omega))


@dataclass(frozen=True, eq=False)
class MinimaReport:
    """Distinct local minima found by the multistart search, sorted by energy."""

    minima: tuple  # ((q, energy), ...) sorted by energy
    degeneracy: int
    global_energy: float
    degeneracy_tol: float


def build_bo_surface(graph, forms, params: PhysicalParams, Omega: float = None) -> BoSurface:
    """Bundle a model (any input :func:`node_data` accepts) into a surface object."""
    adjacency, forms = node_data(graph, forms)
    return BoSurface(
        adjacency=adjacency,
        forms=tuple(forms),
        Omega=params.Omega if Omega is None else float(Omega),
        omega=params.omega,
        x0=params.x0,
    )


def _electronic_matrix(surface: BoSurface, q: np.ndarray) -> np.ndarray:
    m = surface.Omega * surface.adjacency
    diag = [f.energy_at(q) for f in surface.forms]
    return m + np.diag(diag)


def bo_energy(surface: BoSurface, q) -> float:
    """Smallest electronic eigenvalue at clamped coordinates q."""
    q = np.asarray(q, dtype=float)
    if q.shape != (surface.dim,):
        raise DomainError(f"expected {surface.dim} coordinates, got shape {q.shape}")
    if surface.n_nodes == 1:
        return surface.forms[0].energy_at(q)
    return float(np.linalg.eigvalsh(_electronic_matrix(surface, q))[0])


def bo_eigen_gap(surface: BoSurface, q) -> float:
    """Gap between the two lowest electronic eigenvalues at q."""
    q = np.asarray(q, dtype=float)
    if surface.n_nodes == 1:
        return math.inf
    vals = np.linalg.eigvalsh(_electronic_matrix(surface, q))
    return float(vals[1] - vals[0])


def _energy_and_gradient(surface: BoSurface, q: np.ndarray):
    """Lowest eigenvalue and its eigenvector-sandwich gradient from one ``eigh``.

    The gradient is valid away from electronic degeneracies.
    """
    vals, vecs = np.linalg.eigh(_electronic_matrix(surface, q))
    v = vecs[:, 0]
    grad = np.zeros(surface.dim)
    for s, f in enumerate(surface.forms):
        grad += v[s] ** 2 * (f.linear + 2.0 * f.hessian @ q)
    return float(vals[0]), grad


def bo_gradient(surface: BoSurface, q) -> np.ndarray:
    """Gradient of the lowest eigenvalue by eigenvector sandwiching.

    Valid away from electronic degeneracies.
    """
    return _energy_and_gradient(surface, np.asarray(q, dtype=float))[1]


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


def _hessian(surface: BoSurface, q: np.ndarray) -> np.ndarray:
    """Central-difference Hessian of the gradient, symmetrized; 2 dim gradient calls."""
    h = HESSIAN_STEP * surface.x0
    rows = []
    for m in range(surface.dim):
        e = np.zeros(surface.dim)
        e[m] = h
        g_plus = _energy_and_gradient(surface, q + e)[1]
        g_minus = _energy_and_gradient(surface, q - e)[1]
        rows.append((g_plus - g_minus) / (2.0 * h))
    hess = np.array(rows)
    return 0.5 * (hess + hess.T)


def _descend(surface: BoSurface, start: np.ndarray):
    """Gradient descent onto a checked local minimum of the lowest branch.

    Each endpoint must sit away from electronic crossings and have a positive
    definite Hessian; from a saddle the search steps along the most negative
    curvature direction and descends again.  Returns ``(q, energy)``, or None
    at a crossing or when the last of ``MAX_DESCENTS`` descents still ends on
    a saddle.
    """
    from scipy.optimize import minimize  # only surface searches need it

    q = start
    for _ in range(MAX_DESCENTS):
        res = minimize(
            lambda p: _energy_and_gradient(surface, p),
            q,
            jac=True,
            method="L-BFGS-B",
            options=_LBFGS_OPTIONS,
        )
        q = res.x
        if bo_eigen_gap(surface, q) <= GAP_TOL * surface.omega:
            return None
        curvatures, directions = np.linalg.eigh(_hessian(surface, q))
        if curvatures[0] > 0.0:
            return q, float(res.fun)
        q = q + SADDLE_STEP * surface.x0 * directions[:, 0]
    return None


def _simplex(surface: BoSurface, start: np.ndarray):
    """Nelder-Mead descent plus a gradient polish away from crossings."""
    from scipy.optimize import minimize  # only surface searches need it

    def fun(q):
        return bo_energy(surface, q)

    options = {
        "xatol": 1e-10 * surface.x0,
        "fatol": SIMPLEX_TOL,
        "maxiter": 4000 * surface.dim,
        "maxfev": 4000 * surface.dim,
    }
    res = minimize(fun, start, method="Nelder-Mead", options=options)
    q, e = res.x, float(res.fun)
    # Away from electronic crossings the branch is smooth, so a gradient
    # polish (eigenvector-sandwich gradient) removes the residual simplex
    # stall and lands every start exactly on its basin floor.
    if bo_eigen_gap(surface, q) > GAP_TOL * surface.omega:
        polished = minimize(
            fun,
            q,
            jac=lambda p: bo_gradient(surface, p),
            method="L-BFGS-B",
            options=_LBFGS_OPTIONS,
        )
        if polished.fun <= e:
            q, e = polished.x, float(polished.fun)
    return q, e


def minimize_bo(surface: BoSurface, starts=None) -> MinimaReport:
    """Locate the surface minima by deterministic multistart gradient descent.

    From every start, L-BFGS-B descends on the lowest branch with the
    eigenvector-sandwich gradient.  An endpoint counts as a minimum only when
    the electronic gap there exceeds ``1e-7 omega`` and the finite-difference
    Hessian is positive definite; a saddle is left along its negative
    curvature and descended again, at most three descents in all.  At an
    electronic crossing, or on a saddle after the last descent, the start
    falls back to Nelder-Mead simplex descent (energy tolerance
    ``SIMPLEX_TOL``) with a gradient polish.

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

    found = []
    for start in starts:
        minimum = _descend(surface, start)
        found.append(minimum if minimum is not None else _simplex(surface, start))

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

    offsets = [np.zeros(dim)]
    for m in range(dim):
        for sign in (+1.0, -1.0):
            v = np.zeros(dim)
            v[m] = sign
            offsets.append(v)
    for m in range(dim):
        for n in range(m + 1, dim):
            for sm, sn in ((1, 1), (1, -1)):
                v = np.zeros(dim)
                v[m], v[n] = sm, sn
                offsets.append(v)
    offsets = np.array(offsets)

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
    cols = [np.ones(len(points))]
    deltas = points - center
    for m in range(dim):
        cols.append(deltas[:, m])
    pair_index = []
    for m in range(dim):
        for n in range(m, dim):
            cols.append(deltas[:, m] * deltas[:, n])
            pair_index.append((m, n))
    design = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(design, energies, rcond=None)

    constant = coef[0]
    linear = coef[1 : 1 + dim]
    quad = np.zeros((dim, dim))
    for (m, n), c in zip(pair_index, coef[1 + dim :]):
        if m == n:
            quad[m, m] = c
        else:
            quad[m, n] = quad[n, m] = c / 2.0
    return QuadraticFit(
        center=center, constant=float(constant), linear=linear, quadratic=quad, radius=radius
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
    second difference, refined once on a finer local grid; its uncertainty
    is the refined grid spacing.  The exact curve is computed with the
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

    base = build_bo_surface(graph, forms, params, Omega=0.0)
    starts = light_start_points(base)

    def bo_minimum(omega_drive: float) -> float:
        return minimize_bo(base.with_omega(omega_drive), starts=starts).global_energy

    e_bo = np.array([bo_minimum(o) for o in omegas])
    reports = converge_drives(graph, forms, params, omegas, **solver)
    e_quantum = np.array([report.energy for report in reports])

    d2_bo = _second_differences(e_bo)
    kink_idx = int(np.argmax(np.abs(d2_bo))) + 1
    fine = np.linspace(omegas[kink_idx - 1], omegas[kink_idx + 1], 9)
    d2_fine = _second_differences(np.array([bo_minimum(o) for o in fine]))
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

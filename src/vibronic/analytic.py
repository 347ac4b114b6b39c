"""Closed-form results for the quadratically coupled oscillator models.

This module is the oracle layer: squeeze parameter of the mode-mixing
transformation that diagonalizes ``omega b'b + xi_eff (b+b')^2``, critical
couplings, dimensionless ground-state energies of the two- and four-atom
configurations, the phase-space distribution of the squeezed mode, and the
zero-point correction to the adiabatic (clamped-coordinate) minimum.

Coupling conventions: the axis-parallel mode of an excited pair carries the
curvature ``xi_eff = xi`` while each perpendicular mode carries
``xi_eff = nu * kappa / sqrt(2)``.  The reduced couplings are
``xibar = xi / xi_c`` and ``kappabar = kappa / kappa_c`` with critical values
``xi_c = -omega/4`` and ``kappa_c = -omega/(2 sqrt(2) nu)``; the quadratic
model is bounded only for reduced couplings below one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CriticalBoundaryError, DomainError, InstabilityError

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class BogoliubovSolution:
    """Squeeze parameter w and transformed frequency of a quadratic mode.

    The transformed mode is (b + w b^dag)/sqrt(1 - w^2); it exists (|w| < 1)
    only while the effective curvature stays above -omega/4.  When it exists,
    omega_tilde = omega (1+w)/(1-w) = omega sqrt(1 + 4 xi_eff / omega).
    """

    w: float
    omega_tilde: float
    exists: bool


def bogoliubov_w(omega: float, xi_eff: float) -> BogoliubovSolution:
    """Solve for the squeeze parameter of ``omega b'b + xi_eff (b+b')^2``.

    The ``xi_eff -> 0`` limit returns the identity transformation (w = 0).
    For ``xi_eff <= -omega/4`` no bounded transformation exists; this is
    reported as data (``exists=False``), not an error.
    """
    if omega <= 0:
        raise DomainError(f"omega must be positive, got {omega}")
    if xi_eff == 0.0:
        return BogoliubovSolution(w=0.0, omega_tilde=omega, exists=True)
    if xi_eff <= -omega / 4.0:
        return BogoliubovSolution(w=math.nan, omega_tilde=math.nan, exists=False)
    phi = omega / (2.0 * xi_eff)
    # The two roots of w^2 - 2(1+phi) w + 1 multiply to one; dividing by the
    # large root evaluates the small one without cancellation at large |phi|.
    large = 1.0 + phi + math.copysign(1.0, phi) * math.sqrt((1.0 + phi) ** 2 - 1.0)
    w = 1.0 / large
    omega_tilde = omega * (1.0 + w) / (1.0 - w)
    return BogoliubovSolution(w=w, omega_tilde=omega_tilde, exists=True)


def critical_points(omega: float, nu: float):
    """Critical curvature and critical linear coupling ``(xi_c, kappa_c)``."""
    if omega <= 0:
        raise DomainError(f"omega must be positive, got {omega}")
    if nu <= 0:
        raise DomainError(f"nu must be positive, got {nu}")
    return -omega / 4.0, -omega / (2.0 * SQRT2 * nu)


# Reduced couplings this close to 1 have lost all floating-point resolution
# in the 1/(1 - reduced) factor; treat them as sitting on the boundary.
BOUNDARY_BAND = 1e-12


def _check_stable(name: str, reduced: float):
    if reduced > 1.0:
        raise InstabilityError(f"{name} = {reduced} exceeds 1; the model is unbounded")
    if reduced > 1.0 - BOUNDARY_BAND:
        raise CriticalBoundaryError(f"{name} sits at its critical value within resolution")


def pair_epsilon(kappa: float, xi: float, omega: float, nu: float, n_perp: int) -> float:
    """Dimensionless zero-drive ground energy of an excited pair.

    The pair's axial mode carries the linear coupling and the curvature
    ``xi``; each of its ``n_perp`` perpendicular modes carries
    ``nu kappa / sqrt(2)`` and adds its zero-point shift
    ``(sqrt(1 - kappabar) - 1) / 2``.  The axial dumbbell has no
    perpendicular mode, the planar triangle one, the tetrahedron two, so
    ``n_perp = n_axes - 1``.  The pair's ground energy is ``omega`` times the
    result; ``nu`` enters only through the perpendicular modes.
    """
    xi_c, kappa_c = critical_points(omega, nu)
    xibar = xi / xi_c
    _check_stable("xi/xi_c", xibar)
    eps = -(2.0 * kappa**2 / omega**2) / (1.0 - xibar) + 0.5 * math.sqrt(1.0 - xibar)
    if n_perp:
        kappabar = kappa / kappa_c
        _check_stable("kappa/kappa_c", kappabar)
        eps += 0.5 * n_perp * math.sqrt(1.0 - kappabar)
    return eps - 0.5 * (1 + n_perp)


def epsilon2(kappa: float, xi: float, omega: float) -> float:
    """Dimensionless ground-state energy of the excited-pair mode.

    The ``n_perp = 0`` case of :func:`pair_epsilon`.  The pair's ground
    energy is ``omega * epsilon2``; the full two-atom ground energy at zero
    drive is ``min(omega * epsilon2, 0)``.
    """
    return pair_epsilon(kappa, xi, omega, 1.0, 0)


def epsilon4(kappa: float, xi: float, omega: float, nu: float) -> float:
    """Dimensionless ground-state energy of a doubly excited pair in 3D.

    The ``n_perp = 2`` case of :func:`pair_epsilon`; the four-atom ground
    energy at zero drive is ``min(omega * epsilon4, 0)``.
    """
    return pair_epsilon(kappa, xi, omega, nu, 2)


def wigner_widths(w: float):
    """Gaussian width coefficients ``(w_plus, w_minus)`` of the squeezed mode.

    ``w_plus * w_minus = 4`` for every |w| < 1 (phase-space area preservation).
    """
    if not abs(w) < 1.0:
        raise DomainError(f"squeeze parameter must satisfy |w| < 1, got {w}")
    return 2.0 * (1.0 + w) / (1.0 - w), 2.0 * (1.0 - w) / (1.0 + w)


def wigner(w: float, alpha) -> float:
    """Phase-space quasiprobability of the squeezed ground state.

    ``W(alpha) = (2/pi) exp(-w_plus Re(alpha)^2 - w_minus Im(alpha)^2)``;
    accepts scalar or array ``alpha``.
    """
    w_plus, w_minus = wigner_widths(w)
    alpha = np.asarray(alpha, dtype=complex)
    value = (2.0 / math.pi) * np.exp(-w_plus * alpha.real**2 - w_minus * alpha.imag**2)
    return float(value) if value.ndim == 0 else value


def quantum_correction(kappa: float, xi: float, omega: float, nu: float) -> float:
    """Zero-point shift between the exact and clamped-coordinate ground energies.

    At zero drive the exact ground energy of the planar three-atom system
    exceeds the classical surface minimum by
    ``(omega/2) [sqrt(1-xibar) + sqrt(1-kappabar) - 2]``.
    """
    return zero_point_correction(kappa, xi, omega, nu, n_perp=1)


def zero_point_correction(
    kappa: float, xi: float, omega: float, nu: float, n_perp: int
) -> float:
    """Zero-point shift with ``n_perp`` perpendicular modes per excited pair.

    The axial dumbbell has none, the planar triangle one, the tetrahedron two;
    quadratic perturbations change each mode's zero-point term from omega/2 to
    omega_tilde/2, and the clamped-coordinate minimum misses that shift.
    """
    xi_c, kappa_c = critical_points(omega, nu)
    xibar = xi / xi_c
    _check_stable("xi/xi_c", xibar)
    total = math.sqrt(1.0 - xibar) - 1.0
    if n_perp:
        kappabar = kappa / kappa_c
        _check_stable("kappa/kappa_c", kappabar)
        total += n_perp * (math.sqrt(1.0 - kappabar) - 1.0)
    return 0.5 * omega * total


def perpendicular_xi_eff(kappa: float, nu: float) -> float:
    """Effective curvature ``nu kappa / sqrt(2)`` carried by perpendicular modes."""
    return nu * kappa / SQRT2

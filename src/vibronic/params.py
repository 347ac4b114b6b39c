"""Physical parameters, interaction potentials, and derived coupling constants.

Unit conventions (hbar = 1): energies are measured in units of the trap
frequency ``omega`` and lengths in units of the oscillator length ``x0``
unless stated otherwise.  The defaults ``omega = 1`` and ``x0 = 1`` make all
reported energies dimensionless multiples of the trap frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, UnsupportedVariantError

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class PhysicalParams:
    """Drive, trap, and geometry scales of the tweezer array, each a finite number.

    Parameters
    ----------
    omega : float
        Trap frequency (energy units), must be positive.
    Omega : float
        Laser coupling strength between electronic configurations.
    d : float
        Equilibrium nearest-neighbor distance.
    x0 : float
        Harmonic oscillator length, ``1/sqrt(mass * omega)`` in these units;
        it is the only way to state the atomic mass.
    """

    omega: float = 1.0
    Omega: float = 0.0
    d: float = 1.0
    x0: float = 1.0

    def __post_init__(self):
        for name in ("omega", "Omega", "d", "x0"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if self.omega <= 0:
            raise DomainError(f"trap frequency must be positive, got {self.omega}")
        if self.d <= 0:
            raise DomainError(f"equilibrium distance must be positive, got {self.d}")
        if self.x0 <= 0:
            raise DomainError(f"oscillator length must be positive, got {self.x0}")

    @property
    def nu(self) -> float:
        """Ratio of oscillator length to interatomic distance, x0/d."""
        return self.x0 / self.d


@dataclass(frozen=True)
class PowerLaw:
    """Interaction potential V(r) = c / r**p with integer exponent p > 0."""

    c: float
    p: int

    def __post_init__(self):
        if int(self.p) != self.p or self.p <= 0:
            raise DomainError(f"power-law exponent must be a positive integer, got {self.p}")

    def eval(self, r: float):
        if r <= 0:
            raise DomainError(f"power law evaluated at non-positive distance r={r}")
        v = self.c / r**self.p
        v1 = -self.p * self.c / r ** (self.p + 1)
        v2 = self.p * (self.p + 1) * self.c / r ** (self.p + 2)
        return v, v1, v2


@dataclass(frozen=True)
class PowerLawSum:
    """Termwise sum of power laws; covers Lennard-Jones-type shapes."""

    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise DomainError("PowerLawSum needs at least one term")
        object.__setattr__(self, "terms", tuple(self.terms))
        for t in self.terms:
            if not isinstance(t, PowerLaw):
                raise UnsupportedVariantError(f"PowerLawSum terms must be PowerLaw, got {type(t)!r}")

    def eval(self, r: float):
        v = v1 = v2 = 0.0
        for t in self.terms:
            tv, tv1, tv2 = t.eval(r)
            v += tv
            v1 += tv1
            v2 += tv2
        return v, v1, v2


@dataclass(frozen=True)
class ExplicitCouplings:
    """Coupling constants at the equilibrium distance, pinned directly.

    As an interaction model it bypasses any radial potential, which is needed
    to scan the linear coupling ``kappa`` or curvature ``xi`` as free
    parameters detached from a single potential shape; it is also what
    :func:`derive_couplings` returns.  ``v_d`` is the interaction energy at
    the equilibrium distance, used only for diagonal configuration energies
    (zero if irrelevant).
    """

    kappa: float
    xi: float
    nu: float
    v_d: float = 0.0

    def __post_init__(self):
        if self.nu <= 0:
            raise DomainError(f"nu must be positive, got {self.nu}")


def potential_eval(model, r: float):
    """Evaluate a radial potential and its first two derivatives at ``r``.

    Returns ``(V, V', V'')``.  Raises :class:`DomainError` for ``r <= 0`` and
    :class:`UnsupportedVariantError` for models without a radial form.
    """
    if isinstance(model, ExplicitCouplings):
        raise UnsupportedVariantError("ExplicitCouplings has no radial form to evaluate")
    if r <= 0:
        raise DomainError(f"potential evaluated at non-positive distance r={r}")
    return model.eval(r)


def pair_potential(model, r: float, d: float):
    """``(V, V', V'')`` of a pair at distance ``r`` under any interaction model.

    Radial models are evaluated at ``r``.  Pinned couplings
    (:class:`ExplicitCouplings`) define the interaction only at the nominal
    distance ``d``, where ``V = v_d``,
    ``V' = sqrt(2) kappa / x0`` and ``V'' = 2 xi / x0^2`` with ``x0 = nu d``;
    at any other distance they raise :class:`UnsupportedVariantError`.
    """
    if isinstance(model, ExplicitCouplings):
        if abs(r - d) > 1e-9 * d:
            raise UnsupportedVariantError(
                f"pinned couplings define the interaction only at the nominal distance d={d}; "
                f"a pair sits at r={r}"
            )
        x0 = model.nu * d
        return model.v_d, SQRT2 * model.kappa / x0, 2.0 * model.xi / x0**2
    return potential_eval(model, r)


def derive_couplings(model, params: PhysicalParams) -> ExplicitCouplings:
    """Derive the coupling constants (kappa, xi, nu) from a potential model.

    For radial models, kappa = x0 V'(d)/sqrt(2) and xi = x0^2 V''(d)/2
    evaluated at the equilibrium distance d.  An :class:`ExplicitCouplings`
    model is returned as it is.
    """
    if isinstance(model, ExplicitCouplings):
        return model
    v, v1, v2 = potential_eval(model, params.d)
    kappa = params.x0 * v1 / SQRT2
    xi = params.x0**2 * v2 / 2.0
    return ExplicitCouplings(kappa=kappa, xi=xi, nu=params.nu, v_d=v)

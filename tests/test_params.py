import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vibronic import (
    DomainError,
    ExplicitCouplings,
    PhysicalParams,
    PowerLaw,
    PowerLawSum,
    UnsupportedVariantError,
    derive_couplings,
    potential_eval,
)


def central_differences(model, r, h):
    """Independent derivative oracle for any radial model."""
    vp = potential_eval(model, r + h)[0]
    vm = potential_eval(model, r - h)[0]
    v0 = potential_eval(model, r)[0]
    d1 = (vp - vm) / (2 * h)
    d2 = (vp - 2 * v0 + vm) / h**2
    return d1, d2


def test_power_law_r6_at_unit_distance():
    assert potential_eval(PowerLaw(1.0, 6), 1.0) == (1.0, -6.0, 42.0)


def test_power_law_r6_scaling():
    v, v1, v2 = potential_eval(PowerLaw(1.0, 6), 2.0)
    assert v == 1 / 64
    assert v1 == -6 / 128
    assert v2 == 42 / 256


def test_power_law_sign_flip():
    assert potential_eval(PowerLaw(-1.0, 3), 1.0) == (-1.0, 3.0, -12.0)


def test_power_law_rejects_nonpositive_distance():
    with pytest.raises(DomainError):
        potential_eval(PowerLaw(1.0, 6), 0.0)
    with pytest.raises(DomainError):
        potential_eval(PowerLaw(1.0, 6), -1.0)


def test_explicit_couplings_has_no_radial_form():
    with pytest.raises(UnsupportedVariantError):
        potential_eval(ExplicitCouplings(kappa=-1.0, xi=0.0, nu=0.1), 1.0)


@settings(max_examples=60, deadline=None)
@given(
    c=st.floats(min_value=-10.0, max_value=10.0).filter(lambda x: abs(x) > 1e-3),
    p=st.integers(min_value=1, max_value=12),
    r=st.floats(min_value=0.5, max_value=3.0),
)
def test_analytic_derivatives_match_finite_differences(c, p, r):
    model = PowerLaw(c, p)
    v, v1, v2 = potential_eval(model, r)
    h = 1e-5 * r
    d1, d2 = central_differences(model, r, h)
    # the three-point second difference cannot resolve below its own float64
    # cancellation floor, ~eps |V| / h^2
    noise = 8 * 2.3e-16 * abs(v) / h**2
    assert v1 == pytest.approx(d1, rel=1e-6, abs=1e-9)
    assert v2 == pytest.approx(d2, rel=1e-6, abs=max(1e-9, noise))


def test_power_law_sum_is_termwise():
    lj = PowerLawSum((PowerLaw(1.0, 12), PowerLaw(-2.0, 6)))
    v, v1, v2 = potential_eval(lj, 1.3)
    va, v1a, v2a = potential_eval(PowerLaw(1.0, 12), 1.3)
    vb, v1b, v2b = potential_eval(PowerLaw(-2.0, 6), 1.3)
    assert v == pytest.approx(va + vb, rel=1e-14)
    assert v1 == pytest.approx(v1a + v1b, rel=1e-14)
    assert v2 == pytest.approx(v2a + v2b, rel=1e-14)


def test_derive_couplings_from_power_law():
    # kappa = x0 V'(d)/sqrt(2), xi = x0^2 V''(d)/2 with V = r^-6, d = 1, x0 = 0.1:
    # frozen from the finite-difference oracle below.
    params = PhysicalParams(omega=1.0, d=1.0, x0=0.1)
    model = PowerLaw(1.0, 6)
    coup = derive_couplings(model, params)
    assert coup.kappa == pytest.approx(-0.42426406871192851, rel=1e-12)
    assert coup.xi == pytest.approx(0.21, rel=1e-12)
    assert coup.nu == pytest.approx(0.1, rel=1e-15)
    assert coup.v_d == pytest.approx(1.0, rel=1e-15)

    d1, d2 = central_differences(model, 1.0, 1e-5)
    assert coup.kappa == pytest.approx(0.1 * d1 / math.sqrt(2), rel=1e-6)
    assert coup.xi == pytest.approx(0.01 * d2 / 2, rel=1e-4)


def test_derive_couplings_passthrough():
    model = ExplicitCouplings(kappa=-1.0, xi=0.0, nu=0.1, v_d=2.5)
    coup = derive_couplings(model, PhysicalParams())
    assert coup == ExplicitCouplings(kappa=-1.0, xi=0.0, nu=0.1, v_d=2.5)


def test_stationary_point_gives_zero_kappa():
    # Lennard-Jones-type sum with V'(1) = 0: V = r^-12 - 2 r^-6.
    lj = PowerLawSum((PowerLaw(1.0, 12), PowerLaw(-2.0, 6)))
    coup = derive_couplings(lj, PhysicalParams(d=1.0, x0=0.1))
    assert coup.kappa == pytest.approx(0.0, abs=1e-14)
    assert coup.xi > 0  # curvature at the well bottom


def test_nu_holds_for_every_constructor_path():
    assert PhysicalParams(omega=1.0, d=2.0, x0=0.5).nu == 0.25
    assert PhysicalParams(d=4.0).nu == 0.25  # default x0 = 1


def test_parameter_validation():
    with pytest.raises(DomainError):
        PhysicalParams(omega=-1.0)
    with pytest.raises(DomainError):
        PhysicalParams(d=0.0)
    with pytest.raises(DomainError):
        PowerLaw(1.0, 0)
    with pytest.raises(DomainError):
        ExplicitCouplings(kappa=1.0, xi=0.0, nu=-0.5)


@pytest.mark.parametrize("field", ["omega", "Omega", "d", "x0"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_parameters_must_be_finite(field, value):
    # a NaN drive once reached the Fock solver and failed there as a raw
    # LinAlgError, and an infinite x0 passed the positivity check
    with pytest.raises(DomainError, match=f"{field} must be finite"):
        PhysicalParams(**{field: value})

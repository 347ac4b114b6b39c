import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad

from vibronic import (
    CriticalBoundaryError,
    DomainError,
    InstabilityError,
    bogoliubov_w,
    critical_points,
    epsilon2,
    epsilon4,
    perpendicular_xi_eff,
    quantum_correction,
    wigner,
    wigner_widths,
    zero_point_correction,
)

SQRT2 = math.sqrt(2.0)


def oscillator_level_spacing(omega, xi_eff, cutoff=160):
    """Independent oracle: E1 - E0 of omega b'b + xi_eff (b+b')^2 by dense ED."""
    n = np.arange(cutoff)
    h = np.diag(omega * n)
    x = np.zeros((cutoff, cutoff))
    sq = np.sqrt(n[1:])
    x[np.arange(cutoff - 1), np.arange(1, cutoff)] = sq
    x[np.arange(1, cutoff), np.arange(cutoff - 1)] = sq
    h = h + xi_eff * (x @ x)
    vals = np.linalg.eigvalsh(h)
    return vals[1] - vals[0]


def test_bogoliubov_identity_limit():
    sol = bogoliubov_w(1.0, 0.0)
    assert sol.w == 0.0
    assert sol.omega_tilde == 1.0
    assert sol.exists


def test_bogoliubov_quarter_curvature():
    sol = bogoliubov_w(1.0, 0.25)
    assert sol.w == pytest.approx(3.0 - math.sqrt(8.0), rel=1e-14)
    # transformed frequency cross-checked against the numeric level spacing
    assert sol.omega_tilde == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert sol.omega_tilde == pytest.approx(oscillator_level_spacing(1.0, 0.25), rel=1e-10)


def test_bogoliubov_negative_curvature_level_spacing():
    sol = bogoliubov_w(1.0, -0.2)
    assert sol.exists and sol.w < 0
    assert sol.omega_tilde == pytest.approx(math.sqrt(0.2), rel=1e-12)
    assert sol.omega_tilde == pytest.approx(oscillator_level_spacing(1.0, -0.2), rel=1e-8)


def test_bogoliubov_nonexistence_is_data():
    assert not bogoliubov_w(1.0, -0.3).exists
    assert not bogoliubov_w(1.0, -0.25).exists  # boundary included
    with pytest.raises(DomainError):
        bogoliubov_w(-1.0, 0.1)


@settings(max_examples=80, deadline=None)
@given(xi_eff=st.floats(min_value=-0.2499, max_value=5.0).filter(lambda x: abs(x) > 1e-6))
def test_frequency_identity(xi_eff):
    # omega (1+w)/(1-w) equals omega sqrt(1 - xibar) with xibar = xi_eff/xi_c
    sol = bogoliubov_w(1.0, xi_eff)
    xibar = xi_eff / (-0.25)
    assert sol.omega_tilde == pytest.approx(math.sqrt(1.0 - xibar), rel=1e-12)
    assert abs(sol.w) < 1.0


def test_critical_points_values():
    xi_c, kappa_c = critical_points(1.0, 0.1)
    assert xi_c == -0.25
    assert kappa_c == pytest.approx(-3.5355339059327378, rel=1e-14)
    # large nu pushes the linear-coupling instability toward zero from below
    assert -1e-6 < critical_points(1.0, 1e7)[1] < 0


def test_epsilon2_values():
    assert epsilon2(0.0, 0.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert epsilon2(0.5, 0.0, 1.0) == pytest.approx(-0.5, rel=1e-14)
    # frozen: -0.25 + sqrt(2)/2 - 0.5
    assert epsilon2(0.5, 0.25, 1.0) == pytest.approx(-0.04289321881345243, rel=1e-12)


def test_epsilon2_pure_displacement_is_exact():
    for kappa in (0.1, 0.7, 1.3):
        assert epsilon2(kappa, 0.0, 1.0) == pytest.approx(-2 * kappa**2, rel=1e-14)


def test_epsilon4_values():
    assert epsilon4(0.0, 0.0, 1.0, 0.1) == pytest.approx(0.0, abs=1e-15)
    # frozen: -2 + 0.5 + sqrt(1 - 1/3.5355339059327378...) - 1.5
    assert epsilon4(-1.0, 0.0, 1.0, 0.1) == pytest.approx(-2.1531486036349823, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    kappa=st.floats(min_value=-3.0, max_value=3.0),
    xi=st.floats(min_value=-0.2, max_value=1.0),
    nu=st.floats(min_value=0.05, max_value=1.0),
)
def test_epsilon_difference_structure(kappa, xi, nu):
    _, kappa_c = critical_points(1.0, nu)
    kappabar = kappa / kappa_c
    if kappabar >= 1.0 - 1e-9:
        return
    diff = epsilon4(kappa, xi, 1.0, nu) - epsilon2(kappa, xi, 1.0)
    assert diff == pytest.approx(math.sqrt(1.0 - kappabar) - 1.0, rel=1e-12, abs=1e-12)


def test_instability_errors_are_typed():
    with pytest.raises(InstabilityError):
        epsilon2(0.1, -0.3, 1.0)  # xibar = 1.2
    with pytest.raises(CriticalBoundaryError):
        epsilon2(0.1, -0.25, 1.0)  # exactly critical
    _, kappa_c = critical_points(1.0, 0.1)
    with pytest.raises(CriticalBoundaryError):
        epsilon4(kappa_c, 0.0, 1.0, 0.1)
    with pytest.raises(InstabilityError):
        epsilon4(1.5 * kappa_c, 0.0, 1.0, 0.1)
    # the boundary error is a kind of instability error
    assert issubclass(CriticalBoundaryError, InstabilityError)


def test_wigner_vacuum_peak():
    assert wigner(0.0, 0.0) == pytest.approx(2.0 / math.pi, rel=1e-15)


def test_wigner_width_example():
    w_plus, w_minus = wigner_widths(-1.0 / 3.0)
    assert w_plus == pytest.approx(1.0, rel=1e-14)
    assert w_minus == pytest.approx(4.0, rel=1e-14)


@pytest.mark.parametrize("w", [0.0, 0.3, -0.3, 0.9, -0.9])
def test_wigner_normalization_by_quadrature(w):
    # independent oracle: adaptive 2D quadrature of the distribution
    total, err = dblquad(
        lambda ai, ar: wigner(w, complex(ar, ai)),
        -np.inf,
        np.inf,
        -np.inf,
        np.inf,
        epsabs=1e-10,
    )
    assert total == pytest.approx(1.0, abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(w=st.floats(min_value=-0.999, max_value=0.999))
def test_wigner_width_product_is_area_preserving(w):
    w_plus, w_minus = wigner_widths(w)
    assert w_plus * w_minus == pytest.approx(4.0, rel=1e-12)


def test_wigner_domain_error():
    with pytest.raises(DomainError):
        wigner(1.0, 0.0)
    with pytest.raises(DomainError):
        wigner_widths(-1.2)


def test_squeezing_grows_toward_the_instability():
    # perpendicular curvature at kappa = kbar * kappa_c is kbar * xi_c for any nu
    widths = []
    for kbar in (0.5, 0.9, 0.99):
        _, kappa_c = critical_points(1.0, 0.1)
        xi_eff = perpendicular_xi_eff(kbar * kappa_c, 0.1)
        assert xi_eff == pytest.approx(kbar * (-0.25), rel=1e-12)
        sol = bogoliubov_w(1.0, xi_eff)
        widths.append(wigner_widths(sol.w)[1])
    assert widths[0] < widths[1] < widths[2]


def test_quantum_correction_values():
    assert quantum_correction(0.0, 0.0, 1.0, 0.1) == pytest.approx(0.0, abs=1e-15)
    # xibar = -1 at xi = 0.25; kappabar = -1 at kappa = -kappa_c
    _, kappa_c = critical_points(1.0, 0.1)
    value = quantum_correction(-kappa_c, 0.25, 1.0, 0.1)
    assert value == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-13)


def test_zero_point_correction_mode_counts():
    kappa, xi, nu = -0.3, 0.05, 0.5
    xi_c, kappa_c = critical_points(1.0, nu)
    xibar, kappabar = xi / xi_c, kappa / kappa_c
    base = 0.5 * (math.sqrt(1 - xibar) - 1)
    perp = 0.5 * (math.sqrt(1 - kappabar) - 1)
    assert zero_point_correction(kappa, xi, 1.0, nu, 0) == pytest.approx(base, rel=1e-13)
    assert zero_point_correction(kappa, xi, 1.0, nu, 1) == pytest.approx(base + perp, rel=1e-13)
    assert zero_point_correction(kappa, xi, 1.0, nu, 2) == pytest.approx(base + 2 * perp, rel=1e-13)
    assert zero_point_correction(kappa, xi, 1.0, nu, 1) == pytest.approx(
        quantum_correction(kappa, xi, 1.0, nu), rel=1e-14
    )

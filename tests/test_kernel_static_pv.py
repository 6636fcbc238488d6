"""Static (x = y = 0) principal-value ratio and its limits."""

import math

import pytest

from diamag.core import DimensionlessPoint, RegimeTag
from diamag.errors import DomainError
from diamag.kernel import chi_ratio, chi_static_pv, eval_integrals


def test_reference_value_at_unit_wavenumber():
    # 4 + (3/4)(2/3 - 3.5 + 1.125 ln(1/3)), frozen at 60 digits
    assert math.isclose(chi_static_pv(1.0), 0.948045881436282447885, rel_tol=1e-14)


def test_landau_limit_small_wavenumber():
    assert abs(chi_static_pv(1e-3) - 1.0) < 1e-6
    assert math.isclose(chi_static_pv(0.1), 1.0 - 0.1**2 / 20.0, rel_tol=1e-6)
    assert math.isclose(chi_static_pv(0.1), 0.999499821279592575051, rel_tol=1e-13)


def test_quadratic_residual_coefficient():
    # chi = 1 - q^2/20 + O(q^4): residual tracks -q^2/20 to 1% for q <= 0.05
    for q in (0.05, 0.02, 0.01, 0.005):
        residual = chi_static_pv(q) - 1.0
        assert math.isclose(residual, -q * q / 20.0, rel_tol=1e-2)


def test_upper_edge_exact_value():
    assert chi_static_pv(2.0) == 0.75


def test_near_upper_edge():
    assert math.isclose(chi_static_pv(1.9), 0.782896180296285183405, rel_tol=1e-13)


def test_monotone_decreasing_in_wavenumber():
    qs = [0.02 * i for i in range(1, 100)]
    values = [chi_static_pv(q) for q in qs]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_domain_bounds():
    with pytest.raises(DomainError):
        chi_static_pv(0.0)
    with pytest.raises(DomainError):
        chi_static_pv(2.5)
    with pytest.raises(DomainError):
        chi_static_pv(-1.0)


def test_static_point_beyond_pv_window_uses_closed_form():
    # poles leave the unit interval for q > 2; same expression, no PV reading
    result = chi_ratio(DimensionlessPoint(x=0.0, y=0.0, q=3.0))
    assert math.isclose(result.total.real, 0.401958514545651009149, rel_tol=1e-13)
    assert result.total.imag == 0.0
    assert result.method is RegimeTag.PV_STATIC


def test_pv_matches_boundary_closed_form():
    # the Sokhotski half-residue contributions cancel pairwise: the y = 0
    # boundary value of the closed forms must land on the PV result
    for q in (0.5, 1.0, 1.5, 1.99):
        bd = eval_integrals(complex(0.0, 0.0), q)
        boundary = (bd.term2 + bd.term3).real
        assert math.isclose(boundary, chi_static_pv(q), rel_tol=1e-10)
        assert abs((bd.term2 + bd.term3).imag) < 1e-13 * abs(boundary)


def test_static_ratio_via_chi_ratio_dispatch():
    result = chi_ratio(DimensionlessPoint(x=0.0, y=0.0, q=1.0))
    assert result.method is RegimeTag.PV_STATIC
    assert result.classic == 0j
    assert result.err_est == 0.0
    assert math.isclose(result.total.real, 0.948045881436282447885, rel_tol=1e-14)


# x = y = 0 beyond q = 2, frozen from 4/q^2 + (3/(2 q^3)) g(q/2) at 60 digits
# (mpmath). Assembled from eval_integrals(0, q), where g(+-q/2) cancels about
# 4 log10(q/2) digits, the value was 2.3e-12, 8.6e-9 and 3.1e-6 relative off
# here with err_est = 0.
STATIC_LARGE_Q_REFERENCES = [
    (1e2, 0.0003999679981711847175662),
    (1e3, 0.000003999996799998171426133),
    (1e4, 3.999999967999999817143e-8),
]


@pytest.mark.parametrize("q, ref", STATIC_LARGE_Q_REFERENCES)
def test_static_point_at_large_q_matches_frozen_reference(q, ref):
    result = chi_ratio(DimensionlessPoint(x=0.0, y=0.0, q=q))
    assert result.method is RegimeTag.PV_STATIC
    assert result.classic == 0j
    assert result.total.imag == 0.0
    assert abs(result.total.real - ref) <= 1e-14 * ref

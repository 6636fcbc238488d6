"""Static (x = y = 0) principal-value ratio and its limits."""

import math
import random
import sys

import pytest

from diamag import kernel
from diamag.core import DimensionlessPoint, RegimeTag
from diamag.errors import DomainError
from diamag.kernel import _closed_pieces, chi_ratio, chi_static_pv
from diamag.verify import _honesty

EPS = sys.float_info.epsilon


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
        (_, bracket, g_plus, g_minus, _), _ = _closed_pieces(0j, q)
        raw = 3.0 / q * (bracket / q) + 0.75 * ((g_plus - g_minus) / q**3)
        assert math.isclose(raw.real, chi_static_pv(q), rel_tol=1e-10)
        assert abs(raw.imag) < 1e-13 * abs(raw.real)


def test_static_ratio_via_chi_ratio_dispatch():
    result = chi_ratio(DimensionlessPoint(x=0.0, y=0.0, q=1.0))
    assert result.method is RegimeTag.PV_STATIC
    assert result.classic == 0j
    assert math.isclose(result.total.real, 0.948045881436282447885, rel_tol=1e-14)
    # from the seam up the closed form serves, every piece from its closed
    # form, so with err_est 0; frozen at 60 digits
    result = chi_ratio(DimensionlessPoint(x=0.0, y=0.0, q=1.9))
    assert result.method is RegimeTag.PV_STATIC
    assert result.err_est == 0.0
    assert math.isclose(result.total.real, 0.782896180296285183405, rel_tol=1e-14)


# x = y = 0 beyond q = 2, frozen from 4/q^2 + (3/(2 q^3)) g(q/2) at 60 digits
# (mpmath). Assembled from the raw closed form at (0, q), where g(+-q/2)
# cancels about 4 log10(q/2) digits, the value was 2.3e-12, 8.6e-9 and
# 3.1e-6 relative off here with err_est = 0.
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


# x = y = 0 below q = 1/2, frozen from the static formula at 80 digits
# (mpmath). The value there is the shifted-difference Taylor series about
# s = 0, Landau's 1 - q^2/20 - q^4/560 - ...; a separately summed power series
# of the same function was 2.7e-16, 2.6e-16 and 2.3e-16 relative off.
STATIC_SMALL_Q_REFERENCES = [
    (0.38809098739046916, 0.992428243458043189909507),
    (0.3675923205837739, 0.9932108169012249946192612),
    (0.13471529781804917, 0.9990920003968443100166971),
]


@pytest.mark.parametrize("q, ref", STATIC_SMALL_Q_REFERENCES)
def test_static_point_below_half_is_the_taylor_series(q, ref):
    result = chi_ratio(DimensionlessPoint(x=0.0, y=0.0, q=q))
    assert result.method is RegimeTag.PV_STATIC
    assert result.classic == 0j
    assert result.total.imag == 0.0
    assert abs(result.total.real - ref) <= 1e-16 * ref
    assert chi_static_pv(q) == result.total.real


def test_static_points_from_half_to_two_hold_the_exact_reference():
    # every static point is the Taylor series or the closed form, each within
    # its err_est and the rounding of a few operations
    rng = random.Random(35)
    points = [DimensionlessPoint(0.0, 0.0, rng.uniform(0.5, 2.0)) for _ in range(300)]
    for point, ratio in zip(points, _honesty(points)):
        assert ratio <= 1.0, point


def test_static_pv_is_chi_ratio_at_the_static_point():
    rng = random.Random(36)
    qs = [2.0, 0.5, kernel._STATIC_SEAM]
    qs += [10.0 ** rng.uniform(-9.0, math.log10(2.0)) for _ in range(200)]
    for q in qs:
        assert chi_static_pv(q) == chi_ratio(DimensionlessPoint(0.0, 0.0, q)).total.real, q


def test_static_value_is_continuous_across_the_seam():
    # one ulp below the seam the Taylor series serves, one ulp above it the
    # closed form
    below = chi_ratio(DimensionlessPoint(0.0, 0.0, math.nextafter(kernel._STATIC_SEAM, 0.0)))
    above = chi_ratio(DimensionlessPoint(0.0, 0.0, math.nextafter(kernel._STATIC_SEAM, 2.0)))
    bound = below.err_est + above.err_est + 8.0 * EPS
    assert below.err_est > 0.0 and above.err_est == 0.0
    assert abs(below.total - above.total) <= bound

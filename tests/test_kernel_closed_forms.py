"""The antiderivative log kernel and the three angular integrals.

Reference values were frozen from 60-digit arithmetic and from direct
tanh-sinh quadrature of the defining integrals.
"""

import cmath
import math

from diamag.core import DimensionlessPoint
from diamag.kernel import _branch_log, chi_ratio_detailed
from diamag.oracle import chi_ratio_quadrature


def _breakdown(x: float, y: float, q: float):
    return chi_ratio_detailed(DimensionlessPoint(x, y, q))[1]


def _total(bd) -> complex:
    return bd.term1 + bd.term2 + bd.term3


class TestBranchLog:
    def test_at_i(self):
        # (i-1)/(i+1) = i exactly, log(i) = i pi/2
        one_ms2, value = _branch_log(1j)
        assert one_ms2 == 2.0
        assert value.real == 0.0
        assert math.isclose(value.imag, math.pi / 2.0, rel_tol=1e-15)

    def test_at_2i(self):
        value = _branch_log(2j)[1]
        assert abs(value.real) < 1e-16
        assert math.isclose(value.imag, 0.927295218001612232429, rel_tol=1e-14)

    def test_interval_boundary_value_carries_i_pi(self):
        # real |sigma| < 1 approached from above: log((1-sigma)/(1+sigma)) + i pi
        for sigma in (0.0, 0.5, -0.7):
            value = _branch_log(complex(sigma, 0.0))[1]
            expected_real = math.log((1.0 - sigma) / (1.0 + sigma))
            assert math.isclose(value.real, expected_real, rel_tol=1e-14, abs_tol=1e-15)
            assert math.isclose(value.imag, math.pi, rel_tol=1e-15)

    def test_real_outside_interval(self):
        value = _branch_log(complex(100.0, 0.0))[1]
        assert value.imag == 0.0
        assert math.isclose(value.real, math.log(99.0 / 101.0), rel_tol=1e-13)
        assert math.isclose(value.real, -0.0200006667066695240318, rel_tol=1e-13)

    def test_matches_large_argument_asymptote(self):
        sigma = complex(40.0, 30.0)
        asym = -2.0 / sigma - 2.0 / (3.0 * sigma**3)
        assert abs(_branch_log(sigma)[1] - asym) < abs(asym) * 1e-6

    def test_poles_give_zero_factor_and_zero_log(self):
        # the one pole check: every log term carries 1 - sigma^2 and takes
        # its limit 0 at sigma = +-1
        assert _branch_log(complex(1.0, 0.0)) == (0, 0)
        assert _branch_log(complex(-1.0, 0.0)) == (0, 0)


class TestIntegralsClosedForm:
    def test_first_integral_at_unit_imaginary(self):
        bd = _breakdown(0.0, 1.0, 1.0)
        expected = complex(0.0, math.pi - 2.0)
        assert abs(bd.I1 - expected) < 1e-14

    def test_second_integral_at_unit_imaginary(self):
        bd = _breakdown(0.0, 1.0, 1.0)
        expected = 10.0 / 3.0 - math.pi
        assert abs(bd.I2 - expected) < 1e-14

    def test_first_integral_far_from_interval(self):
        bd = _breakdown(0.0, 10.0, 1.0)
        assert abs(bd.I1.real) < 1e-15
        # frozen from direct quadrature; sits within O(1/z^3) of the
        # asymptote -(4/3)/z = 0.1333...i
        assert math.isclose(bd.I1.imag, 0.133067803214729530446, rel_tol=1e-11)
        assert abs(bd.I1.imag - 4.0 / 30.0) < 3e-4

    def test_third_integral_real_on_static_line(self):
        for y, q in ((0.3, 0.7), (1.0, 1.0), (0.05, 1.6)):
            bd = _breakdown(0.0, y, q)
            assert bd.I3.imag == 0.0

    def test_weighted_terms_definition(self):
        x, q = 0.4, 0.8
        bd = _breakdown(x, 0.2, q)
        assert cmath.isclose(bd.term1, -3.0 * x / q**2 * bd.I1, rel_tol=1e-15)
        assert cmath.isclose(bd.term2, 3.0 / q * bd.I2, rel_tol=1e-15)
        assert cmath.isclose(bd.term3, 0.75 * bd.I3, rel_tol=1e-15)

    def test_classical_term_zero_at_zero_frequency(self):
        bd = _breakdown(0.0, 0.25, 0.9)
        assert bd.term1 == 0j

    def test_pole_on_the_contour_edge_takes_the_limit(self):
        # y = 0 with s = 1: the pole sits on the contour edge t = 1, where the
        # log terms take their limit (1 - s^2) L(s) -> 0
        bd = _breakdown(0.5, 0.0, 0.5)
        lifted = _breakdown(0.5, 1e-300, 0.5)
        for name in ("I1", "I2", "I3"):
            got, want = getattr(bd, name), getattr(lifted, name)
            assert abs(got - want) <= 1e-15 * abs(want), name
        want = chi_ratio_quadrature(DimensionlessPoint(0.5, 0.0, 0.5)).total
        assert abs(_total(bd) - want) <= 1e-14 * abs(want)

    def test_poles_inside_the_contour_give_the_upper_limit(self):
        # y = 0, pole projection at t = 0.5 inside [-1, 1]: the closed forms
        # give the limit y -> 0+, which the contour oracle also returns
        bd = _breakdown(0.25, 0.0, 0.5)
        want = chi_ratio_quadrature(DimensionlessPoint(0.25, 0.0, 0.5)).total
        assert abs(_total(bd) - want) <= 1e-14 * abs(want)
        # any y > 0 lifts the poles off the contour, continuously
        lifted = _total(_breakdown(0.25, 1e-9, 0.5))
        assert abs(lifted - want) <= 1e-7 * abs(want)

    def test_collisionless_poles_outside_are_fine(self):
        bd = _breakdown(5.0, 0.0, 0.1)
        total = bd.term1 + bd.term2 + bd.term3
        assert total.imag == 0.0
        assert math.isfinite(total.real)

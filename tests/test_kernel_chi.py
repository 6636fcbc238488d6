"""Full susceptibility ratio: frozen values, split, the collisionless line.

Frozen references were generated at 60 decimal digits from the closed forms
and double-checked against direct quadrature of the defining integrals.
"""

import math

import pytest

from diamag.core import DimensionlessPoint, RegimeTag
from diamag.oracle import chi_ratio_quadrature
from diamag.kernel import chi_ratio, chi_ratio_detailed

FROZEN_STATIC_LINE = [
    # (y, q, chi/chi_L)
    (1.0, 0.05, 1.24554676115485287122e-6),
    (0.1, 0.5, 0.59603149146547214354),
    (0.001, 1.9, 0.78165706604099969342),
    (0.01, 0.01, 0.0719021299071757452119),
    (0.001, 0.001, 0.0719027486538278703979),
    (1e-10, 1.0, 0.948045881200662998888),
]


@pytest.mark.parametrize("y,q,expected", FROZEN_STATIC_LINE)
def test_frozen_static_line_values(y, q, expected):
    result = chi_ratio(DimensionlessPoint(x=0.0, y=y, q=q))
    assert math.isclose(result.total.real, expected, rel_tol=1e-9)
    assert result.total.imag == 0.0
    assert result.classic == 0j


def test_frozen_finite_frequency_value():
    result = chi_ratio(DimensionlessPoint(x=0.1, y=0.1, q=0.5))
    expected = complex(1.89183143042580934541, -5.36157024406836752973)
    assert abs(result.total - expected) < 1e-12 * abs(expected)


def test_split_is_exact_by_construction():
    for x, y, q in ((0.1, 0.1, 0.5), (0.5, 0.01, 1.0), (0.0, 0.3, 1.3)):
        result = chi_ratio(DimensionlessPoint(x=x, y=y, q=q))
        assert result.total == result.classic + result.quant


def test_term_breakdown_matches_total_in_direct_regime():
    for x, y, q in ((0.1, 0.1, 0.5), (0.5, 1.0, 1.9), (0.3, 0.02, 1.0)):
        point = DimensionlessPoint(x=x, y=y, q=q)
        result = chi_ratio(point)
        assert result.method is RegimeTag.CLOSED_FORM
        bd = chi_ratio_detailed(point)[1]
        raw = bd.term1 + bd.term2 + bd.term3
        assert abs(raw - result.total) <= 1e-14 * abs(result.total)


def test_classical_part_nonzero_at_finite_frequency():
    result = chi_ratio(DimensionlessPoint(x=0.5, y=0.1, q=1.0))
    assert abs(result.classic) > 0.1
    assert abs(result.classic.imag) > 0.0


def test_collisionless_with_interior_pole_is_the_upper_limit():
    # y = 0, x > 0 with the pole projection inside the integration range:
    # the kernel returns the limit y -> 0+, as the contour oracle does
    point = DimensionlessPoint(x=0.25, y=0.0, q=0.5)
    result = chi_ratio(point)
    lifted = chi_ratio(DimensionlessPoint(x=0.25, y=1e-300, q=0.5))
    assert abs(result.total - lifted.total) <= 1e-15 * abs(lifted.total)
    want = chi_ratio_quadrature(point).total
    assert abs(result.total - want) <= 1e-14 * abs(want)
    # Landau damping: the pole inside [-1, 1] gives an absorptive part
    assert result.total.imag != 0.0


def test_collisionless_with_poles_outside_evaluates():
    result = chi_ratio(DimensionlessPoint(x=5.0, y=0.0, q=0.1))
    assert result.total.imag == 0.0
    assert math.isfinite(result.total.real)


def test_closed_form_err_est_is_zero():
    result = chi_ratio(DimensionlessPoint(x=0.1, y=0.1, q=0.5))
    assert result.err_est == 0.0


def test_series_err_est_bounds_actual_truncation():
    # compare the series value against the frozen 60-digit reference
    point = DimensionlessPoint(x=0.0, y=0.01, q=0.01)
    result = chi_ratio(point)
    assert result.method is RegimeTag.TAYLOR_SERIES
    true_error = abs(result.total.real - 0.0719021299071757452119)
    assert true_error <= max(result.err_est, 1e-13)

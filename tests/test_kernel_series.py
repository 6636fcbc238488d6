"""Series evaluation paths and their agreement with the closed forms.

The closed forms cancel catastrophically at small q (intermediates grow as
1/q^3 while the result stays O(1)), so agreement checks compare against
references frozen from 60-digit arithmetic; the raw double-precision closed
form is held only to the accuracy its conditioning permits.
"""

import math

import pytest

from diamag.core import DimensionlessPoint, RegimeTag
from diamag.kernel import _laurent_result, chi_ratio, eval_integrals

OVERLAP_WINDOW = [
    # (q, chi(0, 1e-6, q)) frozen at 60 digits
    (1e-3, 0.997645755508955869878),
    (2e-3, 0.998822202754962756121),
    (5e-3, 0.999527591100993857784),
    (1e-2, 0.999759400533273375979),
]


@pytest.mark.parametrize("q,expected", OVERLAP_WINDOW)
def test_series_matches_true_value_in_overlap_window(q, expected):
    result = chi_ratio(DimensionlessPoint(x=0.0, y=1e-6, q=q))
    assert result.method is RegimeTag.TAYLOR_SERIES
    assert math.isclose(result.total.real, expected, rel_tol=1e-9)


@pytest.mark.parametrize("q,expected", OVERLAP_WINDOW)
def test_raw_closed_form_agrees_within_its_conditioning(q, expected):
    # intermediates ~0.75 pi/q^3 against an O(1) result: ~9 digits cancel at
    # q = 1e-3, so the double-precision boundary sum holds ~1e-6 at worst
    bd = eval_integrals(complex(0.0, 1e-6), q)
    raw = (bd.term2 + bd.term3).real
    assert math.isclose(raw, expected, rel_tol=1e-5)


def test_static_branch_value():
    result = chi_ratio(DimensionlessPoint(x=0.0, y=1e-12, q=0.05))
    assert abs(result.total.real - 0.999875) < 1e-6
    assert result.total.imag == 0.0


class TestCollisionDominatedCancellation:
    """q -> 0 at fixed y: both leading orders of term2 and term3 cancel."""

    # frozen 60-digit term2 at x = 0, y = 0.1; the two-term prediction is
    # 4/(5 y^2) - (12/35) q^2/y^4 with next order (12/63) q^4/y^6
    CASES = [
        (1e-3, 79.9965716190354986746, 1.999714318994e-9),
        (3e-3, 79.9691582768834241809, 1.61791932444029e-7),
    ]

    @pytest.mark.parametrize("q,term2_ref,quant_ref", CASES)
    def test_term2_leading_structure(self, q, term2_ref, quant_ref):
        y = 0.1
        predicted = 4.0 / (5.0 * y * y) - (12.0 / 35.0) * q * q / y**4
        next_order = (12.0 / 63.0) * q**4 / y**6
        assert abs(term2_ref - predicted) < 1.1 * next_order

    @pytest.mark.parametrize("q,term2_ref,quant_ref", CASES)
    def test_both_orders_cancel_in_the_sum(self, q, term2_ref, quant_ref):
        result = chi_ratio(DimensionlessPoint(x=0.0, y=0.1, q=q))
        # the survivor is O(q^4/y^4), a factor ~(q/y)^2 below the canceled
        # O(q^2/y^4) term2 correction
        assert math.isclose(result.total.real, quant_ref, rel_tol=1e-6)
        assert abs(result.total.real) < 1e-4 * abs(term2_ref)
        leading = q**4 / (5.0 * 0.1**4)
        assert math.isclose(result.total.real, leading, rel_tol=0.02)


def test_asymptotic_and_direct_agree_in_overlap():
    # |s| = 3.33: far enough out for the asymptotic branch, still
    # well-conditioned for the direct closed form
    point = DimensionlessPoint(x=0.0, y=4.0, q=1.2)
    direct = chi_ratio(point)
    series = _laurent_result(point)
    assert direct.method is RegimeTag.CLOSED_FORM
    assert series.method is RegimeTag.LAURENT_SERIES
    assert abs(direct.total - series.total) <= 1e-11 * abs(direct.total)


def test_finite_frequency_asymptotic_value():
    # |s| = 63: mandatory asymptotic regime, classical part dominant
    result = chi_ratio(DimensionlessPoint(x=3.0, y=1.0, q=0.05))
    expected = complex(1440.04319969421539534, -480.062408138595653387)
    assert result.method is RegimeTag.LAURENT_SERIES
    assert abs(result.total - expected) < 1e-12 * abs(expected)
    assert abs(result.classic) > abs(result.quant)


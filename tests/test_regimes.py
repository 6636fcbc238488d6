"""Regime selection: deterministic windows, the far field and cancellation
escalation."""

import math
import random

import pytest

from diamag.core import DimensionlessPoint
from diamag.kernel import RegimeTag, chi_ratio, regime_select
from diamag.verify import _honesty


def test_static_pv_window():
    assert regime_select(DimensionlessPoint(0.0, 0.0, 0.5)) is RegimeTag.PV_STATIC
    assert regime_select(DimensionlessPoint(0.0, 0.0, 3.0)) is RegimeTag.PV_STATIC


def test_smallq_static_series_window():
    assert (
        regime_select(DimensionlessPoint(0.0, 1e-8, 1e-4))
        is RegimeTag.TAYLOR_SERIES
    )


def test_direct_window():
    assert (
        regime_select(DimensionlessPoint(0.1, 0.1, 0.5))
        is RegimeTag.CLOSED_FORM
    )


def test_large_s_window():
    # |s| = 60: deep in the far field
    assert (
        regime_select(DimensionlessPoint(0.0, 60.0, 1.0))
        is RegimeTag.LAURENT_SERIES
    )


def test_pv_window_boundary_is_strict():
    assert regime_select(DimensionlessPoint(0.0, 0.0, 1.0)) is RegimeTag.PV_STATIC
    # the smallest positive y leaves the static line
    assert regime_select(DimensionlessPoint(0.0, 5e-324, 1.0)) is not RegimeTag.PV_STATIC


def test_value_continuous_across_smallq_seam():
    # a step of 2e-12 relative across q = 1e-3 moves the value by less than 1e-12
    q_edge = 1e-3
    below = chi_ratio(DimensionlessPoint(0.0, 1e-8, q_edge * (1.0 - 1e-12)))
    above = chi_ratio(DimensionlessPoint(0.0, 1e-8, q_edge * (1.0 + 1e-12)))
    assert abs(below.total - above.total) < 1e-12 * abs(above.total)


def test_selection_is_deterministic():
    points = [
        DimensionlessPoint(0.0, 0.0, 1.0),
        DimensionlessPoint(0.0, 1e-9, 1e-5),
        DimensionlessPoint(0.2, 0.3, 0.9),
        DimensionlessPoint(0.0, 80.0, 1.0),
    ]
    first = [regime_select(p) for p in points]
    second = [regime_select(p) for p in points]
    assert first == second


def test_quant_suppression_forces_escalation_at_moderate_s():
    # at |s| = 8 the two quantum terms cancel to ~q^4/(5 y^4) of their size;
    # the point lies in the far field, where the Laurent series takes it
    # without running the guard
    p = DimensionlessPoint(0.0, 8.0, 1.0)
    assert regime_select(p) is RegimeTag.LAURENT_SERIES


def test_cancellation_escalates_to_series():
    # q = y = 0.01: the direct form loses ~7 digits, so evaluation escalates
    p = DimensionlessPoint(0.0, 0.01, 0.01)
    result = chi_ratio(p)
    assert result.method is RegimeTag.TAYLOR_SERIES


def test_method_matches_regime_for_literal_windows():
    cases = [
        (DimensionlessPoint(0.0, 0.0, 1.0), RegimeTag.PV_STATIC),
        (DimensionlessPoint(0.0, 1e-9, 1e-5), RegimeTag.TAYLOR_SERIES),
        (DimensionlessPoint(0.1, 0.1, 0.5), RegimeTag.CLOSED_FORM),
        (DimensionlessPoint(0.0, 80.0, 1.0), RegimeTag.LAURENT_SERIES),
    ]
    for point, method in cases:
        assert chi_ratio(point).method is method


# |s| < 2 (1 + q/2): the Laurent series in q/z does not converge here
# (|s|/(1 + q/2) = 0.0135 and 0.962), so the far-field test fails, and q
# exceeds what the Taylor series can serve
OUTSIDE_LAURENT = [(0.0, 55276.0, 2857.0), (0.0, 754.0, 38.6)]


@pytest.mark.parametrize("x, y, q", OUTSIDE_LAURENT)
def test_points_outside_laurent_convergence_get_the_closed_form(x, y, q):
    point = DimensionlessPoint(x, y, q)
    assert regime_select(point) is RegimeTag.CLOSED_FORM
    result = chi_ratio(point)
    assert result.method is RegimeTag.CLOSED_FORM
    assert result.err_est > 0.0


# |s| just above 2 (1 + q/2) and above 50: the Laurent branch keeps these
# points, with the exact bits it gave before the convergence predicate
# existed
LAURENT_EDGE = [
    (
        (1000.0, 2450.0, 50.0),
        complex(0.00022845020606040574, -0.0005597829302617832),
        complex(3.3590755098349324e-09, 2.1522371584446594e-08),
        2.943432444537212e-22,
    ),
    ((0.0, 2700.0, 50.0), 0j, complex(1.9361654298327936e-08, 0.0), 7.498798021140891e-26),
]


@pytest.mark.parametrize("coords, classic, quant, err_est", LAURENT_EDGE)
def test_laurent_edge_points_keep_their_branch_and_bits(coords, classic, quant, err_est):
    point = DimensionlessPoint(*coords)
    assert regime_select(point) is RegimeTag.LAURENT_SERIES
    result = chi_ratio(point)
    assert result.method is RegimeTag.LAURENT_SERIES
    assert (result.classic, result.quant, result.err_est) == (classic, quant, err_est)


# Seam points of the far-field test |s| >= 3 and |s| >= 2 (1 + q/2): each
# base (x, y, q) lies on the boundary; (x, y) scaled by 1 + 2^-51 gives the
# outer point, just inside the far field, and by 1 - 2^-51 the inner point,
# just below it. The first five bases sit on |s| = 3, the last two on
# |s| = 2 + q = 3.5.
SEAM_BASES = [(0.0, 3.0 * q, q) for q in (0.01, 0.5, 0.99)] + [
    (1.5, 0.0, 0.5),
    (1.5 * math.cos(1.4), 1.5 * math.sin(1.4), 0.5),
    (0.0, 5.25, 1.5),
    (3.15, 4.2, 1.5),
]


def _seam_point(base, scale):
    x, y, q = base
    return DimensionlessPoint(x * scale, y * scale, q)


@pytest.mark.parametrize("base", SEAM_BASES)
def test_far_field_side_of_the_seam_is_laurent_and_honest(base):
    point = _seam_point(base, 1.0 + 2.0**-51)
    assert regime_select(point) is RegimeTag.LAURENT_SERIES
    assert _honesty([point])[0] <= 1.0
    assert regime_select(_seam_point(base, 1.0 - 2.0**-51)) is not RegimeTag.LAURENT_SERIES


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: below the far field the closed form and the Taylor series lose "
    "digits that err_est omits; the closed form is 5.45e-12 relative off at (0, 1.5, 0.5) "
    "with err_est 0",
)
def test_near_field_side_of_the_seam_is_honest():
    points = [_seam_point(base, 1.0 - 2.0**-51) for base in SEAM_BASES]
    # a closed-form point 3.6e-13 off, outside both series' convergence
    points.append(DimensionlessPoint(0.0, 5.51, 1.9))
    assert max(_honesty(points)) <= 1.0


def _seam_pairs() -> list:
    """300 (inner, outer) pairs 8 ulps either side of |s| = max(3, 2 + q),
    q log-uniform over [1e-3, 1e2], a quarter of them at x = 0 and the rest
    at an angle uniform over [0, pi/2)."""
    rng = random.Random(11)
    pairs = []
    for _ in range(300):
        q = 10.0 ** rng.uniform(-3.0, 2.0)
        r = max(3.0, 2.0 + q) * q
        if rng.random() < 0.25:
            base = (0.0, r, q)
        else:
            angle = rng.uniform(0.0, 0.5 * math.pi)
            base = (r * math.cos(angle), r * math.sin(angle), q)
        pairs.append(tuple(_seam_point(base, 1.0 + k * 2.0**-52) for k in (-8, 8)))
    return pairs


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 11: across the far-field bound the near-field strategies and the "
    "Laurent series differ by more than the sum of their err_est at 293 of the 300 pairs, "
    "at worst 2.7e-11 relative",
)
def test_results_across_the_seam_differ_by_at_most_their_err_est():
    for inner, outer in _seam_pairs():
        a, b = chi_ratio(inner), chi_ratio(outer)
        assert abs(a.total - b.total) <= a.err_est + b.err_est, (inner, outer)

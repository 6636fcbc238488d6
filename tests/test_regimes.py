"""Regime selection: deterministic windows and cancellation escalation."""

import pytest

from diamag import kernel
from diamag.core import DimensionlessPoint, EvalMethod
from diamag.kernel import RegimeTag, chi_ratio, regime_select


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
        is RegimeTag.DIRECT_CLOSED_FORM
    )


def test_large_s_window():
    # |s| = 60 > 50
    assert (
        regime_select(DimensionlessPoint(0.0, 60.0, 1.0))
        is RegimeTag.LAURENT_SERIES
    )


def test_pv_window_boundary_is_strict():
    assert regime_select(DimensionlessPoint(0.0, 0.0, 1.0)) is RegimeTag.PV_STATIC
    # the smallest positive y leaves the static line
    assert regime_select(DimensionlessPoint(0.0, 5e-324, 1.0)) is not RegimeTag.PV_STATIC


def test_value_continuous_across_smallq_seam():
    # crossing q = _SMALLQ_Q_MAX swaps the strategy, not the value
    q_edge = kernel._SMALLQ_Q_MAX
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
    # at |s| = 8 the two quantum terms cancel to ~q^4/(5 y^4) of their size,
    # so the measured-loss guard reroutes the point
    p = DimensionlessPoint(0.0, 8.0, 1.0)
    assert regime_select(p) is RegimeTag.LAURENT_SERIES


def test_cancellation_escalates_to_series():
    # q = y = 0.01: the direct form loses ~7 digits, so evaluation escalates
    p = DimensionlessPoint(0.0, 0.01, 0.01)
    result = chi_ratio(p)
    assert result.method == EvalMethod.SERIES_SMALL_Q


def test_method_matches_regime_for_literal_windows():
    cases = [
        (DimensionlessPoint(0.0, 0.0, 1.0), EvalMethod.PV_STATIC),
        (DimensionlessPoint(0.0, 1e-9, 1e-5), EvalMethod.SERIES_SMALL_Q),
        (DimensionlessPoint(0.1, 0.1, 0.5), EvalMethod.CLOSED_FORM),
        (DimensionlessPoint(0.0, 80.0, 1.0), EvalMethod.SERIES_SMALL_Q),
    ]
    for point, method in cases:
        assert chi_ratio(point).method == method


# |s| < 2 (1 + q/2): the Laurent series in q/z does not converge here
# (|s|/(1 + q/2) = 0.0135 and 0.962), so neither way into it may be taken,
# and q exceeds what the Taylor series can serve
OUTSIDE_LAURENT = [(0.0, 55276.0, 2857.0), (0.0, 754.0, 38.6)]


@pytest.mark.parametrize("x, y, q", OUTSIDE_LAURENT)
def test_points_outside_laurent_convergence_get_the_closed_form(x, y, q):
    point = DimensionlessPoint(x, y, q)
    assert regime_select(point) is RegimeTag.FAR_FIELD_CLOSED_FORM
    result = chi_ratio(point)
    assert result.method == EvalMethod.CLOSED_FORM
    assert result.err_est > 0.0


# |s| just above 2 (1 + q/2) and above _LARGE_S: the Laurent branch
# keeps these points, with the exact bits it gave before the convergence
# predicate existed
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
    assert result.method == EvalMethod.SERIES_SMALL_Q
    assert (result.classic, result.quant, result.err_est) == (classic, quant, err_est)

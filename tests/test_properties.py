"""Property-based tests of the structural invariants.

These check relations that must hold across whole regions of the domain
(reality on the static line, series/direct agreement, collisional
suppression, frequency-reflection symmetry) rather than fixed values.
"""

import math
import random

import pytest
from hypothesis import HealthCheck, given
from hypothesis import settings as hyp_settings
from hypothesis import strategies as st

from diamag import (
    DimensionlessPoint,
    chi_ratio,
    chi_ratio_quadrature,
)
from diamag import oracle
from diamag.kernel import _closed_pieces


@given(
    y=st.floats(min_value=1e-8, max_value=10.0),
    q=st.floats(min_value=0.01, max_value=1.9),
)
def test_static_line_is_exactly_real(y, q):
    # x = 0 must produce a bitwise-zero imaginary part on every path
    result = chi_ratio(DimensionlessPoint(0.0, y, q))
    assert result.total.imag == 0.0
    assert result.classic == 0j
    assert result.err_est >= 0.0


@given(
    x=st.floats(min_value=1e-3, max_value=5.0),
    y=st.floats(min_value=1e-6, max_value=2.0),
    q=st.floats(min_value=0.01, max_value=1.9),
)
def test_finite_output_everywhere_off_the_real_axis(x, y, q):
    result = chi_ratio(DimensionlessPoint(x, y, q))
    assert math.isfinite(result.total.real) and math.isfinite(result.total.imag)
    assert result.err_est >= 0.0
    assert result.classic != 0j


@given(
    q=st.floats(min_value=5e-3, max_value=1.2e-2),
    beta=st.floats(min_value=1e-10, max_value=1e-4),
)
def test_series_agrees_with_raw_closed_form(q, beta):
    # in this band the dispatcher escalates to the small-q series; the raw
    # closed form still carries ~9 good digits, enough to confirm the series
    # to 1e-7
    p = DimensionlessPoint(0.0, beta * q, q)
    escalated = chi_ratio(p)
    (_, bracket, g_plus, g_minus, _), _ = _closed_pieces(p.z, q)
    direct = 3.0 / q * (bracket / q) + 0.75 * ((g_plus - g_minus) / q**3)
    assert abs(escalated.total - direct) < 1e-7 * abs(direct)


@given(
    y=st.sampled_from([1e-4, 1e-3]),
    exponent=st.floats(min_value=-3.0, max_value=0.0),
    frac=st.floats(min_value=0.1, max_value=0.99),
)
def test_suppression_is_monotone_below_the_collision_knee(y, exponent, frac):
    q2 = y * 10.0**exponent
    q1 = frac * q2
    hi = chi_ratio(DimensionlessPoint(0.0, y, q2))
    lo = chi_ratio(DimensionlessPoint(0.0, y, q1))
    assert abs(lo.total) <= abs(hi.total) * (1.0 + 1e-12)


@pytest.mark.parametrize("y", [1e-4, 1e-3])
def test_suppression_is_deep_two_decades_below_the_knee(y):
    result = chi_ratio(DimensionlessPoint(0.0, y, y / 100.0))
    assert abs(result.total) < 1e-4


@hyp_settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    x=st.floats(min_value=0.01, max_value=3.0),
    y=st.floats(min_value=1e-3, max_value=1.0),
    q=st.floats(min_value=0.05, max_value=1.9),
)
def test_reflection_conjugation_symmetry(x, y, q):
    p = DimensionlessPoint(x, y, q)
    mirrored = oracle._quadrature_raw(-x, y, q).total
    direct = chi_ratio(p).total
    assert abs(mirrored - direct.conjugate()) <= 1e-8 * abs(direct)


@pytest.mark.slow
def test_randomized_equivalence_against_quadrature():
    # 220 draws over the full supported box, closed form vs the mpmath oracle
    rng = random.Random(20260816)
    worst = 0.0
    for _ in range(220):
        x = 0.0 if rng.random() < 0.3 else 10.0 ** rng.uniform(-2.0, 0.3)
        y = 10.0 ** rng.uniform(-6.0, 0.0)
        q = min(10.0 ** rng.uniform(-2.0, 0.2788), 1.9)
        p = DimensionlessPoint(x, y, q)
        got = chi_ratio(p).total
        want = chi_ratio_quadrature(p).total
        worst = max(worst, abs(got - want) / abs(want))
    assert worst < 1e-8

"""Series evaluation paths and their agreement with the closed forms.

The closed forms cancel catastrophically at small q (intermediates grow as
1/q^3 while the result stays O(1)), so agreement checks compare against
references frozen from 60-digit arithmetic; the raw double-precision closed
form is held only to the accuracy its conditioning permits.
"""

import hashlib
import math
import random

import pytest

from diamag import ConvergenceError, kernel
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



@pytest.mark.xfail(
    strict=True,
    reason=(
        "the Laurent ratio forms q^4, which underflows at q = 1e-83, so the "
        "result is 0 with err_est 0; ROADMAP item 1 forms it without underflow"
    ),
)
def test_laurent_static_line_survives_a_tiny_wavenumber():
    # the quantum part is 0.2 (q/y)^4 to leading order, 2e-13 at q/y = 1e-3;
    # the same ratio at (0, 1e-6, 1e-9) gives 1.99999714e-13
    result = chi_ratio(DimensionlessPoint(x=0.0, y=1e-80, q=1e-83))
    assert result.method is RegimeTag.LAURENT_SERIES
    assert math.isclose(result.total.real, 1.99999714e-13, rel_tol=1e-6)


# Each term cap, set low, at a point whose branch needs more terms than that:
# (cap name, point, branch). The x > 0 Laurent point also sums the first
# integral's series for its classical part.
STALLS = [
    ("_TAYLOR_MAX_TERMS", (0.0, 0.01, 0.01), RegimeTag.TAYLOR_SERIES),
    ("_LAURENT_MAX_INNER", (0.0, 80.0, 1.0), RegimeTag.LAURENT_SERIES),
    ("_LAURENT_MAX_OUTER", (0.0, 80.0, 1.0), RegimeTag.LAURENT_SERIES),
    ("_FIRST_SERIES_MAX_TERMS", (3.0, 1.0, 0.05), RegimeTag.LAURENT_SERIES),
]


@pytest.mark.parametrize("cap, coords, tag", STALLS)
def test_a_series_that_reaches_its_term_cap_raises(cap, coords, tag, monkeypatch):
    point = DimensionlessPoint(*coords)
    assert chi_ratio(point).method is tag
    monkeypatch.setattr(kernel, cap, 2)
    with pytest.raises(ConvergenceError) as info:
        chi_ratio(point)
    assert info.value.subdivisions == 2
    assert math.isfinite(info.value.err)


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _pinned_points() -> list:
    """4000 points log-uniform over the box x in {0} or [1e-12, 1e6],
    y in [1e-14, 1e6], q in [1e-9, 1e4], with 1 % at x = y = 0 and 30 % of
    the rest at x = 0, then 100 points on the collisionless line y = 0 < x."""
    rng = random.Random(17)
    points = []
    for _ in range(4000):
        if rng.random() < 0.01:
            points.append((0.0, 0.0, _loguniform(rng, 1e-9, 1e4)))
            continue
        x = 0.0 if rng.random() < 0.3 else _loguniform(rng, 1e-12, 1e6)
        points.append((x, _loguniform(rng, 1e-14, 1e6), _loguniform(rng, 1e-9, 1e4)))
    for _ in range(100):
        points.append((_loguniform(rng, 1e-12, 1e6), 0.0, _loguniform(rng, 1e-9, 1e4)))
    return points


# sha256 of float.hex of classic, quant and total (real and imaginary parts)
# and err_est, and the method value, at the pinned points, one line per
# point. It holds the kernel's bits while its hot path is rewritten; a
# change to the kernel's numbers moves it openly, as figure1's pin moves.
KERNEL_BITS_SHA256 = "39d69f26de6ede40ae42f49c23807963e0ecee9d63cb77e7e3947ec38197579d"


def test_kernel_bits_are_pinned():
    lines = []
    cells = set()
    for coords in _pinned_points():
        point = DimensionlessPoint(*coords)
        result = chi_ratio(point)
        parts = (result.classic, result.quant, result.total)
        values = [v for c in parts for v in (c.real, c.imag)] + [result.err_est]
        lines.append(" ".join(v.hex() for v in values) + " " + result.method.value)
        tag, closed = kernel._classify(point)
        cells.add((tag, closed is not None, point.x == 0.0))
    # every (tag, guard ran, x == 0) cell the kernel has: the static point,
    # the small-q window and the literal Laurent window skip the guard
    assert len(cells) == 12
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == KERNEL_BITS_SHA256

"""The kernel over the whole accepted domain, large q included.

Every point that DimensionlessPoint accepts, off the rejected collisionless
line y = 0 < x, must come back from chi_ratio as a finite ChiResult. Points
are drawn log-uniform from the box x in {0} or [1e-12, 1e6], y in
[1e-14, 1e6], q in [1e-9, 1e4], with a share at the static point x = y = 0.
For q >= 2, where the Laurent branch's convergence region ends and the
closed form, with its large-argument pieces summed as series, takes over,
the kernel is held to the mpmath oracle.
"""

import cmath
import math
import random

import pytest

from diamag import DimensionlessPoint, EvalMethod, chi_ratio, chi_ratio_quadrature
from diamag.kernel import RegimeTag, regime_select


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _box_point(rng: random.Random, q_min: float = 1e-9, static_share: float = 0.05) -> tuple:
    q = _loguniform(rng, q_min, 1e4)
    if rng.random() < static_share:
        return 0.0, 0.0, q
    x = 0.0 if rng.random() < 0.3 else _loguniform(rng, 1e-12, 1e6)
    return x, _loguniform(rng, 1e-14, 1e6), q


# Points the Laurent branch used to take without converging: the first
# overflowed inside the series, the second stalled at its term limit.
FORMER_FAILURES = [
    (872.9454813329785, 2298.72318753822, 242.0917022903525),
    (2.06e5, 3.84e4, 2445.0),
]


def test_every_point_of_the_box_gives_a_finite_result():
    rng = random.Random(11)
    points = FORMER_FAILURES + [_box_point(rng) for _ in range(2500)]
    for coords in points:
        result = chi_ratio(DimensionlessPoint(*coords))
        assert cmath.isfinite(result.total), coords
        assert cmath.isfinite(result.classic) and cmath.isfinite(result.quant), coords
        assert math.isfinite(result.err_est), coords


def test_large_q_points_match_the_oracle_in_every_regime():
    # y > 0, q in [2, 1e4]: twelve points each for the two strategies found
    # there, the Laurent branch and the closed form. The Taylor branch would need
    # q <= _TAYLOR_SPAN * dist(s, +-1) with |s| < 2 + q, so q < 3, and a
    # measured loss above _CANCEL_DIGITS besides; 200k draws met no such point.
    rng = random.Random(13)
    wanted = {RegimeTag.LAURENT_SERIES: 12, RegimeTag.CLOSED_FORM: 12}
    points = []
    for _ in range(2000):
        x, y, q = _box_point(rng, q_min=2.0, static_share=0.0)
        point = DimensionlessPoint(x, y, q)
        tag = regime_select(point)
        if wanted.get(tag, 0):
            wanted[tag] -= 1
            points.append(point)
    assert not any(wanted.values()), wanted
    for point in points:
        got = chi_ratio(point).total
        want = chi_ratio_quadrature(point).total
        assert abs(got - want) <= 1e-12 * abs(want), (point, regime_select(point))


# The CSV method column is coarser than the tag: it names the strategy family.
METHOD_OF_TAG = {
    RegimeTag.PV_STATIC: EvalMethod.PV_STATIC,
    RegimeTag.CLOSED_FORM: EvalMethod.CLOSED_FORM,
    RegimeTag.TAYLOR_SERIES: EvalMethod.SERIES_SMALL_Q,
    RegimeTag.LAURENT_SERIES: EvalMethod.SERIES_SMALL_Q,
}


def test_every_tag_occurs_and_names_the_strategy_that_ran():
    rng = random.Random(17)
    seen = set()
    for _ in range(2000):
        point = DimensionlessPoint(*_box_point(rng))
        tag = regime_select(point)
        seen.add(tag)
        assert chi_ratio(point).method is METHOD_OF_TAG[tag], (point, tag)
    assert seen == set(RegimeTag)


# Frozen from the closed forms at 400 digits (mpmath); chi_ratio_quadrature
# agrees with them to 1.5e-16. A closed form that took every piece from its
# closed form was off by 1.8e-5 and 4.6e-6 here and reported err_est = 0.
LARGE_Q_REFERENCES = [
    ((524.5, 6.04e-3, 9470.0), complex(4.460251816836222e-08, -4.721921389335948e-15)),
    ((1.63e-10, 952.0, 8130.0), complex(4.609207987884742e-08, -3.5364858124271303e-22)),
]


@pytest.mark.parametrize("coords, ref", LARGE_Q_REFERENCES)
def test_far_field_closed_form_at_frozen_large_q_points(coords, ref):
    point = DimensionlessPoint(*coords)
    assert regime_select(point) is RegimeTag.CLOSED_FORM
    result = chi_ratio(point)
    assert result.method == EvalMethod.CLOSED_FORM
    assert abs(result.total - ref) <= 1e-12 * abs(ref)
    assert result.err_est > 0.0


# Frozen from the closed forms at 400 digits (mpmath), at q < 2 where every
# argument has modulus >= 3: |s| = 6.2 at the first point and 3.5 at the
# second. Taking every piece from its closed form there was 2.0e-10 and
# 1.3e-12 off, with err_est = 0; the series pieces bring both within 1e-13.
SMALL_Q_FAR_ARGUMENT_REFERENCES = [
    (
        (5.446760319435417e-05, 10.98869766351823, 1.7731386213477403),
        complex(0.00012817198891423344, -6.271234941646128e-06),
    ),
    (
        (0.03553246648040644, 2.521674938004885, 0.7198165657470557),
        complex(0.0026354953360782224, -0.1069853604699845),
    ),
]


@pytest.mark.parametrize("coords, ref", SMALL_Q_FAR_ARGUMENT_REFERENCES)
def test_closed_form_sums_far_arguments_as_series_below_q_2(coords, ref):
    point = DimensionlessPoint(*coords)
    assert regime_select(point) is RegimeTag.CLOSED_FORM
    result = chi_ratio(point)
    assert result.method == EvalMethod.CLOSED_FORM
    assert abs(result.total - ref) <= 1e-13 * abs(ref)
    assert result.err_est > 0.0

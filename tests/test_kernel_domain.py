"""The kernel over the whole accepted domain, large q included.

Every point that DimensionlessPoint accepts must come back from chi_ratio
as a finite ChiResult. Points are drawn log-uniform from the box x in {0} or
[1e-12, 1e6], y in [1e-14, 1e6], q in [1e-9, 1e4], with a share at the
static point x = y = 0 and a share on the collisionless line y = 0 < x.
For q >= 2, where the Laurent branch's convergence region ends and the
closed form, with its large-argument pieces summed as series, takes over,
the kernel is held to the mpmath oracle. On the collisionless line it is
held to its own limit y -> 0+ and to the oracle. Over the whole float range,
every point gives a finite ChiResult or a DomainError or ConvergenceError,
never a bare exception.
"""

import cmath
import math
import random

import pytest
from mpmath import mp, mpf

from diamag import (
    DiamagError,
    DimensionlessPoint,
    DomainError,
    RegimeTag,
    ValidationError,
    chi_ratio,
    chi_ratio_exact,
    chi_ratio_quadrature,
    oracle,
)
from diamag.kernel import (
    _CANCEL_DIGITS,
    _Q3_MIN,
    _branch_log,
    _closed_pieces,
    chi_ratio_detailed,
    regime_select,
)
from diamag.verify import _honesty_ratio


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def exact_integrals(x: float, y: float, q: float) -> tuple:
    """(I1, I2, I3) of oracle._exact_integrals rounded to complex, at the
    first of 60, 120, ... digits at which each keeps 20 digits beyond what
    its summands cancel and agrees to 1e-20 relative with its value at half
    those digits."""
    dps, coarse = 30, None
    while True:
        with mp.workdps(dps):
            fine, mags = oracle._exact_integrals(x, y, q)
            kept = min(dps - (m - mp.mag(value)) * math.log10(2.0) for value, m in zip(fine, mags))
            if coarse and kept >= 20 and all(
                abs(f - c) <= mpf(10) ** -20 * abs(f) for f, c in zip(fine, coarse)
            ):
                return tuple(map(complex, fine))
        coarse, dps = fine, 2 * dps


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
    # the collisionless line: every fifth box point with x > 0 again at y = 0
    points += [(x, 0.0, q) for x, _, q in points[::5] if x > 0.0]
    for coords in points:
        result = chi_ratio(DimensionlessPoint(*coords))
        assert cmath.isfinite(result.total), coords
        assert cmath.isfinite(result.classic) and cmath.isfinite(result.quant), coords
        assert math.isfinite(result.err_est), coords
        if result.method is RegimeTag.TAYLOR_SERIES and coords[0] > 0.0:
            # off x = 0 the Taylor series is reached only through the guard,
            # whose closed pieces give it the classical part
            assert chi_ratio_detailed(DimensionlessPoint(*coords))[1] is not None, coords


# Points at the edge of the double range: q^3 overflows at the first; q^3
# underflows at the second, which the Taylor series serves; the classical
# part overflows at the third.
BEYOND_DOUBLE_RANGE = [
    (1.1433118018573683e-09, 1.4430363836814327e-67, 6.17201645987063e102),
    (0.0, 1.8397995805043747e-112, 1.515947389935776e-110),
    (3.521683048580499e-163, 1.641804714551147e-168, 5.62401586933034e-167),
]


def _float_range_point(rng: random.Random) -> tuple:
    """x, y and q log-uniform over 1e+-300, with a quarter each at x = 0 and y = 0."""
    x = 0.0 if rng.random() < 0.25 else _loguniform(rng, 1e-300, 1e300)
    y = 0.0 if rng.random() < 0.25 else _loguniform(rng, 1e-300, 1e300)
    return x, y, _loguniform(rng, 1e-300, 1e300)


def test_whole_float_range_gives_a_finite_result_or_a_diamag_error():
    rng = random.Random(23)
    served = 0
    for coords in BEYOND_DOUBLE_RANGE + [_float_range_point(rng) for _ in range(2000)]:
        point = DimensionlessPoint(*coords)
        try:
            regime_select(point)
            result = chi_ratio(point)
        except DiamagError as exc:
            # only a point beyond double-precision range or a stalled series
            assert not isinstance(exc, ValidationError), (coords, exc)
            continue
        assert cmath.isfinite(result.total) and math.isfinite(result.err_est), coords
        assert chi_ratio_detailed(point)[0] == result, coords
        served += 1
    # most of the range is served, not refused
    assert served > 500


def test_small_q_over_the_whole_range_is_honest_or_refused_by_name():
    # the first 2000 points of the seed-5 whole-range sample. The guard's
    # measure forms no 1/q^2 or q^3, so where q^3 underflows the Taylor
    # series serves the near field; each such result, and the static
    # point's, is held to the exact reference. Laurent results at these q
    # need the reference at thousands of digits, up to a second each; the
    # Laurent range tests hold them to it. No refusal reads "division by zero"
    rng = random.Random(5)
    taylor = 0
    for coords in [_float_range_point(rng) for _ in range(2000)]:
        point = DimensionlessPoint(*coords)
        try:
            chi_ratio_detailed(point)
        except DomainError as exc:
            assert "division by zero" not in str(exc), (coords, exc)
        try:
            result = chi_ratio(point)
        except DomainError as exc:
            assert "division by zero" not in str(exc), (coords, exc)
            continue
        if point.q >= _Q3_MIN or result.method is RegimeTag.LAURENT_SERIES:
            continue
        taylor += result.method is RegimeTag.TAYLOR_SERIES
        ref = chi_ratio_exact(point).total
        assert abs(result.total - ref) <= 1e-12 * abs(ref), coords
    # the near field where q^3 underflows is served, not refused: 36 points
    assert taylor >= 30, taylor


def test_x_positive_point_where_q_cubed_underflows_is_served():
    # q^3 = 1.2e-397 underflows, and the Taylor series serves the point, its
    # classical part the closed form's -(3x/q^2) I1
    result = chi_ratio(DimensionlessPoint(7.39e-293, 0.0, 4.89e-133))
    want = 1.0 - 5.956470406716482e105j
    assert result.method is RegimeTag.TAYLOR_SERIES
    assert abs(result.total - want) <= 1e-12 * abs(want)


def test_taylor_classical_weight_is_served_where_q_squared_is_subnormal():
    # q = 1e-160 is below 2^-511, where q^2 is subnormal: the weight comes
    # from the mantissas of x and q, and the power of two goes on last
    result = chi_ratio(DimensionlessPoint(1e-300, 1e-170, 1e-160))
    want = 1.1999999998115046e41 - 9.42477795956938e180j  # chi_ratio_exact
    assert result.method is RegimeTag.TAYLOR_SERIES
    assert abs(result.total - want) <= 1e-13 * abs(want)


def test_taylor_classical_part_beyond_the_double_range_is_refused_by_name():
    # -(3x/q^2) I1 is about 1.2e301 - 9.4e310j here, past the largest double;
    # chi_ratio_exact refuses the point too
    point = DimensionlessPoint(1e-170, 0.0, 1e-160)
    with pytest.raises(DomainError, match="the classical part overflows") as info:
        chi_ratio(point)
    assert type(info.value.__cause__) is OverflowError
    with pytest.raises(DomainError, match="beyond double-precision range"):
        chi_ratio_exact(point)


def test_q_cubed_underflow_names_q_cubed():
    # s = 1, where the Taylor series does not converge: the closed form's
    # weight 1/q^3 leaves the double range below q = 1.7e-108, and
    # chi_ratio_detailed says so through chi_ratio
    text = r"q\^3 underflows below q = 1\.70"
    with pytest.raises(DomainError, match=text) as info:
        chi_ratio(DimensionlessPoint(1e-120, 0.0, 1e-120))
    assert type(info.value.__cause__) is ArithmeticError
    with pytest.raises(DomainError, match=text):
        chi_ratio_detailed(DimensionlessPoint(1e-120, 0.0, 1e-120))
    # at s = i the Taylor series serves the point, and its breakdown forms no q^3
    breakdown = chi_ratio_detailed(DimensionlessPoint(0.0, 1e-120, 1e-120))[1]
    assert all(map(cmath.isfinite, breakdown._values()))


def test_overflowing_result_raises_domain_error():
    # unscaled, z^2 and the weight 3x/q^2 overflow here, though the classical
    # part, about 4/q^2 = 7.5e135, is finite: the closed form at 2727 digits
    result = chi_ratio(DimensionlessPoint(8.09e201, 0.0, 2.31e-68))
    assert _honesty_ratio(result, 7.4961113922152875e135) <= 1.0
    # the classical part, about 4/q^2 = 4e320, is beyond the double range
    point = DimensionlessPoint(1e300, 0.0, 1e-160)
    with pytest.raises(DomainError):
        chi_ratio(point)
    with pytest.raises(DomainError):
        chi_ratio_detailed(point)


@pytest.mark.parametrize("coords", [(0.0, 1.0, 1e103), (1.0, 1.0, 1e103), (0.0, 0.0, 1e103)])
def test_q_cubed_overflow_names_q_cubed(coords):
    # the closed form's weight 1/q^3 leaves the double range above q = 5.64e102,
    # and the error names that quantity and limit
    point = DimensionlessPoint(*coords)
    for func in (chi_ratio, chi_ratio_detailed, regime_select):
        with pytest.raises(DomainError, match=r"q\^3 overflows above q = 5\.64") as info:
            func(point)
        assert isinstance(info.value.__cause__, OverflowError)


def _assert_holds_the_exact_integrals(breakdown, coords) -> None:
    for name, want in zip(("I1", "I2", "I3"), exact_integrals(*coords)):
        got = getattr(breakdown, name)
        assert abs(got - want) <= 1e-12 * abs(want), (coords, name, got, want)


@pytest.mark.parametrize(
    "z, q", [(1e200, 1.0), (1e110j, 1e5), (1e-100j, 1e-300), (1e153j, 1e-3)]
)
def test_far_field_breakdown_forms_no_cube(z, q):
    # |s -+ q/2| is above 5.6e102, where the closed form's (s -+ q/2)^3
    # overflows; the Laurent point's breakdown forms no cube. At the last two
    # points the bracket q I2 falls below the normal range, and I2 and term2
    # come from its leading order: I2 = 2.7e-101, then term2 = 8e-307 where
    # I2 is subnormal
    breakdown = chi_ratio_detailed(DimensionlessPoint(z.real, z.imag, q))[1]
    _assert_holds_the_exact_integrals(breakdown, (z.real, z.imag, q))


def test_detailed_breakdown_comes_from_the_strategy_that_ran():
    # a far-field Laurent point: term1 is the classical part, and term3 the
    # quantum part less term2
    point = DimensionlessPoint(0.0, 0.1, 1e-3)
    result, breakdown = chi_ratio_detailed(point)
    assert result == chi_ratio(point) and result.method is RegimeTag.LAURENT_SERIES
    assert breakdown.term1 == result.classic
    assert breakdown.term3 == result.quant - breakdown.term2
    _assert_holds_the_exact_integrals(breakdown, (0.0, 0.1, 1e-3))
    # a closed-form point where the raw closed forms give I3 = NaN: I3 comes
    # from the far-field series of g
    point = DimensionlessPoint(0.0, 7.7e-33, 9.5e77)
    result, breakdown = chi_ratio_detailed(point)
    assert result == chi_ratio(point) and result.method is RegimeTag.CLOSED_FORM
    assert breakdown.term3 == 0.75 * breakdown.I3
    _assert_holds_the_exact_integrals(breakdown, (0.0, 7.7e-33, 9.5e77))
    # I1 = -(4/3)/z, about 1.3e310i, overflows at this Laurent point: there is
    # no breakdown
    point = DimensionlessPoint(0.0, 1e-310, 1e-320)
    result, breakdown = chi_ratio_detailed(point)
    assert result == chi_ratio(point) and breakdown is None


def _pool_point(rng: random.Random) -> tuple:
    """One point of the benchmark's pool scheme: 1 % at x = y = 0, else x = 0
    for 30 % and log-uniform over [1e-12, 1e6] for the rest, y log-uniform
    over [1e-14, 1e6]; q log-uniform over [1e-9, 1e4]."""
    if rng.random() < 0.01:
        return 0.0, 0.0, _loguniform(rng, 1e-9, 1e4)
    x = 0.0 if rng.random() < 0.3 else _loguniform(rng, 1e-12, 1e6)
    return x, _loguniform(rng, 1e-14, 1e6), _loguniform(rng, 1e-9, 1e4)


def test_breakdown_holds_the_exact_integrals_over_the_pool_scheme():
    # 500 points, every regime: I1, I2 and I3 within 1e-12 relative of the
    # closed forms at many digits. Evaluated raw in doubles, the closed forms
    # are up to 5e59 relative off on the benchmark's pool
    rng = random.Random(34)
    methods = set()
    for coords in [_pool_point(rng) for _ in range(500)]:
        result, breakdown = chi_ratio_detailed(DimensionlessPoint(*coords))
        methods.add(result.method)
        _assert_holds_the_exact_integrals(breakdown, coords)
    assert methods == {RegimeTag.PV_STATIC, RegimeTag.CLOSED_FORM, RegimeTag.TAYLOR_SERIES,
                       RegimeTag.LAURENT_SERIES}


@pytest.mark.xfail(
    strict=True,
    reason="the Taylor branch's classical part takes Re I1 from the closed form, "
    "which cancels it where x << y << q: 3 % off here. ROADMAP item 19 mends I1 "
    "alone; figure1 keeps its bytes, since classic is 0 at x = 0",
)
def test_taylor_classical_real_part_holds_the_reference():
    coords = (1e-20, 1e-10, 1e-5)
    result, breakdown = chi_ratio_detailed(DimensionlessPoint(*coords))
    assert result.method is RegimeTag.TAYLOR_SERIES
    want = chi_ratio_exact(DimensionlessPoint(*coords)).classic.real
    assert abs(result.classic.real - want) <= 1e-12 * abs(want)
    want = exact_integrals(*coords)[0].real
    assert abs(breakdown.I1.real - want) <= 1e-12 * abs(want)


def _collisionless_point(rng: random.Random) -> tuple:
    """(x, 0, q) with q log-uniform over the box: a third with a pole placed
    in [-1, 1], a share within 1e-12 relative of a hit, where s or s -+ q/2
    is +-1, and the rest with x log-uniform over the box."""
    q = _loguniform(rng, 1e-9, 1e4)
    draw = rng.random()
    if draw < 1.0 / 3.0:
        t = rng.uniform(-1.0, 1.0)
        s = abs(t) if rng.random() < 0.5 else abs(t + 0.5 * q)
    elif draw < 0.4:
        s = rng.choice((1.0, 1.0 + 0.5 * q, abs(0.5 * q - 1.0)))
        s *= 1.0 + rng.uniform(-1e-12, 1e-12)
    else:
        return _loguniform(rng, 1e-12, 1e6), 0.0, q
    return q * s, 0.0, q


def _collisionless_line(count: int) -> list:
    rng = random.Random(29)
    return [_collisionless_point(rng) for _ in range(count)]


def _pole_inside(x: float, q: float) -> bool:
    s = x / q
    return s <= 1.0 or abs(s - 0.5 * q) <= 1.0


def test_collisionless_line_is_the_upper_limit():
    points = _collisionless_line(2000)
    assert sum(_pole_inside(x, q) for x, _, q in points) >= len(points) // 3
    for x, _, q in points:
        got = chi_ratio(DimensionlessPoint(x, 0.0, q)).total
        want = chi_ratio(DimensionlessPoint(x, 1e-300, q)).total
        assert abs(got - want) <= 1e-15 * abs(want), (x, q)


@pytest.mark.slow
def test_collisionless_line_matches_the_oracle(oracle_passes):
    # Every 16th point of the line above. The series are held to 1e-14 and
    # the closed form to 1e-10, or, where it cancels more than
    # _CANCEL_DIGITS digits and no series converges (near a hit at small q),
    # to the rounding of its measured cancellation, 4 eps 10^lost |quant|.
    # The oracle takes one pass at each of the 125 points but one, x = q =
    # 6.2e-9 up to rounding, whose three poles lie within 6.2e-9 of the end
    # t = 1, and which takes two.
    for x, _, q in _collisionless_line(2000)[::16]:
        point = DimensionlessPoint(x, 0.0, q)
        tag = regime_select(point)
        result = chi_ratio(point)
        want = chi_ratio_quadrature(point).total
        if tag is not RegimeTag.CLOSED_FORM:
            bound = 1e-14 * abs(want)
        else:
            lost = _closed_pieces(point.z, q)[1]
            bound = 1e-10 * abs(want)
            if lost > _CANCEL_DIGITS:
                bound = max(bound, 4.0 * 2.0**-52 * 10.0**lost * abs(result.quant))
        assert abs(result.total - want) <= bound, (x, q, tag)
    # as measured; a change to the passes moves this count
    assert len(oracle_passes) == 126, oracle_passes


NEGATIVE_ZERO_POINTS = [(0.3, 1.0), (0.5, 0.5)]


def _bits(result) -> tuple:
    parts = (result.classic, result.quant, result.total)
    return tuple(v.hex() for c in parts for v in (c.real, c.imag)) + (result.err_est.hex(),)


@pytest.mark.parametrize("x, q", NEGATIVE_ZERO_POINTS)
def test_negative_zero_y_is_the_upper_limit(x, q):
    # -0.0 < 0 is False, so y = -0.0 is accepted; it must give the y -> 0+
    # side, as the oracle does, not the lower one
    point = DimensionlessPoint(x, -0.0, q)
    assert math.copysign(1.0, point.y) == 1.0
    assert point == DimensionlessPoint(x, 0.0, q)
    assert _bits(chi_ratio(point)) == _bits(chi_ratio(DimensionlessPoint(x, 0.0, q)))
    want = chi_ratio_quadrature(DimensionlessPoint(x, 0.0, q)).total
    assert abs(chi_ratio(point).total - want) <= 1e-14 * abs(want)


def test_negative_zero_imaginary_parts_are_the_upper_side():
    assert _branch_log(complex(0.5, 0.0))[1].imag == math.pi
    below = chi_ratio_detailed(DimensionlessPoint(0.3, -0.0, 1.0))[1]
    above = chi_ratio_detailed(DimensionlessPoint(0.3, 0.0, 1.0))[1]
    assert below == above and above.I1.imag > 0.0
    assert math.copysign(1.0, DimensionlessPoint(-0.0, 0.1, 1.0).x) == 1.0


# Exact hits: s or s -+ q/2 is exactly +-1, where the closed forms take the
# limit (1 - sigma^2) L(sigma) -> 0 of their log terms.
COLLISIONLESS_HITS = [
    (0.5, 0.5),
    (1.0, 1.0),
    (0.375, 0.5),
    (2.0, 2.0),
    (1.5, 1.0),
    (0.5, 1.0),
    (1.5, 3.0),
    (0.625, 2.5),
    (4.0, 4.0),
    (0.21875, 0.25),
]


@pytest.mark.parametrize("x, q", COLLISIONLESS_HITS)
def test_collisionless_hits_match_the_oracle(x, q):
    point = DimensionlessPoint(x, 0.0, q)
    got = chi_ratio(point).total
    want = chi_ratio_quadrature(point).total
    assert abs(got - want) <= 1e-14 * abs(want)


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


def test_every_tag_occurs_and_names_the_strategy_that_ran():
    rng = random.Random(17)
    seen = set()
    for _ in range(2000):
        point = DimensionlessPoint(*_box_point(rng))
        tag = regime_select(point)
        seen.add(tag)
        assert chi_ratio(point).method is tag, (point, tag)
    # every tag but the oracles' QUADRATURE names a kernel strategy
    assert seen == set(RegimeTag) - {RegimeTag.QUADRATURE}


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
    assert result.method is RegimeTag.CLOSED_FORM
    assert abs(result.total - ref) <= 1e-12 * abs(ref)
    assert result.err_est > 0.0


# Frozen from the closed forms at 400 digits (mpmath), at q < 2 where every
# argument has modulus >= 3: |s| = 6.2 at the first point and 3.5 at the
# second. Taking every piece from its closed form there was 2.0e-10 and
# 1.3e-12 off, with err_est = 0. Both points lie in the far field, which the
# Laurent series serves; it holds them within 1e-13 too.
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
    assert regime_select(point) is RegimeTag.LAURENT_SERIES
    result = chi_ratio(point)
    assert result.method is RegimeTag.LAURENT_SERIES
    assert abs(result.total - ref) <= 1e-13 * abs(ref)
    assert result.err_est > 0.0


# Frozen from the closed forms at 400 digits (mpmath), at q < 2 outside both
# series' convergence, where one argument s -+ q/2 has modulus >= 3: every
# such point of perfbench's seed-0 pool, the third through the guard, and
# (3.75, 0.0015, 1.5). The closed form sums that piece as a series.
CLOSED_FORM_FAR_ARGUMENT_REFERENCES = [
    (
        (4.205781600386302, 0.12800805343505522, 1.8224242374916402),
        complex(1.2642115654252164, -0.04340366450297714),
    ),
    (
        (3.565113487042186, 6.453643913925199e-07, 1.2793110601048077),
        complex(2.5150404471793446, -4.836919532905615e-07),
    ),
    (
        (1.2472951368144833, 2.9382624856275776e-14, 0.4194694588566843),
        complex(23.277022192634988, -5.754019461715134e-13),
    ),
    ((3.75, 0.0015, 1.5), complex(1.8464042572771084, -0.0008029049021929938)),
]


@pytest.mark.parametrize("coords, ref", CLOSED_FORM_FAR_ARGUMENT_REFERENCES)
def test_closed_form_sums_a_far_argument_outside_both_series(coords, ref):
    point = DimensionlessPoint(*coords)
    assert regime_select(point) is RegimeTag.CLOSED_FORM
    result = chi_ratio(point)
    assert result.method is RegimeTag.CLOSED_FORM
    assert abs(result.total - ref) <= 1e-13 * abs(ref)
    assert result.err_est > 0.0


# Frozen from the closed forms at 400 digits (mpmath), at x = 0 with y >> q:
# the collision-dominated static window, where the quantum part is O(q^2)
# and the closed form's intermediates grow as 1/q^3.
COLLISION_DOMINATED_REFERENCES = [
    ((0.0, 0.1, 1e-3), complex(1.999714318993998e-09, 0.0)),
    ((0.0, 0.1, 0.01), complex(1.9717578211689274e-05, 0.0)),
]


@pytest.mark.parametrize("coords, ref", COLLISION_DOMINATED_REFERENCES)
def test_collision_dominated_static_points_hold_the_reference(coords, ref):
    result = chi_ratio(DimensionlessPoint(*coords))
    assert abs(result.total - ref) <= 1e-14 * abs(ref)

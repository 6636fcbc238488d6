"""Tests for the independent numerical oracles.

The oracles exist to check the closed forms, so most assertions here compare
oracle output against the kernel at loose-but-meaningful tolerances and pin
down the oracles' own contracts (domains, error fields, limiting values).
"""

import math
import random
import time
from fractions import Fraction

import pytest
from mpmath import log, mp, mpc, mpf

from diamag import (
    DimensionlessPoint,
    DomainError,
    ExtrapolationError,
    KineticIntegrand,
    NascentDelta,
    ValidationError,
    chi_from_kinetic,
    chi_quant_smallk,
    chi_ratio,
    chi_ratio_quadrature,
    chi_ratio_quadrature_reflected,
    j_integrals_nascent_delta,
    richardson_extrapolate,
)
from diamag import oracle


def rel(a: complex, b: complex) -> float:
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# high-precision quadrature
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "x, y, q",
    [
        (0.1, 0.1, 0.5),
        (0.0, 1e-3, 1.9),
        (0.0, 1.0, 0.05),
        (0.5, 0.01, 1.0),
    ],
)
def test_quadrature_matches_kernel(x, y, q):
    p = DimensionlessPoint(x, y, q)
    got = chi_ratio_quadrature(p)
    want = chi_ratio(p)
    assert rel(got.total, want.total) < 1e-10
    assert got.err_est > 0.0


# 90-digit values, frozen from mpmath. In this small-q, y >> q corner the
# assembly (3/q) I2 + (3/4) I3 cancels 25-30 digits.
DEEP_CANCELLATION = [
    (0.0, 2700.0, 5.3e-7, 2.969466413016685e-40),
    (0.0, 6e5, 6.5e-6, 2.754726080246913e-45),
    (0.0, 0.022, 4.4e-8, 3.1999999999817142e-24),
]


@pytest.mark.parametrize("x, y, q, ref", DEEP_CANCELLATION)
def test_quadrature_survives_deep_cancellation(x, y, q, ref):
    got = chi_ratio_quadrature(DimensionlessPoint(x, y, q))
    assert abs(got.total - ref) <= max(got.err_est, 4e-16 * ref)


def test_quadrature_at_precision_cap_reports_its_error(monkeypatch):
    # stopped after the first pass, the value is poor but err_est says so
    monkeypatch.setattr(oracle, "_MAX_DPS", oracle._FIRST_DPS)
    x, y, q, ref = DEEP_CANCELLATION[0]
    got = chi_ratio_quadrature(DimensionlessPoint(x, y, q))
    assert abs(got.total - ref) <= got.err_est
    assert got.err_est > 1e-16 * ref


def _closed_form_reference(x: float, y: float, q: float) -> complex:
    """The three integrals from their exact antiderivatives at 400 digits,
    enough to absorb every cancellation in the box sampled below."""

    def branch_log(sigma):
        return log(1 - sigma) - log(-1 - sigma)

    def shifted(sigma):
        return 2 * sigma**3 - mpf(10) / 3 * sigma + (1 - sigma**2) ** 2 * branch_log(sigma)

    with mp.workdps(400):
        qm = mpf(q)
        s = mpc(mpf(x), mpf(y)) / qm
        i1 = (-2 * s + (1 - s**2) * branch_log(s)) / qm
        i2 = (mpf(4) / 3 - 2 * s**2 + s * (1 - s**2) * branch_log(s)) / qm
        i3 = (shifted(s + qm / 2) - shifted(s - qm / 2)) / qm**3
        return complex(-3 * mpf(x) / qm**2 * i1 + 3 / qm * i2 + mpf(3) / 4 * i3)


def test_quadrature_error_estimate_holds_over_whole_domain():
    for x, y, q, ref in DEEP_CANCELLATION:
        assert abs(_closed_form_reference(x, y, q) - ref) <= 1e-16 * ref
    # log-uniform over the accepted domain, y > 0, 30 % on the static line
    rng = random.Random(7)
    for _ in range(24):
        x = 0.0 if rng.random() < 0.3 else 10.0 ** rng.uniform(-12.0, 6.0)
        y = 10.0 ** rng.uniform(-14.0, 6.0)
        q = 10.0 ** rng.uniform(-9.0, 4.0)
        got = chi_ratio_quadrature(DimensionlessPoint(x, y, q))
        ref = _closed_form_reference(x, y, q)
        assert abs(got.total - ref) <= max(got.err_est, 4e-16 * abs(ref)), (x, y, q)


# Far below the benchmark box in y the poles hug the real axis. The contour
# passes far below them, so neither point needs many digits beyond the
# first pass.
@pytest.mark.parametrize("x, y, q", [(0.0, 1e-300, 1.0), (0.3, 1e-60, 0.5)])
def test_quadrature_fast_and_tight_at_vanishing_collision_rate(x, y, q):
    p = DimensionlessPoint(x, y, q)
    start = time.perf_counter()
    got = chi_ratio_quadrature(p)
    elapsed = time.perf_counter() - start
    assert rel(got.total, chi_ratio(p).total) < 1e-14
    assert got.err_est <= 1e-15 * abs(got.total)
    assert elapsed < 5.0


# The contour's hard cases. Poles within 1e-10 of the endpoints t = +-1,
# where the path leaves the real axis: x/q = +-1, or x/q -+ q/2 = +-1, each
# missed by 1e-10. And a point where mp.quad's degree-3 error estimate read
# 1e-23 against a true error of 5e-16 of |I2|.
HARD_POINTS = [
    (0.7 * (1.0 + 1e-10), 1e-30, 0.7),
    (0.7 * (1.0 - 1e-10), 1e-8, 0.7),
    (0.5 * (0.75 + 1e-10), 1e-30, 0.5),
    (0.5 * (0.75 - 1e-10), 1e-8, 0.5),
    (3.0 * (0.5 + 1e-10), 1e-30, 3.0),
    (3.0 * (0.5 - 1e-10), 1e-8, 3.0),
    (1.0 * (1.5 - 1e-10), 1e-30, 1.0),
    (0.0, 0.00488897048678087, 155.9966209175565),
]


@pytest.mark.parametrize("x, y, q", HARD_POINTS)
def test_quadrature_error_estimate_holds_at_hard_points(x, y, q):
    got = chi_ratio_quadrature(DimensionlessPoint(x, y, q))
    ref = _closed_form_reference(x, y, q)
    assert abs(got.total - ref) <= max(got.err_est, 4e-16 * abs(ref))


def object_sums(f):
    """Level sums for oracle._path_quad of f, whose value at a node is a tuple
    of mpmath numbers: mp.quad's own (TanhSinh.sum_next, one mp.fdot)."""

    def level_sums(start, end, degree, prec):
        nodes = oracle._TANH_SINH.get_nodes(start, end, degree, prec)
        weights = [w for _, w in nodes]
        return [mp.fdot(weights, column) for column in zip(*(f(t) for t, _ in nodes))]

    return level_sums


def object_integrands(x, y, q):
    """The integrands of I2, I3 and, for x != 0, I1 in mpmath number
    arithmetic: the reference for the oracle's fixed-width integer kernel."""
    qm, zm = mpf(q), mpc(x, y)
    quartic = qm**4 / 4

    def f(t):
        u = 1 - t * t
        w = qm * t - zm
        r = u / w
        parts = (t * r, u * u / (w * w - quartic))
        return parts + (r,) if x else parts

    return f


def _whole_domain_points(seed, count):
    """Log-uniform over the accepted box with 30 % on x = 0, and a third of
    the points reflected to -x."""
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        x = 0.0 if rng.random() < 0.3 else 10.0 ** rng.uniform(-12.0, 6.0)
        if rng.random() < 1.0 / 3.0:
            x = -x
        points.append((x, 10.0 ** rng.uniform(-14.0, 6.0), 10.0 ** rng.uniform(-9.0, 4.0)))
    return points


def test_fixed_width_operations_round_to_nearest():
    # each result is within half a unit in its last place, per part, of the
    # exact one, and its larger part has at most width + 1 bits
    rng = random.Random(3)

    def part():
        return rng.randrange(-(2**300), 2**300) >> rng.randrange(300)

    def value():
        return part(), part() or 1, rng.randrange(-400, 400)

    def assert_nearest(got, want_re, want_im, width):
        re, im, exp = got
        ulp = Fraction(2) ** exp
        assert abs(re * ulp - want_re) <= ulp / 2
        assert abs(im * ulp - want_im) <= ulp / 2
        assert max(re.bit_length(), im.bit_length()) <= width + 1

    for _ in range(300):
        width = rng.randrange(8, 200)
        (ar, ai, ae), (br, bi, be) = value(), value()
        a, b = Fraction(2) ** ae, Fraction(2) ** be
        assert_nearest(oracle._rounded(ar, ai, ae, width), ar * a, ai * a, width)
        difference = oracle._difference(ar, ai, ae, br, bi, be, width)
        assert_nearest(difference, ar * a - br * b, ai * a - bi * b, width)
        den = (br * br + bi * bi) * b
        assert_nearest(
            oracle._quotient(ar, ai, ae, br, bi, be, width),
            (ar * br + ai * bi) * a / den,
            (ai * br - ar * bi) * a / den,
            width,
        )


# The deep-cancellation points escalate to 40 digits and then to 48-59.
KERNEL_CASES = (
    [(x, y, q, 20) for x, y, q in _whole_domain_points(11, 30)]
    + [(x, y, q, dps) for x, y, q, _ in DEEP_CANCELLATION for dps in (40, 58)]
    + [(0.0, 1e-300, 1.0, 20), (0.3, 1e-60, 0.5, 20)]
    + [(x, y, q, 20) for x, y, q in HARD_POINTS]
)


@pytest.mark.parametrize("x, y, q, dps", KERNEL_CASES)
def test_contour_kernel_matches_object_arithmetic(x, y, q, dps):
    # the same pass, once in the kernel's integer arithmetic and once in
    # mpmath numbers, differs only by rounding: within each integral's
    # rounding noise plus 10^-dps of its value, what _quadrature_raw allows
    with mp.workdps(dps):
        kernel = oracle._path_quad(oracle._contour_sums(x, y, q))
        reference = oracle._path_quad(object_sums(object_integrands(x, y, q)))
        noise = oracle._rounding_noise(x, y, q)
        out_eps = mpf(10) ** -dps
    assert len(kernel) == len(reference) == (3 if x else 2)
    for (value, _), (want, _), allowance in zip(kernel, reference, noise):
        assert abs(value - want) <= allowance + out_eps * abs(want), (x, y, q, dps)


@pytest.mark.parametrize("dps", [20, 40])
def test_path_quad_is_mp_quad_for_one_integrand(dps, monkeypatch):
    # mp.quad's own stopping rule: its estimate is trusted from degree 2
    monkeypatch.setattr(oracle, "_FIRST_STOP_DEGREE", 2)
    with mp.workdps(dps):
        qm, zm = mpf(0.7), mpc(0.3, 1e-3)

        def f(t):
            return (1 - t * t) / (qm * t - zm)

        assert oracle._path_quad(object_sums(lambda t: (f(t),))) == [
            mp.quad(f, list(oracle._PATH), error=True)
        ]


@pytest.mark.parametrize("x, y, q", [(0.3, 1e-3, 0.7), (0.0, 1e-8, 1.5), (2.0, 1e-30, 3.0)])
def test_path_quad_shares_nodes_without_losing_accuracy(x, y, q):
    with mp.workdps(20):
        qm, zm = mpf(q), mpc(x, y)
        quartic = qm**4 / 4

        def f(t):
            u = 1 - t * t
            w = qm * t - zm
            return (u / w, t * u / w, u * u / (w * w - quartic))

        shared = oracle._path_quad(object_sums(f))
        for i, (value, err) in enumerate(shared):
            alone, _ = mp.quad(lambda t: f(t)[i], list(oracle._PATH), error=True)
            assert abs(value - alone) <= err


def test_quadrature_rejects_static_line():
    with pytest.raises(DomainError):
        chi_ratio_quadrature(DimensionlessPoint(0.0, 0.0, 1.0))


def test_reflected_quadrature_is_conjugate():
    # chi(-x) = conj(chi(x)) for a response to a real field
    for x, y, q in [(0.3, 0.05, 0.7), (1.2, 0.4, 1.5)]:
        p = DimensionlessPoint(x, y, q)
        mirrored = chi_ratio_quadrature_reflected(p).total
        direct = chi_ratio(p).total
        assert abs(mirrored - direct.conjugate()) < 1e-10 * abs(direct)


def test_reflected_quadrature_rejects_static_line():
    with pytest.raises(DomainError):
        chi_ratio_quadrature_reflected(DimensionlessPoint(0.5, 0.0, 1.0))


# ---------------------------------------------------------------------------
# kinetic-equation reconstruction
# ---------------------------------------------------------------------------


def test_kinetic_matches_kernel_at_finite_frequency():
    p = DimensionlessPoint(0.1, 0.1, 0.5)
    got = chi_from_kinetic(p)
    want = chi_ratio(p)
    assert rel(got.total, want.total) < 1e-6


def test_kinetic_matches_kernel_on_static_line():
    p = DimensionlessPoint(0.0, 0.01, 1.0)
    got = chi_from_kinetic(p)
    want = chi_ratio(p)
    assert rel(got.total, want.total) < 1e-6
    assert got.classic == 0j


def test_kinetic_rejects_static_line():
    with pytest.raises(DomainError):
        chi_from_kinetic(DimensionlessPoint(0.0, 0.0, 1.0))


def test_occupation_difference_shape():
    ig = KineticIntegrand(x=0.0, y=0.1, q=0.5)
    assert ig.occupation_difference(0.0) == 0.0
    # odd, and identically zero beyond the coupled-shell support
    for u in (0.2, 0.9, 1.2):
        assert ig.occupation_difference(-u) == -ig.occupation_difference(u)
    edge = 1.0 + ig.half_width
    assert ig.occupation_difference(edge + 1e-9) == 0.0
    assert ig.occupation_difference(-edge - 0.5) == 0.0
    # continuous across the clamp seam at u = 1 - q/2
    seam = 1.0 - ig.half_width
    below = ig.occupation_difference(seam - 1e-9)
    above = ig.occupation_difference(seam + 1e-9)
    assert abs(below - above) < 1e-7


def test_denominator_never_vanishes_for_positive_y():
    ig = KineticIntegrand(x=0.3, y=1e-6, q=0.6)
    for u in (-1.3, 0.0, 0.3 / 0.6, 1.3):
        assert abs(ig.denominator(u)) >= ig.y


# ---------------------------------------------------------------------------
# long-wavelength quantum limit
# ---------------------------------------------------------------------------


def test_smallk_static_normalization():
    out = chi_quant_smallk(DimensionlessPoint(0.0, 0.0, 1e-4))
    assert abs(out.quant - 1.0) < 1e-12
    assert out.classic == 0j


def test_smallk_tracks_kernel_when_collisions_dominate():
    # y >> q: the omitted curvature enters at O(q^2) of an O(q^4) value
    y = 0.1
    for q, bar in [(1e-3, 1e-6), (0.01, 1e-5), (0.001, 1e-7)]:
        p = DimensionlessPoint(0.0, y, q)
        got = chi_quant_smallk(p)
        want = chi_ratio(p)
        assert rel(got.total, want.total) < bar


def test_smallk_deviation_is_static_curvature():
    # for y << q the fractional gap to the kernel approaches q^2/20
    p = DimensionlessPoint(0.0, 1e-6, 0.01)
    got = chi_quant_smallk(p).total
    want = chi_ratio(p).total
    gap = abs(got - want) / abs(want)
    assert abs(gap - p.q**2 / 20.0) < 0.1 * (p.q**2 / 20.0)


def test_smallk_rejects_negative_collision_rate_off_static_point():
    with pytest.raises(DomainError):
        chi_quant_smallk(DimensionlessPoint(0.5, 0.0, 0.01))


# ---------------------------------------------------------------------------
# nascent delta and extrapolation
# ---------------------------------------------------------------------------


def test_nascent_delta_validates_width():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValidationError):
            NascentDelta(bad)


def test_nascent_delta_normalization_and_peak():
    d = NascentDelta(0.03)
    assert abs(d(0.0) - 1.0 / (0.03 * math.sqrt(2.0 * math.pi))) < 1e-15
    # trapezoid over +-10 widths captures the full mass
    n = 20000
    h = 20.0 * d.width / n
    total = sum(d(-10.0 * d.width + i * h) for i in range(n + 1)) * h
    assert abs(total - 1.0) < 1e-9


def test_nascent_delta_derivatives_match_finite_differences():
    d = NascentDelta(0.5)
    for e in (-0.7, 0.2, 1.1):
        h = 1e-6
        fd1 = (d(e + h) - d(e - h)) / (2.0 * h)
        assert abs(d.first_derivative(e) - fd1) < 1e-6
        # wider step: the second difference amplifies roundoff by 1/h^2
        h = 1e-4
        fd2 = (d(e + h) - 2.0 * d(e) + d(e - h)) / (h * h)
        assert abs(d.second_derivative(e) - fd2) < 1e-6


def test_richardson_recovers_polynomial_exactly():
    hs = [0.1, 0.05, 0.02, 0.01]
    vals = [3.0 + 2.0 * h + 5.0 * h * h for h in hs]
    limit, err = richardson_extrapolate(hs, vals)
    assert abs(limit - 3.0) < 1e-12
    assert err < 1e-10


def test_richardson_input_validation():
    with pytest.raises(ExtrapolationError):
        richardson_extrapolate([0.1], [1.0])
    with pytest.raises(ExtrapolationError):
        richardson_extrapolate([0.1, 0.2], [1.0, 2.0])
    with pytest.raises(ExtrapolationError):
        richardson_extrapolate([0.1, 0.1], [1.0, 2.0])


def test_richardson_order_cap():
    hs = [0.4, 0.2, 0.1, 0.05]
    vals = [1.0 + h for h in hs]
    limit, _ = richardson_extrapolate(hs, vals, max_order=1)
    assert abs(limit - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# velocity-moment integrals
# ---------------------------------------------------------------------------


def test_velocity_moments_reach_their_limits():
    out = j_integrals_nascent_delta()
    four_pi = 4.0 * math.pi
    assert abs(out.j1 - four_pi) / four_pi < 5e-6
    assert abs(out.j2 - four_pi) / four_pi < 5e-6
    assert abs(out.landau_combination + 2.0 * four_pi) / (2.0 * four_pi) < 5e-6
    assert out.j1_err_est > 0.0
    assert out.j2_err_est > 0.0

"""Tests for the independent numerical oracles.

The oracles exist to check the closed forms, so most assertions here compare
oracle output against the kernel at loose-but-meaningful tolerances and pin
down the oracles' own contracts (domains, error fields, limiting values).
"""

import cmath
import hashlib
import math
import random
import sys
import time
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf
from mpmath.calculus.quadrature import TanhSinh
from mpmath.libmp import dps_to_prec, mpf_cos_sin_pi, mpf_pi, mpf_shift, round_nearest

from diamag import (
    DimensionlessPoint,
    DomainError,
    ExtrapolationError,
    chi_from_kinetic,
    chi_ratio,
    chi_ratio_exact,
    chi_ratio_quadrature,
    j_integrals_nascent_delta,
)
from diamag import oracle
from diamag.oracle import _kinetic_integrands, _nascent_delta, richardson_extrapolate
from diamag.verify import GRID_Q, GRID_X, GRID_Y


def rel(a: complex, b: complex) -> float:
    return abs(a - b) / abs(b)


def exact(x: float, y: float, q: float) -> complex:
    """The total of chi_ratio_exact at (x, y, q)."""
    return chi_ratio_exact(DimensionlessPoint(x, y, q)).total


# A path for mp.quad that, like the oracle's arc, passes below every pole
# (Cauchy's theorem), but is not the oracle's: the polyline -1 -> -i -> 1.
POLYLINE = [-1, -1j, 1]

# mpmath's own tanh-sinh rule, the independent check of the oracle's node
# schedule, which the oracle builds on integers without mpmath.
TANH_SINH = TanhSinh(mp)


def _real(value) -> tuple:
    """An mpf as an exact real (m, e) of the oracle's arithmetic."""
    sign, m, e, _ = value._mpf_
    return (-int(m) if sign else int(m)), int(e)


def _mp(real):
    """A real (m, e) of the oracle's arithmetic as an exact mpf, None as +inf."""
    return mp.inf if real is None else mp.ldexp(real[0], real[1])


def as_mp(results: list, prec: int) -> list:
    """oracle._path_quad's results at prec bits as mpmath numbers, exactly:
    (value, error) per component, an mpc and an mpf."""
    with mp.workprec(prec + oracle._GUARD_BITS):
        return [(mpc(_mp(re), _mp(im)), _mp(error)) for (re, im), error in results]


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
# kernel's quantum pair (3/q) I2 + (3/4) I3 cancels 25-30 digits; the
# oracle's Q, whose terms do not cancel, serves each in one pass.
DEEP_CANCELLATION = [
    (0.0, 2700.0, 5.3e-7, 2.969466413016685e-40),
    (0.0, 6e5, 6.5e-6, 2.754726080246913e-45),
    (0.0, 0.022, 4.4e-8, 3.1999999999817142e-24),
]


@pytest.mark.parametrize("x, y, q, ref", DEEP_CANCELLATION)
def test_quadrature_survives_deep_cancellation(x, y, q, ref):
    got = chi_ratio_quadrature(DimensionlessPoint(x, y, q))
    assert abs(got.total - ref) <= got.err_est


# A pole 1e-13 beyond the path end t = 1 at small q: the first pass needs
# more tanh-sinh levels than 20 digits allow, and a second one follows.
ESCALATING_POINT = (1e-7 * (1.0 + 1e-13), 1e-30, 1e-7)


def test_quadrature_at_precision_cap_reports_its_error(monkeypatch, oracle_passes):
    # stopped after the first pass, the value is poor but err_est says so
    x, y, q = ESCALATING_POINT
    chi_ratio_quadrature(DimensionlessPoint(x, y, q))
    assert len(oracle_passes) > 1, oracle_passes
    monkeypatch.setattr(oracle, "_MAX_DPS", oracle._FIRST_DPS)
    ref = exact(x, y, q)
    got = chi_ratio_quadrature(DimensionlessPoint(x, y, q))
    assert abs(got.total - ref) <= got.err_est
    assert got.err_est > 1e-16 * abs(ref)


def _box(seed: int, count: int) -> list:
    """Log-uniform over the accepted domain, y > 0, 30 % on the static line."""
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        x = 0.0 if rng.random() < 0.3 else 10.0 ** rng.uniform(-12.0, 6.0)
        points.append((x, 10.0 ** rng.uniform(-14.0, 6.0), 10.0 ** rng.uniform(-9.0, 4.0)))
    return points


def test_quadrature_error_estimate_holds_over_whole_domain():
    for x, y, q in _box(7, 24):
        got = chi_ratio_quadrature(DimensionlessPoint(x, y, q))
        assert abs(got.total - exact(x, y, q)) <= got.err_est, (x, y, q)


# 60 points for each of the seeds 1-5
BOX_300 = [point for seed in range(1, 6) for point in _box(seed, 60)]


def test_quadrature_error_estimate_holds_over_the_300_point_box(oracle_passes):
    for x, y, q in BOX_300:
        got = chi_ratio_quadrature(DimensionlessPoint(x, y, q))
        assert abs(got.total - exact(x, y, q)) <= got.err_est, (x, y, q)
    # one pass each, as measured; a change to the passes moves this count
    assert len(oracle_passes) == 300, oracle_passes


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
    assert abs(got.total - exact(x, y, q)) <= got.err_est


# Q is the kernel's quantum pair under one integral: (3/16) Q = (3/q) I2 +
# (3/4) I3, checked with mpmath's own quadrature at 30 digits against the
# closed forms at the digits chi_ratio_exact measured for the point, with
# neither the kernel nor the oracle's engine. Q's integrand is scaled by
# max(1, |s|)^4, its size at large |s|, so that mp.quad's absolute stop acts
# as a relative one.
@pytest.mark.parametrize("x, y, q", HARD_POINTS + _box(13, 12))
def test_q_is_the_quantum_pair_of_the_closed_form(x, y, q, exact_digits):
    chi_ratio_exact(DimensionlessPoint(x, y, q))
    with mp.workdps(exact_digits[-1]):
        (_, i2, i3), _ = oracle._exact_integrals(x, y, q)
        want = mpf(16) / 3 * (3 / mpf(q) * i2 + mpf(3) / 4 * i3)
    with mp.workdps(30):
        qm = mpf(q)
        s = mpc(x, y) / qm
        h2 = qm**2 / 4
        scale = max(1, abs(s)) ** 4

        def integrand(t):
            v = (t - s) ** 2
            return scale * (1 - t * t) ** 2 / (v * (v - h2))

        value, err = mp.quad(integrand, POLYLINE, error=True)
        got = value / scale
        assert abs(got - want) <= err / scale + mpf(10) ** -25 * abs(want), (x, y, q)


# verify's grid points that took a second pass while the oracle assembled
# the quantum part from I2 and I3: at the working precision first, where the
# allowance of 10^-dps of |term2| + |term3| swamped a quantum part of 1e-6 to
# 1e-2, and at the guard width later, still for y = 1, q = 0.05. Q needs no
# second pass at any of them.
TWO_PASS_GRID_POINTS = [
    (0.0, 0.1, 0.05),
    (0.0, 1.0, 0.05),
    (0.0, 1.0, 0.1),
    (0.1, 0.1, 0.05),
    (0.1, 1.0, 0.05),
    (0.1, 1.0, 0.1),
    (0.5, 1e-3, 0.05),
    (0.5, 1e-3, 0.1),
    (0.5, 0.01, 0.05),
    (0.5, 0.01, 0.1),
    (0.5, 0.1, 0.05),
    (0.5, 0.1, 0.1),
    (0.5, 1.0, 0.05),
    (0.5, 1.0, 0.1),
]


def test_verify_grid_takes_one_pass_per_point(oracle_passes):
    for x in GRID_X:
        for y in GRID_Y:
            for q in GRID_Q:
                chi_ratio_quadrature(DimensionlessPoint(x, y, q))
    # 60 first passes, none at more than 20 digits
    assert oracle_passes == [oracle._FIRST_DPS] * 60, oracle_passes


def test_verify_grid_takes_8667_node_evaluations(monkeypatch):
    # the node evaluations over verify's grid: the lengths of the node tables
    # that the level sums walk, the x = 0 points walking the folded half. As
    # measured; a change to the nodes, the degrees or the passes moves this
    # count
    fixed_nodes = oracle._fixed_nodes
    walked = []

    def counting(degree, prec, fold):
        table = fixed_nodes(degree, prec, fold)
        walked.append(len(table))
        return table

    monkeypatch.setattr(oracle, "_fixed_nodes", counting)
    for x in GRID_X:
        for y in GRID_Y:
            for q in GRID_Q:
                chi_ratio_quadrature(DimensionlessPoint(x, y, q))
    assert sum(walked) == 8667, sum(walked)


# sha256 of float.hex of classic, quant (real and imaginary parts) and err_est
# at verify's 60 grid points, one line per point, recorded when the oracle
# mapped mpmath 1.3.0's standard tanh-sinh nodes onto its arc; it now builds
# the same node tables on integers, with no mpmath, and gives the same bits.
# Every point takes one pass, at 20 digits.
# A change to the oracle's numbers moves this pin, and says so.
VERIFY_GRID_ORACLE_SHA256 = "d335f802db0d405fb69ca881bf84e5f0e287d23e4de4818acafb6b82602ab5d3"


def test_oracle_bits_on_the_verify_grid_are_pinned():
    lines = []
    for x in GRID_X:
        for y in GRID_Y:
            for q in GRID_Q:
                got = chi_ratio_quadrature(DimensionlessPoint(x, y, q))
                parts = (got.classic.real, got.classic.imag, got.quant.real, got.quant.imag)
                lines.append(" ".join(v.hex() for v in parts + (got.err_est,)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == VERIFY_GRID_ORACLE_SHA256


@pytest.mark.parametrize("x, y, q", TWO_PASS_GRID_POINTS)
def test_quadrature_error_estimate_holds_at_former_two_pass_points(x, y, q):
    got = chi_ratio_quadrature(DimensionlessPoint(x, y, q))
    assert abs(got.total - exact(x, y, q)) <= got.err_est
    assert got.err_est <= 4e-16 * abs(got.total)


def object_sums(f):
    """Level sums for oracle._path_quad of f, whose value at a node is a tuple
    of mpmath numbers: mpmath's standard nodes v, w carried onto the arc t =
    -i exp(i pi v/2) with the weight w dt/dv = w (pi/2) i t in mpc
    arithmetic at the working precision, summed as mp.quad sums (one
    mp.fdot), and converted exactly to the oracle's integer values."""

    def level_sums(degree, prec):
        nodes = [
            (t, w * mp.pi / 2 * 1j * t)
            for t, w in (
                (-1j * mp.expjpi(v / 2), w) for v, w in TANH_SINH.get_nodes(-1, 1, degree, prec)
            )
        ]
        weights = [w for _, w in nodes]
        sums = (mp.fdot(weights, column) for column in zip(*(f(t) for t, _ in nodes)))
        return [oracle._fixed(_real(s.real), _real(s.imag)) for s in sums]

    return level_sums


def object_integrands(x, y, q):
    """The integrands of Q and, for x != 0, I1 in mpmath number arithmetic:
    the reference for the oracle's fixed-width integer kernel."""
    qm, zm = mpf(q), mpc(x, y)
    quartic = qm**4 / 4

    def f(t):
        w = qm * t - zm
        a = (1 - t * t) / w
        value = qm**4 * a * a / (w * w - quartic)
        return (value, a) if x else (value,)

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


# The fixed-width operations as separate helpers, one call and one tuple per
# operation: the reference that oracle._contour_sums' straight-line loop is
# checked against bit for bit.


def _quotient(ar, ai, ae, br, bi, be, width):
    """The quotient of two values, rounded to nearest at width bits."""
    den = br * br + bi * bi
    nr = ar * br + ai * bi
    ni = ai * br - ar * bi
    # scaled so that the larger part of the quotient gets width or width + 1 bits
    shift = width + den.bit_length() - max(nr.bit_length(), ni.bit_length())
    if shift >= 0:
        nr <<= shift
        ni <<= shift
    else:
        den <<= -shift
    twice = den << 1
    return (
        (2 * nr + den) // twice if nr >= 0 else -((den - 2 * nr) // twice),
        (2 * ni + den) // twice if ni >= 0 else -((den - 2 * ni) // twice),
        ae - be - shift,
    )


def _difference(ar, ai, ae, br, bi, be, width):
    """a - b, exact at the smaller exponent, then rounded to nearest at width bits."""
    if ae >= be:
        return oracle._rounded((ar << (ae - be)) - br, (ai << (ae - be)) - bi, be, width)
    return oracle._rounded(ar - (br << (be - ae)), ai - (bi << (be - ae)), ae, width)


def _product(ar, ai, ae, br, bi, be):
    """The exact product of two values."""
    return ar * br - ai * bi, ar * bi + ai * br, ae + be


def reference_sums(x, y, q):
    """oracle._contour_sums composed from the helpers above: per node the same
    operations in the same order, each a call returning a tuple, over the
    whole node table at every x (no fold at x = 0), and each component's
    terms collected and summed exactly by oracle._exact_sum."""
    qm, qe = oracle._parts(q)
    zr, zi, ze = oracle._fixed(oracle._parts(x), oracle._parts(y))
    km, ke = qm**4, 4 * qe - 2  # q^4/4

    def level_sums(degree, prec):
        width = prec + oracle._GUARD_BITS
        quantum, classical = [], []
        for tr, ti, te, ur, ui, ue, *c in oracle._fixed_nodes(degree, prec, False):
            wr, wi, we = _difference(qm * tr, qm * ti, qe + te, zr, zi, ze, width)
            a = _quotient(ur, ui, ue, wr, wi, we, width)
            ar, ai, ae = a
            dr, di, de = _difference(wr * wr - wi * wi, 2 * wr * wi, 2 * we, km, 0, ke, width)
            br, bi, be = oracle._rounded(ar * ar - ai * ai, 2 * ar * ai, 2 * ae, width)
            f = _quotient(br, bi, be, dr, di, de, width)
            quantum.append(_product(*c, *f))
            classical.append(_product(*c, *a))
        vr, vi, ve = oracle._exact_sum(quantum)
        sums = [(vr * km, vi * km, ve + ke + 2)]  # times q^4
        if x:
            sums.append(oracle._exact_sum(classical))
        return sums

    return level_sums


def _value(value) -> tuple:
    """An exact value (re, im, exp) as a pair of Fractions."""
    re, im, exp = value
    unit = Fraction(2) ** exp
    return re * unit, im * unit


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
        difference = _difference(ar, ai, ae, br, bi, be, width)
        assert_nearest(difference, ar * a - br * b, ai * a - bi * b, width)
        den = (br * br + bi * bi) * b
        quotient = _quotient(ar, ai, ae, br, bi, be, width)
        assert_nearest(
            quotient,
            (ar * br + ai * bi) * a / den,
            (ai * br - ar * bi) * a / den,
            width,
        )
        # ties round away from zero: conjugate inputs give conjugate results
        re, im, exp = quotient
        assert _quotient(ar, -ai, ae, br, -bi, be, width) == (re, -im, exp)
        re, im, exp = oracle._rounded(ar, ai, ae, width)
        assert oracle._rounded(-ar, ai, ae, width) == (-re, im, exp)
    # exact ties, 3/2 and 1/2 of a unit of either sign
    assert oracle._rounded(3, -3, 0, 1) == (2, -2, 1)
    assert oracle._rounded(-1, 1, 0, 0) == (-1, 1, 1)


def _same(a: tuple, b: tuple) -> bool:
    """Two reals (m, e) of equal value."""
    low = min(a[1], b[1])
    return a[0] << (a[1] - low) == b[0] << (b[1] - low)


def test_reals_round_as_mpmath_does():
    # each operation on reals gives mpmath's result in its default rounding,
    # to nearest with ties to even, over random operands of either sign, ties
    # among them, and doubles at the edges of the double range
    from mpmath.libmp import from_man_exp, mpf_add, mpf_div, mpf_hypot, mpf_mul, to_float

    rng = random.Random(41)

    def real():
        m = max(1, rng.randrange(1, 2**300) >> rng.randrange(300))
        if rng.random() < 0.2:
            m = (m | 1) << 8 | 1 << 7  # a tie at 8 bits below its last place
        return (-m if rng.random() < 0.5 else m), rng.randrange(-400, 400)

    def raw(a):
        return from_man_exp(a[0], a[1])

    for _ in range(1000):
        bits = rng.randrange(8, 200)
        a, b = real(), real()
        assert _same(oracle._nearest(*a, bits), _raw_real(from_man_exp(*a, bits, round_nearest)))
        assert _same(oracle._mul(a, b, bits), _raw_real(mpf_mul(raw(a), raw(b), bits, round_nearest)))
        assert _same(oracle._div(a, b, bits), _raw_real(mpf_div(raw(a), raw(b), bits, round_nearest)))
        assert _same(oracle._add(a, b, bits), _raw_real(mpf_add(raw(a), raw(b), bits, round_nearest)))
        assert oracle._le(a, b) == (mpf(raw(a)) <= mpf(raw(b)))
        for re, im in ((a, b), (a, (0, 0)), ((0, 0), b)):
            hypot = mpf_hypot(raw(re), raw(im), bits, round_nearest)
            assert _same(oracle._modulus(re, im, bits), _raw_real(hypot))
        # to doubles, subnormal and beyond the range included
        c = a[0], rng.randrange(-1200, 1100) - a[0].bit_length()
        assert oracle._to_float(c) == to_float(raw(c), rnd=round_nearest)
        # the least k >= 0 with 10^k >= |a| 2^-e, for |a| 2^-e >= 1
        m, e = abs(a[0]), -rng.randrange(abs(a[0]).bit_length())
        k = oracle._ceil_log10((m, e))
        assert 10**k << -e >= m and (k == 0 or 10 ** (k - 1) << -e < m)
    assert oracle._to_float((2**53 - 1, 971)) == sys.float_info.max
    assert oracle._to_float((-(2**53), 971)) == -math.inf
    assert oracle._ceil_log10((10**20, 0)) == 20 and oracle._ceil_log10((1, 0)) == 0


def test_exp_and_cos_sin_hold_their_last_place():
    # within a small fraction of a unit beyond half of one of the exact
    # values, taken at 80 more bits: exp over the schedule's arguments, cos
    # and sin of pi v/2 over [0, 1), the centre, the middle and the ends
    rng = random.Random(43)
    slack = Fraction(1, 2) + Fraction(1, 2**20)

    def holds(got, want, bits):
        m, e = got
        assert m.bit_length() <= bits + 1
        mw, ew = _real(want)
        assert abs(Fraction(m) * Fraction(2) ** e - Fraction(mw) * Fraction(2) ** ew) <= slack * Fraction(2) ** e

    for _ in range(100):
        bits = rng.randrange(60, 600)
        m = rng.randrange(1 << (bits - 1), 1 << bits)
        x = m, -bits + rng.randrange(-20, 8)  # below 2^8
        with mp.workprec(bits + 80):
            holds(oracle._exp(x, bits), mp.exp(_mp(x)), bits)
        for v in ((m, -bits), ((1 << rng.randrange(bits)) - 1, -rng.randrange(bits)), (1, -1)):
            if v[0] >= 1 << -v[1]:
                continue
            cos, sin = oracle._cos_sin_half_pi(v, bits)
            with mp.workprec(bits + 80):
                holds(cos, mp.cospi(_mp(v) / 2), bits)
                holds(sin, mp.sinpi(_mp(v) / 2), bits)
    assert oracle._cos_sin_half_pi((0, 0), 90) == ((1, 0), (0, 0))


def test_tanh_sinh_nodes_are_mpmaths():
    # every node v >= 0 and its weight equal mpmath's, bit for bit, at
    # verify's precision and at 42 digits. mpmath's own exp is not always
    # correctly rounded, so at some other precisions a node differs from
    # mpmath's in its last place; the tables built from the nodes do not
    # (test_fixed_nodes_are_mpmaths_nodes)
    for prec in (dps_to_prec(20), 143):
        for degree in range(1, TANH_SINH.guess_degree(prec) + 1):
            ours = oracle._tanh_sinh(degree, prec)
            theirs = [(v, w) for v, w in TANH_SINH.get_nodes(-1, 1, degree, prec) if v >= 0]
            assert len(ours) == len(theirs)
            for pair, want in zip(ours, theirs):
                assert all(_same(real, _real(value)) for real, value in zip(pair, want))


# Seeded points, the deep-cancellation points at 40 and 58 digits, the
# vanishing collision rates and the hard points.
KERNEL_CASES = (
    [(x, y, q, 20) for x, y, q in _whole_domain_points(11, 30)]
    + [(x, y, q, dps) for x, y, q, _ in DEEP_CANCELLATION for dps in (40, 58)]
    + [(0.0, 1e-300, 1.0, 20), (0.3, 1e-60, 0.5, 20)]
    + [(x, y, q, 20) for x, y, q in HARD_POINTS]
)


def test_tail_noise_of_a_pole_on_the_path_is_infinite():
    # q/2 underflows to 0, so s and s -+ q/2 all sit on the end t = 1
    peak = oracle._peak_log2(5e-324, 0.0, 5e-324)[0]
    assert peak[0] == math.inf
    assert oracle._tail_noise(peak, oracle._dps_to_prec(20)) is None


@pytest.mark.parametrize("x, y, q, dps", KERNEL_CASES)
def test_contour_kernel_matches_object_arithmetic(x, y, q, dps):
    # the same pass, once in the kernel's integer arithmetic and once in
    # mpmath numbers, differs only by rounding: within each integral's
    # rounding noise plus 10^-dps of its value, what _quadrature_raw allows
    peaks = oracle._peak_log2(x, y, q)
    with mp.workdps(dps):
        prec = mp.prec
        kernel = as_mp(oracle._path_quad(oracle._contour_sums(x, y, q), prec), prec)
        reference = as_mp(oracle._path_quad(object_sums(object_integrands(x, y, q)), prec), prec)
        noise = [_mp(oracle._tail_noise(peak, prec)) for peak in peaks]
        out_eps = mpf(10) ** -dps
    assert len(kernel) == len(reference) == (2 if x else 1)
    for (value, _), (want, _), allowance in zip(kernel, reference, noise):
        assert abs(value - want) <= allowance + out_eps * abs(want), (x, y, q, dps)


# Above the bits any value of the reference loop below spans, so that its
# sums and differences of mpc values are exact.
_EXACT_PREC = 1 << 16


def mpc_path_quad(level_sums):
    """oracle._path_quad's loop on mpc values: each level exact and then
    rounded to nearest, ties away from zero, in units of 2^(T - width), T the
    exponent of its larger part, and each error estimate read from frexp
    exponents and compared with eps/8, as the rule of _level_error states."""
    prec = mp.prec
    width = prec + oracle._GUARD_BITS
    epsilon = mp.eps / 8

    def top(v):
        return max(mp.frexp(part)[1] for part in (v.real, v.imag) if part)

    def rounded(v):
        unit = top(v) - width if v else 0

        def part(p):
            n = mp.floor(abs(mp.ldexp(p, -unit)) + mpf(0.5))
            return mp.ldexp(n if p >= 0 else -n, unit)

        return mpc(part(v.real), part(v.imag))

    def estimate(levels):
        tops = [top(v) for v in levels if v]
        if not tops:
            return -width, None
        t = max(tops)
        d1, d2 = (top(levels[-1] - v) - t if levels[-1] != v else -width for v in levels[-2::-1])
        if d2 >= 0:
            return 0, t
        return min(0, max(math.ceil(Fraction(d1 * d1, d2)), 2 * d1, -width)), t

    degrees = range(1, TANH_SINH.guess_degree(prec) + 1)
    levels = []
    with mp.workprec(_EXACT_PREC):
        for degree in degrees:
            sums = [mpc(mp.ldexp(re, exp), mp.ldexp(im, exp)) for re, im, exp in level_sums(degree, prec)]
            previous = levels[-1] if levels else [mpc(0)] * len(sums)
            half, h = mp.ldexp(1, -1), mp.ldexp(1, -degree)
            levels.append([rounded(half * p + h * s) for p, s in zip(previous, sums)])
            if degree < oracle._FIRST_STOP_DEGREE:
                continue
            errs = [estimate(last_three) for last_three in zip(*levels[-3:])]
            if max(mp.ldexp(1, rel) for rel, _ in errs) <= epsilon:
                break
    with mp.workprec(width):
        return [
            (+total, 0 if t is None else mp.ldexp(1, t + 1 + rel))
            for total, (rel, t) in zip(levels[-1], errs)
        ]


@pytest.mark.parametrize("x, y, q, dps", KERNEL_CASES)
def test_integer_levels_are_the_mpc_loops_bit_for_bit(x, y, q, dps):
    # levels, error estimates and totals on integers round as the mpc loop
    # does, so the totals and errors are equal at the guard width
    level_sums = oracle._contour_sums(x, y, q)
    with mp.workdps(dps):
        got = as_mp(oracle._path_quad(level_sums, mp.prec), mp.prec)
        want = mpc_path_quad(level_sums)
    assert got == want


# The level loop against its reference: seeded points over the whole domain
# (x = 0 and x < 0 among them), the hard points, and the collisionless line,
# poles on the path ends and the static point included, at 20 digits; and
# six of them, which hold each kind of point, at 40 and 58.
LEVEL_POINTS = (
    _whole_domain_points(11, 12)
    + HARD_POINTS
    + [(0.3, 0.0, 0.5), (-1.0, 0.0, 1.0), (0.375, 0.0, 0.5), (0.0, 0.0, 2.0)]
)
LEVEL_CASES = [(x, y, q, 20) for x, y, q in LEVEL_POINTS] + [
    (x, y, q, dps)
    for x, y, q in (LEVEL_POINTS[i] for i in (0, 2, 8, 12, 19, 21))
    for dps in (40, 58)
]


@pytest.mark.parametrize("x, y, q, dps", LEVEL_CASES)
def test_level_loop_is_the_helpers_bit_for_bit(x, y, q, dps):
    with mp.workdps(dps):
        prec = mp.prec
    # at x = 0 the loop folds the table and the reference walks all of it:
    # equal values, each sum's imaginary part then exactly 0
    loop, reference = oracle._contour_sums(x, y, q), reference_sums(x, y, q)
    for degree in range(1, TANH_SINH.guess_degree(prec) + 1):
        got, want = loop(degree, prec), reference(degree, prec)
        assert [_value(v) for v in got] == [_value(v) for v in want], degree
        if not x:
            assert got[0][1] == 0


@pytest.mark.parametrize("dps", [20, 40])
def test_path_quad_agrees_with_mp_quad_and_the_closed_form(dps, exact_digits):
    # I1 at (0.3 + 1e-3 i, 0.7) from the oracle's pass, from mp.quad and from
    # its antiderivative at the digits chi_ratio_exact measured: the oracle's
    # value within the sum of its estimate (quadrature error and rounding
    # allowance) and mp.quad's, and within its own of the closed form, whose
    # error is 0 at these digits. mp.quad's estimate leaves out the rounding
    # of its result to the working precision, at most eps of its modulus.
    x, y, q = 0.3, 1e-3, 0.7
    chi_ratio_exact(DimensionlessPoint(x, y, q))
    with mp.workdps(exact_digits[-1]):
        (closed, _, _), _ = oracle._exact_integrals(x, y, q)
    with mp.workdps(dps):
        qm, zm = mpf(q), mpc(x, y)
        prec = mp.prec
        _, (value, err) = as_mp(oracle._path_quad(oracle._contour_sums(x, y, q), prec), prec)
        err += _mp(oracle._tail_noise(oracle._peak_log2(x, y, q)[1], prec))
        want, want_err = mp.quad(
            lambda t: (1 - t * t) / (qm * t - zm), POLYLINE, error=True
        )
        assert err <= mpf(10) ** -dps * abs(value)
        assert abs(value - want) <= err + want_err + mp.eps * abs(want)
        assert abs(value - closed) <= err


@pytest.mark.parametrize("x, y, q", [(0.3, 1e-3, 0.7), (0.0, 1e-8, 1.5), (2.0, 1e-30, 3.0)])
def test_path_quad_shares_nodes_without_losing_accuracy(x, y, q):
    # each component of one shared pass agrees with mp.quad of it alone,
    # within both estimates and mp.quad's rounding of its result
    with mp.workdps(20):
        f = object_integrands(x, y, q)
        shared = as_mp(oracle._path_quad(object_sums(f), mp.prec), mp.prec)
        for i, (value, err) in enumerate(shared):
            alone, alone_err = mp.quad(lambda t: f(t)[i], POLYLINE, error=True)
            assert abs(value - alone) <= err + alone_err + mp.eps * abs(alone)


def _within(n: int, exp: int, value, units: int = 1) -> bool:
    """|n 2^exp - value| <= units 2^exp for an mpf value, on integers."""
    m, e = _real(value)
    low = min(exp, e)
    return abs((n << (exp - low)) - (m << (e - low))) <= units << (exp - low)


def _raw_real(raw) -> tuple:
    """A raw mpf (sign, mantissa, exponent, bits) as an exact real (m, e)."""
    sign, m, e, _ = raw
    return (-int(m) if sign else int(m)), int(e)


def mpmath_table(degree: int, prec: int) -> list:
    """oracle._fixed_nodes's whole table built from mpmath's standard nodes
    with mpmath's cos and sin of pi v/2 at prec + 40 bits and pi rounded
    down there, as the oracle built it when it took its nodes from mpmath:
    each node v >= 0, and its mirror at -v with the signs that conjugate t,
    1 - t^2 and the weight."""
    width = prec + oracle._GUARD_BITS
    wide = prec + 40
    hm, he = _raw_real(mpf_pi(wide))  # pi = hm 2^he, rounded down
    table = []
    for v, w in TANH_SINH.get_nodes(-1, 1, degree, prec):
        if v < 0:
            continue
        cos_sin = mpf_cos_sin_pi(mpf_shift(v._mpf_, -1), wide, round_nearest)
        cr, ci, ce = oracle._fixed(*map(_raw_real, cos_sin))
        tr, ti, te = oracle._rounded(ci, -cr, ce, width)
        ur, ui, ue = oracle._rounded((1 << -2 * te) - tr * tr + ti * ti, -2 * tr * ti, 2 * te, width)
        wm, we = _real(w)
        cr, ci, ce = oracle._rounded(wm * hm * cr, wm * hm * ci, we + he - 1 + ce, width)
        table.append((tr, ti, te, ur, ui, ue, cr, ci, ce))
        if v:
            table.append((-tr, ti, te, ur, -ui, ue, cr, -ci, ce))
    return table


@pytest.mark.parametrize("prec", [dps_to_prec(20), 86, 143, dps_to_prec(150)])
def test_fixed_nodes_are_mpmaths_nodes(prec):
    # the table is the one built from mpmath's standard nodes, bit for bit,
    # at verify's precision (20 digits), the most a pass takes (150) and two
    # between; and so mpmath's standard nodes v, w carried onto the arc t =
    # -i exp(i pi v/2): t within one unit of that point and on the unit
    # circle within one rounding, 1 - t^2 exact from the rounded t and then
    # rounded to nearest, and the weight within one unit of w dt/dv = w
    # (pi/2) i t; both lists in the order of v, along the arc: Re t =
    # sin(pi v/2) grows with v, and where the rounded Re t ties (near t =
    # -+1), Im t = -cos(pi v/2) falls left of t = -i and rises right of it
    for degree in range(1, TANH_SINH.guess_degree(prec) + 1):
        table = oracle._fixed_nodes(degree, prec, False)
        assert sorted(table) == sorted(mpmath_table(degree, prec)), degree
        low = min(te for _, _, te, *_ in table)

        def along(node):
            tr, ti, te, *_ = node
            return tr << (te - low), (-ti if tr < 0 else ti) << (te - low)

        nodes = sorted(table, key=along)
        standard = TANH_SINH.get_nodes(-1, 1, degree, prec)
        assert len(nodes) == len(standard)
        with mp.workprec(prec + 100):
            # t and the weight at v >= 0; at -v t is -conj t, and the weight
            # conjugates
            arc = {}  # by |v|'s mantissa and exponent
            for v, w in standard:
                if v >= 0:
                    t = -1j * mp.expjpi(v / 2)
                    arc[v._mpf_[1:3]] = t, w * mp.pi / 2 * 1j * t
        # in the order of v, compared exactly on integers
        shift = 2 * prec + 100  # above the bits of every node

        def by_v(node):
            m, e = _real(node[0])
            return m << (e + shift)

        for (tr, ti, te, ur, ui, ue, cr, ci, ce), (v, w) in zip(nodes, sorted(standard, key=by_v)):
            t, weight = arc[v._mpf_[1:3]]
            if v < 0:
                with mp.workprec(prec + 100):
                    t, weight = -t.conjugate(), weight.conjugate()
            # each bound in units of the entry's last place, on integers
            assert _within(tr, te, t.real) and _within(ti, te, t.imag)
            assert 2 * abs(tr * tr + ti * ti - (1 << -2 * te)) <= 3 << -te
            k = ue - 2 * te  # 1 - t^2 in units of 2^(2 te): exact, then rounded
            assert 2 * abs((ur << k) - ((1 << -2 * te) - tr * tr + ti * ti)) <= 1 << k
            assert 2 * abs((ui << k) + 2 * tr * ti) <= 1 << k
            assert _within(cr, ce, weight.real) and _within(ci, ce, weight.imag)


def test_node_schedule_is_mpmaths_at_every_working_precision():
    # at every precision a pass can take, 20 to 150 digits: the bits, the
    # most degrees a pass runs and the count of mpmath's standard nodes, v >=
    # 0 and their mirrors, at degree 1, which holds the centre v = 0, and
    # degree 2, the first of the odd multiples of 2^-degree; every degree of
    # four of these precisions is held to mpmath's above
    for dps in range(oracle._FIRST_DPS, oracle._MAX_DPS + 1):
        prec = dps_to_prec(dps)
        assert oracle._dps_to_prec(dps) == prec
        assert oracle._guess_degree(prec) == TANH_SINH.guess_degree(prec), dps
        for degree in (1, 2):
            count = 2 * len(oracle._tanh_sinh(degree, prec)) - (degree == 1)
            assert count == len(TANH_SINH.get_nodes(-1, 1, degree, prec)), (dps, degree)


def test_fixed_nodes_mirror_and_fold_exactly():
    # t -> -conj(t) maps the nodes v > 0 onto the nodes -v of the whole
    # table, weights and 1 - t^2 conjugated, and the folded table is the
    # nodes v >= 0 with the centre t = -i at half its weight
    for prec in (70, 86):
        for degree in range(1, 8):
            whole = oracle._fixed_nodes(degree, prec, False)
            folded = oracle._fixed_nodes(degree, prec, True)
            rebuilt = []
            for tr, ti, te, ur, ui, ue, cr, ci, ce in folded:
                if tr:
                    rebuilt.append((tr, ti, te, ur, ui, ue, cr, ci, ce))
                    rebuilt.append((-tr, ti, te, ur, -ui, ue, cr, -ci, ce))
                else:
                    rebuilt.append((tr, ti, te, ur, ui, ue, cr, ci, ce + 1))
            assert sorted(rebuilt) == sorted(whole)
            assert sum(1 for tr, *_ in folded if tr == 0) == (degree == 1)


def test_path_distance_is_the_nearest_point_of_the_arc():
    # min|p -+ 1| against the least distance to 4001 points of the arc t =
    # -i exp(i pi v/2), v in [-1, 1], ends included, at poles above, on and
    # beside the real axis and the arc's ends: the ends hold the minimum
    rng = random.Random(23)
    poles = [0j, 1 + 0j, -1 + 0j, 0.5 + 0j, -0.999 + 0j, 1j, 2 + 1e-9j, -3 + 0.2j, 1e-12j]
    poles += [complex(rng.uniform(-3.0, 3.0), rng.uniform(0.0, 2.0)) for _ in range(40)]
    arc = [-1j * cmath.exp(0.5j * math.pi * (k / 2000 - 1)) for k in range(4001)]
    for p in poles:
        brute = min(abs(p - t) for t in arc)
        assert abs(oracle._path_distance(p) - brute) <= 1e-15, p


# At x = 0 Q's integrand and the weights conjugate under v -> -v, so the
# oracle integrates the half v >= 0 of the arc and doubles its real part.
X_ZERO_CASES = (
    [(0.0, q, 20) for q in (0.3, 2.0, 150.0)]
    + [(y, q, dps) for _, y, q, _ in DEEP_CANCELLATION for dps in (20, 58)]
    + [(0.00488897048678087, 155.9966209175565, 20), (1e-300, 1.0, 20)]
    + [(y, q, 20) for x, y, q in _whole_domain_points(17, 40) if x == 0.0]
)


@pytest.mark.parametrize("y, q, dps", X_ZERO_CASES)
def test_one_segment_at_x_zero_is_the_whole_path(y, q, dps):
    # the folded pass equals, bit for bit, the pass over the whole table
    prec = dps_to_prec(dps)
    folded = oracle._path_quad(oracle._contour_sums(0.0, y, q), prec)
    whole = oracle._path_quad(reference_sums(0.0, y, q), prec)
    assert len(folded) == 1
    assert folded == whole
    assert folded[0][0][1][0] == 0  # the imaginary part's mantissa
    assert oracle._quadrature_raw(0.0, y, q).quant.imag == 0.0


@pytest.mark.parametrize("first_stop", [3, 4, 6])
def test_error_is_estimated_only_where_it_can_stop(first_stop, monkeypatch):
    monkeypatch.setattr(oracle, "_FIRST_STOP_DEGREE", first_stop)
    level_error = oracle._level_error
    calls = []

    def counting(levels, width):
        calls.append(len(levels))
        return level_error(levels, width)

    monkeypatch.setattr(oracle, "_level_error", counting)
    inner = oracle._contour_sums(0.3, 1e-3, 0.7)
    degrees = []

    def level_sums(degree, prec):
        degrees.append(degree)
        return inner(degree, prec)

    oracle._path_quad(level_sums, dps_to_prec(20))
    # the pass runs its degrees up from 1, and its estimates, one per
    # component (Q, I1) and each from three levels, from first_stop
    assert degrees == list(range(1, len(degrees) + 1))
    assert len(degrees) >= first_stop
    assert calls == [3] * 2 * (len(degrees) - first_stop + 1)


LEVEL_ERROR_CASES = [
    # (D1, D2 as log2 of the distances over the last level, 1; expected e)
    pytest.param(-10, -5, -20, id="both-branches-equal"),
    pytest.param(-30, -10, -60, id="two-d1"),
    pytest.param(-12, -40, -3, id="d1-squared-over-d2-rounded-up"),
    pytest.param(-5, 1, 0, id="d2-not-below-the-level"),
    pytest.param(2, -1, 0, id="clipped-at-zero"),
    pytest.param(-200, -150, -90, id="clipped-at-minus-width"),
    pytest.param(None, None, -90, id="three-equal-levels"),
    pytest.param(None, -30, -90, id="last-two-equal"),
]


@pytest.mark.parametrize("d1, d2, want", LEVEL_ERROR_CASES)
def test_level_error_is_the_rule_on_bit_lengths(d1, d2, want):
    # levels 1 + 2^d2, 1 + 2^d1 and 1 (a distance None is 0): the estimate
    # is 2^min(0, max(ceil(D1^2/D2), 2 D1, -width)) of the last level
    width = 90

    def level(d):
        return (1 << 200, 0, -200) if d is None else (2**200 + 2 ** (200 + d), 0, -200)

    assert oracle._level_error((level(d2), level(d1), level(None)), width)[0] == want


def test_level_error_bounds_every_level_and_a_zero_last_level():
    width = 90
    levels = [(3, 0, 0), (-7, 0, -2), (0, 0, 0)]  # 3, -1.75 and 0
    rel, top = oracle._level_error(tuple(levels), width)
    # 2^(top+1) is above each modulus, and a last level of 0 after nonzero
    # ones has relative error 1 of that bound, not an error of 0
    assert all(abs(Fraction(re) * Fraction(2) ** exp) < 2 ** (top + 1) for re, _, exp in levels)
    assert rel == 0
    assert oracle._level_error(((0, 0, 0),) * 3, width) == (-width, None)
    # random levels: the bound holds for complex values of any size
    rng = random.Random(21)
    for _ in range(500):
        levels = [
            (rng.randrange(-(2**width), 2**width), rng.randrange(-(2**width), 2**width), exp)
            for exp in (rng.randrange(-300, 300) for _ in range(3))
        ]
        _, top = oracle._level_error(tuple(levels), width)
        for re, im, exp in levels:
            assert (re * re + im * im) * Fraction(4) ** exp < 4 ** (top + 1)


# On the collisionless line y = 0 the path still passes below every pole, so
# the oracle gives the limit y -> 0+: the kernel's principal value at x = y = 0
# and, elsewhere, the closed form just above the axis.
@pytest.mark.parametrize("q", [10.0 ** (k / 4.0) for k in range(-12, 17)] + [2.0, 1e-200])
def test_quadrature_serves_static_point(q):
    p = DimensionlessPoint(0.0, 0.0, q)
    assert rel(chi_ratio_quadrature(p).total, chi_ratio(p).total) < 1e-14


# s = z/q beyond the double range: every pole lies more than 2^1023 from the
# path, and the peak bounds come from |s| alone. The ratio is its Laurent
# leading term 4x/(q^2 z) to far below an ulp.
@pytest.mark.parametrize("x, y, q", [(1e300, 1.0, 1e-10), (1.3e204, 4.9e124, 1.5e-111)])
def test_quadrature_with_s_beyond_the_double_range(x, y, q):
    got = chi_ratio_quadrature(DimensionlessPoint(x, y, q))
    with mp.workdps(30):
        want = complex(4 * mpf(x) / (mpf(q) ** 2 * mpc(x, y)))
    assert abs(got.total - want) <= got.err_est <= 1e-15 * abs(want)


def test_every_value_source_refuses_a_part_beyond_the_double_range():
    # the classical part, about 2.8e320, is beyond the double range
    point = DimensionlessPoint(1.0, 1.0, 1e-160)
    for func in (chi_ratio, chi_ratio_exact, chi_ratio_quadrature):
        with pytest.raises(DomainError, match="beyond double-precision range"):
            func(point)


def _collisionless_reference(x: float, q: float) -> complex:
    """The limit y -> 0+ at x, conjugated for x < 0: chi(-x) = conj(chi(x))."""
    ref = exact(abs(x), 0.0, q)
    return ref.conjugate() if x < 0.0 else ref


# Poles exactly on an end t = +-1 of the path, where the integrands stay
# bounded only through the zeros of 1 - t^2: s = +-1 for I1 and Q's double
# pole, or s -+ q/2 = +-1 for Q's pair. A pole inside [-1, 1] beside one on
# t = 1. Poles on both ends, s = +-1 and s -+ q/2 = -+1. And s = 1 at small
# q, where Q's pair lies 3.1e-9 either side of the end.
ENDPOINT_POLES = [
    (0.0, 2.0),
    (-1.0, 1.0),
    (1.0, 1.0),
    (-0.375, 0.5),
    (0.375, 0.5),
    (-1.5, 1.0),
    (1.5, 1.0),
    (0.5, 0.5),
    (-4.0, 4.0),
    (4.0, 4.0),
    (6.2e-9, 6.2e-9),
]


@pytest.mark.parametrize("x, q", ENDPOINT_POLES)
def test_quadrature_at_poles_on_the_path_ends(x, q):
    start = time.perf_counter()
    got = oracle._quadrature_raw(x, 0.0, q)
    elapsed = time.perf_counter() - start
    ref = _collisionless_reference(x, q)
    assert abs(got.total - ref) <= got.err_est <= 4e-16 * abs(ref)
    assert elapsed < 5.0
    if x >= 0.0:
        assert chi_ratio_quadrature(DimensionlessPoint(x, 0.0, q)).total == got.total


def test_hard_points_and_endpoint_poles_take_one_pass_each(oracle_passes):
    # the peak bounds through the zeros of (1 - t^2)^2 keep the rounding
    # allowance small beside a pole 1e-10 from an end or on one; at q =
    # 6.2e-9 the arc's end needs more tanh-sinh levels than 20 digits give
    for x, y, q in HARD_POINTS + [(x, 0.0, q) for x, q in ENDPOINT_POLES if q > 1e-6]:
        oracle._quadrature_raw(x, y, q)
    want = [oracle._FIRST_DPS] * (len(HARD_POINTS) + len(ENDPOINT_POLES) - 1)
    assert oracle_passes == want, oracle_passes


# The peak bounds behind the rounding allowance: |Q's| and |I1's integrands|,
# sampled on the arc uniformly in v and geometrically towards each end, stay
# below 2^peak, and within _END_REACH of an end below 2^end.
@pytest.mark.parametrize(
    "x, y, q", HARD_POINTS + [(x, 0.0, q) for x, q in ENDPOINT_POLES] + _whole_domain_points(19, 12)
)
def test_peak_bounds_hold_on_the_arc(x, y, q):
    (peak_q, end_q), (peak_1, end_1) = oracle._peak_log2(x, y, q)
    with mp.workprec(200):
        s, h = mpc(x, y) / q, mpf(q) / 2
        ends = [1 - mp.ldexp(1, -k) for k in range(1, 91)]
        for v in [mpf(k) / 20 for k in range(-19, 20)] + ends + [-v for v in ends]:
            t = -1j * mp.expjpi(v / 2)
            u = 1 - t * t
            logs = (
                float(mp.log(abs(u * u / ((t - s) ** 2 * ((t - s) ** 2 - h * h))), 2)),
                float(mp.log(abs(u / (t - s) / q), 2)),
            )
            near = mp.pi / 2 * (1 - abs(v)) <= oracle._END_REACH
            for got, peak, end in zip(logs, (peak_q, peak_1), (end_q, end_1)):
                assert got <= (end if near else peak) + 1e-9, (v, got, peak, end)


def test_quadrature_on_the_collisionless_line():
    rng = random.Random(1002)
    inside = 0
    for i in range(120):
        x, q = 10.0 ** rng.uniform(-3.0, 2.0), 10.0 ** rng.uniform(-2.0, 2.0)
        s = x / q
        inside += min(abs(s), abs(s - 0.5 * q)) < 1.0
        if i % 3 == 0:
            x = -x
        got = oracle._quadrature_raw(x, 0.0, q)
        ref = _collisionless_reference(x, q)
        assert abs(got.total - ref) <= got.err_est, (x, q)
    # both kinds of point: a pole inside [-1, 1], and every pole outside it
    assert 30 <= inside <= 90


def test_reflected_quadrature_is_conjugate():
    # chi(-x) = conj(chi(x)) for a response to a real field
    for x, y, q in [(0.3, 0.05, 0.7), (1.2, 0.4, 1.5)]:
        p = DimensionlessPoint(x, y, q)
        mirrored = oracle._quadrature_raw(-x, y, q).total
        direct = chi_ratio(p).total
        assert abs(mirrored - direct.conjugate()) < 1e-10 * abs(direct)


def mpmath_quadrature(x: float, y: float, q: float) -> tuple:
    """oracle._quadrature_raw with every pass assembled in mpmath numbers, as
    the oracle assembled its passes before it finished them on integers:
    (classic, quant, bound) of the last pass, rounded to a complex, a
    complex and a float as mpmath rounds them. The reference that the
    oracle's assembly on reals is held to, bit for bit."""
    level_sums = oracle._contour_sums(x, y, q)
    peaks = oracle._peak_log2(x, y, q)

    def noise(bounds):
        peak, end = bounds
        if peak == math.inf:
            return mp.inf
        return sum(
            mp.ldexp(math.pi * 2.0 ** (v - math.floor(v)), math.floor(v) - mp.prec - bits)
            for v, bits in ((peak, oracle._NOISE_BITS), (end, oracle._NODE_TAIL_BITS))
        )

    dps = oracle._FIRST_DPS
    while True:
        with mp.workdps(dps):
            results = as_mp(oracle._path_quad(level_sums, mp.prec), mp.prec)
            noise_q, noise_1 = (noise(bounds) for bounds in peaks)
        with mp.workdps(dps), mp.extraprec(oracle._GUARD_BITS):
            out_eps = 10.0**-dps * 2.0**-oracle._GUARD_BITS
            (vq, eq), *classical = results
            if x == 0.0:
                classic, bound_c = mpc(0), mp.zero
            else:
                ((v1, e1),) = classical
                c1 = 3 * mpf(x) / mpf(q) ** 2
                classic = -c1 * v1
                bound_c = abs(c1) * (e1 + noise_1) + out_eps * abs(classic)
            quant = oracle._QUANT_FACTOR * vq
            bound_q = oracle._QUANT_FACTOR * (eq + noise_q) + out_eps * abs(quant)
            totals = ((bound_c, classic), (bound_q, quant), (bound_c + bound_q, classic + quant))
            checks = [(bound, oracle._TARGET_REL * abs(value)) for bound, value in totals]
            if dps == oracle._MAX_DPS or all(bound <= limit for bound, limit in checks):
                return complex(classic), complex(quant), float(bound_c + bound_q)
            excess = max(bound / limit if limit else mp.inf for bound, limit in checks if bound > limit)
            step = int(mp.ceil(mp.log10(excess))) + 2 if mp.isfinite(excess) else dps
        dps = min(oracle._MAX_DPS, dps + step)


def _outcome(func, *args):
    try:
        return func(*args)
    except DomainError as exc:
        return str(exc)


def test_assembly_is_the_mpmath_assembly_bit_for_bit(monkeypatch, oracle_passes):
    # seeded points (x = 0 and x < 0 among them), the hard points, poles on
    # the path ends, the deep cancellations, a point that takes a second pass
    # and a classical part beyond the double range
    points = (
        _whole_domain_points(29, 16)
        + HARD_POINTS
        + [(x, 0.0, q) for x, q in ENDPOINT_POLES[:5]]
        + [(x, y, q) for x, y, q, _ in DEEP_CANCELLATION]
        + [ESCALATING_POINT, (1.0, 1.0, 1e-160)]
    )
    for x, y, q in points:
        got = _outcome(oracle._quadrature_raw, x, y, q)
        want = _outcome(oracle._double_result, "chi_ratio_quadrature", *mpmath_quadrature(x, y, q))
        assert got == want, (x, y, q)
    assert len(oracle_passes) > len(points)
    # a pole on the path: the rounding allowance is infinite, so every pass
    # doubles its digits up to the cap, here 40 digits, and the result
    # leaves the double range
    monkeypatch.setattr(oracle, "_MAX_DPS", 40)
    oracle_passes.clear()
    got = _outcome(oracle._quadrature_raw, 5e-324, 0.0, 5e-324)
    assert got == _outcome(oracle._double_result, "chi_ratio_quadrature", *mpmath_quadrature(5e-324, 0.0, 5e-324))
    assert oracle_passes == [20, 40, 20, 40]


# ---------------------------------------------------------------------------
# the closed forms at measured digits
# ---------------------------------------------------------------------------


def test_exact_reference_holds_the_frozen_deep_cancellation_values():
    for x, y, q, ref in DEEP_CANCELLATION:
        assert abs(exact(x, y, q) - ref) <= 1e-16 * ref, (x, y, q)


def test_exact_reference_on_the_collisionless_line_is_the_limit():
    # y = 0 gives the limit y -> 0+, within err_est of the value at y =
    # 1e-300: at the poles exactly on an end t = +-1, where the log terms take
    # their limit 0 and the result stays finite, and at a seeded set
    rng = random.Random(31)
    points = [(x, q) for x, q in ENDPOINT_POLES if x >= 0.0]
    points += [(10.0 ** rng.uniform(-3.0, 2.0), 10.0 ** rng.uniform(-2.0, 2.0)) for _ in range(20)]
    for x, q in points:
        limit = chi_ratio_exact(DimensionlessPoint(x, 0.0, q))
        assert abs(limit.total - exact(x, 1e-300, q)) <= limit.err_est, (x, q)


@pytest.mark.parametrize("y, q", [(0.0, 0.5), (0.0, 3.0), (1e-3, 0.5), (2700.0, 5.3e-7)])
def test_exact_reference_at_x_zero_has_a_real_quantum_part_alone(y, q):
    got = chi_ratio_exact(DimensionlessPoint(0.0, y, q))
    assert got.classic == 0.0 and got.quant.imag == 0.0


def test_exact_reference_check_refuses_a_candidate_short_of_its_loss(monkeypatch, exact_digits):
    # 20 digits below its loss of about 99, the candidate is rounding noise:
    # the evaluation at twice its digits disagrees and becomes the next
    # candidate, which the one at four times its digits then confirms
    monkeypatch.setattr(oracle, "_EXACT_MARGIN", -20)
    x, y, q, ref = DEEP_CANCELLATION[0]
    got = chi_ratio_exact(DimensionlessPoint(x, y, q))
    assert abs(got.total - ref) <= 1e-16 * ref
    candidate = exact_digits[-3]
    assert exact_digits[-2:] == [2 * candidate, 4 * candidate], exact_digits


@pytest.mark.parametrize("y", [0.0, 1.0])
def test_exact_reference_counts_the_digits_its_logarithms_cancel(y):
    # the pair s -+ q/2 sits at |sigma| = 5e149, where log(sigma - 1) and
    # log(sigma + 1) agree to about 150 digits: below that L(sigma) rounds to
    # 0, and the total reads 0.375 at 60 and at 120 digits alike, while it is
    # 4/q^2
    got = chi_ratio_exact(DimensionlessPoint(0.0, y, 1e150))
    assert abs(got.total - 4e-300) <= got.err_est


@pytest.mark.parametrize("dps", [30, 300, 3000])
def test_branch_log_series_holds_the_logarithm(dps, monkeypatch):
    # far out the exact reference sums L(sigma) from its series in 1/sigma;
    # each such value must hold the principal logarithm, taken at the digits
    # the quotient's rounding costs plus 20, to a few units of 2^-prec, over
    # the closed upper half-plane, the real axis both ways included (real
    # sigma < -1 is a positive quotient). |sigma| runs from 1.5 2^(least+1),
    # where mag(sigma) - 2 >= least and the series needs at most
    # _LOG_SERIES_TERMS terms, up 400 binades
    rng = random.Random(dps)
    with mp.workdps(dps):
        least = -(-(mp.prec + 5) // (2 * oracle._LOG_SERIES_TERMS))
        for angle in [0.0, 1.0, 0.5] + [rng.random() for _ in range(6)]:
            for binades in (0, rng.randrange(1, 400)):
                modulus = mp.ldexp(mpf(1.5), least + 1 + binades)
                sigma = -modulus if angle == 1.0 else modulus * mp.expjpi(angle)
                sigma = mpc(sigma)
                with mp.workdps(dps + int(mp.log10(modulus)) + 20):
                    ref = mp.log((sigma - 1) / (sigma + 1))
                with monkeypatch.context() as patch:
                    patch.setattr(mp, "log", None)  # the series alone serves
                    got = oracle._branch_log(sigma)[1]
                assert abs(got - ref) <= mp.ldexp(abs(ref), 4 - mp.prec), sigma


@pytest.mark.slow
def test_exact_reference_holds_its_error_over_the_whole_range(exact_digits):
    # x and y each 0 with probability 1/4, else log-uniform over 1e+-300; q
    # log-uniform over 1e+-300. Each result is held to the closed forms at its
    # final digits + 200; every other point leaves the double range
    rng = random.Random(31)
    served = 0
    for _ in range(50):
        x, y = (0.0 if rng.random() < 0.25 else 10.0 ** rng.uniform(-300.0, 300.0) for _ in "xy")
        q = 10.0 ** rng.uniform(-300.0, 300.0)
        try:
            got = chi_ratio_exact(DimensionlessPoint(x, y, q))
        except DomainError:
            continue
        with mp.workdps(exact_digits[-1] + 200):
            (i1, i2, i3), _ = oracle._exact_integrals(x, y, q)
            qm = mpf(q)
            ref = -3 * mpf(x) / qm**2 * i1 + 3 / qm * i2 + mpf(0.75) * i3
            assert abs(mpc(got.total) - (ref if x else ref.real)) <= got.err_est, (x, y, q)
        served += 1
    assert 10 <= served <= 45, served


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


# sha256 of float.hex of classic, quant (real and imaginary parts) and err_est
# of chi_from_kinetic at verify's 60 grid points, one line per point, as the
# oracle pin above. A change to the kinetic oracle's numbers moves this pin,
# and says so.
VERIFY_GRID_KINETIC_SHA256 = "15304d3588525a5040e2a78f4f87641c0243632e02f7f9fb01a4d4f6981b0906"


def test_kinetic_bits_on_the_verify_grid_are_pinned():
    lines = []
    for x in GRID_X:
        for y in GRID_Y:
            for q in GRID_Q:
                got = chi_from_kinetic(DimensionlessPoint(x, y, q))
                parts = (got.classic.real, got.classic.imag, got.quant.real, got.quant.imag)
                lines.append(" ".join(v.hex() for v in parts + (got.err_est,)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == VERIFY_GRID_KINETIC_SHA256


def test_occupation_difference_shape():
    # through the occupation integrand W(u)/(q u - z) at x = 0, where the
    # denominator's value at -u is the conjugate of its value at u: an odd W
    # makes the integrand's value at -u the conjugate of its value at u
    y, q = 0.1, 0.5
    occupation, _, _ = _kinetic_integrands(0.0, y, q)
    assert occupation(0.0) == 0.0
    # odd, and identically zero beyond the coupled-shell support
    for u in (0.2, 0.9, 1.2):
        assert occupation(u) != 0.0
        assert occupation(-u) == occupation(u).conjugate()
    edge = 1.0 + 0.5 * q
    assert occupation(edge + 1e-9) == 0.0
    assert occupation(-edge - 0.5) == 0.0
    # W continuous across the clamp seam at u = 1 - q/2: each value times
    # its own denominator (q u - z)/i = y + i q u gives back W
    seam = 1.0 - 0.5 * q
    below = occupation(seam - 1e-9) * complex(y, q * (seam - 1e-9)) / 1j
    above = occupation(seam + 1e-9) * complex(y, q * (seam + 1e-9)) / 1j
    assert abs(below - above) < 1e-7


def test_denominator_never_vanishes_for_positive_y():
    # |q t - z| >= y: the classical integrand (1 - t^2)/(q t - z) stays within
    # |1 - t^2|/y, with equality at t = x/q
    y = 1e-6
    _, _, classic = _kinetic_integrands(0.3, y, 0.6)
    for u in (-1.3, 0.0, 0.3 / 0.6, 1.3):
        assert abs(classic(u)) <= abs(1.0 - u * u) / y


# ---------------------------------------------------------------------------
# nascent delta and extrapolation
# ---------------------------------------------------------------------------


def test_nascent_delta_normalization_and_peak():
    width = 0.03
    d, _, _ = _nascent_delta(width)
    assert abs(d(0.0) - 1.0 / (0.03 * math.sqrt(2.0 * math.pi))) < 1e-15
    # trapezoid over +-10 widths captures the full mass
    n = 20000
    h = 20.0 * width / n
    total = sum(d(-10.0 * width + i * h) for i in range(n + 1)) * h
    assert abs(total - 1.0) < 1e-9


def test_nascent_delta_derivatives_match_finite_differences():
    d, first_derivative, second_derivative = _nascent_delta(0.5)
    for e in (-0.7, 0.2, 1.1):
        h = 1e-6
        fd1 = (d(e + h) - d(e - h)) / (2.0 * h)
        assert abs(first_derivative(e) - fd1) < 1e-6
        # wider step: the second difference amplifies roundoff by 1/h^2
        h = 1e-4
        fd2 = (d(e + h) - 2.0 * d(e) + d(e - h)) / (h * h)
        assert abs(second_derivative(e) - fd2) < 1e-6


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


def test_richardson_refuses_a_diverged_limit():
    # the one tableau step, (0.1 * 1e308 + 0.2 * 1e308) / -0.1, overflows
    with pytest.raises(ExtrapolationError, match="extrapolation diverged"):
        richardson_extrapolate([0.2, 0.1], [1e308, -1e308])


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

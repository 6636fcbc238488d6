"""Tests for the independent numerical oracles.

The oracles exist to check the closed forms, so most assertions here compare
oracle output against the kernel at loose-but-meaningful tolerances and pin
down the oracles' own contracts (domains, error fields, limiting values).
"""

import cmath
import hashlib
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
    chi_from_kinetic,
    chi_ratio,
    chi_ratio_quadrature,
    j_integrals_nascent_delta,
)
from diamag import oracle
from diamag.oracle import _kinetic_integrands, _nascent_delta, richardson_extrapolate
from diamag.verify import GRID_Q, GRID_X, GRID_Y


def rel(a: complex, b: complex) -> float:
    return abs(a - b) / abs(b)


# A path for mp.quad that, like the oracle's arc, passes below every pole
# (Cauchy's theorem), but is not the oracle's: the polyline -1 -> -i -> 1.
POLYLINE = [-1, -1j, 1]


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
    ref = _closed_form_reference(x, y, q)
    got = chi_ratio_quadrature(DimensionlessPoint(x, y, q))
    assert abs(got.total - ref) <= got.err_est
    assert got.err_est > 1e-16 * abs(ref)


def _closed_form_integrals(x: float, y: float, q: float) -> tuple:
    """I1, I2 and I3 from their exact antiderivatives at 400 digits, enough
    to absorb every cancellation in the box sampled below; mpc values."""

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
        return i1, i2, i3


def _closed_form_reference(x: float, y: float, q: float) -> complex:
    """The ratio from the 400-digit integrals."""
    i1, i2, i3 = _closed_form_integrals(x, y, q)
    with mp.workdps(400):
        qm = mpf(q)
        return complex(-3 * mpf(x) / qm**2 * i1 + 3 / qm * i2 + mpf(3) / 4 * i3)


def _box(seed: int, count: int) -> list:
    """Log-uniform over the accepted domain, y > 0, 30 % on the static line."""
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        x = 0.0 if rng.random() < 0.3 else 10.0 ** rng.uniform(-12.0, 6.0)
        points.append((x, 10.0 ** rng.uniform(-14.0, 6.0), 10.0 ** rng.uniform(-9.0, 4.0)))
    return points


def test_quadrature_error_estimate_holds_over_whole_domain():
    for x, y, q, ref in DEEP_CANCELLATION:
        assert abs(_closed_form_reference(x, y, q) - ref) <= 1e-16 * ref
    for x, y, q in _box(7, 24):
        got = chi_ratio_quadrature(DimensionlessPoint(x, y, q))
        ref = _closed_form_reference(x, y, q)
        assert abs(got.total - ref) <= got.err_est, (x, y, q)


# 60 points for each of the seeds 1-5
BOX_300 = [point for seed in range(1, 6) for point in _box(seed, 60)]


def test_quadrature_error_estimate_holds_over_the_300_point_box(oracle_passes):
    for x, y, q in BOX_300:
        got = chi_ratio_quadrature(DimensionlessPoint(x, y, q))
        assert abs(got.total - _closed_form_reference(x, y, q)) <= got.err_est, (x, y, q)
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
    ref = _closed_form_reference(x, y, q)
    assert abs(got.total - ref) <= got.err_est


# Q is the kernel's quantum pair under one integral: (3/16) Q = (3/q) I2 +
# (3/4) I3, checked with mpmath's own quadrature at 30 digits against the
# 400-digit closed forms, with neither the kernel nor the oracle's engine.
# Q's integrand is scaled by max(1, |s|)^4, its size at large |s|, so that
# mp.quad's absolute stop acts as a relative one.
@pytest.mark.parametrize("x, y, q", HARD_POINTS + _box(13, 12))
def test_q_is_the_quantum_pair_of_the_closed_form(x, y, q):
    _, i2, i3 = _closed_form_integrals(x, y, q)
    with mp.workdps(400):
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
# at verify's 60 grid points, one line per point, with mpmath 1.3.0, whose
# standard tanh-sinh nodes the oracle maps onto its arc. Every point takes one
# pass, at 20 digits.
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
    assert abs(got.total - _closed_form_reference(x, y, q)) <= got.err_est
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
                (-1j * mp.expjpi(v / 2), w)
                for v, w in oracle._TANH_SINH.get_nodes(-1, 1, degree, prec)
            )
        ]
        weights = [w for _, w in nodes]
        sums = (mp.fdot(weights, column) for column in zip(*(f(t) for t, _ in nodes)))
        return [oracle._fixed(s.real, s.imag) for s in sums]

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
    zr, zi, ze = oracle._fixed(x, y)
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
    assert oracle._tail_noise(peak) == mp.inf


@pytest.mark.parametrize("x, y, q, dps", KERNEL_CASES)
def test_contour_kernel_matches_object_arithmetic(x, y, q, dps):
    # the same pass, once in the kernel's integer arithmetic and once in
    # mpmath numbers, differs only by rounding: within each integral's
    # rounding noise plus 10^-dps of its value, what _quadrature_raw allows
    peaks = oracle._peak_log2(x, y, q)
    with mp.workdps(dps):
        kernel = oracle._path_quad(oracle._contour_sums(x, y, q))
        reference = oracle._path_quad(object_sums(object_integrands(x, y, q)))
        noise = [oracle._tail_noise(peak) for peak in peaks]
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

    degrees = range(1, oracle._TANH_SINH.guess_degree(prec) + 1)
    levels = []
    with mp.workprec(_EXACT_PREC):
        for degree in degrees:
            sums = [oracle._as_mpc(s) for s in level_sums(degree, prec)]
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
        got = oracle._path_quad(level_sums)
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
    for degree in range(1, oracle._TANH_SINH.guess_degree(prec) + 1):
        got, want = loop(degree, prec), reference(degree, prec)
        assert [_value(v) for v in got] == [_value(v) for v in want], degree
        if not x:
            assert got[0][1] == 0


@pytest.mark.parametrize("dps", [20, 40])
def test_path_quad_agrees_with_mp_quad_and_the_closed_form(dps):
    # I1 at (0.3 + 1e-3 i, 0.7) from the oracle's pass, from mp.quad and from
    # its 400-digit antiderivative: the oracle's value within the sum of its
    # estimate (quadrature error and rounding allowance) and mp.quad's, and
    # within its own of the closed form, whose error is 0 at these digits.
    # mp.quad's estimate leaves out the rounding of its result to the working
    # precision, at most eps of its modulus.
    x, y, q = 0.3, 1e-3, 0.7
    closed = _closed_form_integrals(x, y, q)[0]
    with mp.workdps(dps):
        qm, zm = mpf(q), mpc(x, y)
        _, (value, err) = oracle._path_quad(oracle._contour_sums(x, y, q))
        err += oracle._tail_noise(oracle._peak_log2(x, y, q)[1])
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
        shared = oracle._path_quad(object_sums(f))
        for i, (value, err) in enumerate(shared):
            alone, alone_err = mp.quad(lambda t: f(t)[i], POLYLINE, error=True)
            assert abs(value - alone) <= err + alone_err + mp.eps * abs(alone)


def _exact(value) -> Fraction:
    mantissa, exponent = oracle._parts(value)
    return mantissa * Fraction(2) ** exponent


@pytest.mark.parametrize("prec", [86, 143])
def test_fixed_nodes_are_mpmaths_nodes(prec):
    # mpmath's standard nodes v, w carried onto the arc t = -i exp(i pi v/2):
    # t within one unit of that point and on the unit circle within one
    # rounding, 1 - t^2 exact from the rounded t and then rounded to nearest,
    # and the weight within one unit of w dt/dv = w (pi/2) i t; both lists
    # in the order of v, along the arc: Re t = sin(pi v/2) grows with v, and
    # where the rounded Re t ties (near t = -+1), Im t = -cos(pi v/2) falls
    # left of t = -i and rises right of it
    def along(node):
        tr, ti, te, *_ = node
        return tr * Fraction(2) ** te, (-ti if tr < 0 else ti) * Fraction(2) ** te

    for degree in range(1, oracle._TANH_SINH.guess_degree(prec) + 1):
        nodes = sorted(oracle._fixed_nodes(degree, prec, False), key=along)
        standard = oracle._TANH_SINH.get_nodes(-1, 1, degree, prec)
        assert len(nodes) == len(standard)
        for (tr, ti, te, ur, ui, ue, cr, ci, ce), (v, w) in zip(nodes, sorted(standard)):
            with mp.workprec(prec + 100):
                t = -1j * mp.expjpi(v / 2)
                weight = w * mp.pi / 2 * 1j * t
            unit = Fraction(2) ** te
            assert abs(tr * unit - _exact(t.real)) <= unit
            assert abs(ti * unit - _exact(t.imag)) <= unit
            assert abs((tr * tr + ti * ti) * unit * unit - 1) <= Fraction(3, 2) * unit
            square = (tr * unit) ** 2 - (ti * unit) ** 2, 2 * tr * ti * unit * unit
            half = Fraction(2) ** ue / 2
            assert abs(ur * 2 * half - (1 - square[0])) <= half
            assert abs(ui * 2 * half + square[1]) <= half
            unit = Fraction(2) ** ce
            assert abs(cr * unit - _exact(weight.real)) <= unit
            assert abs(ci * unit - _exact(weight.imag)) <= unit


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
    with mp.workdps(dps):
        folded = oracle._path_quad(oracle._contour_sums(0.0, y, q))
        whole = oracle._path_quad(reference_sums(0.0, y, q))
        assert len(folded) == 1
        assert folded == whole
        assert folded[0][0].imag == 0
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

    with mp.workdps(20):
        oracle._path_quad(level_sums)
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


def _collisionless_reference(x: float, q: float) -> complex:
    """The limit y -> 0+ at x, conjugated for x < 0: chi(-x) = conj(chi(x))."""
    ref = _closed_form_reference(abs(x), 1e-300, q)
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

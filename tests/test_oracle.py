"""Tests for the independent numerical oracles.

The oracles exist to check the closed forms, so most assertions here compare
oracle output against the kernel at loose-but-meaningful tolerances and pin
down the oracles' own contracts (domains, error fields, limiting values).
"""

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
    chi_quant_smallk,
    chi_ratio,
    chi_ratio_quadrature,
    j_integrals_nascent_delta,
)
from diamag import oracle
from diamag.oracle import _kinetic_integrands, _nascent_delta, richardson_extrapolate
from diamag.verify import GRID_Q, GRID_X, GRID_Y


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
    assert abs(got.total - ref) <= got.err_est


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
        assert abs(got.total - ref) <= got.err_est, (x, y, q)


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


# verify's grid points that took a second pass while the oracle combined its
# integrals at the working precision, where the allowance of 10^-dps of
# |term2| + |term3| swamped a quantum part of 1e-6 to 1e-2. Combined at the
# guard width, only y = 1, q = 0.05 still needs one, for its node noise.
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


def test_verify_grid_takes_at_most_63_passes(monkeypatch):
    passes = []
    path_quad = oracle._path_quad

    def counting(level_sums, path=oracle._PATH):
        passes.append(mp.dps)
        return path_quad(level_sums, path)

    monkeypatch.setattr(oracle, "_path_quad", counting)
    for x in GRID_X:
        for y in GRID_Y:
            for q in GRID_Q:
                chi_ratio_quadrature(DimensionlessPoint(x, y, q))
    # 60 first passes, and second ones only at (x, 1, 0.05)
    assert len(passes) <= 63, passes


# sha256 of float.hex of classic, quant (real and imaginary parts) and err_est
# at verify's 60 grid points, one line per point, with mpmath 1.3.0, whose
# tanh-sinh nodes and error estimate the oracle uses. Three of the points,
# (x, 1, 0.05), take a second pass, so two precisions are pinned. A change to
# the oracle's numbers moves this pin, and says so.
VERIFY_GRID_ORACLE_SHA256 = "b4a6382dd4296d0771caeeb9f3ab0ac0ba3f7349837ffb6776e25c3042a32f1a"


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
    of mpmath numbers: mp.quad's own (TanhSinh.sum_next, one mp.fdot),
    converted exactly to the oracle's integer values."""

    def level_sums(start, end, degree, prec):
        nodes = oracle._TANH_SINH.get_nodes(start, end, degree, prec)
        weights = [w for _, w in nodes]
        sums = (mp.fdot(weights, column) for column in zip(*(f(t) for t, _ in nodes)))
        return [oracle._fixed(s.real, s.imag) for s in sums]

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


def reference_sums(x, y, q):
    """oracle._contour_sums composed from the helpers above: per node the same
    operations in the same order, each a call returning a tuple, and each
    component's terms collected and summed exactly by oracle._exact_sum."""
    qm, qe = oracle._parts(q)
    zr, zi, ze = oracle._fixed(x, y)
    km, ke = qm**4, 4 * qe - 2  # q^4/4

    def level_sums(start, end, degree, prec):
        width = prec + oracle._GUARD_BITS
        sr, si = int((end - start).real), int((end - start).imag)
        i2, i3, i1 = [], [], []
        for tr, ti, te, ur, ui, ue, vr, vi, ve, c, ce in oracle._fixed_nodes(
            start, end, degree, prec
        ):
            wr, wi, we = _difference(qm * tr, qm * ti, qe + te, zr, zi, ze, width)
            ar, ai, ae = _quotient(ur, ui, ue, wr, wi, we, width)
            br, bi, be = oracle._rounded(tr * ar - ti * ai, tr * ai + ti * ar, te + ae, width)
            dr, di, de = _difference(wr * wr - wi * wi, 2 * wr * wi, 2 * we, km, 0, ke, width)
            fr, fi, fe = _quotient(vr, vi, ve, dr, di, de, width)
            i2.append((c * br, c * bi, ce + be))
            i3.append((c * fr, c * fi, ce + fe))
            if x:
                i1.append((c * ar, c * ai, ce + ae))
        return [
            (sr * re - si * im, sr * im + si * re, exp)
            for re, im, exp in map(oracle._exact_sum, (i2, i3, i1) if x else (i2, i3))
        ]

    return level_sums


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


def test_nearest_even_rounds_as_an_mpf_does():
    rng = random.Random(5)
    for _ in range(300):
        width = rng.randrange(2, 200)
        if rng.random() < 0.3:  # an exact tie: width bits and half a unit
            kept = rng.randrange(2 ** (width - 1), 2**width)
            m = rng.choice((-1, 1)) * (2 * kept + 1) << rng.randrange(20)
        else:
            m = rng.randrange(-(2**300), 2**300) >> rng.randrange(300)
        exp = rng.randrange(-400, 400)
        with mp.workprec(width):
            want = _exact(mp.mpf(mp.ldexp(m, exp)))  # ldexp is exact; mpf() rounds
        mantissa, exponent = oracle._nearest_even(m, exp, width)
        assert mantissa * Fraction(2) ** exponent == want
    # ties to even: 5/2 -> 2 and 7/2 -> 4 units at two bits
    assert oracle._nearest_even(5, 0, 2) == (2, 1)
    assert oracle._nearest_even(-7, 0, 2) == (-4, 1)


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


def mpc_path_quad(level_sums, path=oracle._PATH):
    """oracle._path_quad's loop on mpc values, as mp.quad runs it: each level
    sum becomes an mpc at the guard width, and TanhSinh's sum_next step and
    estimate_error follow."""
    prec = mp.prec
    epsilon = mp.eps / 8
    segments = []
    with mp.extraprec(oracle._GUARD_BITS):
        for a, b in zip(path, path[1:]):
            levels = []
            for degree in range(1, oracle._TANH_SINH.guess_degree(prec) + 1):
                sums = [oracle._as_mpc(s) for s in level_sums(a, b, degree, prec)]
                h = mpf(2) ** -degree
                previous = levels[-1] if levels else [mp.zero] * len(sums)
                levels.append([h * (p / (h * 2) + s) for p, s in zip(previous, sums)])
                if degree < max(2, oracle._FIRST_STOP_DEGREE):
                    continue
                errs = [oracle._TANH_SINH.estimate_error(r, prec, epsilon) for r in zip(*levels)]
                if max(errs) <= epsilon:
                    break
            segments.append(zip(levels[-1], errs))
        return [(sum(v for v, _ in parts), sum(e for _, e in parts)) for parts in zip(*segments)]


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
    loop, reference = oracle._contour_sums(x, y, q), reference_sums(x, y, q)
    for a, b in zip(oracle._PATH, oracle._PATH[1:]):
        for degree in range(1, oracle._TANH_SINH.guess_degree(prec) + 1):
            assert loop(a, b, degree, prec) == reference(a, b, degree, prec), (a, b, degree)


def at_working_precision(results):
    """_path_quad's totals, which it leaves at its guard width, rounded to the
    working precision as mp.quad rounds its result."""
    return [(+value, err) for value, err in results]


@pytest.mark.parametrize("dps", [20, 40])
def test_path_quad_is_mp_quad_for_one_integrand(dps, monkeypatch):
    # mp.quad's own stopping rule: its estimate is trusted from degree 2
    monkeypatch.setattr(oracle, "_FIRST_STOP_DEGREE", 2)
    with mp.workdps(dps):
        qm, zm = mpf(0.7), mpc(0.3, 1e-3)

        def f(t):
            return (1 - t * t) / (qm * t - zm)

        assert at_working_precision(oracle._path_quad(object_sums(lambda t: (f(t),)))) == [
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

        shared = at_working_precision(oracle._path_quad(object_sums(f)))
        for i, (value, err) in enumerate(shared):
            alone, _ = mp.quad(lambda t: f(t)[i], list(oracle._PATH), error=True)
            assert abs(value - alone) <= err


def _exact(value) -> Fraction:
    mantissa, exponent = oracle._parts(value)
    return mantissa * Fraction(2) ** exponent


@pytest.mark.parametrize("prec", [86, 143])
def test_fixed_nodes_are_mpmaths_nodes(prec):
    # built from the standard nodes on [-1, 1], each t is within one unit at
    # the width of mpmath's node on the segment, and (b - a) times the half
    # weight is mpmath's weight exactly; -i -> 1 mirrors -1 -> -i, which
    # swaps the nodes +-x of each pair, so both lists are taken in the order
    # of Re t, which grows with x on either segment
    for a, b in zip(oracle._PATH, oracle._PATH[1:]):
        span = complex(b - a)
        span_re, span_im = int(span.real), int(span.imag)
        for degree in range(1, oracle._TANH_SINH.guess_degree(prec) + 1):
            nodes = sorted(
                oracle._fixed_nodes(a, b, degree, prec),
                key=lambda node: node[0] * Fraction(2) ** node[2],
            )
            want = sorted(
                oracle._TANH_SINH.get_nodes(a, b, degree, prec),
                key=lambda node: _exact(node[0].real),
            )
            assert len(nodes) == len(want)
            for (tr, ti, te, *_, c, ce), (t, weight) in zip(nodes, want):
                unit = Fraction(2) ** te
                assert abs(tr * unit - _exact(t.real)) <= unit
                assert abs(ti * unit - _exact(t.imag)) <= unit
                half = c * Fraction(2) ** ce
                assert span_re * half == _exact(weight.real)
                assert span_im * half == _exact(weight.imag)


def test_fixed_nodes_mirror_at_the_corner():
    # t -> -conj(t) maps the nodes of -1 -> -i onto those of -i -> 1 exactly
    for degree in range(1, 7):
        first = oracle._fixed_nodes(-1, -1j, degree, 86)
        second = oracle._fixed_nodes(-1j, 1, degree, 86)
        mirrored = {
            (-tr, ti, te, ur, -ui, ue, vr, -vi, ve, c, ce)
            for tr, ti, te, ur, ui, ue, vr, vi, ve, c, ce in first
        }
        assert mirrored == set(second)


# At x = 0 the second segment mirrors the first and the integrands of I2 and
# I3 conjugate, so the oracle integrates one segment and doubles its real part.
X_ZERO_CASES = (
    [(0.0, q, 20) for q in (0.3, 2.0, 150.0)]
    + [(y, q, dps) for _, y, q, _ in DEEP_CANCELLATION for dps in (20, 58)]
    + [(0.00488897048678087, 155.9966209175565, 20), (1e-300, 1.0, 20)]
    + [(y, q, 20) for x, y, q in _whole_domain_points(17, 40) if x == 0.0]
)


@pytest.mark.parametrize("y, q, dps", X_ZERO_CASES)
def test_one_segment_at_x_zero_is_the_whole_path(y, q, dps):
    level_sums = oracle._contour_sums(0.0, y, q)
    with mp.workdps(dps):
        whole = oracle._path_quad(level_sums)
        half = oracle._path_quad(level_sums, oracle._PATH[:2])
        assert len(whole) == len(half) == 2
        for (value, err), (segment, segment_err) in zip(whole, half):
            assert value.imag == 0
            assert value.real == mp.ldexp(segment.real, 1)
            assert err == mp.ldexp(segment_err, 1)
    assert oracle._quadrature_raw(0.0, y, q).quant.imag == 0.0


@pytest.mark.parametrize("first_stop", [2, 4])
def test_error_is_estimated_only_where_it_can_stop(first_stop, monkeypatch):
    monkeypatch.setattr(oracle, "_FIRST_STOP_DEGREE", first_stop)
    estimate = oracle._error_estimate
    degrees = []

    def counting(levels, prec, epsilon):
        degrees.append(len(levels))
        return estimate(levels, prec, epsilon)

    monkeypatch.setattr(oracle, "_error_estimate", counting)
    with mp.workdps(20):
        oracle._path_quad(oracle._contour_sums(0.3, 1e-3, 0.7))
    # one estimate per component (I1, I2, I3) and degree; each of the two
    # segments runs its degrees up from the first that may stop
    per_degree = degrees[::3]
    assert degrees == [d for d in per_degree for _ in range(3)]
    starts = [d for i, d in enumerate(per_degree) if i == 0 or d != per_degree[i - 1] + 1]
    assert starts == [max(2, first_stop)] * 2


def _levels(prec, last, *distances):
    """Exact levels at the guard width of prec, the earlier ones at the given
    distances from the last one, `last`, in random directions; and the same
    levels as mpc values."""
    rng = random.Random(repr((prec, last, distances)))
    with mp.workprec(prec + oracle._GUARD_BITS):
        values = [last + d * mp.expjpi(rng.uniform(-1.0, 1.0)) for d in distances]
        values = [mpc(v) for v in values + [last]]
    return [oracle._fixed(v.real, v.imag) for v in values], values


def _estimates(levels, values, prec, monkeypatch):
    """_error_estimate of the exact levels, mpmath's estimate of the same
    levels as mpc values, and whether the former called the latter."""
    estimate = oracle._TANH_SINH.estimate_error
    calls = []

    def counting(*args):
        calls.append(args)
        return estimate(*args)

    monkeypatch.setattr(oracle._TANH_SINH, "estimate_error", counting)
    with mp.workprec(prec + oracle._GUARD_BITS):
        epsilon = mp.ldexp(1, -prec - 2)
        got = oracle._error_estimate(levels, prec, epsilon)
        want = estimate(values, prec, epsilon)
    return got, want, bool(calls)


ESTIMATE_CASES = [
    # (prec, last level, distances of the levels before it, mpmath called)
    pytest.param(70, 0.3 + 0.1j, (1e-3,), True, id="degree-2"),
    pytest.param(70, 0.3 + 0.1j, (0, 0), True, id="last-three-equal"),
    pytest.param(70, 0.3 + 0.1j, (1e-3, 0), True, id="last-two-equal"),
    pytest.param(70, 0.3 + 0.1j, (0, 1e-3), True, id="last-and-third-equal"),
    pytest.param(70, 1e-80, (1e-90, 1e-100), False, id="clipped-at-minus-prec"),
    pytest.param(70, 1e5 - 3e4j, (1e3, 1e2), False, id="clipped-at-zero"),
    pytest.param(70, 0.5, (1e-3, 2e-4, 3e-11), False, id="two-d1"),
    pytest.param(143, 2.0, (1e-4, 1e-7), False, id="d1-squared-over-d2"),
    # D1^2/D2 = 36/-4 = -9 within 1e-12, above 2 D1 = -12: only mpmath's
    # logarithms at the guard width tell on which side of -9 it lies
    pytest.param(70, 0, (1e-4, 1e-6), True, id="near-an-integer"),
    pytest.param(70, 1e-3, (0.5, 3e-5), True, id="d2-below-one"),
]


@pytest.mark.parametrize("prec, last, distances, fallback", ESTIMATE_CASES)
def test_error_estimate_is_mpmaths(prec, last, distances, fallback, monkeypatch):
    levels, values = _levels(prec, last, *distances)
    got, want, called = _estimates(levels, values, prec, monkeypatch)
    assert got == want
    assert called is fallback


def test_error_estimate_is_mpmaths_on_random_levels(monkeypatch):
    rng = random.Random(16)
    called = 0
    for _ in range(300):
        prec = rng.choice((70, 136, 236, 518))
        scale = 10.0 ** rng.uniform(-200.0, 200.0)
        d1 = 10.0 ** rng.uniform(-0.9 * prec / 3.33, 1.0)
        d2 = d1 * 10.0 ** rng.uniform(0.0, 12.0)
        last = scale * complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        levels, values = _levels(prec, last, d2 * scale, d1 * scale)
        got, want, fallback = _estimates(levels, values, prec, monkeypatch)
        assert got == want, (prec, last, d1, d2)
        called += fallback
    # the float path decides almost everywhere
    assert called < 30


# _path_quad's bookkeeping written with the helpers, one list and one tuple
# per operation, and the power of ten computed afresh: the reference that
# oracle._next_level and oracle._error_estimate are checked against bit for
# bit.


def _mpc_rounded(re, im, exp, width):
    """A value with each part rounded as an mpc at width bits rounds it."""
    return oracle._joined(
        oracle._nearest_even(re, exp, width), oracle._nearest_even(im, exp, width)
    )


def reference_next_level(previous, level_sum, degree, width):
    pr, pi, pe = previous
    total = oracle._exact_sum([(pr, pi, pe + degree - 1), _mpc_rounded(*level_sum, width)])
    re, im, exp = _mpc_rounded(*total, width)
    return re, im, exp - degree


def _reference_log10_distance(a, b):
    re, im, exp = oracle._exact_sum([a, (-b[0], -b[1], b[2])])
    square = re * re + im * im
    return 0.5 * math.log10(square) + exp * oracle._LOG10_2 if square else None


def reference_error_estimate(levels, prec, epsilon):
    if len(levels) > 2:
        d1 = _reference_log10_distance(levels[-1], levels[-2])
        d2 = _reference_log10_distance(levels[-1], levels[-3])
        if d1 is not None and d2 is not None and abs(d2) >= 1:
            exponent = max(d1 * d1 / d2, 2 * d1)
            nearest = round(exponent)
            if not (-prec <= nearest < 0 and abs(exponent - nearest) < oracle._LOG_SLACK):
                return mpf(10) ** int(min(0, max(exponent, -prec)))
    values = [oracle._as_mpc(level) for level in levels]
    return oracle._TANH_SINH.estimate_error(values, prec, epsilon)


def _value(level):
    """An exact value as two Fractions: a level's bits are those of its value."""
    re, im, exp = level
    unit = Fraction(2) ** exp
    return re * unit, im * unit


def test_level_bookkeeping_on_the_verify_grid_is_the_reference(monkeypatch):
    # every level and every error estimate of verify's 60 points, from an
    # empty constant cache as in a fresh process
    next_level, error_estimate = oracle._next_level, oracle._error_estimate
    checked = {"levels": 0, "estimates": 0}

    def checked_level(*args):
        got = next_level(*args)
        assert _value(got) == _value(reference_next_level(*args)), args
        checked["levels"] += 1
        return got

    def checked_estimate(levels, prec, epsilon):
        got = error_estimate(levels, prec, epsilon)
        assert got._mpf_ == reference_error_estimate(levels, prec, epsilon)._mpf_, levels
        checked["estimates"] += 1
        return got

    monkeypatch.setattr(oracle, "_CONSTANTS", {})
    monkeypatch.setattr(oracle, "_next_level", checked_level)
    monkeypatch.setattr(oracle, "_error_estimate", checked_estimate)
    for x in GRID_X:
        for y in GRID_Y:
            for q in GRID_Q:
                chi_ratio_quadrature(DimensionlessPoint(x, y, q))
    # the counts of verify's 63 passes; a change to the passes moves them
    assert checked == {"levels": 1317, "estimates": 435}


def test_next_level_is_the_reference_on_random_values():
    # exact ties of either rounding, zero parts and a zero previous level
    # included; the values are equal, their integers may carry other powers
    # of two
    rng = random.Random(20)

    def part(bits):
        if rng.random() < 0.05:
            return 0
        return rng.randrange(-(2**bits), 2**bits) >> rng.randrange(bits)

    for _ in range(3000):
        width = rng.choice((90, 153, 220))
        previous = (part(width), part(width), rng.randrange(-300, 10))
        if rng.random() < 0.1:
            previous = (0, 0, 0)
        level_sum = (part(2 * width), part(2 * width), rng.randrange(-500, 10))
        tie = 2 * rng.randrange(2 ** (width - 1), 2**width) + 1  # half a unit off width bits
        if rng.random() < 0.1:  # the level sum's real part rounds a tie
            level_sum = (tie << 5,) + level_sum[1:]
        elif rng.random() < 0.1:  # the sum's real part does
            previous, level_sum = (tie,) + previous[1:], (0,) + level_sum[1:]
        args = (previous, level_sum, rng.randrange(1, 8), width)
        assert _value(oracle._next_level(*args)) == _value(reference_next_level(*args)), args


def _fresh_constant(key):
    """A constant of oracle._CONSTANTS computed without the cache, at the
    context's precision."""
    if isinstance(key, int):
        return mpf(10) ** key
    if isinstance(key, tuple):  # ("out_eps", dps)
        return mpf(10) ** -key[1] * mpf(2) ** -oracle._GUARD_BITS
    return {
        "eps/8": lambda: mp.eps / 8,
        "degree": lambda: oracle._TANH_SINH.guess_degree(mp.prec),
        "1 + sqrt(2)": lambda: 1 + mp.sqrt(2),
        "tail": lambda: oracle._PATH_LENGTH * mpf(2) ** -(mp.prec + oracle._NODE_TAIL_BITS),
        "3/4": lambda: mpf(3) / 4,
    }[key]()


def test_cached_constants_are_the_uncached_values_at_each_precision(monkeypatch):
    # a point that takes a second pass, then one that takes one pass, then a
    # pass at 33 digits: each precision keeps its own constants, and each is
    # bit for bit the value computed afresh there
    monkeypatch.setattr(oracle, "_CONSTANTS", {})
    digits = []
    path_quad = oracle._path_quad

    def counting(level_sums, path=oracle._PATH):
        digits.append(mp.dps)
        return path_quad(level_sums, path)

    monkeypatch.setattr(oracle, "_path_quad", counting)
    chi_ratio_quadrature(DimensionlessPoint(0.1, 1.0, 0.05))
    chi_ratio_quadrature(DimensionlessPoint(0.1, 0.01, 0.5))
    monkeypatch.setattr(oracle, "_FIRST_DPS", 33)
    chi_ratio_quadrature(DimensionlessPoint(0.1, 0.01, 0.5))
    assert digits[0] == digits[2] == 20 and digits[1] > 20 and digits[3:] == [33], digits
    for dps in set(digits):
        with mp.workdps(dps):
            working = mp.prec
        guard = working + oracle._GUARD_BITS
        for key in ("eps/8", "degree", "1 + sqrt(2)", "tail"):
            assert (working, key) in oracle._CONSTANTS, (dps, key)
        for key in (("out_eps", dps), "3/4"):
            assert (guard, key) in oracle._CONSTANTS, (dps, key)
        assert any(p == guard and isinstance(k, int) for p, k in oracle._CONSTANTS), dps
    for (prec, key), value in oracle._CONSTANTS.items():
        with mp.workprec(prec):
            want = _fresh_constant(key)
        if isinstance(want, int):
            assert value == want, (prec, key)
        else:
            assert value._mpf_ == want._mpf_, (prec, key)


# On the collisionless line y = 0 the path still passes below every pole, so
# the oracle gives the limit y -> 0+: the kernel's principal value at x = y = 0
# and, elsewhere, the closed form just above the axis.
@pytest.mark.parametrize("q", [10.0 ** (k / 4.0) for k in range(-12, 17)] + [2.0])
def test_quadrature_serves_static_point(q):
    p = DimensionlessPoint(0.0, 0.0, q)
    assert rel(chi_ratio_quadrature(p).total, chi_ratio(p).total) < 1e-14


def _collisionless_reference(x: float, q: float) -> complex:
    """The limit y -> 0+ at x, conjugated for x < 0: chi(-x) = conj(chi(x))."""
    ref = _closed_form_reference(abs(x), 1e-300, q)
    return ref.conjugate() if x < 0.0 else ref


# Poles exactly on an end t = +-1 of the path, where the integrands stay
# bounded only through the zero of 1 - t^2: s = +-1 for I1 and I2, or
# s -+ q/2 = +-1 for I3. And a pole inside [-1, 1] beside one on t = 1.
ENDPOINT_POLES = [
    (0.0, 2.0),
    (-1.0, 1.0),
    (1.0, 1.0),
    (-0.375, 0.5),
    (0.375, 0.5),
    (-1.5, 1.0),
    (1.5, 1.0),
    (0.5, 0.5),
]


@pytest.mark.parametrize("x, q", ENDPOINT_POLES)
def test_quadrature_at_poles_on_the_path_ends(x, q):
    start = time.perf_counter()
    got = oracle._quadrature_raw(x, 0.0, q)
    elapsed = time.perf_counter() - start
    ref = _collisionless_reference(x, q)
    assert abs(got.total - ref) <= got.err_est
    assert elapsed < 5.0
    if x >= 0.0:
        assert chi_ratio_quadrature(DimensionlessPoint(x, 0.0, q)).total == got.total


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

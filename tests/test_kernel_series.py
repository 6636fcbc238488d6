"""Series evaluation paths and their agreement with the closed forms.

The closed forms cancel catastrophically at small q (intermediates grow as
1/q^3 while the result stays O(1)), so agreement checks compare against
references frozen from 60-digit arithmetic; the raw double-precision closed
form is held only to the accuracy its conditioning permits.
"""

import cmath
import hashlib
import math
import random

import pytest

from diamag import ConvergenceError, DomainError, kernel
from diamag.core import DimensionlessPoint, RegimeTag
from diamag.kernel import _closed_form_parts, _closed_pieces, _laurent_parts, chi_ratio
from diamag.verify import _honesty, _honesty_ratio

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
    (_, bracket, g_plus, g_minus, _), _ = _closed_pieces(complex(0.0, 1e-6), q)
    raw = (3.0 / q * (bracket / q) + 0.75 * ((g_plus - g_minus) / q**3)).real
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
    # |s| = 3.33: the Laurent branch serves the point, and the direct closed
    # form is still well-conditioned there
    point = DimensionlessPoint(x=0.0, y=4.0, q=1.2)
    assert chi_ratio(point).method is RegimeTag.LAURENT_SERIES
    direct = sum(_closed_form_parts(point, None)[:2])
    classic, quant, _ = _laurent_parts(point)
    assert abs(direct - (classic + quant)) <= 1e-11 * abs(direct)


def test_finite_frequency_asymptotic_value():
    # |s| = 63: mandatory asymptotic regime, classical part dominant
    result = chi_ratio(DimensionlessPoint(x=3.0, y=1.0, q=0.05))
    expected = complex(1440.04319969421539534, -480.062408138595653387)
    assert result.method is RegimeTag.LAURENT_SERIES
    assert abs(result.total - expected) < 1e-12 * abs(expected)
    assert abs(result.classic) > abs(result.quant)



def test_laurent_static_line_survives_a_tiny_wavenumber():
    # the quantum part is 0.2 (q/y)^4 to leading order, 2e-13 at q/y = 1e-3;
    # the same ratio at (0, 1e-6, 1e-9) gives 1.99999714e-13
    result = chi_ratio(DimensionlessPoint(x=0.0, y=1e-80, q=1e-83))
    assert result.method is RegimeTag.LAURENT_SERIES
    assert math.isclose(result.total.real, 1.99999714e-13, rel_tol=1e-6)


# Frozen from the closed forms at 1500 digits (mpmath; 400 are not enough
# here), where the Laurent ratio r = q^4/(4 z^2) is below the double range.
# The first two values lie near the bottom of that range; at the third,
# 12/z^2 is near its top, and the scaled sum times 12/z^2 would overflow.
# Summing from the unscaled r gave 0, 4.40e-278 and 0, with err_est 0.
TINY_RATIO_REFERENCES = [
    ((0.0, 4.13e-30, 1.91e-99), 9.148781553700916e-279),
    ((0.0, 3.67e-23, 2.78e-92), 6.584835383003991e-278),
    ((0.0, 1e-153, 1e-160), 1.999999999999971e-29),
]


@pytest.mark.parametrize("coords, ref", TINY_RATIO_REFERENCES)
def test_laurent_keeps_its_digits_where_its_ratio_underflows(coords, ref):
    result = chi_ratio(DimensionlessPoint(*coords))
    assert result.method is RegimeTag.LAURENT_SERIES
    assert _honesty_ratio(result, ref) <= 1.0


def _laurent_exponents(m: float, q: float) -> tuple:
    """(eq, ez) of the Laurent branch's range rule at max(x, y) = m: q 2^-eq
    lies in [2^-251, 2^255] and m 2^-ez in [2^-510, 2^510], and each
    exponent is 0 where no scaling is needed."""
    eq = 0 if 2.0**-251 <= q <= 2.0**255 else math.frexp(q)[1] - (255 if q > 1.0 else -250)
    ez = 0 if 2.0**-510 <= m <= 2.0**510 else math.frexp(m)[1] - (510 if m > 1.0 else -509)
    return eq, ez


def _complex_laurent_quant(y: float, q: float) -> tuple:
    """_quant_laurent on the complex inputs that a point x > 0 gives it,
    here at z = iy, where _laurent_parts feeds the same loop real ones."""
    eq, ez = _laurent_exponents(y, q)
    z = complex(0.0, math.ldexp(y, -ez))
    r_scaled = math.ldexp(q, -eq) ** 4 / (4.0 * z * z)
    r = r_scaled * 2.0 ** (4 * eq - 2 * ez)
    w = (q / complex(0.0, y)) ** 2
    return kernel._quant_laurent(w, r_scaled, r, 12.0 / (z * z), 2 * (eq - ez))


def _outcome(func, *args):
    """func's value, or the type of the exception it raises."""
    try:
        return func(*args)
    except Exception as exc:  # the type is the outcome
        return type(exc)


def test_x0_laurent_in_real_arithmetic_keeps_the_complex_bits():
    # y and q log-uniform over 1e+-300: the real sums give the complex sums'
    # real part bit for bit, err_est too, and raise where they raise, silent
    # zeros (+0.0 on both) included; both scale q and y by the same rule,
    # and every (eq != 0, ez != 0) cell of it occurs
    rng = random.Random(41)
    kinds = set()
    cells = set()
    for _ in range(20000):
        y, q = _loguniform(rng, 1e-300, 1e300), _loguniform(rng, 1e-300, 1e300)
        point = DimensionlessPoint(0.0, y, q)
        tag = _outcome(kernel._classify, point)
        if isinstance(tag, type) or tag[0] is not RegimeTag.LAURENT_SERIES:
            continue
        got = _outcome(_laurent_parts, point)
        want = _outcome(_complex_laurent_quant, y, q)
        if isinstance(want, type):
            assert got is want, (y, q)
            kinds.add(want.__name__)
            continue
        classic, quant, err_est = got
        assert (quant.hex(), err_est.hex()) == (want[0].real.hex(), want[1].hex()), (y, q)
        kinds.add("zero" if quant == 0.0 else "finite")
        cells.add(tuple(e != 0 for e in _laurent_exponents(y, q)))
    assert kinds == {"finite", "zero"}
    assert cells == {(False, False), (False, True), (True, False), (True, True)}


# Frozen from the closed forms at 1500 digits (mpmath; 2000 agree to 950
# digits). y^2 is below the normal range: a subnormal at the second point, 0
# at the first, where the unscaled sums divided by zero.
Y_SQUARED_UNDERFLOW_REFERENCES = [
    ((0.0, 1e-170, 1e-175), 1.999999999714286e-21),
    ((0.0, 1e-160, 1e-163), 1.9999971428604757e-13),
]


@pytest.mark.parametrize("coords, ref", Y_SQUARED_UNDERFLOW_REFERENCES)
def test_x0_laurent_where_y_squared_underflows_keeps_its_digits(coords, ref):
    result = chi_ratio(DimensionlessPoint(*coords))
    assert result.method is RegimeTag.LAURENT_SERIES
    assert _honesty_ratio(result, ref) <= 1.0


def test_laurent_where_z_squared_overflows_keeps_its_digits():
    # x y is above 9e307: unscaled, z^2 overflows to a NaN; the sums run on
    # z 2^-ez and q 2^-eq. The reference is the closed form at 3154 digits
    result = chi_ratio(DimensionlessPoint(1.37e292, 1.96e126, 9.2e-44))
    assert result.method is RegimeTag.LAURENT_SERIES
    ref = complex(4.725897920604915e86, -6.7611386309384191e-80)
    assert _honesty_ratio(result, ref) <= 1.0


def test_x_positive_laurent_where_q_squared_underflows_is_honest():
    # q in [1e-200, 1e-150], where q^2 is below the normal range (a subnormal
    # above about 1.5e-162, 0 below): the classical weight 3x/q^2 lost its
    # digits there, or divided by zero. x and y log-uniform over 1e+-300, a
    # tenth at y = 0, far field 3 <= |s| <= 1e200. Each served point is held
    # to chi_ratio_exact, the closed form at the digits its cancellation
    # needs (about 6 log10|s| + 2 log10(1/q) digits in the quantum part);
    # every other point raises DomainError (the value or an intermediate
    # leaves the double range)
    rng = random.Random(29)
    served = []
    for _ in range(100):
        while True:
            q = _loguniform(rng, 1e-200, 1e-150)
            x = _loguniform(rng, 1e-300, 1e300)
            y = 0.0 if rng.random() < 0.1 else _loguniform(rng, 1e-300, 1e300)
            s_abs = abs(complex(x, y)) / q
            if 3.0 <= s_abs <= 1e200:
                break
        point = DimensionlessPoint(x, y, q)
        try:
            result = chi_ratio(point)
        except DomainError:
            continue
        assert result.method is RegimeTag.LAURENT_SERIES
        served.append(point)
    assert len(served) >= 30
    for point, ratio in zip(served, _honesty(served)):
        assert ratio <= 1.0, point


# x > 0 range classes where an unscaled Laurent intermediate leaves the double
# range: z^2 overflows above max(x, y) = 2^512 and underflows below 2^-512,
# and q^4 overflows above q = 2^256
LAURENT_RANGE_CLASSES = {
    "z^2 overflows": lambda x, y, q: max(x, y) >= 2.0**512,
    "z^2 underflows": lambda x, y, q: max(x, y) < 2.0**-512,
    "q^4 overflows": lambda x, y, q: q >= 2.0**256,
}


@pytest.mark.parametrize("kind", sorted(LAURENT_RANGE_CLASSES))
def test_x_positive_laurent_keeps_its_digits_where_an_unscaled_intermediate_leaves_the_range(kind):
    # x, y and q log-uniform over 1e+-300, a tenth at y = 0, kept where the
    # point is in the far field and in the class, and its classical part,
    # 4x/(q^2 |z|) to leading order, lies within 1e+-300. Each of 5 points is
    # held to chi_ratio_exact, as the q^2 test above is
    in_class = LAURENT_RANGE_CLASSES[kind]
    rng = random.Random(30)
    points = []
    for _ in range(5):
        while True:
            x, q = _loguniform(rng, 1e-300, 1e300), _loguniform(rng, 1e-300, 1e300)
            y = 0.0 if rng.random() < 0.1 else _loguniform(rng, 1e-300, 1e300)
            log_z = math.log10(max(x, y)) + 0.5 * math.log10(1.0 + (min(x, y) / max(x, y)) ** 2)
            log_s = log_z - math.log10(q)
            log_classic = math.log10(4.0 * x) - 2.0 * math.log10(q) - log_z
            if (
                in_class(x, y, q)
                and log_s >= max(math.log10(3.0), math.log10(2.0 + q))
                and abs(log_classic) <= 300.0
            ):
                break
        points.append(DimensionlessPoint(x, y, q))
        assert chi_ratio(points[-1]).method is RegimeTag.LAURENT_SERIES
    for point, ratio in zip(points, _honesty(points)):
        assert ratio <= 1.0, point


def test_x_positive_laurent_where_the_classical_part_overflows_names_it():
    # q^2 is subnormal, and the classical part, about 4x/(q^2 |z|) = 2.8e320,
    # is beyond the double range
    with pytest.raises(DomainError, match="the classical part overflows"):
        chi_ratio(DimensionlessPoint(1.0, 1.0, 1e-160))


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
KERNEL_BITS_SHA256 = "4fa695369e4e6e20138853821012b2cd7a9ca541c65b5e06e6b56a0550a64604"

# every (tag, guard ran, x == 0) cell the kernel has: the static point, the
# Laurent branch and the closed form outside Taylor's convergence skip the
# guard, and every other Taylor point is the guard's escalation
KERNEL_CELLS = {
    (RegimeTag.PV_STATIC, False, True),
    (RegimeTag.TAYLOR_SERIES, True, True),
    (RegimeTag.TAYLOR_SERIES, True, False),
    (RegimeTag.LAURENT_SERIES, False, True),
    (RegimeTag.LAURENT_SERIES, False, False),
    (RegimeTag.CLOSED_FORM, True, True),
    (RegimeTag.CLOSED_FORM, True, False),
    (RegimeTag.CLOSED_FORM, False, True),
    (RegimeTag.CLOSED_FORM, False, False),
}


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
    assert cells == KERNEL_CELLS
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == KERNEL_BITS_SHA256


# The shifted-difference Taylor branch as it was before it drew its
# derivatives on demand: the whole table is built up front, sized by a guess,
# and regrown by doubling when the series outlasts it. The kernel must give
# the same bits.
def _reference_odd_derivatives(s: complex, count: int) -> list:
    one_ms2 = 1.0 - s * s
    nmax = 2 * count + 1
    Lv = [cmath.log(s - 1.0) - cmath.log(s + 1.0), -2.0 / one_ms2]
    for n in range(1, nmax):
        Lv.append((2.0 * n * s * Lv[n] + n * (n - 1) * Lv[n - 1]) / one_ms2)
    u = [one_ms2 * one_ms2, -4.0 * s + 4.0 * s**3, -4.0 + 12.0 * s * s, 24.0 * s, 24.0 + 0j]
    out = []
    for m in range(1, count + 1):
        n = 2 * m + 1
        total = complex(12.0) if n == 3 else complex(0.0)
        for k in range(min(4, n) + 1):
            total += math.comb(n, k) * u[k] * Lv[n - k]
        out.append(total)
    return out


def _reference_taylor_shift(s: complex, q: float) -> tuple:
    cap = kernel._TAYLOR_MAX_TERMS
    tiny = kernel._TINY
    dist = min(abs(s - 1.0), abs(s + 1.0))
    ratio = (q / (2.0 * dist)) ** 2
    count = min(kernel._terms_to_eps(ratio) + 3, cap)
    derivs = _reference_odd_derivatives(s, count)
    total = complex(0.0)
    total_abs = 0.0
    comp = complex(0.0)
    last = 0.0
    small_streak = 0
    fact = 6.0
    qpow = 1.0
    fourpow = 4.0
    for m in range(1, cap + 1):
        if m > count:
            count = min(2 * count, cap)
            derivs = _reference_odd_derivatives(s, count)
        term = 0.75 * qpow * derivs[m - 1] / (fourpow * fact)
        last = abs(term)
        t = total + term
        comp += (total - t) + term if total_abs >= last else (term - t) + total
        total = t
        total_abs = abs(t)
        if last <= 1e-17 * (tiny if tiny > total_abs else total_abs):
            small_streak += 1
            if small_streak >= 2:
                break
        else:
            small_streak = 0
        qpow *= q * q
        fourpow *= 4.0
        fact *= (2 * m + 2) * (2 * m + 3)
    else:
        raise ConvergenceError("reference series did not converge", total + comp, last, cap)
    total += comp
    tail = last * ratio / (1.0 - ratio) if ratio < 1.0 else last
    return total, 4.0 * tail


def _taylor_centres() -> list:
    """Seeded s in the closed upper half-plane: 100 within 1e-6..0.5 of +-1,
    100 on the imaginary axis and 100 out to |s| = 3."""
    rng = random.Random(23)
    centres = []
    for _ in range(100):
        d = _loguniform(rng, 1e-6, 0.5)
        theta = rng.uniform(0.0, math.pi)
        centres.append(rng.choice((-1.0, 1.0)) + d * complex(math.cos(theta), math.sin(theta)))
    centres += [complex(0.0, rng.uniform(0.0, 3.0)) for _ in range(100)]
    for _ in range(100):
        r = rng.uniform(0.0, 3.0)
        theta = rng.uniform(0.0, math.pi)
        centres.append(r * complex(math.cos(theta), math.sin(theta)))
    return [s for s in centres if s != 1.0 and s != -1.0]


def _hex(values) -> list:
    return [part.hex() for value in values for part in (complex(value).real, complex(value).imag)]


def test_taylor_shift_equals_the_reference_up_to_the_convergence_edge():
    rng = random.Random(29)
    for s in _taylor_centres():
        dist = min(abs(s - 1.0), abs(s + 1.0))
        for q in (kernel._TAYLOR_SPAN * dist, dist * _loguniform(rng, 1e-8, kernel._TAYLOR_SPAN)):
            quant = kernel._quant_taylor_shift(s, q, kernel._branch_log(s)[1])
            assert _hex(quant) == _hex(_reference_taylor_shift(s, q))

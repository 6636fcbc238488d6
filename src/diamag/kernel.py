r"""Closed-form susceptibility kernel and its numerically safe regimes.

The susceptibility ratio chi/chi_L of a degenerate collisional electron gas
reduces to three one-dimensional integrals over the angular variable
t in [-1, 1]:

    I1 = Int (1 - t^2) / (q t - z) dt
    I2 = Int t (1 - t^2) / (q t - z) dt
    I3 = Int (1 - t^2)^2 / ((q t - z)^2 - q^4/4) dt

with z = x + iy and s = z/q. Polynomial division against the simple pole
turns each into a rational expression plus the branch logarithm

    L(sigma) = log(sigma - 1) - log(sigma + 1),

which _branch_log returns with its factor 1 - sigma^2, and as 0 where that
factor is 0: the one pole check, since every log term takes its limit 0 at
sigma = +-1. The shifted quadratic denominator of I3 splits into two pole
pairs at sigma = s -+ q/2 handled by the antiderivative

    g(sigma) = 2 sigma^3 - (10/3) sigma + (1 - sigma^2)^2 L(sigma).

The ratio is then

    chi/chi_L = -(3x/q^2) I1  +  (3/q) I2  +  (3/4) I3
                \_ classical _/   \_____ quantum _____/

The classical term vanishes identically at x = 0. The quantum pair is a
difference of terms of size 3/q^2 * O(max(1, |s|^2)) that cancel to O(1) or
far below, so small q or large |s| destroys the closed form in double
precision. Large q does too: g(s -+ q/2) is then a difference of terms of
size |s -+ q/2|^3 that cancel to O(1/|s -+ q/2|). The four kernel
strategies that RegimeTag names cover that ground:

  * the closed form, which takes each piece whose argument has modulus >= 3
    from its expansion in 1/sigma, where the cancelling orders drop out
    symbolically, and every other piece from its closed form,
  * static principal value at x = y = 0: the Taylor series about s = 0
    below q = _STATIC_SEAM, and the closed form from it up,
  * a shifted-difference Taylor series in q for moderate s (the two shifted
    antiderivative evaluations are expanded about s, and the leading order
    cancels the middle term exactly, term by term),
  * a Laurent series in q/z for large |s|, whose 1/z^2 and q^2/z^4 orders
    cancel symbolically so only the true residual is summed; it converges
    only for |s| > 1 + q/2 and serves the far field, |s| >= 3 and
    |s| >= 2 (1 + q/2).

Regime choice is deterministic in (x, y, q), and _classify makes it once,
returning the evaluator it picks: the static point first, then the far
field, which the Laurent series serves whole. Nearer in, where the
Taylor series converges, a measured-cancellation escalation (intermediate
magnitude over the quantum part, at every q) at a fixed digit threshold
chooses between the closed form and the Taylor series; every other point
gets the closed form. The thresholds are module constants; every accuracy
result of the package is measured at their values.

Every strategy forms the classical term through _classical_part, the one
home of its weight's range rule. The hot path keeps each series' order of
operations, and so its bits, with less work per point: exact float tables
hold the recurrences' integer factors, the Taylor series climbs its ladder
inline from the guard's L(s), and the Laurent sums run in real arithmetic
at x = 0, where all their imaginary parts are exact zeros.
"""

from __future__ import annotations

import cmath
import math
from itertools import islice

from .core import (
    ChiResult,
    DimensionlessPoint,
    FrozenRecord,
    RegimeTag,
)
from .errors import ConvergenceError, DomainError, ValidationError

__all__ = [
    "RegimeTag",
    "TermBreakdown",
    "chi_ratio",
    "chi_ratio_detailed",
    "chi_static_pv",
    "regime_select",
]

_TINY = 1e-300
# the kernel's tags, read once: EnumType's __getattr__ slows each RegimeTag.X
_PV, _CLOSED, _TAYLOR, _LAURENT = (
    RegimeTag.PV_STATIC, RegimeTag.CLOSED_FORM, RegimeTag.TAYLOR_SERIES, RegimeTag.LAURENT_SERIES
)
# |sigma| at and above which the far-field series replace the closed-form
# pieces, and |s| at and above which the Laurent branch serves a point where
# it converges: their terms then fall by at least 9x per order, while the
# closed forms cancel digits there that the guard does not see
_FAR_MIN = 3.0
# predicted decimal digits of cancellation in the closed form's quantum part
# above which a point is escalated to the Taylor series
_CANCEL_DIGITS = 6.0
# the Taylor branch requires q <= _TAYLOR_SPAN * dist(s, +-1): its ratio
# (q / (2 dist))^2 is then at most 1/16
_TAYLOR_SPAN = 0.5
# term caps of the series, far above what any point they serve needs; a
# series that reaches one raises ConvergenceError
_TAYLOR_MAX_TERMS = 60
_FIRST_SERIES_MAX_TERMS = 400
_LAURENT_MAX_OUTER = 200
_LAURENT_MAX_INNER = 400
# the static point takes the Taylor series about s = 0 below this q (ratio
# (q/2)^2 < 0.49, at most 41 terms), and the closed form, within 4 eps, above
_STATIC_SEAM = 1.4
# q**3 overflows above _Q3_MAX and falls under 2^-1074 below _Q3_MIN
_Q3_MAX = 5.643803094122361e102
_Q3_MIN = 1.7031839360032837e-108


class TermBreakdown(FrozenRecord):
    """The three integrals and their weighted terms at one point.

    term1 = -(3x/q^2) I1 is the classical contribution (0 exactly at x = 0),
    term2 = (3/q) I2 and term3 = (3/4) I3 sum to the quantum contribution,
    cancelling where it is small. chi_ratio_detailed builds it from the
    strategy that produced the result.
    """

    _fields = ("I1", "I2", "I3", "term1", "term2", "term3")


# ---------------------------------------------------------------------------
# Branch logarithm and antiderivative
# ---------------------------------------------------------------------------


def _branch_log(sigma: complex) -> tuple:
    """(1 - sigma^2, L(sigma)), and L = 0 where 1 - sigma^2 is 0. For Im sigma
    >= 0, +0.0 on the real axis as every caller gives it, the difference of
    principal logarithms is analytic off +-1, and on the real segment
    |sigma| < 1 it is ln((1-sigma)/(1+sigma)) + i pi, the y -> 0+ value."""
    one_ms2 = 1.0 - sigma * sigma
    return one_ms2, cmath.log(sigma - 1.0) - cmath.log(sigma + 1.0) if one_ms2 else 0j


def _antiderivative_with_peak(sigma: complex) -> tuple:
    """g(sigma) = 2 sigma^3 - (10/3) sigma + (1 - sigma^2)^2 L(sigma).

    Returns (value, peak) where peak is the largest |summand|; the three
    pieces cancel to O(1/sigma) at large |sigma|, and tracking the peak is
    what lets the regime choice measure that loss instead of guessing it.
    At sigma = +-1 the log term takes its limit 0.
    """
    one_ms2, L = _branch_log(sigma)
    cubic = 2.0 * sigma**3
    linear = -(10.0 / 3.0) * sigma
    logpart = one_ms2 * one_ms2 * L
    return cubic + linear + logpart, max(abs(cubic), abs(linear), abs(logpart))


def _terms_to_eps(ratio: float) -> int:
    """The least n >= 1 with ratio^n <= 1e-17, for 0 <= ratio < 1."""
    return 1 if ratio <= 1e-17 else math.ceil(-17.0 / math.log10(ratio))


# 1 / ((2k+1)(2k+3)(2k+5)), k = 0, 1, ...: coefficients of g's far-field series
_G_FAR_COEFFS = tuple(1.0 / ((2 * k + 1) * (2 * k + 3) * (2 * k + 5)) for k in range(20))


def _antiderivative_far(sigma: complex) -> tuple:
    """g(sigma) for |sigma| >= _FAR_MIN from its exact expansion in 1/sigma.

    The sigma^3 and sigma orders of the three pieces cancel symbolically,
    leaving

        g(sigma) = -16 sum_{k>=0} sigma^-(2k+1) / ((2k+1)(2k+3)(2k+5)),

    a series without cancellation whose terms fall by at least
    r = 1/|sigma|^2 <= 1/9. The n terms with r^n <= 1e-17 are summed by
    Horner's rule in 1/sigma^2. Returns (value, abs truncation bound).
    """
    u = 1.0 / sigma
    u2 = u * u
    ratio = abs(u2)
    n = _terms_to_eps(ratio)
    acc = complex(_G_FAR_COEFFS[n - 1])
    for k in range(n - 2, -1, -1):
        acc = acc * u2 + _G_FAR_COEFFS[k]
    tail = 16.0 * _G_FAR_COEFFS[n] * abs(u) * ratio**n / (1.0 - ratio)
    return -16.0 * u * acc, tail


def _antiderivative_piece(sigma: complex, closed) -> tuple:
    """g(sigma) and its truncation bound: the series far out, else the closed
    form, which is `closed` where the caller already evaluated it."""
    if abs(sigma) >= _FAR_MIN:
        return _antiderivative_far(sigma)
    return (_antiderivative_with_peak(sigma)[0] if closed is None else closed), 0.0


def _first_integral_closed(s: complex, q: float) -> tuple:
    """(I1, bracket, bracket_log, L(s)) from the closed forms, where bracket =
    q I2 = 4/3 + z I1 and bracket_log = s (1 - s^2) L(s) is its log term.
    At s = +-1 every log term takes its limit 0 (L(s) is then 0)."""
    one_ms2, Ls = _branch_log(s)
    bracket_log = s * one_ms2 * Ls
    return (-2.0 * s + one_ms2 * Ls) / q, 4.0 / 3.0 - 2.0 * s * s + bracket_log, bracket_log, Ls


def _first_integral(s: complex, z: complex, q: float) -> tuple:
    """(I1, bracket, I1 bound, bracket bound), bracket = q I2 = 4/3 + z I1:
    for |s| >= _FAR_MIN from _first_integral_series, summed from j >= 1 for
    the bracket so that its 4/3 cancels symbolically, with their truncation
    bounds; else from the closed forms, with bounds 0."""
    if abs(s) >= _FAR_MIN:
        w = (q / z) ** 2
        tail, last = _first_integral_series(w, 0.0)
        ratio = abs(w)
        bracket_err = abs(last) * ratio / (1.0 - ratio)
        return -(4.0 / 3.0 + tail) / z, -tail, bracket_err / abs(z), bracket_err
    return (*_first_integral_closed(s, q)[:2], 0.0, 0.0)


def _cube(q: float) -> float:
    """q^3, raising an ArithmeticError that names q^3 and its limit where it
    overflows (an OverflowError, above _Q3_MAX) or underflows to 0."""
    try:
        q3 = q**3
    except OverflowError:
        raise OverflowError(f"q^3 overflows above q = {_Q3_MAX!r}") from None
    if not q3:
        raise ArithmeticError(f"q^3 underflows below q = {_Q3_MIN!r}")
    return q3


def _closed_pieces(z: complex, q: float) -> tuple:
    """Every closed-form piece at z and the digits their quantum sum cancels.

    Returns ((I1, bracket, g_plus, g_minus, L(s)), lost digits), with
    g_-+ = g(s -+ q/2). The lost digits are log10 of the peak summand over
    the quantum sum, both times (4/3) q^3 so that neither forms 1/q^2 or q^3:
    the peak scans 4q times the bracket's summands, the two antiderivatives
    and the summands inside each, and the sum is 4q bracket + g_plus -
    g_minus. A zero sum has lost every digit.
    """
    s = z / q
    a = 0.5 * q
    I1, bracket, bracket_log, Ls = _first_integral_closed(s, q)
    g_plus, peak_plus = _antiderivative_with_peak(s + a)
    g_minus, peak_minus = _antiderivative_with_peak(s - a)
    peak = max(
        4.0 * q * max(4.0 / 3.0, 2.0 * abs(s * s), abs(bracket_log)),
        peak_plus, peak_minus, abs(g_plus), abs(g_minus),
    )
    scaled = abs(4.0 * q * bracket + (g_plus - g_minus))
    return (I1, bracket, g_plus, g_minus, Ls), math.log10(peak / scaled) if scaled else math.inf


# ---------------------------------------------------------------------------
# Static principal value
# ---------------------------------------------------------------------------


def chi_static_pv(q: float) -> float:
    """Static collisionless ratio chi/chi_L at wave number q, 0 < q <= 2.

    This is the omega -> 0 then nu -> 0 ordered limit: the integrand poles at
    t = -+ q/2 sit on the contour and the integral is taken as a symmetric
    principal value, whose equal and opposite pole residues leave it real:

        chi/chi_L = 4/q^2 + (3/(4 q^2)) [ 2/3 + 2(a^2 - 2)
                    + ((1 - a^2)^2 / a) ln((1-a)/(1+a)) ],   a = q/2,

    exactly 3/4 at q = 2. It is chi_ratio's value at x = y = 0, the closed
    form's y -> 0+ limit from q = _STATIC_SEAM up and the Taylor series about
    s = 0 below. q > 2, where the poles leave [-1, 1], raises DomainError.
    """
    if not 0.0 < q <= 2.0:
        raise DomainError("chi_static_pv serves 0 < q <= 2; use chi_ratio elsewhere")
    return chi_ratio(DimensionlessPoint(0.0, 0.0, q)).total.real


# ---------------------------------------------------------------------------
# Series strategies
# ---------------------------------------------------------------------------


# The series below sum with Neumaier's compensated step, written out in each
# loop: t = total + term, and comp gathers the rounding of +, as
# (total - t) + term where |total| >= |term|, else (term - t) + total. Their
# stop tests write max(|total|, _TINY) as the comparison max() makes.

# Exact float factors of Taylor term m = 1 .. _TAYLOR_MAX_TERMS, n = 2m + 1: g^(n)'s
# constant, 2r and r (r - 1) of the ladder's rungs r = n - 2 and n - 1, the
# Leibniz C(n, 1..3) and 24 C(n, 4), and the factorial's next factor (n + 1)(n + 2)
_TAYLOR_ROWS = tuple(
    tuple(map(float, (
        12 if n == 3 else 0, 2 * (n - 2), (n - 2) * (n - 3), 2 * (n - 1), (n - 1) * (n - 2),
        math.comb(n, 1), math.comb(n, 2), math.comb(n, 3), 24 * math.comb(n, 4), (n + 1) * (n + 2),
    )))
    for n in range(3, 2 * _TAYLOR_MAX_TERMS + 2, 2)
)


def _quant_taylor_shift(s: complex, q: float, Ls: complex) -> tuple:
    """Quantum part via the shifted-difference Taylor series about s.

    Expanding the two antiderivative evaluations at s -+ q/2 about s, the
    first-derivative order equals -4/3 q^2 times the middle integral bracket
    and cancels it exactly, leaving

        quant = sum_{m>=1} (3/4) q^(2m-2) g^(2m+1)(s) / (4^m (2m+1)!)

    which converges geometrically with ratio (q / (2 dist(s, +-1)))^2.
    Derivatives of L satisfy the two-term ladder
        (1 - s^2) L^(n+1) = 2 n s L^(n) + n (n-1) L^(n-1)
    seeded by L = Ls, the caller's L(s), and L' = -2/(1 - s^2); the
    polynomial and (1 - s^2)^2 L parts of g then combine by the Leibniz rule
    (the quartic prefactor has only five nonzero derivatives). Each term
    climbs two rungs, so the series builds no derivative past the term where
    it stops. Returns (quant, abs truncation bound).
    """
    dist = min(abs(s - 1.0), abs(s + 1.0))
    ratio = (q / (2.0 * dist)) ** 2
    one_ms2 = 1.0 - s * s
    u0, u1, u2, u3 = one_ms2 * one_ms2, -4.0 * s + 4.0 * s**3, -4.0 + 12.0 * s * s, 24.0 * s
    # L^(n-2), L^(n-3), L^(n-4) for n = 3; L^(-1) enters only times C(3, 4) = 0
    lb, lc, ld = -2.0 / one_ms2, Ls, 0j
    total = complex(0.0)
    total_abs = 0.0
    comp = complex(0.0)
    last = 0.0
    small_streak = 0
    fact = 6.0
    qpow = 1.0
    qq = q * q
    fourpow = 4.0
    tiny = _TINY
    for head, two_a, rr_a, two_b, rr_b, c1, c2, c3, c4u4, fact_step in islice(
        _TAYLOR_ROWS, _TAYLOR_MAX_TERMS
    ):
        la = (two_a * s * lb + rr_a * lc) / one_ms2
        lz = (two_b * s * la + rr_b * lb) / one_ms2
        deriv = head + u0 * lz + c1 * u1 * la + c2 * u2 * lb + c3 * u3 * lc + c4u4 * ld
        lb, lc, ld = lz, la, lb
        term = 0.75 * qpow * deriv / (fourpow * fact)
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
        qpow *= qq
        fourpow *= 4.0
        fact *= fact_step
    else:
        raise ConvergenceError(
            "shifted-difference series did not converge", total + comp, last, _TAYLOR_MAX_TERMS
        )
    total += comp
    tail = last * ratio / (1.0 - ratio) if ratio < 1.0 else last
    return total, 4.0 * tail


# Exact float factors of the series' term recurrences, sized by the term caps:
# (a + 1) a at a / 2 and j2 (j2 + 5) at j2 / 2, for the Laurent terms' even a
# and j2, and 2j - 1 at j, for the first integral's 2j - 1 and 2j + 3
_LAURENT_A = tuple(
    float((a + 1) * a) for a in range(0, 2 * (_LAURENT_MAX_OUTER + _LAURENT_MAX_INNER) + 1, 2)
)
_LAURENT_J2 = tuple(float(j2 * (j2 + 5)) for j2 in range(0, 2 * _LAURENT_MAX_INNER + 1, 2))
_ODD = tuple(float(2 * j - 1) for j in range(_FIRST_SERIES_MAX_TERMS + 3))


def _quant_laurent(w, r_scaled, r, prefactor, k: int) -> tuple:
    """Quantum part via the large-|s| Laurent double series.

    The quantum integrals expand in powers of w = (q/z)^2 and q^4/(4 z^2); the
    entire first shifted order cancels the middle term order by order, so the
    sum starts at the q^4/z^4 residual:

        quant = (12/z^2) sum_{m>=1} sum_{j>=0} t_mj,
        t_m0 = (q^4/(4 z^2))^m / 15,
        t_m,j+1 = t_mj w (2j+2m+3)(2j+2m+2) / ((2j+2)(2j+7)).

    Absolutely convergent for |s| > 1 + q/2. Every caller first checks the
    far field, |s| >= 2 (1 + q/2), so the outer ratio is at most 1/4; nearer
    the edge the series needs thousands of terms or overflows. The caller
    passes w, the ratio r = q^4/(4 z^2), and r_scaled and prefactor, which
    are r and 12/z^2 on q 2^-eq and z 2^-ez (_laurent_parts' range rule):
    the sum starts from r_scaled = 2^(2 ez - 4 eq) r and steps with r, and
    at the end ldexp applies 2^k, k = 2 (eq - ez), to the prefactor,
    2^(2 ez) 12/z^2, and to the sum. Where eq = ez = 0, r_scaled = r, k = 0,
    and this is the plain arithmetic bit for bit. The values are complex, or
    real at x = 0, where every imaginary part is an exact 0. Returns (quant,
    abs truncation bound).
    """
    tiny, a_factors, j2_factors, inner_cap = _TINY, _LAURENT_A, _LAURENT_J2, _LAURENT_MAX_INNER
    # a float 0 start adds to a complex term exactly as complex(0.0) does
    total = total_abs = comp = 0.0
    rm = r_scaled / 15.0
    last_inner = 0.0
    small_streak = 0
    # 1e-17 max(total_abs, _TINY), the stop threshold of both sums
    stop = 1e-17 * tiny
    for m in range(1, _LAURENT_MAX_OUTER + 1):
        tmj = inner = rm
        inner_abs = abs(rm)
        icomp = 0.0
        # j2 = 2 i and a = j2 + 2m; past the first outer term most inner sums
        # stop at i = 1, where a while loop saves building a range
        i = 1
        while True:
            tmj *= w * a_factors[i + m] / j2_factors[i]
            tmj_abs = abs(tmj)
            t = inner + tmj
            icomp += (inner - t) + tmj if inner_abs >= tmj_abs else (tmj - t) + inner
            inner = t
            inner_abs = abs(t)
            # tmj_abs <= 1e-17 max(total_abs, _TINY, inner_abs), as max() compares
            if tmj_abs <= stop or tmj_abs <= 1e-17 * inner_abs:
                break
            if i >= inner_cap:
                raise ConvergenceError("Laurent inner series stalled", total, inner_abs, inner_cap)
            i += 1
        inner += icomp
        last_inner = abs(inner)
        t = total + inner
        comp += (total - t) + inner if total_abs >= last_inner else (inner - t) + total
        total = t
        total_abs = abs(t)
        stop = 1e-17 * (tiny if tiny > total_abs else total_abs)
        if last_inner <= stop:
            small_streak += 1
            if small_streak >= 2:
                break
        else:
            small_streak = 0
        rm *= r
    else:
        raise ConvergenceError(
            "Laurent outer series stalled", total, last_inner, _LAURENT_MAX_OUTER
        )
    total += comp
    if k:
        # the scale goes half into each factor, so that neither a factor nor
        # their product leaves the double range where the value does not
        prefactor, total = _ldexp_complex(prefactor, k), _ldexp_complex(total, k)
        last_inner = math.ldexp(last_inner, k)
    return prefactor * total, 4.0 * abs(prefactor) * last_inner


def _ldexp_complex(value: complex, k: int) -> complex:
    """value 2^k, exact where neither part leaves the normal range."""
    return complex(math.ldexp(value.real, k), math.ldexp(value.imag, k))


def _first_integral_series(w: complex, head: complex) -> tuple:
    """head + sum_{j>=1} (4 / ((2j+1)(2j+3))) w^j, with w = (q/z)^2.

    With head = 4/3 this is -z I1; with head = 0 it is minus the middle
    integral bracket q I2 = 4/3 + z I1, whose 4/3 then cancels symbolically.
    Converges for |s| > 1. Returns (sum, last term summed).
    """
    term = 4.0 / 3.0 + 0j
    total = complex(head)
    total_abs = abs(total)
    comp = complex(0.0)
    odd = _ODD
    for j in range(1, _FIRST_SERIES_MAX_TERMS + 1):
        term *= w * odd[j] / odd[j + 2]
        term_abs = abs(term)
        t = total + term
        comp += (total - t) + term if total_abs >= term_abs else (term - t) + total
        total = t
        total_abs = abs(t)
        if term_abs <= 1e-17 * (_TINY if _TINY > total_abs else total_abs):
            break
    else:
        raise ConvergenceError("first-integral Laurent series stalled", total, term_abs, j)
    return total + comp, term


def _classical_part(x: float, q: float, I1: complex, k: int | None = None) -> complex:
    """-(3x/q^2) I1 for x > 0, and the one range rule of its weight: the
    plain product where the caller scaled nothing (k None) and q >= 2^-511;
    elsewhere -3 mx/q^2 for x = mx 2^ex, with q's mantissa for q = mq 2^eq
    below 2^-511, and one ldexp applies 2^(k + ex - 2 eq) last, where k
    undoes the caller's scaling of q and I1."""
    if k is None and q >= 2.0**-511:
        return -3.0 * x / (q * q) * I1
    mx, ex = math.frexp(x)
    k = (k or 0) + ex
    if q < 2.0**-511:
        q, eq = math.frexp(q)
        k -= 2 * eq
    try:
        return _ldexp_complex(-3.0 * mx / (q * q) * I1, k)
    except OverflowError:
        raise OverflowError("the classical part overflows") from None


# ---------------------------------------------------------------------------
# Regime selection and dispatch
# ---------------------------------------------------------------------------


def _classify(point: DimensionlessPoint) -> tuple:
    """Deterministic regime choice, made once: (RegimeTag, evaluator, closed
    pieces|None), and chi_ratio runs evaluator(point, pieces).

    The x = y = 0 point is PV_STATIC at every q: below q = _STATIC_SEAM the
    Taylor series about s = 0, _taylor_parts, whose one piece is L(0), and
    from the seam up _closed_form_parts. Every other point comes from three
    decisions: the far field, |s| >= _FAR_MIN and |s| >= 2 (1 + q/2), is
    LAURENT_SERIES, _laurent_parts; a point where the Taylor series does not
    converge, q > _TAYLOR_SPAN * dist(s, +-1), is CLOSED_FORM; and at the rest
    the cancellation guard escalates a closed form that loses more than
    _CANCEL_DIGITS digits to TAYLOR_SERIES, the Landau limit x = 0,
    y << q << 1 included, and keeps every other one. y = 0 takes the same
    path and gets the limit y -> 0+. The closed pieces are those the guard
    evaluated, for the evaluator to reuse.
    """
    x, y, q = point.x, point.y, point.q
    if x == 0.0 and y == 0.0:
        if q < _STATIC_SEAM:
            return _PV, _taylor_parts, (None, None, None, None, _branch_log(0j)[1])
        return _PV, _closed_form_parts, None
    z = complex(x, y)
    s = z / q
    s_abs = abs(s)
    # the Laurent series converges for |s| > 1 + q/2; the margin keeps its outer
    # ratio <= 1/4, and _FAR_MIN its inner ratio |q/z|^2 <= 1/9, as in the closed form
    if s_abs >= _FAR_MIN and s_abs >= 2.0 * (1.0 + 0.5 * q):
        return _LAURENT, _laurent_parts, None
    if not q <= _TAYLOR_SPAN * min(abs(s - 1.0), abs(s + 1.0)):
        return _CLOSED, _closed_form_parts, None
    closed, lost_digits = _closed_pieces(z, q)
    if lost_digits > _CANCEL_DIGITS:
        return _TAYLOR, _taylor_parts, closed
    return _CLOSED, _closed_form_parts, closed


def regime_select(point: DimensionlessPoint) -> RegimeTag:
    """The RegimeTag of the strategy that chi_ratio runs at the point.

    This is chi_ratio(point).method, so it evaluates the point and raises
    what chi_ratio raises; _classify makes the choice, with the evaluator.
    """
    return chi_ratio(point).method


def _closed_form_parts(point: DimensionlessPoint, closed) -> tuple:
    """The closed form, with its large-argument pieces summed as series.

        chi/chi_L = -(3x/q^2) I1 + (3/q) (bracket/q)
                    + (3/4) (g(s + q/2) - g(s - q/2))/q^3,

    with bracket = q I2 = 4/3 + z I1. A piece whose argument has modulus
    >= _FAR_MIN comes from its series: g from _antiderivative_far, I1 and the
    bracket from _first_integral. Every other piece comes from its closed
    form, taken from `closed` where the cancellation guard already evaluated
    it. err_est is the weighted sum of the series truncation bounds, 0 when
    every piece came from its closed form.
    """
    x, q = point.x, point.q
    z = complex(x, point.y)
    s = z / q
    I1, bracket, g_plus, g_minus, _ = closed or (None,) * 5
    q3 = _cube(q)
    weight = 3.0 / (q * q)
    bracket_err = I1_err = 0.0
    if closed is None or abs(s) >= _FAR_MIN:
        I1, bracket, I1_err, bracket_err = _first_integral(s, z, q)
    g_plus, err_plus = _antiderivative_piece(s + 0.5 * q, g_plus)
    if x == 0.0:
        # g(s - q/2) = -conj(g(s + q/2)) on the imaginary axis
        quant = weight * bracket.real + 1.5 * g_plus.real / q3
        return 0j, quant, weight * bracket_err + 1.5 * err_plus / q3
    g_minus, err_minus = _antiderivative_piece(s - 0.5 * q, g_minus)
    classic = _classical_part(x, q, I1)
    quant = 3.0 / q * (bracket / q) + 0.75 * ((g_plus - g_minus) / q3)
    err_est = x * weight * I1_err + weight * bracket_err + 0.75 / q3 * (err_plus + err_minus)
    return classic, quant, err_est


def _taylor_parts(point: DimensionlessPoint, closed) -> tuple:
    """The shifted-difference Taylor series about s for the quantum part.

    Exact in beta = y/q; on the static line it reduces to 1 - q^2/20 - ... .
    The classical part keeps its closed form, the guard's I1, which does not
    cancel here, weighted by _classical_part, whose range rule serves q below
    2^-511, where q^2 is subnormal. The series reuses the guard's L(s), or at
    the static point its one piece L(0), and err_est is its truncation bound.
    """
    x, q = point.x, point.q
    classic = _classical_part(x, q, closed[0]) if x else 0j
    quant, err_est = _quant_taylor_shift(point.s, q, closed[4])
    return classic, quant, err_est


def _laurent_parts(point: DimensionlessPoint, pieces) -> tuple:
    """The Laurent expansion in q/z for both parts; pieces is None, as
    _classify gives it.

    The 1/z^2 and q^2/z^4 orders of the two quantum terms cancel
    symbolically, so the quantum value is the true leading residual
    (starting at q^4/z^4). This covers both the collision-dominated window
    q << |z| and the large-|s| window. err_est carries the truncation bounds.

    One range rule serves the whole far field: the sums run on q 2^-eq and
    z 2^-ez, and ldexp applies the powers of two last. eq is nonzero only
    for q outside [2^-251, 2^255] and ez only for max(x, y) outside
    [2^-510, 2^510], and each then moves its value just inside that window,
    where q^4, 4 z^2 and 12/z^2 are finite and normal. The classical part
    is _classical_part's on the scaled q and z, given the exponent that
    undoes their scaling wherever eq or ez is nonzero. Where eq = ez = 0
    this is the plain arithmetic bit for bit.
    """
    x, y, q = point.x, point.y, point.q
    m = x if x > y else y
    eq = 0 if 2.0**-251 <= q <= 2.0**255 else math.frexp(q)[1] - (255 if q > 1.0 else -250)
    ez = 0 if 2.0**-510 <= m <= 2.0**510 else math.frexp(m)[1] - (510 if m > 1.0 else -509)
    # only q outside its window is scaled: pow is not scale-invariant, and
    # q^4 keeps its bits inside
    q_scaled = math.ldexp(q, -eq) if eq else q
    q4 = q_scaled**4
    if x == 0.0:
        # z = iy: z^2 = -y^2, w = -(q/y)^2 and every term are real, and the sums
        # run in real arithmetic in the complex code's order, to the same bits;
        # + 0.0 keeps a zero +0.0 as there (ldexp by a nonzero k gives complex)
        u = q / y
        w = 0.0 - u * u
        if ez:
            y = math.ldexp(y, -ez)
        r_scaled, prefactor = q4 / (4.0 * y * -y), 12.0 / (y * -y)
    else:
        z = complex(x, y)
        w = (q / z) ** 2
        if ez:
            z = complex(math.ldexp(x, -ez), math.ldexp(y, -ez))
        r_scaled = q4 / (4.0 * z * z)
        prefactor = 12.0 / (z * z)
    # r_scaled is 2^(2 ez - 4 eq) r, and the prefactor 2^(2 ez) 12/z^2
    quant, quant_err = _quant_laurent(
        w, r_scaled, r_scaled * 2.0 ** (4 * eq - 2 * ez), prefactor, 2 * (eq - ez)
    )
    if x == 0.0:
        return 0j, quant.real + 0.0, quant_err
    # I1 = -(1/z) sum_{j>=0} (4 / ((2j+1)(2j+3))) w^j on the scaled z, with
    # the truncation bound 4 |term/z| from the last term summed; x itself,
    # not its scaled copy, which may flush to 0
    total, term = _first_integral_series(w, 4.0 / 3.0)
    k = -2 * eq - ez if eq or ez else None
    classic = _classical_part(x, q_scaled, -total / z, k)
    classic_err = 4.0 * abs(_classical_part(x, q_scaled, term, k) / z)
    return classic, quant, quant_err + classic_err


def chi_ratio(point: DimensionlessPoint) -> ChiResult:
    """Susceptibility ratio chi/chi_L with automatic regime handling.

    _classify picks the tag and the evaluator once, and the evaluator's
    (classic, quant, err_est) build the result; at x = 0 the classical part
    is exactly 0 and the quantum part real. classic and quant are the two
    physical contributions; total is their sum exactly. method is the
    RegimeTag of the strategy that ran, and err_est its truncation bound:
    the bounds of the pieces the closed form summed as
    series (0 if none), and the series bounds for the series branches, the
    static point's Taylor series below q = _STATIC_SEAM included. It models
    no rounding: the far field comes from the Laurent series, which cancels
    nothing, but nearer in the closed form may lose up to _CANCEL_DIGITS
    digits that err_est does not show. So a closed-form or taylor-series result can be further
    off than its err_est: against chi_ratio_exact the worst point of the
    benchmark's pool is 3.3e-10 relative off at (4.98e-8, 1.69e-14, 0.0135),
    closed-form with err_est 0. Below 2^-1022 a Laurent result also carries
    the absolute rounding of subnormal arithmetic, up to 4 * 2^-1074 beyond
    err_est.

    On the collisionless line y = 0 it returns the limit y -> 0+, poles
    inside [-1, 1] or on t = +-1 included. This is the kernel's one catch:
    where an intermediate overflows or divides by zero, or a part of the
    result is not finite (a float product that overflows gives inf, which
    ChiResult refuses), it raises DomainError, which happens only far
    outside |x|, y, q in 1e+-100. Its text names q^3 where it leaves the
    range, and the classical part where _classical_part, which forms it for
    every strategy, overflows.
    """
    try:
        tag, evaluate, pieces = _classify(point)
        classic, quant, err_est = evaluate(point, pieces)
        if point.x == 0.0:
            classic, quant = 0j, complex(quant.real, 0.0)
        return ChiResult(classic, quant, classic + quant, tag, err_est)
    except (ArithmeticError, ValidationError) as exc:
        raise DomainError(f"chi_ratio: the point is beyond double-precision range ({exc})") from exc


def chi_ratio_detailed(point: DimensionlessPoint) -> tuple:
    """(chi_ratio(point), its TermBreakdown, or None where a field of that is
    not finite), from the strategy that ran. Raises as chi_ratio does.

    term1 is the result's classical part and I1, I2 = bracket/q are
    _first_integral's. A closed-form result, and the static point from
    q = _STATIC_SEAM up, take I3 = (g(s + q/2) - g(s - q/2))/q^3 from
    _antiderivative_piece; a series result takes term3 = quant - term2.
    """
    result = chi_ratio(point)
    z, q, s = point.z, point.q, point.s
    I1, bracket = _first_integral(s, z, q)[:2]
    if abs(s) >= _FAR_MIN and abs(bracket) < 2.0**-1022:
        # q I2 = -(4/15) (q/z)^2 (1 + O(q/z)^2) has lost digits below the normal range
        I2, term2 = -4.0 / 15.0 * (q / z) / z, -0.8 / z / z
    else:
        I2, term2 = bracket / q, 3.0 / q * (bracket / q)
    if result.method is _CLOSED or result.method is _PV and q >= _STATIC_SEAM:
        g_plus, g_minus = (_antiderivative_piece(s + a, None)[0] for a in (0.5 * q, -0.5 * q))
        I3 = (g_plus - g_minus) / _cube(q)
        term3 = 0.75 * I3
    else:
        term3 = result.quant - term2
        I3 = term3 / 0.75
    values = (I1, I2, I3, result.classic, term2, term3)
    return result, TermBreakdown(*values) if all(map(cmath.isfinite, values)) else None


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

and the shifted quadratic denominator of I3 splits into two pole pairs at
sigma = s -+ q/2 handled by the antiderivative

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
  * static principal value at x = y = 0 (its own real formula),
  * a shifted-difference Taylor series in q for moderate s (the two shifted
    antiderivative evaluations are expanded about s, and the leading order
    cancels the middle term exactly, term by term),
  * a Laurent series in q/z for large |s|, whose 1/z^2 and q^2/z^4 orders
    cancel symbolically so only the true residual is summed; it converges
    only for |s| > 1 + q/2 and is used only where |s| >= 2 (1 + q/2).

Regime choice is deterministic in (x, y, q): literal thresholds first, then a
measured-cancellation escalation (intermediate magnitude over the computed
quantum part) at a fixed digit threshold. The thresholds are module
constants; every accuracy result of the package is measured at their values.
"""

from __future__ import annotations

import cmath
import functools
import math

from .core import (
    ChiResult,
    DimensionlessPoint,
    FrozenRecord,
    RegimeTag,
    require_finite_complex,
)
from .errors import ConvergenceError, DomainError, PoleError, ValidationError

__all__ = [
    "RegimeTag",
    "TermBreakdown",
    "branch_log_L",
    "eval_integrals",
    "chi_ratio",
    "chi_ratio_detailed",
    "chi_static_pv",
    "regime_select",
]

_TINY = 1e-300
# |sigma| at and above which the far-field series replace the closed-form
# pieces: their terms then fall by at least 9x per order, while the closed
# forms cancel digits there that the guard does not see
_FAR_MIN = 3.0
# |s| above which the Laurent branch is taken at once where it converges,
# without measuring the closed form's cancellation first
_LARGE_S = 50.0
# predicted decimal digits of cancellation in the closed form's quantum part
# above which a point is escalated to a series
_CANCEL_DIGITS = 6.0
# |s| at and above which the escalation uses the Laurent branch where it
# converges; below it the shifted-difference Taylor branch
_SERIES_S_MIN = 3.0
# the Taylor branch requires q <= _TAYLOR_SPAN * dist(s, +-1): its ratio
# (q / (2 dist))^2 is then at most 1/16
_TAYLOR_SPAN = 0.5
# static-series window on x = 0: q < _SMALLQ_Q_MAX and y < _SMALLQ_BETA * q,
# where the closed form loses about 3 log10(1/q) > 9 digits
_SMALLQ_Q_MAX = 1e-3
_SMALLQ_BETA = 1e-3
# term caps of the series, far above what any point they serve needs; a
# series that reaches one raises ConvergenceError
_TAYLOR_MAX_TERMS = 60
_FIRST_SERIES_MAX_TERMS = 400
_LAURENT_MAX_OUTER = 200
_LAURENT_MAX_INNER = 400


class TermBreakdown(FrozenRecord):
    """The three integrals and their weighted terms at one point.

    term1 = -(3x/q^2) I1 is the classical contribution (0 exactly at x = 0),
    term2 = (3/q) I2 and term3 = (3/4) I3 sum to the quantum contribution.
    On well-conditioned closed-form points term1 + term2 + term3 agrees with
    chi_ratio's total to 1e-14 relative; inside cancellation regimes the raw
    sum is exactly what the series strategies exist to replace.
    """

    _fields = ("I1", "I2", "I3", "term1", "term2", "term3")


def _double_range(func):
    """Raise DomainError where func overflows or divides by zero.

    The kernel's public entry points work in double precision. Far out in
    the accepted domain (|x|, y or q beyond about 1e+-100) an intermediate
    such as sigma^3 or q^-3 leaves its range; the point is then outside
    what the kernel serves, which DomainError says instead of a bare
    OverflowError or ZeroDivisionError.
    """

    @functools.wraps(func)
    def checked(*args):
        try:
            return func(*args)
        except ArithmeticError as exc:
            raise DomainError(
                f"{func.__name__}: the point is beyond double-precision range ({exc})"
            ) from exc

    return checked


# ---------------------------------------------------------------------------
# Branch logarithm and antiderivative
# ---------------------------------------------------------------------------


def branch_log_L(sigma: complex) -> complex:
    """The branch logarithm L(sigma) = log(sigma - 1) - log(sigma + 1).

    Computed as a difference of principal logarithms, which is single-valued
    and analytic on the closed upper half-plane minus the points +-1. On the
    real segment |sigma| < 1 (reached as the y -> 0+ boundary) this yields
    ln((1-sigma)/(1+sigma)) + i pi, the upper-side boundary value, also where
    Im(sigma) is -0.0.

    Raises PoleError at sigma = +-1 and DomainError for Im(sigma) < 0 (no
    caller needs the lower half-plane; the conjugation symmetry covers it).
    """
    sigma = complex(sigma) + 0j  # Im(sigma) = -0.0 becomes +0.0
    if sigma.imag < 0.0:
        raise DomainError("branch_log_L requires Im(sigma) >= 0")
    if sigma == 1.0 or sigma == -1.0:
        raise PoleError("branch_log_L pole at sigma = +-1")
    return cmath.log(sigma - 1.0) - cmath.log(sigma + 1.0)


def _antiderivative_with_peak(sigma: complex) -> tuple:
    """g(sigma) = 2 sigma^3 - (10/3) sigma + (1 - sigma^2)^2 L(sigma).

    Returns (value, peak) where peak is the largest |summand|; the three
    pieces cancel to O(1/sigma) at large |sigma|, and tracking the peak is
    what lets the regime choice measure that loss instead of guessing it.
    At sigma = +-1 the log term takes its limit 0.
    """
    one_ms2 = 1.0 - sigma * sigma
    cubic = 2.0 * sigma**3
    linear = -(10.0 / 3.0) * sigma
    logpart = one_ms2 * one_ms2 * branch_log_L(sigma) if one_ms2 else 0j
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


@_double_range
def eval_integrals(z: complex, q: float) -> TermBreakdown:
    """Closed forms of the three angular integrals at z = x + iy, wave number q.

    Valid for Im(z) >= 0; on the real axis the closed forms give the limit
    y -> 0+, poles inside [-1, 1] or on t = +-1 included. Raises DomainError
    where the closed forms leave double precision range, as at large |s|:
    an intermediate overflows, or a complex product of overflowed parts
    makes a term NaN or infinite without raising.
    """
    if q <= 0 or not math.isfinite(q):
        raise DomainError("q must be finite and > 0")
    z = require_finite_complex("z", complex(z) + 0j)  # Im(z) = -0.0 becomes +0.0
    if z.imag < 0:
        raise DomainError("Im(z) must be >= 0")
    terms = _breakdown(z.real, q, _closed_pieces(z, q)[0])
    if not all(map(cmath.isfinite, terms._values())):
        raise DomainError("eval_integrals: a term is beyond double-precision range")
    return terms


def _first_integral_closed(s: complex, q: float) -> tuple:
    """(I1, bracket, bracket_log) from the closed forms, where bracket =
    q I2 = 4/3 + z I1 and bracket_log = s (1 - s^2) L(s) is its log term.
    At s = +-1 every log term takes its limit 0."""
    one_ms2 = 1.0 - s * s
    Ls = branch_log_L(s) if one_ms2 else 0j
    bracket_log = s * one_ms2 * Ls
    return (-2.0 * s + one_ms2 * Ls) / q, 4.0 / 3.0 - 2.0 * s * s + bracket_log, bracket_log


def _closed_pieces(z: complex, q: float) -> tuple:
    """Every closed-form piece at z and the digits their quantum sum cancels.

    Returns ((I1, bracket, g_plus, g_minus), lost digits), with
    g_-+ = g(s -+ q/2). The lost digits are log10 of the peak intermediate
    size over the quantum sum. The peak scans every summand that feeds the
    quantum sum, at all three assembly levels (the middle-integral bracket,
    the two antiderivative values, and the summands inside each
    antiderivative), all already scaled by their 1/q weights.
    """
    s = z / q
    a = 0.5 * q
    I1, bracket, bracket_log = _first_integral_closed(s, q)
    g_plus, peak_plus = _antiderivative_with_peak(s + a)
    g_minus, peak_minus = _antiderivative_with_peak(s - a)
    peak = max(
        3.0 / (q * q) * max(4.0 / 3.0, 2.0 * abs(s * s), abs(bracket_log)),
        0.75 / q**3 * max(peak_plus, peak_minus, abs(g_plus), abs(g_minus)),
    )
    quant = 3.0 / q * (bracket / q) + 0.75 * ((g_plus - g_minus) / q**3)
    return (I1, bracket, g_plus, g_minus), math.log10(peak / max(abs(quant), _TINY))


def _breakdown(x: float, q: float, closed: tuple) -> TermBreakdown:
    """The integrals and weighted terms from the closed-form pieces."""
    I1, bracket, g_plus, g_minus = closed
    I2 = bracket / q
    I3 = (g_plus - g_minus) / q**3
    return TermBreakdown(
        I1=I1,
        I2=I2,
        I3=I3,
        term1=complex(0.0) if x == 0.0 else -3.0 * x / (q * q) * I1,
        term2=3.0 / q * I2,
        term3=0.75 * I3,
    )


# ---------------------------------------------------------------------------
# Static principal value
# ---------------------------------------------------------------------------


def chi_static_pv(q: float) -> float:
    """Static collisionless ratio chi/chi_L at wave number q, 0 < q <= 2.

    This is the omega -> 0 then nu -> 0 ordered limit: the integrand poles at
    t = -+ q/2 sit on the contour and the integral is taken as a symmetric
    principal value. The two pole residues are equal and opposite, so the
    result is purely real:

        chi/chi_L = 4/q^2 + (3/(4 q^2)) [ 2/3 + 2(a^2 - 2)
                    + ((1 - a^2)^2 / a) ln((1-a)/(1+a)) ],   a = q/2.

    At q = 2 the logarithm's prefactor vanishes and the value is exactly 3/4.
    For q > 2 the poles leave [-1, 1], no principal value is involved, and
    chi_ratio's ordinary closed form applies; such q raise DomainError.

    Below q = 1/2 the closed form is evaluated through its power series
    (identical function, no 1/q^2 cancellation): 1 - q^2/20 - q^4/560 - ...
    """
    if not (0.0 < q <= 2.0) or not math.isfinite(q):
        raise DomainError("chi_static_pv serves 0 < q <= 2; use chi_ratio elsewhere")
    a = 0.5 * q
    if a == 1.0:
        return 0.75
    if q < 0.5:
        # sum_k 3 a^(2k) / ((2k-1)(2k+1)(2k+3)) subtracted from 1
        total = 1.0
        a2 = a * a
        power = 1.0
        k = 1
        while True:
            power *= a2
            term = 3.0 * power / ((2 * k - 1) * (2 * k + 1) * (2 * k + 3))
            total -= term
            if term <= 1e-17 * abs(total):
                return total
            k += 1
    log_term = (1.0 - a * a) ** 2 / a * math.log((1.0 - a) / (1.0 + a))
    return 4.0 / (q * q) + 3.0 / (4.0 * q * q) * (2.0 / 3.0 + 2.0 * (a * a - 2.0) + log_term)


# ---------------------------------------------------------------------------
# Series strategies
# ---------------------------------------------------------------------------


# The series below sum with Neumaier's compensated step, written out in each
# loop: t = total + term, and comp gathers the rounding of +, as
# (total - t) + term where |total| >= |term|, else (term - t) + total. Their
# stop tests write max(|total|, _TINY) as the comparison max() makes.

# C(n, k), k <= min(4, n): the Leibniz coefficients of g^(n), n <= 2 _TAYLOR_MAX_TERMS + 1
_LEIBNIZ_BINOMIALS = tuple(
    tuple(math.comb(n, k) for k in range(min(4, n) + 1)) for n in range(2 * _TAYLOR_MAX_TERMS + 2)
)


def _antiderivative_odd_derivatives(s: complex):
    """Yield the odd-order derivatives g^(3), g^(5), ..., g^(2 _TAYLOR_MAX_TERMS + 1)
    at sigma = s.

    Derivatives of L satisfy the two-term ladder
        (1 - s^2) L^(n+1) = 2 n s L^(n) + n (n-1) L^(n-1)
    seeded by L and L' = -2/(1 - s^2); the polynomial and (1 - s^2)^2 L parts
    of g then combine by the Leibniz rule (the quartic prefactor has only
    five nonzero derivatives). Each yield extends the ladder by two rungs.
    """
    one_ms2 = 1.0 - s * s
    Lv = [branch_log_L(s), -2.0 / one_ms2]
    u = [one_ms2 * one_ms2, -4.0 * s + 4.0 * s**3, -4.0 + 12.0 * s * s, 24.0 * s, 24.0 + 0j]
    for n in range(3, 2 * _TAYLOR_MAX_TERMS + 2, 2):
        for r in (n - 2, n - 1):
            Lv.append((2.0 * r * s * Lv[r] + r * (r - 1) * Lv[r - 1]) / one_ms2)
        total = complex(12.0) if n == 3 else complex(0.0)
        for k, binomial in enumerate(_LEIBNIZ_BINOMIALS[n]):
            total += binomial * u[k] * Lv[n - k]
        yield total


def _quant_taylor_shift(s: complex, q: float) -> tuple:
    """Quantum part via the shifted-difference Taylor series about s.

    Expanding the two antiderivative evaluations at s -+ q/2 about s, the
    first-derivative order equals -4/3 q^2 times the middle integral bracket
    and cancels it exactly, leaving

        quant = sum_{m>=1} (3/4) q^(2m-2) g^(2m+1)(s) / (4^m (2m+1)!)

    which converges geometrically with ratio (q / (2 dist(s, +-1)))^2. The
    derivatives are drawn on demand, one per term, so the series builds none
    past the term where it stops. Returns (quant, abs truncation bound).
    """
    dist = min(abs(s - 1.0), abs(s + 1.0))
    ratio = (q / (2.0 * dist)) ** 2
    total = complex(0.0)
    total_abs = 0.0
    comp = complex(0.0)
    last = 0.0
    small_streak = 0
    fact = 6.0
    qpow = 1.0
    fourpow = 4.0
    for m, deriv in enumerate(_antiderivative_odd_derivatives(s), 1):
        term = 0.75 * qpow * deriv / (fourpow * fact)
        last = abs(term)
        t = total + term
        comp += (total - t) + term if total_abs >= last else (term - t) + total
        total = t
        total_abs = abs(t)
        if last <= 1e-17 * (_TINY if _TINY > total_abs else total_abs):
            small_streak += 1
            if small_streak >= 2:
                break
        else:
            small_streak = 0
        qpow *= q * q
        fourpow *= 4.0
        fact *= (2 * m + 2) * (2 * m + 3)
    else:
        raise ConvergenceError(
            "shifted-difference series did not converge", total + comp, last, _TAYLOR_MAX_TERMS
        )
    total += comp
    tail = last * ratio / (1.0 - ratio) if ratio < 1.0 else last
    return total, 4.0 * tail


def _quant_laurent(z: complex, q: float, w: complex) -> tuple:
    """Quantum part via the large-|s| Laurent double series.

    The quantum integrals expand in powers of w = (q/z)^2 and q^4/(4 z^2); the
    entire first shifted order cancels the middle term order by order, so the
    sum starts at the q^4/z^4 residual:

        quant = (12/z^2) sum_{m>=1} sum_{j>=0} t_mj,
        t_m0 = (q^4/(4 z^2))^m / 15,
        t_m,j+1 = t_mj w (2j+2m+3)(2j+2m+2) / ((2j+2)(2j+7)).

    Absolutely convergent for |s| > 1 + q/2. Every caller first checks
    _laurent_converges, |s| >= 2 (1 + q/2), so the outer ratio is at most 1/4;
    nearer the edge the series needs thousands of terms or overflows.
    Returns (quant, abs truncation bound).
    """
    r = q**4 / (4.0 * z * z)
    total = complex(0.0)
    total_abs = 0.0
    comp = complex(0.0)
    rm = r / 15.0
    last_inner = 0.0
    small_streak = 0
    for m in range(1, _LAURENT_MAX_OUTER + 1):
        tmj = rm
        inner = tmj
        inner_abs = abs(inner)
        icomp = complex(0.0)
        floor = _TINY if _TINY > total_abs else total_abs
        m2 = 2 * m
        for j2 in range(2, 2 * _LAURENT_MAX_INNER + 2, 2):
            # j2 = 2j + 2, and a = 2j + 2m + 2
            a = j2 + m2
            tmj *= w * ((a + 1) * a) / (j2 * (j2 + 5))
            tmj_abs = abs(tmj)
            t = inner + tmj
            icomp += (inner - t) + tmj if inner_abs >= tmj_abs else (tmj - t) + inner
            inner = t
            inner_abs = abs(t)
            if tmj_abs <= 1e-17 * (floor if floor > inner_abs else inner_abs):
                break
        else:
            raise ConvergenceError(
                "Laurent inner series stalled", total, inner_abs, _LAURENT_MAX_INNER
            )
        inner += icomp
        last_inner = abs(inner)
        t = total + inner
        comp += (total - t) + inner if total_abs >= last_inner else (inner - t) + total
        total = t
        total_abs = abs(t)
        if last_inner <= 1e-17 * (_TINY if _TINY > total_abs else total_abs):
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
    prefactor = 12.0 / (z * z)
    return prefactor * total, 4.0 * abs(prefactor) * last_inner


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
    for j in range(1, _FIRST_SERIES_MAX_TERMS + 1):
        term *= w * (2 * j - 1) / (2 * j + 3)
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


def _classic_laurent(z: complex, q: float, x: float, w: complex) -> tuple:
    """Classical term via the Laurent series of the first integral.

    I1 = -(1/z) sum_{j>=0} (4 / ((2j+1)(2j+3))) w^j, w = (q/z)^2; the weighted
    term is -(3x/q^2) I1. Converges for |s| > 1. Returns (value, abs bound).
    """
    total, term = _first_integral_series(w, 4.0 / 3.0)
    I1 = -total / z
    weight = -3.0 * x / (q * q)
    return weight * I1, 4.0 * abs(weight * term / z)


# ---------------------------------------------------------------------------
# Regime selection and dispatch
# ---------------------------------------------------------------------------


def _laurent_converges(s_abs: float, q: float) -> bool:
    """Whether the Laurent branch may serve a point: |s| >= 2 (1 + q/2).

    That is the series' convergence condition |s| > 1 + q/2 with a factor-2
    margin, which keeps its outer ratio at or below 1/4.
    """
    return s_abs >= 2.0 * (1.0 + 0.5 * q)


def _taylor_converges(s: complex, q: float) -> bool:
    """Whether the Taylor branch may serve a point: q <= _TAYLOR_SPAN * dist(s, +-1)."""
    return q <= _TAYLOR_SPAN * min(abs(s - 1.0), abs(s + 1.0))


def _classify(point: DimensionlessPoint) -> tuple:
    """Deterministic regime choice; returns (RegimeTag, closed pieces|None).

    The x = y = 0 point is PV_STATIC at every q, and the static series window
    x = 0, q < _SMALLQ_Q_MAX, y < _SMALLQ_BETA * q is TAYLOR_SERIES. Both ways
    into LAURENT_SERIES, the literal window |s| > _LARGE_S and the escalation
    of a closed form that loses more than _CANCEL_DIGITS digits at
    |s| >= _SERIES_S_MIN, require _laurent_converges. The collisionless line
    y = 0 takes the same path as y > 0 and gets the limit y -> 0+. The cancellation guard
    runs only where a series could take the point; every other point, and
    every point that the guard passes or that no series can serve, gets
    CLOSED_FORM. The closed pieces are those the guard evaluated, for the
    evaluators to reuse.
    """
    x, y, q = point.x, point.y, point.q
    if y == 0.0 and x == 0.0:
        return RegimeTag.PV_STATIC, None
    if x == 0.0 and q < _SMALLQ_Q_MAX and y < _SMALLQ_BETA * q:
        return RegimeTag.TAYLOR_SERIES, None
    z = complex(x, y)
    s = z / q
    s_abs = abs(s)
    laurent = _laurent_converges(s_abs, q)
    if s_abs > _LARGE_S and laurent:
        return RegimeTag.LAURENT_SERIES, None
    taylor = _taylor_converges(s, q)
    if s_abs > _LARGE_S or not (laurent or taylor):
        return RegimeTag.CLOSED_FORM, None
    closed, lost_digits = _closed_pieces(z, q)
    if not lost_digits > _CANCEL_DIGITS:
        return RegimeTag.CLOSED_FORM, closed
    if s_abs >= _SERIES_S_MIN and laurent:
        return RegimeTag.LAURENT_SERIES, closed
    return (RegimeTag.TAYLOR_SERIES if taylor else RegimeTag.CLOSED_FORM), closed


@_double_range
def regime_select(point: DimensionlessPoint) -> RegimeTag:
    """Pick the evaluation strategy for a point. Deterministic in (x, y, q).

    Literal windows come first: the static principal value at x = y = 0, the
    static Taylor series for x = 0 with q below _SMALLQ_Q_MAX and y below
    _SMALLQ_BETA * q, and the Laurent series for |s| above _LARGE_S.
    Where a series converges, the closed form is evaluated and escalated to
    it when its measured cancellation exceeds _CANCEL_DIGITS decimal digits
    (boundary values stay with the closed form; all comparisons are strict).
    The Laurent series is taken only where it converges, |s| >= 2 (1 + q/2).
    Every other point gets the closed form, which sums its large-argument
    pieces as series.

    Raises DomainError where the point is beyond double-precision range.
    """
    return _classify(point)[0]


def _closed_form_result(
    point: DimensionlessPoint, closed, method: RegimeTag = RegimeTag.CLOSED_FORM
) -> ChiResult:
    """The closed form, with its large-argument pieces summed as series.

        chi/chi_L = -(3x/q^2) I1 + (3/q) (bracket/q)
                    + (3/4) (g(s + q/2) - g(s - q/2))/q^3,

    with bracket = q I2 = 4/3 + z I1. A piece whose argument has modulus
    >= _FAR_MIN comes from its series: g from _antiderivative_far, I1 and the
    bracket from _first_integral_series (summed from j >= 1 for the bracket,
    so its 4/3 cancels symbolically). Every other piece comes from its closed
    form, taken from `closed` where the cancellation guard already evaluated
    it. The static point x = y = 0 above q = 2 comes here too, with method
    PV_STATIC. err_est is the weighted sum of the series truncation bounds,
    0 when every piece came from its closed form.
    """
    x, q = point.x, point.q
    z = complex(x, point.y)
    s = z / q
    I1, bracket, g_plus, g_minus = closed or (None, None, None, None)
    weight = 3.0 / (q * q)
    bracket_err = I1_err = 0.0
    if abs(s) >= _FAR_MIN:
        w = (q / z) ** 2
        tail, last = _first_integral_series(w, 0.0)
        ratio = abs(w)
        bracket_err = abs(last) * ratio / (1.0 - ratio)
        bracket = -tail
        I1 = -(4.0 / 3.0 + tail) / z
        I1_err = bracket_err / abs(z)
    elif closed is None:
        I1, bracket, _ = _first_integral_closed(s, q)
    g_plus, err_plus = _antiderivative_piece(s + 0.5 * q, g_plus)
    if x == 0.0:
        # g(s - q/2) = -conj(g(s + q/2)) on the imaginary axis
        quant = weight * bracket.real + 1.5 * g_plus.real / q**3
        err_est = weight * bracket_err + 1.5 * err_plus / q**3
        return ChiResult.from_parts(complex(0.0), complex(quant, 0.0), method, err_est)
    g_minus, err_minus = _antiderivative_piece(s - 0.5 * q, g_minus)
    classic = -3.0 * x / (q * q) * I1
    quant = _compensated_pair(3.0 / q * (bracket / q), 0.75 * ((g_plus - g_minus) / q**3))
    err_est = x * weight * I1_err + weight * bracket_err + 0.75 / q**3 * (err_plus + err_minus)
    return ChiResult.from_parts(classic, quant, method, err_est)


def _compensated_pair(a: complex, b: complex) -> complex:
    """Two-sum of the two quantum terms (the rounding of + captured exactly)."""
    s = a + b
    bp = s - a
    err = (a - (s - bp)) + (b - bp)
    return s + err


def _taylor_result(point: DimensionlessPoint, closed) -> ChiResult:
    """The shifted-difference Taylor series about s for the quantum part.

    Exact in beta = y/q; on the static line it reduces to 1 - q^2/20 - ... .
    The classical part keeps its closed form, the guard's I1, which does not
    cancel here. err_est carries the series' truncation bound.
    """
    x, q, s = point.x, point.q, point.s
    quant, err_est = _quant_taylor_shift(s, q)
    if x == 0.0:
        quant = complex(quant.real, 0.0)
        return ChiResult.from_parts(complex(0.0), quant, RegimeTag.TAYLOR_SERIES, err_est)
    # off x = 0, a point reaches this series only through the guard
    classic = -3.0 * x / (q * q) * closed[0]
    return ChiResult.from_parts(classic, quant, RegimeTag.TAYLOR_SERIES, err_est)


def _laurent_result(point: DimensionlessPoint) -> ChiResult:
    """The Laurent expansion in q/z for both parts.

    The 1/z^2 and q^2/z^4 orders of the two quantum terms cancel
    symbolically, so the quantum value is the true leading residual
    (starting at q^4/z^4). This covers both the collision-dominated window
    q << |z| and the large-|s| window. err_est carries the truncation bounds.
    """
    x, q = point.x, point.q
    z = complex(x, point.y)
    w = (q / z) ** 2
    quant, quant_err = _quant_laurent(z, q, w)
    if x == 0.0:
        quant = complex(quant.real, 0.0)
        return ChiResult.from_parts(complex(0.0), quant, RegimeTag.LAURENT_SERIES, quant_err)
    classic, classic_err = _classic_laurent(z, q, x, w)
    return ChiResult.from_parts(classic, quant, RegimeTag.LAURENT_SERIES, quant_err + classic_err)


def _result(point: DimensionlessPoint, tag: RegimeTag, closed) -> ChiResult:
    """Run the evaluator that `tag` names.

    A float product that overflows gives inf without raising, and ChiResult
    then refuses the non-finite part with ValidationError. The point itself
    is valid, so that is raised as DomainError, as _double_range does.
    """
    try:
        if tag is RegimeTag.PV_STATIC:
            if point.q > 2.0:
                # no principal value is involved once the poles leave [-1, 1]
                return _closed_form_result(point, None, RegimeTag.PV_STATIC)
            quant = complex(chi_static_pv(point.q), 0.0)
            return ChiResult.from_parts(complex(0.0), quant, RegimeTag.PV_STATIC, 0.0)
        if tag is RegimeTag.CLOSED_FORM:
            return _closed_form_result(point, closed)
        if tag is RegimeTag.TAYLOR_SERIES:
            return _taylor_result(point, closed)
        return _laurent_result(point)
    except ValidationError as exc:
        raise DomainError(f"the result is beyond double-precision range ({exc})") from exc


@_double_range
def chi_ratio(point: DimensionlessPoint) -> ChiResult:
    """Susceptibility ratio chi/chi_L with automatic regime handling.

    classic and quant are the two physical contributions; total is their sum
    exactly. method is the RegimeTag that regime_select gives the point, and
    err_est its truncation bound: 0 for the principal value, the bounds of
    the pieces the closed form summed as series (0 if none), and the series
    bounds for the series branches.

    On the collisionless line y = 0 it returns the limit y -> 0+, poles
    inside [-1, 1] or on t = +-1 included. Raises DomainError where an
    intermediate or the result overflows or divides by zero in double
    precision, which happens only far outside |x|, y, q in 1e+-100.
    """
    return _result(point, *_classify(point))


@_double_range
def chi_ratio_detailed(point: DimensionlessPoint) -> tuple:
    """(ChiResult, TermBreakdown|None) from one regime choice.

    The breakdown is the raw closed form's integrals and terms: from the
    pieces the cancellation guard evaluated where it ran, else
    eval_integrals at the point, or None where that raises DomainError.
    Raises as chi_ratio does.
    """
    tag, closed = _classify(point)
    if closed is not None:
        breakdown = _breakdown(point.x, point.q, closed)
        return _result(point, tag, closed), breakdown
    result = _result(point, tag, closed)
    try:
        return result, eval_integrals(point.z, point.q)
    except DomainError:
        return result, None

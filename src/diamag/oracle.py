"""Independent numerical checks of the closed-form susceptibility kernel.

Everything here recomputes physics independently of the kernel module's
numerics, all but the exact reference from a more primitive formulation:

  * chi_ratio_quadrature integrates the classical integral and the quantum
    part, the latter as one integrand Q whose terms do not cancel, with
    high-precision arithmetic, never touching the kernel's branch-logarithm
    algebra: one tanh-sinh pass (the standard nodes, from their closed form;
    each integral judged by its own relative error estimate) over shared
    nodes along the lower unit semicircle from -1 through -i to 1, one
    smooth arc that passes below every pole, so the integrands stay bounded
    and no split points are needed (at x = 0 the half v >= 0 of the arc
    suffices); the nodes and the integrands run on Python ints at the
    pass's precision, and the parts are assembled exactly on them too,
    without mpmath or fractions;
  * chi_ratio_exact evaluates the closed forms themselves in mpmath, at the
    digits each point needs, measured from how far their summands cancel:
    the kernel's algebra without its double-precision numerics or series.
    It and its helpers are the only code here that uses mpmath, and import
    it when they run, so that a process that never calls them never loads
    it;
  * chi_from_kinetic rebuilds the ratio from the kinetic-equation form, a
    velocity-shell occupation difference against a shifted resonance
    denominator, using the package's own adaptive Gauss-Kronrod engine;
  * j_integrals_nascent_delta computes the two Fermi-surface velocity
    moments behind the Landau normalization by replacing the surface-delta
    derivatives with nascent Gaussians and extrapolating the width to zero.

Agreement between these and the kernel is what the verification suite (and
the CLI verify command) asserts.
"""

from __future__ import annotations

import math
from bisect import bisect_left

from .core import ChiResult, DimensionlessPoint, FrozenRecord, RegimeTag
from .errors import DomainError, ExtrapolationError, ValidationError
from .quadrature import integrate_complex_adaptive

__all__ = [
    "JIntegrals",
    "chi_ratio_exact",
    "chi_ratio_quadrature",
    "chi_from_kinetic",
    "j_integrals_nascent_delta",
    "richardson_extrapolate",
]


# ---------------------------------------------------------------------------
# Direct quadrature of the angular integrals (Python integers)
# ---------------------------------------------------------------------------


def _dps_to_prec(dps: int) -> int:
    """The bits of dps decimal digits, counted as mpmath's dps_to_prec does."""
    return max(1, int(round((int(dps) + 1) * 3.3219280948873626)))


# The contour in t: every pole has Im t = y/q >= 0, so the lower unit
# semicircle t = -i e^(i pi v/2), v in [-1, 1], from -1 through -i to 1,
# gives the integrals over [-1, 1] (Cauchy's theorem). It is one smooth arc,
# so one tanh-sinh rule in v covers it, its nodes clustering only at the ends
# t = +-1, where the integrands' factor 1 - t^2 vanishes. Every pole lies at
# least its _path_distance from it.
_PATH_LENGTH = math.pi
# The error estimate compares the last level with the two before it. At
# degree 3 the oldest of them is the coarse degree-1 sum, and mp.quad's
# estimate there read 1e-23 against a true error of 5e-16 of |I2| at
# (0, 4.9e-3, 156). From degree 4 on it held.
_FIRST_STOP_DEGREE = 4

# Working digits of the first quadrature pass, and the most any point gets.
_FIRST_DPS = 20
_MAX_DPS = 150
# Each part and their sum must be known to this relative accuracy.
_TARGET_REL = 1e-16
# The integrand arithmetic, the levels and the assembly run _GUARD_BITS above
# the working precision, and their rounding stays at about 2^-(prec+20) of an
# integrand's peak on the path times the path length (see _contour_sums); the
# allowance for it is 2^_NOISE_BITS times that scale.
_NOISE_BITS = 10
# The node schedule (_tanh_sinh) drops the nodes v within 2^-(prec+10) of an
# end v = +-1, a depth set for a pole on an end t = +-1. Each pass cuts each
# integral's nodes further, at 1 - v <= c for a power of two c >= 2^-(prec+10)
# of its own (_end_cuts), where the weight it drops there, times the
# integrand's bound near the ends, stays within the rounding allowance. A
# pass's last level sums the weights w(v) = (pi/2) cosh(r)/cosh(g)^2, v =
# tanh(g), g = (pi/2) sinh(r), over a grid in r of step h = 2^-degree, and w
# <= pi cosh(r) (1 - v), since cosh(g)^-2 = (1 - v)(1 + v). The weight it
# drops beyond an end is then at most h w(r_c) + (the integral of w beyond
# r_c) <= (1 + h pi cosh(r_c)) c, r_c the first dropped grid point, whose
# neighbour r_c - h is kept (c < 1 keeps the centre r = 0), so that pi
# sinh(r_c - h) < ln(2/c); that is below (1 + h e^h (pi + ln(2/c))) c. From
# degree 4 (_FIRST_STOP_DEGREE) on, this is at most 24.9 c up to 150 digits
# (_MAX_DPS) and 4.95 c at 20; measured at every depth of 20, 42 and 150
# digits and every such degree, the dropped weight stays within 0.87 of it.
# The rounding of 1 - v, at prec + 40 bits, moves c by far less than that
# slack. |dt/dv| = pi/2, so the two ends leave out at most that weight times
# pi times the integrand's bound within pi c of an end (_peak_log2): the
# dropped nodes lie within (pi/2) c of an end in t. That tail stays within
# 2^-_TAIL_BITS of the allowance for the integer arithmetic, so that it adds
# at most a quarter to it.
_TAIL_BITS = 2
_GUARD_BITS = 20
# Q's integrand is q^4 a^2/d, a = u/w, and quant = (3/16) times its integral.
_QUANT_FACTOR = 3.0 / 16.0  # exact in binary


def _guess_degree(prec: int) -> int:
    """The most tanh-sinh levels a pass at prec bits runs: mpmath's
    TanhSinh.guess_degree, int(4 + max(0, log2(prec/30))) + 2, on integers."""
    return 6 + max(0, (prec // 30).bit_length() - 1)


def _path_distance(p: complex) -> float:
    """Distance from p, Im p >= 0, to the arc: min|p -+ 1|, since the point
    of the lower unit semicircle nearest to p is an end."""
    return min(abs(p - 1.0), abs(p + 1.0))


def _path_quad(level_sums, prec: int) -> list:
    """Integrals of every component of an integrand along the arc, in one pass.

    A tanh-sinh pass at prec bits in the arc's parameter v, run on integers.
    level_sums(degree, prec) returns, per component, the sum of weight *
    f(t) over the nodes of _fixed_nodes(degree, prec, ...), as an exact value
    (re, im, exp) of the fixed-width arithmetic below. Each level is the
    previous one halved plus 2^-degree times the level sum, exact on the
    integers and rounded once (_rounded) at _GUARD_BITS above the working
    precision. Every component is judged by its own relative error estimate
    (_level_error); the pass stops at the first degree from
    _FIRST_STOP_DEGREE on where each estimate is at most eps/8, or at
    _guess_degree(prec). Returns [(value, error), ...] per component: the
    last level, exact, and its estimate times a bound on the levels' moduli,
    a power of two as a real (m, e), (0, 0) where every level is 0.
    """
    width = prec + _GUARD_BITS
    levels = []  # per degree, the level of every component
    for degree in range(1, _guess_degree(prec) + 1):
        sums = level_sums(degree, prec)
        previous = levels[-1] if levels else [(0, 0, 0)] * len(sums)
        levels.append(
            [
                _rounded(*_exact_sum([(pr, pi, pe - 1), (sr, si, se - degree)]), width)
                for (pr, pi, pe), (sr, si, se) in zip(previous, sums)
            ]
        )
        if degree >= _FIRST_STOP_DEGREE:
            errors = [_level_error(last_three, width) for last_three in zip(*levels[-3:])]
            if max(rel for rel, _ in errors) <= -(prec + 2):  # eps/8 = 2^-(prec+2)
                break
    return [
        (level, (0, 0) if top is None else (1, top + 1 + rel))
        for level, (rel, top) in zip(levels[-1], errors)
    ]


def _top(value: tuple) -> int:
    """e with 2^(e-1) <= |value| < 2^(e+1/2), for a nonzero value."""
    re, im, exp = value
    n, m = re.bit_length(), im.bit_length()
    return (n if n > m else m) + exp


def _level_error(levels: tuple, width: int) -> tuple:
    """(e, top): a relative error estimate 2^e of the last of three levels of
    width bits, and the exponent top with every level's modulus below
    2^(top+1), None where all three are 0.

    Bailey, Jeyabalan and Li's rule (Exp. Math. 14, 2005), which mp.quad's
    tanh-sinh error estimate follows, made relative: D1 and D2 are log2 of
    the distances from the last level to the two before it, over 2^top, read
    from bit lengths (within 1.5 bits), and e = min(0, max(D1^2/D2, 2 D1,
    -width)), with D1^2/D2 rounded up. -width is the levels' own resolution,
    which also stands for a distance of 0. All integers, so every platform
    gives the same e. top is the largest level's, which is the last one's
    once the levels agree, and keeps a last level of 0 from claiming an
    error of 0 when the levels before it are not.
    """
    tops = [_top(level) for level in levels if level[0] or level[1]]
    if not tops:
        return -width, None
    top = max(tops)
    last = levels[-1]
    d1, d2 = (
        _top(distance) - top if distance[0] or distance[1] else -width
        for distance in (_exact_sum([last, (-re, -im, exp)]) for re, im, exp in levels[-2::-1])
    )
    if d2 >= 0:
        return 0, top
    return min(0, max(-(d1 * d1 // -d2), 2 * d1, -width)), top


# ---------------------------------------------------------------------------
# Rounding once
# ---------------------------------------------------------------------------
# A real is (m, e), Python ints meaning m 2^e. Where a value is computed
# exactly on the integers and then needs `bits` bits, it is rounded once, to
# nearest with ties to even. Sums and comparisons of reals are exact (_sum,
# _exceeds), and a quotient becomes a double in one int true division
# (_double).


def _nearest(m: int, e: int, bits: int) -> tuple:
    """m 2^e rounded to nearest at bits bits, ties to even."""
    n = m.bit_length() - bits
    if n <= 0:
        return m, e
    a = -m if m < 0 else m
    r = a & ((1 << n) - 1)
    a >>= n
    half = 1 << (n - 1)
    if r > half or (r == half and a & 1):
        a += 1
    return (-a if m < 0 else a), e + n


def _quotient(num: int, den: int, e: int, bits: int) -> tuple:
    """num/den 2^e for positive ints, rounded to nearest at bits bits: bits + 2
    bits of the quotient and a sticky bit below them, which is 1 for a
    remainder, rounded by _nearest."""
    k = max(0, bits + 2 + den.bit_length() - num.bit_length())
    quotient, remainder = divmod(num << k, den)
    return _nearest(quotient << 1 | (remainder != 0), e - k - 1, bits)


def _ceil_log10(num: int, den: int) -> int:
    """The least integer k >= 0 with 10^k den >= num, for positive ints:
    ceil(log10(num/den)), but 0 below 1, exactly."""
    # 10^k <= 2^(bit lengths' difference - 1) <= num/den
    k = max(0, int((num.bit_length() - den.bit_length() - 1) * 0.30102999))
    while 10**k * den < num:
        k += 1
    return k


def _sum(*reals) -> tuple:
    """The exact sum of reals (m, e), at the smallest exponent among them."""
    exp = min(e for _, e in reals)
    return sum(m << (e - exp) for m, e in reals), exp


def _exceeds(a: tuple, b: tuple) -> bool:
    """a > b for reals (m, e), exactly."""
    (am, ae), (bm, be) = a, b
    exp = min(ae, be)
    return am << (ae - exp) > bm << (be - exp)


def _double(m: int, e: int, d: int = 1) -> float:
    """m 2^e / d, d > 0, rounded once to the nearest double (Python's int
    true division), +-inf beyond the double range."""
    try:
        return (m << e) / d if e >= 0 else m / (d << -e)
    except OverflowError:
        return math.inf if m > 0 else -math.inf


# ---------------------------------------------------------------------------
# The tanh-sinh nodes from their closed form
# ---------------------------------------------------------------------------
# The standard nodes (Bailey, Jeyabalan and Li, Exp. Math. 14, 2005), each
# from its closed form, with no recurrence from the node before (_tanh_sinh).
# exp and cos/sin are each computed _FUNCTION_GUARD bits beyond the precision
# they are rounded to, pi and ln 2 10 bits beyond that. The grid, the stop
# and the degrees are those of mpmath's TanhSinh.calc_nodes, and the node
# counts are mpmath's at every degree of every working precision from
# _FIRST_DPS to _MAX_DPS digits (compared one by one).
_FUNCTION_GUARD = 40

# floor(pi 2^bits) and floor(ln(2) 2^bits), but for the last unit or two, per
# bits.
_CONSTANTS: dict = {}


def _constants(bits: int) -> tuple:
    """pi and ln 2 at bits fraction bits: Machin's 16 atan(1/5) - 4
    atan(1/239) and 2 atanh(1/3), their series summed 20 bits further."""
    found = _CONSTANTS.get(bits)
    if found is None:
        wide = bits + 20

        def series(n: int, sign: int) -> int:
            # atan(1/n) (sign -1) or atanh(1/n) (sign 1), at wide bits
            total = term = (1 << wide) // n
            k, n2, factor = 1, n * n, 1
            while term:
                term //= n2
                k += 2
                factor *= sign
                total += factor * (term // k)
            return total

        pi = 16 * series(5, -1) - 4 * series(239, -1)
        found = _CONSTANTS[bits] = pi >> 20, 2 * series(3, 1) >> 20
    return found


def _exp(x: int, f: int) -> tuple:
    """exp(x 2^-f), 0 <= x 2^-f < 2^10, rounded to nearest at f bits: x 2^-f
    = n ln 2 + r, |r| <= ln(2)/2, and exp(r) from its Taylor series at
    r/2^8, squared eight times."""
    g = f + _FUNCTION_GUARD
    ln2 = _constants(g + 10)[1]
    scaled = x << (_FUNCTION_GUARD + 10)  # at g + 10 fraction bits, exact
    n = (scaled + (ln2 >> 1)) // ln2
    r = (scaled - n * ln2) >> 18  # r/2^8 at g bits
    one = 1 << g
    total = term = one
    k = 1
    while term:
        term = (term * r >> g) // k
        total += term
        k += 1
    for _ in range(8):
        total = total * total >> g
    return _nearest(total, n - g, f)


def _cos_sin_half_pi(r: int, f: int) -> tuple:
    """cos and sin of (pi/2) r 2^-f, 0 <= r <= 2^f, each rounded to nearest at
    f bits. From r = 2^(f-1) on they are sin and cos of (pi/2)(2^f - r)
    2^-f, so theta <= pi/4; cos theta and sin(theta)/theta come from their
    Taylor series in theta^2, and sin theta = r (pi/2) sin(theta)/theta
    keeps its relative accuracy however small r is."""
    swap = 2 * r >= 1 << f
    if swap:
        r = (1 << f) - r
    g = f + _FUNCTION_GUARD
    half_pi = _constants(g + 10)[0] >> 11  # pi/2 at g bits
    theta = r * half_pi >> f
    theta2 = theta * theta >> g
    one = 1 << g
    cos = sinc = term = one  # sinc: sin(theta)/theta
    k = 1
    while term:
        term = (term * theta2 >> g) // (2 * k * (2 * k - 1))
        cos += -term if k & 1 else term
        sinc += -(term // (2 * k + 1)) if k & 1 else term // (2 * k + 1)
        k += 1
    cos = _nearest(cos, -g, f)
    sin = _nearest(r * (half_pi * sinc >> g), -f - g, f)
    return (sin, cos) if swap else (cos, sin)


def _tanh_sinh(degree: int, prec: int) -> list:
    """The standard tanh-sinh nodes v >= 0 on [-1, 1] of one degree, as
    (1 - v, w), each a real rounded to nearest at prec + 40 bits.

    v = tanh(g), g = (pi/2) sinh(r), and w = (pi/2) cosh(r)/cosh(g)^2 over a
    grid in r: degree 1 holds r = k/2, k >= 0, the centre r = v = 0 (w =
    pi/2) among them, degree d >= 2 the odd multiples r = (2k + 1) 2^-d.
    With E = e^(2g), 1 - v = 2/(E + 1) and w = pi (e^r + e^-r) E/(E + 1)^2
    keep their relative accuracy where v nears 1. At f = prec + 80 fraction
    bits, e^r gives 2g = (pi/2)(e^r - e^-r) and then E, and 1 - v and w are
    each one quotient of integers, rounded once (_quotient): within a small
    fraction of a unit beyond half of one of the exact values. The nodes
    stop at the first r with 1 - v <= 2^-(prec+10), that is E + 1 >=
    2^(prec+11). The weight of v serves -v too.
    """
    bits = prec + 40
    f = bits + _FUNCTION_GUARD
    pi = _constants(f + _FUNCTION_GUARD + 10)[0] >> (_FUNCTION_GUARD + 10)
    one = 1 << f
    k, step = (0, 1) if degree == 1 else (1, 2)
    nodes = []
    while True:
        m, e = _exp(k << (f - degree), f)
        up = m << (e + f)  # e^r >= 1 at f fraction bits, exact
        down = (one << f) // up  # e^-r
        m, e = _exp(pi * (up - down) >> (f + 1), f)  # E = e^(2g)
        big = (m << (e + f)) + one  # E + 1, exact
        if big >> (f + prec + 11):
            return nodes
        weight = _quotient(pi * (up + down) * (big - one), big * big, -f, bits)
        nodes.append((_quotient(2, big, f, bits), weight))
        k += step


# ---------------------------------------------------------------------------
# Fixed-width complex arithmetic for the contour integrands
# ---------------------------------------------------------------------------
# A value is (re, im, exp), Python ints meaning (re + i im) 2^exp: both parts
# share the exponent. An operation computes its result exactly on the
# integers and rounds it once, to nearest, so that the larger part keeps at
# most `width` bits (a carry may add one): _rounded rounds a value, and
# _contour_sums' loop writes its differences, products and quotients out.
# The error is at most half a unit in the last place of each part:
# sqrt(2) 2^-width of the result's modulus. Ties round away from zero, so
# that the arithmetic commutes with negating a part: conjugate inputs give
# exactly conjugate results, which the fold at x = 0 (_contour_sums) relies
# on.


def _rounded(re: int, im: int, exp: int, width: int) -> tuple:
    """(re + i im) 2^exp rounded to nearest at width bits."""
    excess = max(re.bit_length(), im.bit_length()) - width
    if excess <= 0:
        return re, im, exp
    half = 1 << (excess - 1)
    return (
        (re + half) >> excess if re >= 0 else -((half - re) >> excess),
        (im + half) >> excess if im >= 0 else -((half - im) >> excess),
        exp + excess,
    )


def _exact_sum(values) -> tuple:
    """The exact sum of values, at the smallest exponent among them."""
    exp = min(e for _, _, e in values)
    return (
        sum(re << (e - exp) for re, _, e in values),
        sum(im << (e - exp) for _, im, e in values),
        exp,
    )


def _parts(value: float) -> tuple:
    """A float as an exact real (m, e)."""
    m, e = math.frexp(value)
    return int(m * 2.0**53), e - 53


def _fixed(re: tuple, im: tuple) -> tuple:
    """re + i im, each a real, as an exact value."""
    (mr, er), (mi, ei) = re, im
    # a zero part takes the other's exponent, so that it cannot set the shared one
    er, ei = (er if mr else ei), (ei if mi else er)
    exp = min(er, ei)
    return mr << (er - exp), mi << (ei - exp), exp


# The exponent an empty running sum of _contour_sums starts at: above that of
# every term, none of which comes near 2^(2^20), so the first term sets it.
# Shifting the sum's 0 up to a term's exponent costs nothing.
_NO_TERMS = 1 << 20

# The point-independent pieces of the pass's nodes, per (degree, prec): the
# whole table and the folded one, each with its depths.
_FIXED_NODES: dict = {}


def _fixed_nodes(degree: int, prec: int, fold: bool) -> tuple:
    """(nodes, depths): t, 1 - t^2 and the weight at width prec + 20, per
    node of the arc, and per node the depth -ceil(log2(1 - v)).

    The arc is t = -i e^(i pi v/2) = sin(pi v/2) - i cos(pi v/2) over the
    standard nodes v, w on [-1, 1] of _tanh_sinh(degree, prec), and the
    weight of a node is w dt/dv = w (pi/2) i t. sin and cos of pi v/2 are
    computed once per node v >= 0, as cos and sin of pi (1 - v)/2, from 1 -
    v at prec + 40 fraction bits, each rounded at prec + 40 bits as the
    standard nodes are (_cos_sin_half_pi); t is rounded from them, 1 - t^2
    is exact from the rounded t before it is rounded, and the weight is the
    exact product w (pi/2) (cos + i sin) of those prec + 40 bit numbers, pi/2
    rounded down, rounded. The node at -v is the mirror of the node at v:
    t(-v) = -conj t(v), so 1 - t^2 and the weight conjugate, and its entries
    are those of v with signs changed, exactly. With fold, the table holds
    the nodes v >= 0 alone, the centre v = 0 (t = -i, its own mirror; degree
    1 only) at half its weight, so that twice the real part of its sum is the
    whole table's sum wherever the integrand's value at -v is the conjugate
    of its value at v (at x = 0, see _contour_sums).
    Both tables are built in one loop over the standard nodes and kept;
    nothing about a point is stored. The nodes run from the centre out, so
    the depths never fall, and a cut at 1 - v <= 2^-j keeps the prefix of
    the nodes of depth below j (bisect_left(depths, j)). Every node the
    schedule keeps has 1 - v > 2^-(prec+10), so no depth exceeds prec + 9,
    whatever the rounding of 1 - v, and the cut at the schedule's own stop
    keeps every node.
    """
    tables = _FIXED_NODES.get((degree, prec))
    if tables is None:
        width = prec + _GUARD_BITS
        wide = prec + 40  # the standard nodes' precision
        f = wide + _FUNCTION_GUARD + 10
        hm, he = _constants(f)[0] >> (f - wide + 2), 1 - wide  # pi/2, rounded down
        whole, half, whole_depths, half_depths = [], [], [], []
        for (rm, re), (wm, we) in _tanh_sinh(degree, prec):
            depth = min(prec + 9, -((rm - 1).bit_length() + re))
            # sin and cos of pi v/2 from 1 - v at wide fraction bits (re < 0,
            # as 1 - v <= 1), exact at one exponent, and t = sin - i cos
            sin, cos, e = _fixed(*_cos_sin_half_pi((rm << wide) >> -re, wide))
            tr, ti, te = _rounded(sin, -cos, e, width)
            # |t| <= 1, so te <= 0 and 1 = 2^(-2 te) 2^(2 te)
            ur, ui, ue = _rounded((1 << -2 * te) - tr * tr + ti * ti, -2 * tr * ti, 2 * te, width)
            # the weight w (pi/2) (cos + i sin), exact and then rounded
            cr, ci, ce = _rounded(wm * hm * cos, wm * hm * sin, we + he + e, width)
            node = (tr, ti, te, ur, ui, ue, cr, ci, ce)
            if not sin:  # the centre
                whole.append(node)
                half.append((tr, ti, te, ur, ui, ue, cr, ci, ce - 1))
                whole_depths.append(depth)
            else:
                whole += [node, (-tr, ti, te, ur, -ui, ue, cr, -ci, ce)]
                half.append(node)
                whole_depths += [depth, depth]
            half_depths.append(depth)
        tables = _FIXED_NODES[degree, prec] = (whole, whole_depths), (half, half_depths)
    return tables[1] if fold else tables[0]


def _contour_sums(x: float, y: float, q: float, cuts=None):
    """Level sums of Q's integrand and, for x != 0, I1's, for _path_quad.

    Q's integrand, (1 - t^2)^2/((t - s)^2 ((t - s)^2 - q^2/4)) with s = z/q,
    is q^4 a^2/d in w = q t - z, a = u/w (I1's integrand, u = 1 - t^2) and
    d = w^2 - q^4/4. Per node, with t, u and the weight from _fixed_nodes, a
    point computes w exact and then rounded, a rounded to nearest, d exact
    from the squares of w's parts that a's denominator formed and then
    rounded, a^2 rounded and a^2/d rounded to nearest, in the fixed-width
    arithmetic above at the width prec + 20. A level is one straight-line
    loop over its nodes on Python ints, with no call or tuple per operation:
    each component's exact sum of the products with the complex weights
    runs along as (re, im, exp), shifted down to each new term's exponent
    where that is smaller, so it ends at the smallest one. Each level sum,
    Q's times q^4, is returned exact, for _path_quad to round once.

    cuts holds the depths j of Q's and I1's end cuts (_end_cuts), 0 for I1
    at x = 0, which has none; None means the schedule's own stop, prec + 10.
    Each component sums the prefix of the nodes with 1 - v > 2^-j
    (_fixed_nodes), and the loop walks the longer prefix once: past Q's
    cut it computes a for I1 alone, with no d, a^2 or a^2/d.

    At x = 0 the loop walks the folded table: z = i y, so Q's integrand at
    -conj t is the conjugate of its value at t, and so is the weight, while
    the fixed-width arithmetic commutes with conjugation (ties round away
    from zero). The terms of v and -v are then exact conjugates, and Q's
    level sum is twice the real part of the folded sum, exactly the whole
    table's sum with half the nodes; its imaginary part is exactly 0.

    Why the rounding allowance of _quadrature_raw (_tail_noise) covers this
    arithmetic: every result is rounded once, to nearest, so it errs by at
    most sqrt(2) 2^-(prec+20) of its modulus. The errors that grow near a
    pole, where w is small beside q t or d beside w^2, come from those
    subtractions, which here are exact (q, z and q^4/4 are held exactly) with
    only their result rounded. A level sum is exact up to its one rounding.
    All of it sits at the 2^-(prec+20) scale of the peak times the path
    length, which the weights' moduli total, and the allowance for it,
    2^-(prec+10) of the peak times pi, is 2^10 times that scale.
    """
    qm, qe = _parts(q)
    zr, zi, ze = _fixed(_parts(x), _parts(y))
    km, ke = qm**4, 4 * qe - 2  # q^4/4
    zq = ze - qe

    def level_sums(degree: int, prec: int) -> list:
        width = prec + _GUARD_BITS
        nodes, depths = _fixed_nodes(degree, prec, not x)
        stop_q, stop_1 = (
            bisect_left(depths, depth) for depth in cuts or (prec + 10,) * 2
        )
        # the running exact sums of Q and I1, each at the smallest exponent
        # of its terms so far; a zero sum starts above every term
        sqr = sqi = s1r = s1i = 0
        sqe = s1e = _NO_TERMS
        # per node: c the weight, w = q t - z, a = u/w, d = w^2 - q^4/4, f = a^2/d
        for index in range(max(stop_q, stop_1)):
            tr, ti, te, ur, ui, ue, cr, ci, ce = nodes[index]
            # w = q t - z, exact at the smaller exponent, then rounded
            k = te - zq
            if k >= 0:
                wr, wi, we = (qm * tr << k) - zr, (qm * ti << k) - zi, ze
            else:
                wr, wi, we = qm * tr - (zr << -k), qm * ti - (zi << -k), qe + te
            n, m = wr.bit_length(), wi.bit_length()
            k = (n if n > m else m) - width
            if k > 0:
                h = 1 << (k - 1)
                wr = (wr + h) >> k if wr >= 0 else -((h - wr) >> k)
                wi = (wi + h) >> k if wi >= 0 else -((h - wi) >> k)
                we += k
            # a = u/w, scaled so that its larger part gets width or width + 1 bits
            wr2, wi2 = wr * wr, wi * wi
            den = wr2 + wi2
            nr, ni = ur * wr + ui * wi, ui * wr - ur * wi
            n, m = nr.bit_length(), ni.bit_length()
            k = width + den.bit_length() - (n if n > m else m)
            if k >= 0:
                nr <<= k
                ni <<= k
            else:
                den <<= -k
            h = den << 1
            ar = (2 * nr + den) // h if nr >= 0 else -((den - 2 * nr) // h)
            ai = (2 * ni + den) // h if ni >= 0 else -((den - 2 * ni) // h)
            ae = ue - we - k
            # add c a to I1's sum, exactly, within I1's cut
            if index < stop_1:
                k = ce + ae - s1e
                if k < 0:
                    s1r <<= -k
                    s1i <<= -k
                    s1e += k
                    k = 0
                s1r += cr * ar - ci * ai << k
                s1i += cr * ai + ci * ar << k
            if index >= stop_q:  # past Q's cut
                continue
            # d = w^2 - q^4/4, exact at the smaller exponent, then rounded
            k = 2 * we - ke
            if k >= 0:
                dr, di, de = ((wr2 - wi2) << k) - km, (wr * wi) << (k + 1), ke
            else:
                dr, di, de = wr2 - wi2 - (km << -k), 2 * wr * wi, 2 * we
            n, m = dr.bit_length(), di.bit_length()
            k = (n if n > m else m) - width
            if k > 0:
                h = 1 << (k - 1)
                dr = (dr + h) >> k if dr >= 0 else -((h - dr) >> k)
                di = (di + h) >> k if di >= 0 else -((h - di) >> k)
                de += k
            # b = a^2, rounded
            br, bi, be = ar * ar - ai * ai, 2 * ar * ai, 2 * ae
            n, m = br.bit_length(), bi.bit_length()
            k = (n if n > m else m) - width
            if k > 0:
                h = 1 << (k - 1)
                br = (br + h) >> k if br >= 0 else -((h - br) >> k)
                bi = (bi + h) >> k if bi >= 0 else -((h - bi) >> k)
                be += k
            # f = b/d, as a
            den = dr * dr + di * di
            nr, ni = br * dr + bi * di, bi * dr - br * di
            n, m = nr.bit_length(), ni.bit_length()
            k = width + den.bit_length() - (n if n > m else m)
            if k >= 0:
                nr <<= k
                ni <<= k
            else:
                den <<= -k
            h = den << 1
            fr = (2 * nr + den) // h if nr >= 0 else -((den - 2 * nr) // h)
            fi = (2 * ni + den) // h if ni >= 0 else -((den - 2 * ni) // h)
            fe = be - de - k
            # add c f to Q's sum, exactly (at x = 0 only its real part)
            k = ce + fe - sqe
            if k < 0:
                sqr <<= -k
                sqi <<= -k
                sqe += k
                k = 0
            sqr += cr * fr - ci * fi << k
            if x:
                sqi += cr * fi + ci * fr << k
        if not x:  # twice the folded sum's real part, times q^4
            return [(sqr * km, 0, sqe + ke + 3)]
        return [(sqr * km, sqi * km, sqe + ke + 2), (s1r, s1i, s1e)]  # Q's times q^4

    return level_sums


def _log2(value: float) -> float:
    return math.log2(value) if value else -math.inf


def _peak_log2(x: float, y: float, q: float, reach: float) -> tuple:
    """log2 of bounds on |Q's integrand| and on |I1's|, each as (on the whole
    path, within reach of an end).

    With s = z/q, h = q/2 and u = 1 - t^2, Q's integrand is
    u^2/((t - s)^2 (t - s - h)(t - s + h)) and I1's is u/(t - s) over q.
    Each pole p (Im p >= 0) gives two bounds on the arc: |t - p| is at least
    its distance d_p = min|p -+ 1| to the arc (_path_distance), and
    |u/(t - p)| <= R(p) = 2 (1 + min(1, |p|)), through the zero of u at the
    ends: with e the end nearest to p, |u| = |t - e| |t + e| <= 2 (|t - p| +
    d_p) <= 4 |t - p|, and also
    |u| <= |1 - p^2| + |t - p| |t + p| <= (1 + |p|) (d_p + |t - p|), since
    |1 - p^2| = |p - 1| |p + 1| <= d_p (1 + |p|). The pair s -+ h lies 2h
    apart, so |(t - s)^2 - h^2| >= D = max(d- d+, h min(d-, d+)), and partial
    fractions split it, and 1/((t - s)((t - s)^2 - h^2)), into simple poles.
    With |u| <= U, Q's bound is the least of: U^2/(ds^2 D), R(s)^2/D,
    (R(s+h) + R(s-h))/(h ds^2), and R(s) (R(s) + (R(s+h) + R(s-h))/2)/h^2,
    which stays finite with any pole on an end t = +-1; I1's is the lesser of
    U/ds and R(s), over q. On the whole path U = 2. Within r = reach of an
    end e, U = 2r, as |u| <= 2 |t - e|, and each d_p is also at least
    |p - e| - r; _end_cuts asks for the reach pi c of each cut c it weighs.
    Each bound is summed in logarithms of doubles, so no product leaves the
    double range; a bound on a pole on the path is +inf in logarithms.
    """
    s, h = complex(x / q, y / q), 0.5 * q
    lq = math.log2(q)
    if math.isinf(abs(s)):
        # |s| >= 2^far > 2^1023, and then h < 1: every pole lies at least |s|/2
        # from the path, which the first bound alone turns into these, on the
        # whole path and so near its ends
        far = math.log2(max(abs(x), y)) - lq
        return (6.0 - 4.0 * far,) * 2, (2.0 - far - lq,) * 2
    poles = (s, s + h, s - h)
    rs, rp, rm = (1.0 + math.log2(1.0 + min(1.0, abs(p))) for p in poles)
    lh = _log2(h)
    r_pair = max(rp, rm) + 1.0  # log2 of at least R(s+h) + R(s-h)
    partial = rs + max(rs, r_pair - 1.0) + 1.0 - 2.0 * lh

    def bounds(distances, lu: float) -> tuple:
        # (Q's, I1's) from the poles' distances and log2 U
        ds, dp, dm = map(_log2, distances)
        pair = max(dp + dm, lh + min(dp, dm))  # log2 D
        peak_q = min(2.0 * lu - 2.0 * ds - pair, 2.0 * rs - pair, r_pair - lh - 2.0 * ds, partial)
        return peak_q, min(lu - ds, rs) - lq

    near = [_path_distance(p) for p in poles]
    lu = math.log2(2.0 * reach)
    ends = [
        bounds([max(d, abs(p - e) - reach) for p, d in zip(poles, near)], lu)
        for e in (1.0, -1.0)
    ]
    return tuple((whole, max(end)) for whole, *end in zip(bounds(near, 1.0), *ends))


def _end_cuts(x: float, y: float, q: float, prec: int) -> tuple:
    """(cuts, bounds) of a pass at prec bits: the depth j of Q's and I1's end
    cut 1 - v <= 2^-j (I1's 0 at x = 0, which has none), and per integral
    its bounds (peak, tail) for _tail_noise, Q's first.

    peak is log2 of the integrand's bound on the path (_peak_log2), and the
    dropped tail, the weight beyond c, at most (1 + h e^h (pi + ln(2/c))) c
    with h = 2^-_FIRST_STOP_DEGREE (see the comment above _TAIL_BITS), times
    pi times the integrand's bound within pi c of an end, is 2^-(prec+10) pi
    2^tail. Each cut is a power of two c >= 2^-(prec+10), the schedule's
    own stop, with tail <= peak - _TAIL_BITS, the tail within a quarter of
    the allowance for the integer arithmetic: the largest such c if, from
    the schedule's stop on, Q's end bound grew as r^2 and I1's as r (r the
    reach, as |u|^2 and |u| do), kept after one check of the bound at its
    reach, or else the schedule's stop; at most three _peak_log2 calls. A
    pole on the path (peak +inf) keeps the schedule's stop. The tail is
    charged at the cut taken, so at the schedule's stop it may exceed the
    budget.
    """
    deepest = prec + 10
    h = 2.0**-_FIRST_STOP_DEGREE
    found = {}

    def ends(depth: int) -> tuple:
        # the bounds within reach pi 2^-depth of an end, one call per depth
        if depth not in found:
            found[depth] = _peak_log2(x, y, q, math.pi * 2.0**-depth)
        return found[depth]

    def tail(end: float, depth: int) -> float:
        weight = 1.0 + h * math.exp(h) * (math.pi + (depth + 1) * math.log(2.0))
        return end + math.log2(weight) + deepest - depth

    cuts, bounds = [0, 0], []
    for i in range(2 if x else 1):
        peak, end = ends(deepest)[i]
        depth = deepest
        if peak < math.inf:
            budget = peak - _TAIL_BITS
            # the depth where the tail would meet the budget if it grew as
            # c^3 for Q and c^2 for I1 (the weight as c, the end bound as r^2
            # or r); c < 1, so that the cut keeps the centre v = 0
            guess = max(1, deepest - math.floor((budget - tail(end, deepest)) / (3 - i)))
            if guess < deepest:
                guessed = ends(guess)[i][1]
                if tail(guessed, guess) <= budget:
                    depth, end = guess, guessed
        cuts[i] = depth
        bounds.append((peak, tail(end, depth)))
    return cuts, bounds


def _allowance(value: float, prec: int) -> tuple:
    """2^-(prec+10) (_NOISE_BITS) of pi 2^value, exactly, a real (m, e): the
    double pi 2^(value - floor(value)) = n/d, d a power of two, scaled."""
    n, d = (_PATH_LENGTH * 2.0 ** (value - math.floor(value))).as_integer_ratio()
    return n, math.floor(value) - prec - _NOISE_BITS - d.bit_length() + 1


def _tail_noise(bounds: tuple, prec: int):
    """The rounding allowance of an integral at prec bits, a real (m, e), None
    (infinite) for a pole on the path, from its bounds (peak, tail) of
    _end_cuts: 2^-(prec+10) (_NOISE_BITS) of pi 2^peak, the integrand's peak
    on the path times the path length, for the integer arithmetic, and as
    much of pi 2^tail for the nodes that the pass's end cut drops."""
    peak, tail = bounds
    if peak == math.inf:
        return None
    return _sum(_allowance(peak, prec), _allowance(tail, prec))


def _modulus(value: tuple, bits: int) -> tuple:
    """|re + i im| 2^exp of an exact value, a real rounded once to at least
    bits bits: the integer nearest to sqrt(re^2 + im^2) 2^k, with k the least
    that gives it bits bits, times 2^(exp-k)."""
    re, im, exp = value
    n = re * re + im * im
    k = max(0, bits + 1 - n.bit_length() // 2)
    return (math.isqrt(n << 2 * k + 2) + 1) >> 1, exp - k


def _product(factor: tuple, value: tuple) -> tuple:
    """A real (m, e) times an exact value (re, im, exp), exactly."""
    (m, e), (re, im, exp) = factor, value
    return m * re, m * im, e + exp


def _bound(factor: tuple, error: tuple, noise, modulus: tuple, out_eps: tuple):
    """factor (error + noise) + out_eps modulus of reals, exactly: a part's
    error bound; None (infinite) where the noise is."""
    if noise is None:
        return None
    (fm, fe), (sm, se) = factor, _sum(error, noise)
    return _sum((fm * sm, fe + se), (out_eps[0] * modulus[0], out_eps[1] + modulus[1]))


def chi_ratio_quadrature(point: DimensionlessPoint) -> ChiResult:
    """Susceptibility ratio by direct high-precision quadrature.

    Integrates
        I1 = Int (1-t^2)/(q t - z) dt
        Q  = Int (1-t^2)^2 / ((t - s)^2 ((t - s)^2 - q^2/4)) dt,   s = z/q,
    from -1 to 1 with tanh-sinh nodes and returns classic = -(3x/q^2) I1
    and quant = (3/16) Q. Q is the quantum part (3/q) I2 + (3/4) I3 of the
    kernel's three angular integrals under one integral, in a form whose
    terms do not cancel; at s = 0 it is 16/3, Landau's ratio 1. Every pole
    lies at Im t = y/q >= 0, so the integrals run along the lower unit
    semicircle from -1 through -i to 1, where the integrands stay bounded,
    with no split points: one smooth arc, one tanh-sinh rule, and both
    integrals from one pass over shared nodes. At y = 0 this gives the limit
    y -> 0+, poles inside [-1, 1] or on t = +-1 included. The working
    precision is chosen per point: a pass at 20 digits measures its own
    rounding noise and error, and passes at more digits follow until the
    classical part, the quantum part and their sum are each known to 1e-16
    relative (or 150 digits are reached). Each pass ends each integral's
    nodes short of t = +-1 where its own bound says the rest cannot count
    beside the rounding allowance. err_est is each integral's own relative
    error estimate times its size, plus the predicted rounding bound and the
    bound on the nodes left out, plus half an ulp for each rounding to
    double of the parts and their sum. It bounds the modulus of the error
    in the total, so a part or a real or imaginary part far below |total|
    may be all rounding: at (1.3e204, 4.9e124, 1.5e-111) Im total reads 0
    where the value's is -6.70e142, within err_est 3.21e206, as w = q t - z
    keeps one exponent for both its parts (_contour_sums). Serves every
    accepted point whose parts fit in a double, and raises DomainError
    elsewhere, as chi_ratio and chi_ratio_exact do; _quadrature_raw also
    takes x < 0. An oracle: slow, independent, trusted. Python integers
    carry all of it: it needs no mpmath and no fractions.
    """
    return _quadrature_raw(point.x, point.y, point.q)


def _quadrature_raw(x: float, y: float, q: float) -> ChiResult:
    """Quadrature along the arc at the fewest working digits the point needs.

    One _path_quad pass per working precision yields Q and, for x != 0, I1,
    each over the nodes short of its end cut (_end_cuts, _contour_sums).
    At x = 0 the pass walks half the nodes: Q's integrand and the weights
    conjugate under v -> -v, so _contour_sums folds each pair into twice its
    real part, and Q's imaginary part is exactly 0. The integrands come from
    _contour_sums, in fixed-width integer complex arithmetic 20 bits above
    the working precision that rounds every result once, to nearest. The
    pass's last levels, its error estimates and the allowances are exact
    dyadic values, and classic, quant, their sum and their bounds are
    assembled from them exactly, on the same integers, each carried times
    q^2: classic q^2 = -3x I1 is dyadic, as q^2 is, q being a double, where
    classic is not. Only the moduli in the bounds and the checks are
    rounded, once, at the guard width or finer (_modulus); the checks and
    the digit step compare integers (_exceeds, _ceil_log10), and each
    returned double is its value over q^2, rounded once by one int true
    division (_double). Each pass bounds its own rounding noise: 10^-dps
    2^-20 of each assembled part (about 12 units in the last place at the
    guard width: the rounding of the pass's last level and a margin);
    2^-(prec+10) (about 10^-(dps+3)) of each integrand's peak on the path
    times the path length pi for the sums inside the pass, 2^10 times the
    scale of the integer arithmetic's rounding; and the bound on the nodes
    that each integral's end cut drops, its weight beyond the cut times pi
    times the integrand's bound near the ends, which the cut keeps within a
    quarter of the former. The bounds and the cuts come from _end_cuts, the
    allowance from _tail_noise. Noise plus each integral's error estimate
    must stay within _TARGET_REL of |classic|, |quant| and |total|; a pass
    that misses by a factor E is redone at dps + ceil(log10 E) + 2 digits
    (twice the digits when a part is exactly 0 or a pole lies on the path),
    up to _MAX_DPS, where the value is returned with the whole bound as
    err_est. err_est also counts half an ulp for the rounding to
    double of each real and imaginary part of classic and quant and of their
    double sum.
    """
    xm, xe = _parts(x)
    qm, qe = _parts(q)
    q2, e2 = qm * qm, 2 * qe  # q^2 = q2 2^e2
    # the reals that take I1 and Q to the parts times q^2: -3x and (3/16) q^2;
    # the classical bound takes |-3x|
    fm, fe = _parts(_QUANT_FACTOR)
    factor_c, factor_q = (-3 * xm, xe), (fm * q2, fe + e2)
    tm, te = _parts(_TARGET_REL)
    dps = _FIRST_DPS
    while True:
        prec = _dps_to_prec(dps)
        width = prec + _GUARD_BITS
        cuts, bounds = _end_cuts(x, y, q, prec)
        (vq, eq), *classical = _path_quad(_contour_sums(x, y, q, cuts), prec)
        out_eps = _parts(10.0**-dps * 2.0**-_GUARD_BITS)
        # each part times q^2, its modulus and its bound, None (infinite)
        # where the noise is
        if x == 0.0:
            classic, modulus_c, bound_c = (0, 0, 0), (0, 0), (0, 0)
        else:
            ((v1, e1),) = classical
            classic = _product(factor_c, v1)
            modulus_c = _modulus(classic, width)
            noise = _tail_noise(bounds[1], prec)
            bound_c = _bound((3 * abs(xm), xe), e1, noise, modulus_c, out_eps)
        quant = _product(factor_q, vq)
        modulus_q = _modulus(quant, width)
        bound_q = _bound(factor_q, eq, _tail_noise(bounds[0], prec), modulus_q, out_eps)
        whole = None if bound_c is None or bound_q is None else _sum(bound_c, bound_q)
        moduli = modulus_c, modulus_q, _modulus(_exact_sum([classic, quant]), width)
        checks = [(b, (tm * m, te + e)) for b, (m, e) in zip((bound_c, bound_q, whole), moduli)]
        misses = [(b, limit) for b, limit in checks if b is None or _exceeds(b, limit)]
        if dps == _MAX_DPS or not misses:
            (cr, ci, ce), (ur, ui, ue) = classic, quant
            return _double_result(
                "chi_ratio_quadrature",
                complex(_double(cr, ce - e2, q2), _double(ci, ce - e2, q2)),
                complex(_double(ur, ue - e2, q2), _double(ui, ue - e2, q2)),
                math.inf if whole is None else _double(whole[0], whole[1] - e2, q2),
            )
        if any(b is None or not limit[0] for b, limit in misses):
            step = dps
        else:
            step = 2 + max(
                _ceil_log10(bm << max(0, be - le), lm << max(0, le - be))
                for (bm, be), (lm, le) in misses
            )
        dps = min(_MAX_DPS, dps + step)


# ---------------------------------------------------------------------------
# The closed form at measured digits (mpmath)
# ---------------------------------------------------------------------------


# The first working digits of chi_ratio_exact, and the digits a total must
# keep beyond those its sum cancels before a second evaluation checks it.
_EXACT_FIRST_DPS = 30
_EXACT_MARGIN = 30
# A total with fewer digits left than this may be all rounding noise, whose
# measured loss says only that the true one is larger.
_EXACT_NOISE = 10
# The check passes when the total agrees with the evaluation at twice the
# digits to this relative accuracy.
_EXACT_AGREEMENT = 1e-20
# A total below 2^_EXACT_FLOOR_MAG counts as that size: a double keeps
# nothing below 2^-1074, so such a total needs no relative accuracy.
_EXACT_FLOOR_MAG = -1100
# L(sigma) comes from its series in 1/sigma where that needs at most this many
# terms at the working precision, and from mp.log elsewhere
_LOG_SERIES_TERMS = 32


def _branch_log(sigma) -> tuple:
    """(1 - sigma^2, L(sigma)) at the context's precision, Im sigma >= 0, with
    L(sigma) = log((sigma - 1)/(sigma + 1)), or 0 where 1 - sigma^2 is 0.
    For |sigma| >= 2^a, a = mag(sigma) - 2 >= 1, L = -2 sum_{k>=0}
    sigma^-(2k+1)/(2k+1), whose terms fall by 2^-2a or more: its first n =
    ceil((prec + 5)/(2a)) leave a tail below 2^-(prec + 4) of the value, and
    serve where n <= _LOG_SERIES_TERMS; elsewhere L is mp.log of the quotient.
    """
    from mpmath import mp, mpf

    u = 1 - sigma * sigma
    if not u:
        return u, 0
    a = mp.mag(sigma) - 2
    n = -(-(mp.prec + 5) // (2 * a)) if a > 0 else _LOG_SERIES_TERMS + 1
    if n > _LOG_SERIES_TERMS:
        return u, mp.log((sigma - 1) / (sigma + 1))
    v = 1 / sigma
    v2 = v * v
    total = mpf(1) / (2 * n - 1)
    for k in range(n - 2, -1, -1):
        total = total * v2 + mpf(1) / (2 * k + 1)
    return u, -2 * v * total


def _exact_integrals(x: float, y: float, q: float) -> tuple:
    """((I1, I2, I3), (m1, m2, m3)): the three angular integrals from their
    antiderivatives at the context's precision, mpc values, and per integral
    an int m with each summand it sums below about 2^m in modulus (mpmath's
    mag, a few bits above).

        I1 = (-2 s + (1 - s^2) L(s)) / q
        I2 = (4/3 - 2 s^2 + s (1 - s^2) L(s)) / q
        I3 = (g(s + q/2) - g(s - q/2)) / q^3,
        g(sigma) = 2 sigma^3 - (10/3) sigma + (1 - sigma^2)^2 L(sigma),

    with s = z/q and L(sigma) = log(sigma - 1) - log(sigma + 1) in mpmath's
    principal logarithms, whose log of a negative real is +i pi: on y = 0
    that is the limit y -> 0+. For Im sigma >= 0 the two arguments' angles
    differ by 0 to pi, so L(sigma) is the one principal logarithm of
    (sigma - 1)/(sigma + 1), or far out its series (_branch_log). That
    quotient is rounded to eps, so its log errs by eps absolute however
    small it is: a log term counts as two summands, |factor L| and |factor|,
    what the cancellation of the two logarithms costs at large |sigma|. At
    sigma = +-1 the log terms take their limit 0.
    """
    from mpmath import mp, mpc, mpf

    qm = mpf(q)
    s = mpc(x, y) / qm

    def scaled(terms: list, log_terms: list, scale) -> tuple:
        # (terms + each factor L of log_terms) / scale, and the mag of its
        # largest summand
        summands = terms + [factor * log for factor, log in log_terms]
        mags = [mp.mag(term) for term in summands] + [mp.mag(f) for f, _ in log_terms]
        return sum(summands) / scale, max(mags) - mp.mag(scale)

    u, log = _branch_log(s)
    i1, m1 = scaled([-2 * s], [(u, log)], qm)
    i2, m2 = scaled([mpf(4) / 3, -2 * s * s], [(s * u, log)], qm)
    terms, log_terms = [], []  # g(s + q/2) and -g(s - q/2)
    for sign, sigma in ((1, s + qm / 2), (-1, s - qm / 2)):
        u, log = _branch_log(sigma)
        # not sigma**3, which mpmath takes as exp(3 log sigma) at high precision
        terms += [sign * 2 * sigma * sigma * sigma, sign * -10 * sigma / 3]
        log_terms.append((sign * u * u, log))
    i3, m3 = scaled(terms, log_terms, qm**3)
    return (i1, i2, i3), (m1, m2, m3)


def _exact_parts(x: float, y: float, q: float) -> tuple:
    """((classic, quant), loss): the two parts at the context's precision,
    mpc values, and the digits their sum cancels, log10 of its largest
    summand over |total|, with |total| taken as at least 2^_EXACT_FLOOR_MAG.
    A total below eps of that summand counts as having lost every digit."""
    from mpmath import mp, mpc, mpf

    (i1, i2, i3), (m1, m2, m3) = _exact_integrals(x, y, q)
    qm = mpf(q)
    quant = 3 / qm * i2 + mpf(0.75) * i3
    peak = max(mp.mag(3 / qm) + m2, m3)
    if x == 0.0:
        classic, quant = mpc(0), mpc(quant.real)
    else:
        weight = 3 * mpf(x) / qm**2
        classic = -weight * i1
        peak = max(peak, mp.mag(weight) + m1)
    loss = peak - max(mp.mag(classic + quant), peak - mp.prec, _EXACT_FLOOR_MAG)
    return (classic, quant), loss * math.log10(2.0)


def chi_ratio_exact(point: DimensionlessPoint) -> ChiResult:
    """Susceptibility ratio from the closed forms at the digits the point needs.

    classic = -(3x/q^2) I1 and quant = (3/q) I2 + (3/4) I3, from the three
    antiderivatives in mpmath (_exact_integrals); on y = 0 the limit y -> 0+,
    poles inside [-1, 1] or on t = +-1 included, and at x = 0 classic is 0
    and quant real.

    The digits are measured, not set. An evaluation reports the digits its
    total cancels: log10 of its largest summand (a log term counted with its
    whole prefactor) over |total|, taken as at least 2^-1100, below which a
    double holds nothing. From 30 digits the precision doubles until the
    total keeps 10 digits beyond that loss, so that the loss is read off a
    value and not off rounding noise. A candidate is then evaluated at the
    loss plus 30 digits, and accepted only when an evaluation at twice its
    digits agrees with its total to 1e-20 relative; else that evaluation is
    the next candidate. The finer evaluation is returned, rounded to
    doubles, with err_est the modulus of its difference from the candidate
    in classic plus that in quant, plus half an ulp for each rounding to
    double of the real and imaginary parts of classic, quant and their sum.
    No argument sets a precision or a tolerance. A point far out needs
    thousands of digits and up to about a second.

    It shares none of the kernel's double-precision arithmetic, series or
    code, only the closed-form algebra that the kernel's closed-form branch
    also evaluates. It reports RegimeTag.QUADRATURE, as every oracle result
    does, and raises DomainError where a part or the total leaves the double
    range.
    """
    from mpmath import mp

    x, y, q = point.x, point.y, point.q
    # the loss, from the first evaluation whose total kept _EXACT_NOISE digits
    dps = _EXACT_FIRST_DPS
    while True:
        with mp.workdps(dps):
            _, loss = _exact_parts(x, y, q)
        if loss <= dps - _EXACT_NOISE:
            break
        dps *= 2
    # a candidate at the loss plus _EXACT_MARGIN, checked at twice its digits
    dps = math.ceil(loss) + _EXACT_MARGIN
    with mp.workdps(dps):
        candidate, _ = _exact_parts(x, y, q)
    while True:
        dps *= 2
        with mp.workdps(dps):
            (classic, quant), _ = _exact_parts(x, y, q)
            coarse_c, coarse_q = candidate
            total = classic + quant
            scale = max(abs(total), mp.ldexp(1, _EXACT_FLOOR_MAG))
            if abs(total - coarse_c - coarse_q) <= _EXACT_AGREEMENT * scale:
                difference = abs(classic - coarse_c) + abs(quant - coarse_q)
                break
        candidate = classic, quant
    return _double_result("chi_ratio_exact", complex(classic), complex(quant), float(difference))


def _double_result(name: str, classic: complex, quant: complex, bound: float) -> ChiResult:
    """An oracle's parts, rounded to doubles, as a QUADRATURE ChiResult with
    err_est the bound plus half an ulp for each rounding to double of the
    real and imaginary parts of classic, quant and their sum. Raises
    DomainError, naming the oracle, where a part or the total leaves the
    double range."""
    # halved after the sum: half of 2^-1074, the ulp of 0, rounds to 0
    parts = (part for value in (classic, quant, classic + quant) for part in (value.real, value.imag))
    rounding = sum(map(math.ulp, parts)) / 2
    try:
        return ChiResult.from_parts(classic, quant, RegimeTag.QUADRATURE, bound + rounding)
    except ValidationError as exc:
        raise DomainError(f"{name}: the result is beyond double-precision range ({exc})") from exc


# ---------------------------------------------------------------------------
# Kinetic-equation reconstruction
# ---------------------------------------------------------------------------


def _kinetic_integrands(x: float, y: float, q: float) -> tuple:
    """The integrands of the kinetic-equation form of the susceptibility.

    (occupation, shell, classic): functions of one float giving
    W(u)/(q u - z), t (1 - t^2)/(q t - z) and (1 - t^2)/(q t - z). The
    quantum contribution couples momentum states q apart, so u runs over
    [-1 - q/2, 1 + q/2] and W, the clamped shell-overlap difference of the
    two coupled states, is odd in u and zero for |u| > 1 + q/2; 1 - t^2 is
    the velocity-shell angular weight. Each divides by the resonance
    denominator y + i(q u - x) = i(q u - z), never zero for y > 0:
    1/(q u - z) = i / (y + i(q u - x)).
    """
    a = 0.5 * q

    def occupation(u: float) -> complex:
        lower = 1.0 - (u - a) ** 2
        upper = 1.0 - (u + a) ** 2
        plus = lower * lower if lower > 0.0 else 0.0
        minus = upper * upper if upper > 0.0 else 0.0
        return (plus - minus) * 1j / complex(y, q * u - x)

    def shell(t: float) -> complex:
        return t * (1.0 - t * t) * 1j / complex(y, q * t - x)

    def classic(t: float) -> complex:
        return (1.0 - t * t) * 1j / complex(y, q * t - x)

    return occupation, shell, classic


def _interior_breakpoints(x: float, y: float, q: float) -> list:
    """chi_from_kinetic's split points, near each resonance's projection onto
    the t axis.

    Its integrands peak within ~y/q of t = x/q (simple pole projection) and
    t = x/q -+ q/2 (the shifted pair); seeding splits at each center and
    center +- 5y/q inside (-1, 1) keeps the adaptive rules from straddling a
    spike.
    """
    s = x / q
    spread = 5.0 * y / q
    pts = set()
    for center in (s, s - 0.5 * q, s + 0.5 * q):
        for p in (center - spread, center, center + spread):
            if -1.0 < p < 1.0:
                pts.add(p)
    return sorted(pts)


def chi_from_kinetic(point: DimensionlessPoint) -> ChiResult:
    """Susceptibility ratio rebuilt from the kinetic-equation formulation.

    classic = -(3x/q^2) Int (1-t^2)/(q t - z) dt over [-1, 1]
    quant   = -(3/(4 q^2)) Int W(u)/(q u - z) du over [-1 - q/2, 1 + q/2]
              + (3/q) Int t (1-t^2)/(q t - z) dt over [-1, 1]

    with W the clamped shell-overlap difference. W has kinks at +-1 +- q/2,
    seeded as breakpoints. Independent of the kernel module's algebra; uses
    the package's own Gauss-Kronrod engine. Requires y > 0.

    For y >> q this oracle checks little: its two weighted quantum integrals
    are each about 4/(5 y^2) and cancel to an O(q^4/y^4) result. At
    (0, 0.1, 1e-3) they are 80 each, and the result is 1.6e-3 relative off
    the exact value, inside its err_est.
    """
    if point.y <= 0.0:
        raise DomainError("chi_from_kinetic requires y > 0")
    x, y, q = point.x, point.y, point.q
    a = 0.5 * q
    f_w, f_shell, f_classic = _kinetic_integrands(x, y, q)
    splits = _interior_breakpoints(x, y, q)
    w_breaks = [-1.0 + a, 1.0 - a] + splits
    v_w, e_w = integrate_complex_adaptive(f_w, -1.0 - a, 1.0 + a, w_breaks)
    v_s, e_s = integrate_complex_adaptive(f_shell, -1.0, 1.0, splits)
    quant = -3.0 / (4.0 * q * q) * v_w + 3.0 / q * v_s
    err = 3.0 / (4.0 * q * q) * e_w + 3.0 / q * e_s
    if x == 0.0:
        classic = complex(0.0)
    else:
        v_c, e_c = integrate_complex_adaptive(f_classic, -1.0, 1.0, splits)
        classic = -3.0 * x / (q * q) * v_c
        err += 3.0 * x / (q * q) * e_c
    return ChiResult.from_parts(classic, quant, RegimeTag.QUADRATURE, err)


# ---------------------------------------------------------------------------
# Fermi-surface velocity moments via nascent deltas
# ---------------------------------------------------------------------------


def _nascent_delta(width: float) -> tuple:
    """The Gaussian nascent delta of an energy width > 0 and its first and
    second derivatives, as functions of one float.

    As width -> 0 these tend to the Dirac delta and its distributional
    derivatives. The even-moment structure of the Gaussian makes observables
    computed with them polynomial in width^2, which is what the Richardson
    step exploits.
    """
    norm = width * math.sqrt(2.0 * math.pi)
    s2 = width * width

    def delta(e: float) -> float:
        return math.exp(-0.5 * (e / width) ** 2) / norm

    def first_derivative(e: float) -> float:
        return -e / s2 * delta(e)

    def second_derivative(e: float) -> float:
        return (e * e / s2 - 1.0) / s2 * delta(e)

    return delta, first_derivative, second_derivative


def richardson_extrapolate(h_values, values) -> tuple:
    """Polynomial extrapolation of values(h) to h = 0 (Neville scheme).

    h_values must be positive and strictly decreasing; the tableau uses every
    sample. Returns (limit, err_est) where err_est combines the last
    order-increase and sample-shift corrections.
    """
    hs = [float(h) for h in h_values]
    vs = list(values)
    if len(hs) != len(vs) or len(hs) < 2:
        raise ExtrapolationError("need at least two (h, value) samples")
    if any(h <= 0 for h in hs) or any(b >= a for a, b in zip(hs, hs[1:])):
        raise ExtrapolationError("h values must be positive and strictly decreasing")
    n = len(hs)
    tableau = [vs]
    for j in range(1, n):
        prev = tableau[j - 1]
        row = []
        for i in range(j, n):
            num = hs[i] * prev[i - j] - hs[i - j] * prev[i - j + 1]
            row.append(num / (hs[i] - hs[i - j]))
        tableau.append(row)
    # the last row holds the limit alone; the row above, its two neighbours
    (limit,) = tableau[-1]
    err_est = abs(limit - tableau[-2][-1]) + abs(limit - tableau[-2][0])
    if not math.isfinite(limit):
        raise ExtrapolationError("extrapolation diverged")
    return limit, err_est


class JIntegrals(FrozenRecord):
    """The two Fermi-surface velocity moments and their width-0 error bars.

    In units where the electron mass, Fermi speed, and Fermi energy scale
    drop out, both moments equal 4 pi and their Landau combination
    j1 - 3 j2 equals -8 pi.
    """

    _fields = ("j1", "j2", "j1_err_est", "j2_err_est")

    @property
    def landau_combination(self) -> float:
        return self.j1 - 3.0 * self.j2


# Nascent-delta widths in units of E_F, descending; the Richardson
# extrapolation in width^2 uses all of them.
_DELTA_WIDTHS = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
# Quadrature tolerances of the moment integrals: the rounding floor of their
# cancelling delta-derivative lobes at the narrowest width.
_MOMENT_TOL = 1e-8


def j_integrals_nascent_delta() -> JIntegrals:
    """Velocity moments of the Fermi-surface delta derivatives.

        j1 = (4 pi / 15) Int v^6 delta''(E_F - E(v)) dv
        j2 = (4 pi / 3)  Int v^4 delta'(E_F - E(v)) dv,   E(v) = v^2/2, E_F = 1/2

    Each moment is evaluated with Gaussian nascent deltas at every width in
    _DELTA_WIDTHS (in units of E_F) and Richardson-extrapolated in width^2
    to the sharp-surface limit. delta' is odd and delta'' is even,
    so the argument swap E_F - E only flips the sign of the first derivative.

    The delta-derivative integrands carry ~1/width^2 total variation whose
    lobes cancel, so quadrature tolerances below ~1e-8 sit under the double
    precision rounding floor at the narrowest width; the integrals run at
    _MOMENT_TOL. The extrapolated limits land near 1e-7 of the exact
    values, far inside the 1e-4 verification bar.
    """
    e_f = 0.5
    widths = [w * e_f for w in _DELTA_WIDTHS]

    def moments_at(width: float) -> tuple:
        _, first_derivative, second_derivative = _nascent_delta(width)
        v_lo = math.sqrt(max(0.0, 1.0 - 28.0 * width))
        v_hi = math.sqrt(1.0 + 28.0 * width)

        def f1(v: float) -> complex:
            return complex(v**6 * second_derivative(0.5 * v * v - e_f))

        def f2(v: float) -> complex:
            return complex(-(v**4) * first_derivative(0.5 * v * v - e_f))

        breaks = [1.0]
        v1, _ = integrate_complex_adaptive(
            f1, v_lo, v_hi, breaks, abs_tol=_MOMENT_TOL, rel_tol=_MOMENT_TOL
        )
        v2, _ = integrate_complex_adaptive(
            f2, v_lo, v_hi, breaks, abs_tol=_MOMENT_TOL, rel_tol=_MOMENT_TOL
        )
        return (
            4.0 * math.pi / 15.0 * v1.real,
            4.0 * math.pi / 3.0 * v2.real,
        )

    samples = [moments_at(w) for w in widths]
    h = [w * w for w in widths]
    j1, j1_err = richardson_extrapolate(h, [s[0] for s in samples])
    j2, j2_err = richardson_extrapolate(h, [s[1] for s in samples])
    return JIntegrals(j1=j1, j2=j2, j1_err_est=j1_err, j2_err_est=j2_err)

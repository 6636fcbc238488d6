"""Independent numerical checks of the closed-form susceptibility kernel.

Everything here recomputes physics independently of the kernel module's
numerics, all but the exact reference from a more primitive formulation:

  * chi_ratio_quadrature integrates the classical integral and the quantum
    part, the latter as one integrand Q whose terms do not cancel, with
    high-precision arithmetic, never touching the kernel's branch-logarithm
    algebra: one tanh-sinh pass (mpmath's standard nodes, rebuilt here on
    integers; each integral judged by its own relative error estimate) over
    shared nodes along the lower unit semicircle from -1 through -i to 1,
    one smooth arc that passes below every pole, so the integrands stay
    bounded and no split points are needed (at x = 0 the half v >= 0 of the
    arc suffices); the nodes, the integrands and the assembly of the parts
    all run on Python ints at the pass's precision, without mpmath;
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
# The node schedule (_tanh_sinh) drops the nodes v within tol = 2^-(prec+10)
# of an end v = +-1. A pass's last level sums the weights w(v) = (pi/2)
# cosh(r)/cosh(g)^2, v = tanh(g), g = (pi/2) sinh(r), over a grid in r of step
# h = 2^-degree, and w <= pi cosh(r) (1 - v), since cosh(g)^-2 = (1 - v)(1 +
# v). The weight it drops beyond an end is then at most h w(r_c) + (the
# integral of w beyond r_c) <= (1 + h pi cosh(r_c)) tol, r_c the first dropped
# grid point, whose neighbour r_c - h is kept, so that pi sinh(r_c - h) <
# ln(2/tol); that is below (1 + h e^h (pi + ln(2/tol))) tol. From degree 4
# (_FIRST_STOP_DEGREE) on, this is 4.95 tol at 20 digits and 24.9 tol at 150
# (_MAX_DPS); measured over every such degree and precision, the dropped
# weight reaches 16.7 tol (143 digits, degree 4), and 1.4 tol at 20 digits.
# |dt/dv| = pi/2, so the two ends leave out at most 24.9 pi tol times the
# integrand's peak near an end, below 2^-(prec+5) (_NODE_TAIL_BITS) of that
# peak times the path length pi. "Near" means within _END_REACH: the dropped
# nodes lie within (pi/2) tol of an end in t, tol is largest at the first
# pass, and _END_REACH is twice that.
_NODE_TAIL_BITS = 5
_END_REACH = math.pi * 2.0 ** -(_dps_to_prec(_FIRST_DPS) + 10)
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
    last level as a pair of reals (re, im), each part rounded to nearest at
    the guard width (_nearest), and its estimate times a bound on the levels'
    moduli, a real, (0, 0) where every level is 0.
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
        (
            (_nearest(re, exp, width), _nearest(im, exp, width)),
            (0, 0) if top is None else (1, top + 1 + rel),
        )
        for (re, im, exp), (rel, top) in zip(levels[-1], errors)
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
# Real binary numbers, rounded as mpmath rounds them
# ---------------------------------------------------------------------------
# A real is (m, e), Python ints meaning m 2^e. Each operation below computes
# its result exactly on the integers and rounds it once, to nearest with ties
# to even, at `bits` bits: mpmath's arithmetic in its default rounding, bit
# for bit. The pass's assembly (_quadrature_raw) and the node schedule
# (_tanh_sinh) take every step that they took in mpmath numbers, at the same
# precisions, so that their results are mpmath's.


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


def _mul(a: tuple, b: tuple, bits: int) -> tuple:
    return _nearest(a[0] * b[0], a[1] + b[1], bits)


def _div(a: tuple, b: tuple, bits: int) -> tuple:
    """a/b, b nonzero: bits + 2 bits of the quotient of the magnitudes and a
    sticky bit below them, which is nonzero for a remainder, rounded."""
    (am, ae), (bm, be) = a, b
    k = max(0, bits + 2 + bm.bit_length() - am.bit_length())
    quotient, remainder = divmod(abs(am) << k, abs(bm))
    quotient = quotient << 1 | (remainder != 0)
    return _nearest(-quotient if (am < 0) != (bm < 0) else quotient, ae - be - k - 1, bits)


def _add(a: tuple, b: tuple, bits: int) -> tuple:
    (am, ae), (bm, be) = a, b
    e = min(ae, be)
    return _nearest((am << (ae - e)) + (bm << (be - e)), e, bits)


def _le(a: tuple, b: tuple) -> bool:
    (am, ae), (bm, be) = a, b
    e = min(ae, be)
    return am << (ae - e) <= bm << (be - e)


def _modulus(re: tuple, im: tuple, bits: int) -> tuple:
    """|re + i im| as mpmath's hypot takes it: a zero part leaves the other's
    modulus rounded; else the exact sum of squares is truncated to bits + 4
    bits and its square root rounded to nearest, from bits + 2 bits of it
    and a sticky bit, which is nonzero where the root is inexact."""
    if not im[0] or not re[0]:
        m, e = im if not re[0] else re
        return _nearest(abs(m), e, bits)
    (a, ae), (b, be) = re, im
    e = min(ae, be)
    a, b = a << (ae - e), b << (be - e)
    m, e = a * a + b * b, 2 * e
    n = m.bit_length() - (bits + 4)
    if n > 0:
        m >>= n
        e += n
    if e & 1:
        m <<= 1
        e -= 1
    shift = max(0, 2 * bits + 4 - m.bit_length())
    shift += shift & 1
    root = math.isqrt(m << shift)
    return _nearest(root << 1 | (root * root != m << shift), (e - shift) // 2 - 1, bits)


def _to_float(a: tuple) -> float:
    """A real as a double, as mpmath's to_float rounds it: to 53 bits, ties to
    even, then scaled, so that a subnormal result is rounded once more, and
    +-inf beyond the double range."""
    m, e = _nearest(*a, 53)
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.copysign(math.inf, m)


def _ceil_log10(a: tuple) -> int:
    """The least integer k >= 0 with 10^k >= a, for a real a >= 1: mpmath's
    ceil(log10(a)), taken exactly. mpmath rounds the logarithm first, so the
    two could differ only for an a a few units in its last place above a
    power of ten."""
    m, e = a
    num, den = (m, 1 << -e) if e < 0 else (m << e, 1)
    k = int((m.bit_length() + e - 1) * 0.30102999)  # 10^k <= 2^(bit length - 1) <= a
    while 10**k * den < num:
        k += 1
    return k


# ---------------------------------------------------------------------------
# The tanh-sinh nodes on integers
# ---------------------------------------------------------------------------
# The node schedule is mpmath's TanhSinh.calc_nodes (Bailey, Jeyabalan and Li,
# Exp. Math. 14, 2005), step by step at its precision prec + 40, and the
# elementary functions it calls are computed here in fixed point with
# _FUNCTION_GUARD bits more, each within a small fraction of a unit of the
# nodes' last place of its value, and then rounded to nearest. mpmath's own
# exp and cos/sin are not always correctly rounded, so a node here may differ
# from mpmath's in its last place; the tables that _fixed_nodes builds from
# them, rounded at prec + 20 bits, are mpmath's, bit for bit, at every degree
# up to _guess_degree(prec) of every working precision from _FIRST_DPS to
# _MAX_DPS digits (compared one by one).
_FUNCTION_GUARD = 40

# floor(pi 2^bits) and floor(ln(2) 2^bits), but for the last unit or two, per
# bits: one entry per working precision, at its nodes' bits + _FUNCTION_GUARD
# + 10.
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


def _exp(x: tuple, bits: int) -> tuple:
    """exp(x) of a real x >= 0 below 2^10, rounded to nearest at bits: x =
    n ln 2 + r, |r| <= ln(2)/2, and exp(r) from its Taylor series at r/2^8,
    squared eight times."""
    m, e = x
    f = bits + _FUNCTION_GUARD
    ln2 = _constants(f + 10)[1]
    scaled = m << (e + f + 10)  # x at f + 10 fraction bits, exact: x > 2^-40 has bits bits
    n = (scaled + (ln2 >> 1)) // ln2
    r = (scaled - n * ln2) >> 18  # r/2^8 at f bits
    one = 1 << f
    total = term = one
    k = 1
    while term:
        term = (term * r >> f) // k
        total += term
        k += 1
    for _ in range(8):
        total = total * total >> f
    return _nearest(total, n - f, bits)


def _cos_sin_half_pi(v: tuple, bits: int) -> tuple:
    """cos and sin of pi v/2 for a real 0 <= v < 1, each rounded to nearest
    at bits. With r = v, or r = 1 - v from v = 1/2 on (cos and sin then
    swap), theta = (pi/2) r <= pi/4; cos theta and sin(theta)/theta come from
    their Taylor series in theta^2, and sin theta = r (pi/2) sin(theta)/theta
    keeps its relative accuracy however small r is."""
    m, e = v
    swap = 2 * m >= 1 << -e
    if swap:
        m = (1 << -e) - m  # 1 - v, exact
    if not m:
        return (1, 0), (0, 0)
    f = bits + _FUNCTION_GUARD
    half_pi = _constants(f + 10)[0] >> 11  # pi/2 at f bits
    theta = m * half_pi >> -e
    theta2 = theta * theta >> f
    one = 1 << f
    cos = sinc = term = one  # sinc: sin(theta)/theta
    k = 1
    while term:
        term = (term * theta2 >> f) // (2 * k * (2 * k - 1))
        cos += -term if k & 1 else term
        sinc += -(term // (2 * k + 1)) if k & 1 else term // (2 * k + 1)
        k += 1
    cos = _nearest(cos, -f, bits)
    sin = _nearest(m * (half_pi * sinc >> f), e - f, bits)
    return (sin, cos) if swap else (cos, sin)


def _tanh_sinh(degree: int, prec: int) -> list:
    """The standard tanh-sinh nodes v >= 0 on [-1, 1] of one degree and their
    weights w, each a real: mpmath's TanhSinh.calc_nodes(degree, prec),
    every step rounded to nearest at its precision prec + 40.

    With t_k = t0 + k h, v_k = tanh(g_k) and w_k = (pi/2) cosh(t_k)/
    cosh(g_k)^2, g_k = (pi/2) sinh(t_k). Degree 1 holds v = 0 with weight
    pi/2 and t_k = 2^-1 (k + 1); degree d >= 2 the odd multiples of 2^-d,
    t_k = 2^-d (2k + 1). exp(g_k) = exp(a_k - b_k), with a_k = (pi/4) e^t_k
    and b_k = (pi/4) e^-t_k carried by multiplying by e^h and e^-h, gives
    v_k and w_k. The nodes stop at the first k with 1 - v_k <= 2^-(prec+10).
    The weight of v_k serves -v_k too.
    """
    bits = prec + 40
    f = bits + _FUNCTION_GUARD + 10
    pi = _nearest(_constants(f)[0], -f, bits)
    pi4 = pi[0], pi[1] - 2
    nodes = []
    t0 = (1, -degree)
    if degree == 1:
        nodes.append(((0, 0), (pi[0], pi[1] - 1)))
        h = t0
    else:
        h = (1, 1 - degree)
    expt0 = _exp(t0, bits)
    a, b = _mul(pi4, expt0, bits), _div(pi4, expt0, bits)
    up = _exp(h, bits)
    down = _div((1, 0), up, bits)
    tol = -(prec + 10)
    while True:
        c = _exp(_add(a, (-b[0], b[1]), bits), bits)
        d = _div((1, 0), c, bits)
        co, si = _add(c, d, bits), _add(c, (-d[0], d[1]), bits)
        co, si = (co[0], co[1] - 1), (si[0], si[1] - 1)  # halved, exactly
        vm, ve = _div(si, co, bits)
        # stop where 1 - v <= 2^tol, exactly; 0 < v <= 1, so ve <= 0
        if _le(((1 << -ve) - vm, ve), (1, tol)):
            return nodes
        nodes.append(((vm, ve), _div(_add(a, b, bits), _mul(co, co, bits), bits)))
        a, b = _mul(a, up, bits), _mul(b, down, bits)


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
# whole table and the folded one.
_FIXED_NODES: dict = {}


def _fixed_nodes(degree: int, prec: int, fold: bool) -> list:
    """t, 1 - t^2 and the weight at width prec + 20, per node of the arc.

    The arc is t = -i e^(i pi v/2) = sin(pi v/2) - i cos(pi v/2) over the
    standard nodes v, w on [-1, 1] of _tanh_sinh(degree, prec), and the
    weight of a node is w dt/dv = w (pi/2) i t. cos and sin of pi v/2 are
    computed once per node v >= 0, rounded at prec + 40 bits as the standard
    nodes are (_cos_sin_half_pi); t is rounded from them, 1 - t^2 is exact
    from the rounded t before it is rounded, and the weight is the exact
    product w (pi/2) (cos + i sin) of those prec + 40 bit numbers, pi/2
    rounded down, rounded. The node at -v is the mirror of the node at v:
    t(-v) = -conj t(v), so 1 - t^2 and the weight conjugate, and its entries
    are those of v with signs changed, exactly. With fold, the table holds
    the nodes v >= 0 alone, the centre v = 0 (t = -i, its own mirror; degree
    1 only) at half its weight, so that twice the real part of its sum is the
    whole table's sum wherever the integrand's value at -v is the conjugate
    of its value at v (at x = 0, see _contour_sums).
    Both tables are built in one loop over the standard nodes and kept;
    nothing about a point is stored.
    """
    tables = _FIXED_NODES.get((degree, prec))
    if tables is None:
        width = prec + _GUARD_BITS
        wide = prec + 40  # the standard nodes' precision
        f = wide + _FUNCTION_GUARD + 10
        hm, he = _constants(f)[0] >> (f - wide + 2), 1 - wide  # pi/2, rounded down
        whole, half = [], []
        for (vm, ve), (wm, we) in _tanh_sinh(degree, prec):
            # cos and sin of pi v/2, exact at one exponent, and t = sin - i cos
            cr, ci, ce = _fixed(*_cos_sin_half_pi((vm, ve), wide))
            tr, ti, te = _rounded(ci, -cr, ce, width)
            # |t| <= 1, so te <= 0 and 1 = 2^(-2 te) 2^(2 te)
            ur, ui, ue = _rounded((1 << -2 * te) - tr * tr + ti * ti, -2 * tr * ti, 2 * te, width)
            # the weight w (pi/2) (cos + i sin), exact and then rounded
            cr, ci, ce = _rounded(wm * hm * cr, wm * hm * ci, we + he + ce, width)
            node = (tr, ti, te, ur, ui, ue, cr, ci, ce)
            if not vm:  # the centre
                whole.append(node)
                half.append((tr, ti, te, ur, ui, ue, cr, ci, ce - 1))
            else:
                whole += [node, (-tr, ti, te, ur, -ui, ue, cr, -ci, ce)]
                half.append(node)
        tables = _FIXED_NODES[degree, prec] = whole, half
    return tables[1] if fold else tables[0]


def _contour_sums(x: float, y: float, q: float):
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
        # the running exact sums of Q and I1, each at the smallest exponent
        # of its terms so far; a zero sum starts above every term
        sqr = sqi = s1r = s1i = 0
        sqe = s1e = _NO_TERMS
        # per node: c the weight, w = q t - z, a = u/w, d = w^2 - q^4/4, f = a^2/d
        for tr, ti, te, ur, ui, ue, cr, ci, ce in _fixed_nodes(degree, prec, not x):
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
            # add c f and, for x != 0, c a to the sums, exactly (at x = 0
            # only Q's real part)
            k = ce + fe - sqe
            if k < 0:
                sqr <<= -k
                sqi <<= -k
                sqe += k
                k = 0
            sqr += cr * fr - ci * fi << k
            if x:
                sqi += cr * fi + ci * fr << k
                k = ce + ae - s1e
                if k < 0:
                    s1r <<= -k
                    s1i <<= -k
                    s1e += k
                    k = 0
                s1r += cr * ar - ci * ai << k
                s1i += cr * ai + ci * ar << k
        if not x:  # twice the folded sum's real part, times q^4
            return [(sqr * km, 0, sqe + ke + 3)]
        return [(sqr * km, sqi * km, sqe + ke + 2), (s1r, s1i, s1e)]  # Q's times q^4

    return level_sums


def _log2(value: float) -> float:
    return math.log2(value) if value else -math.inf


def _peak_log2(x: float, y: float, q: float) -> tuple:
    """log2 of bounds on |Q's integrand| and on |I1's|, each as (on the whole
    path, within _END_REACH of an end).

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
    U/ds and R(s), over q. On the whole path U = 2. Within r = _END_REACH of
    an end e, U = 2r, as |u| <= 2 |t - e|, and each d_p is also at least
    |p - e| - r. Each bound is summed in logarithms of doubles, so no product
    leaves the double range; a bound on a pole on the path is +inf in
    logarithms.
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
        ds, dp, dm = (_log2(d) for d in distances)
        pair = max(dp + dm, lh + min(dp, dm))  # log2 D
        peak_q = min(2.0 * lu - 2.0 * ds - pair, 2.0 * rs - pair, r_pair - lh - 2.0 * ds, partial)
        return peak_q, min(lu - ds, rs) - lq

    near = [_path_distance(p) for p in poles]
    lu = math.log2(2.0 * _END_REACH)
    ends = [
        bounds([max(d, abs(p - e) - _END_REACH) for p, d in zip(poles, near)], lu)
        for e in (1.0, -1.0)
    ]
    return tuple((whole, max(end)) for whole, *end in zip(bounds(near, 1.0), *ends))


def _tail_noise(bounds: tuple, prec: int):
    """The rounding allowance of an integral at prec bits, a real, None
    (infinite) for a pole on the path, from its bounds (peak, end) of
    _peak_log2: 2^-(prec+10) (_NOISE_BITS) of the integrand's peak 2^peak on
    the path for the integer arithmetic, and 2^-(prec+5) (_NODE_TAIL_BITS) of
    its peak 2^end near an end for the node tails that the schedule drops
    there, each times the path length pi, their sum rounded at prec bits."""
    peak, end = bounds
    if peak == math.inf:
        return None

    def scaled(value: float, bits: int) -> tuple:
        # the double pi 2^(value - floor(value)), scaled exactly to 2^-(prec+bits) of pi 2^value
        m, e = _parts(_PATH_LENGTH * 2.0 ** (value - math.floor(value)))
        return m, e + math.floor(value) - prec - bits

    return _add(scaled(peak, _NOISE_BITS), scaled(end, _NODE_TAIL_BITS), prec)


def _part_bound(weight, error, noise, value, out_eps, width: int):
    """weight (error + noise) + out_eps |value|, reals rounded at width bits
    step by step; None (infinite) where the noise is."""
    if noise is None:
        return None
    scaled = _mul(weight, _add(error, noise, width), width)
    return _add(scaled, _mul(out_eps, _modulus(*value, width), width), width)


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
    relative (or 150 digits are reached). err_est is each integral's own
    relative error estimate times its size, plus the predicted rounding
    bound, plus half an ulp for each rounding to double of the parts and
    their sum. Serves every accepted point whose parts fit in a double, and
    raises DomainError elsewhere, as chi_ratio and chi_ratio_exact do;
    _quadrature_raw also takes x < 0. An oracle: slow, independent, trusted.
    Python integers carry all of it: it needs no mpmath.
    """
    return _quadrature_raw(point.x, point.y, point.q)


def _quadrature_raw(x: float, y: float, q: float) -> ChiResult:
    """Quadrature along the arc at the fewest working digits the point needs.

    One _path_quad pass per working precision yields Q and, for x != 0, I1.
    At x = 0 the pass walks half the nodes: Q's integrand and the weights
    conjugate under v -> -v, so _contour_sums folds each pair into twice its
    real part, and Q's imaginary part is exactly 0. The integrands come from
    _contour_sums, in fixed-width integer complex arithmetic 20 bits above
    the working precision that rounds every result once, to nearest; the
    pass's totals become reals at that guard width, and classic, quant and
    their bounds are assembled there, every step rounded to nearest with
    ties to even (_nearest and the operations after it), as the same steps
    round in mpmath numbers: each returned double is the one that assembly
    gives, and the tests hold the two to each other bit for bit. Each pass
    bounds its own rounding noise: 10^-dps 2^-20 of each assembled part
    (about 12 units in the last place at the guard width: the assembly's few
    roundings and a margin); 2^-(prec+10) (about 10^-(dps+3)) of each
    integrand's peak on the path times the path length pi for the sums
    inside the pass, 2^10 times the scale of the integer arithmetic's
    rounding; and 2^-(prec+5) of each integrand's peak within _END_REACH of
    an end times pi for the node tails that the schedule drops there
    (_NODE_TAIL_BITS). The peaks come from _peak_log2, the allowance from
    _tail_noise. Noise plus each integral's error estimate must stay within
    _TARGET_REL of |classic|, |quant| and |total|; a pass that misses by a
    factor E is redone at dps + ceil(log10 E) + 2 digits (twice the digits
    when a part is exactly 0 or a pole lies on the path), up to _MAX_DPS,
    where the value is returned with the whole bound as err_est. err_est
    also counts half an ulp for the rounding to double of each real and
    imaginary part of classic and quant and of their double sum.
    """
    level_sums = _contour_sums(x, y, q)
    peak_q, peak_1 = _peak_log2(x, y, q)
    (xm, xe), (qm, qe) = _parts(x), _parts(q)
    quant_factor, target = _parts(_QUANT_FACTOR), _parts(_TARGET_REL)
    dps = _FIRST_DPS
    while True:
        prec = _dps_to_prec(dps)
        width = prec + _GUARD_BITS
        (vq, eq), *classical = _path_quad(level_sums, prec)
        out_eps = _parts(10.0**-dps * 2.0**-_GUARD_BITS)
        if x == 0.0:
            classic, bound_c = ((0, 0), (0, 0)), (0, 0)
        else:
            ((v1, e1),) = classical
            weight = _div((-3 * xm, xe), _mul((qm, qe), (qm, qe), width), width)  # -3x/q^2
            classic = tuple(_mul(weight, part, width) for part in v1)
            noise = _tail_noise(peak_1, prec)
            bound_c = _part_bound((abs(weight[0]), weight[1]), e1, noise, classic, out_eps, width)
        quant = tuple(_mul(quant_factor, part, width) for part in vq)
        noise = _tail_noise(peak_q, prec)
        bound_q = _part_bound(quant_factor, eq, noise, quant, out_eps, width)
        whole = None if bound_c is None or bound_q is None else _add(bound_c, bound_q, width)
        total = tuple(_add(c, u, width) for c, u in zip(classic, quant))
        checks = [
            (b, _mul(target, _modulus(*value, width), width))
            for b, value in ((bound_c, classic), (bound_q, quant), (whole, total))
        ]
        misses = [(b, limit) for b, limit in checks if b is None or not _le(b, limit)]
        if dps == _MAX_DPS or not misses:
            return _double_result(
                "chi_ratio_quadrature",
                complex(*map(_to_float, classic)),
                complex(*map(_to_float, quant)),
                math.inf if whole is None else _to_float(whole),
            )
        if any(b is None or not limit[0] for b, limit in misses):
            step = dps
        else:
            step = max(_ceil_log10(_div(b, limit, width)) for b, limit in misses) + 2
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

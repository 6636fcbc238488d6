"""Independent numerical checks of the closed-form susceptibility kernel.

Everything here recomputes physics from a more primitive formulation than
the kernel module uses, on purpose:

  * chi_ratio_quadrature integrates the three angular integrals directly
    with high-precision arithmetic, never touching the kernel's
    branch-logarithm algebra: one tanh-sinh pass (mpmath's nodes and error
    estimate) over shared nodes along the polyline -1 -> -i -> 1, which
    passes below every pole, so the integrands stay bounded and no split
    points are needed; the integrands are evaluated in fixed-width complex
    arithmetic on Python ints at the pass's precision;
  * chi_from_kinetic rebuilds the ratio from the kinetic-equation form, a
    velocity-shell occupation difference against a shifted resonance
    denominator, using the package's own adaptive Gauss-Kronrod engine;
  * chi_quant_smallk evaluates the long-wavelength limit of the quantum
    part from resonance-denominator moments, which reduces at zero
    frequency to a polynomial whose integral is exactly 1;
  * j_integrals_nascent_delta computes the two Fermi-surface velocity
    moments behind the Landau normalization by replacing the surface-delta
    derivatives with nascent Gaussians and extrapolating the width to zero.

Agreement between these and the kernel is what the verification suite (and
the CLI verify command) asserts.
"""

from __future__ import annotations

import math

from mpmath import mp, mpc, mpf
from mpmath.calculus.quadrature import TanhSinh

from .core import ChiResult, DimensionlessPoint, FrozenRecord, RegimeTag
from .errors import DomainError, ExtrapolationError, ValidationError
from .quadrature import integrate_complex_adaptive

__all__ = [
    "KineticIntegrand",
    "JIntegrals",
    "NascentDelta",
    "chi_ratio_quadrature",
    "chi_from_kinetic",
    "chi_quant_smallk",
    "j_integrals_nascent_delta",
    "richardson_extrapolate",
]


# ---------------------------------------------------------------------------
# Direct quadrature of the angular integrals (mpmath)
# ---------------------------------------------------------------------------


def _interior_breakpoints(x: float, y: float, q: float) -> list:
    """Split points near each resonance's projection onto the t axis.

    The integrands peak within ~y/q of t = x/q (simple pole projection) and
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


# The contour in t: every pole has Im t = y/q > 0, so the polyline through
# the lower half plane gives the integrals over [-1, 1] (Cauchy's theorem).
_PATH = (-1, -1j, 1)
_PATH_LENGTH = 2.0 * math.sqrt(2.0)
_TANH_SINH = TanhSinh(mp)
# mp.quad may stop at degree 2. At degree 3 its estimate still leans on the
# coarse degree-1 sum and can be far too small: at (0, 4.9e-3, 156) it read
# 1e-23 against a true error of 5e-16 of |I2|. From degree 4 on it held.
_FIRST_STOP_DEGREE = 4

# Working digits of the first quadrature pass, and the most any point gets.
_FIRST_DPS = 20
_MAX_DPS = 150
# Each part and their sum must be known to this relative accuracy.
_TARGET_REL = 1e-16
# TanhSinh drops the nodes within 2^-(prec+10) of a segment end. The
# integrands vanish at t = +-1 but not at the corner t = -i, where each
# segment leaves out up to about twice |f| |C| 2^-(prec+10), |C| = sqrt(2)/2
# its half-length; the path length times that bounds both corner ends. The
# integrand arithmetic and the sums run _GUARD_BITS above the working
# precision, so their rounding is about a thousand times smaller (see
# _contour_sums).
_NODE_TAIL_BITS = 10
_GUARD_BITS = 20


def _path_distance(c: complex, q: float) -> float:
    """Distance from c to the contour in g = q t, the polyline -q -> -iq -> q."""
    corners = [q * complex(t) for t in _PATH]
    best = math.inf
    for a, b in zip(corners, corners[1:]):
        ab = b - a
        u = ((c - a) * ab.conjugate()).real / abs(ab) ** 2
        best = min(best, abs(c - (a + min(max(u, 0.0), 1.0) * ab)))
    return best


def _path_quad(level_sums) -> list:
    """Integrals of every component of an integrand along _PATH, in one pass.

    This is mp.quad's loop (QuadratureRule.summation with TanhSinh.sum_next)
    for a vector integrand. level_sums(a, b, degree, prec) returns, per
    component, the sum of weight * f(t) over the nodes that
    _TANH_SINH.get_nodes(a, b, degree, prec) gives, as an mpc at the pass's
    precision; every component keeps its own sequence of level sums and
    error estimate. A segment stops at the first degree from
    _FIRST_STOP_DEGREE on where every component's estimate meets mp.quad's
    epsilon, eps/8 at the working precision; the sums run _GUARD_BITS above
    it. With mp.fdot level sums of a one-component integrand f and
    _FIRST_STOP_DEGREE = 2 it returns exactly what
    mp.quad(f, _PATH, error=True) does. Returns [(value, error), ...].
    """
    prec = mp.prec
    epsilon = mp.eps / 8
    max_degree = _TANH_SINH.guess_degree(prec)
    segments = []
    with mp.extraprec(_GUARD_BITS):
        for a, b in zip(_PATH, _PATH[1:]):
            levels = []  # per degree, the level sum of every component
            for degree in range(1, max_degree + 1):
                sums = level_sums(a, b, degree, prec)
                h = mpf(2) ** (-degree)
                previous = levels[-1] if levels else [mp.zero] * len(sums)
                levels.append([h * (prev / (h * 2) + s) for prev, s in zip(previous, sums)])
                if degree == 1:
                    continue
                errs = [_TANH_SINH.estimate_error(r, prec, epsilon) for r in zip(*levels)]
                if degree >= _FIRST_STOP_DEGREE and max(errs) <= epsilon:
                    break
            segments.append((levels[-1], errs))
        (v_a, e_a), (v_b, e_b) = segments
        totals = [u + v for u, v in zip(v_a, v_b)]
        errors = [d + e for d, e in zip(e_a, e_b)]
    return [(+v, e) for v, e in zip(totals, errors)]


# ---------------------------------------------------------------------------
# Fixed-width complex arithmetic for the contour integrands
# ---------------------------------------------------------------------------
# A value is (re, im, exp), Python ints meaning (re + i im) 2^exp: both parts
# share the exponent. An operation computes its result exactly on the
# integers and rounds it once, to nearest, so that the larger part keeps at
# most `width` bits (a carry may add one). The error is at most half a unit
# in the last place of each part: sqrt(2) 2^-width of the result's modulus.


def _rounded(re: int, im: int, exp: int, width: int) -> tuple:
    """(re + i im) 2^exp rounded to nearest at width bits."""
    excess = max(re.bit_length(), im.bit_length()) - width
    if excess <= 0:
        return re, im, exp
    half = 1 << (excess - 1)
    return (re + half) >> excess, (im + half) >> excess, exp + excess


def _quotient(ar: int, ai: int, ae: int, br: int, bi: int, be: int, width: int) -> tuple:
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
    return (2 * nr + den) // twice, (2 * ni + den) // twice, ae - be - shift


def _difference(ar: int, ai: int, ae: int, br: int, bi: int, be: int, width: int) -> tuple:
    """a - b, exact at the smaller exponent, then rounded to nearest at width bits."""
    if ae >= be:
        return _rounded((ar << (ae - be)) - br, (ai << (ae - be)) - bi, be, width)
    return _rounded(ar - (br << (be - ae)), ai - (bi << (be - ae)), ae, width)


def _exact_sum(values) -> tuple:
    """The exact sum of values, at the smallest exponent among them."""
    exp = min(e for _, _, e in values)
    return (
        sum(re << (e - exp) for re, _, e in values),
        sum(im << (e - exp) for _, im, e in values),
        exp,
    )


def _parts(value) -> tuple:
    """A float or an mpf as an exact (mantissa, exponent) pair of ints."""
    if isinstance(value, float):
        m, e = math.frexp(value)
        return int(m * 2.0**53), e - 53
    m, e = value.man_exp  # the modulus's mantissa
    return -int(m) if value < 0 else int(m), int(e)


def _fixed(re, im) -> tuple:
    """re + i im, each a float or an mpf, as an exact value."""
    (mr, er), (mi, ei) = _parts(re), _parts(im)
    # a zero part takes the other's exponent, so that it cannot set the shared one
    er, ei = (er if mr else ei), (ei if mi else er)
    exp = min(er, ei)
    return mr << (er - exp), mi << (ei - exp), exp


# The point-independent pieces of the pass's nodes, per (a, b, degree, prec).
_FIXED_NODES: dict = {}


def _fixed_nodes(a, b, degree: int, prec: int) -> list:
    """t, 1 - t^2, (1 - t^2)^2 and the weight of each node, at width prec + 20.

    The nodes are those of _TANH_SINH.get_nodes(a, b, degree, prec), each
    flattened into one tuple of four values. 1 - t^2 and its square are
    exact from the rounded t before they are rounded. Converted once and
    kept, like TanhSinh's own node cache; nothing about a point is stored.
    """
    key = (a, b, degree, prec)
    nodes = _FIXED_NODES.get(key)
    if nodes is None:
        width = prec + _GUARD_BITS
        nodes = []
        for t, weight in _TANH_SINH.get_nodes(a, b, degree, prec):
            tr, ti, te = _rounded(*_fixed(t.real, t.imag), width)
            # |t| < 1 on the path, so te < 0 and 1 = 2^(-2 te) 2^(2 te)
            ur, ui, ue = (1 << -2 * te) - tr * tr + ti * ti, -2 * tr * ti, 2 * te
            nodes.append(
                (tr, ti, te)
                + _rounded(ur, ui, ue, width)
                + _rounded(ur * ur - ui * ui, 2 * ur * ui, 2 * ue, width)
                + _rounded(*_fixed(weight.real, weight.imag), width)
            )
        _FIXED_NODES[key] = nodes
    return nodes


def _contour_sums(x: float, y: float, q: float):
    """Level sums of the integrands of I2, I3 and, for x != 0, I1, for _path_quad.

    Per node, with t, u = 1 - t^2, u^2 and the weight from _fixed_nodes, a
    point computes w = q t - z, u/w, t u/w and u^2/(w^2 - q^4/4) in the
    fixed-width arithmetic above, at the width prec + 20 that mp.quad's sums
    use; each level sum is the exact sum of the weight products, rounded
    once when it becomes an mpc.

    Why the rounding allowance of _quadrature_raw (_rounding_noise) still
    covers this arithmetic: every result is rounded once, to nearest, so it
    errs by at most sqrt(2) 2^-(prec+20) of its modulus. mpmath's mpc
    arithmetic at the same width, the reference the tests compare against,
    rounds each part and rounds more often: q t and then q t - z, w^2 and
    q^4/4 and then their difference, t^2 and then 1 - t^2. The errors that
    grow near a pole, where w is small beside q t or w^2 - q^4/4 beside w^2,
    come from those subtractions, which here are exact (q, z and q^4/4 are
    held exactly) with only their result rounded. So a node's value is as
    accurate as there, up to sqrt(2) on a last rounding, and a level sum,
    exact up to its one rounding, at least as accurate as mp.fdot's. All of
    it sits at the 2^-(prec+20) scale of the peak times the path length,
    which the weights' moduli total, and the allowance, 2^-(prec+10) of the
    peak times 2 sqrt(2), is 2^10 times that scale. The pass with this
    arithmetic and the same pass with mpmath numbers therefore agree within
    each integral's allowance plus 10^-dps of its value.
    """
    qm, qe = _parts(q)
    zr, zi, ze = _fixed(x, y)
    km, ke = qm**4, 4 * qe - 2  # q^4/4

    def level_sums(start, end, degree: int, prec: int) -> list:
        width = prec + _GUARD_BITS
        i2, i3, i1 = [], [], []
        # per node: c the weight, w = q t - z, a = u/w, b = t a, d = w^2 - q^4/4, f = u^2/d
        for tr, ti, te, ur, ui, ue, vr, vi, ve, cr, ci, ce in _fixed_nodes(
            start, end, degree, prec
        ):
            wr, wi, we = _difference(qm * tr, qm * ti, qe + te, zr, zi, ze, width)
            ar, ai, ae = _quotient(ur, ui, ue, wr, wi, we, width)
            br, bi, be = _rounded(tr * ar - ti * ai, tr * ai + ti * ar, te + ae, width)
            dr, di, de = _difference(wr * wr - wi * wi, 2 * wr * wi, 2 * we, km, 0, ke, width)
            fr, fi, fe = _quotient(vr, vi, ve, dr, di, de, width)
            i2.append((cr * br - ci * bi, cr * bi + ci * br, ce + be))
            i3.append((cr * fr - ci * fi, cr * fi + ci * fr, ce + fe))
            if x:
                i1.append((cr * ar - ci * ai, cr * ai + ci * ar, ce + ae))
        return [
            mpc(mp.ldexp(re, exp), mp.ldexp(im, exp))
            for re, im, exp in map(_exact_sum, (i2, i3, i1) if x else (i2, i3))
        ]

    return level_sums


def _removable_peak(pole: complex, q: float):
    """A bound on |(1 - t^2)/(q t - pole)| along the path, for Im pole >= 0.

    With t0 = pole/q, |1 - t^2| <= |1 - t0^2| + |t - t0| |t + t0| and |t| <= 1
    on the path, so the quotient is at most |1 - t0^2|/d + (1 + |t0|)/q, d the
    pole's distance to the path in g = q t. The path leaves t = -+1 at 45
    degrees below the axis, so d >= q min|t0 -+ 1|/sqrt(2), and the bound
    stays finite for a pole on an end, where 1 - t^2 cancels it.
    """
    return (1 + mp.sqrt(2)) * (1 + abs(mpc(pole) / q)) / q


def _rounding_noise(x: float, y: float, q: float) -> tuple:
    """The rounding allowance of I2, I3 and I1 at (x, y, q) and the working precision.

    Each is 2^-(prec+10) (_NODE_TAIL_BITS) of a bound on the integrand's peak
    times the path length 2 sqrt(2): the smaller of the most |numerator|
    reaches on the path (2 for I1 and I2, 4 for I3) over its poles' distance
    to the path in g = q t, which diverges for a pole on an end t = +-1, and
    _removable_peak, for I3 through partial fractions over its pole pair.
    """
    z = complex(x, y)
    shift = 0.5 * q * q
    # I1 and I2 share the simple pole g = z; I3 has the pair g = z -+ q^2/2,
    # which lie q^2 apart, so one factor of its denominator is >= q^2/2.
    d1 = _path_distance(z, q)
    d_lo = _path_distance(z - shift, q)
    d_hi = _path_distance(z + shift, q)
    d3 = max(mpf(d_lo) * d_hi, mpf(min(d_lo, d_hi)) * shift)
    peak1 = min(2 / mpf(d1) if d1 else mp.inf, _removable_peak(z, q))
    peak3 = min(
        4 / d3 if d3 else mp.inf,
        2 * (_removable_peak(z - shift, q) + _removable_peak(z + shift, q)) / mpf(q) ** 2,
    )
    tail_eps = _PATH_LENGTH * mpf(2) ** -(mp.prec + _NODE_TAIL_BITS)
    return tail_eps * peak1, tail_eps * peak3, tail_eps * peak1


def _excess(bound, value):
    """How many times bound exceeds the target share of |value|."""
    if bound == 0:
        return 0
    if value == 0:
        return mp.inf
    return bound / (_TARGET_REL * abs(value))


def chi_ratio_quadrature(point: DimensionlessPoint) -> ChiResult:
    """Susceptibility ratio by direct high-precision quadrature.

    Integrates
        I1 = Int (1-t^2)/(q t - z) dt
        I2 = Int t (1-t^2)/(q t - z) dt
        I3 = Int (1-t^2)^2 / ((q t - z)^2 - q^4/4) dt
    from -1 to 1 with mpmath's tanh-sinh rule and assembles
    -(3x/q^2) I1 + (3/q) I2 + (3/4) I3. Every pole lies at Im t = y/q >= 0,
    so the integrals run along the polyline -1 -> -i -> 1 through the lower
    half plane, where the integrands stay bounded, with no split points;
    all three come from one pass over shared nodes. At y = 0 this gives the
    limit y -> 0+, poles inside [-1, 1] or on t = +-1 included. The working
    precision is chosen per point: a pass at 20 digits measures its own
    rounding noise and error, and passes at more digits follow until the
    classical part, the quantum part and their sum are each known to 1e-16
    relative (or 150 digits are reached). err_est is the quadrature's error
    estimate plus the predicted rounding bound, plus half an ulp for each
    rounding to double of the parts and their sum. Serves every accepted point;
    _quadrature_raw also takes x < 0. An oracle: slow, independent, trusted.
    """
    return _quadrature_raw(point.x, point.y, point.q)


def _quadrature_raw(x: float, y: float, q: float) -> ChiResult:
    """Quadrature along _PATH at the fewest working digits the point needs.

    One _path_quad pass per working precision yields I2, I3 and, for x != 0,
    I1. Its integrands come from _contour_sums: each node computes q t - z
    and u/w once for all of them, in fixed-width integer complex arithmetic
    20 bits above the working precision that rounds every result once, to
    nearest. Each pass bounds its own rounding noise from magnitudes it
    already has: 10^-dps of every assembled term, and 2^-(prec+10) (about
    10^-(dps+4), the node tails left out at the corner, _NODE_TAIL_BITS) of
    each integrand's peak times the path length 2 sqrt(2) for the sums
    inside the pass (_rounding_noise). That term is 2^10 times the scale of
    the integer arithmetic's rounding, which _contour_sums shows to be no
    worse than that of mpmath's mpc arithmetic at the same width. Noise plus
    the quadrature's error estimate must stay within _TARGET_REL of
    |classic|, |quant| and |total|; a pass that misses by a factor E is
    redone at dps + ceil(log10 E) + 2 digits (twice the digits when a part
    cancelled to exactly 0), up to _MAX_DPS, where the value is returned
    with the whole bound as err_est. err_est also counts half an ulp for the
    rounding to double of each real and imaginary part of classic and quant
    and of their double sum.
    """
    level_sums = _contour_sums(x, y, q)
    dps = _FIRST_DPS
    while True:
        with mp.workdps(dps):
            qm = mpf(q)
            out_eps = mpf(10) ** -dps
            results = _path_quad(level_sums)
            noise2, noise3, noise1 = _rounding_noise(x, y, q)
            (v2, e2), (v3, e3) = results[:2]
            if x == 0.0:
                classic = mpc(0)
                bound_c = mpf(0)
            else:
                v1, e1 = results[2]
                c1 = 3 * mpf(x) / qm**2
                classic = -c1 * v1
                bound_c = abs(c1) * (e1 + noise1) + out_eps * abs(classic)
            c2 = 3 / qm
            c3 = mpf(3) / 4
            term2 = c2 * v2
            term3 = c3 * v3
            quant = term2 + term3
            bound_q = (
                c2 * (e2 + noise2)
                + c3 * (e3 + noise3)
                + out_eps * (abs(term2) + abs(term3))
            )
            bound = bound_c + bound_q
            excess = max(
                _excess(bound_c, classic),
                _excess(bound_q, quant),
                _excess(bound, classic + quant),
            )
            if excess <= 1 or dps == _MAX_DPS:
                classic, quant = complex(classic), complex(quant)
                # half an ulp for each double part and for their double sum
                rounding = sum(
                    math.ulp(part) / 2
                    for value in (classic, quant, classic + quant)
                    for part in (value.real, value.imag)
                )
                return ChiResult.from_parts(
                    classic, quant, RegimeTag.QUADRATURE, float(bound) + rounding
                )
            step = mp.ceil(mp.log10(excess)) + 2 if mp.isfinite(excess) else dps
        dps = min(_MAX_DPS, dps + int(step))


# ---------------------------------------------------------------------------
# Kinetic-equation reconstruction
# ---------------------------------------------------------------------------


class KineticIntegrand(FrozenRecord):
    """Pieces of the kinetic-equation form of the susceptibility.

    The quantum contribution couples momentum states q apart, so the natural
    integration variable u runs over [-1 - q/2, 1 + q/2] and the occupation
    difference below is the (squared, clamped) shell overlap of the two
    coupled states. The resonance denominator is shared by every piece.
    """

    _fields = ("x", "y", "q")

    @property
    def half_width(self) -> float:
        return 0.5 * self.q

    def occupation_difference(self, u: float) -> float:
        """Clamped shell-overlap difference; odd in u, zero for |u| > 1 + q/2."""
        a = self.half_width
        lower = 1.0 - (u - a) ** 2
        upper = 1.0 - (u + a) ** 2
        plus = lower * lower if lower > 0.0 else 0.0
        minus = upper * upper if upper > 0.0 else 0.0
        return plus - minus

    def shell_weight(self, t: float) -> float:
        """Velocity-shell angular weight 1 - t^2."""
        return 1.0 - t * t

    def denominator(self, u: float) -> complex:
        """Resonance denominator y + i(q u - x) = i (q u - z); never zero for y > 0."""
        return complex(self.y, self.q * u - self.x)


def chi_from_kinetic(point: DimensionlessPoint) -> ChiResult:
    """Susceptibility ratio rebuilt from the kinetic-equation formulation.

    classic = -(3x/q^2) Int (1-t^2)/(q t - z) dt over [-1, 1]
    quant   = -(3/(4 q^2)) Int W(u)/(q u - z) du over [-1 - q/2, 1 + q/2]
              + (3/q) Int t (1-t^2)/(q t - z) dt over [-1, 1]

    with W the clamped shell-overlap difference. W has kinks at +-1 +- q/2,
    seeded as breakpoints. Independent of the kernel module's algebra; uses
    the package's own Gauss-Kronrod engine. Requires y > 0.
    """
    if point.y <= 0.0:
        raise DomainError("chi_from_kinetic requires y > 0")
    x, y, q = point.x, point.y, point.q
    ig = KineticIntegrand(x=x, y=y, q=q)
    a = ig.half_width
    splits = _interior_breakpoints(x, y, q)

    # 1/(q u - z) = i / denominator
    def f_w(u: float) -> complex:
        return ig.occupation_difference(u) * 1j / ig.denominator(u)

    def f_shell(t: float) -> complex:
        return t * ig.shell_weight(t) * 1j / ig.denominator(t)

    def f_classic(t: float) -> complex:
        return ig.shell_weight(t) * 1j / ig.denominator(t)

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
# Long-wavelength quantum limit
# ---------------------------------------------------------------------------


def chi_quant_smallk(point: DimensionlessPoint) -> ChiResult:
    """Quantum part of the ratio in the long-wavelength (small q) limit.

    Built from first and second moments of the shifted resonance denominator
    (the leading orders of the coupled-state energy difference):

        quant ~= -(q/4) Int t (1-t^2) [2 t^2 D2(t) - 3 D1(t)] dt,
        D1 = 2/(g-z) - (g/2)/(g-z)^2,
        D2 = 6/(g-z) - (11 g/4)/(g-z)^2 + (g^2/2)/(g-z)^3,   g = q t.

    At z = 0 the combination collapses to the polynomial
    -(1-t^2)(15 t^2 - 9)/8 whose integral is exactly 1, the static
    long-wavelength normalization; the O(q) and O(q^2) resonance moments
    cancel identically (the t^4 and t^2 shell moments weigh 2:3 against the
    35/4 : 5/2 denominator coefficients), so for y >> q the value tracks the
    full quantum part to O(q^4). Against the full kernel at general (y, q)
    the omitted static curvature is q^2/20. Requires y > 0 or the exact
    static point x = y = 0.
    """
    x, y, q = point.x, point.y, point.q
    if y == 0.0 and x == 0.0:

        def f_static(t: float) -> complex:
            return complex(-(1.0 - t * t) * (15.0 * t * t - 9.0) / 8.0)

        value, err = integrate_complex_adaptive(f_static, -1.0, 1.0)
        return ChiResult.from_parts(complex(0.0), value, RegimeTag.QUADRATURE, err)
    if y <= 0.0:
        raise DomainError("chi_quant_smallk requires y > 0 (or the static point)")
    z = point.z
    splits = _interior_breakpoints(x, y, q)

    def f(t: float) -> complex:
        g = q * t
        d = g - z
        d1 = 2.0 / d - (0.5 * g) / (d * d)
        d2 = 6.0 / d - (2.75 * g) / (d * d) + (0.5 * g * g) / (d * d * d)
        return t * (1.0 - t * t) * (2.0 * t * t * d2 - 3.0 * d1)

    value, err = integrate_complex_adaptive(f, -1.0, 1.0, splits)
    scale = -0.25 * q
    return ChiResult.from_parts(
        complex(0.0), scale * value, RegimeTag.QUADRATURE, abs(scale) * err
    )


# ---------------------------------------------------------------------------
# Fermi-surface velocity moments via nascent deltas
# ---------------------------------------------------------------------------


class NascentDelta(FrozenRecord):
    """Gaussian nascent delta of a given energy width.

    As width -> 0 this tends to the Dirac delta; its first and second
    derivatives tend to the corresponding distributional derivatives. The
    even-moment structure of the Gaussian makes observables computed with it
    polynomial in width^2, which is what the Richardson step exploits.
    """

    _fields = ("width",)

    def __init__(self, width: float) -> None:
        if not (width > 0.0 and math.isfinite(width)):
            raise ValidationError("NascentDelta width must be finite and > 0")
        self._set(width)

    def __call__(self, e: float) -> float:
        s = self.width
        return math.exp(-0.5 * (e / s) ** 2) / (s * math.sqrt(2.0 * math.pi))

    def first_derivative(self, e: float) -> float:
        return -e / (self.width * self.width) * self(e)

    def second_derivative(self, e: float) -> float:
        s2 = self.width * self.width
        return (e * e / s2 - 1.0) / s2 * self(e)


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
        delta = NascentDelta(width=width)
        v_lo = math.sqrt(max(0.0, 1.0 - 28.0 * width))
        v_hi = math.sqrt(1.0 + 28.0 * width)

        def f1(v: float) -> complex:
            return complex(v**6 * delta.second_derivative(0.5 * v * v - e_f))

        def f2(v: float) -> complex:
            return complex(-(v**4) * delta.first_derivative(0.5 * v * v - e_f))

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

"""Independent numerical checks of the closed-form susceptibility kernel.

Everything here recomputes physics from a more primitive formulation than
the kernel module uses, on purpose:

  * chi_ratio_quadrature integrates the three angular integrals directly
    with high-precision arithmetic (mpmath), never touching the kernel's
    branch-logarithm algebra: one tanh-sinh pass over shared nodes along
    the polyline -1 -> -i -> 1, which passes below every pole, so the
    integrands stay bounded and no split points are needed;
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
from dataclasses import dataclass

from mpmath import mp, mpc, mpf
from mpmath.calculus.quadrature import TanhSinh

from .core import ChiResult, DimensionlessPoint, EvalMethod
from .errors import DomainError, ExtrapolationError, ValidationError
from .quadrature import integrate_complex_adaptive

__all__ = [
    "KineticIntegrand",
    "JIntegrals",
    "NascentDelta",
    "chi_ratio_quadrature",
    "chi_ratio_quadrature_reflected",
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
# its half-length; the path length times that bounds both corner ends, and
# the rounding of the sums, 20 bits above the working precision, is a
# thousand times smaller.
_NODE_TAIL_BITS = 10


def _path_distance(c: complex, q: float) -> float:
    """Distance from c to the contour in g = q t, the polyline -q -> -iq -> q."""
    corners = [q * complex(t) for t in _PATH]
    best = math.inf
    for a, b in zip(corners, corners[1:]):
        ab = b - a
        u = ((c - a) * ab.conjugate()).real / abs(ab) ** 2
        best = min(best, abs(c - (a + min(max(u, 0.0), 1.0) * ab)))
    return best


def _path_quad(f) -> list:
    """Integrals of every component of f along _PATH, in one tanh-sinh pass.

    This is mp.quad's loop (QuadratureRule.summation with TanhSinh.sum_next)
    for a vector integrand: f(t) returns a tuple, evaluated once per node,
    and every component keeps its own sequence of level sums and error
    estimate. A segment stops at the first degree from _FIRST_STOP_DEGREE on
    where every component's estimate meets mp.quad's epsilon, eps/8 at the
    working precision; the sums run 20 bits above it. With a one-component
    f and _FIRST_STOP_DEGREE = 2 it returns exactly what
    mp.quad(f, _PATH, error=True) does. Returns [(value, error), ...].
    """
    prec = mp.prec
    epsilon = mp.eps / 8
    max_degree = _TANH_SINH.guess_degree(prec)
    segments = []
    with mp.extraprec(20):
        for a, b in zip(_PATH, _PATH[1:]):
            levels = []  # per degree, the level sum of every component
            for degree in range(1, max_degree + 1):
                nodes = _TANH_SINH.get_nodes(a, b, degree, prec)
                values = [f(t) for t, _ in nodes]
                h = mpf(2) ** (-degree)
                previous = levels[-1] if levels else [mp.zero] * len(values[0])
                weights = [w for _, w in nodes]
                levels.append([
                    h * (prev / (h * 2) + mp.fdot(zip(weights, [v[i] for v in values])))
                    for i, prev in enumerate(previous)
                ])
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
    -(3x/q^2) I1 + (3/q) I2 + (3/4) I3. Every pole lies above the real
    axis, so the integrals run along the polyline -1 -> -i -> 1 through the
    lower half plane, where the integrands stay bounded, with no split
    points; all three come from one pass over shared nodes. The working
    precision is chosen per point: a pass at 20 digits measures its own
    rounding noise and error, and passes at more digits follow until the
    classical part, the quantum part and their sum are each known to 1e-16
    relative (or 150 digits are reached). err_est is the quadrature's error
    estimate plus the predicted rounding bound. Requires y > 0. An oracle:
    slow, independent, trusted.
    """
    if point.y <= 0.0:
        raise DomainError("chi_ratio_quadrature requires y > 0")
    return _quadrature_raw(point.x, point.y, point.q)


def chi_ratio_quadrature_reflected(point: DimensionlessPoint) -> ChiResult:
    """Quadrature value at reflected frequency -x (same y, q).

    A real-field response must satisfy chi(-x) = conj(chi(x)); this evaluates
    the left side directly (the integrands are perfectly well defined for
    negative frequency, only the public coordinate type restricts to x >= 0)
    so the symmetry can be tested against the closed form. Precision is
    chosen per point as in chi_ratio_quadrature.
    """
    if point.y <= 0.0:
        raise DomainError("chi_ratio_quadrature_reflected requires y > 0")
    return _quadrature_raw(-point.x, point.y, point.q)


def _quadrature_raw(x: float, y: float, q: float) -> ChiResult:
    """Quadrature along _PATH at the fewest working digits the point needs.

    One _path_quad pass per working precision yields I2, I3 and, for x != 0,
    I1; each node computes 1 - t^2, q t - z and their ratio once for all of
    them. Each pass bounds its own rounding noise from magnitudes it already
    has: 10^-dps of every assembled term, and 2^-(prec+10) (about
    10^-(dps+4), the node tails left out at the corner, _NODE_TAIL_BITS) of
    each integrand's peak times the path length 2 sqrt(2) for the sums
    inside the pass. A peak is the most |numerator| reaches on the path (2
    for I1 and I2, 4 for I3) over the distance of the integrand's poles, in
    g = q t, to the path. Noise plus the quadrature's error estimate must
    stay within _TARGET_REL of |classic|, |quant| and |total|; a pass that
    misses by a factor E is redone at dps + ceil(log10 E) + 2 digits (twice
    the digits when a part cancelled to exactly 0), up to _MAX_DPS, where
    the value is returned with the whole bound as err_est.
    """
    z = complex(x, y)
    shift = 0.5 * q * q
    # I1 and I2 share the simple pole g = z; I3 has the pair g = z -+ q^2/2,
    # which lie q^2 apart, so one factor of its denominator is >= q^2/2.
    d1 = _path_distance(z, q)
    d_lo = _path_distance(z - shift, q)
    d_hi = _path_distance(z + shift, q)
    dps = _FIRST_DPS
    while True:
        with mp.workdps(dps):
            zm = mpc(mpf(x), mpf(y))
            qm = mpf(q)
            quartic = qm**4 / 4
            peak1 = 2 / mpf(d1)
            peak3 = 4 / max(mpf(d_lo) * d_hi, mpf(min(d_lo, d_hi)) * shift)
            out_eps = mpf(10) ** -dps
            tail_eps = _PATH_LENGTH * mpf(2) ** -(mp.prec + _NODE_TAIL_BITS)

            def integrands(t):
                u = 1 - t * t
                w = qm * t - zm
                r = u / w
                parts = (t * r, u * u / (w * w - quartic))
                return parts + (r,) if x else parts

            results = _path_quad(integrands)
            (v2, e2), (v3, e3) = results[:2]
            if x == 0.0:
                classic = mpc(0)
                bound_c = mpf(0)
            else:
                v1, e1 = results[2]
                c1 = 3 * mpf(x) / qm**2
                classic = -c1 * v1
                bound_c = abs(c1) * (e1 + tail_eps * peak1) + out_eps * abs(classic)
            c2 = 3 / qm
            c3 = mpf(3) / 4
            term2 = c2 * v2
            term3 = c3 * v3
            quant = term2 + term3
            bound_q = (
                c2 * (e2 + tail_eps * peak1)
                + c3 * (e3 + tail_eps * peak3)
                + out_eps * (abs(term2) + abs(term3))
            )
            bound = bound_c + bound_q
            excess = max(
                _excess(bound_c, classic),
                _excess(bound_q, quant),
                _excess(bound, classic + quant),
            )
            if excess <= 1 or dps == _MAX_DPS:
                return ChiResult.from_parts(
                    complex(classic), complex(quant), EvalMethod.QUADRATURE, float(bound)
                )
            step = mp.ceil(mp.log10(excess)) + 2 if mp.isfinite(excess) else dps
        dps = min(_MAX_DPS, dps + int(step))


# ---------------------------------------------------------------------------
# Kinetic-equation reconstruction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KineticIntegrand:
    """Pieces of the kinetic-equation form of the susceptibility.

    The quantum contribution couples momentum states q apart, so the natural
    integration variable u runs over [-1 - q/2, 1 + q/2] and the occupation
    difference below is the (squared, clamped) shell overlap of the two
    coupled states. The resonance denominator is shared by every piece.
    """

    x: float
    y: float
    q: float

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
    return ChiResult.from_parts(classic, quant, EvalMethod.QUADRATURE, err)


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
        return ChiResult.from_parts(complex(0.0), value, EvalMethod.QUADRATURE, err)
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
        complex(0.0), scale * value, EvalMethod.QUADRATURE, abs(scale) * err
    )


# ---------------------------------------------------------------------------
# Fermi-surface velocity moments via nascent deltas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NascentDelta:
    """Gaussian nascent delta of a given energy width.

    As width -> 0 this tends to the Dirac delta; its first and second
    derivatives tend to the corresponding distributional derivatives. The
    even-moment structure of the Gaussian makes observables computed with it
    polynomial in width^2, which is what the Richardson step exploits.
    """

    width: float

    def __post_init__(self) -> None:
        if not (self.width > 0.0 and math.isfinite(self.width)):
            raise ValidationError("NascentDelta width must be finite and > 0")

    def __call__(self, e: float) -> float:
        s = self.width
        return math.exp(-0.5 * (e / s) ** 2) / (s * math.sqrt(2.0 * math.pi))

    def first_derivative(self, e: float) -> float:
        return -e / (self.width * self.width) * self(e)

    def second_derivative(self, e: float) -> float:
        s2 = self.width * self.width
        return (e * e / s2 - 1.0) / s2 * self(e)


def richardson_extrapolate(h_values, values, max_order: int | None = None) -> tuple:
    """Polynomial extrapolation of values(h) to h = 0 (Neville scheme).

    h_values must be positive and strictly decreasing. max_order caps the
    tableau depth (None uses every sample). Returns (limit, err_est) where
    err_est combines the last order-increase and sample-shift corrections.
    """
    hs = [float(h) for h in h_values]
    vs = list(values)
    if len(hs) != len(vs) or len(hs) < 2:
        raise ExtrapolationError("need at least two (h, value) samples")
    if any(h <= 0 for h in hs) or any(b >= a for a, b in zip(hs, hs[1:])):
        raise ExtrapolationError("h values must be positive and strictly decreasing")
    n = len(hs)
    depth = n - 1 if max_order is None else max(1, min(max_order, n - 1))
    tableau = [vs]
    for j in range(1, depth + 1):
        prev = tableau[j - 1]
        row = []
        for i in range(j, n):
            num = hs[i] * prev[i - j] - hs[i - j] * prev[i - j + 1]
            row.append(num / (hs[i] - hs[i - j]))
        tableau.append(row)
    limit = tableau[depth][-1]
    order_prev = tableau[depth - 1][-1]
    sample_prev = tableau[depth][-2] if len(tableau[depth]) >= 2 else tableau[depth - 1][0]
    err_est = abs(limit - order_prev) + abs(limit - sample_prev)
    if not math.isfinite(limit):
        raise ExtrapolationError("extrapolation diverged")
    return limit, err_est


@dataclass(frozen=True)
class JIntegrals:
    """The two Fermi-surface velocity moments and their width-0 error bars.

    In units where the electron mass, Fermi speed, and Fermi energy scale
    drop out, both moments equal 4 pi and their Landau combination
    j1 - 3 j2 equals -8 pi.
    """

    j1: float
    j2: float
    j1_err_est: float
    j2_err_est: float

    @property
    def landau_combination(self) -> float:
        return self.j1 - 3.0 * self.j2


# Nascent-delta widths in units of E_F, descending, and the polynomial order
# of the Richardson extrapolation in width^2 across them.
_DELTA_WIDTHS = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
_EXTRAPOLATION_ORDER = 5
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
    j1, j1_err = richardson_extrapolate(h, [s[0] for s in samples], _EXTRAPOLATION_ORDER)
    j2, j2_err = richardson_extrapolate(h, [s[1] for s in samples], _EXTRAPOLATION_ORDER)
    return JIntegrals(j1=j1, j2=j2, j1_err_est=j1_err, j2_err_est=j2_err)

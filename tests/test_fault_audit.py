"""A seeded-fault audit: which checks catch a wrong kernel.

Each kernel-only fault is a monkeypatch of one kernel name. For each fault,
and for the kernel without one, the catalogue records the verify checks
that fail and how many points of one seeded sample chi_ratio gives more
than 1e-9 relative off chi_ratio_exact, counted on y > 0 box points and on
the collisionless line y = 0. The table is pinned, so a kernel change that
moves what a check catches shows it. This is mutation testing (DeMillo,
Lipton and Sayward, "Hints on test data selection", IEEE Computer 11(4),
1978).

A shared-derivation fault is one algebraic slip in the closed forms that
the kernel and the reference both derive from: written into a copy of
oracle._exact_integrals, and into the kernel as what it does to every
strategy's parts. The reference then shares the fault, so only the
independent oracles behind verify's grid checks can see it.
"""

import math
import random

import pytest

from diamag import kernel, oracle
from diamag.core import DimensionlessPoint
from diamag.kernel import chi_ratio
from diamag.verify import run_verification

# the reference at 320 points, once without a fault and once per shared
# fault, makes this module take 4-7 s on 2 CPUs of a shared host
pytestmark = pytest.mark.slow


def _lower_branch_side(branch_log):
    """L conjugated where Im sigma = 0, which puts y = 0 on the lower side
    of the branch cut."""
    def faulty(sigma):
        one_ms2, L = branch_log(sigma)
        return one_ms2, L.conjugate() if sigma.imag == 0.0 else L
    return faulty


def _laurent_residual_over_16(quant_laurent):
    """The Laurent residual's leading 1/15 as 1/16: every term scales with
    r_scaled, so the whole sum takes the factor 15/16."""
    def faulty(w, r_scaled, r, prefactor, k):
        return quant_laurent(w, r_scaled * (15.0 / 16.0), r, prefactor, k)
    return faulty


def _classical_sign_flipped(closed_form_parts):
    """The closed form's classical part with its sign flipped."""
    def faulty(point, closed):
        classic, quant, err_est = closed_form_parts(point, closed)
        return -classic, quant, err_est
    return faulty


def _pole_shift(closed_pieces):
    """The guard's g(s + q/2), which the closed form reuses, taken at
    s + q/4."""
    def faulty(z, q):
        (I1, bracket, _, g_minus, Ls), lost = closed_pieces(z, q)
        g_plus = kernel._antiderivative_with_peak(z / q + 0.25 * q)[0]
        return (I1, bracket, g_plus, g_minus, Ls), lost
    return faulty


def _laurent_order_dropped(quant_laurent):
    """The Laurent sum without its q^6/z^6 term t_11 = (2/21) r w. Every
    point the audit takes has k = 0, so r_scaled is r and the prefactor
    12/z^2."""
    def faulty(w, r_scaled, r, prefactor, k):
        quant, err = quant_laurent(w, r_scaled, r, prefactor, k)
        return quant - prefactor * (r_scaled * w * (2.0 / 21.0)), err
    return faulty


def _far_seam_moved_in(classify):
    """The far field from |s| >= 2 and past the Laurent series' own radius
    1 + q/2, in place of |s| >= 3 and 2 (1 + q/2)."""
    def faulty(point):
        s_abs = abs(point.s)
        if (point.x or point.y) and s_abs >= 2.0 and s_abs > 1.0 + 0.5 * point.q:
            return kernel._LAURENT, kernel._laurent_parts, None
        return classify(point)
    return faulty


def _taylor_rung(rows):
    """The first Taylor term's ladder factor 2 (n - 1) = 4 written 3."""
    first = rows[0]
    return ((*first[:3], 3.0, *first[4:]), *rows[1:])


def _fold_counted_once(closed_form_parts):
    """At x = 0 the fold g(s - q/2) = -conj(g(s + q/2)) counts Re g(s + q/2)
    once, 0.75 in place of 1.5."""
    def faulty(point, closed):
        classic, quant, err_est = closed_form_parts(point, closed)
        if point.x == 0.0:
            g_plus = kernel._antiderivative_piece(point.s + 0.5 * point.q, closed and closed[2])[0]
            quant -= 0.75 * g_plus.real / kernel._cube(point.q)
        return classic, quant, err_est
    return faulty


# fault -> (the kernel name it patches, its faulty value from the original)
FAULTS = {
    "none": None,
    "lower-branch-side": ("_branch_log", _lower_branch_side),
    "laurent-residual-16": ("_quant_laurent", _laurent_residual_over_16),
    "classical-sign": ("_closed_form_parts", _classical_sign_flipped),
    "cancel-digits-12": ("_CANCEL_DIGITS", lambda digits: 12.0),
    "pole-shift-q/4": ("_closed_pieces", _pole_shift),
    "laurent-order-dropped": ("_quant_laurent", _laurent_order_dropped),
    "far-seam-moved-in": ("_classify", _far_seam_moved_in),
    "taylor-rung": ("_TAYLOR_ROWS", _taylor_rung),
    "x0-fold-once": ("_closed_form_parts", _fold_counted_once),
    "static-seam-1e-3": ("_STATIC_SEAM", lambda seam: 1e-3),
}

GRID_CHECKS = ("closed-form-vs-quadrature", "kinetic-integral-consistency")
PLATEAU = ("suppression-plateau",)

# fault -> (verify checks that fail, box points caught, y = 0 points caught).
# Verify passes all 7 checks with the branch side wrong, which only the
# collisionless line shows, and with the guard at 12 digits, which only the
# box shows. Nothing here sees the far seam moved in, where the Laurent
# series still converges to 1e-9 at every sample point, or the static seam
# at q = 1e-3, where chi_static_pv(1e-3) is 1.7e-7 off, inside
# landau-limit's bound 1e-6, and the sample holds no static point; tier-1's
# pinned points see both. Every other fault fails both grid checks
FAULT_TABLE = {
    "none": ((), 0, 0),
    "lower-branch-side": ((), 0, 6),
    "laurent-residual-16": (GRID_CHECKS, 50, 0),
    "classical-sign": (GRID_CHECKS, 47, 7),
    "cancel-digits-12": ((), 6, 1),
    "pole-shift-q/4": (GRID_CHECKS + PLATEAU, 17, 4),
    "laurent-order-dropped": (GRID_CHECKS, 24, 0),
    "far-seam-moved-in": ((), 0, 0),
    "taylor-rung": (GRID_CHECKS, 16, 0),
    "x0-fold-once": (GRID_CHECKS + PLATEAU, 35, 0),
    "static-seam-1e-3": ((), 0, 0),
}


def _faulty_exact_integrals(fault: str):
    """oracle._exact_integrals with one shared fault written into its algebra:
    g's 10/3 as 3, or I1's -2s as -s."""
    def exact_integrals(x, y, q):
        from mpmath import mp, mpc, mpf

        qm = mpf(q)
        s = mpc(x, y) / qm

        def scaled(terms: list, log_terms: list, scale) -> tuple:
            summands = terms + [factor * log for factor, log in log_terms]
            mags = [mp.mag(term) for term in summands] + [mp.mag(f) for f, _ in log_terms]
            return sum(summands) / scale, max(mags) - mp.mag(scale)

        u, log = oracle._branch_log(s)
        i1, m1 = scaled([-s if fault == "i1-minus-s" else -2 * s], [(u, log)], qm)
        i2, m2 = scaled([mpf(4) / 3, -2 * s * s], [(s * u, log)], qm)
        terms, log_terms = [], []
        for sign, sigma in ((1, s + qm / 2), (-1, s - qm / 2)):
            u, log = oracle._branch_log(sigma)
            linear = -3 * sigma if fault == "g-linear-3" else -10 * sigma / 3
            terms += [sign * 2 * sigma * sigma * sigma, sign * linear]
            log_terms.append((sign * u * u, log))
        i3, m3 = scaled(terms, log_terms, qm**3)
        return (i1, i2, i3), (m1, m2, m3)
    return exact_integrals


# shared fault -> what it adds to (classic, quant) at a point, in every
# strategy: g gains sigma/3, so I3 gains 1/(3 q^2) and quant a quarter of
# 1/q^2; I1 gains s/q, so the classical part gains -3x z/q^4
SHARED_FAULTS = {
    "g-linear-3": lambda point: (0j, 0.25 / (point.q * point.q)),
    "i1-minus-s": lambda point: (-3.0 * point.x * point.z / point.q**4, 0j),
}

# shared fault -> (verify checks that fail, box points caught, y = 0 points
# caught), the reference sharing the fault. Against the true reference the
# kernel is off at 300 / 20 and 184 / 14 of them. Both grid checks see both
# faults, so here the contour oracle catches nothing the kinetic one misses
SHARED_TABLE = {
    "g-linear-3": (
        GRID_CHECKS + ("landau-limit", "suppression-small-q") + PLATEAU
        + ("suppression-half-crossing",), 0, 0,
    ),
    "i1-minus-s": (GRID_CHECKS, 0, 0),
}


def _shifted(evaluate, effect):
    """evaluate with effect(point) added to its (classic, quant)."""
    def faulty(point, pieces):
        classic, quant, err_est = evaluate(point, pieces)
        d_classic, d_quant = effect(point)
        return classic + d_classic, quant + d_quant, err_est
    return faulty


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


@pytest.fixture(scope="module")
def points() -> list:
    """300 points log-uniform over the box x in {0} or [1e-12, 1e6], y in
    [1e-14, 1e6], q in [1e-9, 1e4], 30 % of them at x = 0, then 20 on the
    line y = 0 < x, x and q over the same box."""
    rng = random.Random(0)
    points = []
    for _ in range(300):
        x = 0.0 if rng.random() < 0.3 else _loguniform(rng, 1e-12, 1e6)
        y, q = _loguniform(rng, 1e-14, 1e6), _loguniform(rng, 1e-9, 1e4)
        points.append(DimensionlessPoint(x, y, q))
    for _ in range(20):
        x, q = _loguniform(rng, 1e-12, 1e6), _loguniform(rng, 1e-9, 1e4)
        points.append(DimensionlessPoint(x, 0.0, q))
    return points


def _with_reference(points: list) -> list:
    from diamag.oracle import chi_ratio_exact

    return [(point, chi_ratio_exact(point).total) for point in points]


@pytest.fixture(scope="module")
def sample(points) -> list:
    """(point, chi_ratio_exact total) at every point. The reference shares no
    code with the kernel, so no kernel-only fault moves it."""
    return _with_reference(points)


def _caught(sample: list) -> tuple:
    """(failing verify checks, box points caught, y = 0 points caught)."""
    failed = tuple(check.name for check in run_verification() if not check.passed)
    box = line = 0
    for point, exact in sample:
        if abs(chi_ratio(point).total - exact) > 1e-9 * abs(exact):
            box += point.y > 0.0
            line += point.y == 0.0
    return failed, box, line


@pytest.mark.parametrize("fault", FAULTS)
def test_each_fault_is_caught_as_the_table_says(fault, sample, monkeypatch):
    if FAULTS[fault] is not None:
        name, make = FAULTS[fault]
        monkeypatch.setattr(kernel, name, make(getattr(kernel, name)))
    assert _caught(sample) == FAULT_TABLE[fault]


@pytest.mark.parametrize("fault", SHARED_FAULTS)
def test_each_shared_fault_is_caught_as_the_table_says(fault, points, monkeypatch):
    for name in ("_closed_form_parts", "_taylor_parts", "_laurent_parts"):
        monkeypatch.setattr(kernel, name, _shifted(getattr(kernel, name), SHARED_FAULTS[fault]))
    monkeypatch.setattr(oracle, "_exact_integrals", _faulty_exact_integrals(fault))
    assert _caught(_with_reference(points)) == SHARED_TABLE[fault]

"""A seeded-fault audit: which checks catch a wrong kernel.

Each fault is a monkeypatch of one kernel name. For each fault, and for the
kernel without one, the catalogue records the verify checks that fail and
how many points of one seeded sample chi_ratio gives more than 1e-9
relative off chi_ratio_exact, counted on y > 0 box points and on the
collisionless line y = 0. The table is pinned, so a kernel change that moves
what a check catches shows it. This is mutation testing (DeMillo, Lipton and
Sayward, "Hints on test data selection", IEEE Computer 11(4), 1978).
"""

import math
import random

import pytest

from diamag import kernel
from diamag.core import DimensionlessPoint
from diamag.kernel import chi_ratio
from diamag.verify import run_verification


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


# fault -> (the kernel name it patches, its faulty value from the original)
FAULTS = {
    "none": None,
    "lower-branch-side": ("_branch_log", _lower_branch_side),
    "laurent-residual-16": ("_quant_laurent", _laurent_residual_over_16),
    "classical-sign": ("_closed_form_parts", _classical_sign_flipped),
    "cancel-digits-12": ("_CANCEL_DIGITS", lambda digits: 12.0),
}

GRID_CHECKS = ("closed-form-vs-quadrature", "kinetic-integral-consistency")

# fault -> (verify checks that fail, box points caught, y = 0 points caught).
# Verify passes all 7 checks with the branch side wrong, which only the
# collisionless line shows, and with the guard at 12 digits, which only the
# box shows; both grid checks see the other two faults
FAULT_TABLE = {
    "none": ((), 0, 0),
    "lower-branch-side": ((), 0, 6),
    "laurent-residual-16": (GRID_CHECKS, 50, 0),
    "classical-sign": (GRID_CHECKS, 47, 7),
    "cancel-digits-12": ((), 6, 1),
}


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


@pytest.fixture(scope="module")
def sample() -> list:
    """(point, chi_ratio_exact total) at 300 points log-uniform over the box
    x in {0} or [1e-12, 1e6], y in [1e-14, 1e6], q in [1e-9, 1e4], 30 % of
    them at x = 0, then 20 on the line y = 0 < x, x and q over the same box.
    The reference shares no code with the kernel, so no fault moves it."""
    from diamag.oracle import chi_ratio_exact

    rng = random.Random(0)
    points = []
    for _ in range(300):
        x = 0.0 if rng.random() < 0.3 else _loguniform(rng, 1e-12, 1e6)
        y, q = _loguniform(rng, 1e-14, 1e6), _loguniform(rng, 1e-9, 1e4)
        points.append(DimensionlessPoint(x, y, q))
    for _ in range(20):
        x, q = _loguniform(rng, 1e-12, 1e6), _loguniform(rng, 1e-9, 1e4)
        points.append(DimensionlessPoint(x, 0.0, q))
    return [(point, chi_ratio_exact(point).total) for point in points]


@pytest.mark.parametrize("fault", FAULTS)
def test_each_fault_is_caught_as_the_table_says(fault, sample, monkeypatch):
    if FAULTS[fault] is not None:
        name, make = FAULTS[fault]
        monkeypatch.setattr(kernel, name, make(getattr(kernel, name)))
    failed = tuple(check.name for check in run_verification() if not check.passed)
    box = line = 0
    for point, exact in sample:
        if abs(chi_ratio(point).total - exact) > 1e-9 * abs(exact):
            box += point.y > 0.0
            line += point.y == 0.0
    assert (failed, box, line) == FAULT_TABLE[fault]

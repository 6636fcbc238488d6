"""Cross-validation suite: closed forms against independent oracles.

Each check compares the fast evaluation path against a slower independent
computation (high-precision quadrature, the kinetic-integral form, the
velocity-space moment integrals) or against an analytically known limit.
Checks report one measured number against one bound so failures are
quantitative, not binary surprises.

The default bounds are the component acceptance thresholds. A caller-supplied
tolerance replaces the bound of every discrepancy-type check; ordering and
interval checks keep their structural pass conditions.

The three oracle checks import ``diamag.oracle`` when they run, so importing
this module, and the CLI that imports it, does not. None of them loads
mpmath: the contour oracle runs on Python integers, and only the exact
reference, which no check calls, imports mpmath.

The tests' one honesty measurement, ``_honesty_ratio``, lives here too.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from .core import (
    ChiResult,
    DimensionlessPoint,
    FrozenRecord,
    landau_chi_magneton_form,
    landau_chi_physical,
)
from .errors import ValidationError
from .kernel import chi_ratio, chi_static_pv

__all__ = ["CheckResult", "GRID_X", "GRID_Y", "GRID_Q", "run_verification", "render_report"]

GRID_X = (0.0, 0.1, 0.5)
GRID_Y = (1e-3, 1e-2, 0.1, 1.0)
GRID_Q = (0.05, 0.1, 0.5, 1.0, 1.9)

_FOUR_PI = 4.0 * math.pi


class CheckResult(FrozenRecord):
    """One check's verdict: its measured number against its bound."""

    _fields = ("name", "passed", "measured", "bound", "detail")

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name}: measured {self.measured:.3e}"
            f" (bound {self.bound:.3e}) {self.detail}"
        )


def _grid_points() -> List[DimensionlessPoint]:
    return [
        DimensionlessPoint(x=x, y=y, q=q)
        for x in GRID_X
        for y in GRID_Y
        for q in GRID_Q
    ]


def _grid_check(name: str, oracle, by_oracle: bool, bound: float, detail: str) -> CheckResult:
    """The largest |kernel total - oracle total| over the grid, each relative
    to the oracle's total (by_oracle) or the kernel's, at least 1e-30."""
    worst = 0.0
    for point in _grid_points():
        fast = chi_ratio(point).total
        slow = oracle(point).total
        scale = max(abs(slow if by_oracle else fast), 1e-30)
        worst = max(worst, abs(fast - slow) / scale)
    return CheckResult(name=name, passed=worst < bound, measured=worst, bound=bound, detail=detail)


def _check_quadrature_grid(bound: float) -> CheckResult:
    from .oracle import chi_ratio_quadrature

    detail = f"max rel deviation over {len(GRID_X) * len(GRID_Y) * len(GRID_Q)} grid points"
    return _grid_check("closed-form-vs-quadrature", chi_ratio_quadrature, True, bound, detail)


def _check_kinetic_grid(bound: float) -> CheckResult:
    from .oracle import chi_from_kinetic

    detail = "max rel deviation, velocity-moment form vs closed form"
    return _grid_check("kinetic-integral-consistency", chi_from_kinetic, False, bound, detail)


def _check_j_integrals(bound: float) -> CheckResult:
    from .oracle import j_integrals_nascent_delta

    j = j_integrals_nascent_delta()
    dev = max(
        abs(j.j1 - _FOUR_PI),
        abs(j.j2 - _FOUR_PI),
        abs(j.landau_combination + 2.0 * _FOUR_PI),
    )
    return CheckResult(
        name="velocity-moment-integrals",
        passed=dev < bound,
        measured=dev,
        bound=bound,
        detail=f"J1, J2 target 4*pi = {_FOUR_PI:.15f}, combination target -8*pi",
    )


def _check_landau_limit(bound: float) -> CheckResult:
    dev = abs(chi_static_pv(1e-3) - 1.0)
    forms_dev = 0.0
    for k in range(9):
        vf = 1e7 * 10.0 ** (k / 4.0)
        a = landau_chi_physical(vf)
        b = landau_chi_magneton_form(vf)
        forms_dev = max(forms_dev, abs(a - b) / abs(a))
    reference = landau_chi_physical(1.57e8)
    measured = max(dev, forms_dev)
    return CheckResult(
        name="landau-limit",
        passed=measured < bound,
        measured=measured,
        bound=bound,
        detail=(
            "static ratio at q = 1e-3 vs 1; both chi_L closed forms agree"
            f" (reference chi_L = {reference:.6e})"
        ),
    )


def _suppression_ratio(q: float, y: float) -> float:
    return abs(chi_ratio(DimensionlessPoint(x=0.0, y=y, q=q)).total)


def _check_suppression_smallq(bound: float) -> CheckResult:
    value = _suppression_ratio(1e-6, 1e-3)
    return CheckResult(
        name="suppression-small-q",
        passed=value < bound,
        measured=value,
        bound=bound,
        detail="|chi/chi_L| at x = 0, y = 1e-3, q = 1e-6",
    )


def _check_suppression_plateau() -> CheckResult:
    value = _suppression_ratio(0.5, 1e-3)
    passed = 0.90 <= value <= 0.99
    return CheckResult(
        name="suppression-plateau",
        passed=passed,
        measured=value,
        bound=0.99,
        detail="|chi/chi_L| at x = 0, y = 1e-3, q = 0.5 must sit in [0.90, 0.99]",
    )


def _half_crossing(y: float) -> float:
    """Smallest q in [1e-7, 0.1] where the static ratio reaches 1/2."""
    lo, hi = 1e-7, 0.1
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        bracket = (mid, hi) if _suppression_ratio(mid, y) < 0.5 else (lo, mid)
        if bracket == (lo, hi):
            break  # every later step would repeat this one
        lo, hi = bracket
    return math.sqrt(lo * hi)


def _check_suppression_halfcross() -> CheckResult:
    ys = (1e-6, 1e-5, 1e-4, 1e-3)
    crossings = [_half_crossing(y) for y in ys]
    ordered = all(a < b for a, b in zip(crossings, crossings[1:]))
    spread = min(b / a for a, b in zip(crossings, crossings[1:]))
    return CheckResult(
        name="suppression-half-crossing",
        passed=ordered,
        measured=spread,
        bound=1.0,
        detail=(
            "half-height q must grow with collision rate; crossings "
            + ", ".join(f"{c:.3e}" for c in crossings)
        ),
    )


def _honesty_ratio(result: ChiResult, exact: complex) -> float:
    """|result.total - exact| / (result.err_est + 4 eps |exact|): at most 1
    where result is honest, 0 where both sides are 0, inf where only the
    error is not. For two positive doubles a/b rounds to at most 1 exactly
    when a <= b, so ratio <= 1 is the bound written out by hand."""
    error = abs(result.total - exact)
    allowed = result.err_est + 4.0 * 2.0**-52 * abs(exact)
    if allowed == 0.0:
        return 0.0 if error == 0.0 else math.inf
    return error / allowed


def _honesty(points: Sequence[DimensionlessPoint]) -> List[float]:
    """_honesty_ratio of chi_ratio against chi_ratio_exact at each point."""
    from .oracle import chi_ratio_exact

    return [_honesty_ratio(chi_ratio(p), chi_ratio_exact(p).total) for p in points]


# the default bounds of the five discrepancy-type checks, in the order they run
_DEFAULT_BOUNDS = (1e-8, 1e-6, 1e-4, 1e-6, 1e-6)


def run_verification(tol: Optional[float] = None) -> List[CheckResult]:
    """Run every check. tol, when given, replaces all discrepancy bounds.

    Raises ValidationError, before any check runs, unless tol is None or a
    finite number > 0.
    """
    if tol is not None and not (math.isfinite(tol) and tol > 0.0):
        raise ValidationError(f"tol must be a finite number > 0, got {tol!r}")
    grid, kinetic, j, landau, smallq = _DEFAULT_BOUNDS if tol is None else (tol,) * 5
    return [
        _check_quadrature_grid(grid),
        _check_kinetic_grid(kinetic),
        _check_j_integrals(j),
        _check_landau_limit(landau),
        _check_suppression_smallq(smallq),
        _check_suppression_plateau(),
        _check_suppression_halfcross(),
    ]


def render_report(results: List[CheckResult]) -> str:
    lines = [result.line() for result in results]
    failed = sum(1 for result in results if not result.passed)
    lines.append(
        f"{len(results) - failed}/{len(results)} checks passed"
        if failed
        else f"all {len(results)} checks passed"
    )
    return "\n".join(lines)

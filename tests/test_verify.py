"""The built-in verification checklist used by the verify subcommand."""

import math
import random

import pytest

from diamag import CheckResult, RegimeTag, ValidationError, render_report, run_verification
from diamag import verify
from diamag.core import ChiResult


# What `diamag verify` prints, byte for byte: each check's name, verdict,
# measured value, bound and detail, and the count. The oracle's arithmetic
# may change how fast these numbers come, never the numbers.
DEFAULT_REPORT = """\
PASS closed-form-vs-quadrature: measured 5.091e-12 (bound 1.000e-08) max rel deviation over 60 grid points
PASS kinetic-integral-consistency: measured 6.079e-10 (bound 1.000e-06) max rel deviation, velocity-moment form vs closed form
PASS velocity-moment-integrals: measured 2.412e-07 (bound 1.000e-04) J1, J2 target 4*pi = 12.566370614359172, combination target -8*pi
PASS landau-limit: measured 5.000e-08 (bound 1.000e-06) static ratio at q = 1e-3 vs 1; both chi_L closed forms agree (reference chi_L = -3.226735e-07)
PASS suppression-small-q: measured 2.000e-13 (bound 1.000e-06) |chi/chi_L| at x = 0, y = 1e-3, q = 1e-6
PASS suppression-plateau: measured 9.827e-01 (bound 9.900e-01) |chi/chi_L| at x = 0, y = 1e-3, q = 0.5 must sit in [0.90, 0.99]
PASS suppression-half-crossing: measured 1.000e+01 (bound 1.000e+00) half-height q must grow with collision rate; crossings 3.657e-06, 3.657e-05, 3.657e-04, 3.657e-03
all 7 checks passed"""


def test_default_report_is_frozen():
    assert render_report(run_verification()) == DEFAULT_REPORT


def test_impossible_tolerance_fails_and_reports_counts():
    results = run_verification(tol=1e-30)
    failed = [r for r in results if not r.passed]
    assert failed
    report = render_report(results)
    passed_count = sum(r.passed for r in results)
    assert f"{passed_count}/{len(results)} checks passed" in report
    assert any(line.startswith("FAIL ") for line in report.splitlines())


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_bad_tolerance_is_rejected_before_any_check(tol, monkeypatch):
    def first_check(bound):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "_check_quadrature_grid", first_check)
    with pytest.raises(ValidationError, match="tol"):
        run_verification(tol=tol)


def test_check_result_line_shape():
    line = CheckResult("demo", True, 1.5e-9, 1e-8, "extra words").line()
    assert line == "PASS demo: measured 1.500e-09 (bound 1.000e-08) extra words"


def test_half_crossing_stops_when_the_bisection_stops_moving(monkeypatch):
    # once a step leaves (lo, hi) unchanged every later step repeats it, so
    # stopping there gives the crossing of the plain 80-step bisection
    ratio = verify._suppression_ratio

    def plain_bisection(y: float) -> float:
        lo, hi = 1e-7, 0.1
        for _ in range(80):
            mid = math.sqrt(lo * hi)
            if ratio(mid, y) < 0.5:
                lo = mid
            else:
                hi = mid
        return math.sqrt(lo * hi)

    calls = []

    def counting(q: float, y: float) -> float:
        calls.append(q)
        return ratio(q, y)

    monkeypatch.setattr(verify, "_suppression_ratio", counting)
    for y in (1e-6, 1e-5, 1e-4, 1e-3):
        calls.clear()
        crossing = verify._half_crossing(y)
        assert crossing == plain_bisection(y)
        assert len(calls) < 80


def test_honesty_ratio_is_at_most_one_exactly_where_the_bound_holds():
    # with exact = 0 the error is |total| and the allowance err_est: the
    # ratio is at most 1 for the totals up to err_est and above 1 from the
    # next double on, normal, subnormal and zero allowances alike
    rng = random.Random(20)
    allowances = [0.0, 5e-324, 2.0**-1022, 1.0, math.nextafter(2.0, 0.0)]
    allowances += [10.0 ** rng.uniform(-320.0, 300.0) for _ in range(1000)]
    for allowed in allowances:
        below, above = math.nextafter(allowed, 0.0), math.nextafter(allowed, math.inf)
        for total, honest in ((below, True), (allowed, True), (above, False)):
            result = ChiResult.from_parts(0j, complex(total), RegimeTag.CLOSED_FORM, allowed)
            assert (verify._honesty_ratio(result, 0.0) <= 1.0) is honest, (total, allowed)


"""The built-in verification checklist used by the verify subcommand."""

import math

import pytest

from diamag import CheckResult, ValidationError, render_report, run_verification
from diamag import verify


@pytest.fixture(scope="module")
def results():
    return run_verification()


def test_all_checks_pass_with_defaults(results):
    assert len(results) == 7
    assert all(r.passed for r in results)
    names = [r.name for r in results]
    assert len(set(names)) == len(names)
    for r in results:
        assert math.isfinite(r.measured)


def test_grid_check_meets_its_bound(results):
    grid = {r.name: r for r in results}["closed-form-vs-quadrature"]
    assert grid.measured < 1e-8
    assert grid.bound == 1e-8


def test_velocity_moment_check_states_target(results):
    j = {r.name: r for r in results}["velocity-moment-integrals"]
    assert "12.566370614359172" in j.detail


def test_report_format(results):
    report = render_report(results)
    lines = report.splitlines()
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1] == f"all {len(results)} checks passed"
    # one line per check, measured and bound rendered in scientific notation
    assert "measured" in lines[0] and "bound" in lines[0]


# What `diamag verify` prints, byte for byte. The oracle's arithmetic may
# change how fast these numbers come, never the numbers.
DEFAULT_REPORT = """\
PASS closed-form-vs-quadrature: measured 5.091e-12 (bound 1.000e-08) max rel deviation over 60 grid points
PASS kinetic-integral-consistency: measured 6.079e-10 (bound 1.000e-06) max rel deviation, velocity-moment form vs closed form
PASS velocity-moment-integrals: measured 2.412e-07 (bound 1.000e-04) J1, J2 target 4*pi = 12.566370614359172, combination target -8*pi
PASS landau-limit: measured 5.000e-08 (bound 1.000e-06) static ratio at q = 1e-3 vs 1; both chi_L closed forms agree (reference chi_L = -3.226735e-07)
PASS suppression-small-q: measured 2.000e-13 (bound 1.000e-06) |chi/chi_L| at x = 0, y = 1e-3, q = 1e-6
PASS suppression-plateau: measured 9.827e-01 (bound 9.900e-01) |chi/chi_L| at x = 0, y = 1e-3, q = 0.5 must sit in [0.90, 0.99]
PASS suppression-half-crossing: measured 1.000e+01 (bound 1.000e+00) half-height q must grow with collision rate; crossings 3.657e-06, 3.657e-05, 3.657e-04, 3.657e-03
all 7 checks passed"""


def test_default_report_is_frozen(results):
    assert render_report(results) == DEFAULT_REPORT


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

"""Adaptive Gauss-Kronrod integration of complex integrands."""

import cmath
import math

import pytest

from diamag import quadrature
from diamag.errors import ConvergenceError, ValidationError
from diamag.quadrature import integrate_complex_adaptive


def test_polynomial_exact():
    value, err = integrate_complex_adaptive(lambda t: 1.0 - t * t, -1.0, 1.0)
    assert abs(value - 4.0 / 3.0) < 5e-15
    assert abs(value - 4.0 / 3.0) <= max(err, 5e-15)


def test_odd_integrand_cancels_exactly():
    value, _ = integrate_complex_adaptive(lambda t: t * (1.0 - t * t), -1.0, 1.0)
    assert value == 0j


def test_complex_pole_off_axis():
    # int 1/(t - c) dt = log(1 - c) - log(-1 - c), c in the upper half-plane
    c = complex(0.3, 0.01)
    value, err = integrate_complex_adaptive(
        lambda t: 1.0 / (t - c), -1.0, 1.0, breakpoints=(0.25, 0.3, 0.35)
    )
    exact = cmath.log(1.0 - c) - cmath.log(-1.0 - c)
    assert abs(value - exact) < 1e-10
    assert abs(value - exact) <= max(err, 1e-13)


def test_oscillatory_integrand():
    value, err = integrate_complex_adaptive(
        lambda t: cmath.exp(1j * 40.0 * t), 0.0, 1.0
    )
    exact = (cmath.exp(40j) - 1.0) / 40j
    assert abs(value - exact) <= max(err, 1e-12)


def test_error_estimate_is_honest():
    # a mix of shapes; the reported gauge must bound the true error
    cases = [
        (lambda t: (1.0 - t * t) ** 2, -1.0, 1.0, 16.0 / 15.0),
        (lambda t: math.exp(-t), 0.0, 3.0, 1.0 - math.exp(-3.0)),
        (lambda t: 1.0 / (t * t + 0.01), -1.0, 1.0, 2.0 / 0.1 * math.atan(1.0 / 0.1)),
    ]
    for f, lo, hi, exact in cases:
        value, err = integrate_complex_adaptive(f, lo, hi)
        assert abs(value - exact) <= max(err, 1e-14) * 1.01


def test_breakpoints_outside_range_are_ignored():
    value, _ = integrate_complex_adaptive(
        lambda t: 1.0 - t * t, -1.0, 1.0, breakpoints=(-3.0, 0.5, 2.0)
    )
    assert abs(value - 4.0 / 3.0) < 5e-15


def test_breakpoints_must_be_finite():
    with pytest.raises(ValidationError):
        integrate_complex_adaptive(lambda t: t, 0.0, 1.0, breakpoints=(float("nan"),))


def test_rejects_reversed_bounds():
    with pytest.raises(ValidationError):
        integrate_complex_adaptive(lambda t: t, 1.0, 0.0)


def test_subdivision_budget_raises_with_partial_value(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 64)
    with pytest.raises(ConvergenceError) as excinfo:
        integrate_complex_adaptive(
            lambda t: 1.0 / (t * t + 1e-6), -1.0, 1.0, abs_tol=1e-300, rel_tol=1e-300
        )
    partial = excinfo.value.value
    exact = 2.0 / 1e-3 * math.atan(1.0 / 1e-3)
    assert abs(partial - exact) / exact < 1e-6
    assert excinfo.value.subdivisions == 64

"""Adaptive Gauss-Kronrod integration of complex integrands."""

import cmath
import math
import random

import pytest

from diamag import quadrature
from diamag.errors import ConvergenceError, ValidationError
from diamag.oracle import _kinetic_integrands
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


# The Gauss-Kronrod panel written as one loop over all 15 nodes with a test
# for the centre: the reference that quadrature._panel is checked against.
_KRONROD = (
    # (node, kronrod weight, gauss weight or None)
    (0.991455371120813, 0.022935322010529, None),
    (0.949107912342759, 0.063092092629979, 0.129484966168870),
    (0.864864423359769, 0.104790010322250, None),
    (0.741531185599394, 0.140653259715525, 0.279705391489277),
    (0.586087235467691, 0.169004726639267, None),
    (0.405845151377397, 0.190350578064785, 0.381830050505119),
    (0.207784955007898, 0.204432940075298, None),
    (0.0, 0.209482141084728, 0.417959183673469),
)


def reference_panel(f, lo, hi):
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    kron = complex(0.0)
    gauss = complex(0.0)
    for node, wk, wg in _KRONROD:
        if node == 0.0:
            fv = f(mid)
            kron += wk * fv
            gauss += wg * fv
            continue
        pair = f(mid + half * node) + f(mid - half * node)
        kron += wk * pair
        if wg is not None:
            gauss += wg * pair
    kron *= half
    gauss *= half
    return kron, abs(kron - gauss)


def test_panel_is_the_reference_on_kinetic_integrands():
    # seeded panels of the kinetic oracle's three integrands, wide and narrow,
    # on and off the resonances; bits compared through float.hex, signed
    # zeros included
    rng = random.Random(20)
    for _ in range(300):
        x = 0.0 if rng.random() < 0.3 else 10.0 ** rng.uniform(-3.0, 0.5)
        y = 10.0 ** rng.uniform(-4.0, 1.0)
        q = 10.0 ** rng.uniform(-2.0, 0.5)
        reach = 1.0 + 0.5 * q
        for f in _kinetic_integrands(x, y, q):
            lo = rng.uniform(-reach, reach)
            hi = lo + 10.0 ** rng.uniform(-6.0, 0.3)
            got, want = quadrature._panel(f, lo, hi), reference_panel(f, lo, hi)
            bits = [(v.real.hex(), v.imag.hex()) for v in (got[0], want[0])]
            assert bits[0] == bits[1] and got[1].hex() == want[1].hex(), (x, y, q, lo, hi)

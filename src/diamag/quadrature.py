"""Adaptive Gauss-Kronrod quadrature for complex-valued integrands.

A 7-point Gauss rule embedded in a 15-point Kronrod extension gives two
estimates per panel whose difference is the error gauge. Panels live in a
max-heap keyed by that gauge; the worst panel is bisected until the summed
gauge meets the tolerance. Plain |K15 - G7| is, for the smooth integrands
this package feeds it, a conservative bound on the true panel error, which
is what makes the reported estimate honest rather than optimistic.

Kept dependency-free on purpose: the independent checks in the oracle module
must not share machinery with anything they are checking.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Iterable

from .errors import ConvergenceError, ValidationError

__all__ = ["integrate_complex_adaptive"]

# hard budget of panel bisections per integral
_MAX_SUBDIVISIONS = 2000

# 15-point Kronrod nodes on [-1, 1]: the seven symmetric pairs +-node,
# outermost first, and the centre 0.
_NODES = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
)
# The Kronrod weights of the pairs, in the same order, and the centre's last.
_KRONROD_WEIGHTS = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
# The embedded 7-point Gauss rule's weights: those of the second, fourth and
# sixth pair, and the centre's last.
_GAUSS_WEIGHTS = (0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469)


def _panel(f: Callable[[float], complex], lo: float, hi: float) -> tuple:
    """One Gauss-Kronrod pass over [lo, hi]: (value, error gauge).

    The pairs are summed outward-in and the centre last, in both rules, each
    sum starting from complex 0, which sets the signs of its zero parts.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    n0, n1, n2, n3, n4, n5, n6 = _NODES
    k0, k1, k2, k3, k4, k5, k6, kc = _KRONROD_WEIGHTS
    g1, g3, g5, gc = _GAUSS_WEIGHTS
    p0 = f(mid + half * n0) + f(mid - half * n0)
    p1 = f(mid + half * n1) + f(mid - half * n1)
    p2 = f(mid + half * n2) + f(mid - half * n2)
    p3 = f(mid + half * n3) + f(mid - half * n3)
    p4 = f(mid + half * n4) + f(mid - half * n4)
    p5 = f(mid + half * n5) + f(mid - half * n5)
    p6 = f(mid + half * n6) + f(mid - half * n6)
    centre = f(mid)
    kron = (
        0j + k0 * p0 + k1 * p1 + k2 * p2 + k3 * p3 + k4 * p4 + k5 * p5 + k6 * p6 + kc * centre
    ) * half
    gauss = (0j + g1 * p1 + g3 * p3 + g5 * p5 + gc * centre) * half
    return kron, abs(kron - gauss)


def integrate_complex_adaptive(
    f: Callable[[float], complex],
    a: float,
    b: float,
    breakpoints: Iterable[float] = (),
    *,
    abs_tol: float = 1e-13,
    rel_tol: float = 1e-11,
) -> tuple:
    """Integrate a complex-valued f over [a, b]; returns (value, err).

    err is the summed per-panel |K15 - G7| gauge at exit and bounds the true
    error for integrands smooth on each panel. Known kinks or near-poles
    belong in breakpoints (values outside (a, b) are ignored); each seeds an
    initial panel boundary so no rule straddles them.

    Subdivision stops when err <= max(abs_tol, rel_tol * |value|). Exceeding
    _MAX_SUBDIVISIONS raises ConvergenceError carrying the best estimate.
    """
    if not (math.isfinite(a) and math.isfinite(b)) or a >= b:
        raise ValidationError("integration bounds must be finite with a < b")
    edges = [a, b]
    for p in breakpoints:
        if not math.isfinite(p):
            raise ValidationError("breakpoints must be finite")
        if a < p < b:
            edges.append(p)
    edges.sort()

    heap = []
    counter = 0
    total = complex(0.0)
    total_err = 0.0
    for lo, hi in zip(edges, edges[1:]):
        if lo == hi:
            continue
        value, err = _panel(f, lo, hi)
        heapq.heappush(heap, (-err, counter, lo, hi, value))
        counter += 1
        total += value
        total_err += err

    subdivisions = 0
    while total_err > max(abs_tol, rel_tol * abs(total)):
        if subdivisions >= _MAX_SUBDIVISIONS:
            raise ConvergenceError(
                "quadrature failed to reach tolerance",
                value=total,
                err=total_err,
                subdivisions=subdivisions,
            )
        neg_err, _, lo, hi, value = heapq.heappop(heap)
        total -= value
        total_err += neg_err  # running sum loses the popped gauge
        mid = 0.5 * (lo + hi)
        for clo, chi_ in ((lo, mid), (mid, hi)):
            cval, cerr = _panel(f, clo, chi_)
            heapq.heappush(heap, (-cerr, counter, clo, chi_, cval))
            counter += 1
            total += cval
            total_err += cerr
        subdivisions += 1

    # resum from panels: the incremental running totals accumulate rounding
    total = complex(0.0)
    total_err = 0.0
    for neg_err, _, _, _, value in heap:
        total += value
        total_err -= neg_err
    return total, total_err

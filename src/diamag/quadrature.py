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

# 15-point Kronrod nodes on [-1, 1]: the seven symmetric pairs +-node and
# the centre, with their weights; pairs with a gauss weight and the centre
# also belong to the embedded 7-point rule.
_KRONROD_PAIRS = (
    # (node, kronrod weight, gauss weight or None)
    (0.991455371120813, 0.022935322010529, None),
    (0.949107912342759, 0.063092092629979, 0.129484966168870),
    (0.864864423359769, 0.104790010322250, None),
    (0.741531185599394, 0.140653259715525, 0.279705391489277),
    (0.586087235467691, 0.169004726639267, None),
    (0.405845151377397, 0.190350578064785, 0.381830050505119),
    (0.207784955007898, 0.204432940075298, None),
)
# the centre node 0's kronrod and gauss weights
_KRONROD_CENTRE = (0.209482141084728, 0.417959183673469)


def _panel(f: Callable[[float], complex], lo: float, hi: float) -> tuple:
    """One Gauss-Kronrod pass over [lo, hi]: (value, error gauge).

    The pairs are summed outward-in and the centre last, in both rules.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    kron = gauss = complex(0.0)
    for node, wk, wg in _KRONROD_PAIRS:
        pair = f(mid + half * node) + f(mid - half * node)
        kron += wk * pair
        if wg is not None:
            gauss += wg * pair
    wk, wg = _KRONROD_CENTRE
    centre = f(mid)
    kron += wk * centre
    gauss += wg * centre
    kron *= half
    gauss *= half
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

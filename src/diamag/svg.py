"""Dependency-free SVG line charts for sweep output.

Fixed 960x640 canvas, optional logarithmic x axis, linear y axis, one
polyline per curve. Output is plain SVG 1.1 text assembled by string
formatting; coordinates are rounded to 1/100 px so identical data produces
identical bytes.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

__all__ = ["Curve", "render_line_chart", "write_svg"]

WIDTH = 960
HEIGHT = 640
MARGIN_LEFT = 90
MARGIN_RIGHT = 30
MARGIN_TOP = 50
MARGIN_BOTTOM = 70

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

Curve = Tuple[str, Sequence[Tuple[float, float]]]


def _escape(text: str) -> str:
    # the XML text escapes, ampersand first
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _nice_step(span: float) -> float:
    # smallest of {1, 2, 5} * 10^k giving at most ~6 intervals
    raw = span / 6.0
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0):
        if magnitude * mult >= raw:
            return magnitude * mult
    return magnitude * 10.0


def _linear_ticks(lo: float, hi: float) -> List[float]:
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + step * 1e-9:
        ticks.append(0.0 if abs(value) < step * 1e-9 else value)
        value += step
    return ticks


def _decade_ticks(lo: float, hi: float) -> List[float]:
    ticks = []
    exponent = math.ceil(math.log10(lo) - 1e-12)
    while 10.0**exponent <= hi * (1 + 1e-12):
        ticks.append(10.0**exponent)
        exponent += 1
    return ticks


def _tick_label(value: float, log_axis: bool) -> str:
    if log_axis:
        return "1e%d" % round(math.log10(value))
    return "%g" % value


def render_line_chart(
    curves: Sequence[Curve],
    x_log: bool = True,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render curves [(label, [(x, y), ...]), ...] to an SVG string.

    Non-finite samples and, on a log axis, x <= 0 samples are dropped.
    Raises ValueError when no plottable point remains.
    """
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    cleaned: List[Tuple[str, List[Tuple[float, float]]]] = []
    for label, points in curves:
        kept = [
            (px, py)
            for px, py in points
            if math.isfinite(px) and math.isfinite(py) and (not x_log or px > 0.0)
        ]
        cleaned.append((label, kept))
    all_points = [pt for _, pts in cleaned for pt in pts]
    if not all_points:
        raise ValueError("no plottable data points")

    xs = [p[0] for p in all_points]
    ys = [p[1] for p in all_points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_lo == x_hi:
        x_lo, x_hi = (x_lo * 0.5, x_hi * 2.0) if x_log else (x_lo - 0.5, x_hi + 0.5)
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def sx(value: float) -> float:
        if x_log:
            frac = (math.log10(value) - math.log10(x_lo)) / (
                math.log10(x_hi) - math.log10(x_lo)
            )
        else:
            frac = (value - x_lo) / (x_hi - x_lo)
        return MARGIN_LEFT + frac * plot_w

    def sy(value: float) -> float:
        frac = (value - y_lo) / (y_hi - y_lo)
        return MARGIN_TOP + (1.0 - frac) * plot_h

    parts: List[str] = []
    parts.append(
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (WIDTH, HEIGHT, WIDTH, HEIGHT)
    )
    parts.append('<rect width="%d" height="%d" fill="#ffffff"/>' % (WIDTH, HEIGHT))
    parts.append(
        '<rect x="%d" y="%d" width="%d" height="%d" fill="none" '
        'stroke="#333333" stroke-width="1"/>'
        % (MARGIN_LEFT, MARGIN_TOP, plot_w, plot_h)
    )

    x_ticks = _decade_ticks(x_lo, x_hi) if x_log else _linear_ticks(x_lo, x_hi)
    for tick in x_ticks:
        px = sx(tick)
        parts.append(
            '<line x1="%.2f" y1="%d" x2="%.2f" y2="%d" stroke="#cccccc" '
            'stroke-width="0.5"/>'
            % (px, MARGIN_TOP, px, MARGIN_TOP + plot_h)
        )
        parts.append(
            '<text x="%.2f" y="%d" font-size="13" text-anchor="middle" '
            'fill="#333333">%s</text>'
            % (px, MARGIN_TOP + plot_h + 20, _escape(_tick_label(tick, x_log)))
        )
    for tick in _linear_ticks(y_lo, y_hi):
        py = sy(tick)
        parts.append(
            '<line x1="%d" y1="%.2f" x2="%d" y2="%.2f" stroke="#cccccc" '
            'stroke-width="0.5"/>'
            % (MARGIN_LEFT, py, MARGIN_LEFT + plot_w, py)
        )
        parts.append(
            '<text x="%d" y="%.2f" font-size="13" text-anchor="end" '
            'fill="#333333">%s</text>'
            % (MARGIN_LEFT - 8, py + 4, _escape(_tick_label(tick, False)))
        )

    for index, (label, points) in enumerate(cleaned):
        if not points:
            continue
        color = _PALETTE[index % len(_PALETTE)]
        coords = " ".join("%.2f,%.2f" % (sx(px), sy(py)) for px, py in points)
        parts.append(
            '<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"/>'
            % (coords, color)
        )
        legend_y = MARGIN_TOP + 18 + 20 * index
        legend_x = MARGIN_LEFT + plot_w - 150
        parts.append(
            '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="2"/>'
            % (legend_x, legend_y - 4, legend_x + 26, legend_y - 4, color)
        )
        parts.append(
            '<text x="%d" y="%d" font-size="13" fill="#333333">%s</text>'
            % (legend_x + 32, legend_y, _escape(label))
        )

    if title:
        parts.append(
            '<text x="%d" y="30" font-size="17" text-anchor="middle" '
            'fill="#111111">%s</text>' % (WIDTH // 2, _escape(title))
        )
    if x_label:
        parts.append(
            '<text x="%d" y="%d" font-size="14" text-anchor="middle" '
            'fill="#111111">%s</text>'
            % (MARGIN_LEFT + plot_w // 2, HEIGHT - 18, _escape(x_label))
        )
    if y_label:
        parts.append(
            '<text x="22" y="%d" font-size="14" text-anchor="middle" '
            'fill="#111111" transform="rotate(-90 22 %d)">%s</text>'
            % (MARGIN_TOP + plot_h // 2, MARGIN_TOP + plot_h // 2, _escape(y_label))
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(svg_text: str, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(svg_text.encode("utf-8"))

"""Sweep grids, CSV serialization, and the SVG renderer."""

import hashlib
import math
import xml.etree.ElementTree as ET

import pytest

from diamag import (
    CSV_HEADER,
    ChiResult,
    DimensionlessPoint,
    FIGURE1_POINTS_PER_CURVE,
    FIGURE1_Q_RANGE,
    FIGURE1_Y_VALUES,
    OutputRow,
    RegimeTag,
    SweepSpec,
    ValidationError,
    chi_from_kinetic,
    chi_ratio,
    chi_ratio_quadrature,
    figure1_rows,
    format_float,
    render_line_chart,
    rows_to_csv,
    run_sweep,
    write_csv,
    write_svg,
)
from diamag.svg import HEIGHT, MARGIN_BOTTOM, MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, WIDTH, _nice_step

EXPECTED_HEADER = (
    "q,x,y,chi_total_re,chi_total_im,chi_classic_re,chi_classic_im,"
    "chi_quant_re,chi_quant_im,method,err_est"
)


def test_csv_header_is_frozen():
    assert CSV_HEADER == EXPECTED_HEADER


def test_method_column_names_one_tag_or_the_series_family():
    # the oracles report QUADRATURE; the CSV method column writes both series
    # as series-small-q, as figure1's pinned bytes have them, and every other
    # tag as its value
    point = DimensionlessPoint(0.0, 0.1, 1e-2)
    for oracle in (chi_ratio_quadrature, chi_from_kinetic):
        assert oracle(point).method is RegimeTag.QUADRATURE
    series = {RegimeTag.TAYLOR_SERIES, RegimeTag.LAURENT_SERIES}
    for tag in RegimeTag:
        row = OutputRow.from_result(point, ChiResult.from_parts(1j, 0j, tag))
        assert row.method == ("series-small-q" if tag in series else tag.value)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(axis="w", lo=0.1, hi=1.0, points=5),
        dict(axis="q", lo=0.1, hi=1.0, points=5, spacing="cubic"),
        dict(axis="q", lo=1.0, hi=0.1, points=5),
        dict(axis="q", lo=0.1, hi=1.0, points=1),
        dict(axis="q", lo=0.0, hi=1.0, points=5, spacing="linear"),
        dict(axis="x", lo=0.0, hi=1.0, points=5, spacing="log"),
        dict(axis="x", lo=-0.5, hi=1.0, points=5, spacing="linear"),
        dict(axis="q", lo=0.1, hi=math.inf, points=5),
        dict(axis="x", lo=0.1, hi=1.0, points=5, fixed_q=0.0),
        dict(axis="q", lo=0.1, hi=1.0, points=5, fixed_y=-1.0),
        dict(axis="q", lo=1.0, hi=2.0, points=2.5),
        dict(axis="q", lo=1.0, hi=2.0, points="3"),
        dict(axis="q", lo=1.0, hi=2.0, points=True),
    ],
)
def test_sweep_spec_rejects_bad_input(kwargs):
    with pytest.raises(ValidationError):
        SweepSpec(**kwargs)


def test_grid_endpoints_are_exact():
    spec = SweepSpec(axis="q", lo=1e-7, hi=2.0, points=37)
    grid = spec.grid()
    assert len(grid) == 37
    assert grid[0] == 1e-7
    assert grid[-1] == 2.0
    assert all(a < b for a, b in zip(grid, grid[1:]))


def test_linear_grid_is_uniform():
    spec = SweepSpec(axis="x", lo=0.0, hi=1.0, points=5, spacing="linear", fixed_y=0.1)
    assert spec.grid() == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_point_at_places_value_on_the_right_axis():
    spec = SweepSpec(axis="y", lo=1e-4, hi=1.0, points=3, fixed_x=0.2, fixed_q=0.7)
    p = spec.point_at(0.05)
    assert (p.x, p.y, p.q) == (0.2, 0.05, 0.7)


@pytest.mark.parametrize("value", [0.1, 1e-300, 2.0, 1.2345678901234567e-5, 0.0])
def test_format_float_round_trips(value):
    assert float(format_float(value)) == value


def test_run_sweep_row_fields_and_determinism():
    spec = SweepSpec(axis="q", lo=0.05, hi=1.9, points=12, fixed_y=1e-3)
    rows, errors = run_sweep(spec)
    assert errors == []
    assert len(rows) == 12
    grid = spec.grid()
    for value, row in zip(grid, rows):
        assert row.q == value
        assert (row.x, row.y) == (0.0, 1e-3)
        assert row.chi_total_im == 0.0
        assert row.method != "error"
    again, _ = run_sweep(spec)
    assert rows_to_csv(rows) == rows_to_csv(again)


def test_run_sweep_marks_points_beyond_double_range_as_errors():
    # q^-3 overflows at the last two points of the sweep
    spec = SweepSpec(axis="q", lo=1e100, hi=1e104, points=5, fixed_x=1e-9, fixed_y=1e-67)
    rows, errors = run_sweep(spec)
    assert errors
    bad = [r for r in rows if r.method == "error"]
    good = [r for r in rows if r.method != "error"]
    assert bad and good
    for r in bad:
        assert (r.chi_total_re, r.chi_total_im, r.err_est) == (0.0, 0.0, 0.0)
    # one line per error row names the point and the exception
    assert len(errors) == len(bad) == 2
    for line, r in zip(errors, bad):
        assert line.startswith(f"x={r.x!r}, y={r.y!r}, q={r.q!r}: DomainError: ")
    # grid stays complete: one row per requested point, errors in place
    assert len(rows) == 5


def test_run_sweep_across_the_collisionless_resonance():
    # y = 0 with the sweep crossing the resonance: every point is served
    spec = SweepSpec(
        axis="x", lo=0.1, hi=0.8, points=8, spacing="linear", fixed_y=0.0, fixed_q=0.5
    )
    rows, errors = run_sweep(spec)
    assert errors == []
    assert len(rows) == 8
    assert all(r.method != "error" for r in rows)


def test_output_row_matches_direct_evaluation():
    p = DimensionlessPoint(0.1, 0.1, 0.5)
    row = OutputRow.from_result(p, chi_ratio(p))
    want = chi_ratio(p)
    assert row.chi_total_re == want.total.real
    assert row.chi_total_im == want.total.imag
    assert row.chi_classic_re == want.classic.real
    assert row.chi_quant_re == want.quant.real
    assert row.method == want.method.value
    line = row.to_csv_line()
    assert len(line.split(",")) == 11
    assert line.split(",")[0] == format_float(0.5)


def test_csv_text_layout():
    spec = SweepSpec(axis="q", lo=0.1, hi=1.0, points=3, fixed_y=0.01)
    rows, _ = run_sweep(spec)
    text = rows_to_csv(rows)
    lines = text.split("\n")
    assert lines[0] == EXPECTED_HEADER
    assert len(lines) == 5 and lines[-1] == ""
    assert "\r" not in text


def test_write_csv_bytes(tmp_path):
    spec = SweepSpec(axis="q", lo=0.1, hi=1.0, points=3, fixed_y=0.01)
    rows, _ = run_sweep(spec)
    out = tmp_path / "sweep.csv"
    write_csv(rows, str(out))
    data = out.read_bytes()
    assert data == rows_to_csv(rows).encode("utf-8")
    assert b"\r" not in data


def test_figure1_shape_and_determinism():
    rows, errors = figure1_rows()
    assert errors == []
    assert len(rows) == len(FIGURE1_Y_VALUES) * FIGURE1_POINTS_PER_CURVE
    per_curve = {}
    for row in rows:
        per_curve.setdefault(row.y, []).append(row)
    assert sorted(per_curve) == sorted(FIGURE1_Y_VALUES)
    for y, curve in per_curve.items():
        assert len(curve) == FIGURE1_POINTS_PER_CURVE
        assert curve[0].q == FIGURE1_Q_RANGE[0]
        assert curve[-1].q == FIGURE1_Q_RANGE[1]
        assert all(r.x == 0.0 for r in curve)
    # curves arrive grouped in ascending y
    boundaries = [row.y for row in rows[:: FIGURE1_POINTS_PER_CURVE]]
    assert boundaries == sorted(FIGURE1_Y_VALUES)
    assert rows_to_csv(rows) == rows_to_csv(figure1_rows()[0])


# sha256 of the figure1 CSV bytes; a change that moves any digit of any row
# must say so and update this value.
FIGURE1_CSV_SHA256 = "decacb8699987acdb9f14311a8fd70c88a43b1f032b69cff0b5e53a7d88a7af0"


def test_figure1_csv_bytes_are_frozen():
    csv_bytes = rows_to_csv(figure1_rows()[0]).encode()
    assert hashlib.sha256(csv_bytes).hexdigest() == FIGURE1_CSV_SHA256


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------


def _render_sample(x_log=True):
    pts_a = [(10.0**k, 0.5 + 0.1 * k) for k in range(-3, 1)]
    pts_b = [(10.0**k, 0.9 - 0.05 * k) for k in range(-3, 1)]
    return render_line_chart(
        [("first", pts_a), ("second", pts_b)],
        x_log=x_log,
        title="sample",
        x_label="q",
        y_label="value",
    )


def test_svg_is_valid_xml_with_expected_geometry():
    svg = _render_sample()
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert root.get("width") == "960"
    assert root.get("height") == "640"
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 2
    for pl in polylines:
        assert len(pl.get("points").split()) == 4


def test_svg_linear_axis_variant_parses():
    ET.fromstring(_render_sample(x_log=False))


def test_svg_escapes_markup_in_labels():
    svg = render_line_chart(
        [("a < b & c", [(0.1, 1.0), (1.0, 2.0)])], title="x > y"
    )
    ET.fromstring(svg)
    assert "a &lt; b &amp; c" in svg


def test_svg_drops_unplottable_points_or_refuses():
    svg = render_line_chart(
        [("ok", [(-1.0, 5.0), (0.0, 5.0), (0.1, 1.0), (1.0, 2.0)])], x_log=True
    )
    root = ET.fromstring(svg)
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines[0].get("points").split()) == 2
    with pytest.raises(ValueError):
        render_line_chart([("empty", [(-1.0, 5.0)])], x_log=True)


def _polyline_points(svg: str) -> list:
    root = ET.fromstring(svg)
    return [
        [tuple(map(float, pair.split(","))) for pair in el.get("points").split()]
        for el in root.iter()
        if el.tag.endswith("polyline")
    ]


@pytest.mark.parametrize("x_log", [True, False])
def test_svg_centres_a_single_x_value_and_a_constant_y(x_log):
    # a degenerate range is widened about its one value, on either axis
    svg = render_line_chart([("one", [(0.5, 2.0), (0.5, 2.0)])], x_log=x_log)
    centre = (MARGIN_LEFT + (WIDTH - MARGIN_LEFT - MARGIN_RIGHT) / 2,
              MARGIN_TOP + (HEIGHT - MARGIN_TOP - MARGIN_BOTTOM) / 2)
    assert _polyline_points(svg) == [[centre, centre]]


def test_tick_step_is_one_two_five_or_ten_times_a_power_of_ten():
    # span / 6 = 1, 2, 5 and 7: the last is above 5, so the step is 10
    assert [_nice_step(span) for span in (6.0, 12.0, 30.0, 42.0)] == [1.0, 2.0, 5.0, 10.0]


def test_svg_skips_an_empty_curve_beside_a_plotted_one():
    svg = render_line_chart([("empty", []), ("kept", [(0.1, 1.0), (1.0, 2.0)])])
    assert [len(points) for points in _polyline_points(svg)] == [2]
    assert ">empty<" not in svg and ">kept<" in svg


def test_write_svg_round_trip(tmp_path):
    svg = _render_sample()
    out = tmp_path / "chart.svg"
    write_svg(svg, str(out))
    assert out.read_text(encoding="utf-8") == svg

"""Command-line interface: output formats, file artifacts, exit codes."""

import json
import subprocess
import sys

import pytest

from diamag import DimensionlessPoint, chi_ratio, cli, eval_integrals, kernel, landau_chi_physical
from diamag.cli import main
from diamag.sweep import CSV_HEADER, SweepSpec, run_sweep


def test_eval_text_output(capsys):
    code = main(["eval", "--x", "0", "--y", "1e-10", "--q", "1"])
    out = capsys.readouterr().out
    assert code == 0
    for label in ("point", "regime", "method", "chi_classic", "chi_quant",
                  "chi_total", "err_est", "I1", "term3"):
        assert any(line.startswith(label) for line in out.splitlines())
    assert "0.94804588120066" in out


def test_eval_text_absolute_lines(capsys):
    vf = 1.57e8
    assert main(["eval", "--x", "0.1", "--y", "0.1", "--q", "0.5", "--vf", str(vf)]) == 0
    out = capsys.readouterr().out
    lines = {line[:13].rstrip(): line[13:].split() for line in out.splitlines()}
    chi_l = landau_chi_physical(vf)
    total = chi_ratio(DimensionlessPoint(0.1, 0.1, 0.5)).total
    assert float(lines["chi_L"][0]) == chi_l
    assert lines["chi_L"][1:] == ["(v_F", "=", "157000000", "cm/s)"]
    re_text, sign, im_text = lines["chi_cgs"]
    assert float(re_text) == total.real * chi_l
    assert float(sign + im_text.rstrip("j")) == total.imag * chi_l


def test_eval_json_payload(capsys):
    code = main(["eval", "--x", "0.1", "--y", "0.1", "--q", "0.5", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    want = chi_ratio(DimensionlessPoint(0.1, 0.1, 0.5))
    assert payload["chi_total_re"] == want.total.real
    assert payload["chi_total_im"] == want.total.imag
    assert payload["method"] == want.method.value
    assert payload["regime"] == "closed-form"
    assert set(payload["terms"]) == {"I1", "I2", "I3", "term1", "term2", "term3"}
    total_from_terms = complex(*payload["terms"]["term2"]) + complex(
        *payload["terms"]["term3"]
    ) + complex(*payload["terms"]["term1"])
    assert abs(total_from_terms - want.total) < 1e-12 * abs(want.total)


@pytest.mark.parametrize("x, y, q", [(0.1, 0.1, 0.5), (0.0, 80.0, 1.0)])
def test_eval_chooses_the_regime_and_evaluates_the_closed_form_once(x, y, q, capsys, monkeypatch):
    # the first point passes the cancellation guard, whose closed-form terms
    # are printed; the second is a literal Laurent point, where no guard runs
    calls = {"_classify": 0, "_closed_pieces": 0}
    for name in calls:
        def counted(*args, _name=name, _inner=getattr(kernel, name)):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(kernel, name, counted)
    args = ["eval", "--x", str(x), "--y", str(y), "--q", str(q), "--json"]
    assert main(args) == 0
    assert calls == {"_classify": 1, "_closed_pieces": 1}
    payload = json.loads(capsys.readouterr().out)
    terms = eval_integrals(complex(x, y), q)
    assert payload["terms"] == {name: [v.real, v.imag] for name, v in vars(terms).items()}


def test_eval_json_row_equals_the_csv_row(tmp_path, capsys):
    # the same fields in the same order, the same values: one row model
    csv_path = tmp_path / "row.csv"
    assert main([
        "sweep", "--axis", "q", "--min", "0.5", "--max", "1", "--points", "2",
        "--x", "0.1", "--y", "0.1", "--out", str(csv_path),
    ]) == 0
    header, first = csv_path.read_text(encoding="utf-8").splitlines()[:2]
    csv_row = dict(zip(header.split(","), first.split(",")))
    capsys.readouterr()
    assert main(["eval", "--x", "0.1", "--y", "0.1", "--q", "0.5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload)[: len(csv_row)] == list(csv_row)
    for name, text in csv_row.items():
        assert payload[name] == (text if name == "method" else float(text)), name


def test_eval_json_absolute_block(capsys):
    vf = 1.57e8
    code = main(["eval", "--x", "0", "--y", "1e-3", "--q", "0.5", "--json", "--vf", str(vf)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    block = payload["absolute"]
    assert block["v_fermi_cm_s"] == vf
    assert block["chi_landau_cgs"] == landau_chi_physical(vf)
    assert block["chi_total_cgs_re"] == payload["chi_total_re"] * block["chi_landau_cgs"]


@pytest.mark.parametrize(
    "x, y, q, regime", [("0", "0", "1", "pv-static"), ("0.5", "0", "0.5", "closed-form")]
)
def test_eval_collisionless_point_shows_terms(x, y, q, regime, capsys):
    # eval_integrals serves every y = 0 point: the static point, and the
    # exact hit s = z/q = 1
    code = main(["eval", "--x", x, "--y", y, "--q", q, "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["regime"] == regime
    assert set(payload["terms"]) == {"I1", "I2", "I3", "term1", "term2", "term3"}
    total = complex(payload["chi_total_re"], payload["chi_total_im"])
    from_terms = sum(complex(*payload["terms"][name]) for name in ("term1", "term2", "term3"))
    assert abs(from_terms - total) <= 1e-14 * abs(total)


def test_eval_reads_negative_zero_y_as_the_upper_limit(capsys):
    assert main(["eval", "--x", "0.3", "--y", "-0", "--q", "1"]) == 0
    below = capsys.readouterr().out
    assert main(["eval", "--x", "0.3", "--y", "0", "--q", "1"]) == 0
    assert below == capsys.readouterr().out
    assert "  y = 0  " in below
    assert "chi_total    1.7861722883585556 - 1.866106036232337j" in below


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@pytest.mark.parametrize(
    "x, y, q, regime",
    [
        pytest.param("0", "1e200", "1", "laurent-series", id="0-1e200"),
        pytest.param("1e200", "1", "1", "laurent-series", id="1e200-1"),
        # a complex product of overflowed parts makes I3 NaN without raising
        pytest.param("0", "7.7e-33", "9.5e77", "closed-form", id="0-7.7e-33-9.5e77"),
        pytest.param("0", "2.755e75", "2.1e-4", "laurent-series", id="0-2.755e75-2.1e-4"),
    ],
)
def test_eval_beyond_double_range_shows_no_terms(x, y, q, regime, capsys):
    # the kernel serves the point; the raw closed-form terms leave double range
    code = main(["eval", "--x", x, "--y", y, "--q", q, "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert payload["terms"] is None
    assert payload["regime"] == regime


def test_eval_rejects_bad_coordinates(capsys):
    code = main(["eval", "--x", "-1", "--y", "0.1", "--q", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "error" in err


def test_missing_required_argument_exits_one(capsys):
    code = main(["eval", "--x", "0", "--y", "0.1"])
    assert code == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_exits_one(capsys):
    assert main(["transmogrify"]) == 1
    assert "usage" in capsys.readouterr().err


def test_sweep_writes_csv_and_svg(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    svg_path = tmp_path / "out.svg"
    code = main([
        "sweep", "--axis", "q", "--min", "0.05", "--max", "1.9",
        "--points", "16", "--y", "1e-3",
        "--out", str(csv_path), "--svg", str(svg_path),
    ])
    assert code == 0
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 17
    assert svg_path.read_text(encoding="utf-8").startswith("<svg")


def test_sweep_conflicting_fixed_flag_exits_one(tmp_path, capsys):
    code = main([
        "sweep", "--axis", "q", "--min", "0.1", "--max", "1.0",
        "--points", "4", "--q", "0.5", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1
    assert "conflicts" in capsys.readouterr().err


def test_sweep_numerical_failure_exits_two(tmp_path, capsys):
    # q^-3 overflows at the last two points: rows become method=error
    csv_path = tmp_path / "far.csv"
    code = main([
        "sweep", "--axis", "q", "--min", "1e100", "--max", "1e104", "--points", "5",
        "--x", "1e-9", "--y", "1e-67", "--out", str(csv_path),
    ])
    assert code == 2
    text = csv_path.read_text(encoding="utf-8")
    assert ",error," in text
    # grid is still complete, errors marked in place
    assert len(text.splitlines()) == 6
    # the collisionless resonance inside a sweep is no failure
    csv_path = tmp_path / "res.csv"
    code = main([
        "sweep", "--axis", "x", "--min", "0.1", "--max", "0.8",
        "--points", "8", "--spacing", "linear", "--y", "0", "--q", "0.5",
        "--out", str(csv_path),
    ])
    assert code == 0
    text = csv_path.read_text(encoding="utf-8")
    assert ",error," not in text
    assert len(text.splitlines()) == 9


def test_sweep_beyond_double_range_writes_error_rows(tmp_path, capsys):
    # q^-3 overflows at the last two points: error rows, not a traceback
    csv_path = tmp_path / "far.csv"
    code = main([
        "sweep", "--axis", "q", "--min", "1e100", "--max", "1e104", "--points", "5",
        "--x", "1e-9", "--y", "1e-67", "--out", str(csv_path),
    ])
    assert code == 2
    methods = [line.split(",")[9] for line in csv_path.read_text(encoding="utf-8").splitlines()]
    assert methods == ["method", "closed-form", "closed-form", "closed-form", "error", "error"]
    # each failed point is named on stderr, before the summary line
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("diamag sweep: some points failed")
    error_qs = [
        float(line.split(",")[0])
        for line in csv_path.read_text(encoding="utf-8").splitlines()
        if ",error," in line
    ]
    prefix = "diamag sweep: x=1e-09, y=1e-67, q="
    assert len(err) == 3 and all(line.startswith(prefix) for line in err[:-1])
    named = [line[len(prefix):].split(": ", 2) for line in err[:-1]]
    assert [float(q) for q, _, _ in named] == error_qs
    assert all(kind == "DomainError" and message for _, kind, message in named)


def test_sweep_with_no_plottable_row_writes_no_svg(tmp_path, capsys):
    # q^-3 overflows at both points: the CSV holds two error rows, the SVG
    # has nothing to draw, and each failed point is still named
    csv_path = tmp_path / "f.csv"
    svg_path = tmp_path / "f.svg"
    code = main([
        "sweep", "--axis", "q", "--min", "1e103", "--max", "1e104", "--points", "2",
        "--x", "1e-9", "--y", "1e-67", "--out", str(csv_path), "--svg", str(svg_path),
    ])
    assert code == 2
    assert not svg_path.exists()
    methods = [line.split(",")[9] for line in csv_path.read_text(encoding="utf-8").splitlines()]
    assert methods == ["method", "error", "error"]
    err = capsys.readouterr().err
    assert "not written" in err
    for q in ("1e+103", "1e+104"):
        assert f"diamag sweep: x=1e-09, y=1e-67, q={q}: DomainError: " in err
    assert err.splitlines()[-1].startswith("diamag sweep: some points failed")


def test_sweep_invalid_bounds_exit_one(tmp_path, capsys):
    code = main([
        "sweep", "--axis", "q", "--min", "1.0", "--max", "0.1",
        "--points", "4", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1


def test_figure1_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["figure1", "--out", str(a)]) == 0
    assert main(["figure1", "--out", str(b)]) == 0
    blob = a.read_bytes()
    assert blob == b.read_bytes()
    assert len(blob.decode("utf-8").splitlines()) == 1601


def test_figure1_svg(tmp_path):
    out = tmp_path / "fig.csv"
    svg = tmp_path / "fig.svg"
    assert main(["figure1", "--out", str(out), "--svg", str(svg)]) == 0
    text = svg.read_text(encoding="utf-8")
    assert text.count("<polyline") == 4


def test_figure1_with_failed_rows_names_them_and_draws_nothing(tmp_path, capsys, monkeypatch):
    # figure1 reports failed rows as sweep does, through the same writer
    failed = run_sweep(SweepSpec(axis="q", lo=1e103, hi=1e104, points=2, fixed_x=1e-9,
                                 fixed_y=1e-67))
    monkeypatch.setattr(cli, "figure1_rows", lambda: failed)
    svg_path = tmp_path / "fig.svg"
    code = main(["figure1", "--out", str(tmp_path / "fig.csv"), "--svg", str(svg_path)])
    assert code == 2
    assert not svg_path.exists()
    assert capsys.readouterr().err.splitlines() == [
        f"diamag figure1: no plottable row; {svg_path} not written",
        *(f"diamag figure1: {line}" for line in failed[1]),
        "diamag figure1: some points failed; rows marked method=error",
    ]


def test_verify_passes_with_default_tolerances(capsys):
    code = main(["verify"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert "all" in out and "passed" in out


def test_verify_fails_with_impossible_tolerance(capsys):
    code = main(["verify", "--tol", "1e-30"])
    out = capsys.readouterr().out
    assert code == 2
    assert "FAIL" in out


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1", "abc"])
def test_verify_rejects_bad_tolerance_before_any_check(tol, capsys):
    code = main(["verify", "--tol", tol])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "--tol" in captured.err


@pytest.mark.parametrize("vf", ["-1", "0", "nan"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_eval_rejects_bad_fermi_velocity_before_printing(vf, fmt, capsys):
    flags = ["--json"] if fmt == "json" else []
    code = main(["eval", "--x", "0.1", "--y", "0.1", "--q", "0.5", *flags, "--vf", vf])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "v_F" in captured.err


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "diamag.cli",
         "eval", "--x", "0", "--y", "1e-10", "--q", "1", "--json"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert abs(payload["chi_total_re"] - 0.948045881200663) < 1e-12

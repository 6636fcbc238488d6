"""Command-line front end.

Subcommands:
  eval     one point, text or JSON, optional absolute CGS output
  sweep    one swept coordinate to CSV (optionally SVG)
  figure1  the four-curve static suppression family to CSV/SVG
  verify   oracle cross-validation suite

Exit codes: 0 success, 1 validation or usage error, 2 numerical-verification
failure (a failed verify check, or any error rows inside a sweep).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional, Sequence

from .core import (
    ChiResult,
    DimensionlessPoint,
    landau_chi_physical,
)
from .errors import DiamagError
from .kernel import TermBreakdown, chi_ratio_detailed
from .sweep import (
    FIGURE1_Y_VALUES,
    OutputRow,
    SweepSpec,
    figure1_rows,
    format_float,
    run_sweep,
    write_csv,
)
# verify loads no oracle until a check runs, so importing it here is cheap;
# perfbench/launcher.py wraps its checks straight after importing this module
# and finds verify in sys.modules only because of this import. svg and json
# load inside the commands that use them.
from .verify import render_report, run_verification

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the CLI contract reserves 2 for
    numerical failures, so usage errors are remapped to exit 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _positive_float(text: str) -> float:
    """argparse type: a finite float > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="diamag",
        description="susceptibility ratio chi/chi_L for a degenerate collisional plasma",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_eval = sub.add_parser("eval", help="evaluate one (x, y, q) point")
    p_eval.add_argument("--x", type=float, required=True, help="frequency / (k_F v_F)")
    p_eval.add_argument("--y", type=float, required=True, help="collision rate / (k_F v_F)")
    p_eval.add_argument("--q", type=float, required=True, help="wave number / k_F")
    p_eval.add_argument("--json", action="store_true", help="print the point as JSON")
    p_eval.add_argument(
        "--vf", type=float, default=None, metavar="CM_PER_S",
        help="Fermi velocity; adds absolute CGS susceptibility output",
    )

    p_sweep = sub.add_parser("sweep", help="sweep one coordinate to CSV")
    p_sweep.add_argument("--axis", choices=("q", "x", "y"), required=True)
    p_sweep.add_argument("--min", type=float, required=True, dest="lo")
    p_sweep.add_argument("--max", type=float, required=True, dest="hi")
    p_sweep.add_argument("--points", type=int, required=True)
    p_sweep.add_argument("--spacing", choices=("log", "linear"), default="log")
    p_sweep.add_argument("--x", type=float, default=None, help="fixed x (non-swept)")
    p_sweep.add_argument("--y", type=float, default=None, help="fixed y (non-swept)")
    p_sweep.add_argument("--q", type=float, default=None, help="fixed q (non-swept)")
    p_sweep.add_argument("--out", required=True, help="CSV output path")
    p_sweep.add_argument("--svg", default=None, help="optional SVG plot path")

    p_fig = sub.add_parser("figure1", help="static suppression curve family")
    p_fig.add_argument("--out", required=True, help="CSV output path")
    p_fig.add_argument("--svg", default=None, help="optional SVG plot path")

    p_verify = sub.add_parser("verify", help="run the oracle cross-validation suite")
    p_verify.add_argument(
        "--tol", type=_positive_float, default=None,
        help="override every discrepancy bound (default: per-check bounds)",
    )

    return parser


def _fmt_complex(value: complex) -> str:
    sign = "+" if value.imag >= 0 else "-"
    return f"{format_float(value.real)} {sign} {format_float(abs(value.imag))}j"


def _eval_payload(
    row: OutputRow,
    result: ChiResult,
    breakdown: Optional[TermBreakdown],
    vf: Optional[float],
    chi_l: Optional[float],
) -> dict:
    payload = dict(vars(row))
    payload["regime"] = result.method.value
    payload["terms"] = None if breakdown is None else {
        name: [value.real, value.imag] for name, value in vars(breakdown).items()
    }
    if vf is not None:
        payload["absolute"] = {
            "v_fermi_cm_s": vf,
            "chi_landau_cgs": chi_l,
            "chi_total_cgs_re": result.total.real * chi_l,
            "chi_total_cgs_im": result.total.imag * chi_l,
        }
    return payload


def _cmd_eval(args: argparse.Namespace) -> int:
    point = DimensionlessPoint(x=args.x, y=args.y, q=args.q)
    # validates v_F before anything is printed
    chi_l = None if args.vf is None else landau_chi_physical(args.vf)
    result, breakdown = chi_ratio_detailed(point)
    row = OutputRow.from_result(point, result)
    if args.json:
        import json

        payload = _eval_payload(row, result, breakdown, args.vf, chi_l)
        print(json.dumps(payload, indent=2))
        return 0
    print(f"point        x = {format_float(point.x)}  y = {format_float(point.y)}"
          f"  q = {format_float(point.q)}")
    print(f"regime       {result.method.value}")
    print(f"method       {row.method}")
    print(f"chi_classic  {_fmt_complex(result.classic)}")
    print(f"chi_quant    {_fmt_complex(result.quant)}")
    print(f"chi_total    {_fmt_complex(result.total)}")
    print(f"err_est      {format_float(result.err_est)}")
    if breakdown is not None:
        for name, value in vars(breakdown).items():
            print(f"{name:<13}{_fmt_complex(value)}")
    if args.vf is not None:
        absolute = complex(result.total.real * chi_l, result.total.imag * chi_l)
        print(f"chi_L        {format_float(chi_l)}  (v_F = {format_float(args.vf)} cm/s)")
        print(f"chi_cgs      {_fmt_complex(absolute)}")
    return 0


def _sweep_curves(rows: Sequence[OutputRow], axis: str) -> List:
    data = [row for row in rows if row.method != "error"]
    axis_of = {"q": lambda r: r.q, "x": lambda r: r.x, "y": lambda r: r.y}[axis]
    mag = [(axis_of(r), abs(complex(r.chi_total_re, r.chi_total_im))) for r in data]
    real = [(axis_of(r), r.chi_total_re) for r in data]
    return [("|chi_total|", mag), ("Re chi_total", real)]


def _cmd_sweep(args: argparse.Namespace) -> int:
    if getattr(args, args.axis) is not None:
        print(
            f"diamag sweep: error: --{args.axis} conflicts with --axis {args.axis}",
            file=sys.stderr,
        )
        return 1
    # coordinates left unset keep SweepSpec's defaults
    fixed = {
        f"fixed_{name}": getattr(args, name)
        for name in ("x", "y", "q")
        if getattr(args, name) is not None
    }
    spec = SweepSpec(
        axis=args.axis,
        lo=args.lo,
        hi=args.hi,
        points=args.points,
        spacing=args.spacing,
        **fixed,
    )
    rows, errors = run_sweep(spec)
    return _write_outputs(
        args,
        rows,
        errors,
        _sweep_curves(rows, spec.axis),
        x_log=(spec.spacing == "log"),
        title=f"sweep over {spec.axis}",
        x_label=spec.axis,
        y_label="chi / chi_L",
    )


def _cmd_figure1(args: argparse.Namespace) -> int:
    rows, errors = figure1_rows()
    curves = []
    for y in FIGURE1_Y_VALUES:
        points = [
            (row.q, abs(complex(row.chi_total_re, row.chi_total_im)))
            for row in rows
            if row.y == y and row.method != "error"
        ]
        curves.append((f"y = {y:g}", points))
    return _write_outputs(
        args,
        rows,
        errors,
        curves,
        x_log=True,
        title="static collisional suppression, x = 0",
        x_label="q",
        y_label="|chi / chi_L|",
    )


def _write_outputs(
    args: argparse.Namespace, rows: Sequence[OutputRow], errors: List[str], curves: List, **chart
) -> int:
    """Write the CSV to --out and the chart of `curves` to --svg if given, name
    each failed row on stderr, and return the exit code: 2 if any row failed."""
    prefix = f"diamag {args.command}:"
    write_csv(rows, args.out)
    if args.svg is not None and len(errors) == len(rows):
        # every row is an error row, which leaves the chart nothing to draw
        print(f"{prefix} no plottable row; {args.svg} not written", file=sys.stderr)
    elif args.svg is not None:
        from .svg import render_line_chart, write_svg

        write_svg(render_line_chart(curves, **chart), args.svg)
    if errors:
        for line in errors:
            print(f"{prefix} {line}", file=sys.stderr)
        print(f"{prefix} some points failed; rows marked method=error", file=sys.stderr)
        return 2
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_verification(tol=args.tol)
    print(render_report(results))
    return 0 if all(result.passed for result in results) else 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on usage errors and -h; keep main() returning int
        return int(exc.code or 0)
    handlers = {
        "eval": _cmd_eval,
        "sweep": _cmd_sweep,
        "figure1": _cmd_figure1,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (DiamagError, OSError) as exc:
        print(f"diamag {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

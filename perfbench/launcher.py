"""Traced stand-in for ``python -m diamag.cli``.

Usage: python3 perfbench/launcher.py SPANS_JSON -- CLI_ARGS...

Imports ``diamag.cli``, wraps the public functions of each layer (and the
individual verify checks) so that every call records a span, runs
``diamag.cli.main(CLI_ARGS)`` and, once it has returned, writes the spans to
SPANS_JSON. Spans are kept in memory until then. The exit code is main's.

A span is ``[name, start_ns, end_ns, parent_index, detail]``; ``detail``
holds the subcommand for ``cli.main``, the check name for ``verify.check``,
the byte count for ``svg.render_line_chart`` and the number of error rows
for ``sweep.run_sweep``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

_spans: list = []
_stack: list = []


def _wrap(name, fn, detail=None):
    def traced(*args, **kwargs):
        index = len(_spans)
        _spans.append([name, 0, 0, _stack[-1] if _stack else -1, None])
        _stack.append(index)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            _stack.pop()
            _spans[index][1:3] = [start, end]
        if detail is not None:
            _spans[index][4] = detail(result)
        return result

    return traced


def _error_rows(result) -> int:
    rows, _ = result
    return sum(1 for row in rows if row.method == "error")


# (span name, module, function, detail of the result)
_TARGETS = (
    ("sweep.run_sweep", "diamag.sweep", "run_sweep", _error_rows),
    ("sweep.figure1_rows", "diamag.sweep", "figure1_rows", None),
    ("sweep.rows_to_csv", "diamag.sweep", "rows_to_csv", None),
    ("svg.render_line_chart", "diamag.svg", "render_line_chart", len),
    ("oracle.quadrature", "diamag.oracle", "chi_ratio_quadrature", None),
    ("oracle.kinetic", "diamag.oracle", "chi_from_kinetic", None),
    ("oracle.j_integrals", "diamag.oracle", "j_integrals_nascent_delta", None),
    ("quadrature.integrate", "diamag.quadrature", "integrate_complex_adaptive", None),
)


def _install() -> None:
    """Replace each target in every diamag module that holds a reference."""
    def replace(original, traced):
        modules = [m for n, m in sys.modules.items() if n == "diamag" or n.startswith("diamag.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, traced)

    for name, module_name, fn_name, detail in _TARGETS:
        # a layer that diamag.cli imports lazily is imported here, before
        # main runs, so that its calls are traced too
        original = getattr(importlib.import_module(module_name), fn_name, None)
        if original is not None:
            replace(original, _wrap(name, original, detail))
    # The verify checks are private; run_verification looks them up as
    # module globals, so one span per check needs these wrapped as well.
    verify = sys.modules["diamag.verify"]
    for attr, value in list(vars(verify).items()):
        if attr.startswith("_check_") and callable(value):
            replace(value, _wrap("verify.check", value, lambda result: result.name))


def main() -> int:
    spans_path = sys.argv[1]
    if sys.argv[2] != "--":
        raise SystemExit("usage: launcher.py SPANS_JSON -- CLI_ARGS...")
    argv = sys.argv[3:]
    import diamag.cli

    _install()
    code = _wrap("cli.main", diamag.cli.main, lambda _: argv[0])(argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": _spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

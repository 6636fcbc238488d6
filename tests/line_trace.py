"""A pytest plugin that fails the run when a statement of the package never
runs: every statement in a function body of src/diamag/*.py must execute at
least once during the suite.

    PYTHONPATH=src:tests python -m pytest -p line_trace -q

It records line events with sys.settrace, in the main thread, so the suite
runs about four times slower under it, and it sees no code that runs in
another thread or a child process. A statement counts as run when any line
of it produced a line event. Meant for the whole suite: a subset leaves
statements unrun. A statement that no test can reach is exempted in EXEMPT
by its function and its source text, with the reason.
"""

import ast
import os
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "diamag"

# (function, statement source) -> why no test runs it
EXEMPT = {
    ("_contour_sums.level_sums", "den <<= -k"): (
        "a quotient shifts its denominator only when the numerator has more "
        "bits than the width plus the denominator's; with u and a^2 at the "
        "width that needs w (or d) exact in a bit or two at a node, which no "
        "test point gives"
    ),
}

_executed = set()  # (realpath, line)
_wanted = {}  # co_filename -> realpath of a package module, or None


def _local(frame, event, arg):
    if event == "line":
        _executed.add((_wanted[frame.f_code.co_filename], frame.f_lineno))
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    path = _wanted.get(name, False)
    if path is False:
        real = os.path.realpath(name)
        path = _wanted[name] = real if os.path.dirname(real) == str(PACKAGE) else None
    return None if path is None else _local


def _statements(path: Path):
    """(function, first line, last line, source) of every statement in a
    function body in the module at path, nested blocks included, without
    docstrings. A function is named by its dotted path within the module,
    as "Class.method" or "outer.inner"."""
    text = path.read_text(encoding="utf-8")
    found = []

    def body(function: str, nodes) -> None:
        for node in nodes:
            source = ast.get_source_segment(text, node).splitlines()[0]
            found.append((function, node.lineno, node.end_lineno, source))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                scan([node], f"{function}.")
                continue
            for field in ("body", "orelse", "finalbody"):
                body(function, getattr(node, field, ()))
            for handler in getattr(node, "handlers", ()):
                body(function, handler.body)

    def scan(nodes, prefix: str) -> None:
        for node in nodes:
            if isinstance(node, ast.FunctionDef):
                skip = 1 if ast.get_docstring(node) is not None else 0
                body(prefix + node.name, node.body[skip:])
            elif isinstance(node, ast.ClassDef):
                scan(node.body, f"{prefix}{node.name}.")
            else:
                for field in ("body", "orelse", "finalbody"):
                    scan(getattr(node, field, ()), prefix)

    scan(ast.parse(text).body, "")
    return found


def pytest_configure(config):
    sys.settrace(_global)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        real = os.path.realpath(path)
        for function, first, last, source in _statements(path):
            if (function, source.strip()) in EXEMPT:
                continue
            if not any((real, line) in _executed for line in range(first, last + 1)):
                missed.append(f"{path.name}:{first} in {function}: {source.strip()}")
    session.config._line_trace_missed = missed
    if missed and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    missed = getattr(config, "_line_trace_missed", None)
    if missed is None:
        return
    if missed:
        terminalreporter.section("statements the suite never ran", red=True)
        for line in missed:
            terminalreporter.write_line(line)
    else:
        terminalreporter.write_line("line trace: every package statement ran")

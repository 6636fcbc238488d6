"""Every package module compiles cleanly with warnings treated as errors."""

import warnings
from pathlib import Path

import diamag

SOURCES = sorted(Path(diamag.__file__).parent.glob("*.py"))


def test_sources_compile_without_warnings():
    assert SOURCES
    for path in SOURCES:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(encoding="utf-8"), str(path), "exec")

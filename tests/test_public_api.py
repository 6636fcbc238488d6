"""The public surface: every exported name resolves and every demo runs.

A name left in an __all__ after its definition is gone, or a demo still
calling a removed function, fails here rather than in a user's hands.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diamag

PACKAGE_DIR = Path(diamag.__file__).parent
MODULES = ["diamag"] + [
    f"diamag.{path.stem}" for path in sorted(PACKAGE_DIR.glob("*.py")) if path.stem != "__init__"
]
DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, missing


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    paths = [str(PACKAGE_DIR.parent), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout

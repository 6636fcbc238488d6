"""The public surface: every exported name resolves and every demo runs.

A name left in an __all__ after its definition is gone, or a demo still
calling a removed function, fails here rather than in a user's hands. The
package and its CLI import without the mpmath oracle, which loads on first
use of an oracle name.
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


def _subprocess_env():
    env = dict(os.environ)
    paths = [str(PACKAGE_DIR.parent), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def test_import_leaves_the_oracle_unloaded():
    script = (
        "import sys\n"
        "import diamag, diamag.cli\n"
        "lazy = ('mpmath', 'diamag.oracle')\n"
        "print([m for m in lazy if m in sys.modules])\n"
        "diamag.chi_ratio_quadrature\n"
        "print([m for m in lazy if m in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=_subprocess_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "['mpmath', 'diamag.oracle']"]


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError):
        diamag.no_such_name


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path, env=_subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout

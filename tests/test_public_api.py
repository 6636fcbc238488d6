"""The public surface: every exported name resolves and every demo runs.

A name left in an __all__ after its definition is gone, or a demo still
calling a removed function, fails here rather than in a user's hands. The
package and its CLI import without the modules they do not run, the oracles
among them; each loads on first use of one of its names, and mpmath only
with the exact reference's first call.
"""

import ast
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


def test_the_oracle_imports_nothing_from_the_kernel():
    # the oracles check the kernel, so they may not run its code
    tree = ast.parse((PACKAGE_DIR / "oracle.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["diamag" if node.level else "", node.module]))
            imported += [module] + [f"{module}.{alias.name}" for alias in node.names]
    assert "diamag.core" in imported and "mpmath" in imported, imported
    assert not [name for name in imported if (name + ".").startswith("diamag.kernel.")]
    # mpmath is imported inside the exact reference's functions alone
    top = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not [node for node in top if "mpmath" in ast.unparse(node)]


def test_import_leaves_the_oracle_unloaded():
    # the package loads what one chi_ratio call needs, the CLI adds sweep and
    # verify; every other module loads on first access to one of its names.
    # The contour oracle runs on integers: neither its name nor a call to it
    # loads mpmath, which the exact reference imports on its first call
    script = (
        "import sys\n"
        "def loaded(names):\n"
        "    print(sorted(m for m in names if m in sys.modules))\n"
        "import diamag\n"
        "loaded(('dataclasses', 'json', 'mpmath', 'diamag.sweep', 'diamag.svg',"
        " 'diamag.verify', 'diamag.quadrature', 'diamag.oracle'))\n"
        "import diamag.cli\n"
        "lazy = ('dataclasses', 'json', 'diamag.svg', 'diamag.quadrature',"
        " 'diamag.oracle', 'mpmath')\n"
        "loaded(lazy)\n"
        "diamag.render_line_chart\n"
        "loaded(lazy)\n"
        "point = diamag.DimensionlessPoint(0.1, 0.1, 0.5)\n"
        "diamag.chi_ratio_quadrature(point)\n"
        "diamag.chi_ratio_exact\n"
        "loaded(lazy)\n"
        "diamag.chi_ratio_exact(point)\n"
        "loaded(lazy)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=_subprocess_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]",
        "[]",
        "['diamag.svg']",
        "['diamag.oracle', 'diamag.quadrature', 'diamag.svg']",
        "['diamag.oracle', 'diamag.quadrature', 'diamag.svg', 'mpmath']",
    ]


def test_cold_verify_never_loads_mpmath():
    # every module a process imports, at exit included, is listed by
    # -X importtime: a cold `diamag verify` runs all seven checks, the
    # contour oracle's among them, without mpmath
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "diamag.cli", "verify"],
        env=_subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "all 7 checks passed"
    imported = [line.split("|")[-1].strip() for line in proc.stderr.splitlines()]
    assert "diamag.oracle" in imported
    assert not [name for name in imported if name.split(".")[0] == "mpmath"], imported


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

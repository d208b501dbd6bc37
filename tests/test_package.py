"""The package surface: the root exports nothing, every submodule imports
on its own, and every name perfbench traces exists in its module."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import sianms

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(sianms.__path__))
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _fresh_python(code: str) -> str:
    """stdout of code run in a new interpreter that imports this sianms,
    so that no sianms module is loaded before the code runs."""
    path = [str(Path(sianms.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    return done.stdout


def _traced() -> dict:
    """perfbench/spans.py's TRACED table, read from the file's source."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {SPANS}")


def test_root_exports_nothing():
    code = "import sianms; print([n for n in vars(sianms) if not n.startswith('__')])"
    assert _fresh_python(code) == "[]\n"


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_imports_first(module):
    _fresh_python(f"import sianms.{module}")


def test_traced_names_exist():
    traced = _traced()
    assert set(traced) <= set(SUBMODULES)
    missing = [
        f"{module}.{name}"
        for module, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"sianms.{module}"), name, None))
    ]
    assert missing == []

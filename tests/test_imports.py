"""No library module keeps an import it never uses, and the package root imports nothing.

No linter ships with the project, so this parses each `src/waveletcond/*.py`
with `ast`: every module-level import must be read somewhere in its module
or be listed in the module's `__all__`.  Every public name has one import
path, its submodule's, so the root binds nothing but the submodules.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "waveletcond"


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module neither reads nor exports."""
    tree = ast.parse(source)
    imported: set[str] = set()
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    # an attribute chain such as `np.zeros` is rooted at a Name, so it reads `np`
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - read - exported)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_flags_only_unread_unexported_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from typing import Iterable, Sequence\n"
              "from .tensor import Tensor\n"
              "__all__ = ['Tensor']\n"
              "def f(xs: Sequence[int]):\n"
              "    return np.asarray(xs)\n")
    assert unused_imports(source) == ["Iterable", "os"]


def run_fresh(code: str):
    """The JSON that `code` prints in a fresh interpreter that imports this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


LOADED = ("import json, sys; "
          "print(json.dumps(sorted(m for m in sys.modules if m.startswith('waveletcond'))))")


def test_package_root_loads_no_submodule():
    assert run_fresh("import waveletcond; " + LOADED) == ["waveletcond"]
    assert run_fresh("import waveletcond.sgtf; " + LOADED) == [
        "waveletcond", "waveletcond.sgtf", "waveletcond.tensor"]


def test_package_root_binds_only_submodules():
    modules = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
    code = ("import importlib, json, types, waveletcond\n"
            f"for m in {modules!r}: importlib.import_module('waveletcond.' + m)\n"
            "print(json.dumps(sorted(n for n, v in vars(waveletcond).items()\n"
            "    if not n.startswith('_') and not isinstance(v, types.ModuleType))))")
    assert run_fresh(code) == []

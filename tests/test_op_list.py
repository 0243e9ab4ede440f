"""The op list in `tensor.py`'s module docstring matches the code.

The docstring names the primitives (ops with a hand-written backward rule)
and the compositions built from them.  This parses `tensor.py` with `ast`:
a primitive is a top-level function whose body calls `Tensor._from_op`, a
composition one that calls a primitive but records no tape edge itself.
"""

import ast
import re
from pathlib import Path

TENSOR_PY = Path(__file__).resolve().parents[1] / "src" / "waveletcond" / "tensor.py"


def listed(doc: str, lead: str) -> set[str]:
    """The backquoted names in the docstring sentence that `lead` opens."""
    text = " ".join(doc.split())
    match = re.search(re.escape(lead) + r"(.*?)\.(?:\s|$)", text)
    assert match, f"no sentence starting {lead!r}"
    return set(re.findall(r"`(\w+)`", match.group(1)))


def called_names(fn: ast.FunctionDef) -> set[str]:
    """What `fn`'s body calls, spelled `f` for `f(...)` and `X.f` for `X.f(...)`."""
    calls = [n.func for n in ast.walk(fn) if isinstance(n, ast.Call)]
    return ({c.id for c in calls if isinstance(c, ast.Name)}
            | {f"{c.value.id}.{c.attr}" for c in calls
               if isinstance(c, ast.Attribute) and isinstance(c.value, ast.Name)})


def test_docstring_op_list_matches_the_functions():
    tree = ast.parse(TENSOR_PY.read_text())
    functions = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    primitives = {f.name for f in functions if "Tensor._from_op" in called_names(f)}
    compositions = {f.name for f in functions
                    if f.name not in primitives and called_names(f) & primitives}
    doc = ast.get_docstring(tree)
    assert listed(doc, "Primitives carry a hand-written backward rule:") == primitives
    assert listed(doc, "need no rule of their own:") == compositions

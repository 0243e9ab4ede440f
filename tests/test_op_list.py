"""The op lists in `tensor.py`'s and `wavelet.py`'s module docstrings match the code.

Each docstring names its primitives (ops with a hand-written backward rule).
This parses both files with `ast`: a primitive is a top-level function whose
body calls `Tensor._from_op`, a composition one that calls a primitive of
either file but records no tape edge itself.  The tape has no compositions:
an affine map or any other combination of ops is written out where it is
used.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "waveletcond"
OP_FILES = ("tensor.py", "wavelet.py")


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


def parse(name: str) -> tuple[str, list[ast.FunctionDef]]:
    """The module docstring and the top-level functions of one op file."""
    tree = ast.parse((SRC / name).read_text())
    return ast.get_docstring(tree), [n for n in tree.body if isinstance(n, ast.FunctionDef)]


def primitives(functions: list[ast.FunctionDef]) -> set[str]:
    return {f.name for f in functions if "Tensor._from_op" in called_names(f)}


def test_docstring_op_list_matches_the_functions():
    for name in OP_FILES:
        doc, functions = parse(name)
        assert listed(doc, "Primitives carry a hand-written backward rule:") \
            == primitives(functions), name
    assert primitives(parse("wavelet.py")[1]) == {"dwt2", "idwt2"}


def test_no_function_is_a_composition():
    functions = [f for name in OP_FILES for f in parse(name)[1]]
    ops = primitives(functions)
    assert {f.name for f in functions if f.name not in ops and called_names(f) & ops} == set()

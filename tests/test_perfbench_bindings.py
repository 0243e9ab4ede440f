"""The benchmark's tracer rebinds library names; each must exist and come back intact.

`perfbench/spans.py` looks up every traced function by module and name, so a
library change that drops or renames one of them fails here, in the tests,
and not only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_then_uninstall_restores_every_binding():
    tracer = load_spans().Tracer()
    originals = [(obj, attr, getattr(obj, attr)) for obj, attr, _, _ in tracer.bindings()]
    try:
        tracer.install()
        for obj, attr, original in originals:
            assert getattr(obj, attr) is not original, f"{obj.__name__}.{attr} not traced"
    finally:
        tracer.uninstall()
    for obj, attr, original in originals:
        assert getattr(obj, attr) is original, f"{obj.__name__}.{attr} not restored"

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


def test_wavelet_spans_one_backward_per_forward():
    """MSM and SFM each run one traced dwt2 and idwt2, and each op has one backward span.

    Fails when sfm stops calling through the `*_batched` names the tracer binds,
    or when a transform returns several tensors whose backwards the tracer wraps.
    """
    import numpy as np

    from waveletcond import msm, sfm
    from waveletcond.tensor import Tensor, add, sum_all

    r = np.random.default_rng(0)
    audio = Tensor(r.standard_normal((4, 8)), requires_grad=True)
    features = Tensor(r.standard_normal((2, 3, 4, 4)), requires_grad=True)
    latent = Tensor(r.standard_normal((2, 1, 8, 4)))
    tracer = load_spans().Tracer()
    try:
        tracer.install()
        out_a = msm.msm_forward(msm.AudioEmbedding(audio, frames=2), latent,
                                msm.init_msm_params(latent.shape))
        out_f = sfm.sfm_forward(features, sfm.init_sfm_params(features.shape))
        add(sum_all(out_a), sum_all(out_f)).backward()
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("wavelet.dwt2") == 2
    assert names.count("wavelet.idwt2") == 2
    assert names.count("wavelet.dwt2.bwd") == names.count("wavelet.dwt2")
    assert names.count("wavelet.idwt2.bwd") == names.count("wavelet.idwt2")

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
    from waveletcond.tensor import Tensor, add, mean

    r = np.random.default_rng(0)
    audio = Tensor(r.standard_normal((4, 8)), requires_grad=True)
    features = Tensor(r.standard_normal((2, 3, 4, 4)), requires_grad=True)
    latent = Tensor(r.standard_normal((2, 1, 8, 4)))
    tracer = load_spans().Tracer()
    try:
        tracer.install()
        out_a = msm.msm_forward(audio, latent, msm.init_msm_params(latent.shape))
        out_f = sfm.sfm_forward(features, sfm.init_sfm_params(features.shape))
        add(mean(out_a), mean(out_f)).backward()
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("wavelet.dwt2") == 2
    assert names.count("wavelet.idwt2") == 2
    assert names.count("wavelet.dwt2.bwd") == names.count("wavelet.dwt2")
    assert names.count("wavelet.idwt2.bwd") == names.count("wavelet.idwt2")


def test_metrics_spans_one_ssim_and_psnr_per_frame_pair():
    """evaluate_clip scores each frame pair through the module-level names the tracer binds.

    Fails when SSIM or PSNR is routed around `metrics.ssim` / `metrics.psnr`,
    which would leave `score.metrics.ssim_ms` reading zero.
    """
    import numpy as np

    from waveletcond import metrics

    r = np.random.default_rng(0)
    frames = r.random((3, 16, 16))
    landmarks = r.random((3, 2, 2))
    tracer = load_spans().Tracer()
    try:
        tracer.install()
        metrics.evaluate_clip(frames, frames[::-1], landmarks, landmarks,
                              metrics.BeatTrack(np.array([0.04])), fps=25.0)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("metrics.ssim") == 3
    assert names.count("metrics.psnr") == 3


def test_training_spans_one_train_loss_per_draw():
    """train and validation_loss score each draw through the name the tracer binds.

    Fails when either is routed around `training.train_loss`, which would
    leave `train.training.train_loss_ms` reading zero.
    """
    from waveletcond import diffusion, training

    cfg = diffusion.TrainConfig(frames=2, height=8, width=8, base_channels=4, h_msm=4,
                                d_audio=4, samples_per_frame=4, timesteps=5, steps=1)
    clips = training.make_synthetic_dataset(3, cfg.frames, cfg.height, cfg.width, seed=0,
                                            samples_per_frame=cfg.samples_per_frame)
    tracer = load_spans().Tracer()
    try:
        tracer.install()
        params, _ = training.train(clips, cfg)
        trained = [span[0] for span in tracer.spans].count("training.train_loss")
        training.validation_loss(clips, params, cfg)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert trained == 1
    assert names.count("training.train_loss") == 1 + 3 * training.VALIDATION_DRAWS

"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a `[criterion N] PASS` line on success (visible with -s;
pytest's own pass/fail reporting carries the same information otherwise).
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from waveletcond import sgtf
from waveletcond.cli import main
from waveletcond.datakit import (
    ClipRecord,
    SourceMeta,
    read_manifest,
    segment_clips,
    split_dataset,
    write_manifest,
)
from waveletcond.diffusion import TrainConfig, init_model_params, linear_schedule
from waveletcond.metrics import (
    BeatTrack,
    LandmarkSequence,
    bas,
    diversity,
    lmd,
    psnr,
    ssim,
)
from waveletcond.msm import init_msm_params, msm_forward
from waveletcond.sfm import init_sfm_params, sfm_forward
from waveletcond.tensor import Tensor, ew_mul, sigmoid
from waveletcond.training import (
    ablate,
    make_synthetic_dataset,
    report_to_json,
    train,
    train_loss,
)
from waveletcond.wavelet import dwt2, dwt2_data, idwt2

from gradcheck import check_gradients
from test_metrics import naive_ssim
from test_tensor import total


def corpus(n=100, max_side=64, seed=2024):
    """Random even-dimension tensors up to max_side x max_side."""
    r = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        h = 2 * int(r.integers(1, max_side // 2 + 1))
        w = 2 * int(r.integers(1, max_side // 2 + 1))
        out.append(r.standard_normal((h, w)))
    return out


def test_c1_wavelet_correctness():
    start = time.monotonic()
    for x in corpus():
        back = idwt2(dwt2(Tensor(x)))
        assert np.max(np.abs(back.data - x)) < 1e-10
    # Gram check of the transform's own kernels: its responses to the four unit impulses
    flat = np.stack([np.ravel(dwt2_data(e.reshape(2, 2))) for e in np.eye(4)], axis=1)
    assert np.max(np.abs(flat @ flat.T - np.eye(4))) < 1e-12
    s = dwt2(Tensor(np.full((16, 16), 2.7)))
    for band in s.data[1:]:
        assert np.all(band == 0.0)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"criterion 1 runtime {elapsed:.2f}s >= 1s"
    print(f"\n[criterion 1] wavelet correctness: PASS ({elapsed:.2f}s)")


def test_c2_energy_preservation():
    for x in corpus():
        s = dwt2(Tensor(x))
        total = sum(float(np.sum(b ** 2)) for b in s.data)
        ref = float(np.sum(x ** 2))
        assert abs(ref - total) / ref < 1e-10
    print("\n[criterion 2] energy preservation: PASS")


GRAD_CFG = TrainConfig(frames=2, height=8, width=8, base_channels=4, h_msm=4, d_audio=4,
                       samples_per_frame=4, timesteps=5)


def test_c3_gradient_suite():
    start = time.monotonic()
    r = np.random.default_rng(321)

    # MSM in isolation, rel < 1e-4
    latent_shape = (2, 1, 8, 4)
    msm_p = {
        "msm.w": Tensor(r.standard_normal(latent_shape), requires_grad=True),
        "msm.fc1_w": Tensor(r.standard_normal((4, 4)), requires_grad=True),
        "msm.fc1_b": Tensor(r.standard_normal(4), requires_grad=True),
        "msm.fc2_w": Tensor(r.standard_normal((4, 4)), requires_grad=True),
        "msm.fc2_b": Tensor(r.standard_normal(4), requires_grad=True),
    }
    audio_vals = Tensor(r.standard_normal((4, 8)), requires_grad=True)
    z = Tensor(r.standard_normal(latent_shape))
    probe_a = Tensor(r.standard_normal((4, 8)))

    def msm_loss():
        out = msm_forward(audio_vals, z, msm_p)
        return total(sigmoid(ew_mul(out, probe_a)))

    check_gradients(msm_loss, dict(msm_p, audio=audio_vals), h=1e-4, rtol=1e-4)

    # SFM in isolation, rel < 1e-4
    feat_shape = (2, 3, 4, 4)
    half = (2, 3, 2, 2)
    sfm_p = {
        "sfm.w": Tensor(np.stack([r.standard_normal(half) for _ in range(4)]), requires_grad=True),
        "sfm.gate_w": Tensor(r.standard_normal((3, 3)), requires_grad=True),
        "sfm.gate_b": Tensor(r.standard_normal(3), requires_grad=True),
    }
    feats = Tensor(r.standard_normal(feat_shape), requires_grad=True)
    probe_f = Tensor(r.standard_normal(feat_shape))

    def sfm_loss():
        return total(sigmoid(ew_mul(sfm_forward(feats, sfm_p), probe_f)))

    check_gradients(sfm_loss, dict(sfm_p, features=feats), h=1e-4, rtol=1e-4)

    # full toy model (every trainable tensor, <= 5k params), rel < 1e-3
    params = init_model_params(dataclasses.replace(GRAD_CFG, seed=11))
    params = {k: Tensor(r.standard_normal(p.shape) * 0.3, requires_grad=True)
              for k, p in params.items()}
    n_params = sum(p.size for p in params.values())
    assert n_params <= 5000, f"gradient-check model has {n_params} params"
    clip = make_synthetic_dataset(1, GRAD_CFG.frames, GRAD_CFG.height, GRAD_CFG.width,
                                  seed=1, samples_per_frame=4)[0]
    eps = np.random.default_rng(2).standard_normal(clip.frames.shape)
    sched = linear_schedule(GRAD_CFG.timesteps)

    def full_loss():
        return train_loss([(clip, 3, eps)], params, sched, GRAD_CFG)

    check_gradients(full_loss, params, h=1e-4, rtol=1e-3)

    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"criterion 3 runtime {elapsed:.1f}s >= 2min"
    print(f"\n[criterion 3] gradient suite ({n_params} params): PASS ({elapsed:.1f}s)")


def test_c4_initialization_contracts():
    r = np.random.default_rng(7)
    latent_shape = (3, 1, 8, 8)
    p = init_msm_params(latent_shape)
    audio = Tensor(r.standard_normal((6, 12)))
    z = Tensor(r.standard_normal(latent_shape))
    out = msm_forward(audio, z, p)
    assert np.max(np.abs(out.data - audio.data)) < 1e-9

    feat_shape = (2, 4, 6, 6)
    sp = init_sfm_params(feat_shape)
    h = r.standard_normal(feat_shape)
    out = sfm_forward(Tensor(h), sp)
    assert np.max(np.abs(out.data - 0.5 * h)) < 1e-9
    print("\n[criterion 4] initialization contracts: PASS")


def test_c5_toy_training_halves_loss():
    cfg = TrainConfig()  # n=64 clips, f=16, 16x16, 500 steps, lr 1e-3, seed 42
    assert (cfg.n_clips, cfg.frames, cfg.height, cfg.width) == (64, 16, 16, 16)
    assert (cfg.steps, cfg.lr, cfg.seed) == (500, 1e-3, 42)
    dataset = make_synthetic_dataset(cfg.n_clips, cfg.frames, cfg.height, cfg.width,
                                     seed=cfg.seed, samples_per_frame=cfg.samples_per_frame)
    start = time.monotonic()
    _, losses = train(dataset, cfg)
    elapsed = time.monotonic() - start
    first = float(np.mean(losses[:50]))
    last = float(np.mean(losses[-50:]))
    assert last < 0.5 * first, f"loss did not halve: first50={first:.4f} last50={last:.4f}"
    assert elapsed < 300.0, f"criterion 5 runtime {elapsed:.1f}s >= 5min"

    # bit-exact reproducibility: a fresh shorter run shares the same prefix,
    # and two such runs agree exactly
    short = dataclasses.replace(cfg, steps=40)
    _, a = train(dataset, short)
    _, b = train(dataset, short)
    assert a == b == losses[:40]
    print(f"\n[criterion 5] toy training: PASS "
          f"(first50={first:.4f}, last50={last:.4f}, {elapsed:.1f}s)")


ABLATE_CFG = TrainConfig(frames=4, height=8, width=8, n_clips=16, steps=200, seed=42,
                         samples_per_frame=8, base_channels=8, lr=1e-3)


def test_c6_ablation_directionality():
    report = ablate(ABLATE_CFG)
    methods = [row["method"] for row in report["rows"]]
    assert methods == ["w/o MSM", "w/o SFM", "w/o both", "full"]
    for row in report["rows"]:
        for col in ("Diversity", "BAS", "LMD", "FVD"):
            assert row[col] == "n/a"
    vals = {row["method"]: row["val_loss"] for row in report["rows"]}
    assert vals["full"] <= vals["w/o both"], (
        f"full={vals['full']:.4f} should not exceed w/o both={vals['w/o both']:.4f}")
    print(f"\n[criterion 6] ablation directionality: PASS "
          f"(full={vals['full']:.4f} <= w/o both={vals['w/o both']:.4f})")


def test_c7_metric_oracles():
    r = np.random.default_rng(14)
    x = r.random((16, 16))
    assert abs(ssim(x, x) - 1.0) < 1e-9
    assert psnr(x, x) == math.inf
    a = np.zeros((10, 10))
    b = np.full((10, 10), 0.1)  # MSE 0.01 at peak 1
    assert abs(psnr(a, b, peak=1.0) - 20.0) < 1e-9

    frames = r.standard_normal((4, 6, 2))
    shifted = frames + np.array([3.0, 4.0])
    assert abs(lmd(LandmarkSequence(frames), LandmarkSequence(shifted)) - 5.0) < 1e-9

    assert diversity(LandmarkSequence(np.ones((5, 3, 2)))) == 0.0

    walk = np.zeros((6, 1, 2))
    walk[:, 0, 0] = np.cumsum([0.0, 2.0, 1.0, 2.0, 1.0, 2.0])
    motion = LandmarkSequence(walk)
    beats = BeatTrack(np.array([0.2, 0.4]))
    assert abs(bas(beats, motion, fps=10.0) - 1.0) < 1e-12

    for seed in range(20):
        rr = np.random.default_rng(seed)
        p = rr.random((14, 14))
        q = np.clip(p + 0.1 * rr.standard_normal((14, 14)), 0, 1)
        assert abs(ssim(p, q) - naive_ssim(p, q)) < 1e-9
    print("\n[criterion 7] metric oracles: PASS")


def test_c8_pipeline_determinism(tmp_path):
    cfg_text = ("frames=2\nheight=8\nwidth=8\nbase_channels=4\nh_msm=4\nd_audio=4\n"
                "samples_per_frame=4\ntimesteps=5\nsteps=8\nn_clips=5\nseed=21\n")
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(cfg_text)
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["ablate", "--config", str(cfg_path), "--out", str(r1)]) == 0
    assert main(["ablate", "--config", str(cfg_path), "--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()

    x = np.random.default_rng(3).standard_normal((3, 4, 5))
    p = tmp_path / "x.sgtf"
    sgtf.write_tensor(p, x)
    back = sgtf.read_tensor(p)
    assert np.array_equal(back, x)
    p2 = tmp_path / "y.sgtf"
    sgtf.write_tensor(p2, back)
    assert p.read_bytes() == p2.read_bytes()

    records = segment_clips(SourceMeta(source_id="s", duration_s=6.0, fps=25.0,
                                       width=512, height=512,
                                       face_bboxes=[(0, (100, 100, 80, 80))]))
    mpath = tmp_path / "m.jsonl"
    write_manifest(mpath, records)
    again = read_manifest(mpath)
    assert again == records
    mpath2 = tmp_path / "m2.jsonl"
    write_manifest(mpath2, again)
    assert mpath.read_bytes() == mpath2.read_bytes()
    print("\n[criterion 8] pipeline determinism: PASS")


def test_c9_datakit_arithmetic():
    src = SourceMeta(source_id="s", duration_s=10.0, fps=25.0, width=512, height=512,
                     face_bboxes=[(0, (100, 100, 80, 80))])
    records = segment_clips(src)
    assert len(records) == 5

    five = [ClipRecord(source_id=f"subj{i}", start_frame=0, end_frame=50) for i in range(5)]
    out = split_dataset(five, seed=0)
    train_sources = {r.source_id for r in out if r.split == "train"}
    test_sources = {r.source_id for r in out if r.split == "test"}
    assert len(train_sources) == 4 and len(test_sources) == 1
    assert not train_sources & test_sources
    print("\n[criterion 9] datakit arithmetic: PASS")


def test_every_exported_name_resolves():
    # a deleted type must leave no dangling entry in the package's public names
    import waveletcond

    missing = [name for name in waveletcond.__all__ if not hasattr(waveletcond, name)]
    assert not missing
    assert len(set(waveletcond.__all__)) == len(waveletcond.__all__)

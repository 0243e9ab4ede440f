"""Noise schedule, toy UNet and its cross-attention, training loop, sampler, synthetic data."""

import contextlib
import dataclasses
import hashlib
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest

from waveletcond import diffusion, msm, sfm, training
from waveletcond.diffusion import (
    DivergenceError,
    NoiseSchedule,
    TrainConfig,
    audio_attention,
    audio_to_windows,
    forward_diffuse,
    frame_shares,
    frame_tokens,
    init_model_params,
    linear_schedule,
    sample,
    share_params,
    unet_forward,
)
from waveletcond.tensor import AdamState, Tensor, adam_step, mean, sigmoid
from waveletcond.training import (
    ablate,
    config_to_text,
    make_synthetic_dataset,
    parse_config_text,
    report_to_json,
    split_train_val,
    train,
    train_loss,
    validation_loss,
)

from gradcheck import check_gradients

TINY = TrainConfig(frames=2, height=8, width=8, base_channels=4, h_msm=4, d_audio=4,
                   samples_per_frame=4, timesteps=5)


def rng(seed=0):
    return np.random.default_rng(seed)


def tiny_clip(seed=1):
    return make_synthetic_dataset(1, TINY.frames, TINY.height, TINY.width, seed=seed,
                                  samples_per_frame=TINY.samples_per_frame)[0]


def randomized_params(cfg, seed, scale=0.3):
    base = init_model_params(cfg)
    r = rng(seed)
    return {k: Tensor(r.standard_normal(p.shape) * scale, requires_grad=True)
            for k, p in base.items()}


# -- schedule -----------------------------------------------------------------


def test_schedule_invariants():
    s = linear_schedule(50)
    assert s.betas[0] == 1e-4 and s.betas[-1] == 0.02
    assert np.all(s.betas > 0) and np.all(s.betas < 1)
    assert np.all(np.diff(s.alpha_bars) < 0)
    assert s.alpha_bars[0] <= 1.0


def test_schedule_rejects_bad_steps():
    with pytest.raises(ValueError, match="timesteps"):
        linear_schedule(0)


# -- forward diffusion -------------------------------------------------------------


def manual_schedule(alpha_bars):
    ab = np.asarray(alpha_bars, dtype=float)
    return NoiseSchedule(betas=np.full(len(ab), 0.1), alpha_bars=ab)


def test_forward_diffuse_alpha_bar_one_returns_signal():
    s = manual_schedule([1.0])
    z0 = rng(1).standard_normal((2, 3))
    eps = rng(2).standard_normal((2, 3))
    np.testing.assert_array_equal(forward_diffuse(z0, 1, eps, s), z0)


def test_forward_diffuse_alpha_bar_zero_returns_noise():
    s = manual_schedule([0.0])
    z0 = rng(3).standard_normal((2, 3))
    eps = rng(4).standard_normal((2, 3))
    np.testing.assert_array_equal(forward_diffuse(z0, 1, eps, s), eps)


def test_forward_diffuse_quarter_alpha_bar():
    s = manual_schedule([0.25])
    z0 = rng(5).standard_normal((4, 4))
    eps = rng(6).standard_normal((4, 4))
    want = 0.5 * z0 + (np.sqrt(3) / 2) * eps
    np.testing.assert_allclose(forward_diffuse(z0, 1, eps, s), want, atol=1e-15)


def test_forward_diffuse_t_out_of_range():
    s = linear_schedule(10)
    z = np.zeros((2, 2))
    with pytest.raises(ValueError, match="outside"):
        forward_diffuse(z, 0, z, s)
    with pytest.raises(ValueError, match="outside"):
        forward_diffuse(z, 11, z, s)


def test_forward_diffuse_variance_contract():
    s = linear_schedule(50)
    r = rng(7)
    z0 = r.standard_normal(20_000)
    for t in (1, 25, 50):
        eps = r.standard_normal(20_000)
        z_t = forward_diffuse(z0, t, eps, s)
        abar = s.alpha_bars[t - 1]
        want = abar * 1.0 + (1.0 - abar)
        assert abs(np.var(z_t) - want) / want < 0.05


# -- unet forward -------------------------------------------------------------------


def test_unet_output_shape_matches_input():
    cfg = TrainConfig(frames=2, height=16, width=16, channels=1)
    params = init_model_params(dataclasses.replace(cfg, seed=0))
    clip = make_synthetic_dataset(1, 2, 16, 16, seed=0)[0]
    out = unet_forward(Tensor(clip.frames), 3, audio_to_windows(clip.audio, cfg),
                       clip.frames[0], params, cfg)
    assert out.shape == (2, 1, 16, 16)


def test_unet_deterministic_repeat():
    params = randomized_params(TINY, seed=8)
    clip = tiny_clip()
    win = audio_to_windows(clip.audio, TINY)
    a = unet_forward(Tensor(clip.frames), 2, win, clip.frames[0], params, TINY).data
    b = unet_forward(Tensor(clip.frames), 2, win, clip.frames[0], params, TINY).data
    assert np.array_equal(a, b)


def test_unet_rejects_bad_t_and_shapes():
    params = init_model_params(dataclasses.replace(TINY, seed=0))
    clip = tiny_clip()
    win = audio_to_windows(clip.audio, TINY)
    with pytest.raises(ValueError, match="t="):
        unet_forward(Tensor(clip.frames), 99, win, clip.frames[0], params, TINY)
    with pytest.raises(ValueError, match="latent shape"):
        unet_forward(Tensor(np.zeros((2, 1, 4, 4))), 1, win, clip.frames[0], params, TINY)
    with pytest.raises(ValueError, match="reference frame"):
        unet_forward(Tensor(clip.frames), 1, win, np.zeros((1, 2, 2)), params, TINY)


def shares_of(cfg):
    """`sample`'s frame shares: [0, ceil(f/2)) and, past one frame, [ceil(f/2), f)."""
    half = -(-cfg.frames // 2)
    return [slice(0, half), slice(half, cfg.frames)][:min(cfg.frames, 2)]


def clip_for(cfg, seed=1):
    return make_synthetic_dataset(1, cfg.frames, cfg.height, cfg.width, seed=seed,
                                  samples_per_frame=cfg.samples_per_frame)[0]


@pytest.mark.parametrize("frames", [2, 3])
@pytest.mark.parametrize("use_msm, use_sfm", [(True, True), (False, False)])
def test_unet_share_rows_match_the_whole_call(frames, use_msm, use_sfm):
    cfg = dataclasses.replace(TINY, frames=frames, use_msm=use_msm, use_sfm=use_sfm)
    params = {k: Tensor(p.data) for k, p in randomized_params(cfg, seed=9).items()}
    clip = clip_for(cfg)
    win = audio_to_windows(clip.audio, cfg)
    z = rng(9).standard_normal(cfg.latent_shape)
    whole = unet_forward(z, 3, win, clip.frames[0], params, cfg).data
    for share in (*shares_of(cfg), slice(1, 2)):
        rows = unet_forward(z, 3, win, clip.frames[0], params, cfg, frames=share).data
        assert rows.shape == whole[share].shape
        # BLAS may round a share's conv unlike the whole batch's, in the last bits
        np.testing.assert_allclose(rows, whole[share], rtol=0,
                                   atol=1e-12 * np.max(np.abs(whole)))


def test_unet_strict_share_reads_the_latent_and_a_whole_sfm_w_as_constants():
    params = randomized_params(TINY, seed=10)  # every one needs a gradient
    clip = tiny_clip()
    win = audio_to_windows(clip.audio, TINY)
    with pytest.raises(ValueError, match=r"frames=slice\(0, 1, None\).*gradient"):
        unet_forward(clip.frames, 3, win, clip.frames[0], params, TINY, frames=slice(0, 1))
    frozen = {k: Tensor(p.data) for k, p in params.items()}
    with pytest.raises(ValueError, match=r"frames=slice\(1, None, None\).*gradient"):
        unet_forward(Tensor(clip.frames, requires_grad=True), 3, win, clip.frames[0], frozen,
                     TINY, frames=slice(1, None))
    with pytest.raises(ValueError, match="selects no frame"):
        unet_forward(clip.frames, 3, win, clip.frames[0], frozen, TINY, frames=slice(1, 1))
    # every frame is the whole call, tape and all
    out = unet_forward(clip.frames, 3, win, clip.frames[0], params, TINY, frames=slice(0, 2))
    assert out.requires_grad
    # an sfm.w holding the share's frames alone is a leaf that gets its gradient
    given = share_params(params, slice(0, 1))
    unet_forward(clip.frames, 3, win, clip.frames[0], given, TINY, frames=slice(0, 1))
    assert given["sfm.w"].shape == (4, 1, 8, 2, 2) and given["sfm.w"].requires_grad


def trainable_params(cfg, seed):
    """Random parameters, each needing a gradient exactly when `train` trains it under `cfg`."""
    return {k: Tensor(p.data, requires_grad=not cfg.freeze_backbone
                      or k.startswith(training.FROZEN_BACKBONE_TRAINABLE_PREFIXES))
            for k, p in randomized_params(cfg, seed).items()}


@pytest.mark.parametrize("frames", [2, 3])
@pytest.mark.parametrize("use_msm, use_sfm, freeze", [
    (True, True, False), (False, False, False), (True, False, False), (False, True, False),
    (True, True, True)], ids=["full", "neither", "msm_only", "sfm_only", "frozen_backbone"])
def test_train_loss_shares_add_up_to_the_whole_call(frames, use_msm, use_sfm, freeze):
    """Both shares' losses, and every leaf gradient (sfm.w joined), are the whole call's."""
    cfg = dataclasses.replace(TINY, frames=frames, use_msm=use_msm, use_sfm=use_sfm,
                              freeze_backbone=freeze)
    clip = clip_for(cfg, seed=19)
    eps = rng(19).standard_normal(cfg.latent_shape)
    whole = trainable_params(cfg, seed=19)
    loss = train_loss(clip, 3, eps, whole, cfg)
    loss.backward()
    parts, grads = [], []
    for share in frame_shares(cfg.frames):
        given = share_params(trainable_params(cfg, seed=19), share)
        part = train_loss(clip, 3, eps, given, cfg, frames=share)
        part.backward()
        parts.append(part.item())
        grads.append({k: p.grad for k, p in given.items()})
    assert parts[0] + parts[1] == pytest.approx(loss.item(), rel=1e-12, abs=0)
    for k, p in whole.items():
        if p.grad is None:
            assert grads[0][k] is None and grads[1][k] is None, k
            continue
        joined = (np.concatenate((grads[0][k], grads[1][k]), axis=1) if k == "sfm.w"
                  else grads[0][k] + grads[1][k])
        np.testing.assert_allclose(joined, p.grad, rtol=0,
                                   atol=1e-12 * max(1.0, np.max(np.abs(p.grad))), err_msg=k)
    trained = {k for k, p in whole.items() if p.grad is not None}
    assert ("sfm.w" in trained) == use_sfm and ("msm.fc2_b" in trained) == use_msm
    assert ("unet.in_w" in trained) != freeze


# -- bottleneck cross-attention ----------------------------------------------------------


def test_frame_tokens_segment_average():
    vals = Tensor(np.arange(12.0).reshape(2, 6))
    toks = frame_tokens(vals, frames=3)
    # columns [0,1], [2,3], [4,5] averaged, then transposed to (frames, d_a)
    want = np.array([[0.5, 6.5], [2.5, 8.5], [4.5, 10.5]])
    np.testing.assert_allclose(toks.data, want, atol=1e-15)


def test_attention_zero_value_projection_is_identity():
    r = rng(20)
    p = {
        "att.q_w": Tensor(r.standard_normal((3, 3)), requires_grad=True),
        "att.k_w": Tensor(r.standard_normal((2, 3)), requires_grad=True),
        "att.v_w": Tensor(np.zeros((2, 3)), requires_grad=True),
    }
    video = Tensor(r.standard_normal((5, 3)))
    audio = Tensor(r.standard_normal((4, 2)))
    out = audio_attention(video, audio, p)
    np.testing.assert_array_equal(out.data, video.data)


def test_attention_single_token_weights_are_one():
    r = rng(21)
    p = {
        "att.q_w": Tensor(r.standard_normal((3, 3)) / np.sqrt(3), requires_grad=True),
        "att.k_w": Tensor(r.standard_normal((2, 3)) / np.sqrt(2), requires_grad=True),
        "att.v_w": Tensor(r.standard_normal((2, 3)), requires_grad=True),
    }
    video = Tensor(r.standard_normal((4, 3)))
    audio = Tensor(r.standard_normal((1, 2)))
    out = audio_attention(video, audio, p)
    want = video.data + np.broadcast_to(audio.data @ p["att.v_w"].data, (4, 3))
    np.testing.assert_array_equal(out.data, want)


def test_attention_equal_keys_give_exact_half_weights():
    r = rng(22)
    video = Tensor(r.standard_normal((3, 4)))
    audio_np = np.stack([np.ones(2), np.ones(2)])  # two identical tokens
    values = r.standard_normal((2, 4))
    p = {
        "att.q_w": Tensor(r.standard_normal((4, 4))),
        "att.k_w": Tensor(r.standard_normal((2, 4))),
        "att.v_w": Tensor(values),
    }
    out = audio_attention(video, Tensor(audio_np), p)
    want = video.data + 0.5 * (audio_np @ values) .sum(axis=0, keepdims=True)
    np.testing.assert_allclose(out.data, want, atol=1e-15)


def test_attention_rejects_empty_audio():
    r = rng(23)
    p = {
        "att.q_w": Tensor(r.standard_normal((3, 3)) / np.sqrt(3), requires_grad=True),
        "att.k_w": Tensor(r.standard_normal((2, 3)) / np.sqrt(2), requires_grad=True),
        "att.v_w": Tensor(np.zeros((2, 3)), requires_grad=True),
    }
    with pytest.raises(ValueError, match="audio token"):
        audio_attention(Tensor(np.zeros((2, 3))), Tensor(np.zeros((0, 2))), p)


def test_attention_gradients_match_finite_differences():
    r = rng(24)
    p = {
        "att.q_w": Tensor(r.standard_normal((3, 3)), requires_grad=True),
        "att.k_w": Tensor(r.standard_normal((2, 3)), requires_grad=True),
        "att.v_w": Tensor(r.standard_normal((2, 3)), requires_grad=True),
    }
    video = Tensor(r.standard_normal((4, 3)), requires_grad=True)
    audio = Tensor(r.standard_normal((3, 2)), requires_grad=True)

    def f():
        return mean(sigmoid(audio_attention(video, audio, p)))

    params = dict(p, video=video, audio=audio)
    check_gradients(f, params, h=1e-4, rtol=1e-4)


def test_audio_embedding_rejects_indivisible_frames():
    with pytest.raises(ValueError, match="divisible"):
        frame_tokens(Tensor(np.zeros((4, 8))), frames=3)


def test_attention_is_the_identity_at_init():
    params = init_model_params(TINY)
    mid = 2 * TINY.base_channels
    video = Tensor(rng(25).standard_normal((6, mid)))
    audio = Tensor(rng(26).standard_normal((TINY.frames, TINY.d_audio)))
    out = audio_attention(video, audio, params)
    np.testing.assert_array_equal(out.data, video.data)


# sha256 prefixes of each TrainConfig() init tensor's bytes, in creation order
DEFAULT_INIT_DIGESTS = [
    ("enc.w", "685cc6c2c545ee6f"),
    ("enc.b", "f5a5fd42d16a2030"),
    ("unet.in_w", "e02ca6f8a80e509c"),
    ("unet.in_b", "f5a5fd42d16a2030"),
    ("unet.temb", "dffd43e6609c6fb9"),
    ("unet.down_w", "5084a618fd2a9144"),
    ("unet.down_b", "38723a2e5e8a17aa"),
    ("unet.mid1_w", "4bab11c2bbf30899"),
    ("unet.mid1_b", "38723a2e5e8a17aa"),
    ("att.q_w", "f666cadf1b55c722"),
    ("att.k_w", "59e444278bff40c6"),
    ("att.v_w", "5f70bf18a0860070"),
    ("unet.mid2_w", "e56f9d2d2d2f8811"),
    ("unet.mid2_b", "38723a2e5e8a17aa"),
    ("unet.up_w", "173d7001ab0917e1"),
    ("unet.up_b", "f5a5fd42d16a2030"),
    ("unet.out_w", "1a0295f4bf5986c5"),
    ("unet.out_b", "af5570f5a1810b7a"),
    ("msm.w", "9ad28ff0dbb91703"),
    ("msm.fc1_w", "076a27c79e5ace2a"),
    ("msm.fc1_b", "38723a2e5e8a17aa"),
    ("msm.fc2_w", "076a27c79e5ace2a"),
    ("msm.fc2_b", "c914e8188e43fff1"),
    ("sfm.w", "b8e5b5bca31feee1"),
    ("sfm.gate_w", "e5a00aa9991ac8a5"),
    ("sfm.gate_b", "38723a2e5e8a17aa"),
]


def test_default_init_params_are_pinned_in_creation_order():
    got = [(name, hashlib.sha256(p.data.tobytes()).hexdigest()[:16])
           for name, p in init_model_params(TrainConfig()).items()]
    assert got == DEFAULT_INIT_DIGESTS


def files_entered_by_unet_forward(cfg):
    """The source file of every Python function that runs during one unet_forward."""
    params = randomized_params(cfg, seed=27)
    clip = tiny_clip()
    win = audio_to_windows(clip.audio, cfg)
    files = set()

    def record(frame, event, arg):
        if event == "call":
            files.add(frame.f_code.co_filename)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        unet_forward(Tensor(clip.frames), 2, win, clip.frames[0], params, cfg)
    finally:
        sys.setprofile(previous)
    return files


@pytest.mark.parametrize("use_msm, use_sfm", [(True, True), (False, True), (True, False),
                                              (False, False)])
def test_each_ablation_switch_gates_exactly_one_module(use_msm, use_sfm):
    files = files_entered_by_unet_forward(
        dataclasses.replace(TINY, use_msm=use_msm, use_sfm=use_sfm))
    assert (msm.__file__ in files, sfm.__file__ in files) == (use_msm, use_sfm)
    assert diffusion.__file__ in files


# -- structural equivalence oracle: flags off == a UNet with no conditioning code paths --


def np_conv3x3(x, w, stride=1):
    """Sum over the nine taps (u-major) of w[:, :, u, v] @ the tap's view of the padded input."""
    n, c, h, wd = x.shape
    ho, wo = (h - 1) // stride + 1, (wd - 1) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    out = np.zeros((n, w.shape[0], ho * wo))
    for u in range(3):
        for v in range(3):
            tap = xp[:, :, u:u + stride * ho:stride, v:v + stride * wo:stride]
            out += np.matmul(w[:, :, u, v], tap.reshape(n, c, ho * wo))
    return out.reshape(n, -1, ho, wo)


def np_relu(x):
    return np.maximum(x, 0.0)


def np_softmax_rows(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def plain_unet_oracle(z, t, windows, ref, p, cfg):
    """Independent numpy forward with no spectral/filter code at all."""
    d = {k: v.data for k, v in p.items()}
    emb = (windows.T @ d["enc.w"] + d["enc.b"]).T          # (d_a, l)
    l = emb.shape[1]
    seg = l // cfg.frames
    pool = np.zeros((l, cfg.frames))
    for fi in range(cfg.frames):
        pool[fi * seg:(fi + 1) * seg, fi] = 1.0 / seg
    tokens = (emb @ pool).T                                # (f, d_a) segment averages

    x = np.concatenate([z, np.broadcast_to(ref, z.shape)], axis=1)
    h1 = np_relu(np_conv3x3(x, d["unet.in_w"]) + d["unet.in_b"][None, :, None, None]
                 + d["unet.temb"][t - 1][None, :, None, None])
    h2 = np_relu(np_conv3x3(h1, d["unet.down_w"], stride=2)
                 + d["unet.down_b"][None, :, None, None])
    m = np_relu(np_conv3x3(h2, d["unet.mid1_w"]) + d["unet.mid1_b"][None, :, None, None])

    f, c, hb, wb = m.shape
    vid = m.transpose(0, 2, 3, 1).reshape(f * hb * wb, c)
    q = vid @ d["att.q_w"]
    k = tokens @ d["att.k_w"]
    v = tokens @ d["att.v_w"]
    attn = np_softmax_rows((q @ k.T) * (1.0 / np.sqrt(c)))
    vid = vid + attn @ v
    m = vid.reshape(f, hb, wb, c).transpose(0, 3, 1, 2)

    m = np_relu(np_conv3x3(m, d["unet.mid2_w"]) + d["unet.mid2_b"][None, :, None, None])
    up = np.repeat(np.repeat(m, 2, axis=2), 2, axis=3)
    cat = np.concatenate([up, h1], axis=1)
    dd = np_relu(np_conv3x3(cat, d["unet.up_w"]) + d["unet.up_b"][None, :, None, None])
    return np_conv3x3(dd, d["unet.out_w"]) + d["unet.out_b"][None, :, None, None]


def test_flags_off_equals_plain_unet_oracle():
    cfg = dataclasses.replace(TINY, use_msm=False, use_sfm=False)
    params = randomized_params(cfg, seed=9)
    clip = tiny_clip(seed=2)
    win = audio_to_windows(clip.audio, cfg)
    got = unet_forward(Tensor(clip.frames), 2, win, clip.frames[0], params, cfg).data
    want = plain_unet_oracle(clip.frames, 2, win, clip.frames[0], params, cfg)
    assert np.array_equal(got, want)


def test_ablation_flags_do_not_change_parameter_construction():
    a = init_model_params(dataclasses.replace(TINY, use_msm=True, use_sfm=True))
    b = init_model_params(dataclasses.replace(TINY, use_msm=False, use_sfm=False))
    assert list(a) == list(b)
    for k in a:
        assert a[k].data.tobytes() == b[k].data.tobytes()


# -- train loss -----------------------------------------------------------------------


def test_loss_zero_when_prediction_equals_noise():
    # drive the loss with eps == 0 and a model whose output is exactly 0
    cfg = TINY
    params = init_model_params(dataclasses.replace(cfg, seed=0))  # zero out conv -> eps_hat == 0
    clip = tiny_clip(seed=3)
    loss = train_loss(clip, 1, np.zeros_like(clip.frames), params, cfg)
    assert loss.item() == 0.0


def test_loss_of_zero_predictor_is_mean_eps_squared():
    cfg = dataclasses.replace(TINY, frames=8, height=16, width=16, samples_per_frame=4)
    params = init_model_params(dataclasses.replace(cfg, seed=0))  # output conv zero-initialized
    clip = make_synthetic_dataset(1, 8, 16, 16, seed=4, samples_per_frame=4)[0]
    eps = rng(10).standard_normal(clip.frames.shape)  # 2048 elements
    loss = train_loss(clip, cfg.timesteps, eps, params, cfg).item()
    np.testing.assert_allclose(loss, np.mean(eps ** 2), rtol=1e-12)
    assert abs(loss - 1.0) < 0.2  # statistical sanity for standard normal draws


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_validation_loss_is_the_mean_of_train_loss_over_its_draws(dtype):
    # the seeded draws of validation_loss, each scored by train_loss; their
    # sum in draw order and its 1/len scaling stay in the params' dtype
    cfg = TINY
    params = {k: Tensor(p.data.astype(dtype))
              for k, p in randomized_params(cfg, seed=11).items()}
    clips = [tiny_clip(seed=5), tiny_clip(seed=6)]
    r = np.random.default_rng(training.VALIDATION_SEED)
    losses = []
    for clip in clips:
        for _ in range(training.VALIDATION_DRAWS):
            t = int(r.integers(1, cfg.timesteps + 1))
            losses.append(train_loss(clip, t, r.standard_normal(clip.frames.shape), params,
                                     cfg).data)
    want = losses[0]
    for loss in losses[1:]:
        want = want + loss
    want = want * dtype(1.0 / len(losses))
    assert want.dtype == dtype and len(losses) == 2 * training.VALIDATION_DRAWS
    got = validation_loss(clips, params, cfg)
    assert got.hex() == float(want).hex()


def test_temb_gradient_is_row_t_only():
    # the timestep row is read as a one-hot product, whose backward may put -0.0
    # off row t-1 where the upstream gradient is negative; the accumulated
    # gradient must still be +0.0 there, as a scatter into zeros gives
    cfg = dataclasses.replace(TINY, timesteps=10)
    params = randomized_params(cfg, seed=12)
    clip = tiny_clip(seed=3)
    eps = rng(13).standard_normal(clip.frames.shape)
    train_loss(clip, 7, eps, params, cfg).backward()
    g = params["unet.temb"].grad
    assert np.all(g[6] != 0.0)
    others = np.delete(g, 6, axis=0)
    assert np.all(others == 0.0) and not np.any(np.signbit(others))


# -- training loop ----------------------------------------------------------------------


def test_train_deterministic_loss_curves():
    cfg = dataclasses.replace(TINY, steps=12, n_clips=2)
    ds = make_synthetic_dataset(2, cfg.frames, cfg.height, cfg.width, seed=7,
                                samples_per_frame=cfg.samples_per_frame)
    _, losses_a = train(ds, cfg)
    _, losses_b = train(ds, cfg)
    assert losses_a == losses_b


def test_train_loss_decreases():
    cfg = TrainConfig(frames=4, height=8, width=8, steps=120, seed=42,
                      samples_per_frame=8, lr=1e-3)
    ds = make_synthetic_dataset(8, 4, 8, 8, seed=42, samples_per_frame=8)
    _, losses = train(ds, cfg)
    assert np.mean(losses[-20:]) < np.mean(losses[:20])


def test_train_frozen_backbone_updates_only_conditioning_params():
    cfg = dataclasses.replace(TINY, steps=4, freeze_backbone=True)
    ds = make_synthetic_dataset(2, cfg.frames, cfg.height, cfg.width, seed=8,
                                samples_per_frame=cfg.samples_per_frame)
    # randomized weights so gradient reaches the conditioning modules (the
    # default zero-initialized output conv blocks all upstream gradient)
    before = randomized_params(cfg, seed=8)
    after, _ = train(ds, cfg, params=dict(before))
    for k in before:
        frozen = not k.startswith(("enc.", "msm.", "sfm."))
        unchanged = np.array_equal(before[k].data, after[k].data)
        if frozen:
            assert unchanged, f"{k} should be frozen"
            # a frozen parameter enters the loss as a constant: no gradient is computed for it
            assert before[k].grad is None, f"{k} got a gradient"
    # at least one conditioning parameter actually moved
    moved = [k for k in before if k.startswith(("enc.", "msm.", "sfm."))
             and not np.array_equal(before[k].data, after[k].data)]
    assert moved


def tiny_train_run(params, steps=3):
    cfg = dataclasses.replace(TINY, steps=steps)
    ds = make_synthetic_dataset(2, cfg.frames, cfg.height, cfg.width, seed=16,
                                samples_per_frame=cfg.samples_per_frame)
    return train(ds, cfg, params=params)


def test_train_leaves_caller_tensors_untouched():
    params = randomized_params(TINY, seed=16)
    before = {k: p.data.copy() for k, p in params.items()}
    after, _ = tiny_train_run(params)
    for k, p in params.items():
        assert p.grad is None, f"{k} got a gradient"
        assert np.array_equal(p.data, before[k]), f"{k} changed"
        assert after[k] is not p
    assert any(not np.array_equal(after[k].data, before[k]) for k in params)


def test_train_trains_params_passed_without_requires_grad():
    # the config, not the caller's requires_grad flags, decides what trains
    params = randomized_params(TINY, seed=16)
    constants = {k: Tensor(p.data) for k, p in params.items()}
    want, want_losses = tiny_train_run(params)
    got, got_losses = tiny_train_run(constants)
    assert got_losses == want_losses
    for k in params:
        assert np.array_equal(got[k].data, want[k].data), k


def test_train_ignores_stale_caller_gradients():
    clean = randomized_params(TINY, seed=16)
    stale = randomized_params(TINY, seed=16)
    for p in stale.values():
        p.grad = np.full(p.shape, 7.0)
    _, clean_losses = tiny_train_run(clean)
    _, stale_losses = tiny_train_run(stale)
    assert stale_losses == clean_losses


def test_default_forward_tape_holds_only_what_backward_rules_read():
    # 2.0 MiB; keeping every op output's data until the loss goes, 4.0 MiB
    cfg = TrainConfig()
    clip = make_synthetic_dataset(1, cfg.frames, cfg.height, cfg.width, seed=cfg.seed,
                                  samples_per_frame=cfg.samples_per_frame,
                                  amplitude=cfg.amplitude)[0]
    params = init_model_params(cfg)
    eps = rng(3).standard_normal(clip.frames.shape)
    train_loss(clip, 5, eps, params, cfg)  # warm-up
    tracemalloc.start()
    try:
        loss = train_loss(clip, 5, eps, params, cfg)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 2.5 * 2**20
    loss.backward()
    assert all(p.grad is not None for p in params.values())


def test_train_holds_one_graph_and_no_spent_gradients():
    # a step's peak holds one graph and the leaves' gradients (4.6 MiB):
    # keeping every op output's data on the tape reads 6.6 MiB; either the
    # previous step's graph or every intermediate .grad, 14-15 MB; a 4x copy
    # of the bottleneck and its gradient in the up conv, 9.8 MiB; a padded
    # copy of each conv's input on the tape, 8.7 MiB
    cfg = dataclasses.replace(TrainConfig(seed=1), steps=3)
    ds = make_synthetic_dataset(cfg.n_clips, cfg.frames, cfg.height, cfg.width, seed=cfg.seed,
                                samples_per_frame=cfg.samples_per_frame,
                                amplitude=cfg.amplitude)
    train(ds, cfg)  # warm-up
    tracemalloc.start()
    try:
        train(ds, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.25 * 2**20


def test_unet_forward_without_tape_stays_small():
    # constant params build no tape; the peak is the activations of one pass
    # and the conv workspaces (2.0 MiB; with the down conv's output and the
    # attention's tokens alive into the up conv, 2.25 MiB; with a 4x copy of
    # the bottleneck as well, 2.75 MiB)
    cfg = TrainConfig()
    clip = make_synthetic_dataset(1, cfg.frames, cfg.height, cfg.width, seed=cfg.seed,
                                  samples_per_frame=cfg.samples_per_frame,
                                  amplitude=cfg.amplitude)[0]
    params = {k: Tensor(p.data) for k, p in init_model_params(cfg).items()}
    win = audio_to_windows(clip.audio, cfg)
    unet_forward(clip.frames, 3, win, clip.frames[0], params, cfg)  # warm-up
    tracemalloc.start()
    try:
        out = unet_forward(clip.frames, 3, win, clip.frames[0], params, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not out.requires_grad
    assert peak <= 2.1 * 2**20


def test_train_emits_loss_every_k_steps():
    cfg = dataclasses.replace(TINY, steps=10, log_every=3)
    ds = make_synthetic_dataset(1, cfg.frames, cfg.height, cfg.width, seed=9,
                                samples_per_frame=cfg.samples_per_frame)
    seen = []
    train(ds, cfg, on_step=lambda s, v: seen.append(s))
    assert seen == [0, 3, 6, 9]


def test_train_divergence_guard():
    cfg = dataclasses.replace(TINY, steps=3)
    ds = make_synthetic_dataset(1, cfg.frames, cfg.height, cfg.width, seed=10,
                                samples_per_frame=cfg.samples_per_frame)
    params = init_model_params(cfg)
    bad = {k: Tensor(np.full(p.shape, np.nan), requires_grad=True) for k, p in params.items()}
    with pytest.raises(DivergenceError, match="step 0"):
        train(ds, cfg, params=bad)


def test_train_rejects_empty_dataset():
    with pytest.raises(ValueError, match="empty"):
        train([], TINY)


def test_config_rejects_nonpositive_lr():
    with pytest.raises(ValueError, match="lr"):
        TrainConfig(lr=0.0)


# -- sampler -------------------------------------------------------------------------


def test_sample_single_step_schedule_repeatable():
    cfg = dataclasses.replace(TINY, timesteps=1)
    params = randomized_params(cfg, seed=12, scale=0.2)
    clip = tiny_clip(seed=11)
    sched = linear_schedule(1)
    win = audio_to_windows(clip.audio, cfg)
    a = sample(params, win, clip.frames[0], sched, cfg, seed=5)
    b = sample(params, win, clip.frames[0], sched, cfg, seed=5)
    assert np.array_equal(a, b)
    c = sample(params, win, clip.frames[0], sched, cfg, seed=6)
    assert not np.array_equal(a, c)


def test_sample_finite_for_random_params_many_seeds():
    clip = tiny_clip(seed=12)
    sched = linear_schedule(TINY.timesteps)
    win = audio_to_windows(clip.audio, TINY)
    for seed in range(100):
        params = randomized_params(TINY, seed=seed, scale=0.2)
        out = sample(params, win, clip.frames[0], sched, TINY, seed=seed)
        assert np.all(np.isfinite(out))


def test_sample_divergence_names_step():
    params = init_model_params(TINY)
    params["unet.out_b"] = Tensor(np.full(1, np.nan), requires_grad=True)
    clip = tiny_clip()
    with pytest.raises(DivergenceError, match=f"t={TINY.timesteps}"):
        sample(params, audio_to_windows(clip.audio, TINY), clip.frames[0],
               linear_schedule(TINY.timesteps), TINY, seed=0)


def test_sample_rejects_mismatched_schedule():
    params = init_model_params(TINY)
    clip = tiny_clip()
    with pytest.raises(ValueError, match="schedule"):
        sample(params, audio_to_windows(clip.audio, TINY), clip.frames[0],
               linear_schedule(TINY.timesteps + 1), TINY, seed=0)


def test_sample_and_validation_loss_build_no_tape(monkeypatch):
    params = randomized_params(TINY, seed=14, scale=0.2)
    clip = tiny_clip(seed=14)
    outputs_need_grad = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            outputs_need_grad.append(out.requires_grad)
            return out
        return wrapper

    monkeypatch.setattr(diffusion, "unet_forward", recording(diffusion.unet_forward))
    monkeypatch.setattr(training, "unet_forward", recording(training.unet_forward))
    sample(params, audio_to_windows(clip.audio, TINY), clip.frames[0],
           linear_schedule(TINY.timesteps), TINY, seed=0)
    validation_loss([clip], params, TINY)
    assert len(outputs_need_grad) == TINY.timesteps + 4
    assert not any(outputs_need_grad)
    assert all(p.requires_grad and p.grad is None for p in params.values())


def two_share_oracle(params, win, ref, sched, cfg, seed):
    """`sample` as a loop in one process: both shares' UNet rows, then the ancestral update."""
    params = {k: Tensor(p.data) for k, p in params.items()}
    dtype = params["unet.in_w"].dtype
    r = np.random.default_rng(seed)
    z = r.standard_normal(cfg.latent_shape).astype(dtype, copy=False)
    for t in range(cfg.timesteps, 0, -1):
        eps_hat = np.concatenate([unet_forward(z, t, win, ref, params, cfg, frames=share).data
                                  for share in shares_of(cfg)])
        beta, abar = float(sched.betas[t - 1]), float(sched.alpha_bars[t - 1])
        mean = (z - beta / math.sqrt(1.0 - abar) * eps_hat) / math.sqrt(1.0 - beta)
        if t > 1:
            var = beta * (1.0 - float(sched.alpha_bars[t - 2])) / (1.0 - abar)
            z = mean + math.sqrt(var) * r.standard_normal(cfg.latent_shape).astype(dtype)
        else:
            z = mean
    return z


def counting_forks(monkeypatch):
    """A list that gets one entry per `os.fork` call from here on."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("frames", [2, 3])
def test_sample_equals_its_two_share_oracle(monkeypatch, dtype, frames):
    cfg = dataclasses.replace(TINY, frames=frames)
    params = {k: Tensor(p.data.astype(dtype), requires_grad=True)
              for k, p in randomized_params(cfg, seed=16, scale=0.2).items()}
    clip = clip_for(cfg, seed=16)
    win, sched = audio_to_windows(clip.audio, cfg), linear_schedule(cfg.timesteps)
    forks = counting_forks(monkeypatch)
    z = sample(params, win, clip.frames[0], sched, cfg, seed=4)
    assert len(forks) == 1
    assert z.dtype == dtype
    assert np.array_equal(z, two_share_oracle(params, win, clip.frames[0], sched, cfg, seed=4))


def test_sample_of_one_frame_forks_nothing(monkeypatch):
    cfg = dataclasses.replace(TINY, frames=1)
    params = randomized_params(cfg, seed=17, scale=0.2)
    clip = clip_for(cfg, seed=17)
    win, sched = audio_to_windows(clip.audio, cfg), linear_schedule(cfg.timesteps)
    forks = counting_forks(monkeypatch)
    z = sample(params, win, clip.frames[0], sched, cfg, seed=4)
    assert forks == []
    assert np.array_equal(z, two_share_oracle(params, win, clip.frames[0], sched, cfg, seed=4))


def raises_in_this_process(monkeypatch):
    """`unet_forward` raising ValueError in this process and running as before in a child."""
    test_pid, unet = os.getpid(), diffusion.unet_forward

    def raising(*args, **kwargs):
        if os.getpid() == test_pid:
            raise ValueError("this process's share failed")
        return unet(*args, **kwargs)

    monkeypatch.setattr(diffusion, "unet_forward", raising)


@pytest.mark.parametrize("fault", ["nan_out_bias", "error_in_this_process"])
def test_sample_leaves_no_child_when_it_raises(monkeypatch, fault):
    params = init_model_params(TINY)
    clip = tiny_clip()
    if fault == "nan_out_bias":
        params["unet.out_b"] = Tensor(np.full(1, np.nan), requires_grad=True)
        expected = DivergenceError, f"t={TINY.timesteps}"
    else:
        raises_in_this_process(monkeypatch)
        expected = ValueError, "this process's share failed"
    forks = counting_forks(monkeypatch)
    with pytest.raises(expected[0], match=expected[1]):
        sample(params, audio_to_windows(clip.audio, TINY), clip.frames[0],
               linear_schedule(TINY.timesteps), TINY, seed=0)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # no child is left, running or unreaped


def test_sample_child_without_a_result_raises_naming_its_frames(monkeypatch):
    test_pid, unet = os.getpid(), diffusion.unet_forward

    def dies_in_a_child(*args, **kwargs):
        if os.getpid() != test_pid:
            os._exit(1)
        return unet(*args, **kwargs)

    monkeypatch.setattr(diffusion, "unet_forward", dies_in_a_child)
    cfg = dataclasses.replace(TINY, frames=3)
    clip = clip_for(cfg)
    with pytest.raises(ChildProcessError) as exc:
        sample(randomized_params(cfg, seed=18), audio_to_windows(clip.audio, cfg),
               clip.frames[0], linear_schedule(cfg.timesteps), cfg, seed=0)
    assert str(exc.value) == ("sample: frames [2, 3): its process ended without a result "
                              "(exit code 1)")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

# -- training in two forked frame shares ------------------------------------------------


def two_share_train_oracle(dataset, cfg, params):
    """`train` as a loop in one process: each share's loss and gradients, joined, then Adam.

    What `freeze_backbone` freezes is a constant; a key the loss does not reach
    gets no gradient, so Adam leaves it and its moments as they are.
    """
    params = {k: Tensor(p.data, requires_grad=not cfg.freeze_backbone
                        or k.startswith(training.FROZEN_BACKBONE_TRAINABLE_PREFIXES))
              for k, p in params.items()}
    r = np.random.default_rng(cfg.seed)
    state = AdamState(params)
    losses = []
    for _ in range(cfg.steps):
        clip = dataset[int(r.integers(0, len(dataset)))]
        t = int(r.integers(1, cfg.timesteps + 1))
        eps = r.standard_normal(clip.frames.shape)
        parts, grads = [], []
        for share in shares_of(cfg):
            given = share_params({k: Tensor(p.data, requires_grad=p.requires_grad)
                                  for k, p in params.items()}, share)
            part = train_loss(clip, t, eps, given, cfg, frames=share)
            part.backward()
            parts.append(part.data)
            grads.append({k: p.grad for k, p in given.items()})
        if len(parts) == 1:
            loss, joined = parts[0], grads[0]
        else:
            loss = parts[0] + parts[1]
            joined = {k: None if g is None else np.concatenate((g, grads[1][k]), axis=1)
                      if k == "sfm.w" else g + grads[1][k] for k, g in grads[0].items()}
        for k, p in params.items():
            p.grad = joined[k]
        losses.append(float(loss))
        params = adam_step(params, state, lr=cfg.lr)
    return params, losses


@contextlib.contextmanager
def usable_cpus(n):
    """This process, and every child it forks, on `n` of its usable CPUs."""
    usable = os.sched_getaffinity(0)
    if len(usable) < n:
        pytest.skip(f"needs {n} usable CPUs, has {len(usable)}")
    os.sched_setaffinity(0, sorted(usable)[:n])
    try:
        yield
    finally:
        os.sched_setaffinity(0, usable)


def train_setup(frames, dtype=np.float64, steps=4, seed=20):
    cfg = dataclasses.replace(TINY, frames=frames, steps=steps, seed=seed, log_every=1)
    ds = make_synthetic_dataset(3, cfg.frames, cfg.height, cfg.width, seed=seed,
                                samples_per_frame=cfg.samples_per_frame)
    # random weights, so the zero-initialized output conv does not hide the UNet
    params = {k: Tensor(p.data.astype(dtype))
              for k, p in randomized_params(cfg, seed=seed, scale=0.2).items()}
    return ds, cfg, params


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("frames", [2, 3])
def test_train_equals_its_two_share_oracle(monkeypatch, dtype, frames, cpus):
    ds, cfg, params = train_setup(frames, dtype)
    forks = counting_forks(monkeypatch)
    with usable_cpus(cpus):
        trained, losses = train(ds, cfg, params=params)
    assert len(forks) == 1
    want, want_losses = two_share_train_oracle(ds, cfg, params)
    assert losses == want_losses
    for k, p in trained.items():
        assert p.dtype == dtype and np.array_equal(p.data, want[k].data), k


@pytest.mark.parametrize("case", ["use_msm_off", "use_sfm_off", "freeze_backbone",
                                  "sfm_in_f32_rest_in_f64"])
def test_train_equals_its_two_share_oracle_at_three_frames(case):
    # three frames leave the child one frame of sfm.w; an unreached key (msm.* without
    # MSM, sfm.* without SFM) and a frozen one stay as they were, and each key keeps its dtype
    ds, cfg, params = train_setup(3)
    if case == "sfm_in_f32_rest_in_f64":
        params = {k: Tensor(p.data.astype(np.float32)) if k.startswith("sfm.") else p
                  for k, p in params.items()}
    else:
        field = case.removesuffix("_off")
        cfg = dataclasses.replace(cfg, **{field: field == "freeze_backbone"})
    trained, losses = train(ds, cfg, params=params)
    want, want_losses = two_share_train_oracle(ds, cfg, params)
    assert losses == want_losses
    assert list(trained) == list(params)
    for k, p in trained.items():
        assert p.dtype == params[k].dtype and p.requires_grad == want[k].requires_grad, k
        assert np.array_equal(p.data, want[k].data), k


def test_train_keeps_each_share_of_sfm_w_in_its_own_process(monkeypatch):
    # a step swaps the loss and the gradients both shares hold; sfm.w, one slice per
    # frame, stays where it is updated until the child sends its frames once, at the end
    events, read = [], training.read_into

    def recorded(file, buffer):
        events.append(buffer.shape)
        read(file, buffer)

    monkeypatch.setattr(training, "read_into", recorded)
    ds, cfg, params = train_setup(3)
    train(ds, cfg, params=params, on_step=lambda step, loss: events.append("step"))
    shared = sum(p.size for k, p in params.items() if k != "sfm.w")
    steps, end = [], []
    for event in events:
        if event == "step":
            steps.append(end)
            end = []
        else:
            end.append(event)
    assert [sum(math.prod(shape) for shape in step) for step in steps] == [1 + shared] * cfg.steps
    assert end == [params["sfm.w"].data[:, 2:].shape]


def test_train_forks_once_per_call_and_not_for_one_frame(monkeypatch):
    forks = counting_forks(monkeypatch)
    ds, cfg, params = train_setup(2, steps=2)
    train(ds, cfg, params=params)
    train(ds, cfg, params=params)
    assert len(forks) == 2
    ds, cfg, params = train_setup(1)
    trained, losses = train(ds, cfg, params=params)
    assert len(forks) == 2
    # one frame is one share: the loop of one process, on whole-clip losses
    want, want_losses = two_share_train_oracle(ds, cfg, params)
    assert losses == want_losses
    assert all(np.array_equal(p.data, want[k].data) for k, p in trained.items())


class Stop(Exception):
    """Raised from an on_step callback, as a benchmark ends a run at its deadline."""


def stop_at_step_1(step, loss):
    if step == 1:
        raise Stop("the deadline passed")


@pytest.mark.parametrize("fault", ["nan_params", "on_step_raises"])
def test_train_leaves_no_child_when_it_raises(monkeypatch, fault):
    ds, cfg, params = train_setup(2, steps=3)
    if fault == "nan_params":
        params = {k: Tensor(np.full(p.shape, np.nan)) for k, p in params.items()}
        expected, on_step = (DivergenceError, "step 0"), None
    else:
        expected, on_step = (Stop, "deadline"), stop_at_step_1
    forks = counting_forks(monkeypatch)
    with pytest.raises(expected[0], match=expected[1]):
        train(ds, cfg, params=params, on_step=on_step)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # no child is left, running or unreaped


def test_train_child_without_a_result_raises_naming_its_frames(monkeypatch):
    test_pid, loss_of = os.getpid(), training.train_loss

    def dies_in_a_child(*args, **kwargs):
        if os.getpid() != test_pid:
            os._exit(1)
        return loss_of(*args, **kwargs)

    monkeypatch.setattr(training, "train_loss", dies_in_a_child)
    ds, cfg, params = train_setup(3)
    with pytest.raises(ChildProcessError) as exc:
        train(ds, cfg, params=params)
    assert str(exc.value) == ("train: frames [2, 3): its process ended without a result "
                              "(exit code 1)")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_f32_training_and_sampling_track_f64():
    cfg = dataclasses.replace(TINY, steps=6, log_every=1)
    ds = make_synthetic_dataset(3, cfg.frames, cfg.height, cfg.width, seed=15,
                                samples_per_frame=cfg.samples_per_frame)
    # random weights, so the zero-initialized output conv does not hide the UNet
    p64 = randomized_params(cfg, seed=15, scale=0.2)
    p32 = {k: Tensor(p.data.astype(np.float32), requires_grad=True) for k, p in p64.items()}
    sched = linear_schedule(cfg.timesteps)
    clip = ds[0]
    win = audio_to_windows(clip.audio, cfg)

    eps_hat = unet_forward(Tensor(clip.frames, dtype=np.float32), 2, win, clip.frames[0],
                           p32, cfg)
    assert eps_hat.dtype == np.float32
    eps = rng(15).standard_normal(clip.frames.shape)
    loss = train_loss(clip, 2, eps, p32, cfg)
    assert loss.dtype == np.float32
    loss.backward()
    assert all(p.grad.dtype == np.float32 for p in p32.values())

    trained64, losses64 = train(ds, cfg, params=p64)
    trained32, losses32 = train(ds, cfg, params=p32)
    assert all(p.dtype == np.float32 for p in trained32.values())
    # f32 keeps about 7 significant digits; the measured relative differences
    # are 8e-8 on the losses and 2e-8 of the largest sample entry
    np.testing.assert_allclose(losses32, losses64, rtol=1e-5)
    z64 = sample(trained64, win, clip.frames[0], sched, cfg, seed=3)
    z32 = sample(trained32, win, clip.frames[0], sched, cfg, seed=3)
    assert z32.dtype == np.float32
    np.testing.assert_allclose(z32, z64, rtol=0, atol=1e-5 * np.max(np.abs(z64)))


@pytest.mark.slow
def test_sample_reconstructs_overfit_single_clip():
    cfg = TrainConfig(frames=2, height=8, width=8, n_clips=1, steps=2000, seed=3,
                      samples_per_frame=8, base_channels=8, lr=3e-3, timesteps=50)
    ds = make_synthetic_dataset(1, cfg.frames, cfg.height, cfg.width, seed=5,
                                samples_per_frame=cfg.samples_per_frame)
    params, _ = train(ds, cfg)
    sched = linear_schedule(cfg.timesteps)
    clip = ds[0]
    out = sample(params, audio_to_windows(clip.audio, cfg), clip.frames[0], sched, cfg, seed=0)
    rms = np.sqrt(np.mean((out - clip.frames) ** 2))
    assert rms < 0.1


# -- synthetic dataset --------------------------------------------------------------


def test_dataset_zero_amplitude_is_static():
    ds = make_synthetic_dataset(3, 4, 8, 8, seed=13, amplitude=0.0)
    for clip in ds:
        assert np.max(np.abs(np.diff(clip.frames, axis=0))) == 0.0
        assert np.max(np.abs(clip.audio)) == 0.0


def test_dataset_same_seed_identical_bytes():
    a = make_synthetic_dataset(4, 4, 8, 8, seed=14)
    b = make_synthetic_dataset(4, 4, 8, 8, seed=14)
    for ca, cb in zip(a, b):
        assert ca.frames.tobytes() == cb.frames.tobytes()
        assert ca.audio.tobytes() == cb.audio.tobytes()


def test_dataset_mouth_variance_increases_with_amplitude():
    h = 16
    mouth = slice(h // 2, h // 2 + h // 4)
    variances = []
    for amp in (0.0, 0.5, 1.0):
        ds = make_synthetic_dataset(6, 8, h, 16, seed=15, amplitude=amp)
        v = np.mean([np.var(c.frames[:, 0, mouth, :], axis=0).mean() for c in ds])
        variances.append(v)
    assert variances[0] < variances[1] < variances[2]


def test_audio_to_windows_validates_length():
    with pytest.raises(ValueError, match="samples"):
        audio_to_windows(np.zeros(7), TINY)


# -- ablation runner -----------------------------------------------------------------


def test_ablate_report_shape_and_determinism():
    cfg = TrainConfig(frames=2, height=8, width=8, n_clips=5, steps=8, seed=21,
                      samples_per_frame=4, base_channels=4, h_msm=4, d_audio=4,
                      timesteps=5)
    r1 = ablate(cfg)
    r2 = ablate(cfg)
    assert report_to_json(r1) == report_to_json(r2)
    methods = [row["method"] for row in r1["rows"]]
    assert methods == ["w/o MSM", "w/o SFM", "w/o both", "full"]
    for row in r1["rows"]:
        for col in ("Diversity", "BAS", "LMD", "FVD"):
            assert row[col] == "n/a"
        assert isinstance(row["val_loss"], float)


def test_split_train_val_holds_out_fifth():
    ds = make_synthetic_dataset(10, 2, 8, 8, seed=16, samples_per_frame=4)
    tr, va = split_train_val(ds)
    assert len(tr) == 8 and len(va) == 2


# -- config files -------------------------------------------------------------------


def test_parse_config_roundtrip():
    cfg = parse_config_text("steps=25\nlr=0.005\nuse_sfm=false\nseed=9\n# comment\n\n")
    assert cfg.steps == 25 and cfg.lr == 0.005 and cfg.use_sfm is False and cfg.seed == 9
    assert cfg.frames == 16  # untouched default


def test_config_text_roundtrip_non_default():
    cfg = TrainConfig(frames=3, height=12, lr=2.5e-4, seed=7, amplitude=0.3,
                      use_msm=False, freeze_backbone=True, log_every=1)
    assert parse_config_text(config_to_text(cfg)) == cfg


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config_text("stepz=25\n")


def test_parse_config_rejects_repeated_key():
    with pytest.raises(ValueError, match="config line 2: repeated key 'frames'"):
        parse_config_text("frames=4\nframes=8")


def test_parse_config_rejects_bad_line():
    with pytest.raises(ValueError, match="key=value"):
        parse_config_text("steps 25\n")


def test_parse_config_rejects_bad_bool():
    with pytest.raises(ValueError, match="boolean"):
        parse_config_text("use_msm=maybe\n")


# -- input checks ----------------------------------------------------------------------


def _short_temb_forward():
    """unet_forward at TINY with two timestep rows where TINY needs five."""
    params = init_model_params(TINY)
    params["unet.temb"] = Tensor(params["unet.temb"].data[:2])
    clip = tiny_clip()
    return unet_forward(clip.frames, 1, audio_to_windows(clip.audio, TINY), clip.frames[0],
                        params, TINY)


@pytest.mark.parametrize("call, message", [
    (lambda: forward_diffuse(np.zeros((2, 1, 8, 8)), 1, np.zeros((2, 1, 8, 4)),
                             linear_schedule(5)),
     "forward_diffuse: shape mismatch (2, 1, 8, 8) vs (2, 1, 8, 4)"),
    (_short_temb_forward, "unet_forward: unet.temb has fewer than 5 timestep rows"),
], ids=["forward_diffuse_shape", "unet_forward_temb_rows"])
def test_diffusion_input_checks_raise_value_error_naming_the_fault(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: make_synthetic_dataset(0, 2, 8, 8, seed=0),
     "make_synthetic_dataset: bad sizes n=0 f=2 h=8 w=8"),
    (lambda: make_synthetic_dataset(1, 2, 3, 8, seed=0),
     "make_synthetic_dataset: bad sizes n=1 f=2 h=3 w=8"),
    (lambda: validation_loss([], init_model_params(TINY), TINY), "validation_loss: empty dataset"),
    (lambda: split_train_val([tiny_clip()]),
     "split_train_val: dataset too small to hold out a validation clip"),
], ids=["dataset_no_clips", "dataset_short_height", "validation_loss_empty", "split_one_clip"])
def test_training_input_checks_raise_value_error_naming_the_fault(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message

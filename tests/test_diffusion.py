"""Noise schedule, toy UNet, training loop, sampler, synthetic data."""

import dataclasses

import numpy as np
import pytest

from waveletcond import diffusion, training
from waveletcond.diffusion import (
    DivergenceError,
    NoiseSchedule,
    TrainConfig,
    audio_to_windows,
    forward_diffuse,
    init_model_params,
    linear_schedule,
    sample,
    unet_forward,
)
from waveletcond.tensor import Tensor
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
    loss = train_loss([(clip, 1, np.zeros_like(clip.frames))], params,
                      linear_schedule(cfg.timesteps), cfg)
    assert loss.item() == 0.0


def test_loss_of_zero_predictor_is_mean_eps_squared():
    cfg = dataclasses.replace(TINY, frames=8, height=16, width=16, samples_per_frame=4)
    params = init_model_params(dataclasses.replace(cfg, seed=0))  # output conv zero-initialized
    clip = make_synthetic_dataset(1, 8, 16, 16, seed=4, samples_per_frame=4)[0]
    eps = rng(10).standard_normal(clip.frames.shape)  # 2048 elements
    loss = train_loss([(clip, cfg.timesteps, eps)], params, linear_schedule(cfg.timesteps),
                      cfg).item()
    np.testing.assert_allclose(loss, np.mean(eps ** 2), rtol=1e-12)
    assert abs(loss - 1.0) < 0.2  # statistical sanity for standard normal draws


def test_loss_two_item_batch_vs_hand_computation():
    cfg = TINY
    params = randomized_params(cfg, seed=11)
    sched = linear_schedule(cfg.timesteps)
    items = []
    for seed in (5, 6):
        clip = tiny_clip(seed=seed)
        eps = rng(seed).standard_normal(clip.frames.shape)
        items.append((clip, 2, eps))
    got = train_loss(items, params, sched, cfg).item()
    per_item = [train_loss([it], params, sched, cfg).item() for it in items]
    want = 0.5 * (per_item[0] + per_item[1])
    assert abs(got - want) < 1e-12


def test_loss_rejects_empty_batch():
    with pytest.raises(ValueError, match="empty"):
        train_loss([], init_model_params(TINY), linear_schedule(TINY.timesteps), TINY)


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
    loss = train_loss([(clip, 2, eps)], p32, sched, cfg)
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


def test_parse_config_rejects_bad_line():
    with pytest.raises(ValueError, match="key=value"):
        parse_config_text("steps 25\n")


def test_parse_config_rejects_bad_bool():
    with pytest.raises(ValueError, match="boolean"):
        parse_config_text("use_msm=maybe\n")

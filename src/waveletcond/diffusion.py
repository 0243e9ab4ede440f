"""Desk-scale denoising-diffusion harness.

A tiny encoder-decoder UNet predicts the noise added to clips of raw toy
latents.  Audio conditioning enters through the UNet's own single-head
cross-attention at the bottleneck, whose zero value projection makes it the
identity at init; the conditioned audio embedding comes from the spectral
module (bypassable), and the bottleneck features pass through the
self-adaptive filter (bypassable).  Both switches only gate forward paths:
parameter construction is identical for every ablation variant under one seed.

Latent layout is (frames, channels, axis2, axis3); the spectral module
chunks along axis 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .msm import init_msm_params, msm_forward
from .sfm import init_sfm_params, sfm_forward
from .tensor import (
    Tensor,
    add,
    as_tensor,
    conv3x3,
    ew_mul,
    matmul,
    mean,
    permute,
    relu,
    reshape,
    softmax_rows,
)


class DivergenceError(RuntimeError):
    """Raised when training or sampling produces a non-finite value."""


@dataclass(frozen=True)
class NoiseSchedule:
    """Linear beta schedule with cached cumulative products."""

    betas: np.ndarray
    alpha_bars: np.ndarray


# The DDPM linear beta schedule's end points (Ho et al. 2020, arXiv 2006.11239).
BETA_START = 1e-4
BETA_END = 0.02


def linear_schedule(timesteps: int = 50) -> NoiseSchedule:
    if timesteps < 1:
        raise ValueError(f"linear_schedule: timesteps must be >= 1, got {timesteps}")
    betas = np.linspace(BETA_START, BETA_END, timesteps)
    return NoiseSchedule(betas=betas, alpha_bars=np.cumprod(1.0 - betas))


def forward_diffuse(z0: np.ndarray, t: int, eps: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """Noising step: sqrt(abar_t) * z0 + sqrt(1 - abar_t) * eps, t in [1, T]."""
    z0 = np.asarray(z0)
    eps = np.asarray(eps)
    if not 1 <= t <= len(sched.betas):
        raise ValueError(f"forward_diffuse: t={t} outside [1, {len(sched.betas)}]")
    if z0.shape != eps.shape:
        raise ValueError(f"forward_diffuse: shape mismatch {z0.shape} vs {eps.shape}")
    abar = sched.alpha_bars[t - 1]
    return np.sqrt(abar) * z0 + np.sqrt(1.0 - abar) * eps


@dataclass
class TrainConfig:
    """Sizes, training knobs, and the two ablation switches for the toy harness."""

    frames: int = 16
    height: int = 16
    width: int = 16
    channels: int = 1
    base_channels: int = 8
    h_msm: int = 16
    d_audio: int = 8
    samples_per_frame: int = 8
    timesteps: int = 50
    lr: float = 1e-3
    steps: int = 500
    seed: int = 42
    n_clips: int = 64
    amplitude: float = 1.0
    use_msm: bool = True
    use_sfm: bool = True
    freeze_backbone: bool = False
    log_every: int = 10

    def __post_init__(self):
        for f in fields(self):  # f.type is the annotation string; seed alone may be 0
            if f.type == "int" and f.name != "seed" and getattr(self, f.name) < 1:
                raise ValueError(f"TrainConfig: {f.name} must be >= 1, got {getattr(self, f.name)}")
        if self.seed < 0:
            raise ValueError(f"TrainConfig: seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"TrainConfig: lr must be positive and finite, got {self.lr}")
        if not math.isfinite(self.amplitude):
            raise ValueError(f"TrainConfig: amplitude must be finite, got {self.amplitude}")
        if self.height % 4 or self.width % 4:
            raise ValueError(
                f"TrainConfig: height/width must be divisible by 4, got {self.height}x{self.width}")
        if self.samples_per_frame % 2:
            raise ValueError("TrainConfig: samples_per_frame must be even")
        if self.d_audio % 2:
            raise ValueError("TrainConfig: d_audio must be even")

    @property
    def latent_shape(self) -> tuple[int, int, int, int]:
        return (self.frames, self.channels, self.height, self.width)

    @property
    def audio_window(self) -> int:
        # two windows per frame: even token count for the wavelet transform
        return self.samples_per_frame // 2

    @property
    def audio_length(self) -> int:
        return 2 * self.frames


def audio_to_windows(samples: np.ndarray, cfg: TrainConfig) -> np.ndarray:
    """Slice a raw sample track into the (window, columns) matrix the encoder eats."""
    expected = cfg.frames * cfg.samples_per_frame
    samples = np.asarray(samples)
    if samples.shape != (expected,):
        raise ValueError(f"audio_to_windows: expected {expected} samples, got {samples.shape}")
    return samples.reshape(cfg.audio_length, cfg.audio_window).T


def init_model_params(cfg: TrainConfig) -> dict[str, Tensor]:
    """All trainable tensors in a fixed creation order (ablation flags never alter it)."""
    rng = np.random.default_rng(cfg.seed)
    base = cfg.base_channels
    mid = 2 * base
    f, c = cfg.frames, cfg.channels
    bott = (f, mid, cfg.height // 2, cfg.width // 2)

    def conv_w(c_out, c_in):
        std = np.sqrt(2.0 / (c_in * 9))
        return Tensor(rng.standard_normal((c_out, c_in, 3, 3)) * std, requires_grad=True)

    def zeros(shape):
        return Tensor(np.zeros(shape), requires_grad=True)

    params: dict[str, Tensor] = {}
    params["enc.w"] = Tensor(
        rng.standard_normal((cfg.audio_window, cfg.d_audio)) / np.sqrt(cfg.audio_window),
        requires_grad=True)
    params["enc.b"] = zeros(cfg.d_audio)
    params["unet.in_w"] = conv_w(base, 2 * c)
    params["unet.in_b"] = zeros(base)
    params["unet.temb"] = Tensor(rng.standard_normal((cfg.timesteps, base)) * 0.1,
                                 requires_grad=True)
    params["unet.down_w"] = conv_w(mid, base)
    params["unet.down_b"] = zeros(mid)
    params["unet.mid1_w"] = conv_w(mid, mid)
    params["unet.mid1_b"] = zeros(mid)
    # bottleneck cross-attention: video queries, audio keys and values; the zero
    # value projection makes attention the identity on video tokens at init
    params["att.q_w"] = Tensor(rng.standard_normal((mid, mid)) / np.sqrt(mid),
                               requires_grad=True)
    params["att.k_w"] = Tensor(rng.standard_normal((cfg.d_audio, mid)) / np.sqrt(cfg.d_audio),
                               requires_grad=True)
    params["att.v_w"] = zeros((cfg.d_audio, mid))
    params["unet.mid2_w"] = conv_w(mid, mid)
    params["unet.mid2_b"] = zeros(mid)
    params["unet.up_w"] = conv_w(base, mid + base)
    params["unet.up_b"] = zeros(base)
    params["unet.out_w"] = zeros((c, base, 3, 3))
    params["unet.out_b"] = zeros(c)
    params.update(init_msm_params(cfg.latent_shape, hidden=cfg.h_msm))
    params.update(init_sfm_params(bott))
    return params


def encode_audio(audio_windows: np.ndarray, params: dict[str, Tensor]) -> Tensor:
    """Toy audio encoder: shared affine map per window column -> (d_audio, l)."""
    cols = np.asarray(audio_windows).T  # (l, window)
    return permute(add(matmul(cols, params["enc.w"]), params["enc.b"]), (1, 0))


def frame_tokens(values: Tensor, frames: int) -> Tensor:
    """Average the embedding's columns over contiguous segments, one token per frame.

    (d_a, l) -> (frames, d_a) by mean-pooling each run of l/frames columns.
    """
    d_a, l = values.shape
    if l % frames:
        raise ValueError(f"frame_tokens: length {l} not divisible by frames {frames}")
    return permute(mean(reshape(values, (d_a, frames, l // frames)), axis=2), (1, 0))


def audio_attention(video_tokens: Tensor, audio_tokens: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Cross-attend video tokens over audio tokens; the result adds residually.

    Softmax rows sum to one; a zero value projection therefore returns the
    video tokens unchanged.
    """
    if audio_tokens.shape[0] == 0:
        raise ValueError("audio_attention: need at least one audio token")
    d = video_tokens.shape[1]
    q = matmul(video_tokens, p["att.q_w"])
    k = matmul(audio_tokens, p["att.k_w"])
    v = matmul(audio_tokens, p["att.v_w"])
    logits = ew_mul(matmul(q, permute(k, (1, 0))), 1.0 / np.sqrt(d))
    attn = softmax_rows(logits)
    return add(video_tokens, matmul(attn, v))


def unet_forward(z_t: Tensor, t: int, audio_windows: np.ndarray, ref_frame: np.ndarray,
                 params: dict[str, Tensor], cfg: TrainConfig) -> Tensor:
    """Predict the noise in z_t; output shape equals input shape.

    use_msm=False feeds the raw audio embedding to the attention block;
    use_sfm=False passes bottleneck features through untouched.  A latent
    given as an array runs in the dtype of the params.
    """
    z_t = as_tensor(z_t, params["unet.in_w"])
    if z_t.shape != cfg.latent_shape:
        raise ValueError(f"unet_forward: latent shape {z_t.shape} != {cfg.latent_shape}")
    if not 1 <= t <= cfg.timesteps:
        raise ValueError(f"unet_forward: t={t} outside [1, {cfg.timesteps}]")
    if params["unet.temb"].shape[0] < cfg.timesteps:
        raise ValueError(f"unet_forward: unet.temb has fewer than {cfg.timesteps} timestep rows")
    ref_frame = np.asarray(ref_frame)
    if ref_frame.shape != cfg.latent_shape[1:]:
        raise ValueError(
            f"unet_forward: reference frame shape {ref_frame.shape} != {cfg.latent_shape[1:]}")

    embedding = encode_audio(audio_windows, params)
    if cfg.use_msm:
        conditioned = msm_forward(embedding, z_t, params)
    else:
        conditioned = embedding
    tokens = frame_tokens(conditioned, cfg.frames)

    h1 = conv3x3([z_t, np.broadcast_to(ref_frame, cfg.latent_shape)], params["unet.in_w"],
                 params["unet.in_b"])
    # row t-1 of unet.temb as the one-hot product e_{t-1}^T E, bit for bit (the other
    # rows add +-0); any -0.0 its backward puts off row t-1 adds into +0.0 zeros
    temb = params["unet.temb"]
    h1 = relu(add(h1, reshape(matmul(np.eye(1, temb.shape[0], t - 1), temb), (-1, 1, 1))))

    # each bottleneck result rebinds m, so without a tape no spent one (the
    # down conv's output, the attention's token matrix) lives into the up conv
    m = relu(conv3x3(h1, params["unet.down_w"], params["unet.down_b"], stride=2))
    m = relu(conv3x3(m, params["unet.mid1_w"], params["unet.mid1_b"]))

    f, cmid, hb, wb = m.shape
    m = reshape(permute(m, (0, 2, 3, 1)), (f * hb * wb, cmid))
    m = audio_attention(m, tokens, params)
    m = permute(reshape(m, (f, hb, wb, cmid)), (0, 3, 1, 2))

    m = relu(conv3x3(m, params["unet.mid2_w"], params["unet.mid2_b"]))
    if cfg.use_sfm:
        m = sfm_forward(m, params)

    d = relu(conv3x3([m, h1], params["unet.up_w"], params["unet.up_b"]))
    return conv3x3(d, params["unet.out_w"], params["unet.out_b"])


def sample(params: dict[str, Tensor], audio_windows: np.ndarray, ref_frame: np.ndarray,
           sched: NoiseSchedule, cfg: TrainConfig, seed: int) -> np.ndarray:
    """Ancestral sampling from pure noise down to the z0 estimate.

    The UNet, the latent and the returned clip are in the dtype of the
    params, and no gradient tape is built.  The noise is drawn in f64 and
    then cast, so f32 and f64 runs share one noise sequence.  Deterministic
    given the seed; raises DivergenceError (with the step index) if any
    intermediate goes non-finite.
    """
    if len(sched.betas) != cfg.timesteps:
        raise ValueError(
            f"sample: schedule has {len(sched.betas)} steps but config expects {cfg.timesteps}")
    params = {k: Tensor(p.data) for k, p in params.items()}
    dtype = params["unet.in_w"].dtype
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(cfg.latent_shape).astype(dtype, copy=False)
    for t in range(cfg.timesteps, 0, -1):
        eps_hat = unet_forward(z, t, audio_windows, ref_frame, params, cfg).data
        # Python floats: numpy f64 scalars would promote an f32 latent
        beta, abar = float(sched.betas[t - 1]), float(sched.alpha_bars[t - 1])
        mean = (z - beta / math.sqrt(1.0 - abar) * eps_hat) / math.sqrt(1.0 - beta)
        if t > 1:
            var = beta * (1.0 - float(sched.alpha_bars[t - 2])) / (1.0 - abar)
            noise = rng.standard_normal(cfg.latent_shape).astype(dtype, copy=False)
            z = mean + math.sqrt(var) * noise
        else:
            z = mean
        if not np.all(np.isfinite(z)):
            raise DivergenceError(f"sample: non-finite latent at step t={t}")
    return z

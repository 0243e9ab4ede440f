"""Multi-scale spectral conditioning of audio embeddings.

A noisy video latent drives four scalar importance weights (one per Haar
sub-band).  The audio embedding is decomposed, its sub-bands rescaled by
those weights, and the result reconstructed by the inverse transform,
yielding a conditioned audio vector of the original shape.  A single-head
cross-attention then injects the conditioned audio into the video feature
stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    ParamGroup,
    Tensor,
    add,
    as_tensor,
    ew_mul,
    linear,
    matmul,
    mean,
    permute,
    relu,
    reshape,
    softmax_rows,
)
from .wavelet import dwt2, idwt2


@dataclass
class AudioEmbedding:
    """Encoded audio: values (d_a, l) spanning `frames` video frames.

    Both dimensions must be even so the Haar transform applies without
    padding; l must be divisible by the frame count for token pooling.
    """

    values: Tensor
    frames: int

    def __post_init__(self):
        self.values = as_tensor(self.values)
        if self.values.data.ndim != 2:
            raise ValueError(f"AudioEmbedding: expected 2-D values, got {self.values.shape}")
        d_a, l = self.values.shape
        if d_a % 2 or l % 2:
            raise ValueError(f"AudioEmbedding: dimensions must be even, got ({d_a}, {l})")
        if self.frames < 1 or l % self.frames:
            raise ValueError(f"AudioEmbedding: length {l} not divisible by frames {self.frames}")


@dataclass
class MsmParams(ParamGroup):
    """Tunable latent-weighting matrix plus the two-layer weight head.

    At the default initialization (w all ones, zero FC weights, unit output
    bias) the module is an exact identity on the audio embedding.
    """

    prefix = "msm"

    w: Tensor        # same shape as the latent, init 1.0
    fc1_w: Tensor    # (4, hidden)
    fc1_b: Tensor    # (hidden,)
    fc2_w: Tensor    # (hidden, 4)
    fc2_b: Tensor    # (4,), init 1.0


def init_msm_params(latent_shape: tuple[int, ...], hidden: int = 16) -> MsmParams:
    """Identity-at-init parameters for a latent of the given (f, c, w, h) shape."""
    if len(latent_shape) != 4:
        raise ValueError(f"init_msm_params: latent shape must be 4-D, got {latent_shape}")
    if latent_shape[2] % 4:
        raise ValueError(f"init_msm_params: latent width {latent_shape[2]} not divisible by 4")
    return MsmParams(
        w=Tensor(np.ones(latent_shape), requires_grad=True),
        fc1_w=Tensor(np.zeros((4, hidden)), requires_grad=True),
        fc1_b=Tensor(np.zeros(hidden), requires_grad=True),
        fc2_w=Tensor(np.zeros((hidden, 4)), requires_grad=True),
        fc2_b=Tensor(np.ones(4), requires_grad=True),
    )


def chunk_weights(z_t: Tensor, p: MsmParams) -> Tensor:
    """Derive the four sub-band importance scalars from the noisy latent.

    The latent is reweighted elementwise by p.w, split into four equal
    chunks along the width axis, each chunk mean-pooled to one scalar, and
    the resulting 4-vector passed through fc1 -> ReLU -> fc2.  Returns a
    (4,) tensor ordered (ll, lh, hl, hh).
    """
    z_t = as_tensor(z_t)
    if z_t.data.ndim != 4:
        raise ValueError(f"chunk_weights: latent must be 4-D (f,c,w,h), got {z_t.shape}")
    if z_t.shape != p.w.shape:
        raise ValueError(f"chunk_weights: latent shape {z_t.shape} != weight shape {p.w.shape}")
    f, c, d_w, h = z_t.shape
    if d_w % 4:
        raise ValueError(f"chunk_weights: width {d_w} not divisible by 4")
    chunks = reshape(ew_mul(p.w, z_t), (f, c, 4, d_w // 4, h))
    row = reshape(mean(chunks, axis=(0, 1, 3, 4)), (1, 4))
    hidden = relu(linear(row, p.fc1_w, p.fc1_b))   # (1, hidden)
    out = linear(hidden, p.fc2_w, p.fc2_b)         # (1, 4)
    return reshape(out, (4,))


def msm_forward(audio: AudioEmbedding, z_t: Tensor, p: MsmParams) -> Tensor:
    """Condition the audio embedding on the latent: decompose, reweight, reconstruct.

    Band k of the (4, d_a/2, l/2) sub-band stack is scaled by weight k.
    """
    weights = chunk_weights(z_t, p)
    return idwt2(ew_mul(dwt2(audio.values), reshape(weights, (4, 1, 1))))


@dataclass
class AttentionParams(ParamGroup):
    """Projections for single-head cross-attention (video queries, audio keys/values)."""

    prefix = "att"

    q_w: Tensor  # (d_video, d_video)
    k_w: Tensor  # (d_audio, d_video)
    v_w: Tensor  # (d_audio, d_video)


def init_attention_params(d_video: int, d_audio: int, rng: np.random.Generator) -> AttentionParams:
    # zero value projection: attention starts as the identity on video tokens
    return AttentionParams(
        q_w=Tensor(rng.standard_normal((d_video, d_video)) / np.sqrt(d_video), requires_grad=True),
        k_w=Tensor(rng.standard_normal((d_audio, d_video)) / np.sqrt(d_audio), requires_grad=True),
        v_w=Tensor(np.zeros((d_audio, d_video)), requires_grad=True),
    )


def frame_tokens(values: Tensor, frames: int) -> Tensor:
    """Average the embedding's columns over contiguous segments, one token per frame.

    (d_a, l) -> (frames, d_a) by mean-pooling each run of l/frames columns.
    """
    d_a, l = values.shape
    if l % frames:
        raise ValueError(f"frame_tokens: length {l} not divisible by frames {frames}")
    return permute(mean(reshape(values, (d_a, frames, l // frames)), axis=2), (1, 0))


def audio_attention(video_tokens: Tensor, audio_tokens: Tensor, p: AttentionParams) -> Tensor:
    """Cross-attend video tokens over audio tokens; the result adds residually.

    Softmax rows sum to one; a zero value projection therefore returns the
    video tokens unchanged.
    """
    if audio_tokens.shape[0] == 0:
        raise ValueError("audio_attention: need at least one audio token")
    d = video_tokens.shape[1]
    q = matmul(video_tokens, p.q_w)
    k = matmul(audio_tokens, p.k_w)
    v = matmul(audio_tokens, p.v_w)
    logits = ew_mul(matmul(q, permute(k, (1, 0))), 1.0 / np.sqrt(d))
    attn = softmax_rows(logits)
    return add(video_tokens, matmul(attn, v))

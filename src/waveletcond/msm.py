"""Multi-scale spectral conditioning of audio embeddings.

A noisy video latent drives four scalar importance weights (one per Haar
sub-band).  The audio embedding is decomposed, its sub-bands rescaled by
those weights, and the result reconstructed by the inverse transform,
yielding a conditioned audio vector of the original shape.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, add, as_tensor, ew_mul, matmul, mean, relu, reshape
from .wavelet import dwt2, idwt2


def init_msm_params(latent_shape: tuple[int, ...], hidden: int = 16) -> dict[str, Tensor]:
    """Identity-at-init parameters for a latent of the given (f, c, w, h) shape.

    The tunable latent-weighting matrix and the two-layer weight head:
    `msm.w` has the latent's shape, init 1.0; `msm.fc1_w` is (4, hidden) and
    `msm.fc1_b` (hidden,), both init 0; `msm.fc2_w` is (hidden, 4), init 0,
    and `msm.fc2_b` (4,), init 1.0.  With zero FC weights and a unit output
    bias the module is an exact identity on the audio embedding.
    """
    if len(latent_shape) != 4:
        raise ValueError(f"init_msm_params: latent shape must be 4-D, got {latent_shape}")
    if latent_shape[2] % 4:
        raise ValueError(f"init_msm_params: latent width {latent_shape[2]} not divisible by 4")
    return {
        "msm.w": Tensor(np.ones(latent_shape), requires_grad=True),
        "msm.fc1_w": Tensor(np.zeros((4, hidden)), requires_grad=True),
        "msm.fc1_b": Tensor(np.zeros(hidden), requires_grad=True),
        "msm.fc2_w": Tensor(np.zeros((hidden, 4)), requires_grad=True),
        "msm.fc2_b": Tensor(np.ones(4), requires_grad=True),
    }


def chunk_weights(z_t: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Derive the four sub-band importance scalars from the noisy latent.

    The latent is reweighted elementwise by `msm.w`, split into four equal
    chunks along the width axis, each chunk mean-pooled to one scalar, and
    the resulting 4-vector passed through fc1 -> ReLU -> fc2.  Returns a
    (4,) tensor ordered (ll, lh, hl, hh).
    """
    z_t = as_tensor(z_t)
    if z_t.data.ndim != 4:
        raise ValueError(f"chunk_weights: latent must be 4-D (f,c,w,h), got {z_t.shape}")
    w = p["msm.w"]
    if z_t.shape != w.shape:
        raise ValueError(f"chunk_weights: latent shape {z_t.shape} != weight shape {w.shape}")
    f, c, d_w, h = z_t.shape
    if d_w % 4:
        raise ValueError(f"chunk_weights: width {d_w} not divisible by 4")
    hid = p["msm.fc1_w"].shape[-1:]  # (H,): the head's width is read from the head
    for name, want in (("msm.fc1_w", (4, *hid)), ("msm.fc1_b", hid),
                       ("msm.fc2_w", (*hid, 4)), ("msm.fc2_b", (4,))):
        if p[name].shape != want:
            raise ValueError(f"chunk_weights: parameter {name!r} has shape {p[name].shape}, "
                             f"expected {want}")
    chunks = reshape(ew_mul(w, z_t), (f, c, 4, d_w // 4, h))
    row = reshape(mean(chunks, axis=(0, 1, 3, 4)), (1, 4))
    hidden = relu(add(matmul(row, p["msm.fc1_w"]), p["msm.fc1_b"]))  # (1, H)
    return reshape(add(matmul(hidden, p["msm.fc2_w"]), p["msm.fc2_b"]), (4,))


def msm_forward(audio: Tensor, z_t: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Condition the (d_a, l) audio embedding on the latent: decompose, reweight, reconstruct.

    Both dimensions must be even (dwt2 checks).  Band k of the
    (4, d_a/2, l/2) sub-band stack is scaled by weight k.
    """
    audio = as_tensor(audio)
    if audio.data.ndim != 2:
        raise ValueError(f"msm_forward: expected a 2-D (d_a, l) audio embedding, got {audio.shape}")
    weights = chunk_weights(z_t, p)
    return idwt2(ew_mul(dwt2(audio), reshape(weights, (4, 1, 1))))

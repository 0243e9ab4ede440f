"""Self-adaptive filtering of encoder bottleneck features.

Features are wavelet-decomposed, each sub-band rescaled by a tunable
per-element weight tensor, and reconstructed; a sigmoid gate computed from
the raw features by a channel-mixing layer then modulates the result.  At
the default initialization (unit sub-band weights, zero gate layer) the
output is exactly half the input: the wavelet path is the identity and
sigmoid(0) = 0.5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ParamGroup, Tensor, as_tensor, channel_linear, ew_mul, sigmoid
from .wavelet import SubBands, dwt2_batched, idwt2_batched


@dataclass
class SfmParams(ParamGroup):
    """Per-element sub-band weights plus the channel-mixing gate layer."""

    default_prefix = "sfm"

    w_ll: Tensor   # (f, c, h/2, w/2), init 1.0
    w_lh: Tensor
    w_hl: Tensor
    w_hh: Tensor
    gate_w: Tensor  # (c, c), init 0
    gate_b: Tensor  # (c,), init 0

    def band_weights(self) -> tuple[Tensor, Tensor, Tensor, Tensor]:
        return (self.w_ll, self.w_lh, self.w_hl, self.w_hh)


def init_sfm_params(feature_shape: tuple[int, ...]) -> SfmParams:
    """Parameters for bottleneck features of shape (f, c, h, w); h, w must be even."""
    if len(feature_shape) != 4:
        raise ValueError(f"init_sfm_params: feature shape must be 4-D, got {feature_shape}")
    f, c, h, w = feature_shape
    if h % 2 or w % 2:
        raise ValueError(f"init_sfm_params: spatial dims must be even, got {feature_shape}")
    half = (f, c, h // 2, w // 2)
    return SfmParams(
        w_ll=Tensor(np.ones(half), requires_grad=True),
        w_lh=Tensor(np.ones(half), requires_grad=True),
        w_hl=Tensor(np.ones(half), requires_grad=True),
        w_hh=Tensor(np.ones(half), requires_grad=True),
        gate_w=Tensor(np.zeros((c, c)), requires_grad=True),
        gate_b=Tensor(np.zeros(c), requires_grad=True),
    )


def gate_map(h_t: Tensor, p: SfmParams) -> Tensor:
    """Sigmoid attention map: channel-mixing linear layer at every position.

    Output has the same shape as h_t, every entry strictly inside (0, 1).
    """
    h_t = as_tensor(h_t)
    if h_t.data.ndim != 4:
        raise ValueError(f"gate_map: features must be 4-D (f,c,h,w), got {h_t.shape}")
    c = h_t.shape[1]
    if p.gate_w.shape != (c, c):
        raise ValueError(f"gate_map: channel count {c} does not match gate weights {p.gate_w.shape}")
    return sigmoid(channel_linear(h_t, p.gate_w, p.gate_b))


def sfm_forward(h_t: Tensor, p: SfmParams) -> Tensor:
    """Filter bottleneck features: reweight sub-bands, reconstruct, gate."""
    h_t = as_tensor(h_t)
    bands = dwt2_batched(h_t)
    for name, w, band in zip(("w_ll", "w_lh", "w_hl", "w_hh"), p.band_weights(), bands.bands()):
        if w.shape != band.shape:
            raise ValueError(
                f"sfm_forward: {name} shape {w.shape} does not match sub-band shape {band.shape}")
    weighted = SubBands(*[ew_mul(w, band) for w, band in zip(p.band_weights(), bands.bands())])
    reconstructed = idwt2_batched(weighted)
    return ew_mul(gate_map(h_t, p), reconstructed)

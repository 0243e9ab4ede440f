"""Self-adaptive filtering of encoder bottleneck features.

Features are wavelet-decomposed, the (4, f, c, h/2, w/2) sub-band stack
rescaled by a tunable per-element weight tensor of the same shape, and
reconstructed; a sigmoid gate computed from the raw features by a
channel-mixing layer then modulates the result.  At
the default initialization (unit sub-band weights, zero gate layer) the
output is exactly half the input: the wavelet path is the identity and
sigmoid(0) = 0.5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ParamGroup, Tensor, as_tensor, channel_linear, ew_mul, sigmoid
from .wavelet import dwt2_batched, idwt2_batched


@dataclass
class SfmParams(ParamGroup):
    """Per-element sub-band weights plus the channel-mixing gate layer."""

    prefix = "sfm"

    w: Tensor       # (4, f, c, h/2, w/2): one slice per band in BAND_ORDER, init 1.0
    gate_w: Tensor  # (c, c), init 0
    gate_b: Tensor  # (c,), init 0


def init_sfm_params(feature_shape: tuple[int, ...]) -> SfmParams:
    """Parameters for bottleneck features of shape (f, c, h, w); h, w must be even."""
    if len(feature_shape) != 4:
        raise ValueError(f"init_sfm_params: feature shape must be 4-D, got {feature_shape}")
    f, c, h, w = feature_shape
    if h % 2 or w % 2:
        raise ValueError(f"init_sfm_params: spatial dims must be even, got {feature_shape}")
    return SfmParams(
        w=Tensor(np.ones((4, f, c, h // 2, w // 2)), requires_grad=True),
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
    if p.w.shape != bands.shape:
        raise ValueError(
            f"sfm_forward: w shape {p.w.shape} does not match sub-band shape {bands.shape}")
    return ew_mul(gate_map(h_t, p), idwt2_batched(ew_mul(p.w, bands)))

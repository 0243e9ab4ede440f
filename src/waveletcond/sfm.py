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

import numpy as np

from .tensor import Tensor, add, as_tensor, ew_mul, matmul, reshape, sigmoid
# perfbench/spans.py binds these two names in this module
from .wavelet import dwt2 as dwt2_batched, idwt2 as idwt2_batched


def init_sfm_params(feature_shape: tuple[int, ...]) -> dict[str, Tensor]:
    """Parameters for bottleneck features of shape (f, c, h, w); h, w must be even.

    The per-element sub-band weights plus the channel-mixing gate layer:
    `sfm.w` is (4, f, c, h/2, w/2), one slice per band in BAND_ORDER, init
    1.0; `sfm.gate_w` is (c, c) and `sfm.gate_b` (c,), both init 0.
    """
    if len(feature_shape) != 4:
        raise ValueError(f"init_sfm_params: feature shape must be 4-D, got {feature_shape}")
    f, c, h, w = feature_shape
    if h % 2 or w % 2:
        raise ValueError(f"init_sfm_params: spatial dims must be even, got {feature_shape}")
    return {
        "sfm.w": Tensor(np.ones((4, f, c, h // 2, w // 2)), requires_grad=True),
        "sfm.gate_w": Tensor(np.zeros((c, c)), requires_grad=True),
        "sfm.gate_b": Tensor(np.zeros(c), requires_grad=True),
    }


def gate_map(h_t: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Sigmoid attention map: channel-mixing linear layer at every position.

    Output has the same shape as h_t, every entry strictly inside (0, 1).
    """
    h_t = as_tensor(h_t)
    if h_t.data.ndim != 4:
        raise ValueError(f"gate_map: features must be 4-D (f,c,h,w), got {h_t.shape}")
    f, c, h, w = h_t.shape
    gate_w, gate_b = p["sfm.gate_w"], p["sfm.gate_b"]
    if gate_w.shape != (c, c):
        raise ValueError(f"gate_map: channel count {c} does not match gate weights {gate_w.shape}")
    if gate_b.shape != (c,):
        raise ValueError(f"gate_map: channel count {c} does not match gate bias {gate_b.shape}")
    mixed = reshape(matmul(gate_w, reshape(h_t, (f, c, h * w))), (f, c, h, w))
    return sigmoid(add(mixed, reshape(gate_b, (c, 1, 1))))


def sfm_forward(h_t: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Filter bottleneck features: reweight sub-bands, reconstruct, gate."""
    h_t = as_tensor(h_t)
    bands = dwt2_batched(h_t)
    w = p["sfm.w"]
    if w.shape != bands.shape:
        raise ValueError(
            f"sfm_forward: w shape {w.shape} does not match sub-band shape {bands.shape}")
    return ew_mul(gate_map(h_t, p), idwt2_batched(ew_mul(w, bands)))

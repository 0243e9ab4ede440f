"""Single-level 2-D Haar wavelet transform and its inverse.

The four 2x2 kernels are outer products of the low-pass filter
L = (1/sqrt(2))[1, 1] and the high-pass filter H = (1/sqrt(2))[-1, 1].
Orientation convention (locked by test vectors): the first kernel letter
acts along the vertical (row) axis, the second along the horizontal
(column) axis.  The kernels are orthonormal, so the transform preserves
energy and the adjoint reconstruction is the exact inverse.

The four sub-bands travel as one stack: the leading axis of length 4 holds
ll, lh, hl, hh in BAND_ORDER.  Primitives carry a hand-written backward
rule: `dwt2` and `idwt2`, the two directions as linear tape ops on that
stack.  The gradient of the forward transform is the inverse transform of
the upstream stack gradient, and vice versa.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor

BAND_ORDER = ("ll", "lh", "hl", "hh")


class SubBands:
    """Empty: the sub-bands are one stacked tensor.  perfbench/spans.py imports this name."""


def _check_even(shape: tuple[int, ...]) -> None:
    if len(shape) < 2:
        raise ValueError(f"dwt2: need at least 2 dimensions, got shape {shape}")
    h, w = shape[-2], shape[-1]
    if h % 2:
        raise ValueError(f"dwt2: trailing row dimension {h} is odd (shape {shape})")
    if w % 2:
        raise ValueError(f"dwt2: trailing column dimension {w} is odd (shape {shape})")


def dwt2_data(x: np.ndarray) -> np.ndarray:
    """Numpy core: correlate each non-overlapping 2x2 block with the four kernels.

    Returns the bands stacked as (4, *lead, h/2, w/2), in BAND_ORDER.  The
    2x2 block entries a b / c d are de-interleaved by one contiguous copy, so
    no pass runs over stride-2 views.  The bands are summed as ((a+b)+c)+d,
    ((b-a)-c)+d, (((-a)-b)+c)+d and ((a-b)-c)+d, which round exactly as
    a+b+c+d, -a+b-c+d, -a-b+c+d and a-b-c+d, signed zeros included: b+(-a)
    is b-a in IEEE arithmetic, but -(a+b) would not do for (-a)-b, because
    for a = -b the sum is +0 and its negation -0.
    """
    _check_even(x.shape)
    lead, h, w = x.shape[:-2], x.shape[-2], x.shape[-1]
    k = len(lead)
    a, b, c, d = np.ascontiguousarray(
        x.reshape(*lead, h // 2, 2, w // 2, 2).transpose(k + 1, k + 3, *range(k), k, k + 2)
    ).reshape(4, *lead, h // 2, w // 2)
    out = np.empty((4, *lead, h // 2, w // 2), dtype=np.result_type(x, 0.5))
    np.add(a, b, out=out[0])
    out[0] += c
    np.subtract(b, a, out=out[1])
    out[1] -= c
    np.negative(a, out=out[2])
    out[2] -= b
    out[2] += c
    np.subtract(a, b, out=out[3])
    out[3] -= c
    out += d
    out *= 0.5
    return out


def idwt2_data(s: np.ndarray) -> np.ndarray:
    """Numpy core: adjoint reconstruction from a band stack, exact inverse of dwt2_data."""
    if s.ndim < 3 or s.shape[0] != 4:
        raise ValueError(f"idwt2: expected a (4, ..., h, w) sub-band stack, got shape {s.shape}")
    ll, lh, hl, hh = s
    x = np.empty(ll.shape[:-2] + (2 * ll.shape[-2], 2 * ll.shape[-1]), dtype=s.dtype)
    x[..., 0::2, 0::2] = (ll - lh - hl + hh) * 0.5
    x[..., 0::2, 1::2] = (ll + lh - hl - hh) * 0.5
    x[..., 1::2, 0::2] = (ll - lh + hl - hh) * 0.5
    x[..., 1::2, 1::2] = (ll + lh + hl + hh) * 0.5
    return x


def dwt2(x: Tensor) -> Tensor:
    """Decompose the trailing two dimensions into a (4, *lead, h/2, w/2) band stack.

    Leading (batch) dimensions are carried through unchanged; trailing
    dimensions must be even.
    """
    x = as_tensor(x)
    nx = x._node

    def backward(g: np.ndarray) -> None:
        nx._accumulate(idwt2_data(g))

    return Tensor._from_op(dwt2_data(x.data), (nx,), backward)


def idwt2(s: Tensor) -> Tensor:
    """Reconstruct the signal from a (4, ...) band stack (exact inverse of dwt2)."""
    s = as_tensor(s)
    ns = s._node

    def backward(g: np.ndarray) -> None:
        ns._accumulate(dwt2_data(g))

    return Tensor._from_op(idwt2_data(s.data), (ns,), backward)


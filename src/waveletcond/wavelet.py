"""Single-level 2-D Haar wavelet transform and its inverse.

The four 2x2 kernels are outer products of the low-pass filter
L = (1/sqrt(2))[1, 1] and the high-pass filter H = (1/sqrt(2))[-1, 1].
Orientation convention (locked by test vectors): the first kernel letter
acts along the vertical (row) axis, the second along the horizontal
(column) axis.  The kernels are orthonormal, so the transform preserves
energy and the adjoint reconstruction is the exact inverse.

The four sub-bands travel as one stack: the leading axis of length 4 holds
ll, lh, hl, hh in BAND_ORDER.  Both directions are recorded as linear
autodiff ops on that stack: the gradient of the forward transform is the
inverse transform of the upstream stack gradient, and vice versa.
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

    Returns the bands stacked as (4, *lead, h/2, w/2), in BAND_ORDER.
    """
    _check_even(x.shape)
    a = x[..., 0::2, 0::2]
    b = x[..., 0::2, 1::2]
    c = x[..., 1::2, 0::2]
    d = x[..., 1::2, 1::2]
    return np.stack([(a + b + c + d) * 0.5, (-a + b - c + d) * 0.5,
                     (-a - b + c + d) * 0.5, (a - b - c + d) * 0.5])


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
    dimensions must be even (see pad_even).
    """
    x = as_tensor(x)

    def backward(g: np.ndarray) -> None:
        x._accumulate(idwt2_data(g))

    return Tensor._from_op(dwt2_data(x.data), (x,), backward)


def idwt2(s: Tensor) -> Tensor:
    """Reconstruct the signal from a (4, ...) band stack (exact inverse of dwt2)."""
    s = as_tensor(s)

    def backward(g: np.ndarray) -> None:
        s._accumulate(dwt2_data(g))

    return Tensor._from_op(idwt2_data(s.data), (s,), backward)


# Batched aliases: the cores already apply per 2-D slice across all leading
# dimensions.  sfm calls through them because perfbench/spans.py binds these names.
dwt2_batched = dwt2
idwt2_batched = idwt2


def pad_even(x: Tensor) -> tuple[Tensor, tuple[int, int]]:
    """Zero-pad the trailing dimensions up to even sizes.

    Returns the padded tensor and the original (rows, cols) so the result of
    a later idwt2 can be cropped back with crop_to.
    """
    x = as_tensor(x)
    if x.data.ndim < 2:
        raise ValueError(f"pad_even: need at least 2 dimensions, got shape {x.shape}")
    h, w = x.shape[-2], x.shape[-1]
    ph, pw = h % 2, w % 2
    if not ph and not pw:
        return x, (h, w)
    widths = [(0, 0)] * (x.data.ndim - 2) + [(0, ph), (0, pw)]
    out_data = np.pad(x.data, widths)

    def backward(g: np.ndarray) -> None:
        x._accumulate(g[..., :h, :w])

    return Tensor._from_op(out_data, (x,), backward), (h, w)


def crop_to(x: Tensor, size: tuple[int, int]) -> Tensor:
    """Crop the trailing dimensions back to the pre-pad size."""
    h, w = size
    return x[..., :h, :w]

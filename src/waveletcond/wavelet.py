"""Single-level 2-D Haar wavelet transform and its inverse.

The four 2x2 kernels are outer products of the low-pass filter
L = (1/sqrt(2))[1, 1] and the high-pass filter H = (1/sqrt(2))[-1, 1].
Orientation convention (locked by test vectors): the first kernel letter
acts along the vertical (row) axis, the second along the horizontal
(column) axis.  The kernels are orthonormal, so the transform preserves
energy and the adjoint reconstruction is the exact inverse.

Both directions are recorded as linear autodiff ops: the gradient of the
forward transform is the inverse transform of the upstream sub-band
gradients, and vice versa.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, as_tensor

BAND_ORDER = ("ll", "lh", "hl", "hh")


@dataclass
class SubBands:
    """Same-shaped wavelet components of 2-D slices: coarse ll plus lh/hl/hh detail."""

    ll: Tensor
    lh: Tensor
    hl: Tensor
    hh: Tensor

    def __post_init__(self):
        shapes = {b.shape for b in self.bands()}
        if len(shapes) != 1:
            raise ValueError(f"SubBands: shapes differ: {[b.shape for b in self.bands()]}")

    def bands(self) -> tuple[Tensor, Tensor, Tensor, Tensor]:
        return (self.ll, self.lh, self.hl, self.hh)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.ll.shape


def _check_even(shape: tuple[int, ...]) -> None:
    if len(shape) < 2:
        raise ValueError(f"dwt2: need at least 2 dimensions, got shape {shape}")
    h, w = shape[-2], shape[-1]
    if h % 2:
        raise ValueError(f"dwt2: trailing row dimension {h} is odd (shape {shape})")
    if w % 2:
        raise ValueError(f"dwt2: trailing column dimension {w} is odd (shape {shape})")


def dwt2_data(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Numpy core: correlate each non-overlapping 2x2 block with the four kernels."""
    _check_even(x.shape)
    a = x[..., 0::2, 0::2]
    b = x[..., 0::2, 1::2]
    c = x[..., 1::2, 0::2]
    d = x[..., 1::2, 1::2]
    ll = (a + b + c + d) * 0.5
    lh = (-a + b - c + d) * 0.5
    hl = (-a - b + c + d) * 0.5
    hh = (a - b - c + d) * 0.5
    return ll, lh, hl, hh


def idwt2_data(ll: np.ndarray, lh: np.ndarray, hl: np.ndarray, hh: np.ndarray) -> np.ndarray:
    """Numpy core: adjoint reconstruction, exact inverse of dwt2_data."""
    shapes = {ll.shape, lh.shape, hl.shape, hh.shape}
    if len(shapes) != 1:
        raise ValueError(f"idwt2: sub-band shapes differ: {sorted(map(str, shapes))}")
    out_shape = ll.shape[:-2] + (2 * ll.shape[-2], 2 * ll.shape[-1])
    x = np.empty(out_shape, dtype=ll.dtype)
    x[..., 0::2, 0::2] = (ll - lh - hl + hh) * 0.5
    x[..., 0::2, 1::2] = (ll + lh - hl - hh) * 0.5
    x[..., 1::2, 0::2] = (ll - lh + hl - hh) * 0.5
    x[..., 1::2, 1::2] = (ll + lh + hl + hh) * 0.5
    return x


def dwt2(x: Tensor) -> SubBands:
    """Decompose the trailing two dimensions into four half-size sub-bands.

    Leading (batch) dimensions are carried through unchanged; trailing
    dimensions must be even (see pad_even).  The bands are slices of one
    op over the stacked bands, so the backward pass runs a single inverse
    transform of all four band gradients.
    """
    x = as_tensor(x)

    def backward(g: np.ndarray) -> None:
        x._accumulate(idwt2_data(*g))

    stacked = Tensor._from_op(np.stack(dwt2_data(x.data)), (x,), backward)
    return SubBands(*(stacked[i] for i in range(4)))


def idwt2(s: SubBands) -> Tensor:
    """Reconstruct the signal from four sub-bands (exact inverse of dwt2)."""
    parents = s.bands()
    out_data = idwt2_data(*(b.data for b in parents))

    def backward(g: np.ndarray) -> None:
        gb = dwt2_data(g)
        for band, grad in zip(parents, gb):
            if band.requires_grad:
                band._accumulate(grad)

    return Tensor._from_op(out_data, parents, backward)


# Batched aliases: the cores already apply per 2-D slice across all leading
# dimensions, so these are the same operations under the contract names.
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

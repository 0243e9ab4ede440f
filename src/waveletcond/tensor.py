"""Dense real tensors with a minimal reverse-mode gradient tape.

The op set is deliberately closed.  Primitives carry a hand-written backward
rule: `add`, `ew_mul`, `matmul`, `sigmoid`, `relu`, `softmax_rows`, `mean`,
`reshape`, `permute` and `conv3x3`.
`Tensor` defines no arithmetic operators: each op has one spelling, its function.
The test suite checks every op against central finite differences, and
every linear one by an adjoint (dot-product) test.  `backward()` leaves a
gradient only on the leaves: each op output drops its own once its rule has
run.

Contractions (`matmul`, `conv3x3`) go through `np.matmul`, so they run as
BLAS matrix products; `conv3x3`'s docstring describes its algorithm.  It reads
channel blocks, a half-resolution one nearest-upsampled 2x, keeps only the
blocks on the tape (its backward rebuilds their zero-padded buffer), and takes
the input gradient one block at a time.

`add`, `ew_mul` and `matmul` broadcast like numpy (`matmul` over the axes
before the last two); each operand's gradient is summed back onto its own
shape.  One lifting rule, `as_tensor(x, like)`, turns every non-tensor
operand of a multi-operand op into a constant in the dtype of the tensor it
meets: either side of `add`, `ew_mul` and `matmul`, and every `conv3x3`
input block and its bias (lifted like its weight).  So an f32 tensor never
meets a promoting f64 array.  A lone operand follows `Tensor`'s rule
instead.  Tensors are immutable values after construction; training
replaces parameter tensors instead of mutating them.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np


class Tensor:
    """N-dimensional real array with shape metadata, row-major storage.

    A tensor produced by an operation keeps references to its parent tensors
    and a closure that routes upstream gradients to them; `backward()` walks
    that record in reverse topological order.

    Precision follows the data: f32 data stays f32 and anything else becomes
    f64, unless `dtype` is given.  Gradient checks are only reliable at f64.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.array(data, dtype=dtype)
        if dtype is None and arr.dtype != np.float32:
            arr = arr.astype(np.float64, copy=False)
        arr.setflags(write=False)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: Sequence["Tensor"],
                 backward_fn: Callable[[np.ndarray], None]) -> "Tensor":
        """Wrap an op result; records the tape edge only if a parent needs grad.

        Invariant: an op output has `requires_grad` exactly when it recorded
        a tape edge (parents and a backward rule).  A leaf has no edge, so
        `requires_grad` alone tells a backward rule whether an input wants a
        gradient; rules test it before computing that gradient.
        """
        out = cls.__new__(cls)
        arr = np.asarray(data)
        arr.setflags(write=False)
        out.data = arr
        out.grad = None
        out.requires_grad = any(p.requires_grad for p in parents)
        out._parents = tuple(parents) if out.requires_grad else ()
        out._backward_fn = backward_fn if out.requires_grad else None
        return out

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"

    # -- gradient accumulation ----------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros(self.data.shape, dtype=self.data.dtype)
        self.grad += g

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar node, adding into the leaves' `.grad`.

        Leaves keep their gradients.  Every op output, this node included,
        releases its `.grad` once its rule has run, so no spent gradient is
        held to the end of the sweep.  A second `backward()` on the same
        graph therefore adds the same leaf gradients again, as a fresh graph
        would.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar loss, got shape {self.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones(self.data.shape, dtype=self.data.dtype))
        for node in reversed(order):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)
                node.grad = None  # spent: only leaves keep a gradient


def as_tensor(x, like=None) -> Tensor:
    """A tensor as is; anything else as a constant in `like`'s dtype.

    With no tensor `like`, a constant follows `Tensor`'s rule: f32 stays f32
    and anything else becomes f64.
    """
    if isinstance(x, Tensor):
        return x
    return Tensor(x, dtype=like.dtype if isinstance(like, Tensor) else None)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back onto an operand of `shape`, in one reduction."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(lead + i for i, n in enumerate(shape) if n == 1)
    return g.sum(axis=axes).reshape(shape)


# -- elementwise & linear primitives ------------------------------------------


def add(a: Tensor, b) -> Tensor:
    """Elementwise sum with numpy broadcasting."""
    a, b = as_tensor(a, b), as_tensor(b, a)
    try:
        out_data = a.data + b.data
    except ValueError:
        raise ValueError(f"add: shape mismatch {a.shape} vs {b.shape}") from None

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return Tensor._from_op(out_data, (a, b), backward)


def ew_mul(a: Tensor, b) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    a, b = as_tensor(a, b), as_tensor(b, a)
    try:
        out_data = a.data * b.data
    except ValueError:
        raise ValueError(f"ew_mul: shape mismatch {a.shape} vs {b.shape}") from None

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return Tensor._from_op(out_data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of operands of rank >= 2, leading axes broadcast as in `np.matmul`."""
    a, b = as_tensor(a, b), as_tensor(b, a)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError(f"matmul: expected operands of rank >= 2, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul: inner dimensions differ: {a.shape} vs {b.shape}")
    out_data = np.matmul(a.data, b.data)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape))

    return Tensor._from_op(out_data, (a, b), backward)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic function, numerically stable for any finite input.

    exp(min(x, 0)) / (1 + exp(-|x|)) is 1/(1 + e^-x) for x >= 0 and
    e^x/(1 + e^x) below, bit for bit the two-branch select, without the
    select (exp(0) is exactly 1).
    """
    x = as_tensor(x)
    out_data = np.exp(np.minimum(x.data, 0.0)) / (1.0 + np.exp(-np.abs(x.data)))

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * out_data * (1.0 - out_data))

    return Tensor._from_op(out_data, (x,), backward)


def relu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out_data = np.maximum(x.data, 0.0)

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * (x.data > 0.0).astype(g.dtype))

    return Tensor._from_op(out_data, (x,), backward)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax of a 2-D tensor; each output row sums to 1."""
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise ValueError(f"softmax_rows: expected 2-D input, got {x.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=1, keepdims=True)

    def backward(g: np.ndarray) -> None:
        dot = np.sum(g * out_data, axis=1, keepdims=True)
        x._accumulate(out_data * (g - dot))

    return Tensor._from_op(out_data, (x,), backward)


# -- reductions ---------------------------------------------------------------


def mean(x: Tensor, axis: int | tuple[int, ...] | None = None) -> Tensor:
    """Arithmetic mean over `axis` (an int or a tuple); over every entry when None."""
    x = as_tensor(x)
    if x.data.size == 0:
        raise ValueError("mean: empty tensor")
    kept = x.data.mean(axis=axis, keepdims=True)
    n = x.data.size // kept.size

    def backward(g: np.ndarray) -> None:
        x._accumulate(np.broadcast_to(g.reshape(kept.shape) / n, x.data.shape))

    return Tensor._from_op(np.squeeze(kept, axis=axis), (x,), backward)


# -- shape manipulation ---------------------------------------------------------


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    shape = tuple(int(s) for s in shape)
    out_data = x.data.reshape(shape)

    def backward(g: np.ndarray) -> None:
        x._accumulate(g.reshape(x.data.shape))

    return Tensor._from_op(out_data, (x,), backward)


def permute(x: Tensor, axes: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    axes = tuple(axes)
    inv = np.argsort(axes)
    out_data = x.data.transpose(axes)

    def backward(g: np.ndarray) -> None:
        x._accumulate(g.transpose(inv))

    return Tensor._from_op(out_data, (x,), backward)


# -- convolution -----------------------------------------------------------------


def conv3x3(x, w: Tensor, b: Tensor, stride: int = 1) -> Tensor:
    """3x3 correlation with zero padding 1, plus a bias; stride 1 or 2.

    x: (n,c,h,w), or a sequence of channel blocks (n,c_i,h,w) read as their
    concatenation along channels; w: (co,c,3,3); b: (co,), in w's dtype.  A
    non-tensor block or bias is lifted like w.  (h, w) is the largest block's,
    and a block of exactly half that, (n,c_i,h/2,w/2), is read
    nearest-upsampled 2x (as the UNet's `up` conv reads its bottleneck).

    Nine per-tap matmuls over shifted column ranges of one flat buffer; no tap
    is copied and no (n*ho*wo, c*9) column matrix is built.  The zero-padded,
    channel-major (c, n, s*hq, s*wq) input (s the stride, hq = ho + 2//s,
    wq = wo + 2//s) is held as its s*s polyphase components of shape
    (c, n*hq*wq), padded row s*i + p being row i of phase p (columns alike).
    Each block is written straight into its channel range of the zeroed
    phases: at stride 1 a full-size block by one assignment and a half-size one
    by four strided assignments of the block itself, one per pixel of each 2x2
    cell; at stride 2 by four strided assignments, one per phase, of the
    block's even or odd rows and columns (of the whole block if it is
    half-size), so no padded buffer is transposed.
    Column (k*hq + i)*wq + j holds output pixel (i, j) of image k, and tap
    (u, v) reads phase (u%s, v%s) shifted by (u//s)*wq + v//s columns.  The
    nine products add into one contiguous (co, span) accumulator, span the
    columns every tap can reach, the bias is added along its long rows, and the
    output is read from it through one strided view.  Columns with i >= ho or
    j >= wo are scratch and are not read.  The backward walks the same taps
    over the output gradient laid out alike with zero borders.  The closure
    keeps the blocks, not the phases: only when the weight needs a gradient
    does the backward rebuild the phases from the blocks, for the weight
    gradient's nine matmuls into one (9, co, c) buffer, then free them before
    the input gradients.  The bias gradient is the output gradient summed over
    (n, h, w).  The input gradient is taken one block at a time, only for a
    block that needs it, so its workspaces are c_i channels wide: with a
    contiguous copy of the block's weight columns, each tap's product
    overwrites the first span columns of a zeroed (c_i, n*hq*wq) workspace and
    adds onto its phase as one contiguous flat run, the unwritten columns
    adding exact zeros; with one output channel that product is an outer
    product, taken by `np.multiply` (exact, and far cheaper than numpy's
    inner-dimension-1 matmul).  At stride 2 four strided assignments merge the
    phases back into the padded input layout.  A half-size block's gradient is
    its slice summed over each 2x2 cell as (top-left + top-right) +
    (bottom-left + bottom-right), which rounds as numpy 2.4's
    `reshape(...).sum(axis=(3, 5))` whenever w/2 > 1.  Both accumulations stay
    in contiguous memory because numpy adds into a strided column slice several
    times slower at the 8x8 bottleneck shapes.  The output and every gradient
    round exactly as the per-tap `w @ ph`, `w.T @ gf` and `gf @ ph.T` products
    summed tap by tap, with the bias added last; a block's rows of `w.T @ gf`
    are the same BLAS products.
    """
    if stride not in (1, 2):
        raise ValueError(f"conv3x3: stride must be 1 or 2, got {stride}")
    if w.data.ndim != 4 or w.shape[2:] != (3, 3):
        raise ValueError(f"conv3x3: bad weight shape w{w.shape}")
    co = w.shape[0]
    b = as_tensor(b, w)
    if b.shape != (co,) or b.dtype != w.dtype:
        raise ValueError(f"conv3x3: bias {b.shape} {b.dtype} does not match "
                         f"weight w{w.shape} {w.dtype}")
    blocks = [as_tensor(t, w) for t in (x if isinstance(x, (list, tuple)) else [x])]
    shapes = [t.shape for t in blocks]
    full = max((sh[2:] for sh in shapes if len(sh) == 4), default=None)
    if full is None or any(len(sh) != 4 or sh[0] != shapes[0][0]
                           or full not in (sh[2:], (2 * sh[2], 2 * sh[3])) for sh in shapes):
        raise ValueError(f"conv3x3: input blocks must be 4-D and agree on n and on (h, w) "
                         f"or exactly half of it, got {shapes}")
    bounds = list(itertools.accumulate((sh[1] for sh in shapes), initial=0))
    if bounds[-1] != w.shape[1]:
        raise ValueError(f"conv3x3: channel mismatch x{shapes} w{w.shape}")
    s = stride
    n, (h, wd) = shapes[0][0], full
    c = bounds[-1]
    ho, wo = (h - 1) // s + 1, (wd - 1) // s + 1
    hq, wq = ho + 2 // s, wo + 2 // s
    dtype = np.result_type(*(t.data for t in blocks), w.data)

    def phases() -> np.ndarray:
        """The blocks' zero-padded buffer as its (s*s, c, n*hq*wq) polyphase components."""
        ph = np.zeros((s, s, c, n, hq, wq), dtype=dtype)
        for t, lo, hi in zip(blocks, bounds, bounds[1:]):
            k = 1 if t.shape[2:] == full else 2  # a half-size block repeats each row and column
            m = max(s, k)  # padded rows e, e + m, ... (1 <= e <= m) share a phase and stride
            d = m // s
            xt = t.data.transpose(1, 0, 2, 3)
            for e, f in itertools.product(range(1, m + 1), repeat=2):
                src = xt[:, :, (e - 1) // k::m // k, (f - 1) // k::m // k]
                (hn, wn), i, j = src.shape[2:], e // s, f // s
                ph[e % s, f % s, lo:hi, :, i:i + d * hn:d, j:j + d * wn:d] = src
        return ph.reshape(s * s, c, -1)

    ph = phases()
    taps = [(u, v, (u % s) * s + v % s, (u // s) * wq + v // s) for u in range(3) for v in range(3)]
    cols = n * hq * wq
    span = cols - taps[-1][3]  # tap (2, 2) reaches furthest
    acc = np.zeros((co, span), dtype=dtype)
    for u, v, p, off in taps:
        acc += w.data[:, :, u, v] @ ph[p, :, off:off + span]
    acc += b.data[:, None]

    def block_grad(gf: np.ndarray, lo: int, hi: int, half: bool) -> np.ndarray:
        """The input gradient of channels lo:hi, in their block's (n, c_i, ., .) layout."""
        ci = hi - lo
        gph = np.zeros((s * s, ci, cols), dtype=dtype)
        # each tap's product overwrites the first span columns of tmp, whose
        # other columns are set to +0.0 once; so one contiguous run of L
        # entries adds it onto its phase, and the pad columns add exact zeros
        # to the head of the next channel's row (gph starts at +0.0, so it
        # never holds a -0.0 that such an add would flip)
        tmp = np.empty((ci, cols), dtype=dtype)
        tmp[:, span:] = 0.0
        L = ci * cols - (cols - span)
        gflat, tflat = gph.reshape(s * s, -1), tmp.reshape(-1)[:L]
        # each tap's (co, c_i) block made contiguous: a strided operand sends
        # matmul with out= down a slower path, and its transpose keeps the
        # BLAS call (and the rounding) of `w.data[:, lo:hi, u, v].T @ gf`
        wt = np.ascontiguousarray(w.data[:, lo:hi].transpose(2, 3, 0, 1))
        for u, v, p, off in taps:
            if co == 1:  # an outer product: numpy's k=1 matmul is far slower
                np.multiply(wt[u, v].T, gf, out=tmp[:, :span])
            else:
                np.matmul(wt[u, v].T, gf, out=tmp[:, :span])
            gflat[p, off:off + L] += tflat
        del tmp, tflat  # not held while the phases are merged
        if s == 1:
            gbuf = gph.reshape(ci, n, hq, wq)
        else:
            gbuf = np.empty((ci, n, hq, s, wq, s), dtype=dtype)
            for p in range(s * s):
                gbuf[:, :, :, p // s, :, p % s] = gph[p].reshape(ci, n, hq, wq)
            gbuf = gbuf.reshape(ci, n, s * hq, s * wq)
        gx = gbuf[:, :, 1:1 + h, 1:1 + wd]
        if half:
            gx = ((gx[:, :, 0::2, 0::2] + gx[:, :, 0::2, 1::2])
                  + (gx[:, :, 1::2, 0::2] + gx[:, :, 1::2, 1::2]))
        return gx.transpose(1, 0, 2, 3)

    def backward(g: np.ndarray) -> None:
        if b.requires_grad:
            b._accumulate(g.sum(axis=(0, 2, 3)))
        gf = np.zeros((co, n, hq, wq), dtype=g.dtype)
        gf[:, :, :ho, :wo] = g.transpose(1, 0, 2, 3)
        gf = gf.reshape(co, cols)[:, :span]
        if w.requires_grad:
            ph = phases()
            gw = np.empty((9, co, c), dtype=dtype)
            for t, (_, _, p, off) in enumerate(taps):
                np.matmul(gf, ph[p, :, off:off + span].T, out=gw[t])
            del ph  # not held while the input gradients are taken
            w._accumulate(gw.transpose(1, 2, 0).reshape(w.shape))
        for t, lo, hi in zip(blocks, bounds, bounds[1:]):
            if t.requires_grad:
                t._accumulate(block_grad(gf, lo, hi, t.shape[2:] != full))

    # output pixel (k, o, i, j) sits at acc[o, (k*hq + i)*wq + j]; the largest
    # column read, ((n-1)*hq + ho-1)*wq + wo-1, is span - 1 at both strides
    # (span is n*hq*wq - 2*wq - 2 at stride 1 and n*hq*wq - wq - 1 at stride 2)
    e = acc.itemsize
    out = np.lib.stride_tricks.as_strided(acc, (n, co, ho, wo), (hq * wq * e, span * e, wq * e, e),
                                          writeable=False)
    return Tensor._from_op(np.ascontiguousarray(out), (*blocks, w, b), backward)


# -- optimizer ----------------------------------------------------------------

# Adam's published defaults (Kingma & Ba 2015, arXiv 1412.6980).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """First/second moment accumulators and update counts for one parameter set."""

    def __init__(self, params: dict[str, Tensor]):
        self.m = {k: np.zeros(p.shape, dtype=p.data.dtype) for k, p in params.items()}
        self.v = {k: np.zeros(p.shape, dtype=p.data.dtype) for k, p in params.items()}
        self.step = dict.fromkeys(params, 0)


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray], state: AdamState,
              lr: float) -> dict[str, Tensor]:
    """One bias-corrected Adam update (the ADAM_* constants); returns fresh tensors.

    A parameter missing from `grads`, or whose grad is None, is returned as
    is and its moments and step count stay untouched; those of the other
    parameters advance in place.  Each parameter's bias correction uses its
    own step count, so skipped steps do not count.
    """
    if not 0.0 < lr < math.inf:
        raise ValueError(f"adam_step: lr must be positive and finite, got {lr}")
    new_params: dict[str, Tensor] = {}
    for k, p in params.items():
        g = grads.get(k)
        if g is None:
            new_params[k] = p
            continue
        if g.shape != p.shape:
            raise ValueError(f"adam_step: grad shape {g.shape} != param shape {p.shape} for {k!r}")
        state.step[k] += 1
        t = state.step[k]
        m = state.m[k]
        v = state.v[k]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1 ** t)
        v_hat = v / (1.0 - ADAM_BETA2 ** t)
        new_data = p.data - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        new_params[k] = Tensor(new_data, requires_grad=p.requires_grad)
    return new_params


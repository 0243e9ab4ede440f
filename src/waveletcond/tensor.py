"""Dense real tensors with a minimal reverse-mode gradient tape.

The op set is deliberately closed.  Primitives carry a hand-written backward
rule: `add`, `ew_mul`, `matmul`, `sigmoid`, `relu`, `softmax_rows`, `mean`,
`reshape`, `permute` and `conv3x3`.
`Tensor` defines no arithmetic operators: each op has one spelling, its function.
The test suite checks every op against central finite differences, and
every linear one by an adjoint (dot-product) test.  `backward()` leaves a
gradient only on the leaves: each op output drops its own once its rule has
run.

The tape is made of nodes, not tensors.  A tensor that needs a gradient owns
a `_Node` (its shape, dtype, transient gradient, its inputs' nodes and its
backward rule), and each rule keeps only the arrays it reads: `ew_mul` and
`matmul` an operand only when the other one needs a gradient, `sigmoid`,
`relu` and `softmax_rows` their output, `conv3x3` its blocks only for the
weight gradient and its weight only for a block's, and the other ops shapes
alone.  So an intermediate that no rule reads is freed during the forward,
when its last name goes.

Contractions (`matmul`, `conv3x3`) run as BLAS products through `np.matmul`;
`conv3x3`'s docstring describes its algorithm.

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


class _Node:
    """The tape entry of a tensor that needs a gradient.

    `grad` is added into during a `backward()` sweep.  A leaf has no parents
    and no rule; an op output has the nodes of its inputs that need a
    gradient and a rule that routes its upstream gradient to them.
    """

    __slots__ = ("shape", "dtype", "grad", "_parents", "_backward_fn")

    def __init__(self, shape: tuple[int, ...], dtype, parents: tuple[_Node, ...] = (),
                 backward_fn: Callable[[np.ndarray], None] | None = None):
        self.shape = shape
        self.dtype = dtype
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._backward_fn = backward_fn

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros(self.shape, dtype=self.dtype)
        self.grad += g


class Tensor:
    """N-dimensional real array with shape metadata, row-major storage.

    A tensor that needs a gradient owns a tape node; an op output's node
    holds its inputs' nodes and a closure that routes upstream gradients to
    them, and `backward()` walks those nodes in reverse topological order.
    A tensor's data is not on the tape unless a rule reads it.

    Precision follows the data: f32 data stays f32 and anything else becomes
    f64, unless `dtype` is given.  Gradient checks are only reliable at f64.
    """

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.array(data, dtype=dtype)
        if dtype is None and arr.dtype != np.float32:
            arr = arr.astype(np.float64, copy=False)
        arr.setflags(write=False)
        self.data = arr
        self._node = _Node(arr.shape, arr.dtype) if requires_grad else None

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: Sequence[_Node | None],
                 backward_fn: Callable[[np.ndarray], None]) -> "Tensor":
        """Wrap an op result; `parents` are its inputs' nodes, None for a constant.

        Invariant: an op output needs a gradient exactly when one of its
        inputs does, and then its node records the inputs' nodes and the
        rule.  A rule tests an input's node for None before computing that
        input's gradient.
        """
        out = cls.__new__(cls)
        arr = np.asarray(data)
        arr.setflags(write=False)
        out.data = arr
        out._node = (_Node(arr.shape, arr.dtype, tuple(filter(None, parents)), backward_fn)
                     if any(parents) else None)
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

    # -- the tape node, read through the tensor ---------------------------------

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, g: np.ndarray | None) -> None:
        if g is not None and self._node is None:
            raise ValueError("grad: a tensor that needs no gradient holds none")
        if g is not None and g.shape != self.shape:
            raise ValueError(f"grad: shape {g.shape} != tensor shape {self.shape}")
        if self._node is not None:
            self._node.grad = g

    @property
    def _backward_fn(self) -> Callable[[np.ndarray], None] | None:
        return None if self._node is None else self._node._backward_fn

    @_backward_fn.setter
    def _backward_fn(self, fn: Callable[[np.ndarray], None]) -> None:
        self._node._backward_fn = fn

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar node, adding into the leaves' `.grad`.

        Leaves keep their gradients.  Every op output, this node included,
        releases its `.grad` once its rule has run, so no spent gradient is
        held to the end of the sweep.  A second `backward()` on the same
        graph therefore adds the same leaf gradients again, as a fresh graph
        would.
        """
        if self._node is None:
            raise ValueError("backward() requires a tensor that needs a gradient")
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar loss, got shape {self.shape}")
        order: list[_Node] = []
        seen: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(self._node, False)]
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
        self._node._accumulate(np.ones(self._node.shape, dtype=self._node.dtype))
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

    na, nb = a._node, b._node

    def backward(g: np.ndarray) -> None:
        if na is not None:
            na._accumulate(_unbroadcast(g, na.shape))
        if nb is not None:
            nb._accumulate(_unbroadcast(g, nb.shape))

    return Tensor._from_op(out_data, (na, nb), backward)


def ew_mul(a: Tensor, b) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    a, b = as_tensor(a, b), as_tensor(b, a)
    try:
        out_data = a.data * b.data
    except ValueError:
        raise ValueError(f"ew_mul: shape mismatch {a.shape} vs {b.shape}") from None

    na, nb = a._node, b._node
    # each operand is read only for the other's gradient
    ad, bd = a.data if nb is not None else None, b.data if na is not None else None

    def backward(g: np.ndarray) -> None:
        if na is not None:
            na._accumulate(_unbroadcast(g * bd, na.shape))
        if nb is not None:
            nb._accumulate(_unbroadcast(g * ad, nb.shape))

    return Tensor._from_op(out_data, (na, nb), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of operands of rank >= 2, leading axes broadcast as in `np.matmul`."""
    a, b = as_tensor(a, b), as_tensor(b, a)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError(f"matmul: expected operands of rank >= 2, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul: inner dimensions differ: {a.shape} vs {b.shape}")
    out_data = np.matmul(a.data, b.data)

    na, nb = a._node, b._node
    # each operand is read only for the other's gradient
    ad, bd = a.data if nb is not None else None, b.data if na is not None else None

    def backward(g: np.ndarray) -> None:
        if na is not None:
            na._accumulate(_unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), na.shape))
        if nb is not None:
            nb._accumulate(_unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), nb.shape))

    return Tensor._from_op(out_data, (na, nb), backward)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic function, numerically stable for any finite input.

    exp(min(x, 0)) / (1 + exp(-|x|)) is 1/(1 + e^-x) for x >= 0 and
    e^x/(1 + e^x) below, bit for bit the two-branch select, without the
    select (exp(0) is exactly 1).
    """
    x = as_tensor(x)
    out_data = np.exp(np.minimum(x.data, 0.0)) / (1.0 + np.exp(-np.abs(x.data)))
    nx = x._node

    def backward(g: np.ndarray) -> None:
        nx._accumulate(g * out_data * (1.0 - out_data))

    return Tensor._from_op(out_data, (nx,), backward)


def relu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out_data = np.maximum(x.data, 0.0)
    nx = x._node

    def backward(g: np.ndarray) -> None:
        # out > 0 exactly where x > 0, for -0.0 and NaN too: the input need not be kept
        nx._accumulate(g * (out_data > 0.0).astype(g.dtype))

    return Tensor._from_op(out_data, (nx,), backward)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax of a 2-D tensor; each output row sums to 1."""
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise ValueError(f"softmax_rows: expected 2-D input, got {x.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=1, keepdims=True)
    nx = x._node

    def backward(g: np.ndarray) -> None:
        dot = np.sum(g * out_data, axis=1, keepdims=True)
        nx._accumulate(out_data * (g - dot))

    return Tensor._from_op(out_data, (nx,), backward)


# -- reductions ---------------------------------------------------------------


def mean(x: Tensor, axis: int | tuple[int, ...] | None = None) -> Tensor:
    """Arithmetic mean over `axis` (an int or a tuple); over every entry when None."""
    x = as_tensor(x)
    if x.data.size == 0:
        raise ValueError("mean: empty tensor")
    kept = x.data.mean(axis=axis, keepdims=True)
    n, kept_shape, nx = x.data.size // kept.size, kept.shape, x._node

    def backward(g: np.ndarray) -> None:
        nx._accumulate(np.broadcast_to(g.reshape(kept_shape) / n, nx.shape))

    return Tensor._from_op(np.squeeze(kept, axis=axis), (nx,), backward)


# -- shape manipulation ---------------------------------------------------------


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    shape = tuple(int(s) for s in shape)
    out_data = x.data.reshape(shape)
    nx = x._node

    def backward(g: np.ndarray) -> None:
        nx._accumulate(g.reshape(nx.shape))

    return Tensor._from_op(out_data, (nx,), backward)


def permute(x: Tensor, axes: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    axes = tuple(axes)
    inv = np.argsort(axes)
    out_data = x.data.transpose(axes)
    nx = x._node

    def backward(g: np.ndarray) -> None:
        nx._accumulate(g.transpose(inv))

    return Tensor._from_op(out_data, (nx,), backward)


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
    j >= wo are scratch and are not read.  The backward lays the output
    gradient out once in that layout, zero-led: gz is (co, pad + cols), pad the
    furthest tap shift (2*wq + 2 at stride 1, wq + 1 at stride 2).  The closure
    keeps the blocks' arrays, not the phases, and only when the weight needs a
    gradient; then the backward rebuilds the phases, for the weight gradient's
    nine matmuls with gz's span layout columns into one (9, co, c) buffer, and
    frees them before the input gradients.  It keeps w's array only when a block
    needs a gradient.  The bias gradient is the output gradient summed over
    (n, h, w).  The input gradient of a correlation is the correlation of the
    zero-padded output gradient with the transposed, mirrored taps (Dumoulin &
    Visin 2016, arXiv 1603.07285): the forward's tap loop read at mirrored
    offsets.  It is taken one block at a time, only for a block that needs it:
    tap by tap, `w[:, lo:hi, u, v].T @ gz[:, pad - off:pad - off + cols]` adds
    into its phase of a contiguous (s*s, c_i, cols) accumulator.  With one
    output channel that product is an outer product, taken by `*` (exact, and
    about 3x cheaper than numpy's inner-dimension-1 matmul).  At stride 2 four
    strided assignments merge the phases back into the padded input layout.  A
    half-size block's gradient is its slice summed over each 2x2 cell as
    (top-left + top-right) + (bottom-left + bottom-right), which rounds as
    numpy 2.4's `reshape(...).sum(axis=(3, 5))` whenever w/2 > 1.  Every
    accumulation stays in contiguous memory because numpy adds into a strided
    column slice several times slower at the 8x8 bottleneck shapes.  The output
    and every gradient round exactly as the per-tap `w @ ph`, `w.T @ gf` and
    `gf @ ph.T` products summed tap by tap, with the bias added last; each
    block's gradient as those of its own weight columns.
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
    xs = [t.data for t in blocks]
    dtype = np.result_type(*xs, w.data)

    def phases(xs: list[np.ndarray]) -> np.ndarray:
        """The blocks' zero-padded buffer as its (s*s, c, n*hq*wq) polyphase components."""
        ph = np.zeros((s, s, c, n, hq, wq), dtype=dtype)
        for xb, lo, hi in zip(xs, bounds, bounds[1:]):
            k = 1 if xb.shape[2:] == full else 2  # a half-size block repeats each row and column
            m = max(s, k)  # padded rows e, e + m, ... (1 <= e <= m) share a phase and stride
            d = m // s
            xt = xb.transpose(1, 0, 2, 3)
            for e, f in itertools.product(range(1, m + 1), repeat=2):
                src = xt[:, :, (e - 1) // k::m // k, (f - 1) // k::m // k]
                (hn, wn), i, j = src.shape[2:], e // s, f // s
                ph[e % s, f % s, lo:hi, :, i:i + d * hn:d, j:j + d * wn:d] = src
        return ph.reshape(s * s, c, -1)

    ph = phases(xs)
    taps = [(u, v, (u % s) * s + v % s, (u // s) * wq + v // s) for u in range(3) for v in range(3)]
    cols = n * hq * wq
    pad = taps[-1][3]  # tap (2, 2) reaches furthest
    span = cols - pad
    acc = np.zeros((co, span), dtype=dtype)
    for u, v, p, off in taps:
        acc += w.data[:, :, u, v] @ ph[p, :, off:off + span]
    acc += b.data[:, None]
    nodes, nw, nb = [t._node for t in blocks], w._node, b._node
    # the rule reads the blocks only for the weight's gradient, the weight only for the blocks'
    xs = xs if nw is not None else None
    wdata = w.data if any(nodes) else None

    def block_grad(gz: np.ndarray, lo: int, hi: int, half: bool) -> np.ndarray:
        """The input gradient of channels lo:hi, in their block's (n, c_i, ., .) layout."""
        ci = hi - lo
        gph = np.zeros((s * s, ci, cols), dtype=dtype)
        for u, v, p, off in taps:
            wt, gt = wdata[:, lo:hi, u, v].T, gz[:, pad - off:pad - off + cols]
            gph[p] += wt * gt if co == 1 else wt @ gt  # numpy's k=1 matmul is far slower
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
        if nb is not None:
            nb._accumulate(g.sum(axis=(0, 2, 3)))
        gz = np.zeros((co, pad + cols), dtype=g.dtype)
        gz[:, pad:].reshape(co, n, hq, wq, copy=False)[:, :, :ho, :wo] = g.transpose(1, 0, 2, 3)
        if nw is not None:
            ph, gf = phases(xs), gz[:, pad:pad + span]
            gw = np.empty((9, co, c), dtype=dtype)
            for t, (_, _, p, off) in enumerate(taps):
                np.matmul(gf, ph[p, :, off:off + span].T, out=gw[t])
            del ph  # not held while the input gradients are taken
            nw._accumulate(gw.transpose(1, 2, 0).reshape(nw.shape))
        for nt, sh, lo, hi in zip(nodes, shapes, bounds, bounds[1:]):
            if nt is not None:
                nt._accumulate(block_grad(gz, lo, hi, sh[2:] != full))

    # output pixel (k, o, i, j) sits at acc[o, (k*hq + i)*wq + j]; the largest
    # column read, ((n-1)*hq + ho-1)*wq + wo-1, is span - 1 at both strides
    # (span is n*hq*wq - 2*wq - 2 at stride 1 and n*hq*wq - wq - 1 at stride 2)
    e = acc.itemsize
    out = np.lib.stride_tricks.as_strided(acc, (n, co, ho, wo), (hq * wq * e, span * e, wq * e, e),
                                          writeable=False)
    return Tensor._from_op(np.ascontiguousarray(out), (*nodes, nw, nb), backward)


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


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float) -> dict[str, Tensor]:
    """One bias-corrected Adam update (the ADAM_* constants); returns fresh tensors.

    Each parameter's gradient is its own `.grad`.  One without (a constant, or
    one the loss did not reach) is returned as is and its moments and step
    count stay untouched; those of the other parameters advance in place.
    Each parameter's bias correction uses its own step count, so skipped
    steps do not count.
    """
    if not 0.0 < lr < math.inf:
        raise ValueError(f"adam_step: lr must be positive and finite, got {lr}")
    new_params: dict[str, Tensor] = {}
    for k, p in params.items():
        g = p.grad
        if g is None:
            new_params[k] = p
            continue
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

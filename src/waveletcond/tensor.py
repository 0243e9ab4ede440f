"""Dense real tensors with a minimal reverse-mode gradient tape.

The op set is deliberately closed.  Primitives carry a hand-written backward
rule: `add`, `ew_mul`, `matmul`, `sigmoid`, `relu`, `softmax_rows`,
`sum_all`, `mean`, `reshape`, `permute`, `concat`, `tslice`, `conv3x3` and
`nearest_upsample2`.  The rest are compositions of primitives and need no
rule of their own: `sub`, `linear`, `add_channel_bias` and `channel_linear`.
The test suite checks every op against central finite differences.

Contractions (`matmul`, `conv3x3`) go through `np.matmul`, so they run as
BLAS matrix products.

`add`, `ew_mul` and `matmul` broadcast like numpy (`matmul` over the axes
before the last two); each operand's gradient is summed back onto its own
shape.  A non-tensor operand becomes a constant in the dtype of the tensor
it meets.  Tensors are immutable values after construction; training
replaces parameter tensors instead of mutating them.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, ClassVar, Iterable, Sequence

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
        try:
            arr.setflags(write=False)
        except ValueError:
            pass  # read-only view of an already-frozen buffer
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

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar node, filling `.grad` on the graph."""
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

    # -- operator sugar -------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return ew_mul(self, other)

    def __rmul__(self, other):
        return ew_mul(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __neg__(self):
        return ew_mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return tslice(self, key)


class ParamGroup:
    """Mixin for a dataclass of parameter tensors, flattened as `<prefix>.<field>`.

    Names and their order follow the dataclass fields.
    """

    prefix: ClassVar[str]

    def named(self) -> dict[str, Tensor]:
        return {f"{self.prefix}.{f.name}": getattr(self, f.name) for f in dataclasses.fields(self)}

    @classmethod
    def from_named(cls, params: dict[str, Tensor]):
        return cls(**{f.name: params[f"{cls.prefix}.{f.name}"] for f in dataclasses.fields(cls)})


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _constant_like(x, like: Tensor) -> Tensor:
    """A tensor operand as is; anything else as a constant in `like`'s dtype."""
    return x if isinstance(x, Tensor) else Tensor(x, dtype=like.dtype)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back onto an operand of `shape`, in one reduction."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(lead + i for i, n in enumerate(shape) if n == 1)
    return g.sum(axis=axes).reshape(shape)


def _fold(a: np.ndarray) -> np.ndarray:
    """(n, k, ...) -> (k, n * rest): the batch folds into the columns of a matmul operand."""
    return np.moveaxis(a, 1, 0).reshape(a.shape[1], -1)


# -- elementwise & linear primitives ------------------------------------------


def add(a: Tensor, b) -> Tensor:
    """Elementwise sum with numpy broadcasting."""
    b = _constant_like(b, a)
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
    b = _constant_like(b, a)
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


def sub(a: Tensor, b) -> Tensor:
    return add(a, ew_mul(_constant_like(b, a), -1.0))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of operands of rank >= 2, leading axes broadcast as in `np.matmul`."""
    a, b = as_tensor(a), as_tensor(b)
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


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map on rows: x[n,k] @ w[k,m] + b[m]."""
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise ValueError(f"linear: bad ranks x{x.shape} w{w.shape} b{b.shape}")
    if x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ValueError(f"linear: incompatible shapes x{x.shape} w{w.shape} b{b.shape}")
    return add(matmul(x, w), b)


def channel_linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Mix channels at every (batch, spatial) position: out[n,o,i,j] = sum_c w[o,c] x[n,c,i,j] + b[o]."""
    if x.data.ndim != 4:
        raise ValueError(f"channel_linear: expected 4-D input, got {x.shape}")
    c = x.shape[1]
    if w.data.ndim != 2 or w.shape[1] != c:
        raise ValueError(f"channel_linear: weight {w.shape} does not match channel count {c}")
    if b.shape != (w.shape[0],):
        raise ValueError(f"channel_linear: bias {b.shape} does not match weight rows {w.shape[0]}")
    n, _, h, wd = x.shape
    return add_channel_bias(reshape(matmul(w, reshape(x, (n, c, h * wd))), (n, -1, h, wd)), b)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic function, numerically stable for any finite input."""
    x = as_tensor(x)
    e = np.exp(-np.abs(x.data))
    out_data = np.where(x.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * out_data * (1.0 - out_data))

    return Tensor._from_op(out_data, (x,), backward)


def relu(x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0.0)

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * (x.data > 0.0))

    return Tensor._from_op(out_data, (x,), backward)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax of a 2-D tensor; each output row sums to 1."""
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


def sum_all(x: Tensor) -> Tensor:
    out_data = np.asarray(x.data.sum())

    def backward(g: np.ndarray) -> None:
        x._accumulate(np.full(x.data.shape, float(g), dtype=x.data.dtype))

    return Tensor._from_op(out_data, (x,), backward)


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
    shape = tuple(int(s) for s in shape)
    out_data = x.data.reshape(shape)

    def backward(g: np.ndarray) -> None:
        x._accumulate(g.reshape(x.data.shape))

    return Tensor._from_op(out_data, (x,), backward)


def permute(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inv = np.argsort(axes)
    out_data = x.data.transpose(axes)

    def backward(g: np.ndarray) -> None:
        x._accumulate(g.transpose(inv))

    return Tensor._from_op(out_data, (x,), backward)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("concat: empty input list")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return Tensor._from_op(out_data, tuple(tensors), backward)


def tslice(x: Tensor, key) -> Tensor:
    """Basic indexing (ints and slices); gradient scatters back into place."""
    out_data = x.data[key]

    def backward(g: np.ndarray) -> None:
        gx = np.zeros(x.data.shape, dtype=x.data.dtype)
        gx[key] = g
        x._accumulate(gx)

    return Tensor._from_op(out_data, (x,), backward)


# -- convolution & resampling ----------------------------------------------------


def conv3x3(x: Tensor, w: Tensor, stride: int = 1) -> Tensor:
    """3x3 correlation with zero padding 1; stride 1 or 2. x: (n,c,h,w), w: (co,c,3,3).

    A sum over the nine kernel taps.  Tap (u, v) is the strided view of the
    padded input that meets w[:, :, u, v]; reshaped to (n, c, ho*wo) it goes
    through one `np.matmul` with that (co, c) slice, and the products add up
    in an (n, co, ho*wo) buffer that is already NCHW.  The backward walks the
    same taps: the weight gradient of a tap is one (co, n*ho*wo) by
    (n*ho*wo, c) product and its input gradient is one matmul scattered back
    onto the tap's view.  No (n*ho*wo, c*9) column matrix is built, to keep
    peak memory down: one tap at a time needs a ninth of it, and the closure
    keeps only the padded input.
    """
    if stride not in (1, 2):
        raise ValueError(f"conv3x3: stride must be 1 or 2, got {stride}")
    if x.data.ndim != 4 or w.data.ndim != 4 or w.shape[2:] != (3, 3):
        raise ValueError(f"conv3x3: bad shapes x{x.shape} w{w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ValueError(f"conv3x3: channel mismatch x{x.shape} w{w.shape}")
    n, c, h, wd = x.shape
    ho, wo = (h - 1) // stride + 1, (wd - 1) // stride + 1
    xp = np.pad(x.data, ((0, 0), (0, 0), (1, 1), (1, 1)))
    taps = [(u, v, np.s_[:, :, u:u + stride * ho:stride, v:v + stride * wo:stride])
            for u in range(3) for v in range(3)]
    out = np.zeros((n, w.shape[0], ho * wo), dtype=np.result_type(xp, w.data))
    for u, v, tap in taps:
        out += np.matmul(w.data[:, :, u, v], xp[tap].reshape(n, c, ho * wo))

    def backward(g: np.ndarray) -> None:
        if w.requires_grad:
            g2 = _fold(g)
            w._accumulate(np.stack([g2 @ _fold(xp[t]).T for _, _, t in taps], -1).reshape(w.shape))
        if x.requires_grad:
            g3, gxp = g.reshape(n, -1, ho * wo), np.zeros_like(xp)
            for u, v, tap in taps:
                gxp[tap] += np.matmul(w.data[:, :, u, v].T, g3).reshape(n, c, ho, wo)
            x._accumulate(gxp[:, :, 1:1 + h, 1:1 + wd])

    return Tensor._from_op(out.reshape(n, -1, ho, wo), (x, w), backward)


def add_channel_bias(x: Tensor, v: Tensor) -> Tensor:
    """Add v[c] to every (batch, spatial) position of x: (n,c,h,w) + (c,)."""
    if x.data.ndim != 4 or v.data.ndim != 1 or x.shape[1] != v.shape[0]:
        raise ValueError(f"add_channel_bias: bad shapes x{x.shape} v{v.shape}")
    return add(x, reshape(v, (-1, 1, 1)))


def nearest_upsample2(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x upsampling of the trailing two dimensions."""
    if x.data.ndim != 4:
        raise ValueError(f"nearest_upsample2: expected 4-D input, got {x.shape}")
    out_data = np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3)
    n, c, h, wd = x.shape

    def backward(g: np.ndarray) -> None:
        x._accumulate(g.reshape(n, c, h, 2, wd, 2).sum(axis=(3, 5)))

    return Tensor._from_op(out_data, (x,), backward)


# -- optimizer ----------------------------------------------------------------


class AdamState:
    """First/second moment accumulators and update counts for one parameter set."""

    def __init__(self, params: dict[str, Tensor]):
        self.m = {k: np.zeros(p.shape, dtype=p.data.dtype) for k, p in params.items()}
        self.v = {k: np.zeros(p.shape, dtype=p.data.dtype) for k, p in params.items()}
        self.step = dict.fromkeys(params, 0)


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray], state: AdamState,
              lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> dict[str, Tensor]:
    """One bias-corrected Adam update; returns fresh parameter tensors.

    A parameter missing from `grads`, or whose grad is None, is returned as
    is and its moments and step count stay untouched; those of the other
    parameters advance in place.  Each parameter's bias correction uses its
    own step count, so skipped steps do not count.
    """
    if lr <= 0.0:
        raise ValueError(f"adam_step: lr must be positive, got {lr}")
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
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        new_data = p.data - lr * m_hat / (np.sqrt(v_hat) + eps)
        new_params[k] = Tensor(new_data, requires_grad=p.requires_grad)
    return new_params


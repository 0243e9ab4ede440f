"""Adjoint (dot-product) tests for the linear primitives.

A linear map J and its backward rule must satisfy <J v, u> = <v, J^T u> for
every v and u.  Each test draws a shape with hypothesis, fills v and u with
seeded normal draws, runs the op forward on v and its recorded backward on
u, and bounds the gap between the two inner products by RTOL times the sum
of the absolute products, which is the scale of their rounding.  A wrong
rule leaves a gap of the order of the inner product itself.

The finite-difference checks (gradcheck.py) cover the same rules to about
1e-4 at two forwards per entry; this check is exact to rounding and costs
one forward and one backward.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from waveletcond.tensor import (
    Tensor,
    conv3x3,
    ew_mul,
    matmul,
    mean,
    permute,
    reshape,
)
from waveletcond.wavelet import dwt2, idwt2

from test_tensor import total

RTOL = 1e-12
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
SIDES = st.integers(min_value=1, max_value=5)
SHAPES = st.lists(SIDES, min_size=1, max_size=4).map(tuple)
ADJOINT = settings(max_examples=30, deadline=None)


def adjoint_gap(f, shapes, r) -> float:
    """Relative gap between <f(v), u> and <v, J^T u> for leaves v of `shapes`.

    J^T u is read from the leaves' gradients after a backward from
    total(y * u), whose gradient with respect to y = f(v) is exactly u.
    """
    leaves = [Tensor(r.standard_normal(shape), requires_grad=True) for shape in shapes]
    y = f(*leaves)
    u = r.standard_normal(y.shape)
    total(ew_mul(y, u)).backward()
    lhs = float(np.vdot(y.data, u))
    rhs = sum(float(np.vdot(t.data, t.grad)) for t in leaves)
    scale = max(float(np.vdot(np.abs(y.data), np.abs(u))),
                sum(float(np.vdot(np.abs(t.data), np.abs(t.grad))) for t in leaves))
    return abs(lhs - rhs) / scale


# -- convolution ----------------------------------------------------------------


@pytest.mark.parametrize("stride", [1, 2])
@ADJOINT
@given(n=st.integers(1, 3), blocks=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       co=st.integers(1, 4), h=st.integers(1, 7), w=st.integers(1, 7), seed=SEEDS)
@example(n=1, blocks=[2], co=1, h=5, w=3, seed=0)
def test_conv3x3_adjoint_in_x(stride, n, blocks, co, h, w, seed):
    r = np.random.default_rng(seed)
    weight = Tensor(r.standard_normal((co, sum(blocks), 3, 3)))
    bias = np.zeros(co)
    gap = adjoint_gap(lambda *xs: conv3x3(list(xs), weight, bias, stride),
                      [(n, c, h, w) for c in blocks], r)
    assert gap < RTOL


@pytest.mark.parametrize("stride", [1, 2])
@ADJOINT
@given(n=st.integers(1, 3), c=st.integers(1, 4), co=st.integers(1, 4),
       h=st.integers(1, 7), w=st.integers(1, 7), seed=SEEDS)
@example(n=1, c=3, co=1, h=5, w=3, seed=0)
def test_conv3x3_adjoint_in_w(stride, n, c, co, h, w, seed):
    r = np.random.default_rng(seed)
    x = Tensor(r.standard_normal((n, c, h, w)))
    gap = adjoint_gap(lambda wt: conv3x3(x, wt, np.zeros(co), stride), [(co, c, 3, 3)], r)
    assert gap < RTOL


@pytest.mark.parametrize("stride", [1, 2])
@ADJOINT
@given(n=st.integers(1, 3), c=st.integers(1, 3), skip=st.integers(1, 2), co=st.integers(1, 4),
       h=st.integers(1, 4), w=st.integers(1, 4), seed=SEEDS)
@example(n=1, c=2, skip=1, co=1, h=3, w=1, seed=0)
def test_conv3x3_adjoint_in_half_resolution_block(stride, n, c, skip, co, h, w, seed):
    # a block of half the height and width, read nearest-upsampled, beside a
    # full-size one, as in the UNet's `up` conv
    r = np.random.default_rng(seed)
    weight = Tensor(r.standard_normal((co, c + skip, 3, 3)))
    gap = adjoint_gap(lambda *xs: conv3x3(list(xs), weight, np.zeros(co), stride),
                      [(n, c, h, w), (n, skip, 2 * h, 2 * w)], r)
    assert gap < RTOL


# -- wavelet transforms ------------------------------------------------------------


@ADJOINT
@given(lead=st.lists(SIDES, max_size=2).map(tuple), h=SIDES, w=SIDES, seed=SEEDS)
def test_dwt2_adjoint(lead, h, w, seed):
    gap = adjoint_gap(dwt2, [(*lead, 2 * h, 2 * w)], np.random.default_rng(seed))
    assert gap < RTOL


@ADJOINT
@given(lead=st.lists(SIDES, max_size=2).map(tuple), h=SIDES, w=SIDES, seed=SEEDS)
def test_idwt2_adjoint(lead, h, w, seed):
    gap = adjoint_gap(idwt2, [(4, *lead, h, w)], np.random.default_rng(seed))
    assert gap < RTOL


# -- shape ops and reductions ----------------------------------------------------------


@ADJOINT
@given(shape=SHAPES, data=st.data(), seed=SEEDS)
def test_permute_adjoint(shape, data, seed):
    axes = data.draw(st.permutations(range(len(shape))))
    gap = adjoint_gap(lambda x: permute(x, axes), [shape], np.random.default_rng(seed))
    assert gap < RTOL


@ADJOINT
@given(shape=SHAPES, target=st.sampled_from(["flat", "reversed", "lead_one"]), seed=SEEDS)
def test_reshape_adjoint(shape, target, seed):
    new = {"flat": (-1,), "reversed": shape[::-1], "lead_one": (1, *shape)}[target]
    gap = adjoint_gap(lambda x: reshape(x, new), [shape], np.random.default_rng(seed))
    assert gap < RTOL


@ADJOINT
@given(shape=SHAPES, data=st.data(), seed=SEEDS)
def test_mean_adjoint(shape, data, seed):
    axis = data.draw(st.none() | st.integers(0, len(shape) - 1)
                     | st.sets(st.integers(0, len(shape) - 1), min_size=1).map(tuple))
    gap = adjoint_gap(lambda x: mean(x, axis), [shape], np.random.default_rng(seed))
    assert gap < RTOL


# -- matmul -----------------------------------------------------------------------------


@pytest.mark.parametrize("operand", ["a", "b"])
@ADJOINT
@given(batch=st.lists(SIDES, max_size=2).map(tuple), m=SIDES, k=SIDES, n=SIDES,
       broadcast=st.sampled_from(["none", "a", "b"]), seed=SEEDS)
def test_matmul_adjoint(operand, batch, m, k, n, broadcast, seed):
    # `broadcast` names the operand that drops the batch axes, so its gradient is summed back
    r = np.random.default_rng(seed)
    a_shape = (m, k) if broadcast == "a" else (*batch, m, k)
    b_shape = (k, n) if broadcast == "b" else (*batch, k, n)
    if operand == "a":
        other = Tensor(r.standard_normal(b_shape))
        gap = adjoint_gap(lambda a: matmul(a, other), [a_shape], r)
    else:
        other = Tensor(r.standard_normal(a_shape))
        gap = adjoint_gap(lambda b: matmul(other, b), [b_shape], r)
    assert gap < RTOL

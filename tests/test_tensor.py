"""Tensor primitives, the gradient tape, and the Adam update."""

import tracemalloc
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveletcond import tensor as T
from waveletcond.diffusion import TrainConfig
from waveletcond.tensor import (
    AdamState,
    Tensor,
    adam_step,
    add,
    conv3x3,
    ew_mul,
    matmul,
    mean,
    permute,
    relu,
    reshape,
    sigmoid,
    softmax_rows,
)
from waveletcond.wavelet import dwt2, idwt2

from gradcheck import check_gradients, max_rel_error, numeric_grad


def rng(seed=0):
    return np.random.default_rng(seed)


def total(x):
    """Sum of every entry, composed from `mean`; its gradient is exactly 1 per entry."""
    return ew_mul(mean(x), float(x.size))


# -- elementwise multiply -------------------------------------------------------


def test_ew_mul_identity_and_absorbing():
    x = Tensor(rng().standard_normal((3, 4)))
    ones = Tensor(np.ones((3, 4)))
    zeros = Tensor(np.zeros((3, 4)))
    np.testing.assert_array_equal(ew_mul(ones, x).data, x.data)
    np.testing.assert_array_equal(ew_mul(zeros, x).data, np.zeros((3, 4)))


def test_ew_mul_direct():
    out = ew_mul(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
    np.testing.assert_array_equal(out.data, [3.0, 8.0])


def test_ew_mul_shape_mismatch_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2,\).*\(3,\)"):
        ew_mul(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=16))
def test_ew_mul_commutative(vals):
    a = Tensor(vals)
    b = Tensor(list(reversed(vals)))
    ab = ew_mul(a, b).data
    ba = ew_mul(b, a).data
    assert np.max(np.abs(ab - ba)) <= 1e-12


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=8))
def test_ew_mul_associative_within_roundoff(vals):
    a = Tensor(vals)
    b = Tensor([v * 0.5 for v in vals])
    c = Tensor([v * -0.25 for v in vals])
    left = ew_mul(ew_mul(a, b), c).data
    right = ew_mul(a, ew_mul(b, c)).data
    assert np.max(np.abs(left - right)) <= 1e-12


# -- matmul ---------------------------------------------------------------------


def naive_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for p in range(k):
                out[i, j] += a[i, p] * b[p, j]
    return out


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    i2 = Tensor(np.eye(2))
    np.testing.assert_array_equal(matmul(i2, a).data, a.data)


def test_matmul_row_times_column():
    out = matmul(Tensor([[1.0, 0.0]]), Tensor([[5.0], [7.0]]))
    np.testing.assert_array_equal(out.data, [[5.0]])


def test_matmul_vs_naive_loop_oracle():
    r = rng(7)
    a = r.standard_normal((5, 4))
    b = r.standard_normal((4, 6))
    got = matmul(Tensor(a), Tensor(b)).data
    assert np.max(np.abs(got - naive_matmul(a, b))) < 1e-12


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError, match="inner dimensions"):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


# -- sigmoid --------------------------------------------------------------------


def test_sigmoid_at_zero():
    assert sigmoid(Tensor([0.0])).data[0] == 0.5


def test_sigmoid_odd_symmetry():
    x = 1.7
    s_pos = sigmoid(Tensor([x])).data[0]
    s_neg = sigmoid(Tensor([-x])).data[0]
    assert abs(s_neg - (1.0 - s_pos)) < 1e-15


def test_sigmoid_saturation():
    assert abs(sigmoid(Tensor([100.0])).data[0] - 1.0) < 1e-15


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-30.0, max_value=30.0))
def test_sigmoid_strictly_in_unit_interval(x):
    y = sigmoid(Tensor([x])).data[0]
    assert 0.0 < y < 1.0


def test_sigmoid_finite_for_extreme_inputs():
    y = sigmoid(Tensor([-800.0, 800.0])).data
    assert np.all(np.isfinite(y))


def _select_sigmoid(x):
    """The stable logistic as a two-branch np.where select, the form sigmoid replaced."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@pytest.mark.parametrize("dtype, big", [(np.float64, 800.0), (np.float32, 100.0)])
def test_sigmoid_equals_select_form_bit_for_bit(dtype, big):
    r = rng(17)
    tiny = np.finfo(dtype).smallest_subnormal
    edges = [0.0, -0.0, tiny, -tiny, 3 * tiny, -3 * tiny, np.finfo(dtype).tiny, big, -big]
    x = np.concatenate([np.array(edges), r.standard_normal(2000) * 10.0 ** r.integers(-3, 3, 2000),
                        r.uniform(-big, big, 500)]).astype(dtype)
    got = sigmoid(Tensor(x)).data
    assert got.dtype == dtype
    assert got.tobytes() == _select_sigmoid(x).tobytes()


def test_sigmoid_of_nan_is_nan():
    assert np.isnan(sigmoid(Tensor([np.nan, 1.0])).data).tolist() == [True, False]


# -- mean pooling ----------------------------------------------------------------


def test_mean_pool_all_small():
    assert mean(Tensor([[2.0, 4.0], [6.0, 8.0]])).item() == 5.0


def test_mean_pool_all_constant():
    assert mean(Tensor(np.full((3, 5), 1.25))).item() == 1.25


def test_mean_pool_all_vs_summation_oracle():
    x = rng(3).standard_normal((4, 7))
    total = 0.0
    for v in x.reshape(-1):
        total += v
    assert abs(mean(Tensor(x)).item() - total / x.size) < 1e-12


# -- backward: basics -------------------------------------------------------------


def test_backward_square():
    x = Tensor([3.0], requires_grad=True)
    loss = total(ew_mul(x, x))
    loss.backward()
    np.testing.assert_allclose(x.grad, [6.0])


def test_backward_sigmoid_sum_at_zero():
    x = Tensor(np.zeros(5), requires_grad=True)
    loss = total(sigmoid(x))
    loss.backward()
    np.testing.assert_allclose(x.grad, np.full(5, 0.25))


def test_backward_requires_scalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        ew_mul(x, x).backward()


def test_detached_parameter_gets_zero_gradient():
    # a parameter off the loss's tape gets no gradient, and Adam leaves it as is
    x = Tensor([1.0], requires_grad=True)
    unused = Tensor([5.0], requires_grad=True)
    loss = total(ew_mul(x, x))
    loss.backward()
    assert unused.grad is None
    params = {"x": x, "unused": unused}
    out = adam_step(params, AdamState(params), lr=0.1)
    assert out["unused"] is unused
    assert out["x"].data[0] != 1.0


def test_backward_sum_of_independent_subgraphs_is_concat_of_grads():
    r = rng(11)
    a = Tensor(r.standard_normal(4), requires_grad=True)
    b = Tensor(r.standard_normal(3), requires_grad=True)
    joint = add(total(ew_mul(a, a)), total(sigmoid(b)))
    joint.backward()
    ga_joint, gb_joint = a.grad.copy(), b.grad.copy()

    a2 = Tensor(a.data, requires_grad=True)
    b2 = Tensor(b.data, requires_grad=True)
    total(ew_mul(a2, a2)).backward()
    total(sigmoid(b2)).backward()
    np.testing.assert_allclose(ga_joint, a2.grad, atol=1e-15)
    np.testing.assert_allclose(gb_joint, b2.grad, atol=1e-15)


def _graph_nodes(root):
    """Every tape node reachable from `root`'s through the tape's parent edges."""
    seen, stack = {}, [root._node]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def test_backward_releases_intermediate_grads_and_keeps_leaf_grads():
    r = rng(14)
    x = Tensor(r.standard_normal((3, 4)), requires_grad=True)
    w = Tensor(r.standard_normal((4, 2)), requires_grad=True)
    const = Tensor(r.standard_normal((3, 2)))
    loss = mean(ew_mul(relu(add(matmul(x, w), const)), sigmoid(matmul(x, w))))
    nodes = _graph_nodes(loss)
    loss.backward()
    intermediates = [n for n in nodes if n._parents]
    assert len(intermediates) == 7
    assert all(n.grad is None for n in intermediates)
    assert x.grad is not None and w.grad is not None and const.grad is None


def test_second_backward_adds_the_leaf_gradients_again():
    r = rng(15)
    x = Tensor(r.standard_normal((3, 4)), requires_grad=True)
    w = Tensor(r.standard_normal((4, 2)), requires_grad=True)
    loss = mean(sigmoid(matmul(x, w)))
    loss.backward()
    gx, gw = x.grad.copy(), w.grad.copy()
    loss.backward()
    assert np.array_equal(x.grad, 2 * gx)
    assert np.array_equal(w.grad, 2 * gw)


def test_backward_on_a_tensor_that_needs_no_gradient_raises():
    # as torch does; it would otherwise leave a gradient on a constant
    c = Tensor(np.ones(3))
    out = mean(add(c, Tensor(np.ones(3))))
    for t in (out, Tensor(1.0)):
        with pytest.raises(ValueError, match="needs a gradient"):
            t.backward()
        assert t.grad is None and not t.requires_grad
    assert c.grad is None
    with pytest.raises(ValueError, match="needs no gradient"):
        c.grad = np.ones(3)


def test_relu_gradient_mask_is_x_above_zero_with_signed_zero_and_nan():
    x = Tensor([-0.0, 0.0, np.nan, -1.0, 2.0, 5e-324], requires_grad=True)
    total(relu(x)).backward()
    assert x.grad.tolist() == [0.0, 0.0, 0.0, 0.0, 1.0, 1.0]


@pytest.mark.parametrize("reader", [relu, lambda h: add(h, 1.0)], ids=["relu", "add"])
def test_an_intermediate_no_rule_reads_is_freed_with_its_tensor(reader):
    r = rng(16)
    x = Tensor(r.standard_normal((3, 4)), requires_grad=True)
    w = Tensor(r.standard_normal((4, 2)), requires_grad=True)
    h = matmul(x, w)
    held = weakref.ref(h.data)
    loss = mean(reader(h))
    del h
    assert held() is None  # freed while the graph is still alive
    loss.backward()
    assert x.grad is not None and w.grad is not None


def test_ew_mul_keeps_an_operand_only_for_the_other_operands_gradient():
    r = rng(17)
    a = Tensor(r.standard_normal(5), requires_grad=True)
    b = Tensor(r.standard_normal(5))
    a_held, b_held = weakref.ref(a.data), weakref.ref(b.data)
    loss = mean(ew_mul(a, b))
    del a, b
    assert a_held() is None  # b needs no gradient, so nothing reads a
    assert b_held() is not None  # read for a's gradient
    loss.backward()
    assert b_held() is not None
    del loss
    assert b_held() is None


def test_a_replaced_backward_fn_reroutes_its_nodes_rule():
    # perfbench's tracer times each op's backward by wrapping the rule on its output
    r = rng(18)
    xd, wd = r.standard_normal((3, 4)), r.standard_normal((4, 2))

    def leaf_grads(wrap):
        x, w = Tensor(xd, requires_grad=True), Tensor(wd, requires_grad=True)
        h = matmul(x, w)
        calls = []
        if wrap:
            rule = h._backward_fn

            def counted(g):
                calls.append(g.shape)
                rule(g)

            h._backward_fn = counted
            assert h._backward_fn is counted
        mean(sigmoid(h)).backward()
        return x.grad, w.grad, calls

    gx, gw, calls = leaf_grads(True)
    want_gx, want_gw, _ = leaf_grads(False)
    assert calls == [(3, 2)]
    assert np.array_equal(gx, want_gx) and np.array_equal(gw, want_gw)


# -- backward: every primitive against finite differences ----------------------------


def _fd_case(name, build):
    """Each case returns (params dict, closure) for check_gradients.

    The seed is a CRC of the name, the same in every process, so a failing
    case replays at the same point.
    """
    r = rng(zlib.crc32(name.encode()))
    return build(r)


PRIMITIVE_CASES = {}


def fd_case(name):
    def register(fn):
        PRIMITIVE_CASES[name] = fn
        return fn
    return register


@fd_case("add")
def _case_add(r):
    a = Tensor(r.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(r.standard_normal((3, 4)), requires_grad=True)
    return {"a": a, "b": b}, lambda: total(sigmoid(add(a, b)))


@fd_case("add_scalar")
def _case_add_scalar(r):
    a = Tensor(r.standard_normal((3, 4)), requires_grad=True)
    s = Tensor(r.standard_normal(()), requires_grad=True)
    return {"a": a, "s": s}, lambda: total(sigmoid(add(a, s)))


@fd_case("add_broadcast_both")
def _case_add_broadcast(r):
    a = Tensor(r.standard_normal((3, 1)), requires_grad=True)
    b = Tensor(r.standard_normal((1, 4)), requires_grad=True)
    return {"a": a, "b": b}, lambda: total(sigmoid(add(a, b)))


@fd_case("ew_mul")
def _case_mul(r):
    a = Tensor(r.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(r.standard_normal((3, 4)), requires_grad=True)
    return {"a": a, "b": b}, lambda: total(sigmoid(ew_mul(a, b)))


@fd_case("ew_mul_scalar")
def _case_mul_scalar(r):
    a = Tensor(r.standard_normal((2, 3)), requires_grad=True)
    s = Tensor([0.7], requires_grad=True)
    return {"a": a, "s": s}, lambda: total(sigmoid(ew_mul(a, s)))


@fd_case("ew_mul_broadcast_both")
def _case_mul_broadcast(r):
    a = Tensor(r.standard_normal((3, 1)), requires_grad=True)
    b = Tensor(r.standard_normal((1, 4)), requires_grad=True)
    return {"a": a, "b": b}, lambda: total(sigmoid(ew_mul(a, b)))


@fd_case("scale")
def _case_scale(r):
    a = Tensor(r.standard_normal((4,)), requires_grad=True)
    return {"a": a}, lambda: total(sigmoid(ew_mul(a, -2.5)))


@fd_case("matmul")
def _case_matmul(r):
    a = Tensor(r.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(r.standard_normal((4, 2)), requires_grad=True)
    return {"a": a, "b": b}, lambda: total(sigmoid(matmul(a, b)))


@fd_case("matmul_broadcast")
def _case_matmul_broadcast(r):
    # leading axes broadcast on either side, so both gradients are summed back
    a = Tensor(r.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(r.standard_normal((2, 4, 5)), requires_grad=True)
    c = Tensor(r.standard_normal((2, 1, 3, 4)), requires_grad=True)
    d = Tensor(r.standard_normal((5, 4, 2)), requires_grad=True)
    return ({"a": a, "b": b, "c": c, "d": d},
            lambda: add(total(sigmoid(matmul(a, b))), total(sigmoid(matmul(c, d)))))


@fd_case("sigmoid")
def _case_sigmoid(r):
    x = Tensor(r.standard_normal((5,)), requires_grad=True)
    return {"x": x}, lambda: total(ew_mul(sigmoid(x), sigmoid(x)))


@fd_case("relu")
def _case_relu(r):
    # keep values away from the kink, where finite differences are invalid
    x = Tensor(r.standard_normal((6,)) + np.sign(r.standard_normal((6,))) * 0.5,
               requires_grad=True)
    return {"x": x}, lambda: total(sigmoid(relu(x)))


@fd_case("softmax_rows")
def _case_softmax(r):
    x = Tensor(r.standard_normal((3, 5)), requires_grad=True)
    w = Tensor(r.standard_normal((3, 5)))
    return {"x": x}, lambda: total(ew_mul(softmax_rows(x), w))


@fd_case("mean_pool_all")
def _case_mean(r):
    x = Tensor(r.standard_normal((3, 4)), requires_grad=True)
    y = Tensor(r.standard_normal((2, 3, 4)), requires_grad=True)
    return {"x": x, "y": y}, lambda: add(mean(sigmoid(x)), total(sigmoid(mean(y, axis=(0, 2)))))


@fd_case("reshape_permute")
def _case_shapes(r):
    x = Tensor(r.standard_normal((2, 3, 8)), requires_grad=True)

    def f():
        z = permute(x, (1, 0, 2))            # (3, 2, 8)
        z = reshape(z, (3, 16))
        return total(sigmoid(z))

    return {"x": x}, f


@fd_case("conv3x3_stride1")
def _case_conv1(r):
    x = Tensor(r.standard_normal((2, 3, 6, 6)), requires_grad=True)
    w = Tensor(r.standard_normal((4, 3, 3, 3)) * 0.3, requires_grad=True)
    b = Tensor(r.standard_normal(w.shape[0]), requires_grad=True)
    return {"x": x, "w": w, "b": b}, lambda: total(sigmoid(conv3x3(x, w, b, stride=1)))


@fd_case("conv3x3_stride2")
def _case_conv2(r):
    x = Tensor(r.standard_normal((2, 3, 6, 6)), requires_grad=True)
    w = Tensor(r.standard_normal((4, 3, 3, 3)) * 0.3, requires_grad=True)
    b = Tensor(r.standard_normal(w.shape[0]), requires_grad=True)
    return {"x": x, "w": w, "b": b}, lambda: total(sigmoid(conv3x3(x, w, b, stride=2)))


@fd_case("conv3x3_stride2_odd")
def _case_conv2_odd(r):
    x = Tensor(r.standard_normal((1, 2, 5, 3)), requires_grad=True)
    w = Tensor(r.standard_normal((3, 2, 3, 3)) * 0.3, requires_grad=True)
    b = Tensor(r.standard_normal(w.shape[0]), requires_grad=True)
    return {"x": x, "w": w, "b": b}, lambda: total(sigmoid(conv3x3(x, w, b, stride=2)))


@fd_case("conv3x3_c_out_1")
def _case_conv_c_out_1(r):
    # one output channel, as in the UNet's `out` conv: the input gradient is an outer product
    x = Tensor(r.standard_normal((2, 3, 5, 6)), requires_grad=True)
    w = Tensor(r.standard_normal((1, 3, 3, 3)) * 0.3, requires_grad=True)
    b = Tensor(r.standard_normal(w.shape[0]), requires_grad=True)
    return {"x": x, "w": w, "b": b}, lambda: total(sigmoid(conv3x3(x, w, b, stride=1)))


@fd_case("conv3x3_two_blocks")
def _case_conv_two_blocks(r):
    # the `up` conv's layout: a half-resolution block that needs a gradient and a skip
    # block that does not
    x = Tensor(r.standard_normal((2, 3, 2, 3)), requires_grad=True)
    skip = Tensor(r.standard_normal((2, 2, 4, 6)))
    w = Tensor(r.standard_normal((4, 5, 3, 3)) * 0.3, requires_grad=True)
    b = Tensor(r.standard_normal(4), requires_grad=True)
    return {"x": x, "w": w, "b": b}, lambda: total(sigmoid(conv3x3([x, skip], w, b)))


@fd_case("conv3x3_three_blocks")
def _case_conv_three_blocks(r):
    # blocks 0 and 2 need gradients, block 1 is a plain array; stride 2
    x0 = Tensor(r.standard_normal((2, 1, 5, 4)), requires_grad=True)
    x1 = r.standard_normal((2, 2, 5, 4))
    x2 = Tensor(r.standard_normal((2, 3, 5, 4)), requires_grad=True)
    w = Tensor(r.standard_normal((3, 6, 3, 3)) * 0.3)
    b = Tensor(r.standard_normal(3), requires_grad=True)
    return {"x0": x0, "x2": x2, "b": b}, lambda: total(sigmoid(
        conv3x3([x0, x1, x2], w, b, stride=2)))


@fd_case("conv3x3_half_resolution_stride2")
def _case_conv_half_resolution_stride2(r):
    # a half-resolution block and a full one, both needing gradients, at stride 2
    x = Tensor(r.standard_normal((2, 3, 3, 3)), requires_grad=True)
    skip = Tensor(r.standard_normal((2, 2, 6, 6)), requires_grad=True)
    w = Tensor(r.standard_normal((3, 5, 3, 3)) * 0.3)
    b = Tensor(r.standard_normal(3))
    return {"x": x, "skip": skip}, lambda: total(sigmoid(conv3x3([x, skip], w, b, stride=2)))


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_gradients_match_finite_differences(name):
    params, f = _fd_case(name, PRIMITIVE_CASES[name])
    check_gradients(f, params, h=1e-4, rtol=1e-4)


def test_jvp_random_points_match_finite_differences():
    # 100 random scalar probes across a mixed composite of the op set
    r = rng(99)
    failures = 0
    for trial in range(100):
        x = Tensor(r.standard_normal((2, 3)), requires_grad=True)
        w = Tensor(r.standard_normal((3, 2)), requires_grad=True)

        def f():
            return mean(sigmoid(matmul(ew_mul(x, x), w)))

        x.grad = w.grad = None
        f().backward()
        for p in (x, w):
            err = max_rel_error(p.grad, numeric_grad(f, p))
            if err >= 1e-4:
                failures += 1
    assert failures == 0


# -- conv3x3 against the einsum formulas it replaced -------------------------------


def _einsum_conv3x3(x, w, g, stride):
    """Forward, input gradient and weight gradient of the conv as plain einsums."""
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(2, 3))[:, :, ::stride, ::stride]
    out = np.einsum("ncijuv,ocuv->noij", win, w)
    if g is None:
        return out
    ho, wo = out.shape[2:]
    gxp = np.zeros_like(xp)
    for u in range(3):
        for v in range(3):
            gxp[:, :, u:u + stride * ho:stride, v:v + stride * wo:stride] += np.einsum(
                "noij,oc->ncij", g, w[:, :, u, v])
    return out, gxp[:, :, 1:-1, 1:-1], np.einsum("noij,ncijuv->ocuv", g, win)


def _unet_conv_shapes(cfg):
    """(x shape, w shape, stride) of the six UNet convs at `cfg`."""
    f, c, h, wd = cfg.latent_shape
    base, mid = cfg.base_channels, 2 * cfg.base_channels
    return [((f, 2 * c, h, wd), (base, 2 * c, 3, 3), 1),
            ((f, base, h, wd), (mid, base, 3, 3), 2),
            ((f, mid, h // 2, wd // 2), (mid, mid, 3, 3), 1),
            ((f, mid, h // 2, wd // 2), (mid, mid, 3, 3), 1),
            ((f, mid + base, h, wd), (base, mid + base, 3, 3), 1),
            ((f, base, h, wd), (c, base, 3, 3), 1)]


@pytest.mark.parametrize("xs, ws, stride", _unet_conv_shapes(TrainConfig()) + [
    ((2, 3, 5, 7), (4, 3, 3, 3), 2),   # odd spatial size at stride 2
    ((2, 3, 5, 7), (1, 3, 3, 3), 1),   # a single output channel
    ((2, 3, 5, 7), (1, 3, 3, 3), 2),
    ((1, 3, 6, 5), (4, 3, 3, 3), 1),   # a single image
    ((2, 3, 1, 1), (4, 3, 3, 3), 1),   # 1x1 to 3x3 images at both strides:
    ((2, 3, 1, 1), (4, 3, 3, 3), 2),   # a flat layout off by one reads the
    ((2, 3, 2, 2), (4, 3, 3, 3), 1),   # next image's first row
    ((2, 3, 2, 2), (4, 3, 3, 3), 2),
    ((2, 3, 3, 3), (4, 3, 3, 3), 1),
    ((2, 3, 3, 3), (4, 3, 3, 3), 2),
    ((3, 4, 5, 4), (2, 4, 3, 3), 2),   # odd height, even width at stride 2
], ids=["in", "down", "mid1", "mid2", "up", "out", "odd_stride2", "c_out_1", "c_out_1_stride2",
        "n_1", "1x1_stride1", "1x1_stride2", "2x2_stride1", "2x2_stride2", "3x3_stride1",
        "3x3_stride2", "odd_h_even_w_stride2"])
def test_conv3x3_matches_einsum_reference(xs, ws, stride):
    r = rng(5)
    x = Tensor(r.standard_normal(xs), requires_grad=True)
    w = Tensor(r.standard_normal(ws), requires_grad=True)
    b = Tensor(r.standard_normal(ws[0]), requires_grad=True)
    out = conv3x3(x, w, b, stride=stride)
    g = r.standard_normal(out.shape)
    total(ew_mul(out, g)).backward()
    want, want_gx, want_gw = _einsum_conv3x3(x.data, w.data, g, stride)
    want = want + b.data[:, None, None]
    want_gb = g.sum(axis=(0, 2, 3))
    assert out.shape == want.shape
    np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    np.testing.assert_allclose(x.grad, want_gx, rtol=1e-12, atol=1e-12 * np.abs(want_gx).max())
    np.testing.assert_allclose(w.grad, want_gw, rtol=1e-12, atol=1e-12 * np.abs(want_gw).max())
    np.testing.assert_array_equal(b.grad, want_gb)

    x32, w32, b32 = (Tensor(t.data.astype(np.float32)) for t in (x, w, b))
    out32 = conv3x3(x32, w32, b32, stride=stride)
    assert out32.dtype == np.float32
    np.testing.assert_allclose(out32.data, want, rtol=1e-4, atol=1e-4 * np.abs(want).max())

    xg, wg, bg = (Tensor(t.data.astype(np.float32), requires_grad=True) for t in (x, w, b))
    total(ew_mul(conv3x3(xg, wg, bg, stride=stride), g.astype(np.float32))).backward()
    assert xg.grad.dtype == wg.grad.dtype == bg.grad.dtype == np.float32
    np.testing.assert_allclose(xg.grad, want_gx, rtol=1e-4, atol=1e-4 * np.abs(want_gx).max())
    np.testing.assert_allclose(wg.grad, want_gw, rtol=1e-4, atol=1e-4 * np.abs(want_gw).max())
    np.testing.assert_allclose(bg.grad, want_gb, rtol=1e-4, atol=1e-4 * np.abs(want_gb).max())


@pytest.mark.parametrize("stride", [1, 2])
def test_conv3x3_permuted_input_matches_einsum_reference(stride):
    # unet_forward feeds mid2 a permute view (NHWC storage) after attention
    r = rng(8)
    base = Tensor(r.standard_normal((3, 5, 6, 4)), requires_grad=True)
    x = permute(base, (0, 3, 1, 2))
    assert not x.data.flags.c_contiguous
    w = Tensor(r.standard_normal((2, 4, 3, 3)), requires_grad=True)
    b = r.standard_normal(2)
    out = conv3x3(x, w, b, stride=stride)
    g = r.standard_normal(out.shape)
    total(ew_mul(out, g)).backward()
    want, want_gx, want_gw = _einsum_conv3x3(x.data, w.data, g, stride)
    want = want + b[:, None, None]
    base_gx = want_gx.transpose(0, 2, 3, 1)
    for got, ref in ((out.data, want), (base.grad, base_gx), (w.grad, want_gw)):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("xs, ws, stride, bound", [
    # the UNet `up` conv at the default config; its input is 0.79 MB, and an
    # (n*h*w, 9*c) im2col column matrix alone would add 7 MB
    ((16, 24, 16, 16), (8, 24, 3, 3), 1, 6.5e6),
    # the stride-2 `down` conv; its input is 0.26 MB and its backward peaks
    # near 1.8 MB
    ((16, 8, 16, 16), (16, 8, 3, 3), 2, 2.5e6),
], ids=["up", "down"])
def test_conv3x3_peak_memory_stays_near_input_size(xs, ws, stride, bound):
    r = rng(9)
    x = Tensor(r.standard_normal(xs), requires_grad=True)
    w = Tensor(r.standard_normal(ws), requires_grad=True)
    b = Tensor(r.standard_normal(ws[0]), requires_grad=True)
    tracemalloc.start()
    try:
        total(conv3x3(x, w, b, stride=stride)).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


@pytest.mark.parametrize("stride", [1, 2])
def test_conv3x3_tape_keeps_no_padded_buffer(stride):
    # with a trainable weight the tape keeps the input blocks, which the
    # caller holds anyway, and the backward rebuilds the padded buffer from
    # them; a closure holding that buffer (0.99 MB for these blocks at stride 1)
    # keeps far more than the output
    r = rng(12)
    xs = [Tensor(r.standard_normal((16, 16, 8, 8)), requires_grad=True),
          Tensor(r.standard_normal((16, 8, 16, 16)), requires_grad=True)]
    w = Tensor(r.standard_normal((8, 24, 3, 3)), requires_grad=True)
    b = Tensor(r.standard_normal(8), requires_grad=True)
    tracemalloc.start()
    try:
        out = conv3x3(xs, w, b, stride=stride)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    assert kept <= out.data.nbytes + 16 * 2**10


def _per_tap_input_grad(w, g, stride, x_shape):
    """The conv input gradient tap by tap: `w[:, :, u, v].T @ g`, u-major, onto the padded input."""
    n, c, h, wd = x_shape
    co, ho, wo = w.shape[0], g.shape[2], g.shape[3]
    gflat = g.transpose(1, 0, 2, 3).reshape(co, -1)
    gxp = np.zeros((n, c, h + 2, wd + 2), dtype=g.dtype)
    for u in range(3):
        for v in range(3):
            tap = (w[:, :, u, v].T @ gflat).reshape(c, n, ho, wo).transpose(1, 0, 2, 3)
            gxp[:, :, u:u + stride * ho:stride, v:v + stride * wo:stride] += tap
    return gxp[:, :, 1:-1, 1:-1]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("xs, stride", [((16, 8, 16, 16), 1), ((2, 3, 5, 7), 1),
                                        ((2, 3, 5, 7), 2), ((1, 4, 1, 1), 2)],
                         ids=["out", "odd", "odd_stride2", "1x1_stride2"])
def test_conv3x3_single_output_channel_input_grad_is_per_tap_matmul(xs, stride, dtype):
    # with one output channel each tap's product has one rounding per entry, and
    # the taps add up in the same order, so the two forms agree bit for bit
    r = rng(12)
    x = Tensor(r.standard_normal(xs).astype(dtype), requires_grad=True)
    w = Tensor(r.standard_normal((1, xs[1], 3, 3)).astype(dtype))
    out = conv3x3(x, w, r.standard_normal(1), stride=stride)
    g = (r.standard_normal(out.shape) * 10.0 ** r.integers(-3, 4, out.shape)).astype(dtype)
    total(ew_mul(out, g)).backward()
    assert np.array_equal(x.grad, _per_tap_input_grad(w.data, g, stride, xs))


# the five distinct UNet convs at the default config (mid1 and mid2 share a shape)
UNET_CONVS = [shape for i, shape in enumerate(_unet_conv_shapes(TrainConfig())) if i != 3]
UNET_CONV_IDS = ["in", "down", "mid", "up", "out"]


def _scaled_normal(r, shape, dtype):
    """Normal draws spread over seven decades, so that any change in rounding shows."""
    return (r.standard_normal(shape) * 10.0 ** r.integers(-3, 4, shape)).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("xs, ws, stride", UNET_CONVS, ids=UNET_CONV_IDS)
def test_conv3x3_input_grad_is_per_tap_matmul_at_unet_shapes(xs, ws, stride, dtype):
    # the same per-tap products, added in the same tap order: equal bit for bit
    r = rng(13)
    x = Tensor(_scaled_normal(r, xs, dtype), requires_grad=True)
    w = Tensor(_scaled_normal(r, ws, dtype))
    out = conv3x3(x, w, _scaled_normal(r, ws[0], dtype), stride=stride)
    g = _scaled_normal(r, out.shape, dtype)
    total(ew_mul(out, g)).backward()
    assert np.array_equal(x.grad, _per_tap_input_grad(w.data, g, stride, xs))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("stride", [1, 2])
def test_conv3x3_one_channel_blocks_input_grad_is_per_tap_matmul(stride, dtype):
    # the `in` conv's real layout: two 1-channel blocks (latent, reference frame),
    # each checked against the per-tap products of its own weight columns
    r = rng(17)
    (n, c, h, wd), ws, _ = UNET_CONVS[0]
    blocks = [Tensor(_scaled_normal(r, (n, 1, h, wd), dtype), requires_grad=True)
              for _ in range(c)]
    w = Tensor(_scaled_normal(r, ws, dtype))
    out = conv3x3(blocks, w, _scaled_normal(r, ws[0], dtype), stride=stride)
    g = _scaled_normal(r, out.shape, dtype)
    total(ew_mul(out, g)).backward()
    for lo, x in enumerate(blocks):
        want = _per_tap_input_grad(w.data[:, lo:lo + 1], g, stride, x.shape)
        assert np.array_equal(x.grad, want)


def _strided_conv3x3_forward(x, w, stride):
    """The conv forward with each tap's product added into a strided column slice.

    The same polyphase layout and per-tap matmuls as `conv3x3`, accumulated in
    the first span columns of a (co, n*hq*wq) array whose scratch columns are
    then cut away.
    """
    s = stride
    n, c, h, wd = x.shape
    co = w.shape[0]
    ho, wo = (h - 1) // s + 1, (wd - 1) // s + 1
    hq, wq = ho + 2 // s, wo + 2 // s
    buf = np.zeros((c, n, s * hq, s * wq), dtype=x.dtype)
    buf[:, :, 1:1 + h, 1:1 + wd] = x.transpose(1, 0, 2, 3)
    ph = buf.reshape(c, n, hq, s, wq, s).transpose(3, 5, 0, 1, 2, 4).reshape(s * s, c, -1)
    cols = n * hq * wq
    span = cols - (2 // s) * wq - 2 // s
    out = np.zeros((co, cols), dtype=x.dtype)
    for u in range(3):
        for v in range(3):
            off = (u // s) * wq + v // s
            out[:, :span] += w[:, :, u, v] @ ph[(u % s) * s + v % s, :, off:off + span]
    return out.reshape(co, n, hq, wq)[:, :, :ho, :wo].transpose(1, 0, 2, 3)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("xs, ws, stride", UNET_CONVS + [
    ((2, 3, 5, 7), (4, 3, 3, 3), 1),
    ((2, 3, 5, 7), (4, 3, 3, 3), 2),
    ((1, 4, 1, 1), (3, 4, 3, 3), 2),   # a one-column accumulator: span is 1
], ids=UNET_CONV_IDS + ["odd", "odd_stride2", "1x1_stride2"])
def test_conv3x3_forward_is_strided_accumulation(xs, ws, stride, dtype):
    # the bias is added last, as a separate (c, 1, 1) broadcast add would add it
    r = rng(14)
    x, w, b = (_scaled_normal(r, shape, dtype) for shape in (xs, ws, ws[0]))
    out = conv3x3(Tensor(x), Tensor(w), Tensor(b), stride=stride).data
    assert out.dtype == dtype and out.flags.c_contiguous
    assert np.array_equal(out, _strided_conv3x3_forward(x, w, stride) + b[:, None, None])


def _upsampled(x, h):
    """A block as the conv reads it at full height h: nearest-upsampled 2x if half size."""
    return x if x.shape[2] == h else np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)


def _unet_block_inputs(name, r, dtype):
    """The channel blocks that unet_forward hands the `in` or `up` conv, with its weights."""
    cfg = TrainConfig()
    xs, ws, _ = dict(zip(UNET_CONV_IDS, UNET_CONVS))[name]
    n, c, h, wd = xs
    if name == "in":  # [latent, reference frame broadcast over frames]
        ref = _scaled_normal(r, (c // 2, h, wd), dtype)
        blocks = [_scaled_normal(r, (n, c // 2, h, wd), dtype),
                  np.broadcast_to(ref, (n, c // 2, h, wd))]
    else:  # [bottleneck at half resolution, skip]
        mid = 2 * cfg.base_channels
        blocks = [_scaled_normal(r, (n, mid, h // 2, wd // 2), dtype),
                  _scaled_normal(r, (n, c - mid, h, wd), dtype)]
    return blocks, _scaled_normal(r, ws, dtype), _scaled_normal(r, ws[0], dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("name", ["in", "up"])
def test_conv3x3_blocks_forward_equals_concatenated_input(name, dtype):
    # blocks written straight into the conv's buffer round as their concatenation would
    blocks, w, b = _unet_block_inputs(name, rng(15), dtype)
    out = conv3x3([Tensor(blocks[0]), blocks[1]], Tensor(w), Tensor(b)).data
    h = blocks[1].shape[2]
    full = np.concatenate([_upsampled(x, h) for x in blocks], axis=1)
    want = _strided_conv3x3_forward(full, w, 1) + b[:, None, None]
    assert out.dtype == dtype
    assert np.array_equal(out, want)


def test_conv3x3_rejects_mismatched_blocks_and_bias():
    r = rng(16)
    x, w = Tensor(r.standard_normal((2, 3, 4, 4))), Tensor(r.standard_normal((5, 3, 3, 3)))
    w4 = Tensor(r.standard_normal((5, 4, 3, 3)))
    with pytest.raises(ValueError, match=r"agree on.*\(2, 3, 4, 4\).*\(2, 1, 4, 5\)"):
        conv3x3([x, np.zeros((2, 1, 4, 5))], w4, np.zeros(5))
    # a different n, at full and at half size
    for other in [(3, 1, 4, 4), (3, 1, 2, 2)]:
        with pytest.raises(ValueError, match="agree on"):
            conv3x3([x, np.zeros(other)], w4, np.zeros(5))
    # half of 5x7 rounded down is not exactly half
    with pytest.raises(ValueError, match=r"agree on.*\(2, 1, 5, 7\).*\(2, 3, 2, 3\)"):
        conv3x3([np.zeros((2, 1, 5, 7)), np.zeros((2, 3, 2, 3))], w4, np.zeros(5))
    with pytest.raises(ValueError, match="channel mismatch"):
        conv3x3([x, np.zeros((2, 1, 4, 4))], w, np.zeros(5))
    with pytest.raises(ValueError, match="bias"):
        conv3x3(x, w, np.zeros(4))
    with pytest.raises(ValueError, match="bias"):
        conv3x3(x, w, Tensor(np.zeros(5, dtype=np.float32)))
    with pytest.raises(ValueError, match="agree on"):
        conv3x3([], w, np.zeros(5))


def _upsample_grad_oracle(g):
    """The nearest-upsampling gradient as one reduction over each 2x2 block."""
    n, c, h2, w2 = g.shape
    return g.reshape(n, c, h2 // 2, 2, w2 // 2, 2).sum(axis=(3, 5))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("xs", [(16, 16, 8, 8), (2, 3, 3, 3), (1, 2, 5, 2), (3, 1, 1, 4)],
                         ids=["unet_mid", "3x3", "5x2", "1x4"])
def test_conv3x3_half_resolution_block_matches_upsample_oracles(xs, stride, dtype):
    # The half-resolution block reads as its np.repeat copy, and its gradient is
    # the reshape-sum of the gradient a full-resolution copy gets.  Widths above 1
    # only: at width 1 numpy's reduction adds the four entries in a row, which
    # rounds differently.
    r = rng(13)
    x = Tensor(r.standard_normal(xs).astype(dtype), requires_grad=True)
    n, c, h, wd = xs
    skip = Tensor(r.standard_normal((n, 2, 2 * h, 2 * wd)).astype(dtype))
    w = Tensor(_scaled_normal(r, (3, c + 2, 3, 3), dtype))
    b = Tensor(_scaled_normal(r, 3, dtype))
    out = conv3x3([x, skip], w, b, stride=stride)
    up = _upsampled(x.data, 2 * h)
    want = _strided_conv3x3_forward(np.concatenate([up, skip.data], axis=1), w.data, stride)
    assert np.array_equal(out.data, want + b.data[:, None, None])
    g = _scaled_normal(r, out.shape, dtype)
    total(ew_mul(out, g)).backward()
    leaf = Tensor(up, requires_grad=True)  # the same conv, its first block at full size
    total(ew_mul(conv3x3([leaf, skip], w, b, stride=stride), g)).backward()
    assert np.array_equal(x.grad, _upsample_grad_oracle(leaf.grad))


# -- Adam -----------------------------------------------------------------------


def with_grad(params, **grads):
    """`params` with each named parameter's `.grad` set, as a `backward()` would leave it."""
    for k, g in grads.items():
        params[k].grad = g
    return params


def test_adam_zero_grad_leaves_params_unchanged():
    params = {"w": Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)}
    state = AdamState(params)
    out = params
    for _ in range(5):
        out = adam_step(with_grad(out, w=np.zeros(3)), state, lr=0.1)
    np.testing.assert_array_equal(out["w"].data, [1.0, -2.0, 3.0])


def test_adam_missing_grad_leaves_param_and_moments():
    params = {"w": Tensor(np.array([0.9, -0.4]), requires_grad=True)}
    state = AdamState(params)
    params = adam_step(with_grad(params, w=np.array([0.5, -1.5])), state, lr=0.1)
    m, v = state.m["w"].copy(), state.v["w"].copy()
    out = adam_step(params, state, lr=0.1)
    assert out["w"] is params["w"]
    np.testing.assert_array_equal(state.m["w"], m)
    np.testing.assert_array_equal(state.v["w"], v)


def test_adam_never_moves_a_constant():
    # a constant holds no gradient, so no gradient can move it
    params = {"w": Tensor([1.0, 2.0], requires_grad=True), "c": Tensor([1.0, 2.0])}
    state = AdamState(params)
    out = adam_step(with_grad(params, w=np.array([1.0, -1.0])), state, lr=0.1)
    assert out["c"] is params["c"] and state.step["c"] == 0
    np.testing.assert_allclose(out["w"].data, [0.9, 2.1])


def _adam_reference(theta, gs, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook recurrence, scalar-per-element, kept independent of the implementation."""
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, g in enumerate(gs, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta


def test_adam_first_step_matches_hand_computation():
    g = np.array([0.3, -4.0, 1e-3])
    theta0 = np.array([1.0, 1.0, 1.0])
    params = {"w": Tensor(theta0, requires_grad=True)}
    state = AdamState(params)
    out = adam_step(with_grad(params, w=g), state, lr=0.01)
    # first step: m_hat = g, v_hat = g^2, update = -lr * g / (|g| + eps)
    expected = theta0 - 0.01 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(out["w"].data, expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(out["w"].data, _adam_reference(theta0, [g], 0.01), atol=1e-15)


def test_adam_two_steps_match_reference_recurrence():
    g = np.array([0.5, -1.5])
    theta0 = np.array([0.0, 2.0])
    params = {"w": Tensor(theta0, requires_grad=True)}
    state = AdamState(params)
    out = adam_step(with_grad(params, w=g), state, lr=0.05)
    out = adam_step(with_grad(out, w=g), state, lr=0.05)
    np.testing.assert_allclose(out["w"].data, _adam_reference(theta0, [g, g], 0.05), atol=1e-12)


def test_adam_skipped_step_equals_two_plain_steps():
    # each parameter's bias correction counts its own updates: a step without a
    # gradient must not advance it
    theta0 = np.array([1.0])
    g = np.array([0.5])
    params = {"w": Tensor(theta0, requires_grad=True)}
    state = AdamState(params)
    out = adam_step(with_grad(params, w=g), state, lr=0.1)
    out = adam_step(out, state, lr=0.1)
    out = adam_step(with_grad(out, w=g), state, lr=0.1)
    plain = _adam_reference(theta0, [g, g], 0.1)
    np.testing.assert_allclose(out["w"].data, plain, atol=1e-12)
    np.testing.assert_allclose(plain, [0.8], atol=1e-6)


def test_adam_rejects_nonpositive_lr():
    params = {"w": Tensor([1.0], requires_grad=True)}
    state = AdamState(params)
    with pytest.raises(ValueError, match="lr"):
        adam_step(with_grad(params, w=np.array([1.0])), state, lr=0.0)


@pytest.mark.parametrize("lr", [float("nan"), float("inf")])
def test_adam_rejects_nonfinite_lr(lr):
    # nan made every updated parameter nan, and inf made them infinite
    params = {"w": Tensor([1.0], requires_grad=True)}
    state = AdamState(params)
    with pytest.raises(ValueError, match=f"lr must be positive and finite, got {lr}"):
        adam_step(with_grad(params, w=np.array([1.0])), state, lr=lr)
    assert state.step["w"] == 0


def test_grad_setter_rejects_shape_mismatch():
    # the setter is the only way a foreign array reaches a node, so a gradient
    # that reaches adam_step has its parameter's shape
    w = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match=r"grad: shape \(3,\) != tensor shape \(2,\)"):
        w.grad = np.zeros(3)
    assert w.grad is None


# -- misc contracts ----------------------------------------------------------------


def test_tensors_are_immutable_after_construction():
    x = Tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        x.data[0] = 9.0


def test_dtype_follows_data():
    x32 = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    assert x32.dtype == np.float32
    assert Tensor([1.0]).dtype == np.float64
    assert Tensor(np.arange(3)).dtype == np.float64
    assert Tensor(np.ones(2, dtype=np.float16)).dtype == np.float64
    assert Tensor([1.0], dtype=np.float32).dtype == np.float32
    assert Tensor(x32.data, dtype=np.float64).dtype == np.float64
    # ops on f32 operands stay f32, and so do their gradients
    y = T.mean(T.ew_mul(T.sigmoid(x32), x32))
    assert y.dtype == np.float32
    y.backward()
    assert x32.grad.dtype == np.float32
    # python-number operands become constants in the tensor's dtype
    x32.grad = None
    outs = [T.add(x32, 2.0), T.add(2.0, x32), ew_mul(x32, 2.0), ew_mul(2.0, x32), ew_mul(x32, 3)]
    assert [o.dtype for o in outs] == [np.float32] * len(outs)
    for out in outs:
        T.mean(out).backward()
    assert x32.grad.dtype == np.float32
    # so do f64 arrays met by either side of matmul
    m32 = Tensor(np.ones((3, 3), dtype=np.float32), requires_grad=True)
    a64 = np.full((3, 3), 0.5)
    outs = [T.matmul(m32, a64), T.matmul(a64, m32)]
    assert [o.dtype for o in outs] == [np.float32] * len(outs)
    for out in outs:
        m32.grad = None
        T.mean(out).backward()
        assert m32.grad.dtype == np.float32
    # and a conv3x3 input block given as an f64 array
    x4 = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32), requires_grad=True)
    w4 = Tensor(np.ones((2, 2, 3, 3), dtype=np.float32), requires_grad=True)
    b4 = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
    out = T.conv3x3([x4, np.full((1, 1, 3, 3), 0.5)], w4, b4)
    assert out.dtype == np.float32
    T.mean(out).backward()
    assert x4.grad.dtype == w4.grad.dtype == b4.grad.dtype == np.float32


# every one-operand primitive, with an input shape it accepts
ONE_OPERAND = {
    "sigmoid": (sigmoid, (2, 2)),
    "relu": (relu, (2, 2)),
    "softmax_rows": (softmax_rows, (2, 2)),
    "mean": (mean, (2, 2)),
    "reshape": (lambda x: reshape(x, (4,)), (2, 2)),
    "permute": (lambda x: permute(x, (1, 0)), (2, 2)),
    "dwt2": (dwt2, (2, 2)),
    "idwt2": (idwt2, (4, 1, 1)),
}


@pytest.mark.parametrize("kind", ["f64", "f32", "int", "memoryview"])
@pytest.mark.parametrize("name", sorted(ONE_OPERAND))
def test_lone_operand_follows_the_tensor_rule(name, kind):
    # a non-tensor lone operand becomes a constant as Tensor(x) would make it
    op, shape = ONE_OPERAND[name]
    data = np.arange(-2, np.prod(shape) - 2).reshape(shape)
    x = {"f64": data.astype(np.float64), "f32": data.astype(np.float32), "int": data,
         "memoryview": memoryview(data.astype(np.float32))}[kind]
    out, want = op(x), op(Tensor(x))
    assert not out.requires_grad
    assert out.dtype == want.dtype == Tensor(x).dtype
    assert np.array_equal(out.data, want.data)


# -- input checks ----------------------------------------------------------------------


@pytest.mark.parametrize("call, message", [
    (lambda: Tensor([1.0, 2.0]).item(), "item() requires a single-element tensor, got shape (2,)"),
    (lambda: add(np.zeros(2), Tensor(np.zeros(3))), "add: shape mismatch (2,) vs (3,)"),
    (lambda: matmul(Tensor(np.zeros(3)), np.zeros((3, 2))),
     "matmul: expected operands of rank >= 2, got (3,) and (3, 2)"),
    (lambda: softmax_rows(np.zeros(3)), "softmax_rows: expected 2-D input, got (3,)"),
    (lambda: mean(np.zeros((2, 0))), "mean: empty tensor"),
    (lambda: conv3x3(np.zeros((1, 1, 4, 4)), Tensor(np.zeros((1, 1, 3, 3))), np.zeros(1),
                     stride=3), "conv3x3: stride must be 1 or 2, got 3"),
    (lambda: conv3x3(np.zeros((1, 1, 4, 4)), Tensor(np.zeros((1, 1, 2, 2))), np.zeros(1)),
     "conv3x3: bad weight shape w(1, 1, 2, 2)"),
], ids=["item", "add", "matmul_rank", "softmax_rows_rank", "mean_empty", "conv3x3_stride",
        "conv3x3_weight"])
def test_input_checks_raise_value_error_naming_the_fault(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message

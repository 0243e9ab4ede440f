"""Tensor primitives, the gradient tape, and the Adam update."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveletcond import tensor as T
from waveletcond.diffusion import TrainConfig
from waveletcond.gradcheck import check_gradients, max_rel_error, numeric_grad
from waveletcond.tensor import (
    AdamState,
    Tensor,
    adam_step,
    add,
    add_channel_bias,
    channel_linear,
    concat,
    conv3x3,
    ew_mul,
    linear,
    matmul,
    mean,
    nearest_upsample2,
    permute,
    relu,
    reshape,
    sigmoid,
    softmax_rows,
    sum_all,
    tslice,
)


def rng(seed=0):
    return np.random.default_rng(seed)


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
    loss = sum_all(ew_mul(x, x))
    loss.backward()
    np.testing.assert_allclose(x.grad, [6.0])


def test_backward_sigmoid_sum_at_zero():
    x = Tensor(np.zeros(5), requires_grad=True)
    loss = sum_all(sigmoid(x))
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
    loss = sum_all(ew_mul(x, x))
    loss.backward()
    assert unused.grad is None
    params = {"x": x, "unused": unused}
    out = adam_step(params, {k: p.grad for k, p in params.items()}, AdamState(params), lr=0.1)
    assert out["unused"] is unused
    assert out["x"].data[0] != 1.0


def test_backward_sum_of_independent_subgraphs_is_concat_of_grads():
    r = rng(11)
    a = Tensor(r.standard_normal(4), requires_grad=True)
    b = Tensor(r.standard_normal(3), requires_grad=True)
    joint = add(sum_all(ew_mul(a, a)), sum_all(sigmoid(b)))
    joint.backward()
    ga_joint, gb_joint = a.grad.copy(), b.grad.copy()

    a2 = Tensor(a.data, requires_grad=True)
    b2 = Tensor(b.data, requires_grad=True)
    sum_all(ew_mul(a2, a2)).backward()
    sum_all(sigmoid(b2)).backward()
    np.testing.assert_allclose(ga_joint, a2.grad, atol=1e-15)
    np.testing.assert_allclose(gb_joint, b2.grad, atol=1e-15)


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
    return {"a": a, "b": b}, lambda: sum_all(sigmoid(add(a, b)))


@fd_case("add_scalar")
def _case_add_scalar(r):
    a = Tensor(r.standard_normal((3, 4)), requires_grad=True)
    s = Tensor(r.standard_normal(()), requires_grad=True)
    return {"a": a, "s": s}, lambda: sum_all(sigmoid(add(a, s)))


@fd_case("add_broadcast_both")
def _case_add_broadcast(r):
    a = Tensor(r.standard_normal((3, 1)), requires_grad=True)
    b = Tensor(r.standard_normal((1, 4)), requires_grad=True)
    return {"a": a, "b": b}, lambda: sum_all(sigmoid(add(a, b)))


@fd_case("ew_mul")
def _case_mul(r):
    a = Tensor(r.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(r.standard_normal((3, 4)), requires_grad=True)
    return {"a": a, "b": b}, lambda: sum_all(sigmoid(ew_mul(a, b)))


@fd_case("ew_mul_scalar")
def _case_mul_scalar(r):
    a = Tensor(r.standard_normal((2, 3)), requires_grad=True)
    s = Tensor([0.7], requires_grad=True)
    return {"a": a, "s": s}, lambda: sum_all(sigmoid(ew_mul(a, s)))


@fd_case("ew_mul_broadcast_both")
def _case_mul_broadcast(r):
    a = Tensor(r.standard_normal((3, 1)), requires_grad=True)
    b = Tensor(r.standard_normal((1, 4)), requires_grad=True)
    return {"a": a, "b": b}, lambda: sum_all(sigmoid(ew_mul(a, b)))


@fd_case("scale")
def _case_scale(r):
    a = Tensor(r.standard_normal((4,)), requires_grad=True)
    return {"a": a}, lambda: sum_all(sigmoid(ew_mul(a, -2.5)))


@fd_case("matmul")
def _case_matmul(r):
    a = Tensor(r.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(r.standard_normal((4, 2)), requires_grad=True)
    return {"a": a, "b": b}, lambda: sum_all(sigmoid(matmul(a, b)))


@fd_case("matmul_broadcast")
def _case_matmul_broadcast(r):
    # leading axes broadcast on either side, so both gradients are summed back
    a = Tensor(r.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(r.standard_normal((2, 4, 5)), requires_grad=True)
    c = Tensor(r.standard_normal((2, 1, 3, 4)), requires_grad=True)
    d = Tensor(r.standard_normal((5, 4, 2)), requires_grad=True)
    return ({"a": a, "b": b, "c": c, "d": d},
            lambda: add(sum_all(sigmoid(matmul(a, b))), sum_all(sigmoid(matmul(c, d)))))


@fd_case("linear")
def _case_linear(r):
    x = Tensor(r.standard_normal((3, 4)), requires_grad=True)
    w = Tensor(r.standard_normal((4, 5)), requires_grad=True)
    b = Tensor(r.standard_normal(5), requires_grad=True)
    return {"x": x, "w": w, "b": b}, lambda: sum_all(sigmoid(linear(x, w, b)))


@fd_case("channel_linear")
def _case_channel_linear(r):
    x = Tensor(r.standard_normal((2, 3, 4, 4)), requires_grad=True)
    w = Tensor(r.standard_normal((3, 3)), requires_grad=True)
    b = Tensor(r.standard_normal(3), requires_grad=True)
    return {"x": x, "w": w, "b": b}, lambda: sum_all(sigmoid(channel_linear(x, w, b)))


@fd_case("sigmoid")
def _case_sigmoid(r):
    x = Tensor(r.standard_normal((5,)), requires_grad=True)
    return {"x": x}, lambda: sum_all(ew_mul(sigmoid(x), sigmoid(x)))


@fd_case("relu")
def _case_relu(r):
    # keep values away from the kink, where finite differences are invalid
    x = Tensor(r.standard_normal((6,)) + np.sign(r.standard_normal((6,))) * 0.5,
               requires_grad=True)
    return {"x": x}, lambda: sum_all(sigmoid(relu(x)))


@fd_case("softmax_rows")
def _case_softmax(r):
    x = Tensor(r.standard_normal((3, 5)), requires_grad=True)
    w = Tensor(r.standard_normal((3, 5)))
    return {"x": x}, lambda: sum_all(ew_mul(softmax_rows(x), w))


@fd_case("mean_pool_all")
def _case_mean(r):
    x = Tensor(r.standard_normal((3, 4)), requires_grad=True)
    y = Tensor(r.standard_normal((2, 3, 4)), requires_grad=True)
    return {"x": x, "y": y}, lambda: add(mean(sigmoid(x)), sum_all(sigmoid(mean(y, axis=(0, 2)))))


@fd_case("reshape_permute_slice_concat")
def _case_shapes(r):
    x = Tensor(r.standard_normal((2, 3, 4)), requires_grad=True)
    y = Tensor(r.standard_normal((2, 3, 4)), requires_grad=True)

    def f():
        z = concat([x, y], axis=2)           # (2, 3, 8)
        z = permute(z, (1, 0, 2))            # (3, 2, 8)
        z = reshape(z, (3, 16))
        z = tslice(z, (slice(None), slice(2, 10)))
        return sum_all(sigmoid(z))

    return {"x": x, "y": y}, f


@fd_case("conv3x3_stride1")
def _case_conv1(r):
    x = Tensor(r.standard_normal((2, 3, 6, 6)), requires_grad=True)
    w = Tensor(r.standard_normal((4, 3, 3, 3)) * 0.3, requires_grad=True)
    return {"x": x, "w": w}, lambda: sum_all(sigmoid(conv3x3(x, w, stride=1)))


@fd_case("conv3x3_stride2")
def _case_conv2(r):
    x = Tensor(r.standard_normal((2, 3, 6, 6)), requires_grad=True)
    w = Tensor(r.standard_normal((4, 3, 3, 3)) * 0.3, requires_grad=True)
    return {"x": x, "w": w}, lambda: sum_all(sigmoid(conv3x3(x, w, stride=2)))


@fd_case("add_channel_bias")
def _case_bias(r):
    x = Tensor(r.standard_normal((2, 3, 4, 4)), requires_grad=True)
    v = Tensor(r.standard_normal(3), requires_grad=True)
    return {"x": x, "v": v}, lambda: sum_all(sigmoid(add_channel_bias(x, v)))


@fd_case("nearest_upsample2")
def _case_upsample(r):
    x = Tensor(r.standard_normal((2, 3, 3, 3)), requires_grad=True)
    return {"x": x}, lambda: sum_all(sigmoid(nearest_upsample2(x)))


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

        x.zero_grad(), w.zero_grad()
        f().backward()
        for p in (x, w):
            err = max_rel_error(p.grad, numeric_grad(f, p))
            if err >= 1e-4:
                failures += 1
    assert failures == 0


# -- conv3x3 and channel_linear against the einsum formulas they replaced ------------


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
], ids=["in", "down", "mid1", "mid2", "up", "out", "odd_stride2", "c_out_1"])
def test_conv3x3_matches_einsum_reference(xs, ws, stride):
    r = rng(5)
    x = Tensor(r.standard_normal(xs), requires_grad=True)
    w = Tensor(r.standard_normal(ws), requires_grad=True)
    out = conv3x3(x, w, stride=stride)
    g = r.standard_normal(out.shape)
    sum_all(ew_mul(out, g)).backward()
    want, want_gx, want_gw = _einsum_conv3x3(x.data, w.data, g, stride)
    assert out.shape == want.shape
    np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    np.testing.assert_allclose(x.grad, want_gx, rtol=1e-12, atol=1e-12 * np.abs(want_gx).max())
    np.testing.assert_allclose(w.grad, want_gw, rtol=1e-12, atol=1e-12 * np.abs(want_gw).max())

    x32, w32 = Tensor(x.data.astype(np.float32)), Tensor(w.data.astype(np.float32))
    out32 = conv3x3(x32, w32, stride=stride)
    assert out32.dtype == np.float32
    np.testing.assert_allclose(out32.data, want, rtol=1e-4, atol=1e-4 * np.abs(want).max())


def test_channel_linear_matches_einsum_reference():
    r = rng(6)
    x = Tensor(r.standard_normal((16, 16, 8, 8)), requires_grad=True)  # the SFM gate shape
    w = Tensor(r.standard_normal((16, 16)), requires_grad=True)
    b = Tensor(r.standard_normal(16), requires_grad=True)
    out = channel_linear(x, w, b)
    g = r.standard_normal(out.shape)
    sum_all(ew_mul(out, g)).backward()
    want = np.einsum("oc,ncij->noij", w.data, x.data) + b.data[:, None, None]
    want_gx = np.einsum("oc,noij->ncij", w.data, g)
    want_gw = np.einsum("noij,ncij->oc", g, x.data)
    for got, ref in ((out.data, want), (x.grad, want_gx), (w.grad, want_gw)):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    x32, w32, b32 = (Tensor(t.data.astype(np.float32)) for t in (x, w, b))
    assert channel_linear(x32, w32, b32).dtype == np.float32


# -- Adam -----------------------------------------------------------------------


def test_adam_zero_grad_leaves_params_unchanged():
    params = {"w": Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)}
    state = AdamState(params)
    grads = {"w": np.zeros(3)}
    out = params
    for _ in range(5):
        out = adam_step(out, grads, state, lr=0.1)
    np.testing.assert_array_equal(out["w"].data, [1.0, -2.0, 3.0])


def test_adam_missing_grad_leaves_param_and_moments():
    params = {"w": Tensor(np.array([0.9, -0.4]), requires_grad=True)}
    state = AdamState(params)
    params = adam_step(params, {"w": np.array([0.5, -1.5])}, state, lr=0.1)
    m, v = state.m["w"].copy(), state.v["w"].copy()
    for grads in ({}, {"w": None}):
        out = adam_step(params, grads, state, lr=0.1)
        assert out["w"] is params["w"]
        np.testing.assert_array_equal(state.m["w"], m)
        np.testing.assert_array_equal(state.v["w"], v)


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
    out = adam_step(params, {"w": g}, state, lr=0.01)
    # first step: m_hat = g, v_hat = g^2, update = -lr * g / (|g| + eps)
    expected = theta0 - 0.01 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(out["w"].data, expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(out["w"].data, _adam_reference(theta0, [g], 0.01), atol=1e-15)


def test_adam_two_steps_match_reference_recurrence():
    g = np.array([0.5, -1.5])
    theta0 = np.array([0.0, 2.0])
    params = {"w": Tensor(theta0, requires_grad=True)}
    state = AdamState(params)
    out = adam_step(params, {"w": g}, state, lr=0.05)
    out = adam_step(out, {"w": g}, state, lr=0.05)
    np.testing.assert_allclose(out["w"].data, _adam_reference(theta0, [g, g], 0.05), atol=1e-12)


def test_adam_skipped_step_equals_two_plain_steps():
    # each parameter's bias correction counts its own updates: a step without a
    # gradient must not advance it
    theta0 = np.array([1.0])
    g = np.array([0.5])
    params = {"w": Tensor(theta0, requires_grad=True)}
    state = AdamState(params)
    out = adam_step(params, {"w": g}, state, lr=0.1)
    out = adam_step(out, {}, state, lr=0.1)
    out = adam_step(out, {"w": g}, state, lr=0.1)
    plain = _adam_reference(theta0, [g, g], 0.1)
    np.testing.assert_allclose(out["w"].data, plain, atol=1e-12)
    np.testing.assert_allclose(plain, [0.8], atol=1e-6)


def test_adam_rejects_nonpositive_lr():
    params = {"w": Tensor([1.0], requires_grad=True)}
    state = AdamState(params)
    with pytest.raises(ValueError, match="lr"):
        adam_step(params, {"w": np.array([1.0])}, state, lr=0.0)


def test_adam_rejects_shape_mismatch():
    params = {"w": Tensor([1.0, 2.0], requires_grad=True)}
    state = AdamState(params)
    with pytest.raises(ValueError, match="shape"):
        adam_step(params, {"w": np.zeros(3)}, state, lr=0.1)


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
    x32.zero_grad()
    outs = [x32 + 2.0, 2.0 + x32, x32 * 2.0, 2.0 * x32, x32 - 1.0, ew_mul(x32, 3)]
    assert [o.dtype for o in outs] == [np.float32] * len(outs)
    T.mean(T.concat(outs, axis=0)).backward()
    assert x32.grad.dtype == np.float32

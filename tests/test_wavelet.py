"""Haar transform: kernels, analysis/synthesis, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveletcond.tensor import Tensor, ew_mul, sigmoid
from waveletcond.wavelet import (
    dwt2,
    dwt2_batched,
    dwt2_data,
    idwt2,
    idwt2_batched,
    idwt2_data,
)

from gradcheck import check_gradients
from test_tensor import total


def rng(seed=0):
    return np.random.default_rng(seed)


LOW = np.array([1.0, 1.0]) / np.sqrt(2.0)
HIGH = np.array([-1.0, 1.0]) / np.sqrt(2.0)
# k_XY[i][j] = X[i] * Y[j], in band order ll, lh, hl, hh
KERNELS = tuple(np.outer(a, b) for a, b in ((LOW, LOW), (LOW, HIGH), (HIGH, LOW), (HIGH, HIGH)))


def naive_dwt2(x):
    """Brute-force 2x2 kernel correlation over non-overlapping blocks."""
    h, w = x.shape
    bands = []
    for k in KERNELS:
        out = np.zeros((h // 2, w // 2))
        for i in range(h // 2):
            for j in range(w // 2):
                out[i, j] = np.sum(x[2 * i:2 * i + 2, 2 * j:2 * j + 2] * k)
        bands.append(out)
    return bands


def strided_dwt2(x):
    """The transform on stride-2 views of x, the form dwt2_data replaced."""
    a, b = x[..., 0::2, 0::2], x[..., 0::2, 1::2]
    c, d = x[..., 1::2, 0::2], x[..., 1::2, 1::2]
    return np.stack([(a + b + c + d) * 0.5, (-a + b - c + d) * 0.5,
                     (-a - b + c + d) * 0.5, (a - b - c + d) * 0.5])


# -- kernels -----------------------------------------------------------------


def impulse_responses():
    """Row k is band k of dwt2_data on the four unit 2x2 impulses: its kernel, flattened."""
    return np.stack([np.ravel(dwt2_data(e.reshape(2, 2))) for e in np.eye(4)], axis=1)


def test_kernel_ll_is_all_halves():
    np.testing.assert_allclose(impulse_responses()[0].reshape(2, 2), np.full((2, 2), 0.5),
                               atol=1e-15)


def test_kernel_hh():
    np.testing.assert_allclose(impulse_responses()[3].reshape(2, 2), [[0.5, -0.5], [-0.5, 0.5]],
                               atol=1e-15)


def test_kernel_gram_matrix_is_identity():
    flat = impulse_responses()
    np.testing.assert_allclose(flat @ flat.T, np.eye(4), atol=1e-12)


# -- forward transform ----------------------------------------------------------


def test_constant_slice():
    c = 3.25
    s = dwt2(Tensor(np.full((4, 6), c)))
    assert s.shape == (4, 2, 3)
    np.testing.assert_allclose(s.data[0], np.full((2, 3), 2 * c), atol=1e-12)
    for band in s.data[1:]:
        np.testing.assert_array_equal(band, np.zeros((2, 3)))


def test_single_block_vector():
    s = dwt2(Tensor([[1.0, 2.0], [3.0, 4.0]]))
    assert s.data[0, 0, 0] == pytest.approx(5.0)
    assert s.data[1, 0, 0] == pytest.approx(1.0)
    assert s.data[2, 0, 0] == pytest.approx(2.0)
    assert s.data[3, 0, 0] == pytest.approx(0.0)


def test_dwt2_vs_naive_loop_oracle():
    x = rng(5).standard_normal((8, 8))
    got = dwt2(Tensor(x))
    want = naive_dwt2(x)
    for g, w in zip(got.data, want):
        assert np.max(np.abs(g - w)) < 1e-12


def test_dwt2_rejects_odd_dims():
    with pytest.raises(ValueError, match="row dimension 5"):
        dwt2(Tensor(np.zeros((5, 4))))
    with pytest.raises(ValueError, match="column dimension 7"):
        dwt2(Tensor(np.zeros((4, 7))))


# -- inverse transform -----------------------------------------------------------


def test_roundtrip_random():
    x = rng(1).standard_normal((3, 16, 12))
    back = idwt2(dwt2(Tensor(x)))
    assert np.max(np.abs(back.data - x)) < 1e-10


def test_zero_subbands_give_zero():
    out = idwt2(Tensor(np.zeros((4, 2, 2))))
    np.testing.assert_array_equal(out.data, np.zeros((4, 4)))


def test_idwt2_inverts_single_block_example():
    s = Tensor([[[5.0]], [[1.0]], [[2.0]], [[0.0]]])
    np.testing.assert_allclose(idwt2(s).data, [[1.0, 2.0], [3.0, 4.0]], atol=1e-12)


def test_idwt2_rejects_mismatched_bands():
    for shape in ((3, 2, 2), (5, 2, 2), (4, 2)):
        with pytest.raises(ValueError, match="sub-band stack"):
            idwt2(Tensor(np.zeros(shape)))


# -- batching ---------------------------------------------------------------------


def test_batch_equals_stacked_single_slices():
    x = rng(2).standard_normal((2, 6, 6))
    batched = dwt2_batched(Tensor(x))
    for i in range(2):
        single = dwt2(Tensor(x[i]))
        for bb, sb in zip(batched.data, single.data):
            np.testing.assert_array_equal(bb[i], sb)


def test_batched_roundtrip():
    x = rng(3).standard_normal((4, 3, 8, 10))
    back = idwt2_batched(dwt2_batched(Tensor(x)))
    assert np.max(np.abs(back.data - x)) < 1e-10


def test_batched_vs_loop_of_single_bit_identical():
    x = rng(4).standard_normal((5, 6, 6))
    batched = dwt2_batched(Tensor(x)).data
    for i in range(5):
        single = dwt2_data(x[i])
        for bb, sb in zip(batched, single):
            assert np.array_equal(bb[i], sb)


# -- invariants --------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=32), st.integers(min_value=1, max_value=32),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_perfect_reconstruction_property(hh, ww, seed):
    x = np.random.default_rng(seed).standard_normal((2 * hh, 2 * ww))
    back = idwt2(dwt2(Tensor(x)))
    assert np.max(np.abs(back.data - x)) < 1e-10


def test_energy_preservation():
    for seed in range(20):
        x = rng(seed).standard_normal((16, 16))
        s = dwt2(Tensor(x))
        total = sum(float(np.sum(b ** 2)) for b in s.data)
        ref = float(np.sum(x ** 2))
        assert abs(ref - total) / ref < 1e-10


def test_linearity():
    r = rng(9)
    x, y = r.standard_normal((8, 8)), r.standard_normal((8, 8))
    alpha, beta = 1.7, -0.4
    lhs = dwt2(Tensor(alpha * x + beta * y))
    rx, ry = dwt2(Tensor(x)), dwt2(Tensor(y))
    for l, a, b in zip(lhs.data, rx.data, ry.data):
        assert np.max(np.abs(l - (alpha * a + beta * b))) < 1e-10


def test_gradient_duality_dwt_backward_is_idwt():
    x = Tensor(rng(10).standard_normal((6, 6)), requires_grad=True)
    weights = Tensor(np.stack([rng(20 + i).standard_normal((3, 3)) for i in range(4)]))

    def f():
        return total(ew_mul(dwt2(x), weights))

    check_gradients(f, {"x": x}, h=1e-4, rtol=1e-4)
    # and the analytic gradient literally equals idwt2 of the upstream band grads
    x.grad = None
    f().backward()
    expected = idwt2_data(weights.data)
    np.testing.assert_allclose(x.grad, expected, atol=1e-12)


def test_idwt2_gradients_match_finite_differences():
    r = rng(12)
    bands = Tensor(np.stack([r.standard_normal((3, 3)) for _ in range(4)]), requires_grad=True)

    def f():
        return total(sigmoid(idwt2(bands)))

    check_gradients(f, {"bands": bands}, h=1e-4, rtol=1e-4)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", [(6, 8), (3, 4, 6), (2, 3, 4, 2), (2, 1, 3, 2, 4), (0, 4, 4),
                                   (16, 16, 8, 8), (8, 32)],
                         ids=["lead0", "lead1", "lead2", "lead3", "empty_lead", "sfm", "msm"])
def test_dwt2_data_equals_strided_form_bit_for_bit(shape, dtype):
    # values over seven decades, with signed zeros, so that any change in rounding
    # or in the sign of a zero shows
    r = rng(21)
    x = r.standard_normal(shape) * 10.0 ** r.integers(-3, 4, shape)
    x[r.random(shape) < 0.1] = 0.0
    x[r.random(shape) < 0.1] = -0.0
    x = x.astype(dtype)
    got = dwt2_data(x)
    want = strided_dwt2(x)
    assert got.dtype == dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()

"""Haar transform: kernels, analysis/synthesis, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveletcond.gradcheck import check_gradients
from waveletcond.tensor import Tensor, ew_mul, sigmoid, sum_all
from waveletcond.wavelet import (
    SubBands,
    crop_to,
    dwt2,
    dwt2_batched,
    dwt2_data,
    idwt2,
    idwt2_batched,
    pad_even,
)


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
    np.testing.assert_allclose(s.ll.data, np.full((2, 3), 2 * c), atol=1e-12)
    for band in (s.lh, s.hl, s.hh):
        np.testing.assert_array_equal(band.data, np.zeros((2, 3)))


def test_single_block_vector():
    s = dwt2(Tensor([[1.0, 2.0], [3.0, 4.0]]))
    assert s.ll.data[0, 0] == pytest.approx(5.0)
    assert s.lh.data[0, 0] == pytest.approx(1.0)
    assert s.hl.data[0, 0] == pytest.approx(2.0)
    assert s.hh.data[0, 0] == pytest.approx(0.0)


def test_dwt2_vs_naive_loop_oracle():
    x = rng(5).standard_normal((8, 8))
    got = dwt2(Tensor(x))
    want = naive_dwt2(x)
    for g, w in zip(got.bands(), want):
        assert np.max(np.abs(g.data - w)) < 1e-12


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
    z = Tensor(np.zeros((2, 2)))
    out = idwt2(SubBands(z, z, z, z))
    np.testing.assert_array_equal(out.data, np.zeros((4, 4)))


def test_idwt2_inverts_single_block_example():
    s = SubBands(Tensor([[5.0]]), Tensor([[1.0]]), Tensor([[2.0]]), Tensor([[0.0]]))
    np.testing.assert_allclose(idwt2(s).data, [[1.0, 2.0], [3.0, 4.0]], atol=1e-12)


def test_idwt2_rejects_mismatched_bands():
    with pytest.raises(ValueError, match="differ"):
        SubBands(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))),
                 Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2))))


# -- batching ---------------------------------------------------------------------


def test_batch_equals_stacked_single_slices():
    x = rng(2).standard_normal((2, 6, 6))
    batched = dwt2_batched(Tensor(x))
    for i in range(2):
        single = dwt2(Tensor(x[i]))
        for bb, sb in zip(batched.bands(), single.bands()):
            np.testing.assert_array_equal(bb.data[i], sb.data)


def test_batched_roundtrip():
    x = rng(3).standard_normal((4, 3, 8, 10))
    back = idwt2_batched(dwt2_batched(Tensor(x)))
    assert np.max(np.abs(back.data - x)) < 1e-10


def test_batched_vs_loop_of_single_bit_identical():
    x = rng(4).standard_normal((5, 6, 6))
    batched = [b.data for b in dwt2_batched(Tensor(x)).bands()]
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
        total = sum(float(np.sum(b.data ** 2)) for b in s.bands())
        ref = float(np.sum(x ** 2))
        assert abs(ref - total) / ref < 1e-10


def test_linearity():
    r = rng(9)
    x, y = r.standard_normal((8, 8)), r.standard_normal((8, 8))
    alpha, beta = 1.7, -0.4
    lhs = dwt2(Tensor(alpha * x + beta * y))
    rx, ry = dwt2(Tensor(x)), dwt2(Tensor(y))
    for l, a, b in zip(lhs.bands(), rx.bands(), ry.bands()):
        assert np.max(np.abs(l.data - (alpha * a.data + beta * b.data))) < 1e-10


def test_gradient_duality_dwt_backward_is_idwt():
    x = Tensor(rng(10).standard_normal((6, 6)), requires_grad=True)
    weights = [Tensor(rng(20 + i).standard_normal((3, 3))) for i in range(4)]

    def f():
        s = dwt2(x)
        total = sum_all(ew_mul(s.ll, weights[0]))
        for band, w in zip((s.lh, s.hl, s.hh), weights[1:]):
            total = total + sum_all(ew_mul(band, w))
        return total

    check_gradients(f, {"x": x}, h=1e-4, rtol=1e-4)
    # and the analytic gradient literally equals idwt2 of the upstream band grads
    x.zero_grad()
    f().backward()
    from waveletcond.wavelet import idwt2_data
    expected = idwt2_data(*(w.data for w in weights))
    np.testing.assert_allclose(x.grad, expected, atol=1e-12)


def test_idwt2_gradients_match_finite_differences():
    r = rng(12)
    bands = {n: Tensor(r.standard_normal((3, 3)), requires_grad=True)
             for n in ("ll", "lh", "hl", "hh")}

    def f():
        return sum_all(sigmoid(idwt2(SubBands(**bands))))

    check_gradients(f, bands, h=1e-4, rtol=1e-4)


# -- padding helpers ---------------------------------------------------------------


def test_pad_even_roundtrip():
    x = rng(13).standard_normal((5, 7))
    padded, orig = pad_even(Tensor(x))
    assert padded.shape == (6, 8)
    assert orig == (5, 7)
    back = crop_to(idwt2(dwt2(padded)), orig)
    assert np.max(np.abs(back.data - x)) < 1e-10


def test_pad_even_noop_for_even_dims():
    x = Tensor(rng(14).standard_normal((4, 4)))
    padded, orig = pad_even(x)
    assert padded is x
    assert orig == (4, 4)


def test_pad_even_gradient_flows():
    x = Tensor(rng(15).standard_normal((3, 3)), requires_grad=True)

    def f():
        padded, _ = pad_even(x)
        return sum_all(sigmoid(idwt2(dwt2(padded))))

    check_gradients(f, {"x": x}, h=1e-4, rtol=1e-4)

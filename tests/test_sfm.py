"""Self-adaptive feature filter: gate map, forward contract, gradients."""

import numpy as np
import pytest

from waveletcond.sfm import gate_map, init_sfm_params, sfm_forward
from waveletcond.tensor import Tensor, ew_mul, mean, sigmoid

from gradcheck import check_gradients
from test_tensor import total

FEAT_SHAPE = (2, 3, 4, 4)  # (frames, channels, height, width)


def rng(seed=0):
    return np.random.default_rng(seed)


def random_sfm_params(seed=0, shape=FEAT_SHAPE):
    r = rng(seed)
    f, c, h, w = shape
    half = (f, c, h // 2, w // 2)
    return {
        "sfm.w": Tensor(np.stack([r.standard_normal(half) for _ in range(4)]), requires_grad=True),
        "sfm.gate_w": Tensor(r.standard_normal((c, c)), requires_grad=True),
        "sfm.gate_b": Tensor(r.standard_normal(c), requires_grad=True),
    }


# -- gate map -----------------------------------------------------------------


def test_gate_zero_params_is_half_everywhere():
    p = init_sfm_params(FEAT_SHAPE)
    h = Tensor(rng(1).standard_normal(FEAT_SHAPE))
    np.testing.assert_array_equal(gate_map(h, p).data, np.full(FEAT_SHAPE, 0.5))


def test_gate_identity_weights_zero_input():
    p = dict(init_sfm_params(FEAT_SHAPE), **{"sfm.gate_w": Tensor(np.eye(3), requires_grad=True)})
    h = Tensor(np.zeros(FEAT_SHAPE))
    np.testing.assert_array_equal(gate_map(h, p).data, np.full(FEAT_SHAPE, 0.5))


def test_gate_vs_per_position_matmul_oracle():
    p = random_sfm_params(seed=2)
    h = rng(3).standard_normal(FEAT_SHAPE)
    got = gate_map(Tensor(h), p).data
    f, c, hh, ww = FEAT_SHAPE
    for fi in range(f):
        for y in range(hh):
            for x in range(ww):
                pre = p["sfm.gate_w"].data @ h[fi, :, y, x] + p["sfm.gate_b"].data
                want = 1.0 / (1.0 + np.exp(-pre))
                np.testing.assert_allclose(got[fi, :, y, x], want, atol=1e-12)


def test_gate_output_strictly_in_unit_interval():
    p = random_sfm_params(seed=4)
    out = gate_map(Tensor(rng(5).standard_normal(FEAT_SHAPE) * 3.0), p).data
    assert np.all(out > 0.0) and np.all(out < 1.0)


def test_gate_rejects_channel_mismatch():
    p = init_sfm_params(FEAT_SHAPE)
    with pytest.raises(ValueError, match="channel"):
        gate_map(Tensor(np.zeros((2, 5, 4, 4))), p)


# -- forward ---------------------------------------------------------------------


def test_zero_features_give_zero_output():
    p = random_sfm_params(seed=6)
    out = sfm_forward(Tensor(np.zeros(FEAT_SHAPE)), p)
    np.testing.assert_array_equal(out.data, np.zeros(FEAT_SHAPE))


def test_init_params_give_exactly_half_input():
    p = init_sfm_params(FEAT_SHAPE)
    h = rng(7).standard_normal(FEAT_SHAPE)
    out = sfm_forward(Tensor(h), p)
    assert np.max(np.abs(out.data - 0.5 * h)) < 1e-9


def test_doubling_band_weights_doubles_output():
    p = init_sfm_params(FEAT_SHAPE)
    doubled = dict(p, **{"sfm.w": Tensor(2.0 * p["sfm.w"].data, requires_grad=True)})
    h = Tensor(rng(8).standard_normal(FEAT_SHAPE))
    np.testing.assert_allclose(sfm_forward(h, doubled).data,
                               2.0 * sfm_forward(h, p).data, atol=1e-12)


def test_gate_is_entrywise_contraction():
    from waveletcond.wavelet import dwt2_data, idwt2_data
    p = random_sfm_params(seed=9)
    h = rng(10).standard_normal(FEAT_SHAPE)
    bands = dwt2_data(h)
    recon = idwt2_data(np.stack([w * b for w, b in zip(p["sfm.w"].data, bands)]))
    out = sfm_forward(Tensor(h), p).data
    assert np.max(np.abs(out)) <= np.max(np.abs(recon)) + 1e-12
    assert np.all(np.abs(out) <= np.abs(recon) + 1e-12)


def test_linearity_in_band_weights_for_fixed_gate():
    h = Tensor(rng(11).standard_normal(FEAT_SHAPE))
    p1 = random_sfm_params(seed=12)
    p2 = dict(p1, **{"sfm.w": Tensor(p1["sfm.w"].data * -0.5, requires_grad=True)})
    np.testing.assert_allclose(sfm_forward(h, p2).data, -0.5 * sfm_forward(h, p1).data,
                               atol=1e-12)


def test_forward_rejects_odd_spatial_dims():
    p = random_sfm_params(seed=13)
    with pytest.raises(ValueError, match="odd"):
        sfm_forward(Tensor(np.zeros((2, 3, 5, 4))), p)


def test_forward_rejects_band_weight_mismatch():
    p = random_sfm_params(seed=14, shape=(2, 3, 8, 8))
    with pytest.raises(ValueError, match="sub-band"):
        sfm_forward(Tensor(np.zeros(FEAT_SHAPE)), p)


def test_sfm_gradients_match_finite_differences():
    p = random_sfm_params(seed=15)
    h = Tensor(rng(16).standard_normal(FEAT_SHAPE), requires_grad=True)
    probe = Tensor(rng(17).standard_normal(FEAT_SHAPE))

    def f():
        return total(sigmoid(ew_mul(sfm_forward(h, p), probe)))

    params = dict(p, features=h)
    check_gradients(f, params, h=1e-4, rtol=1e-4)

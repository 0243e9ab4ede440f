"""Spectral conditioning module: weight head and sub-band scaling."""

import numpy as np
import pytest

from waveletcond.msm import chunk_weights, init_msm_params, msm_forward
from waveletcond.tensor import Tensor, ew_mul, sigmoid
from waveletcond.wavelet import dwt2, dwt2_data, idwt2, idwt2_data

from gradcheck import check_gradients
from test_tensor import total

LATENT_SHAPE = (2, 1, 8, 4)  # (frames, channels, width, height)


def rng(seed=0):
    return np.random.default_rng(seed)


def random_msm_params(seed=0, hidden=3):
    r = rng(seed)
    return {
        "msm.w": Tensor(r.standard_normal(LATENT_SHAPE), requires_grad=True),
        "msm.fc1_w": Tensor(r.standard_normal((4, hidden)), requires_grad=True),
        "msm.fc1_b": Tensor(r.standard_normal(hidden), requires_grad=True),
        "msm.fc2_w": Tensor(r.standard_normal((hidden, 4)), requires_grad=True),
        "msm.fc2_b": Tensor(r.standard_normal(4), requires_grad=True),
    }


# -- chunk_weights ------------------------------------------------------------


def test_chunk_weights_at_init_are_ones():
    p = init_msm_params(LATENT_SHAPE)
    z = Tensor(rng(1).standard_normal(LATENT_SHAPE))
    np.testing.assert_allclose(chunk_weights(z, p).data, np.ones(4), atol=1e-15)


def test_chunk_weights_zero_latent_vs_hand_fc():
    p = random_msm_params(seed=2)
    z = Tensor(np.zeros(LATENT_SHAPE))
    got = chunk_weights(z, p).data
    hidden = np.maximum(p["msm.fc1_b"].data, 0.0)  # fc1 @ 0 + b1, through relu
    want = hidden @ p["msm.fc2_w"].data + p["msm.fc2_b"].data
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_chunk_means_vs_per_chunk_summation_oracle():
    p = random_msm_params(seed=3)
    z_data = rng(4).standard_normal(LATENT_SHAPE)
    w_z = p["msm.w"].data * z_data
    means = []
    for i in range(4):
        chunk = w_z[:, :, 2 * i:2 * i + 2, :]
        total, count = 0.0, 0
        for v in chunk.reshape(-1):
            total += v
            count += 1
        means.append(total / count)
    # feed the oracle means through the same fc arithmetic
    hidden = np.maximum(np.asarray(means) @ p["msm.fc1_w"].data + p["msm.fc1_b"].data, 0.0)
    want = hidden @ p["msm.fc2_w"].data + p["msm.fc2_b"].data
    got = chunk_weights(Tensor(z_data), p).data
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_chunk_weights_invariant_to_permutation_within_chunk():
    p = random_msm_params(seed=5)
    z_data = rng(6).standard_normal(LATENT_SHAPE)
    base = chunk_weights(Tensor(z_data), p).data
    # permute the w*z product within chunk 0 by permuting both w and z identically
    perm = rng(7).permutation(2 * 1 * 2 * 4)
    w_perm = p["msm.w"].data.copy()
    z_perm = z_data.copy()
    wc = w_perm[:, :, 0:2, :].reshape(-1)[perm].reshape(2, 1, 2, 4)
    zc = z_perm[:, :, 0:2, :].reshape(-1)[perm].reshape(2, 1, 2, 4)
    w_perm[:, :, 0:2, :] = wc
    z_perm[:, :, 0:2, :] = zc
    p_perm = dict(p, **{"msm.w": Tensor(w_perm)})
    got = chunk_weights(Tensor(z_perm), p_perm).data
    np.testing.assert_allclose(got, base, atol=1e-12)


def test_chunk_weights_rejects_bad_width():
    p = dict(init_msm_params(LATENT_SHAPE),
             **{"msm.w": Tensor(np.ones((2, 1, 6, 4)), requires_grad=True)})
    with pytest.raises(ValueError, match="divisible by 4"):
        chunk_weights(Tensor(np.zeros((2, 1, 6, 4))), p)


def test_chunk_weights_rejects_shape_mismatch():
    p = init_msm_params(LATENT_SHAPE)
    with pytest.raises(ValueError, match="shape"):
        chunk_weights(Tensor(np.zeros((2, 1, 8, 8))), p)


# -- sub-band scaling --------------------------------------------------------------


def weighted_msm(values: Tensor, weights) -> Tensor:
    """msm_forward with zero FC weights and fc2_b = weights: chunk_weights returns them exactly."""
    p = dict(init_msm_params(LATENT_SHAPE), **{"msm.fc2_b": Tensor(weights)})
    return msm_forward(values, Tensor(np.zeros(LATENT_SHAPE)), p)


def test_unit_weights_leave_subbands_unchanged():
    x = Tensor(rng(8).standard_normal((6, 6)))
    out = weighted_msm(x, np.ones(4))
    np.testing.assert_array_equal(out.data, idwt2(dwt2(x)).data)


def test_zero_weights_zero_subbands():
    out = weighted_msm(Tensor(rng(9).standard_normal((4, 4))), np.zeros(4))
    np.testing.assert_array_equal(dwt2_data(out.data), np.zeros((4, 2, 2)))


def test_ll_only_doubling_on_constant_embedding():
    const = Tensor(np.full((4, 8), 1.5))
    out = weighted_msm(const, [2.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(out.data, np.full((4, 8), 3.0), atol=1e-12)


# -- msm_forward -----------------------------------------------------------------


def test_identity_at_initialization():
    p = init_msm_params(LATENT_SHAPE)
    audio = Tensor(rng(10).standard_normal((6, 8)))
    z = Tensor(rng(11).standard_normal(LATENT_SHAPE))
    out = msm_forward(audio, z, p)
    assert np.max(np.abs(out.data - audio.data)) < 1e-9


def test_zeroed_head_gives_zero_output():
    p = dict(init_msm_params(LATENT_SHAPE),
             **{"msm.fc2_b": Tensor(np.zeros(4), requires_grad=True)})
    audio = Tensor(rng(12).standard_normal((4, 8)))
    out = msm_forward(audio, Tensor(rng(13).standard_normal(LATENT_SHAPE)), p)
    np.testing.assert_allclose(out.data, np.zeros((4, 8)), atol=1e-12)


def test_forward_vs_stage_composition_oracle():
    # fixed weights [2,3,5,7] through an independent composition of the stages
    vals = rng(14).standard_normal((6, 10))
    weights = np.array([2.0, 3.0, 5.0, 7.0])
    bands = dwt2_data(vals)
    want = idwt2_data(np.stack([w * b for w, b in zip(weights, bands)]))
    got = weighted_msm(Tensor(vals), weights)
    assert np.max(np.abs(got.data - want)) < 1e-10


def test_homogeneity_in_weights():
    vals = Tensor(rng(15).standard_normal((4, 8)))
    w = Tensor(np.array([0.3, -1.2, 0.9, 2.0]))
    base = weighted_msm(vals, w.data).data
    scaled = weighted_msm(vals, 2.5 * w.data).data
    np.testing.assert_allclose(scaled, 2.5 * base, atol=1e-10)


def test_msm_gradients_match_finite_differences():
    p = random_msm_params(seed=16)
    audio_vals = Tensor(rng(17).standard_normal((4, 8)), requires_grad=True)
    z = Tensor(rng(18).standard_normal(LATENT_SHAPE))
    probe = Tensor(rng(19).standard_normal((4, 8)))

    def f():
        out = msm_forward(audio_vals, z, p)
        return total(sigmoid(ew_mul(out, probe)))

    params = dict(p, audio=audio_vals)
    check_gradients(f, params, h=1e-4, rtol=1e-4)


# -- embedding validation -----------------------------------------------------------


def test_audio_embedding_rejects_odd_dims():
    p = init_msm_params(LATENT_SHAPE)
    for shape in ((3, 8), (4, 7)):
        with pytest.raises(ValueError, match="odd"):
            msm_forward(Tensor(np.zeros(shape)), Tensor(np.zeros(LATENT_SHAPE)), p)


def test_audio_embedding_rejects_rank_3():
    # dwt2 would carry the leading axis through; msm_forward takes one (d_a, l) embedding
    with pytest.raises(ValueError, match="2-D"):
        msm_forward(Tensor(np.zeros((2, 4, 8))), Tensor(np.zeros(LATENT_SHAPE)),
                    init_msm_params(LATENT_SHAPE))


# -- input checks ----------------------------------------------------------------------


@pytest.mark.parametrize("call, message", [
    (lambda: init_msm_params((8, 4)), "init_msm_params: latent shape must be 4-D, got (8, 4)"),
    (lambda: init_msm_params((2, 1, 6, 4)), "init_msm_params: latent width 6 not divisible by 4"),
    (lambda: chunk_weights(Tensor(np.zeros((1, 8, 4))), init_msm_params(LATENT_SHAPE)),
     "chunk_weights: latent must be 4-D (f,c,w,h), got (1, 8, 4)"),
], ids=["init_rank", "init_width", "chunk_weights_rank"])
def test_input_checks_raise_value_error_naming_the_fault(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message

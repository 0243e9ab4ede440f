"""Metric oracles: PSNR, windowed SSIM, landmark distance, diversity, beat alignment."""

import csv
import math
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from waveletcond.metrics import (
    BeatTrack,
    LandmarkSequence,
    TABLE1_COLUMNS,
    aggregate_rows,
    bas,
    bas_from_beats,
    diversity,
    evaluate_clip,
    _window_matrix,
    gaussian_taps,
    json_safe,
    lmd,
    load_beats,
    load_landmarks_csv,
    motion_beat_frames,
    psnr,
    save_beats,
    save_landmarks_csv,
    ssim,
)


def rng(seed=0):
    return np.random.default_rng(seed)


# -- PSNR ---------------------------------------------------------------------


def test_psnr_identical_is_infinite_sentinel():
    a = rng(1).standard_normal((8, 8))
    assert psnr(a, a) == math.inf


def test_psnr_known_mse():
    a = np.zeros((10, 10))
    b = np.full((10, 10), 0.1)  # MSE = 0.01
    assert abs(psnr(a, b, peak=1.0) - 20.0) < 1e-9


def test_psnr_peak255_mse_peak_squared_is_zero_db():
    a = np.zeros((4, 4))
    b = np.full((4, 4), 255.0)  # MSE = 255^2
    assert abs(psnr(a, b, peak=255.0) - 0.0) < 1e-12


def test_psnr_symmetric():
    a, b = rng(2).standard_normal((6, 6)), rng(3).standard_normal((6, 6))
    assert psnr(a, b) == psnr(b, a)


def test_psnr_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        psnr(np.zeros((2, 2)), np.zeros((3, 3)))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_psnr_rejects_a_non_finite_value_in_either_frame(value):
    bad = np.zeros((4, 4))
    bad[1, 2] = value
    for pair in ((bad, np.zeros((4, 4))), (np.zeros((4, 4)), bad)):
        with pytest.raises(ValueError, match="psnr: a frame holds a non-finite value"):
            psnr(*pair)


def test_psnr_of_finite_frames_whose_squared_error_overflows_raises_overflow():
    with np.errstate(over="ignore"), pytest.raises(OverflowError, match="psnr: the squared"):
        psnr(np.full((4, 4), 1e300), np.zeros((4, 4)))


# -- SSIM ---------------------------------------------------------------------


def gaussian_window(size=11, sigma=1.5):
    """The normalised 2-D Gaussian window, built directly from its definition."""
    ax = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(ax ** 2) / (2.0 * sigma ** 2))
    w = np.outer(g, g)
    return w / w.sum()


def naive_ssim(a, b, peak=1.0, size=11, sigma=1.5, k1=0.01, k2=0.03):
    """Per-window double loop, independent of the vectorized implementation."""
    w = gaussian_window(size, sigma)
    c1, c2 = (k1 * peak) ** 2, (k2 * peak) ** 2
    vals = []
    for i in range(a.shape[0] - size + 1):
        for j in range(a.shape[1] - size + 1):
            pa = a[i:i + size, j:j + size]
            pb = b[i:i + size, j:j + size]
            mu_a = np.sum(w * pa)
            mu_b = np.sum(w * pb)
            var_a = np.sum(w * (pa - mu_a) ** 2)
            var_b = np.sum(w * (pb - mu_b) ** 2)
            cov = np.sum(w * (pa - mu_a) * (pb - mu_b))
            num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
            den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
            vals.append(num / den)
    return float(np.mean(vals))


def test_ssim_identical_images_is_one():
    a = rng(4).standard_normal((16, 16))
    assert abs(ssim(a, a) - 1.0) < 1e-9


def test_ssim_constant_images_closed_form():
    mu, c, peak = 0.4, 0.2, 1.0
    a = np.full((12, 12), mu)
    b = np.full((12, 12), mu + c)
    c1 = (0.01 * peak) ** 2
    want = (2 * mu * (mu + c) + c1) / (mu ** 2 + (mu + c) ** 2 + c1)
    assert abs(ssim(a, b, peak=peak) - want) < 1e-12


def test_ssim_vs_naive_window_oracle():
    for seed in range(5):
        r = rng(seed)
        a = r.random((14, 15))
        b = np.clip(a + 0.1 * r.standard_normal((14, 15)), 0, 1)
        assert abs(ssim(a, b) - naive_ssim(a, b)) < 1e-9


def test_ssim_symmetric():
    r = rng(9)
    a, b = r.random((13, 13)), r.random((13, 13))
    assert abs(ssim(a, b) - ssim(b, a)) < 1e-12


def test_ssim_rejects_small_images():
    with pytest.raises(ValueError, match="smaller than window"):
        ssim(np.zeros((8, 8)), np.zeros((8, 8)))


@pytest.mark.parametrize("metric", [psnr, ssim])
@pytest.mark.parametrize("peak", [-1.0, 0.0, math.nan, math.inf])
def test_psnr_and_ssim_reject_peak_not_finite_and_positive(metric, peak):
    # ssim used to read peak=-1 as 1 (only its square enters), return nan for
    # nan, and stop on a RuntimeWarning for inf
    a = rng(10).random((12, 12))
    with pytest.raises(ValueError, match="peak must be finite and positive"):
        metric(a, 0.5 * a, peak=peak)


def test_ssim_window_normalized():
    w = gaussian_window()
    assert w.shape == (11, 11)
    assert abs(w.sum() - 1.0) < 1e-12


def _einsum_ssim(a, b, peak, size=11, sigma=1.5, k1=0.01, k2=0.03):
    """SSIM from five einsums over the sliding-window view, the formula before separability."""
    w = gaussian_window(size, sigma)
    wa = np.lib.stride_tricks.sliding_window_view(a, (size, size))
    wb = np.lib.stride_tricks.sliding_window_view(b, (size, size))
    mu_a = np.einsum("ijuv,uv->ij", wa, w)
    mu_b = np.einsum("ijuv,uv->ij", wb, w)
    var_a = np.einsum("ijuv,uv->ij", wa * wa, w) - mu_a ** 2
    var_b = np.einsum("ijuv,uv->ij", wb * wb, w) - mu_b ** 2
    cov = np.einsum("ijuv,uv->ij", wa * wb, w) - mu_a * mu_b
    c1, c2 = (k1 * peak) ** 2, (k2 * peak) ** 2
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def test_gaussian_taps_are_window_row_sums_bit_for_bit():
    assert gaussian_taps().tobytes() == gaussian_window().sum(axis=1).tobytes()


def _oracle_window_ssim(a, b, peak, size=11, sigma=1.5, k1=0.01, k2=0.03):
    """The separable formula fed by per-call tap matrices from the 2-D window oracle."""
    taps = gaussian_window(size, sigma).sum(axis=1)
    kh, kw = (np.stack([np.pad(taps, (i, n - size - i)) for i in range(n - size + 1)])
              for n in a.shape)
    mu_a, mu_b, e_aa, e_bb, e_ab = kh @ np.stack([a, b, a * a, b * b, a * b]) @ kw.T
    c1, c2 = (k1 * peak) ** 2, (k2 * peak) ** 2
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * (e_ab - mu_a * mu_b) + c2)
    den = (mu_a ** 2 + mu_b ** 2 + c1) * (e_aa - mu_a ** 2 + e_bb - mu_b ** 2 + c2)
    return float(np.mean(num / den))


def test_ssim_within_1e15_of_window_oracle():
    r = rng(12)
    for shape in [(64, 64), (11, 11), (14, 15), (64, 64)]:
        a = r.random(shape)
        b = np.clip(a + 0.05 * r.standard_normal(shape), 0, 1)
        assert abs(ssim(a, b) - _oracle_window_ssim(a, b, 1.0)) <= 1e-15


def test_window_matrix_built_once_and_read_only():
    k = _window_matrix(64)
    assert _window_matrix(64) is k
    assert k.shape == (54, 64) and not k.flags.writeable
    with pytest.raises(ValueError):
        k[0, 0] = 1.0
    np.testing.assert_array_equal(k[3, 3:14], gaussian_taps())


@pytest.mark.parametrize("shape", [(64, 64), (11, 11), (14, 15)], ids=["64x64", "11x11", "14x15"])
@pytest.mark.parametrize("peak", [1.0, 255.0])
def test_ssim_matches_window_einsum_reference(shape, peak):
    taps = gaussian_taps()
    assert taps.shape == (11,)
    np.testing.assert_allclose(np.outer(taps, taps), gaussian_window(), rtol=0, atol=1e-15)
    r = rng(10)
    for _ in range(3):
        a = peak * r.random(shape)
        b = np.clip(a + 0.1 * peak * r.standard_normal(shape), 0, peak)
        assert abs(ssim(a, b, peak=peak) - _einsum_ssim(a, b, peak)) < 1e-12


# -- LMD ----------------------------------------------------------------------


def seq(frames):
    return LandmarkSequence(np.asarray(frames, dtype=float))


def test_lmd_identical_is_zero():
    f = rng(5).standard_normal((4, 6, 2))
    assert lmd(seq(f), seq(f)) == 0.0


def test_lmd_three_four_five_shift():
    f = rng(6).standard_normal((3, 5, 2))
    shifted = f + np.array([3.0, 4.0])
    assert abs(lmd(seq(f), seq(shifted)) - 5.0) < 1e-9


def test_lmd_two_frame_hand_computation():
    a = np.array([[[0.0, 0.0], [1.0, 1.0]],
                  [[2.0, 0.0], [0.0, 3.0]]])
    b = np.array([[[1.0, 0.0], [1.0, 3.0]],
                  [[2.0, 4.0], [4.0, 0.0]]])
    want = (1.0 + 2.0 + 4.0 + 5.0) / 4.0
    assert abs(lmd(seq(a), seq(b)) - want) < 1e-12


def test_lmd_respects_mouth_subset():
    a = np.zeros((2, 4, 2))
    b = np.zeros((2, 4, 2))
    b[:, 3, :] = [3.0, 4.0]  # only point 3 differs
    assert lmd(seq(a), seq(b), mouth=[0, 1]) == 0.0
    assert abs(lmd(seq(a), seq(b), mouth=[3]) - 5.0) < 1e-12


def test_lmd_symmetric():
    a = rng(7).standard_normal((3, 4, 2))
    b = rng(8).standard_normal((3, 4, 2))
    assert lmd(seq(a), seq(b)) == lmd(seq(b), seq(a))


def test_lmd_rejects_mismatches():
    with pytest.raises(ValueError, match="frame counts"):
        lmd(seq(np.zeros((2, 3, 2))), seq(np.zeros((3, 3, 2))))
    with pytest.raises(ValueError, match="point counts"):
        lmd(seq(np.zeros((2, 3, 2))), seq(np.zeros((2, 4, 2))))


@pytest.mark.parametrize("mouth", [[], [3], [-1], [0, 5]])
def test_lmd_rejects_empty_or_out_of_range_mouth(mouth):
    # an empty set used to give NaN with "Mean of empty slice"
    a = seq(np.zeros((2, 3, 2)))
    with pytest.raises(ValueError, match=r"mouth indices .*\[0, 3\)"):
        lmd(a, a, mouth=mouth)


@pytest.mark.parametrize("cell", [math.nan, math.inf, -math.inf])
def test_landmark_sequence_rejects_non_finite_coordinates(cell):
    frames = np.zeros((3, 2, 2))
    frames[1, 0, 1] = cell
    with pytest.raises(ValueError, match="finite"):
        LandmarkSequence(frames)


# -- diversity -------------------------------------------------------------------


def test_diversity_constant_sequence_is_zero():
    assert diversity(seq(np.ones((5, 3, 2)))) == 0.0


def test_diversity_alternating_point():
    frames = np.zeros((4, 1, 2))
    frames[:, 0, 0] = [-1.0, 1.0, -1.0, 1.0]  # x alternates, y constant
    assert abs(diversity(seq(frames)) - 0.5) < 1e-12


def test_diversity_vs_two_pass_oracle():
    f = rng(10).standard_normal((6, 4, 2))
    stds = []
    for p in range(4):
        for c in range(2):
            vals = f[:, p, c]
            mean = sum(vals) / len(vals)
            var = sum((v - mean) ** 2 for v in vals) / len(vals)
            stds.append(math.sqrt(var))
    want = sum(stds) / len(stds)
    assert abs(diversity(seq(f)) - want) < 1e-12


def test_diversity_invariant_to_frame_reordering():
    f = rng(11).standard_normal((8, 3, 2))
    perm = rng(12).permutation(8)
    assert abs(diversity(seq(f)) - diversity(seq(f[perm]))) < 1e-12


def test_diversity_needs_two_frames():
    with pytest.raises(ValueError, match="2 frames"):
        diversity(seq(np.zeros((1, 3, 2))))


# -- beat alignment -----------------------------------------------------------------


def walk_with_displacements(disp):
    """Single landmark whose per-step displacement magnitudes are `disp`."""
    x = np.concatenate([[0.0], np.cumsum(disp)])
    frames = np.zeros((len(x), 1, 2))
    frames[:, 0, 0] = x
    return frames


def test_motion_beats_at_displacement_minima():
    motion = seq(walk_with_displacements([2.0, 1.0, 2.0, 1.0, 2.0]))
    assert motion_beat_frames(motion) == [2, 4]


def test_motion_beats_plateau_earliest_frame():
    motion = seq(walk_with_displacements([3.0, 1.0, 1.0, 1.0, 3.0, 2.0, 3.0]))
    assert motion_beat_frames(motion) == [2, 6]


def test_motion_beats_endpoints_excluded():
    motion = seq(walk_with_displacements([1.0, 2.0, 3.0]))
    assert motion_beat_frames(motion) == []


def test_bas_exact_alignment_is_one():
    fps = 10.0
    motion = seq(walk_with_displacements([2.0, 1.0, 2.0, 1.0, 2.0]))
    beats = BeatTrack(np.array([2 / fps, 4 / fps]))
    assert abs(bas(beats, motion, fps) - 1.0) < 1e-12


def test_bas_single_offset_formula():
    fps = 25.0
    sigma = 3.0 / fps
    motion = seq(walk_with_displacements([2.0, 1.0, 2.0]))  # sole beat at frame 2
    delta = 0.05
    beats = BeatTrack(np.array([2 / fps + delta]))
    want = math.exp(-(delta ** 2) / (2 * sigma ** 2))
    assert abs(bas(beats, motion, fps) - want) < 1e-12


def test_bas_three_beats_vs_brute_force_oracle():
    audio = np.array([0.11, 0.52, 0.93])
    motion_times = np.array([0.1, 0.5, 0.7, 1.0])
    sigma = 0.12
    total = 0.0
    for t_a in audio:
        best = min(abs(t_a - t_m) for t_m in motion_times)
        total += math.exp(-(best ** 2) / (2 * sigma ** 2))
    want = total / len(audio)
    assert abs(bas_from_beats(audio, motion_times, sigma) - want) < 1e-12


def test_bas_translation_invariance():
    audio = np.array([0.3, 0.9, 1.4])
    motion_times = np.array([0.25, 1.0, 1.5])
    sigma = 0.2
    base = bas_from_beats(audio, motion_times, sigma)
    shifted = bas_from_beats(audio + 5.0, motion_times + 5.0, sigma)
    assert abs(base - shifted) < 1e-12


def test_bas_no_motion_beats_scores_zero():
    # filterwarnings = error also makes this a check that no warning is raised
    motion = seq(walk_with_displacements([1.0, 2.0]))
    beats = BeatTrack(np.array([0.1]))
    assert bas(beats, motion, fps=25.0) == 0.0


@pytest.mark.parametrize("disp", [[1.0, 2.0], [2.0, 1.0, 2.0]], ids=["beatless", "one_beat"])
def test_bas_empty_beat_track_is_an_error_whatever_the_motion(disp):
    with pytest.raises(ValueError, match="need at least one audio beat"):
        bas(BeatTrack(np.array([])), seq(walk_with_displacements(disp)), fps=25.0)


def test_bas_requires_audio_beats():
    with pytest.raises(ValueError, match="audio beat"):
        bas_from_beats(np.array([]), np.array([0.1]), 0.1)


def test_beat_track_validation():
    with pytest.raises(ValueError, match="increasing"):
        BeatTrack(np.array([0.2, 0.1]))
    with pytest.raises(ValueError, match="non-negative"):
        BeatTrack(np.array([-0.5, 0.1]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_beat_track_rejects_non_finite_timestamps(bad):
    # NaN fails no ordering comparison, so it used to pass and turn BAS into NaN
    with pytest.raises(ValueError, match="finite"):
        BeatTrack(np.array([0.08, bad]))


@pytest.mark.parametrize("fps", [0.0, -25.0, math.inf, math.nan])
def test_bas_rejects_bad_fps(fps):
    motion = seq(walk_with_displacements([2.0, 1.0, 2.0]))
    with pytest.raises(ValueError, match=f"bas: fps must be finite and positive, got {fps}"):
        bas(BeatTrack(np.array([0.08])), motion, fps)


# -- file formats ----------------------------------------------------------------------


def test_landmark_csv_roundtrip(tmp_path):
    frames = rng(13).standard_normal((4, 3, 2))
    path = tmp_path / "lm.csv"
    save_landmarks_csv(path, frames)
    header = path.read_text().splitlines()[0]
    assert header == "frame,x0,y0,x1,y1,x2,y2"
    back = load_landmarks_csv(path)
    np.testing.assert_array_equal(back, frames)


def test_landmark_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("frame,x0\n0,1.0\n")
    with pytest.raises(ValueError, match="header"):
        load_landmarks_csv(path)


def csv_oracle(path):
    """Independent reader: `csv.reader` rows, one Python `float` per cell."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    k = (len(rows[0]) - 1) // 2
    assert all(len(row) == 1 + 2 * k for row in rows[1:])
    return np.asarray([[float(v) for v in row[1:]] for row in rows[1:]],
                      dtype=np.float64).reshape(len(rows) - 1, k, 2)


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308,
           1.7976931348623157e308, math.nan, math.inf, -math.inf, 0.1, -1 / 3]


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=3, max_dims=3, min_side=0, max_side=6)
                  .map(lambda s: s[:2] + (2,)),
                  elements=st.one_of(st.floats(width=64), st.sampled_from(SPECIAL))))
@example(np.asarray(SPECIAL + [1.0]).reshape(1, 7, 2))
def test_landmark_csv_loader_matches_oracle_bytes(frames):
    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/lm.csv"
        save_landmarks_csv(path, frames)
        got, want = load_landmarks_csv(path), csv_oracle(path)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape == frames.shape
    assert got.tobytes() == want.tobytes()


def test_landmark_csv_header_only_is_empty(tmp_path):
    path = tmp_path / "lm.csv"
    save_landmarks_csv(path, np.zeros((0, 3, 2)))
    assert load_landmarks_csv(path).shape == (0, 3, 2)


@pytest.mark.parametrize("body, match", [
    ("frame,x0,y0\n0,1.0,2.0\n1,1.0\n", r"lm\.csv:3: expected 3 columns, got 2"),
    ("frame,x0,y0\n0,1.0,2.0\n1,1.0,2.0,3.0\n", r"lm\.csv:3: expected 3 columns, got 4"),
    ("frame,x0,y0\n0,1.0,abc\n", r"lm\.csv: could not convert string 'abc'"),
    ("frame,x0,y0\n0,1.0,2.0\n\n1,1.0,2.0\n", r"lm\.csv:3: expected 3 columns, got 1"),
    ("frame,x0,y0\n0,1.0,#2.0\n", r"lm\.csv: could not convert string '#2.0'"),
    ('frame,x0,y0\n0,"1.0",2.0\n', r"lm\.csv: could not convert string '\"1.0\"'"),
    ("", r"lm\.csv: empty landmark file"),
], ids=["short_row", "long_row", "non_numeric", "blank_line", "hash_cell", "quoted_cell", "empty"])
def test_landmark_csv_rejects_bad_body(tmp_path, body, match):
    path = tmp_path / "lm.csv"
    path.write_text(body)
    with pytest.raises(ValueError, match=match):
        load_landmarks_csv(path)


def test_beats_roundtrip(tmp_path):
    times = np.array([0.0, 0.4, 1.25])
    path = tmp_path / "beats.txt"
    save_beats(path, times)
    back = load_beats(path)
    np.testing.assert_array_equal(back.timestamps, times)


def test_beats_rejects_garbage(tmp_path):
    path = tmp_path / "beats.txt"
    path.write_text("0.5\nnope\n")
    with pytest.raises(ValueError, match="not a float"):
        load_beats(path)


# -- clip evaluation ---------------------------------------------------------------------


def test_evaluate_clip_and_aggregate():
    r = rng(14)
    gt = r.random((3, 1, 16, 16))
    pred = np.clip(gt + 0.05 * r.standard_normal(gt.shape), 0, 1)
    lm_gt = walk_with_displacements([2.0, 1.0, 2.0, 1.0, 2.0])
    lm_pred = lm_gt + 0.5
    row = evaluate_clip(pred, gt, lm_pred, lm_gt, BeatTrack(np.array([0.08])), fps=25.0)
    assert set(row) == set(TABLE1_COLUMNS)
    assert 0 < row["SSIM"] <= 1 and row["PSNR"] > 10
    assert abs(row["LMD"] - 0.5 * math.sqrt(2)) < 1e-9
    assert row["CPBD"] == "n/a" and row["FVD"] == "n/a"
    assert row["LSE-D"] == "n/a" and row["LSE-C"] == "n/a"
    agg = aggregate_rows([row, row])
    assert agg["clips"] == 2
    assert abs(agg["SSIM"] - row["SSIM"]) < 1e-15
    assert agg["FVD"] == "n/a"


def test_evaluate_clip_raises_overflow_when_ssim_overflows_on_finite_frames():
    # equal frames give PSNR inf, but their 1e155 pixel squares past the largest float
    frames = np.zeros((2, 16, 16))
    frames[1, 5, 7] = 1e155
    lm = walk_with_displacements([2.0])
    with np.errstate(all="ignore"), pytest.raises(OverflowError, match="ssim"):
        evaluate_clip(frames, frames.copy(), lm, lm, BeatTrack(np.array([0.04])), fps=25.0)


def test_json_safe_maps_infinities():
    out = json_safe({"PSNR": math.inf, "rows": [{"x": -math.inf}], "ok": 1.5})
    assert out == {"PSNR": "inf", "rows": [{"x": "-inf"}], "ok": 1.5}


def test_load_beats_skips_blank_lines(tmp_path):
    path = tmp_path / "beats.txt"
    path.write_text("\n0.1\n\n  \n0.3\n\n")
    np.testing.assert_array_equal(load_beats(path).timestamps, [0.1, 0.3])


# -- input checks ----------------------------------------------------------------------


@pytest.mark.parametrize("call, message", [
    (lambda d: ssim(np.zeros((11, 11)), np.zeros((11, 12))),
     "ssim: shape mismatch (11, 11) vs (11, 12)"),
    (lambda d: ssim(np.zeros((2, 11, 11)), np.zeros((2, 11, 11))),
     "ssim: expected 2-D images, got shape (2, 11, 11)"),
    (lambda d: LandmarkSequence(np.zeros((3, 2))),
     "LandmarkSequence: expected (n, k, 2), got (3, 2)"),
    (lambda d: BeatTrack(np.zeros((2, 2))), "BeatTrack: expected 1-D timestamps, got (2, 2)"),
    (lambda d: bas_from_beats([0.1], [0.1], 0.0), "bas: sigma must be positive, got 0.0"),
    (lambda d: save_landmarks_csv(d / "lm.csv", np.zeros((3, 2, 3))),
     "save_landmarks_csv: expected (n, k, 2), got (3, 2, 3)"),
], ids=["ssim_shapes", "ssim_rank", "landmarks_shape", "beats_rank", "bas_sigma",
        "save_landmarks_shape"])
def test_input_checks_raise_value_error_naming_the_fault(tmp_path, call, message):
    with pytest.raises(ValueError) as exc:
        call(tmp_path)
    assert str(exc.value) == message
    assert list(tmp_path.iterdir()) == []

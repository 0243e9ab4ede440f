"""Command-line surface: every subcommand, exit codes, byte determinism."""

import json

import numpy as np
import pytest

from waveletcond import sgtf
from waveletcond.cli import main, parse_index_spec
from waveletcond.datakit import ClipRecord, SourceMeta, write_manifest, write_sources
from waveletcond.diffusion import TrainConfig, init_model_params
from waveletcond.metrics import save_beats, save_landmarks_csv
from waveletcond.msm import init_msm_params
from waveletcond.sfm import init_sfm_params
from waveletcond.tensor import Tensor
from waveletcond.training import parse_config_text
from waveletcond.wavelet import dwt2_data, idwt2_data


def rng(seed=0):
    return np.random.default_rng(seed)


def dyadic(x, scale=1024.0):
    """Snap to multiples of 1/scale so Haar round trips are bit-exact."""
    return np.round(x * scale) / scale


TINY_CONFIG = """\
frames=2
height=8
width=8
base_channels=4
h_msm=4
d_audio=4
samples_per_frame=4
timesteps=5
steps=6
n_clips=3
seed=5
log_every=5
"""


# -- wavelet commands ---------------------------------------------------------------


def test_dwt_idwt_roundtrip_byte_exact(tmp_path):
    x = dyadic(rng(1).standard_normal((4, 8, 8)))
    src = tmp_path / "x.sgtf"
    sgtf.write_tensor(src, x)
    assert main(["dwt", str(src), str(tmp_path / "bands")]) == 0
    for band in ("ll", "lh", "hl", "hh"):
        assert (tmp_path / f"bands.{band}.sgtf").exists()
    out = tmp_path / "back.sgtf"
    assert main(["idwt", str(tmp_path / "bands"), str(out)]) == 0
    assert out.read_bytes() == src.read_bytes()


def test_dwt_bands_match_library(tmp_path):
    x = rng(2).standard_normal((6, 6))
    sgtf.write_tensor(tmp_path / "x.sgtf", x)
    main(["dwt", str(tmp_path / "x.sgtf"), str(tmp_path / "b")])
    want = dwt2_data(x)
    for name, w in zip(("ll", "lh", "hl", "hh"), want):
        got = sgtf.read_tensor(tmp_path / f"b.{name}.sgtf")
        assert np.array_equal(got, w)


def test_dwt_odd_input_exits_2(tmp_path, capsys):
    sgtf.write_tensor(tmp_path / "x.sgtf", np.zeros((5, 5)))
    assert main(["dwt", str(tmp_path / "x.sgtf"), str(tmp_path / "b")]) == 2
    assert "odd" in capsys.readouterr().err


@pytest.mark.parametrize("shapes", [
    [(2, 2), (2, 3), (2, 2), (2, 2)],  # bands of different shapes
    [(3,)] * 4,                        # 1-D bands: no rows to interleave
], ids=["mismatched", "rank1"])
def test_idwt_bad_bands_exit_2(tmp_path, capsys, shapes):
    for name, shape in zip(("ll", "lh", "hl", "hh"), shapes):
        sgtf.write_tensor(tmp_path / f"b.{name}.sgtf", np.zeros(shape))
    assert main(["idwt", str(tmp_path / "b"), str(tmp_path / "x.sgtf")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "x.sgtf").exists()


def test_dwt_truncated_header_exits_2(tmp_path, capsys):
    # rank 3 with no dims after it
    (tmp_path / "x.sgtf").write_bytes(b"SGTF\x01\x00\x03\x00\x00\x00")
    assert main(["dwt", str(tmp_path / "x.sgtf"), str(tmp_path / "b")]) == 2
    assert "truncated header" in capsys.readouterr().err


def test_missing_input_exits_2(tmp_path, capsys):
    assert main(["dwt", str(tmp_path / "absent.sgtf"), str(tmp_path / "b")]) == 2


# -- module application ----------------------------------------------------------------


def test_msm_apply_identity_at_init(tmp_path):
    latent_shape = (2, 1, 8, 8)
    params = init_msm_params(latent_shape, hidden=4).named()
    sgtf.save_params(tmp_path / "p", params)
    audio = rng(3).standard_normal((4, 8))
    latent = rng(4).standard_normal(latent_shape)
    sgtf.write_tensor(tmp_path / "a.sgtf", audio)
    sgtf.write_tensor(tmp_path / "z.sgtf", latent)
    out = tmp_path / "s.sgtf"
    assert main(["msm-apply", "--audio", str(tmp_path / "a.sgtf"),
                 "--latent", str(tmp_path / "z.sgtf"),
                 "--params", str(tmp_path / "p"), "--out", str(out)]) == 0
    got = sgtf.read_tensor(out)
    assert np.max(np.abs(got - audio)) < 1e-9


def test_sfm_apply_halves_at_init(tmp_path):
    shape = (2, 3, 4, 4)
    sgtf.save_params(tmp_path / "p", init_sfm_params(shape).named())
    feats = rng(5).standard_normal(shape)
    sgtf.write_tensor(tmp_path / "h.sgtf", feats)
    out = tmp_path / "out.sgtf"
    assert main(["sfm-apply", "--features", str(tmp_path / "h.sgtf"),
                 "--params", str(tmp_path / "p"), "--out", str(out)]) == 0
    assert np.max(np.abs(sgtf.read_tensor(out) - 0.5 * feats)) < 1e-9


@pytest.mark.parametrize("manifest", ["[1, 2]", '{"format": "sgtf-params", "tensors": 5}'])
def test_sfm_apply_bad_manifest_shape_exits_2(tmp_path, capsys, manifest):
    (tmp_path / "p").mkdir()
    (tmp_path / "p" / "manifest.json").write_text(manifest)
    sgtf.write_tensor(tmp_path / "h.sgtf", np.zeros((2, 3, 4, 4)))
    assert main(["sfm-apply", "--features", str(tmp_path / "h.sgtf"),
                 "--params", str(tmp_path / "p"), "--out", str(tmp_path / "out.sgtf")]) == 2
    assert "error:" in capsys.readouterr().err


# -- training / sampling -----------------------------------------------------------------


def test_train_toy_and_sample(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(TINY_CONFIG)
    run = tmp_path / "run"
    assert main(["train-toy", "--config", str(cfg_path), "--out", str(run)]) == 0
    assert (run / "params" / "manifest.json").exists()
    assert (run / "config.txt").exists()
    lines = (run / "losses.csv").read_text().splitlines()
    assert lines[0] == "step,loss" and len(lines) == 7

    cfg = TrainConfig(frames=2, height=8, width=8, base_channels=4, h_msm=4, d_audio=4,
                      samples_per_frame=4, timesteps=5)
    audio = rng(6).standard_normal(cfg.frames * cfg.samples_per_frame)
    ref = rng(7).standard_normal((1, 8, 8))
    sgtf.write_tensor(tmp_path / "a.sgtf", audio)
    sgtf.write_tensor(tmp_path / "r.sgtf", ref)
    out = tmp_path / "clip.sgtf"
    assert main(["sample", "--params", str(run), "--audio", str(tmp_path / "a.sgtf"),
                 "--ref", str(tmp_path / "r.sgtf"), "--seed", "3", "--out", str(out)]) == 0
    clip = sgtf.read_tensor(out)
    assert clip.shape == (2, 1, 8, 8)
    assert np.all(np.isfinite(clip))
    # same seed reproduces the clip bit-exactly
    out2 = tmp_path / "clip2.sgtf"
    main(["sample", "--params", str(run), "--audio", str(tmp_path / "a.sgtf"),
          "--ref", str(tmp_path / "r.sgtf"), "--seed", "3", "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def test_sample_on_per_band_sfm_params_exits_2(tmp_path, capsys):
    # a run directory saved with the four per-band SFM weights, sfm.w_ll ... sfm.w_hh
    run = tmp_path / "run"
    run.mkdir()
    (run / "config.txt").write_text(TINY_CONFIG)
    params = init_model_params(parse_config_text(TINY_CONFIG))
    stacked = params.pop("sfm.w")
    for name, band in zip(("ll", "lh", "hl", "hh"), stacked.data):
        params[f"sfm.w_{name}"] = Tensor(band)
    sgtf.save_params(run / "params", params)
    sgtf.write_tensor(tmp_path / "a.sgtf", np.zeros(8))
    sgtf.write_tensor(tmp_path / "r.sgtf", np.zeros((1, 8, 8)))
    assert main(["sample", "--params", str(run), "--audio", str(tmp_path / "a.sgtf"),
                 "--ref", str(tmp_path / "r.sgtf"), "--out", str(tmp_path / "c.sgtf")]) == 2
    assert "sfm.w" in capsys.readouterr().err


def test_train_toy_unknown_config_key_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text("stepz=3\n")
    assert main(["train-toy", "--config", str(cfg_path), "--out", str(tmp_path / "r")]) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train-toy", "ablate"])
@pytest.mark.parametrize("line", ["steps=0", "log_every=0", "channels=0", "base_channels=0",
                                  "samples_per_frame=0"])
def test_nonpositive_size_exits_2(tmp_path, capsys, command, line):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(TINY_CONFIG + line + "\n")
    argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert f"{line.split('=')[0]} must be >= 1" in capsys.readouterr().err


def test_ablate_byte_identical_reports(tmp_path):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(TINY_CONFIG)
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["ablate", "--config", str(cfg_path), "--out", str(r1)]) == 0
    assert main(["ablate", "--config", str(cfg_path), "--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    report = json.loads(r1.read_text())
    assert [row["method"] for row in report["rows"]] == \
        ["w/o MSM", "w/o SFM", "w/o both", "full"]


# -- metrics ------------------------------------------------------------------------------


def build_metrics_tree(tmp_path, n_clips=2):
    records = []
    gt, pred = tmp_path / "gt", tmp_path / "pred"
    r = rng(8)
    for i in range(n_clips):
        rec = ClipRecord(source_id=f"s{i}", start_frame=0, end_frame=50,
                         landmark_path=f"s{i}/lm.csv", beats_path=f"s{i}/beats.txt",
                         frames_path=f"s{i}/clip.sgtf")
        records.append(rec)
        for root in (gt, pred):
            (root / f"s{i}").mkdir(parents=True, exist_ok=True)
        frames = r.random((3, 1, 16, 16))
        noisy = np.clip(frames + 0.05 * r.standard_normal(frames.shape), 0, 1)
        sgtf.write_tensor(gt / rec.frames_path, frames)
        sgtf.write_tensor(pred / rec.frames_path, noisy)
        lm = np.zeros((6, 2, 2))
        lm[:, 0, 0] = np.cumsum([0, 2, 1, 2, 1, 2])  # beats at frames 2 and 4
        save_landmarks_csv(gt / rec.landmark_path, lm)
        save_landmarks_csv(pred / rec.landmark_path, lm + 0.25)
        save_beats(gt / rec.beats_path, [2 / 25.0, 4 / 25.0])
    manifest = tmp_path / "m.jsonl"
    write_manifest(manifest, records)
    return manifest, pred, gt


def test_metrics_report(tmp_path):
    manifest, pred, gt = build_metrics_tree(tmp_path)
    report_path = tmp_path / "report.json"
    assert main(["metrics", "--pred", str(pred), "--gt", str(gt),
                 "--manifest", str(manifest), "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    agg = report["aggregate"]
    assert agg["clips"] == 2
    assert agg["CPBD"] == "n/a" and agg["FVD"] == "n/a"
    assert agg["LSE-D"] == "n/a" and agg["LSE-C"] == "n/a"
    assert 0 < agg["SSIM"] <= 1
    assert abs(agg["BAS"] - 1.0) < 1e-9          # beats aligned by construction
    assert abs(agg["LMD"] - 0.25 * np.sqrt(2)) < 1e-9
    assert len(report["per_clip"]) == 2


def test_metrics_identical_frames_reports_inf_psnr(tmp_path):
    manifest, pred, gt = build_metrics_tree(tmp_path, n_clips=1)
    # overwrite pred frames with the gt bytes -> MSE 0
    rec_frames = json.loads(manifest.read_text().splitlines()[0])["frames_path"]
    (pred / rec_frames).write_bytes((gt / rec_frames).read_bytes())
    report_path = tmp_path / "report.json"
    assert main(["metrics", "--pred", str(pred), "--gt", str(gt),
                 "--manifest", str(manifest), "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["aggregate"]["PSNR"] == "inf"


def test_metrics_missing_manifest_exits_2(tmp_path):
    assert main(["metrics", "--pred", str(tmp_path), "--gt", str(tmp_path),
                 "--manifest", str(tmp_path / "nope.jsonl"),
                 "--report", str(tmp_path / "r.json")]) == 2


def test_parse_index_spec():
    assert parse_index_spec("48-51") == [48, 49, 50, 51]
    assert parse_index_spec("1,3,5-7") == [1, 3, 5, 6, 7]
    with pytest.raises(ValueError):
        parse_index_spec(",")


# -- manifest commands ----------------------------------------------------------------------


def test_manifest_segment_crop_split(tmp_path):
    sources = [SourceMeta(source_id=f"s{i}", duration_s=6.0, fps=25.0, width=512, height=512,
                          face_bboxes=[(0, (100, 100, 80, 80))]) for i in range(5)]
    src_path = tmp_path / "sources.jsonl"
    write_sources(src_path, sources)

    m1 = tmp_path / "m1.jsonl"
    assert main(["manifest", "segment", "--sources", str(src_path), "--out", str(m1)]) == 0
    lines = m1.read_text().splitlines()
    assert len(lines) == 15  # 3 clips per 6-second source
    first = json.loads(lines[0])
    assert first["crop_box"] == [90, 90, 100, 100]

    m2 = tmp_path / "m2.jsonl"
    assert main(["manifest", "crop", "--sources", str(src_path), "--manifest", str(m1),
                 "--out", str(m2), "--ratio", "1.0"]) == 0
    assert json.loads(m2.read_text().splitlines()[0])["crop_box"] == [100, 100, 80, 80]

    m3 = tmp_path / "m3.jsonl"
    assert main(["--seed", "4", "manifest", "split", "--manifest", str(m2),
                 "--out", str(m3)]) == 0
    splits = [json.loads(line)["split"] for line in m3.read_text().splitlines()]
    assert splits.count("train") == 12 and splits.count("test") == 3
    # determinism under the same seed
    m4 = tmp_path / "m4.jsonl"
    main(["--seed", "4", "manifest", "split", "--manifest", str(m2), "--out", str(m4)])
    assert m3.read_bytes() == m4.read_bytes()


def test_precision_flag_roundtrip(tmp_path):
    x32 = rng(9).standard_normal((4, 4)).astype(np.float32)
    sgtf.write_tensor(tmp_path / "x.sgtf", x32)
    assert main(["dwt", str(tmp_path / "x.sgtf"), str(tmp_path / "b")]) == 0
    band = sgtf.read_tensor(tmp_path / "b.ll.sgtf")
    assert band.dtype == np.float32

"""Command-line surface: every subcommand, exit codes, byte determinism."""

import json

import numpy as np
import pytest

from waveletcond import cli, sgtf
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


def config_with(line):
    """TINY_CONFIG with `line` last, in place of its key's line: a config names a key once."""
    key = line.partition("=")[0]
    kept = [old for old in TINY_CONFIG.splitlines() if old.partition("=")[0] != key]
    return "\n".join([*kept, line]) + "\n"


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


def test_dwt_and_idwt_pass_non_finite_values_through(tmp_path):
    # elementwise transforms: a NaN entry is data, not an input error; it spreads
    # over its own 2x2 block only
    x = rng(3).standard_normal((4, 4))
    x[0, 0] = np.nan
    sgtf.write_tensor(tmp_path / "x.sgtf", x)
    assert main(["dwt", str(tmp_path / "x.sgtf"), str(tmp_path / "b")]) == 0
    assert main(["idwt", str(tmp_path / "b"), str(tmp_path / "y.sgtf")]) == 0
    nan = np.isnan(sgtf.read_tensor(tmp_path / "y.sgtf"))
    assert nan[:2, :2].all() and nan.sum() == 4


@pytest.mark.parametrize("argv", [
    lambda d: ["dwt", put(d / "x.sgtf", np.full((4, 4), 1e308)), str(d / "b")],
    lambda d: idwt_argv(d, np.full((2, 2), 1e308), others=np.full((2, 2), 1e308)),
    lambda d: msm_argv(d, audio=np.full((4, 8), 1e308)),
    lambda d: sfm_argv(d, features=np.full((2, 3, 4, 4), 1e308)),
], ids=["dwt", "idwt", "msm-apply", "sfm-apply"])
def test_overflowed_result_exits_3_and_writes_nothing(tmp_path, capsys, argv):
    # finite inputs whose result overflows: a numeric failure, not an inf or NaN file
    # (and no numpy warning, which pytest's filterwarnings would raise)
    argv = argv(tmp_path)
    inputs = set(tmp_path.rglob("*"))
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numeric failure: {argv[0]}: non-finite result")
    assert "Traceback" not in err
    assert set(tmp_path.rglob("*")) == inputs


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
    params = init_msm_params(latent_shape, hidden=4)
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


def test_msm_apply_reads_the_head_width_from_its_params(tmp_path, capsys):
    # a head trained at h_msm=8 runs, though init_msm_params defaults to 16
    audio = rng(3).standard_normal((4, 8))
    assert main(msm_argv(tmp_path, audio=audio, hidden=8)) == 0, capsys.readouterr().err
    np.testing.assert_allclose(sgtf.read_tensor(tmp_path / "o.sgtf"), audio, atol=1e-9)


def test_sfm_apply_halves_at_init(tmp_path):
    shape = (2, 3, 4, 4)
    sgtf.save_params(tmp_path / "p", init_sfm_params(shape))
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


def test_sample_seed_before_or_after_subcommand_gives_same_clip(tmp_path):
    # `--seed 3 sample` used to parse seed=3 and then sample with the subcommand's default 0
    run = run_dir(tmp_path)
    clips = {}
    for key, prefix, suffix in [("top 3", ["--seed", "3"], []), ("sub 3", [], ["--seed", "3"]),
                                ("default", [], []), ("both", ["--seed", "3"], ["--seed", "5"]),
                                ("sub 5", [], ["--seed", "5"])]:
        argv = sample_argv(tmp_path, run, audio=rng(6).standard_normal(8))
        assert main(prefix + argv[:1] + suffix + argv[1:]) == 0
        clips[key] = (tmp_path / "c.sgtf").read_bytes()
    assert clips["top 3"] == clips["sub 3"]
    assert clips["both"] == clips["sub 5"]
    assert clips["default"] != clips["sub 3"] != clips["sub 5"]


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


def test_train_toy_past_memory_exits_2(tmp_path, capsys):
    # the first array, 4e15 audio samples, lies past the 47-bit address space: its
    # allocation fails at once, and nothing is touched
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(config_with(f"frames={10**15}"))
    assert main(["train-toy", "--config", str(cfg_path), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory:") and "Traceback" not in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command", ["train-toy", "ablate"])
@pytest.mark.parametrize("line", ["steps=0", "log_every=0", "channels=0", "base_channels=0",
                                  "samples_per_frame=0"])
def test_nonpositive_size_exits_2(tmp_path, capsys, command, line):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(config_with(line))
    argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert f"{line.split('=')[0]} must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train-toy", "ablate"])
@pytest.mark.parametrize("line", ["lr=nan", "lr=inf", "amplitude=nan", "amplitude=-inf"])
def test_nonfinite_config_exits_2(tmp_path, capsys, command, line):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(config_with(line))
    argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{line.split('=')[0]} must be" in err and "finite" in err


@pytest.mark.parametrize("command", ["train-toy", "ablate"])
@pytest.mark.parametrize("line", ["h_msm=0", "d_audio=0", "height=0", "width=-4", "n_clips=0"])
def test_nonpositive_size_config_exits_2(tmp_path, capsys, command, line):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(config_with(line))
    argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert f"TrainConfig: {line.split('=')[0]} must be >= 1" in capsys.readouterr().err


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


@pytest.mark.parametrize("shape", [(16,), (0, 16, 16)], ids=["rank1", "zero_frames"])
def test_metrics_hostile_frame_shapes_exit_2(tmp_path, capsys, shape):
    manifest, pred, gt = build_metrics_tree(tmp_path, n_clips=1)
    rec_frames = json.loads(manifest.read_text().splitlines()[0])["frames_path"]
    for root in (pred, gt):
        sgtf.write_tensor(root / rec_frames, np.zeros(shape))
    report_path = tmp_path / "report.json"
    assert main(["metrics", "--pred", str(pred), "--gt", str(gt),
                 "--manifest", str(manifest), "--report", str(report_path)]) == 2
    err = capsys.readouterr().err
    assert str(shape) in err
    assert "Traceback" not in err and "Warning" not in err
    assert not report_path.exists()


def test_parse_index_spec():
    assert parse_index_spec("48-51", 68) == [48, 49, 50, 51]
    assert parse_index_spec("1,3,5-7", 8) == [1, 3, 5, 6, 7]
    with pytest.raises(ValueError):
        parse_index_spec(",", 68)


@pytest.mark.parametrize("spec", ["0-10000000000", "10000000000", "60-68", "68", "7-5", "5-"])
def test_parse_index_spec_rejects_indices_past_count_before_expanding(spec):
    with pytest.raises(ValueError):
        parse_index_spec(spec, 68)


def test_metrics_mouth_indices_past_landmark_count_exit_2(tmp_path, capsys):
    manifest, pred, gt = build_metrics_tree(tmp_path, n_clips=1)
    report_path = tmp_path / "report.json"
    assert main(["metrics", "--pred", str(pred), "--gt", str(gt), "--manifest", str(manifest),
                 "--report", str(report_path), "--mouth-indices", "0-10000000000"]) == 2
    err = capsys.readouterr().err
    assert "[0, 2)" in err and "Traceback" not in err
    assert not report_path.exists()


def _rewrite_record(manifest, **fields):
    rec = json.loads(manifest.read_text())
    rec.update(fields)
    manifest.write_text(json.dumps(rec) + "\n")


@pytest.mark.parametrize("field, where", [
    ("frames_path", "absolute"), ("landmark_path", "absolute"),
    ("beats_path", "parent"), ("frames_path", "parent"),
])
def test_metrics_rejects_asset_paths_outside_roots(tmp_path, capsys, field, where):
    manifest, pred, gt = build_metrics_tree(tmp_path, n_clips=1)
    rec = json.loads(manifest.read_text())
    # A readable copy of the asset outside both roots: reading it would succeed.
    outside = tmp_path / "outside" / rec[field]
    outside.parent.mkdir(parents=True)
    outside.write_bytes((gt / rec[field]).read_bytes())
    rel = str(outside) if where == "absolute" else f"../outside/{rec[field]}"
    _rewrite_record(manifest, **{field: rel})
    report_path = tmp_path / "report.json"
    assert main(["metrics", "--pred", str(pred), "--gt", str(gt),
                 "--manifest", str(manifest), "--report", str(report_path)]) == 2
    err = capsys.readouterr().err
    assert f"{manifest}:1: bad record" in err and field in err and "Traceback" not in err
    assert not report_path.exists()


def test_metrics_keeps_dotdot_paths_that_stay_inside_root(tmp_path):
    manifest, pred, gt = build_metrics_tree(tmp_path, n_clips=1)
    rec = json.loads(manifest.read_text())
    _rewrite_record(manifest, beats_path=f"s0/../{rec['beats_path']}")
    assert main(["metrics", "--pred", str(pred), "--gt", str(gt), "--manifest", str(manifest),
                 "--report", str(tmp_path / "report.json")]) == 0


@pytest.mark.parametrize("field", ["frames_path", "landmark_path", "beats_path"])
def test_metrics_non_string_path_exits_2(tmp_path, capsys, field):
    manifest, pred, gt = build_metrics_tree(tmp_path, n_clips=1)
    _rewrite_record(manifest, **{field: 5})
    assert main(["metrics", "--pred", str(pred), "--gt", str(gt), "--manifest", str(manifest),
                 "--report", str(tmp_path / "report.json")]) == 2
    err = capsys.readouterr().err
    assert f"{manifest}:1: bad record" in err and field in err and "Traceback" not in err


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


@pytest.mark.parametrize("ratio", ["0:0", "2:-2", "-1:3"])
def test_manifest_split_bad_ratio_exits_2(tmp_path, capsys, ratio):
    manifest = tmp_path / "m.jsonl"
    write_manifest(manifest, [ClipRecord(source_id="s0", start_frame=0, end_frame=50)])
    assert main(["manifest", "split", "--manifest", str(manifest), "--out",
                 str(tmp_path / "out.jsonl"), f"--ratio={ratio}"]) == 2
    err = capsys.readouterr().err
    assert "ratio parts" in err and "Traceback" not in err
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("line", ["[1, 2]", '"abc"', "7"])
@pytest.mark.parametrize("command", ["segment", "crop"])
def test_manifest_non_object_source_line_exits_2(tmp_path, capsys, command, line):
    src_path = tmp_path / "sources.jsonl"
    write_sources(src_path, [SourceMeta(source_id="s0", duration_s=2.0, fps=25.0, width=64,
                                        height=64)])
    src_path.write_text(src_path.read_text() + line + "\n")
    manifest = tmp_path / "m.jsonl"
    write_manifest(manifest, [ClipRecord(source_id="s0", start_frame=0, end_frame=50)])
    argv = ["manifest", command, "--sources", str(src_path), "--out", str(tmp_path / "o.jsonl")]
    if command == "crop":
        argv += ["--manifest", str(manifest)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{src_path}:2: bad source" in err and "Traceback" not in err


def test_precision_flag_roundtrip(tmp_path):
    x32 = rng(9).standard_normal((4, 4)).astype(np.float32)
    sgtf.write_tensor(tmp_path / "x.sgtf", x32)
    assert main(["dwt", str(tmp_path / "x.sgtf"), str(tmp_path / "b")]) == 0
    band = sgtf.read_tensor(tmp_path / "b.ll.sgtf")
    assert band.dtype == np.float32


# -- hostile inputs to every subcommand ------------------------------------------------------


GARBAGE = b"\x00\xffnot a tensor, config or JSON line {\n"
GARBAGE_TEXT = GARBAGE.decode("latin-1")


def put(path, content):
    """Write an SGTF tensor (array), text (str) or raw bytes to path; return the path string."""
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif isinstance(content, str):
        path.write_text(content)
    else:
        sgtf.write_tensor(path, np.asarray(content, dtype=np.float64))
    return str(path)


def params_dir(path, params, drop=(), **replace):
    """Save params without the names in `drop` and with entries replaced by arrays; return the
    path string."""
    params = {k: Tensor(replace.get(k, p.data)) for k, p in params.items() if k not in drop}
    sgtf.save_params(path, params)
    return str(path)


def run_dir(d, config=TINY_CONFIG, drop=(), **replace):
    """A run directory for `sample`: `config` as config.txt, TINY_CONFIG's init params."""
    run = d / "run"
    run.mkdir()
    put(run / "config.txt", config)
    params_dir(run / "params", init_model_params(parse_config_text(TINY_CONFIG)), drop, **replace)
    return str(run)


def sample_argv(d, run, audio=np.zeros(8), ref=np.zeros((1, 8, 8))):
    return ["sample", "--params", run, "--audio", put(d / "a.sgtf", audio),
            "--ref", put(d / "r.sgtf", ref), "--out", str(d / "c.sgtf")]


def idwt_argv(d, ll, others=np.zeros((2, 2))):
    for name in ("lh", "hl", "hh"):
        put(d / f"b.{name}.sgtf", others)
    if ll is not None:
        put(d / "b.ll.sgtf", ll)
    return ["idwt", str(d / "b"), str(d / "x.sgtf")]


MSM_LATENT = (2, 1, 8, 8)


def msm_argv(d, audio=np.zeros((4, 8)), latent=np.zeros(MSM_LATENT), drop=(), hidden=4,
             **replace):
    params = init_msm_params(latent.shape, hidden=hidden)
    return ["msm-apply", "--audio", put(d / "a.sgtf", audio),
            "--latent", put(d / "z.sgtf", latent),
            "--params", params_dir(d / "p", params, drop, **replace), "--out", str(d / "o.sgtf")]


def sfm_argv(d, features=np.zeros((2, 3, 4, 4)), drop=(), **replace):
    params = init_sfm_params((2, 3, 4, 4))
    return ["sfm-apply", "--features", put(d / "h.sgtf", features),
            "--params", params_dir(d / "p", params, drop, **replace), "--out", str(d / "o.sgtf")]


def config_argv(command, d, config):
    return [command, "--config", put(d / "cfg.txt", config), "--out", str(d / "out")]


def jsonl_line(obj):
    """A str goes in as the raw line, anything else as its JSON."""
    return (obj if isinstance(obj, str) else json.dumps(obj)) + "\n"


def metrics_argv(d, *extra, asset=None, content=None, record=None, root="pred"):
    """metrics over one tiny clip; the `root` ("pred" or "gt") file of manifest field
    `asset` is overwritten with `content`, and `record` maps the manifest line to a new one."""
    manifest, pred, gt = build_metrics_tree(d, n_clips=1)
    rec = json.loads(manifest.read_text())
    if asset is not None:
        put({"pred": pred, "gt": gt}[root] / rec[asset], content)
    if record is not None:
        put(manifest, jsonl_line(record(rec)))
    return ["metrics", "--pred", str(pred), "--gt", str(gt), "--manifest", str(manifest),
            "--report", str(d / "report.json"), *extra]


# build_metrics_tree's 6 frames of 2 landmarks, with one NaN cell
NAN_LANDMARKS = "frame,x0,y0,x1,y1\n" + "".join(
    f"{i},{i}.0,0.0,1.0,{'nan' if i == 3 else '0.0'}\n" for i in range(6))

SOURCE = {"source_id": "s0", "duration_s": 2.0, "fps": 25.0, "width": 64, "height": 64,
          "face_bboxes": [[0, [8, 8, 16, 16]]]}
BOXLESS_SOURCE = {**SOURCE, "face_bboxes": []}
RECORD = {"source_id": "s0", "start_frame": 0, "end_frame": 50}


def manifest_argv(command, d, source=SOURCE, record=RECORD):
    """`manifest <command>` over one source line and one record line."""
    sources = put(d / "sources.jsonl", jsonl_line(source))
    manifest = put(d / "m.jsonl", jsonl_line(record))
    out = str(d / "o.jsonl")
    return {"segment": ["manifest", "segment", "--sources", sources, "--out", out],
            "crop": ["manifest", "crop", "--sources", sources, "--manifest", manifest,
                     "--out", out],
            "split": ["manifest", "split", "--manifest", manifest, "--out", out]}[command]


def with_value(shape, index, value):
    """Zeros of `shape` with one entry set to `value`."""
    arr = np.zeros(shape)
    arr[index] = value
    return arr


def without(d, key):
    return {k: v for k, v in d.items() if k != key}


HOSTILE_ARGV = {
    "dwt/garbage": lambda d: ["dwt", put(d / "x.sgtf", GARBAGE), str(d / "b")],
    "dwt/rank1": lambda d: ["dwt", put(d / "x.sgtf", np.zeros(4)), str(d / "b")],
    "idwt/garbage": lambda d: idwt_argv(d, GARBAGE),
    "idwt/missing_band": lambda d: idwt_argv(d, None),
    "idwt/rank1": lambda d: idwt_argv(d, np.zeros(4)),
    "msm-apply/garbage": lambda d: msm_argv(d, audio=GARBAGE),
    "msm-apply/missing_key": lambda d: msm_argv(d, drop=("msm.fc1_w",)),
    "msm-apply/rank1_audio": lambda d: msm_argv(d, audio=np.zeros(8)),
    "msm-apply/rank1_param": lambda d: msm_argv(d, **{"msm.fc1_w": np.zeros(4)}),
    "msm-apply/rank3_audio": lambda d: msm_argv(d, audio=np.zeros((2, 4, 8))),
    "msm-apply/rank3_head": lambda d: msm_argv(d, **{"msm.fc1_w": np.zeros((1, 4, 4))}),
    "msm-apply/bias_shape": lambda d: msm_argv(d, **{"msm.fc1_b": np.zeros(1)}),
    "msm-apply/out_bias_shape": lambda d: msm_argv(d, **{"msm.fc2_b": np.zeros(1)}),
    "msm-apply/indivisible_audio": lambda d: msm_argv(d, latent=np.zeros((3, 1, 8, 8))),
    "msm-apply/nan_audio": lambda d: msm_argv(d, audio=with_value((4, 8), (2, 6), np.nan)),
    "sfm-apply/garbage": lambda d: sfm_argv(d, features=GARBAGE),
    "sfm-apply/missing_key": lambda d: sfm_argv(d, drop=("sfm.gate_w",)),
    "sfm-apply/rank3": lambda d: sfm_argv(d, features=np.zeros((3, 4, 4))),
    "sfm-apply/rank1_param": lambda d: sfm_argv(d, **{"sfm.gate_w": np.zeros(3)}),
    "sfm-apply/bias_shape": lambda d: sfm_argv(d, **{"sfm.gate_b": np.zeros(1)}),
    "sfm-apply/nan_features": lambda d: sfm_argv(
        d, features=with_value((2, 3, 4, 4), (1, 0, 3, 3), np.nan)),
    "train-toy/garbage": lambda d: config_argv("train-toy", d, GARBAGE_TEXT),
    "train-toy/missing_key": lambda d: config_argv("train-toy", d, TINY_CONFIG + "=5\n"),
    "train-toy/missing_value": lambda d: config_argv("train-toy", d, TINY_CONFIG + "steps=\n"),
    "train-toy/repeated_key": lambda d: config_argv("train-toy", d, TINY_CONFIG + "frames=8\n"),
    "sample/garbage": lambda d: sample_argv(d, run_dir(d), audio=GARBAGE),
    "sample/garbage_config": lambda d: sample_argv(d, run_dir(d, config=GARBAGE_TEXT)),
    "sample/missing_key": lambda d: sample_argv(d, run_dir(d, drop=("unet.mid1_w",))),
    "sample/missing_keys": lambda d: sample_argv(d, run_dir(d, drop=("unet.in_b", "sfm.w"))),
    "sample/rank2_audio": lambda d: sample_argv(d, run_dir(d), audio=np.zeros((2, 4))),
    "sample/rank2_ref": lambda d: sample_argv(d, run_dir(d), ref=np.zeros((8, 8))),
    "sample/rank1_param": lambda d: sample_argv(d, run_dir(d, **{"unet.in_w": np.zeros(4)})),
    "sample/wrong_shape": lambda d: sample_argv(d, run_dir(d, **{"att.v_w": np.zeros((4, 1))})),
    "sample/nan_audio": lambda d: sample_argv(d, run_dir(d), audio=with_value(8, 3, np.nan)),
    "sample/inf_ref": lambda d: sample_argv(d, run_dir(d),
                                            ref=with_value((1, 8, 8), (0, 2, 5), np.inf)),
    "sample/nan_param": lambda d: sample_argv(
        d, run_dir(d, **{"unet.mid1_w": with_value((8, 8, 3, 3), (1, 2, 0, 1), np.nan)})),
    "sample/timesteps_past_temb": lambda d: sample_argv(
        d, run_dir(d, config=TINY_CONFIG.replace("timesteps=5", "timesteps=9"))),
    "ablate/garbage": lambda d: config_argv("ablate", d, GARBAGE_TEXT),
    "ablate/missing_key": lambda d: config_argv("ablate", d, TINY_CONFIG + "=5\n"),
    "ablate/missing_value": lambda d: config_argv("ablate", d, TINY_CONFIG + "lr=\n"),
    "ablate/negative_seed": lambda d: config_argv("ablate", d,
                                                  TINY_CONFIG.replace("seed=5", "seed=-1")),
    "train-toy/negative_global_seed": lambda d: ["--seed", "-1",
                                                 *config_argv("train-toy", d, TINY_CONFIG)],
    "metrics/garbage_frames": lambda d: metrics_argv(d, asset="frames_path", content=GARBAGE),
    "metrics/garbage_landmarks": lambda d: metrics_argv(d, asset="landmark_path",
                                                        content=GARBAGE),
    "metrics/garbage_manifest": lambda d: metrics_argv(d, record=lambda rec: "not json"),
    "metrics/missing_key": lambda d: metrics_argv(d, record=lambda rec: without(rec, "source_id")),
    "metrics/rank1_frames": lambda d: metrics_argv(d, asset="frames_path", content=np.zeros(16)),
    "metrics/peak_nan": lambda d: metrics_argv(d, "--peak", "nan"),
    "metrics/peak_inf": lambda d: metrics_argv(d, "--peak", "inf"),
    "metrics/nan_beat": lambda d: metrics_argv(d, asset="beats_path", content="0.08\nnan\n",
                                               root="gt"),
    "metrics/nan_landmark": lambda d: metrics_argv(d, asset="landmark_path",
                                                   content=NAN_LANDMARKS),
    "metrics/empty_beats": lambda d: metrics_argv(d, asset="beats_path", content="", root="gt"),
    "segment/garbage": lambda d: manifest_argv("segment", d, source=GARBAGE_TEXT),
    "segment/missing_key": lambda d: manifest_argv("segment", d, source=without(SOURCE, "fps")),
    "segment/rank1_bbox": lambda d: manifest_argv("segment", d,
                                                  source={**SOURCE, "face_bboxes": [[0, 8]]}),
    "segment/duration_1e400": lambda d: manifest_argv(
        "segment", d, source=json.dumps(SOURCE).replace("2.0", "1e400")),
    "segment/duration_infinity": lambda d: manifest_argv(
        "segment", d, source={**SOURCE, "duration_s": float("inf")}),
    "segment/fps_nan": lambda d: manifest_argv("segment", d,
                                               source={**SOURCE, "fps": float("nan")}),
    "segment/huge_duration": lambda d: manifest_argv("segment", d,
                                                     source={**SOURCE, "duration_s": 1e308}),
    "segment/bool_duration": lambda d: manifest_argv("segment", d,
                                                     source={**SOURCE, "duration_s": True}),
    "segment/string_fps": lambda d: manifest_argv("segment", d, source={**SOURCE, "fps": "25"}),
    "segment/int_source_id": lambda d: manifest_argv("segment", d,
                                                     source={**SOURCE, "source_id": 5}),
    "crop/string_duration": lambda d: manifest_argv("crop", d,
                                                    source={**SOURCE, "duration_s": "2"}),
    "segment/float_width": lambda d: manifest_argv("segment", d, source={**SOURCE, "width": 64.9}),
    "segment/bool_keyframe": lambda d: manifest_argv(
        "segment", d, source={**SOURCE, "face_bboxes": [[True, [8, 8, 16, 16]]]}),
    "segment/negative_keyframe": lambda d: manifest_argv(
        "segment", d, source={**SOURCE, "face_bboxes": [[-50, [8, 8, 16, 16]]]}),
    "segment/float_bbox": lambda d: manifest_argv(
        "segment", d, source={**SOURCE, "face_bboxes": [[0, [8.7, 8, 16, 16]]]}),
    "segment/ratio_above_one": lambda d: [*manifest_argv("segment", d, source=BOXLESS_SOURCE),
                                          "--ratio", "7"],
    "crop/ratio_zero": lambda d: [*manifest_argv("crop", d, source=BOXLESS_SOURCE),
                                  "--ratio", "0"],
    "crop/garbage": lambda d: manifest_argv("crop", d, record=GARBAGE_TEXT),
    "crop/missing_key": lambda d: manifest_argv("crop", d, record=without(RECORD, "end_frame")),
    "crop/rank2_crop_box": lambda d: manifest_argv("crop", d,
                                                   record={**RECORD, "crop_box": [[1, 2]]}),
    "split/garbage": lambda d: manifest_argv("split", d, record=GARBAGE_TEXT),
    "split/missing_key": lambda d: manifest_argv("split", d, record=without(RECORD, "source_id")),
    "split/rank0_crop_box": lambda d: manifest_argv("split", d, record={**RECORD, "crop_box": 5}),
    "split/null_source_id": lambda d: manifest_argv(
        "split", d, record={**RECORD, "source_id": None, "crop_box": [0, 0, -5, 3]}),
    "split/empty_source_id": lambda d: manifest_argv("split", d,
                                                     record={**RECORD, "source_id": ""}),
    "split/int_source_id": lambda d: manifest_argv("split", d, record={**RECORD, "source_id": 7}),
    "split/short_crop_box": lambda d: manifest_argv("split", d,
                                                    record={**RECORD, "crop_box": [1, 2]}),
    "split/negative_crop_box": lambda d: manifest_argv(
        "split", d, record={**RECORD, "crop_box": [0, 0, -5, 3]}),
    "split/float_crop_box": lambda d: manifest_argv(
        "split", d, record={**RECORD, "crop_box": [0, 0, 2.5, 3]}),
    "split/zero_width_crop_box": lambda d: manifest_argv(
        "split", d, record={**RECORD, "crop_box": [4, 4, 0, 3]}),
    "split/negative_start_frame": lambda d: manifest_argv(
        "split", d, record={**RECORD, "start_frame": -50, "end_frame": 0}),
    "split/float_start_frame": lambda d: manifest_argv(
        "split", d, record={**RECORD, "start_frame": 1.5, "end_frame": 51.5}),
    "split/bool_start_frame": lambda d: manifest_argv(
        "split", d, record={**RECORD, "start_frame": True, "end_frame": 51}),
    "crop/zero_height_crop_box": lambda d: manifest_argv(
        "crop", d, record={**RECORD, "crop_box": [4, 4, 3, 0]}),
}

# Cases whose error line must also say where the fault is, with {d} standing for the
# case's directory.
TINY_CONFIG_END = TINY_CONFIG.count("\n") + 1  # the line number of a line appended to it
HOSTILE_ERROR_NAMES = {
    "train-toy/missing_value": f"config line {TINY_CONFIG_END}: bad value '' for steps",
    "ablate/missing_value": f"config line {TINY_CONFIG_END}: bad value '' for lr",
    "ablate/negative_seed": "TrainConfig: seed must be >= 0, got -1",
    "train-toy/negative_global_seed": "TrainConfig: seed must be >= 0, got -1",
    "sample/missing_key": "run directory {d}/run lacks parameters ['unet.mid1_w']",
    "sample/missing_keys": "run directory {d}/run lacks parameters ['unet.in_b', 'sfm.w']",
    "msm-apply/missing_key": "{d}/p lacks parameters ['msm.fc1_w']",
    "sfm-apply/missing_key": "{d}/p lacks parameters ['sfm.gate_w']",
    "msm-apply/rank3_audio": "expected a 2-D (d_a, l) audio embedding",
    "msm-apply/nan_audio": "{d}/a.sgtf: tensor holds a non-finite value",
    "sfm-apply/nan_features": "{d}/h.sgtf: tensor holds a non-finite value",
    "sample/nan_audio": "{d}/a.sgtf: tensor holds a non-finite value",
    "sample/inf_ref": "{d}/r.sgtf: tensor holds a non-finite value",
    "sample/nan_param": "{d}/run/params/unet.mid1_w.sgtf: parameter holds a non-finite value",
    "msm-apply/indivisible_audio": "audio length 8 not divisible by 3 latent frames",
    "msm-apply/rank3_head": "parameter 'msm.fc1_w' has shape (1, 4, 4), expected (4, 4)",
    "msm-apply/bias_shape": "parameter 'msm.fc1_b' has shape (1,), expected (4,)",
    "msm-apply/out_bias_shape": "parameter 'msm.fc2_b' has shape (1,), expected (4,)",
    "sfm-apply/bias_shape": "channel count 3 does not match gate bias (1,)",
    "train-toy/repeated_key": f"config line {TINY_CONFIG_END}: repeated key 'frames'",
    "segment/ratio_above_one": "face ratio must be in (0, 1], got 7.0",
    "crop/ratio_zero": "face ratio must be in (0, 1], got 0.0",
    "sample/wrong_shape": "parameter 'att.v_w' has shape (4, 1), expected (4, 8)",
    "metrics/nan_beat": "timestamps must be finite",
    "metrics/nan_landmark": "coordinates must be finite",
    "metrics/empty_beats": "bas: need at least one audio beat",
    "split/negative_start_frame": "start_frame must be a non-negative int, got -50",
    "split/float_start_frame": "start_frame must be a non-negative int, got 1.5",
    "split/bool_start_frame": "start_frame must be a non-negative int, got True",
    "segment/float_width": "width must be a non-negative int, got 64.9",
    "segment/bool_keyframe": "keyframe must be a non-negative int, got True",
    "segment/negative_keyframe": "keyframe must be a non-negative int, got -50",
    "segment/float_bbox": "bbox at frame 0 must be four non-negative ints, got [8.7, 8, 16, 16]",
    "segment/huge_duration": "sources.jsonl:1: bad source: SourceMeta s0: frame count",
    "segment/bool_duration": "duration_s must be a finite positive number, got True",
    "segment/string_fps": "fps must be a finite positive number, got '25'",
    "segment/int_source_id": "sources.jsonl:1: bad source: SourceMeta: source_id must be a "
                             "non-empty string, got 5",
    "crop/string_duration": "duration_s must be a finite positive number, got '2'",
    "segment/missing_key": "missing 1 required positional argument: 'fps'",
}


@pytest.mark.parametrize("case", sorted(HOSTILE_ARGV))
def test_hostile_input_exits_2_without_traceback(tmp_path, capsys, case):
    # none of these is a numeric failure (exit 3): each is rejected as bad input
    code = main(HOSTILE_ARGV[case](tmp_path))
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error:") and "Traceback" not in err
    if case in HOSTILE_ERROR_NAMES:
        assert HOSTILE_ERROR_NAMES[case].format(d=tmp_path) in err, err


def test_msm_apply_checks_audio_length_before_the_forward(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "msm_forward", lambda *args: calls.append(args))
    assert main(msm_argv(tmp_path, latent=np.zeros((3, 1, 8, 8)))) == 2
    assert "audio length 8 not divisible by 3 latent frames" in capsys.readouterr().err
    assert calls == []

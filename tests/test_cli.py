"""Command-line surface: every subcommand, exit codes, byte determinism."""

import dataclasses
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from waveletcond import cli, metrics, sgtf, training
from waveletcond.cli import main, parse_index_spec
from waveletcond.datakit import ClipRecord, SourceMeta, write_manifest, write_sources
from waveletcond.diffusion import TrainConfig, init_model_params
from waveletcond.metrics import save_beats, save_landmarks_csv
from waveletcond.msm import init_msm_params, msm_forward
from waveletcond.sfm import init_sfm_params
from waveletcond.tensor import Tensor
from waveletcond.training import parse_config_text, train
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
    lambda d: metrics_argv(d, asset="frames_path", content=with_value(CLIP, PIXEL, 1e300)),
    lambda d: metrics_argv(d, asset="frames_path", content=with_value(CLIP, PIXEL, 1e155),
                           root="both"),
], ids=["dwt", "idwt", "msm-apply", "sfm-apply", "metrics-psnr", "metrics-ssim"])
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
    assert main(["--seed", "3", "sample", "--params", str(run), "--audio",
                 str(tmp_path / "a.sgtf"), "--ref", str(tmp_path / "r.sgtf"),
                 "--out", str(out)]) == 0
    clip = sgtf.read_tensor(out)
    assert clip.shape == (2, 1, 8, 8)
    assert np.all(np.isfinite(clip))
    # same seed reproduces the clip bit-exactly
    out2 = tmp_path / "clip2.sgtf"
    main(["--seed", "3", "sample", "--params", str(run), "--audio", str(tmp_path / "a.sgtf"),
          "--ref", str(tmp_path / "r.sgtf"), "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def test_sample_seed_is_the_global_flag_only(tmp_path, capsys):
    run = run_dir(tmp_path)
    argv = sample_argv(tmp_path, run, audio=rng(6).standard_normal(8))
    clips = []
    for prefix in (["--seed", "3"], ["--seed", "3"], []):
        assert main(prefix + argv) == 0
        clips.append((tmp_path / "c.sgtf").read_bytes())
    assert clips[0] == clips[1]  # the global seed reproduces its clip
    assert clips[2] != clips[0]  # the default seed, 0, gives another
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "3"])  # `sample` has no option of its own for it
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


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


@pytest.mark.parametrize("out", ["dir", "missing/c.sgtf"])
def test_sample_checks_its_out_path_before_reading_its_run(tmp_path, capsys, monkeypatch, out):
    calls = []
    monkeypatch.setattr(cli, "sample", lambda *args, **kwargs: calls.append(args))
    argv = sample_argv(tmp_path, run_dir(tmp_path))
    argv[argv.index("--out") + 1] = str(tmp_path / out)
    (tmp_path / "dir").mkdir()
    inputs = set(tmp_path.rglob("*"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: sample: --out {tmp_path / out}") and "Traceback" not in err
    assert calls == []
    assert set(tmp_path.rglob("*")) == inputs


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
@pytest.mark.parametrize("line", ["h_msm=0", "d_audio=0", "height=0", "width=-4", "n_clips=0",
                                  "frames=0", "timesteps=0"])
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


def test_ablate_without_out_writes_the_global_seeds_report_to_stdout(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(config_with("steps=2"))
    assert main(["--seed", "9", "ablate", "--config", str(cfg_path)]) == 0
    text = capsys.readouterr().out
    assert text.endswith("}\n") and json.loads(text)["config"]["seed"] == 9
    assert list(tmp_path.iterdir()) == [cfg_path]


def test_train_toy_makes_its_run_directory_before_training(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "train", lambda *args, **kwargs: calls.append(args))
    argv = config_argv("train-toy", tmp_path, TINY_CONFIG)
    put(tmp_path / "out", "an --out that names a file")
    assert main(argv) == 2
    assert "File exists" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("out", ["dir", "missing/r.json"])
def test_ablate_checks_its_out_path_before_training(tmp_path, capsys, monkeypatch, out):
    calls = []
    monkeypatch.setattr(cli, "ablate", lambda *args: calls.append(args))
    (tmp_path / "dir").mkdir()
    argv = [*config_argv("ablate", tmp_path, TINY_CONFIG)[:-2], "--out", str(tmp_path / out)]
    inputs = set(tmp_path.rglob("*"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: ablate: --out {tmp_path / out}") and "Traceback" not in err
    assert calls == []
    assert set(tmp_path.rglob("*")) == inputs


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


@pytest.mark.parametrize("report", ["dir", "missing/r.json"])
def test_metrics_checks_its_report_path_before_scoring(tmp_path, capsys, monkeypatch, report):
    calls = []
    monkeypatch.setattr(metrics, "evaluate_clip", lambda *args, **kwargs: calls.append(args))
    argv = metrics_argv(tmp_path)
    argv[argv.index("--report") + 1] = str(tmp_path / report)
    (tmp_path / "dir").mkdir()
    inputs = set(tmp_path.rglob("*"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: metrics: --report {tmp_path / report}")
    assert "Traceback" not in err
    assert calls == []
    assert set(tmp_path.rglob("*")) == inputs


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


@pytest.mark.parametrize("spec", ["48-", "a-3", "-3", "4-b"])
def test_parse_index_spec_names_a_part_that_is_not_a_range(spec):
    with pytest.raises(ValueError, match=f"^index spec '{spec}': '{spec}' is not a range "
                                         r"within \[0, 68\)$"):
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


def test_manifest_split_ratio_without_a_colon_is_train_parts_to_one(tmp_path):
    argv = manifest_argv("split", tmp_path)
    assert main([*argv, "--ratio", "4:1"]) == 0
    want = (tmp_path / "o.jsonl").read_bytes()
    assert main([*argv, "--ratio", "4"]) == 0
    assert (tmp_path / "o.jsonl").read_bytes() == want


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
    # a latent that init_msm_params rejects goes with the default latent's params
    params = init_msm_params(latent.shape if latent.ndim == 4 else MSM_LATENT, hidden=hidden)
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
    """metrics over one tiny clip; the `root` ("pred", "gt" or "both") file of manifest field
    `asset` is overwritten with `content`, and `record` maps the manifest line to a new one."""
    manifest, pred, gt = build_metrics_tree(d, n_clips=1)
    rec = json.loads(manifest.read_text())
    if asset is not None:
        for path in {"pred": [pred], "gt": [gt], "both": [pred, gt]}[root]:
            put(path / rec[asset], content)
    if record is not None:
        put(manifest, jsonl_line(record(rec)))
    return ["metrics", "--pred", str(pred), "--gt", str(gt), "--manifest", str(manifest),
            "--report", str(d / "report.json"), *extra]


# build_metrics_tree's clip frames, and one pixel of them
CLIP, PIXEL = (3, 1, 16, 16), (1, 0, 5, 7)

# build_metrics_tree's 6 frames of 2 landmarks, with one NaN cell
NAN_LANDMARKS = "frame,x0,y0,x1,y1\n" + "".join(
    f"{i},{i}.0,0.0,1.0,{'nan' if i == 3 else '0.0'}\n" for i in range(6))

SOURCE = {"source_id": "s0", "duration_s": 2.0, "fps": 25.0, "width": 64, "height": 64,
          "face_bboxes": [[0, [8, 8, 16, 16]]]}
BOXLESS_SOURCE = {**SOURCE, "face_bboxes": []}
REPEATED_KEYFRAME = {**SOURCE, "face_bboxes": [[0, [8, 8, 16, 16]], [0, [4, 4, 16, 16]]]}
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


def with_params_version(run, version):
    """The run directory `run` with its params manifest's version set to `version`."""
    manifest = Path(run) / "params" / "manifest.json"
    put(manifest, json.dumps({**json.loads(manifest.read_text()), "version": version}))
    return run


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
    "msm-apply/nan_audio": lambda d: msm_argv(d, audio=with_value((4, 8), (2, 6), np.nan)),
    "msm-apply/rank3_latent": lambda d: msm_argv(d, latent=np.zeros((1, 8, 8))),
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
    "train-toy/height_6": lambda d: config_argv("train-toy", d, config_with("height=6")),
    "train-toy/width_10": lambda d: config_argv("train-toy", d, config_with("width=10")),
    "ablate/odd_samples_per_frame": lambda d: config_argv("ablate", d,
                                                          config_with("samples_per_frame=3")),
    "ablate/odd_d_audio": lambda d: config_argv("ablate", d, config_with("d_audio=3")),
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
    "sample/params_version_2": lambda d: sample_argv(d, with_params_version(run_dir(d), 2)),
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
    "metrics/empty_manifest": lambda d: metrics_argv(d, record=lambda rec: ""),
    "metrics/empty_mouth_indices": lambda d: metrics_argv(d, "--mouth-indices", ""),
    "metrics/blank_mouth_indices": lambda d: metrics_argv(d, "--mouth-indices", " "),
    "metrics/open_mouth_range": lambda d: metrics_argv(d, "--mouth-indices", "1-"),
    "metrics/letter_mouth_index": lambda d: metrics_argv(d, "--mouth-indices", "a-1"),
    "metrics/nan_frame": lambda d: metrics_argv(d, asset="frames_path",
                                                content=with_value(CLIP, PIXEL, np.nan)),
    "metrics/inf_frame": lambda d: metrics_argv(d, asset="frames_path", root="gt",
                                                content=with_value(CLIP, PIXEL, -np.inf)),
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
    "segment/repeated_source_id": lambda d: manifest_argv(
        "segment", d, source=jsonl_line(SOURCE) + json.dumps({**SOURCE, "duration_s": 4.0})),
    "crop/repeated_source_id": lambda d: manifest_argv(
        "crop", d, source=jsonl_line(SOURCE) + json.dumps({**SOURCE, "duration_s": 4.0})),
    "segment/repeated_keyframe": lambda d: manifest_argv("segment", d, source=REPEATED_KEYFRAME),
    "crop/repeated_keyframe": lambda d: manifest_argv("crop", d, source=REPEATED_KEYFRAME),
    "segment/ratio_above_one": lambda d: [*manifest_argv("segment", d, source=BOXLESS_SOURCE),
                                          "--ratio", "7"],
    "crop/ratio_zero": lambda d: [*manifest_argv("crop", d, source=BOXLESS_SOURCE),
                                  "--ratio", "0"],
    "crop/garbage": lambda d: manifest_argv("crop", d, record=GARBAGE_TEXT),
    "crop/missing_key": lambda d: manifest_argv("crop", d, record=without(RECORD, "end_frame")),
    "crop/rank2_crop_box": lambda d: manifest_argv("crop", d,
                                                   record={**RECORD, "crop_box": [[1, 2]]}),
    "crop/unknown_source": lambda d: manifest_argv("crop", d, record={**RECORD, "source_id": "s9"}),
    "split/letter_ratio": lambda d: [*manifest_argv("split", d), "--ratio", "a:1"],
    "split/letter_ratio_of_a_missing_manifest": lambda d: [
        "manifest", "split", "--manifest", str(d / "missing.jsonl"), "--out", str(d / "o.jsonl"),
        "--ratio", "4:b"],
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
    "msm-apply/rank3_head": "parameter 'msm.fc1_w' has shape (1, 4, 4), expected (4, 4)",
    "msm-apply/bias_shape": "parameter 'msm.fc1_b' has shape (1,), expected (4,)",
    "msm-apply/out_bias_shape": "parameter 'msm.fc2_b' has shape (1,), expected (4,)",
    "sfm-apply/bias_shape": "channel count 3 does not match gate bias (1,)",
    "train-toy/repeated_key": f"config line {TINY_CONFIG_END}: repeated key 'frames'",
    "segment/repeated_source_id": "sources.jsonl:2: bad source: repeated source_id 's0'",
    "crop/repeated_source_id": "sources.jsonl:2: bad source: repeated source_id 's0'",
    "segment/repeated_keyframe": "sources.jsonl:1: bad source: SourceMeta s0: two boxes at "
                                 "keyframe 0",
    "crop/repeated_keyframe": "sources.jsonl:1: bad source: SourceMeta s0: two boxes at "
                              "keyframe 0",
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
    "msm-apply/rank3_latent": "init_msm_params: latent shape must be 4-D, got (1, 8, 8)",
    "train-toy/height_6": "TrainConfig: height/width must be divisible by 4, got 6x8",
    "train-toy/width_10": "TrainConfig: height/width must be divisible by 4, got 8x10",
    "ablate/odd_samples_per_frame": "TrainConfig: samples_per_frame must be even",
    "ablate/odd_d_audio": "TrainConfig: d_audio must be even",
    "sample/params_version_2": "{d}/run/params: unsupported params version 2",
    "metrics/empty_manifest": "metrics: empty manifest {d}/m.jsonl",
    "metrics/empty_mouth_indices": "empty index spec: ''",
    "metrics/blank_mouth_indices": "empty index spec: ' '",
    "metrics/open_mouth_range": "index spec '1-': '1-' is not a range within [0, 2)",
    "metrics/letter_mouth_index": "index spec 'a-1': 'a-1' is not a range within [0, 2)",
    "metrics/nan_frame": "metrics: clip s0_000000: psnr: a frame holds a non-finite value",
    "metrics/inf_frame": "metrics: clip s0_000000: psnr: a frame holds a non-finite value",
    "crop/unknown_source": "manifest crop: no source metadata for s9",
    "split/letter_ratio": "--ratio must be TRAIN:TEST with integer parts, got 'a:1'",
    "split/letter_ratio_of_a_missing_manifest": "--ratio must be TRAIN:TEST with integer "
                                                "parts, got '4:b'",
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


def test_msm_apply_takes_any_audio_length(tmp_path, capsys):
    # nothing in msm_forward ties the audio length, 8, to the latent's 3 frames
    audio, latent = rng(30).standard_normal((4, 8)), rng(31).standard_normal((3, 1, 8, 8))
    head = {"msm.fc1_w": rng(32).standard_normal((4, 4)),  # a head that is not the identity
            "msm.fc2_w": rng(33).standard_normal((4, 4))}
    code = main(msm_argv(tmp_path, audio=audio, latent=latent, **head))
    assert code == 0, capsys.readouterr().err
    out = msm_forward(audio, latent, sgtf.load_params(tmp_path / "p")).data
    sgtf.write_tensor(tmp_path / "want.sgtf", out)
    assert not np.array_equal(out, audio)
    assert (tmp_path / "o.sgtf").read_bytes() == (tmp_path / "want.sgtf").read_bytes()


# -- generated hostile inputs ------------------------------------------------------------------
#
# Each case builds one subcommand's valid input tree with the builders above, mutates one file
# in it and runs the subcommand: it exits 0, 2 or 3, and never raises out of `main`. The case
# list is drawn once from a fixed seed, so every run writes the same bytes.

# subcommand -> (argv builder, {SGTF file in its tree: rank}, {text file: kind}); files joined
# by "+" take the same mutation, so a latent and the MSM weight of its shape change together
GENERATED_BASES = {
    "dwt": (lambda d: ["dwt", put(d / "x.sgtf", np.zeros((2, 4, 4))), str(d / "b")],
            {"x.sgtf": 3}, {}),
    "idwt": (lambda d: idwt_argv(d, np.zeros((2, 2))), {"b.ll.sgtf": 2}, {}),
    "msm-apply": (msm_argv, {"a.sgtf": 2, "z.sgtf+p/msm.w.sgtf": 4, "p/msm.fc2_b.sgtf": 1}, {}),
    "sfm-apply": (sfm_argv, {"h.sgtf": 4, "p/sfm.gate_w.sgtf": 2}, {}),
    "train-toy": (lambda d: config_argv("train-toy", d, TINY_CONFIG), {}, {"cfg.txt": "config"}),
    "ablate": (lambda d: config_argv("ablate", d, TINY_CONFIG), {}, {"cfg.txt": "config"}),
    "sample": (lambda d: sample_argv(d, run_dir(d)),
               {"a.sgtf": 1, "r.sgtf": 3}, {"run/config.txt": "config"}),
    "metrics": (metrics_argv, {"pred/s0/clip.sgtf": 4},
                {"pred/s0/lm.csv": "csv", "gt/s0/beats.txt": "beats", "m.jsonl": "jsonl"}),
    "segment": (lambda d: manifest_argv("segment", d), {}, {"sources.jsonl": "jsonl"}),
    "crop": (lambda d: manifest_argv("crop", d), {},
             {"sources.jsonl": "jsonl", "m.jsonl": "jsonl"}),
    "split": (lambda d: manifest_argv("split", d), {}, {"m.jsonl": "jsonl"}),
}

FORGED_RANKS = (0, 1, 3, 5, 64, 65, 2 ** 32 - 1)
HOSTILE_VALUES = (np.nan, np.inf, -np.inf, 1e300, -1e300)
# what a config value, CSV cell or beat line, and a JSON value, are replaced with
TEXT_TOKENS = ("", "x", "-1", "0", "1.5", "nan", "inf", "-inf", "1e400", "1e300", "true", "2",
               "1,2")
JSON_TOKENS = ("null", "-1", "0", "1.5", "1e400", '"x"', '""', "[]", "{}", "true",
               "[[0, [1, 2]]]", "18446744073709551616", "NaN")


def flip(data, k, mask):
    k %= len(data)
    return data[:k] + bytes([data[k] ^ mask]) + data[k + 1:]


def resized(arr, axis, size):
    """`arr` with `axis` cut, or padded with zeros, to `size`."""
    shape = list(arr.shape)
    shape[axis] = size
    out = np.zeros(shape)
    kept = tuple(slice(0, min(n, m)) for n, m in zip(arr.shape, shape))
    out[kept] = arr[kept]
    return out


def with_entry(arr, k, value):
    arr = arr.copy()
    arr.flat[k % arr.size] = value
    return arr


def edit_line(text, i, edit):
    """`text` with its line i (modulo the line count) replaced by the lines `edit(line)`."""
    lines = text.splitlines()
    i %= len(lines)
    return "".join(line + "\n" for line in [*lines[:i], *edit(lines[i]), *lines[i + 1:]])


def edit_json_key(text, i, edit):
    """`text`'s first JSON line with `edit(obj, key)` for its i-th key (modulo the count)."""
    def line_edit(line):
        obj = json.loads(line)
        return [edit(obj, sorted(obj)[i % len(obj)])]
    return edit_line(text, 0, line_edit)


def set_cell(text, i, j, token):
    def edit(line):
        cells = line.split(",")
        cells[j % len(cells)] = token
        return [",".join(cells)]
    return edit_line(text, i, edit)


# mutation -> what it does to a file's bytes, to an SGTF file's array, or to a text file
BYTE_MUTATIONS = {
    "truncate": lambda data, k: data[:k % len(data)],
    "flip": flip,
    "extend": lambda data, n, byte: data + bytes([byte]) * n,
    "forge_rank": lambda data, rank: data[:6] + rank.to_bytes(4, "little") + data[10:],
}
ARRAY_MUTATIONS = {
    "drop_axis": lambda arr: arr[0],
    "add_axis": lambda arr: arr[None],
    "scalar": lambda arr: np.zeros(()),
    "resize_axis": resized,
    "set_entry": with_entry,
}
TEXT_MUTATIONS = {
    "drop_line": lambda text, i: edit_line(text, i, lambda line: []),
    "repeat_line": lambda text, i: edit_line(text, i, lambda line: [line, line]),
    "set_line": lambda text, i, token: edit_line(text, i, lambda line: [token]),
    "set_config_value": lambda text, i, token: edit_line(
        text, i, lambda line: [f"{line.partition('=')[0]}={token}"]),
    "set_cell": set_cell,
    "set_json_value": lambda text, i, token: edit_json_key(
        text, i, lambda obj, key: json.dumps({**obj, key: "@"}).replace('"@"', token)),
    "drop_json_key": lambda text, i: edit_json_key(
        text, i, lambda obj, key: json.dumps(without(obj, key))),
}


def draw_cases(seed=35):
    """The fixed case list: (id, subcommand, file, mutation, mutation arguments). Each file
    draws from its own stream, so a file added to GENERATED_BASES leaves the others' cases."""
    cases = []
    for command, (_, tensors, texts) in GENERATED_BASES.items():
        for name in [*tensors, *texts]:
            r = np.random.default_rng([seed, *f"{command}/{name}".encode()])

            def n(high):
                return int(r.integers(high))

            def pick(options):
                return options[n(len(options))]

            muts = [("truncate", n(1 << 16)), ("flip", n(1 << 16), 1 + n(255)),
                    ("extend", 1 + n(8), n(256))]
            if name in tensors:
                muts += [("flip", n(18), 1 + n(255)), ("forge_rank", pick(FORGED_RANKS)),
                         ("drop_axis",), ("add_axis",), ("scalar",)]
                for axis in range(tensors[name]):  # a 0-frame latent, odd-length audio, ...
                    muts += [("resize_axis", axis, 0), ("resize_axis", axis, 1 + n(9))]
                muts += [("set_entry", n(1 << 16), pick(HOSTILE_VALUES)) for _ in range(2)]
            elif texts[name] == "jsonl":
                muts += [("set_json_value", n(16), pick(JSON_TOKENS)) for _ in range(4)]
                muts += [("drop_json_key", n(16)), ("repeat_line", 0),
                         ("set_line", 0, pick(JSON_TOKENS))]
            else:
                muts += [("drop_line", n(16)), ("repeat_line", n(16)),
                         ("set_line", n(16), pick(TEXT_TOKENS))]
                for _ in range(3):
                    if texts[name] == "csv":
                        muts.append(("set_cell", n(16), n(16), pick(TEXT_TOKENS)))
                    elif texts[name] == "config":
                        muts.append(("set_config_value", n(16), pick(TEXT_TOKENS)))
                    else:
                        muts.append(("set_line", n(16), pick(TEXT_TOKENS)))
            for mutation, *args in muts:
                ident = f"{command}/{name}/{mutation}:{','.join(map(repr, args))}"
                cases.append((ident, command, name, mutation, tuple(args)))
    return cases


GENERATED_CASES = draw_cases()


def mutate(path, mutation, args):
    if mutation in BYTE_MUTATIONS:
        path.write_bytes(BYTE_MUTATIONS[mutation](path.read_bytes(), *args))
    elif mutation in ARRAY_MUTATIONS:
        put(path, ARRAY_MUTATIONS[mutation](sgtf.read_tensor(path), *args))
    else:
        path.write_text(TEXT_MUTATIONS[mutation](path.read_text(), *args))


@pytest.mark.parametrize("case", GENERATED_CASES, ids=[case[0] for case in GENERATED_CASES])
def test_generated_hostile_input_exits_cleanly(tmp_path, capsys, monkeypatch, case):
    _, command, name, mutation, args = case

    def one_step(clips, cfg, **kwargs):
        # a config that still parses trains one step: its hostile part is what it sets, not
        # its length (a line dropped from it restores the default 500 steps)
        return train(clips, dataclasses.replace(cfg, steps=1), **kwargs)

    monkeypatch.setattr(cli, "train", one_step)
    monkeypatch.setattr(training, "train", one_step)
    argv = GENERATED_BASES[command][0](tmp_path)
    for path in name.split("+"):
        mutate(tmp_path / path, mutation, args)
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2, 3), err
    assert err.startswith({0: "", 2: "error: ", 3: "numeric failure: "}[code]), err
    assert "Traceback" not in err


# -- the README's commands ----------------------------------------------------------------------


def readme_commands():
    """Each `waveletcond ...` command in the README's "Command line" code block, with its `\\`
    continuations joined."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = block.replace("\\\n", " ").splitlines()
    return [line for line in commands if line.startswith("waveletcond ")]


def test_readme_commands_parse():
    # parsed only: an unknown subcommand or flag exits 2 through SystemExit
    parsed = [cli.build_parser().parse_args(shlex.split(command, comments=True)[1:])
              for command in readme_commands()]
    assert {args.func for args in parsed} == {  # every subcommand is shown
        getattr(cli, name) for name in dir(cli) if name.startswith("cmd_")}

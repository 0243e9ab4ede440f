"""Hashes that pin waveletcond's numbers, to compare two versions of the code.

Run from the repository root:

    python3 scripts/bit_identity.py

Each line is a check name and the first 16 hex digits of a sha256.  Two
versions that print the same lines train, ablate, sample, score and build
manifests bit for bit alike.  The checks, all with one BLAS thread:

- train_<dtype>: 30 Adam steps of `training.train` at TrainConfig(steps=30,
  seed=11) from `init_model_params` cast to the dtype; every parameter's
  bytes in sorted name order, then the f64 loss array.  Each step runs as
  two shares of the 16 frames, 8 here and 8 in a forked child, whose losses
  and gradients are added, so the line also pins that split.
- ablate_<freeze>: `report_to_json` bytes of `ablate` at TrainConfig(steps=8,
  n_clips=10), with `freeze_backbone` off and on.
- sample_<dtype>: `diffusion.sample` (50 steps, seed 3) from the trained
  parameters of that dtype, clip 0's audio windows and first frame; the
  bytes of the sampled latent.  The sampler runs each step's UNet as two
  shares of the 16 frames, 8 here and 8 in a forked child, so the line
  also pins that split.
- metrics_report: the report bytes of one `metrics` CLI call over a seeded
  3-clip fixture that the script writes to a temporary directory (SGTF
  frames, landmark CSVs and beat files).  One clip's prediction equals its
  ground truth (PSNR inf) and one predicted motion has no beat (BAS 0.0).
  On two usable CPUs the call scores the clips as a 2+1 split, the third
  in a forked child, so the line also pins the join of forked shares.
- manifest: the output bytes of `manifest segment`, then `crop` at ratio
  0.7, then `split` at seeds 0 to 4, over 7 seeded sources.
"""

import os

# One BLAS thread, set before numpy is imported, as in perfbench/run.py.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from waveletcond import cli, datakit, diffusion, metrics, sgtf, training  # noqa: E402
from waveletcond.tensor import Tensor  # noqa: E402


def digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def run_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv[:2])} exited {code}")


def metrics_report(d: Path) -> bytes:
    rng = np.random.default_rng(5)
    pred, gt = d / "pred", d / "gt"
    pred.mkdir()
    gt.mkdir()
    records = []
    for k in range(3):
        rec = datakit.ClipRecord(source_id=f"spk{k}", start_frame=50 * k, end_frame=50 * (k + 1),
                                 frames_path=f"{k}.sgtf", landmark_path=f"{k}.csv",
                                 beats_path=f"{k}.beats")
        records.append(rec)
        frames = rng.random((6, 1, 24, 24))
        sgtf.write_tensor(gt / rec.frames_path, frames)
        sgtf.write_tensor(pred / rec.frames_path,
                          frames if k == 0 else frames + 0.05 * rng.standard_normal(frames.shape))
        steps = rng.uniform(0.5, 3.0, (12, 1, 1)) * np.ones((12, 20, 2))
        gt_lm = 30.0 + np.cumsum(steps, axis=0) + rng.normal(0.0, 0.2, (12, 20, 2))
        # clip 2's prediction moves at a constant speed: no displacement minimum, no beat
        pred_lm = (30.0 + np.arange(12.0)[:, None, None] * np.ones((1, 20, 2)) if k == 2
                   else gt_lm + rng.normal(0.0, 0.5, gt_lm.shape))
        metrics.save_landmarks_csv(gt / rec.landmark_path, gt_lm)
        metrics.save_landmarks_csv(pred / rec.landmark_path, pred_lm)
        metrics.save_beats(gt / rec.beats_path, np.sort(rng.uniform(0.0, 0.5, 3)))
    datakit.write_manifest(d / "clips.jsonl", records)
    report = d / "report.json"
    run_cli(["metrics", "--pred", str(pred), "--gt", str(gt), "--manifest",
             str(d / "clips.jsonl"), "--report", str(report), "--mouth-indices", "4-11"])
    return report.read_bytes()


def manifests(d: Path) -> list[bytes]:
    rng = np.random.default_rng(6)
    w, h = 320, 240
    lines = []
    for k in range(7):
        keys = sorted(int(f) for f in rng.choice(300, size=int(rng.integers(0, 4)), replace=False))
        boxes = []
        for f in keys:
            bw, bh = int(rng.integers(20, 120)), int(rng.integers(20, 120))
            boxes.append([f, [int(rng.integers(0, w - bw)), int(rng.integers(0, h - bh)), bw, bh]])
        lines.append(json.dumps({"source_id": f"src{k}", "duration_s": round(rng.uniform(1, 12), 2),
                                 "fps": 25.0, "width": w, "height": h, "face_bboxes": boxes}))
    sources, segmented, cropped = d / "sources.jsonl", d / "segmented.jsonl", d / "cropped.jsonl"
    sources.write_text("".join(line + "\n" for line in lines))
    run_cli(["manifest", "segment", "--sources", str(sources), "--out", str(segmented)])
    run_cli(["manifest", "crop", "--sources", str(sources), "--manifest", str(segmented),
             "--out", str(cropped), "--ratio", "0.7"])
    out = [segmented.read_bytes(), cropped.read_bytes()]
    for seed in range(5):
        split = d / f"split{seed}.jsonl"
        run_cli(["--seed", str(seed), "manifest", "split", "--manifest", str(cropped),
                 "--out", str(split)])
        out.append(split.read_bytes())
    return out


def main() -> None:
    cfg = diffusion.TrainConfig(steps=30, seed=11)
    dataset = training.make_synthetic_dataset(
        cfg.n_clips, cfg.frames, cfg.height, cfg.width, seed=cfg.seed,
        samples_per_frame=cfg.samples_per_frame, amplitude=cfg.amplitude)
    windows = diffusion.audio_to_windows(dataset[0].audio, cfg)
    sched = diffusion.linear_schedule(cfg.timesteps)
    lines = {}
    trained = {}
    for dtype in (np.float64, np.float32):
        name = np.dtype(dtype).name
        params = {k: Tensor(p.data.astype(dtype), requires_grad=True)
                  for k, p in diffusion.init_model_params(cfg).items()}
        trained[name], losses = training.train(dataset, cfg, params=params)
        lines[f"train_{name}"] = digest(
            *(trained[name][k].data.tobytes() for k in sorted(trained[name])),
            np.asarray(losses, dtype=np.float64).tobytes())
    for freeze in (False, True):
        report = training.ablate(replace(diffusion.TrainConfig(steps=8, n_clips=10),
                                         freeze_backbone=freeze))
        lines[f"ablate_freeze_backbone_{'on' if freeze else 'off'}"] = digest(
            training.report_to_json(report).encode())
    for name, params in trained.items():
        z = diffusion.sample(params, windows, dataset[0].frames[0], sched, cfg, seed=3)
        lines[f"sample_{name}"] = digest(z.tobytes())
    with tempfile.TemporaryDirectory() as tmp:
        lines["metrics_report"] = digest(metrics_report(Path(tmp)))
        lines["manifest"] = digest(*manifests(Path(tmp)))
    for key, value in lines.items():
        print(key, value)


if __name__ == "__main__":
    main()

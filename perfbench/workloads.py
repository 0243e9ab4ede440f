"""The benchmark's three workloads.

Each workload builds its inputs from the seed alone, runs items in a closed
loop (the next item starts when the previous one has been recorded), checks
every item's output, and can replay the fixed reference seed whose outputs
are stored in reference.json.

- train: one item is one Adam step of `training.train` at the default
  TrainConfig.  conv3x3 forward and backward, the tape sweep and adam_step
  do nearly all the work.
- sample: one item is one 50-step `diffusion.sample` call.  The same conv
  and UNet code runs forward only, so a backward-only change should not
  move it.
- score: one item is one in-process `cli.main(["metrics", ...])` over an
  8-clip manifest.  It bypasses the tensor, wavelet, msm and sfm modules,
  so a tensor-layer change should not move it.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from waveletcond import cli, datakit, diffusion, metrics, sgtf, training
from waveletcond.tensor import Tensor

REFERENCE_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Loss values start near 1 (the output conv is zero at init, so the first
# prediction is 0 and the loss is the mean of eps**2).  A loss above the cap
# means training diverged even if it is still finite.
LOSS_CAP = 10.0
TRAIN_REFERENCE_STEPS = 10
# Computing conv3x3 with tensordot in place of einsum (another summation
# order) moves the reference losses and samples by about 1e-16, while a 1%
# error in one tap of the conv input gradient moves the loss curve by about
# 4e-6.  1e-9 leaves room for the first and catches the second.
TRAIN_RTOL = 1e-9
SAMPLE_RTOL = 1e-9
SAMPLE_PROBE_STRIDE = 128
SCORE_RTOL = 1e-9
SCORE_COLUMNS = ("SSIM", "LMD", "Diversity", "BAS")


class _Stop(Exception):
    """Raised from the on_step callback to end a training run at the deadline."""


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=rtol * 1e-3)


def _all_close(got, want, rtol: float) -> bool:
    return len(got) == len(want) and all(_close(g, w, rtol) for g, w in zip(got, want))


class Train:
    name = "train"
    calibration = "conv"

    def __init__(self, seed: int, workdir: Path):
        # steps and log_every only drive the loop: the run stops at the deadline
        # and on_step marks every step boundary.
        self.cfg = replace(diffusion.TrainConfig(seed=seed), steps=10**9, log_every=1)
        cfg = self.cfg
        self.dataset = training.make_synthetic_dataset(
            cfg.n_clips, cfg.frames, cfg.height, cfg.width, seed=seed,
            samples_per_frame=cfg.samples_per_frame, amplitude=cfg.amplitude)
        self.params = diffusion.init_model_params(cfg)

    def losses(self, steps: int) -> list[float]:
        _, losses = training.train(self.dataset, replace(self.cfg, steps=steps),
                                   params=self.params)
        return losses

    def warm_up(self) -> None:
        self.losses(2)

    def run(self, record) -> None:
        def on_step(step, loss):
            if record(loss):
                raise _Stop

        while True:
            try:
                training.train(self.dataset, self.cfg, params=self.params, on_step=on_step)
            except _Stop:
                return
            except diffusion.DivergenceError:
                # the diverged step is a failed item; start again from the initial params
                if record(math.nan):
                    return

    def check(self, loss: float) -> bool:
        return math.isfinite(loss) and 0.0 < loss < LOSS_CAP

    @staticmethod
    def corrupt(loss: float) -> float:
        return math.nan

    def reference_values(self) -> dict:
        return {"steps": TRAIN_REFERENCE_STEPS, "losses": self.losses(TRAIN_REFERENCE_STEPS)}

    @staticmethod
    def matches(got: dict, want: dict) -> bool:
        return _all_close(got["losses"], want["losses"], TRAIN_RTOL)


class Sample:
    name = "sample"
    calibration = "conv"
    POOL = 2  # input pairs cycled through, so every later item repeats a seed

    def __init__(self, seed: int, workdir: Path):
        cfg = self.cfg = diffusion.TrainConfig(seed=seed)
        rng = np.random.default_rng(seed)
        # Perturb every tensor: at init the output conv is zero, which would
        # make the UNet output 0 whatever the modules before it compute.
        self.params = {
            k: Tensor(p.data + 0.05 * rng.standard_normal(p.shape), requires_grad=True)
            for k, p in diffusion.init_model_params(cfg).items()}
        clips = training.make_synthetic_dataset(
            self.POOL, cfg.frames, cfg.height, cfg.width, seed=seed,
            samples_per_frame=cfg.samples_per_frame, amplitude=cfg.amplitude)
        self.pairs = [(diffusion.audio_to_windows(c.audio, cfg), c.frames[0],
                       int(rng.integers(2**31))) for c in clips]
        self.sched = diffusion.linear_schedule(cfg.timesteps)
        self.first: dict[int, np.ndarray] = {}

    def sample(self, i: int) -> np.ndarray:
        windows, ref, seed = self.pairs[i]
        return diffusion.sample(self.params, windows, ref, self.sched, self.cfg, seed=seed)

    def warm_up(self) -> None:
        windows, ref, _ = self.pairs[0]
        diffusion.unet_forward(Tensor(np.zeros(self.cfg.latent_shape)), self.cfg.timesteps,
                               windows, ref, self.params, self.cfg)

    def run(self, record) -> None:
        for k in itertools.count():
            i = k % self.POOL
            try:
                z = self.sample(i)
            except diffusion.DivergenceError:
                z = None
            if record((i, z)):
                return

    def check(self, output) -> bool:
        i, z = output
        if z is None or z.shape != self.cfg.latent_shape or not np.all(np.isfinite(z)):
            return False
        first = self.first.setdefault(i, z)
        return np.array_equal(first, z)

    @staticmethod
    def corrupt(output):
        i, z = output
        z = z.copy()
        z.flat[0] = math.nan
        return i, z

    def reference_values(self) -> dict:
        z = self.sample(0)
        return {"shape": list(z.shape), "sum": float(z.sum()), "sumsq": float((z * z).sum()),
                "probe": z.reshape(-1)[::SAMPLE_PROBE_STRIDE].tolist()}

    @staticmethod
    def matches(got: dict, want: dict) -> bool:
        return (got["shape"] == want["shape"]
                and _all_close([got["sum"], got["sumsq"]], [want["sum"], want["sumsq"]],
                               SAMPLE_RTOL)
                and _all_close(got["probe"], want["probe"], SAMPLE_RTOL))


class Score:
    name = "score"
    calibration = "ssim"
    CLIPS, FRAMES, SIZE, POINTS = 8, datakit.CLIP_FRAMES, 64, 68
    MOUTH = "48-67"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.pred, self.gt = workdir / "pred", workdir / "gt"
        self.pred.mkdir(parents=True)
        self.gt.mkdir(parents=True)
        self.manifest = workdir / "clips.jsonl"
        self.report = workdir / "report.json"
        records = []
        # Frames are 8-bit levels / 256 and each prediction is its ground truth
        # plus a constant k / 256, so the offset is exact in float64 and the
        # reported PSNR must equal 10 log10(1 / offset**2).
        self.offsets = []
        for k in range(self.CLIPS):
            rec = datakit.ClipRecord(source_id=f"spk{k:02d}", start_frame=self.FRAMES * k,
                                     end_frame=self.FRAMES * (k + 1),
                                     frames_path=f"{k:02d}.sgtf", landmark_path=f"{k:02d}.csv",
                                     beats_path=f"{k:02d}.beats")
            records.append(rec)
            coarse = rng.integers(40, 200, (self.SIZE // 8, self.SIZE // 8))
            levels = np.kron(coarse, np.ones((8, 8), dtype=np.int64))
            levels = levels + rng.integers(-20, 21, (self.FRAMES, 1, self.SIZE, self.SIZE))
            gt_frames = levels / 256.0
            offset = int(rng.integers(3, 21)) / 256.0
            self.offsets.append(offset)
            sgtf.write_tensor(self.gt / rec.frames_path, gt_frames)
            sgtf.write_tensor(self.pred / rec.frames_path, gt_frames + offset)
            angle = np.linspace(0.0, 2.0 * np.pi, self.POINTS, endpoint=False)
            face = np.stack([32 + 20 * np.cos(angle), 32 + 24 * np.sin(angle)], axis=1)
            t = np.arange(self.FRAMES)[:, None, None]
            sway = 2.0 * np.sin(2.0 * np.pi * rng.uniform(0.5, 2.0) * t / 25.0
                                + rng.uniform(0, 2 * np.pi))
            gt_lm = face[None] + sway + rng.normal(0.0, 0.3, (self.FRAMES, self.POINTS, 2))
            metrics.save_landmarks_csv(self.gt / rec.landmark_path, gt_lm)
            metrics.save_landmarks_csv(self.pred / rec.landmark_path,
                                       gt_lm + rng.normal(0.0, 1.0, gt_lm.shape))
            metrics.save_beats(self.gt / rec.beats_path, np.sort(rng.uniform(0.0, 2.0, 5)))
        datakit.write_manifest(self.manifest, records)
        self.clip_ids = [rec.clip_id for rec in records]
        self.warm_manifest = workdir / "warm.jsonl"
        datakit.write_manifest(self.warm_manifest, records[:1])
        self.first_report: str | None = None

    def score(self, manifest: Path) -> tuple[int, str]:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["metrics", "--pred", str(self.pred), "--gt", str(self.gt),
                           "--manifest", str(manifest), "--report", str(self.report),
                           "--mouth-indices", self.MOUTH])
        return rc, self.report.read_text() if rc == 0 else ""

    def warm_up(self) -> None:
        self.score(self.warm_manifest)

    def run(self, record) -> None:
        while not record(self.score(self.manifest)):
            pass

    def check(self, output) -> bool:
        rc, text = output
        if rc != 0:
            return False
        try:
            rows = json.loads(text)["per_clip"]
            fields = [(row["clip_id"], row["PSNR"], row["SSIM"]) for row in rows]
        except (json.JSONDecodeError, KeyError, TypeError):
            return False
        if [clip_id for clip_id, _, _ in fields] != self.clip_ids:
            return False
        for (_, psnr, ssim), offset in zip(fields, self.offsets):
            if not (isinstance(psnr, float) and isinstance(ssim, float)):
                return False
            if not _close(psnr, 10.0 * math.log10(1.0 / (offset * offset)), 1e-12):
                return False
            if not -1.0 <= ssim <= 1.0:
                return False
        if self.first_report is None:
            self.first_report = text
        return text == self.first_report

    @staticmethod
    def corrupt(output):
        rc, text = output
        report = json.loads(text)
        report["per_clip"][0]["PSNR"] += 1.0
        return rc, json.dumps(report, sort_keys=True, indent=2) + "\n"

    def reference_values(self) -> dict:
        rc, text = self.score(self.manifest)
        rows = json.loads(text)["per_clip"] if rc == 0 else []
        return {col: [row[col] for row in rows] for col in SCORE_COLUMNS}

    @staticmethod
    def matches(got: dict, want: dict) -> bool:
        return all(_all_close(got[col], want[col], SCORE_RTOL) for col in SCORE_COLUMNS)


WORKLOADS = {w.name: w for w in (Train, Sample, Score)}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())

"""Hashes that pin waveletcond's numbers, to compare two versions of the code.

Run from the repository root:

    python3 scripts/bit_identity.py

Each line is a check name and the first 16 hex digits of a sha256.  Two
versions that print the same lines train, ablate and sample bit for bit
alike.  The checks, all with one BLAS thread:

- train_<dtype>: 30 Adam steps of `training.train` at TrainConfig(steps=30,
  seed=11) from `init_model_params` cast to the dtype; every parameter's
  bytes in sorted name order, then the f64 loss array.
- ablate_<freeze>: `report_to_json` bytes of `ablate` at TrainConfig(steps=8,
  n_clips=10), with `freeze_backbone` off and on.
- sample_<dtype>: `diffusion.sample` (50 steps, seed 3) from the trained
  parameters of that dtype, clip 0's audio windows and first frame; the
  bytes of the sampled latent.
"""

import os

# One BLAS thread, set before numpy is imported, as in perfbench/run.py.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from waveletcond import diffusion, training  # noqa: E402
from waveletcond.tensor import Tensor  # noqa: E402


def digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


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
    for key, value in lines.items():
        print(key, value)


if __name__ == "__main__":
    main()

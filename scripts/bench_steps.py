"""Interleaved in-process A/B timing of two git revisions, written into BENCH_<n>.json.

Run from the repository root, for example:

    python3 scripts/bench_steps.py --parent HEAD~1 --change HEAD --number 7

It adds an `in_process` section (or the `--section` given) to
BENCH_<number>.json, creating the file if it is missing and keeping every
other section.  `scripts/bench_pairs.py` rewrites that file whole, so run
it first.  As there, pass `--change "$(git stash create)"` to measure
staged, uncommitted work.

Both revisions are exported with `git archive`, and each copy's package
directory is renamed (`wc_parent`, `wc_change`) so that both import into one
process; `src/` uses only relative imports.  One process per arm then
alternates single items of each workload, A B B A ...: pair i runs the
parent first when i is even and the change first when it is odd.

Both workloads start from the initial parameters perturbed as perfbench's
`sample` perturbs them: at the initial parameters the output conv's weight
is zero, so every gradient behind it is zero and no output could show a
change to the backward.
- train: one default `training.train` step (`TrainConfig()`, steps=1) at
  draw seed 10 + i (10 untimed items per side come first); its output is
  the updated parameters, which depend on every gradient of the step.
- sample: one tape-free `diffusion.unet_forward` of the default sampler's
  shapes at timestep i % timesteps + 1 on a fixed latent; its output is
  the UNet's.

Each workload reports both sides' median time over PAIRS pairs, the median
of the per-pair ratios change / parent with a bootstrap 95% interval (2,000
resamples of the pairs), their quartiles, both sides' minor faults per item,
and whether the two sides' outputs are equal bit for bit in every pair.

Two arms run, each in its own process with one BLAS thread:
- pinned: `MALLOC_MMAP_THRESHOLD_` (32 MiB) and `MALLOC_TRIM_THRESHOLD_`
  (64 MiB), both set in that process's environment only, so heap trims do
  not move page faults between items; it answers "does the arithmetic cost
  more?".  Setting the trim threshold alone also turns off glibc's dynamic
  mmap threshold, so every buffer over 128 KiB is mapped and unmapped per
  call: never pin one without the other.
- default: glibc's heap as it comes.  With two package copies in one heap,
  its `train` steps fall into glibc's trim mode (hundreds of minor faults
  per step, where most single-package perfbench runs take a few dozen), and
  which side pays depends on the heap, not the code.  Its ratio reads that
  process's trim mode, so it cannot stand in for an end-to-end step: ask
  that of `scripts/bench_pairs.py`'s perfbench pairs.
"""

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np  # the child's BLAS thread count is set in its environment

from bench_pairs import ROOT, SIDES, export, git, sig  # run as a script: scripts/ is on the path

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
PINNED_HEAP = {"MALLOC_MMAP_THRESHOLD_": str(32 * 2**20),
               "MALLOC_TRIM_THRESHOLD_": str(64 * 2**20)}
BOOTSTRAP_RESAMPLES = 2000
PAIRS = 800  # timed pairs per workload and arm
WARMUP = 10  # untimed items per side before each workload's pairs


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", help="git revision of the baseline")
    p.add_argument("--change", help="git revision of the change")
    p.add_argument("--number", type=int, help="names BENCH_<number>.json")
    p.add_argument("--section", default="in_process",
                   help="the BENCH file key to write, e.g. in_process_aa for an A/A run")
    p.add_argument("--child", metavar="LIBDIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child is None and None in (args.parent, args.change, args.number):
        p.error("--parent, --change and --number are required")
    return args


# -- the measuring process ------------------------------------------------------


def perturbed_params(wc, cfg, rng) -> dict:
    """`cfg`'s initial parameters plus 0.05 standard normal noise, as perfbench's `sample`."""
    return {k: wc.tensor.Tensor(p.data + 0.05 * rng.standard_normal(p.shape))
            for k, p in wc.diffusion.init_model_params(cfg).items()}


class TrainStep:
    """One default `train` step per item, from one side's perturbed initial parameters."""

    def __init__(self, wc):
        self.training = wc.training
        self.cfg = wc.diffusion.TrainConfig()
        cfg = self.cfg
        self.dataset = wc.training.make_synthetic_dataset(
            cfg.n_clips, cfg.frames, cfg.height, cfg.width, seed=cfg.seed,
            samples_per_frame=cfg.samples_per_frame, amplitude=cfg.amplitude)
        self.params = perturbed_params(wc, cfg, np.random.default_rng(cfg.seed))

    def __call__(self, i: int) -> list:
        params, _ = self.training.train(self.dataset, replace(self.cfg, steps=1, seed=i),
                                        params=self.params)
        return [p.data for p in params.values()]


class UnetForward:
    """One tape-free UNet forward per item, as each of `sample`'s steps runs it."""

    def __init__(self, wc):
        self.diffusion, self.cfg = wc.diffusion, wc.diffusion.TrainConfig()
        cfg = self.cfg
        rng = np.random.default_rng(cfg.seed)
        self.params = perturbed_params(wc, cfg, rng)
        clip = wc.training.make_synthetic_dataset(
            1, cfg.frames, cfg.height, cfg.width, seed=cfg.seed,
            samples_per_frame=cfg.samples_per_frame, amplitude=cfg.amplitude)[0]
        self.windows = wc.diffusion.audio_to_windows(clip.audio, cfg)
        self.ref = clip.frames[0]
        self.z = rng.standard_normal(cfg.latent_shape)

    def __call__(self, i: int):
        t = i % self.cfg.timesteps + 1
        return self.diffusion.unet_forward(self.z, t, self.windows, self.ref, self.params,
                                           self.cfg).data


def interleave(items: dict) -> dict:
    """Time PAIRS A B B A ... pairs of items; the raw times, faults and output match.

    Each item returns a sequence of arrays, compared side by side after the pair.
    """
    for i in range(WARMUP):
        for side in SIDES:
            items[side](i)
    times = {side: [] for side in SIDES}
    faults = {side: 0 for side in SIDES}
    mismatches = 0
    for j in range(PAIRS):
        outputs = {}
        for side in SIDES if j % 2 == 0 else SIDES[::-1]:
            f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            outputs[side] = items[side](WARMUP + j)
            times[side].append(time.perf_counter() - t0)
            faults[side] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
        mismatches += not all(map(np.array_equal, outputs["parent"], outputs["change"]))
    return {"times": times, "faults": faults, "mismatches": mismatches}


def child(args) -> dict:
    sys.path.insert(0, args.child)
    # each package's __init__ imports every module that the workloads use
    sides = {side: importlib.import_module(f"wc_{side}") for side in SIDES}
    runs = {}
    for name, cls in (("train", TrainStep), ("sample", UnetForward)):
        runs[name] = interleave({side: cls(wc) for side, wc in sides.items()})
    return runs


# -- the orchestrating process ----------------------------------------------------


def export_package(rev: str, tmp: Path, side: str) -> None:
    """`rev`'s package, renamed `wc_<side>`, under `tmp`/lib."""
    export(rev, tmp / side)
    (tmp / "lib").mkdir(exist_ok=True)
    (tmp / side / "src" / "waveletcond").rename(tmp / "lib" / f"wc_{side}")


def run_arm(arm: str, lib: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in PINNED_HEAP}
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    if arm == "pinned":
        env.update(PINNED_HEAP)
    out = subprocess.run([sys.executable, __file__, "--child", str(lib)],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def summarize(run: dict) -> dict:
    t = {side: np.array(run["times"][side]) for side in SIDES}
    ratios = t["change"] / t["parent"]
    boot = np.random.default_rng(0).choice(ratios, (BOOTSTRAP_RESAMPLES, ratios.size))
    lo, hi = np.percentile(np.median(boot, axis=1), [2.5, 97.5])
    q1, _, q3 = statistics.quantiles(ratios.tolist(), n=4, method="inclusive")
    return {
        "pairs": int(ratios.size),
        "parent_median_ms": sig(1e3 * float(np.median(t["parent"]))),
        "change_median_ms": sig(1e3 * float(np.median(t["change"]))),
        "ratio_median": sig(float(np.median(ratios))),
        "ratio_ci95": [sig(lo), sig(hi)],
        "ratio_q1": sig(q1), "ratio_q3": sig(q3),
        "parent_minor_faults_per_item": sig(run["faults"]["parent"] / ratios.size),
        "change_minor_faults_per_item": sig(run["faults"]["change"] / ratios.size),
        "outputs_bit_identical": run["mismatches"] == 0,
        "output_mismatches": run["mismatches"],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child is not None:
        json.dump(child(args), sys.stdout)
        return 0
    revs = {"parent": git("rev-parse", "--verify", f"{args.parent}^{{commit}}"),
            "change": git("rev-parse", "--verify", f"{args.change}^{{commit}}")}
    arms = {}
    with tempfile.TemporaryDirectory(prefix="bench-steps-") as tmp:
        for side in SIDES:
            export_package(revs[side], Path(tmp), side)
        for arm in ("default", "pinned"):
            arms[arm] = {name: summarize(run)
                         for name, run in run_arm(arm, Path(tmp) / "lib").items()}
            for name, s in arms[arm].items():
                print(f"{arm} {name}: ratio {s['ratio_median']} "
                      f"[{s['ratio_ci95'][0]}, {s['ratio_ci95'][1]}], "
                      f"parent {s['parent_median_ms']} ms, change {s['change_median_ms']} ms, "
                      f"bit-identical {s['outputs_bit_identical']}", flush=True)
    section = {
        "parent_commit": revs["parent"][:7],
        "change_commit": revs["change"][:7],
        "how": ("Written by scripts/bench_steps.py: both revisions imported into one process "
                "per arm, single items alternating A B B A ..., one BLAS thread, unscaled "
                "wall-clock; ratio is change / parent per pair."),
        "warmup_items_per_side": WARMUP,
        "pinned_heap": PINNED_HEAP,
        "arms": arms,
    }
    out = ROOT / f"BENCH_{args.number}.json"
    report = json.loads(out.read_text()) if out.exists() else {}
    report[args.section] = section
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.section} to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Paired runs of two git revisions, written as one BENCH_<n>.json.

Run from the repository root, for example:

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD --number 7 \\
        --pairs train=10 --pairs sample=4 --pairs score=4 --note "what changed"

It writes BENCH_<number>.json at the repository root.  Without `--pairs`
the file holds only the in-process A/B and the bit-identity check: a quick
answer to "does the arithmetic cost more?".

To measure uncommitted work, stage it (`git add -A`) and pass
`--change "$(git stash create)"`, a commit of the index and working tree
that moves no branch.

Both revisions are exported once with `git archive` into two sibling
directories of equal name length under one temporary parent, so neither
side runs from the repository checkout (its location moves `sample`).

end_to_end: pair i runs every workload that has more than i pairs, each as
`perfbench/run.py --workload W --seed <100 * number + 1 + i> --seconds S --trace 0`
with S the change's BENCHMARK.json `run_seconds`, one process at a time;
an even pair index runs the parent first, an odd one the change.  Each
side's medians, quartiles (inclusive method) and every run go to the output
file, with the machine information of the first run and the per-pair win
count and median change of every end-to-end metric (the direction read from
the change's BENCHMARK.json).  Beside the metrics, each side also gets every
run's minor page faults (the `RUSAGE_CHILDREN` `ru_minflt` delta around its
subprocess, so set-up and the reference check count too) and those faults
over the run's attempted items, and the same summary of every run's unscaled
(wall-clock) `items_per_s` and `item_ms_p50` and its calibration slowdown,
which the scaled metrics divide out.  Per-layer figures are not collected.

in_process: each copy's package is linked as `wc_parent` and `wc_change` so
that both import into one process (`src/` uses only relative imports).
That process has one BLAS thread and a pinned heap: `MALLOC_MMAP_THRESHOLD_`
(32 MiB) and `MALLOC_TRIM_THRESHOLD_` (64 MiB), set in its environment
only.  With glibc's heap as it comes, two package copies in one heap put
the `train` steps in glibc's trim mode, and which side pays the page faults
depends on the heap, not the code.  Setting the trim threshold alone also
turns off glibc's dynamic mmap threshold, so every buffer over 128 KiB is
mapped and unmapped per call: never pin one without the other.  The
process alternates single items of each workload, A B B A ...: pair i runs
the parent first when i is even and the change first when it is odd.  Each
item reports its own time and minor page faults, over the part of the call
it measures.

Both workloads start from the initial parameters perturbed as perfbench's
`sample` perturbs them: at the initial parameters the output conv's weight
is zero, so every gradient behind it is zero and no output could show a
change to the backward.
- train: one default `training.train` call of TRAIN_STEPS steps
  (`TrainConfig()`) at draw seed 10 + i (10 untimed items per side come
  first); its output is the trained parameters, which depend on every
  gradient of every step.  The item is timed from the `on_step` of its
  first step to that of its last and divided by the steps between, so
  where `train` forks a child per call, the fork, the first step's
  copy-on-write faults and the reap fall outside: it times steady steps.
- sample: one tape-free `diffusion.unet_forward` of the default sampler's
  shapes at timestep i % timesteps + 1 on a fixed latent; its output is
  the UNet's.  The item is one full-batch call in this process, so it does
  not run `diffusion.sample`'s two forked frame shares; the perfbench
  `sample` pairs do.

Each workload reports both sides' median time over PAIRS pairs (per step
for `train`), the median of the per-pair ratios change / parent with a
bootstrap 95% interval (2,000 resamples of the pairs), their quartiles,
both sides' minor faults per item (per step for `train`), and whether the
two sides' outputs are equal bit for bit in every pair.
It answers "does the arithmetic cost more?" and not an end-to-end step's
cost, which the perfbench pairs measure.  After its pairs, `train` also
records each side's tracemalloc peak of one item (item 0), taken once per
side outside the timed pairs: a memory figure that glibc's heap cannot move.

bit_identity: both sides' output of `scripts/bit_identity.py`, whether
they are equal, and `differing`: the sorted check names whose two digests
differ.
"""

import argparse
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np  # the measuring process's BLAS thread count is set in its environment

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
PINNED_HEAP = {"MALLOC_MMAP_THRESHOLD_": str(32 * 2**20),
               "MALLOC_TRIM_THRESHOLD_": str(64 * 2**20)}
BOOTSTRAP_RESAMPLES = 2000
PAIRS = 800  # timed in-process pairs per workload
WARMUP = 10  # untimed items per side before each workload's pairs
TRAIN_STEPS = 5  # steps of one `train` item; the last four are timed
UNSCALED = ("items_per_s", "item_ms_p50")  # perfbench's unscaled figures kept beside the scaled
# the measuring process: run from scripts/, given the directory holding wc_parent and wc_change
MEASURER = "import bench_pairs, json, sys; json.dump(bench_pairs.measure(sys.argv[1]), sys.stdout)"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision of the baseline")
    p.add_argument("--change", required=True, help="git revision of the change")
    p.add_argument("--number", type=int, required=True,
                   help="names BENCH_<number>.json and sets the seeds")
    p.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD=N",
                   help="run N >= 2 perfbench pairs of this workload (repeatable)")
    p.add_argument("--note", default="", help="one line on what the change does")
    args = p.parse_args(argv)
    pairs = {}
    for item in args.pairs:
        name, _, count = item.partition("=")
        if not count.isdigit() or int(count) < 2:  # quartiles need two runs
            p.error(f"--pairs expects WORKLOAD=N with N >= 2, got {item!r}")
        pairs[name] = int(count)
    args.pairs = pairs
    return args


def git(*argv) -> str:
    return subprocess.run(["git", *argv], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The files of `rev` under `dest`, as `git archive` writes them."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in `tree`: its result file, parsed, and its minor faults."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                    str(seed), "--seconds", str(seconds), "--trace", "0"],
                   cwd=tree, check=True, stdout=subprocess.DEVNULL)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    record = json.loads((tree / ".perfbench-out" / f"{workload}-seed{seed}-trace0.json").read_text())
    record["minor_faults"] = faults
    return record


def bit_identity(tree: Path) -> dict:
    out = subprocess.run([sys.executable, "scripts/bit_identity.py"], cwd=tree, check=True,
                         capture_output=True, text=True).stdout
    return dict(line.split() for line in out.splitlines())


def identity_section(identity: dict) -> dict:
    """The BENCH file's `bit_identity`, from each side's `{check name: digest}`."""
    parent, change = identity["parent"], identity["change"]
    return {"command": "python3 scripts/bit_identity.py", **identity,
            "parent_equal": parent == change,
            "differing": sorted(name for name in parent.keys() | change.keys()
                                if parent.get(name) != change.get(name))}


def sig(x: float) -> float:
    """`x` to five significant digits, as the BENCH files print them."""
    return float(f"{x:.5g}")


def spread(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": sig(median), "q1": sig(q1), "q3": sig(q3), "iqr": sig(q3 - q1),
            "runs": [sig(r) for r in runs]}


def side_summary(records: list[dict], metrics: list[str]) -> dict:
    summary = {m: spread([r["metrics"][m]["value"] for r in records]) for m in metrics}
    summary["minor_faults"] = spread([r["minor_faults"] for r in records])
    summary["minor_faults_per_item"] = spread([r["minor_faults"] / r["attempted"]
                                               for r in records])
    summary["failed_of_attempted"] = (f"{sum(r['failed'] for r in records)}/"
                                      f"{sum(r['attempted'] for r in records)}")
    summary["reference_ok"] = all(r["reference"]["ok"] for r in records)
    # what the scaling hides: the wall-clock figures and the calibration's slowdown
    for m in UNSCALED:
        summary[f"unscaled_{m}"] = spread([r["unscaled"][m] for r in records])
    summary["calibration_slowdown"] = spread([r["calibration"]["slowdown"] for r in records])
    return summary


def compare(parent: dict, change: dict, better: dict) -> dict:
    """Per metric: pairs the change wins, median change, and whether it clears the parent's IQR."""
    out = {}
    for m, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        p, c = parent[m], change[m]
        wins = sum(sign * (b - a) > 0 for a, b in zip(p["runs"], c["runs"]))
        gain = sign * (c["median"] - p["median"])
        out[m] = {"better": direction, "change_wins": f"{wins}/{len(p['runs'])}",
                  "median_change_pct": sig(100.0 * (c["median"] - p["median"]) / p["median"]),
                  "gain_exceeds_parent_iqr": gain > p["iqr"],
                  "loss_exceeds_parent_iqr": -gain > p["iqr"]}
    return out


# -- in_process: the measuring process ------------------------------------------------


def perturbed_params(wc, cfg, rng) -> dict:
    """`cfg`'s initial parameters plus 0.05 standard normal noise, as perfbench's `sample`."""
    return {k: wc.tensor.Tensor(p.data + 0.05 * rng.standard_normal(p.shape))
            for k, p in wc.diffusion.init_model_params(cfg).items()}


def mark() -> tuple[float, int]:
    """The wall clock and this process's minor page faults, now."""
    return time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def per_unit(start: tuple[float, int], stop: tuple[float, int], units: int = 1):
    """Seconds and minor faults from mark `start` to mark `stop`, per unit of work."""
    return (stop[0] - start[0]) / units, (stop[1] - start[1]) / units


class TrainSteps:
    """One default `train` call of TRAIN_STEPS steps per item, from perturbed initial parameters.

    Timed over its steady steps: from the first step's `on_step` to the last's.
    """

    def __init__(self, wc):
        self.training = wc.training
        self.cfg = wc.diffusion.TrainConfig()
        cfg = self.cfg
        self.dataset = wc.training.make_synthetic_dataset(
            cfg.n_clips, cfg.frames, cfg.height, cfg.width, seed=cfg.seed,
            samples_per_frame=cfg.samples_per_frame, amplitude=cfg.amplitude)
        self.params = perturbed_params(wc, cfg, np.random.default_rng(cfg.seed))

    def __call__(self, i: int):
        marks = []
        params, _ = self.training.train(self.dataset,
                                        replace(self.cfg, steps=TRAIN_STEPS, seed=i),
                                        params=self.params,
                                        on_step=lambda step, loss: marks.append(mark()))
        return ({k: p.data for k, p in params.items()},
                *per_unit(marks[0], marks[-1], TRAIN_STEPS - 1))


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
        start = mark()
        out = self.diffusion.unet_forward(self.z, t, self.windows, self.ref, self.params,
                                          self.cfg).data
        return out, *per_unit(start, mark())


def bits(output):
    """An item's output as exact bits: an array's dtype, shape and bytes, or a name → bits dict."""
    if isinstance(output, dict):
        return {k: bits(v) for k, v in output.items()}
    return output.dtype.str, output.shape, output.tobytes()


def interleave(items: dict) -> dict:
    """Run PAIRS A B B A ... pairs of items; the raw times, faults and output mismatches.

    An item `items[side](i)` returns its output, then the seconds and the
    minor faults of what it timed.
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
            outputs[side], seconds, item_faults = items[side](WARMUP + j)
            times[side].append(seconds)
            faults[side] += item_faults
        mismatches += bits(outputs["parent"]) != bits(outputs["change"])
    return {"times": times, "faults": faults, "mismatches": mismatches}


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


def traced_peak_mib(item) -> float:
    """The tracemalloc peak of one call `item(0)`, in MiB."""
    tracemalloc.start()
    try:
        item(0)
        return sig(tracemalloc.get_traced_memory()[1] / 2**20)
    finally:
        tracemalloc.stop()


def measure(lib: str) -> dict:
    """Both workloads' summaries for the packages `wc_parent` and `wc_change` under `lib`."""
    sys.path.insert(0, lib)
    # importing `training` binds it, `diffusion` and `tensor` (which it imports) on the
    # package, so `wc.training`, `wc.diffusion` and `wc.tensor` resolve on either side
    for side in SIDES:
        importlib.import_module(f"wc_{side}.training")
    sides = {side: sys.modules[f"wc_{side}"] for side in SIDES}
    train = {side: TrainSteps(wc) for side, wc in sides.items()}
    runs = {"train": summarize(interleave(train))}
    for side in SIDES:  # untimed: tracing slows every allocation
        runs["train"][f"{side}_traced_peak_mib"] = traced_peak_mib(train[side])
    runs["sample"] = summarize(interleave({side: UnetForward(wc) for side, wc in sides.items()}))
    return runs


def in_process(trees: dict, lib: Path) -> dict:
    """`measure` run on the exported trees' packages in a pinned-heap, one-BLAS-thread child."""
    lib.mkdir()
    for side, tree in trees.items():
        (lib / f"wc_{side}").symlink_to(tree / "src" / "waveletcond", target_is_directory=True)
    env = {**os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1"), **PINNED_HEAP}
    out = subprocess.run([sys.executable, "-c", MEASURER, str(lib)], cwd=ROOT / "scripts",
                         env=env, check=True, stdout=subprocess.PIPE, text=True).stdout
    return {"how": ("Both revisions imported into one process with a pinned heap, single items "
                    "alternating A B B A ..., one BLAS thread, unscaled wall-clock; ratio is "
                    "change / parent per pair."),
            "warmup_items_per_side": WARMUP, "pinned_heap": PINNED_HEAP, **json.loads(out)}


def main(argv=None) -> int:
    args = parse_args(argv)
    revs = {"parent": git("rev-parse", "--verify", f"{args.parent}^{{commit}}"),
            "change": git("rev-parse", "--verify", f"{args.change}^{{commit}}")}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}  # names of equal length
        for side in SIDES:
            export(revs[side], trees[side])
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        unknown = set(args.pairs) - {w["name"] for w in spec["workloads"]}
        if unknown:
            raise SystemExit(f"bench_pairs: no such workload in BENCHMARK.json: {sorted(unknown)}")
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        seconds, seed_base = spec["run_seconds"], 100 * args.number + 1
        records = {w: {side: [] for side in SIDES} for w in args.pairs}
        for i in range(max(args.pairs.values(), default=0)):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload, count in args.pairs.items():
                if i >= count:
                    continue
                for side in order:
                    rec = perfbench(trees[side], workload, seed_base + i, seconds)
                    records[workload][side].append(rec)
                    print(f"pair {i} {workload} {side}: " + ", ".join(
                        f"{m} {rec['metrics'][m]['value']:.4g}" for m in better)
                          + f", minor_faults {rec['minor_faults']}, unscaled items_per_s "
                          f"{rec['unscaled']['items_per_s']:.4g}, slowdown "
                          f"{rec['calibration']['slowdown']:.4g}", flush=True)
        steps = in_process(trees, Path(tmp) / "lib")
        for name in ("train", "sample"):
            s = steps[name]
            print(f"in_process {name}: ratio {s['ratio_median']} "
                  f"[{s['ratio_ci95'][0]}, {s['ratio_ci95'][1]}], "
                  f"parent {s['parent_median_ms']} ms, change {s['change_median_ms']} ms, "
                  f"bit-identical {s['outputs_bit_identical']}", flush=True)
        print(f"in_process train traced peak: parent {steps['train']['parent_traced_peak_mib']} "
              f"MiB, change {steps['train']['change_traced_peak_mib']} MiB", flush=True)
        identity = {side: bit_identity(trees[side]) for side in SIDES}
    end_to_end = {}
    for workload, by_side in records.items():
        n = args.pairs[workload]
        sides = {side: side_summary(by_side[side], list(better)) for side in SIDES}
        end_to_end[workload] = {
            "seeds": [seed_base + i for i in range(n)], "run_seconds": seconds,
            "pairs": n, "order": "alternating: even pair index runs the parent first",
            **sides, "comparison": compare(sides["parent"], sides["change"], better)}
    report = {
        "change": args.note,
        "parent_commit": revs["parent"][:7],
        "change_commit": revs["change"][:7],
        "how": ("Written by scripts/bench_pairs.py. Parent and change ran from two sibling "
                "copies exported with git archive, one process at a time. end_to_end is read "
                "from the perfbench result files (.perfbench-out/<workload>-seed<S>-trace0.json); "
                "each pair index ran its workloads in the order listed."),
    }
    if end_to_end:
        report.update({
            "command": (f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                        "--trace 0"),
            "machine": next(iter(records.values()))["parent"][0]["machine"],
            "units": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "end_to_end": end_to_end,
        })
    report["in_process"] = steps
    report["bit_identity"] = identity_section(identity)
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

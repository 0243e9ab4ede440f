"""waveletcond benchmark: seeded train, sample and score workloads.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 15 --trace 0

With --trace 0 it sets the workload up several times, runs it for --seconds
and at least 11 items in a closed loop with one client, checks every item,
replays the reference seed, and prints the end-to-end metrics.  Times are
scaled to a reference host speed measured all through the run by a
calibration kernel (see calibrate.py); the result file keeps the unscaled
times too.  With --trace 1 it runs every workload twice, untraced and then
traced, and prints the per-layer table.
The last line of standard output is one JSON object; the full result, with
machine information and the seed, goes to .perfbench-out/.
"""

import os

# Pin BLAS and OpenMP threads before numpy is imported: one thread is the
# steadiest setting on a shared machine and never exceeds nproc.
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 5     # set up at least this many times,
SETUP_SECONDS = 1.0   # and until this much time has passed
PASS_CAL_MS = 100.0   # calibration before and after each pass of the traced run
TRACE_MIN_ITEMS = 2
TAIL_BEYOND = 10
RUN_MIN_ITEMS = TAIL_BEYOND + 1   # so that item_ms_tail is always a percentile, never the maximum

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_ms_p50": "ms",
                    "item_ms_tail": "ms", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train", "sample", "score"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt-item", type=int, default=None,
                   help="corrupt this item's output before its check (gate self-test)")
    return p.parse_args(argv)


def import_library():
    """Import waveletcond from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "waveletcond" / "__init__.py").is_file():
        raise ImportError(f"no waveletcond sources under {src}")
    sys.path.insert(0, str(src))
    import waveletcond
    if Path(waveletcond.__file__).resolve().parent != (src / "waveletcond").resolve():
        raise ImportError(f"waveletcond imported from {waveletcond.__file__}, not {src}")


def machine_info() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "platform": platform.platform()}


class Run:
    """One closed-loop pass: per item (start, output handed over, check done), and failures."""

    def __init__(self, stamps, failed):
        self.stamps, self.failed = stamps, failed

    def latencies(self, length) -> list[float]:
        return [length(start, end) for start, end, _ in self.stamps]

    def items_per_s(self, length) -> float:
        """Items over the time from each item's start to the end of its check."""
        return len(self.stamps) / sum(length(start, checked) for start, _, checked in self.stamps)


def wall(start: float, end: float) -> float:
    return end - start


def measure(workload, seconds, min_items=1, corrupt_item=None, tracer=None) -> Run:
    """Run items back to back until `seconds` have passed and `min_items` are done.

    An item's latency runs from the end of the previous item's check to the
    moment its output is handed over, so checks are not timed.
    """
    stamps: list[tuple[float, float, float]] = []
    failed = 0
    start = last = perf_counter()

    def record(output) -> bool:
        nonlocal last, failed
        end = perf_counter()
        if tracer is not None:
            tracer.end_item(last, end)
        if len(stamps) == corrupt_item:
            output = workload.corrupt(output)
        if not workload.check(output):
            failed += 1
        checked = perf_counter()
        stamps.append((last, end, checked))
        last = checked
        return checked - start >= seconds and len(stamps) >= min_items

    if tracer is not None:
        tracer.install()
    try:
        workload.run(record)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return Run(stamps, failed)


def set_up(cls, seed, workdir: Path):
    """A fresh workload and the (start, end) of its set-up."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    start = perf_counter()
    workload = cls(seed, workdir)
    workload.warm_up()
    return workload, (start, perf_counter())


def reference_check(cls, workdir: Path) -> dict:
    from workloads import REFERENCE_SEED, load_reference
    from waveletcond.diffusion import DivergenceError
    want = load_reference()[cls.name]
    workload, _ = set_up(cls, REFERENCE_SEED, workdir)
    try:
        got = workload.reference_values()
    except DivergenceError as exc:
        return {"seed": REFERENCE_SEED, "ok": False, "error": str(exc)}
    return {"seed": REFERENCE_SEED, "ok": cls.matches(got, want)}


def tail(latencies_ms: list[float]) -> dict:
    """The highest percentile with TAIL_BEYOND samples above it (needs more samples than that)."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    return {"value": ordered[n - TAIL_BEYOND - 1],
            "percentile": 100.0 * (n - TAIL_BEYOND) / n, "beyond": TAIL_BEYOND, "samples": n}


def end_to_end(args, work: Path) -> dict:
    from calibrate import BUDGET_MS, PERIOD_S, Calibrator, HostClock
    from workloads import WORKLOADS
    cls = WORKLOADS[args.workload]
    with HostClock(Calibrator(cls.calibration)) as clock:
        setups = []
        while len(setups) < SETUP_REPEATS or perf_counter() - setups[0][0] < SETUP_SECONDS:
            workload, interval = set_up(cls, args.seed, work / "inputs")
            setups.append(interval)
        run = measure(workload, args.seconds, RUN_MIN_ITEMS, corrupt_item=args.corrupt_item)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    del workload

    def summary(length) -> dict:
        setup_s = [length(*interval) for interval in setups]
        lat_ms = [t * 1e3 for t in run.latencies(length)]
        return {"setup_s": statistics.median(setup_s), "items_per_s": run.items_per_s(length),
                "item_ms_p50": statistics.median(lat_ms), "tail": tail(lat_ms),
                "setup_s_all": setup_s, "item_ms": lat_ms}

    scaled, unscaled = summary(clock.scaled), summary(clock.work)
    reference = reference_check(cls, work / "reference")
    values = {"setup_s": scaled["setup_s"], "items_per_s": scaled["items_per_s"],
              "item_ms_p50": scaled["item_ms_p50"], "item_ms_tail": scaled["tail"]["value"],
              "peak_rss_mb": peak_rss_mb}
    attempted = len(run.stamps)
    failed = run.failed if reference["ok"] else attempted
    return {"attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
            "details": {"tail": scaled["tail"], "setup_s_all": scaled["setup_s_all"],
                        "item_ms": scaled["item_ms"], "unscaled": unscaled,
                        "calibration": {"kernel": clock.calibrator.kernel,
                                        "ref_ms": clock.calibrator.ref_ms, "period_s": PERIOD_S,
                                        "budget_ms": BUDGET_MS, "runs": len(clock.runs),
                                        "slowdown": clock.slowdown()},
                        "reference": reference, "failed_frac": failed / attempted}}


# Per-layer metrics of each workload: (name, unit, value from the traced table).
def layer_metrics(name, table, counts, n, slowdown, overhead_pct) -> dict:
    def ms(span):
        return table.get(span, {}).get("ms", 0.0) / slowdown

    def self_ms(span):
        return table.get(span, {}).get("self_ms", 0.0) / slowdown

    def calls(span):
        return table.get(span, {}).get("calls", 0.0)

    gflop = counts["tensor.conv3x3.flop"] / n / 1e9
    conv = [
        ("tensor.conv3x3.fwd_ms", "ms", ms("tensor.conv3x3")),
        ("tensor.conv3x3.calls", "count", calls("tensor.conv3x3")),
        ("tensor.conv3x3.gflop", "GFLOP", gflop),
        ("tensor.conv3x3.fwd_gflops_rate", "GFLOP/s",
         gflop / (ms("tensor.conv3x3") / 1e3) if ms("tensor.conv3x3") else 0.0),
    ]
    unet = [
        ("wavelet.dwt2_ms", "ms", ms("wavelet.dwt2")),
        ("wavelet.idwt2_ms", "ms", ms("wavelet.idwt2")),
        ("wavelet.idwt2_data.calls", "count", calls("wavelet.idwt2_data")),
        ("msm.msm_forward_ms", "ms", ms("msm.msm_forward")),
        ("msm.audio_attention_ms", "ms", ms("msm.audio_attention")),
        ("msm.frame_tokens_ms", "ms", ms("msm.frame_tokens")),
        ("sfm.sfm_forward_ms", "ms", ms("sfm.sfm_forward")),
        ("diffusion.unet_forward_ms", "ms", ms("diffusion.unet_forward")),
        ("diffusion.unet_forward.self_ms", "ms", self_ms("diffusion.unet_forward")),
    ]
    rows = {
        "train": conv + [
            ("tensor.conv3x3.bwd_ms", "ms", ms("tensor.conv3x3.bwd")),
            ("tensor.backward.self_ms", "ms", self_ms("tensor.backward")),
            ("tensor.adam_step_ms", "ms", ms("tensor.adam_step")),
            ("wavelet.dwt2.bwd_ms", "ms", ms("wavelet.dwt2.bwd")),
        ] + unet + [
            ("training.train_loss_ms", "ms", ms("training.train_loss")),
            ("training.step.self_ms", "ms", self_ms("item")),
        ],
        "sample": conv + unet + [
            ("diffusion.sample_tape_frac", "frac",
             counts["diffusion.unet_forward.tape"] / max(1, calls("diffusion.unet_forward") * n)),
        ],
        "score": [
            ("metrics.ssim_ms", "ms", ms("metrics.ssim")),
            ("metrics.psnr_ms", "ms", ms("metrics.psnr")),
            ("metrics.landmarks_ms", "ms",
             ms("metrics.lmd") + ms("metrics.diversity") + ms("metrics.bas")),
            ("metrics.load_landmarks_csv_ms", "ms", ms("metrics.load_landmarks_csv")),
            ("sgtf.read_tensor_ms", "ms", ms("sgtf.read_tensor")),
            ("sgtf.read_tensor.mb", "MB", counts["sgtf.read_tensor.bytes"] / n / 1e6),
            ("datakit.read_manifest_ms", "ms", ms("datakit.read_manifest")),
            ("cli.main.self_ms", "ms", self_ms("cli.main")),
        ],
    }[name]
    rows.append(("trace.overhead_pct", "%", overhead_pct))
    return {f"{name}.{metric}": {"value": value, "unit": unit} for metric, unit, value in rows}


def traced(args, work: Path) -> dict:
    """Every workload, untraced then traced, each pass a sixth of --seconds (2 items min).

    No timer runs here, so no calibration lands inside a span.  The kernel
    runs before and after each pass instead, and the mean of the two scales
    that pass's times.
    """
    from calibrate import Calibrator
    from spans import Tracer
    from workloads import WORKLOADS
    share = args.seconds / (2 * len(WORKLOADS))
    attempted = failed = 0
    out_metrics, tables, references, overheads = {}, {}, {}, {}
    for name, cls in WORKLOADS.items():
        calibrate = Calibrator(cls.calibration)
        workload, _ = set_up(cls, args.seed, work / name)

        def timed_pass(tracer=None):
            before = calibrate(PASS_CAL_MS)
            run = measure(workload, share, TRACE_MIN_ITEMS, tracer=tracer)
            return run, (before + calibrate(PASS_CAL_MS)) / (2.0 * calibrate.ref_ms)

        plain, plain_slowdown = timed_pass()
        tracer = Tracer()
        run, slowdown = timed_pass(tracer)
        del workload
        references[name] = reference_check(cls, work / "reference")
        plain_rate, rate = plain.items_per_s(wall), run.items_per_s(wall)
        overhead_pct = ((plain_rate * plain_slowdown) / (rate * slowdown) - 1.0) * 100.0
        table = tracer.table()
        out_metrics.update(layer_metrics(name, table, tracer.counts, len(run.stamps),
                                         slowdown, overhead_pct))
        tables[name] = table
        overheads[name] = {"untraced_items_per_s": plain_rate, "traced_items_per_s": rate,
                           "untraced_slowdown": plain_slowdown, "traced_slowdown": slowdown,
                           "overhead_pct": overhead_pct}
        tracer.write_spans(OUT_DIR / f"spans-{name}-seed{args.seed}.jsonl")
        n = len(plain.stamps) + len(run.stamps)
        attempted += n
        failed += (plain.failed + run.failed) if references[name]["ok"] else n
    return {"attempted": attempted, "failed": failed, "metrics": out_metrics,
            "details": {"tables": tables, "overhead": overheads, "reference": references,
                        "failed_frac": failed / attempted}}


def print_human(args, result) -> None:
    details = result["details"]
    if args.trace:
        for name, table in details["tables"].items():
            print(f"[{name}] per item, unscaled: calls, inclusive ms, self ms")
            for span, row in sorted(table.items(), key=lambda kv: -kv[1]["ms"]):
                print(f"  {span:32s} {row['calls']:9.2f} {row['ms']:11.3f} {row['self_ms']:11.3f}")
            o = details["overhead"][name]
            print(f"  tracing overhead {o['overhead_pct']:.1f}% "
                  f"({o['untraced_items_per_s']:.3f} -> {o['traced_items_per_s']:.3f} items/s)")
    for metric, m in result["metrics"].items():
        print(f"{metric:44s} {m['value']:14.4f} {m['unit']}")
    if not args.trace:
        t = details["tail"]
        print(f"item_ms_tail is p{t['percentile']:.1f} of {t['samples']} items "
              f"({t['beyond']} beyond)")
        c, u = details["calibration"], details["unscaled"]
        print(f"times are scaled by {c['runs']} runs of the {c['kernel']} kernel "
              f"(median slowdown {c['slowdown']:.3f} against {c['ref_ms']} ms); unscaled: "
              f"setup_s {u['setup_s']:.4f}, items_per_s {u['items_per_s']:.4f}, "
              f"item_ms_p50 {u['item_ms_p50']:.4f}, item_ms_tail {u['tail']['value']:.4f}")
    print(f"failed_frac {details['failed_frac']:.4f} ({result['failed']}/{result['attempted']}); "
          f"reference replay: {details['reference']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        import_library()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    try:
        result = (traced if args.trace else end_to_end)(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = result["failed"] == 0
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_info(), "correct": correct,
              "attempted": result["attempted"], "failed": result["failed"],
              "metrics": result["metrics"], **result["details"]}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print_human(args, result)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

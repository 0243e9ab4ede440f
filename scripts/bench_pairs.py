"""Paired perfbench runs of two git revisions, written as one BENCH_<n>.json.

Run from the repository root, for example:

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD --number 7 \\
        --pairs train=10 --pairs sample=4 --pairs score=4 --note "what changed"

It writes BENCH_<number>.json at the repository root.

To measure uncommitted work, stage it (`git add -A`) and pass
`--change "$(git stash create)"`, a commit of the index and working tree
that moves no branch.

Both revisions are exported with `git archive` into two sibling directories
of equal name length under one temporary parent, so neither side runs from
the repository checkout (its location moves `sample`).  Pair i runs every
workload that has more than i pairs, each as
`perfbench/run.py --workload W --seed <100 * number + 1 + i> --seconds S --trace 0`
with S the change's BENCHMARK.json `run_seconds`, one process at a time;
an even pair index runs the parent first, an odd one the change.  Each
side's medians, quartiles (inclusive method) and every run go to the output
file, with the machine information of the first run, the per-pair win count
and median change of every end-to-end metric (the direction read from the
change's BENCHMARK.json), and both sides' output of `scripts/bit_identity.py`.
Beside the metrics, each side also gets every run's minor page faults (the
`RUSAGE_CHILDREN` `ru_minflt` delta around its subprocess, so set-up and the
reference check count too) and those faults over the run's attempted items.
Per-layer figures are not collected.
"""

import argparse
import io
import json
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision of the baseline")
    p.add_argument("--change", required=True, help="git revision of the change")
    p.add_argument("--number", type=int, required=True,
                   help="names BENCH_<number>.json and sets the seeds")
    p.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N",
                   help="run N >= 2 pairs of this workload (repeatable)")
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
        for i in range(max(args.pairs.values())):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload, count in args.pairs.items():
                if i >= count:
                    continue
                for side in order:
                    rec = perfbench(trees[side], workload, seed_base + i, seconds)
                    records[workload][side].append(rec)
                    print(f"pair {i} {workload} {side}: " + ", ".join(
                        f"{m} {rec['metrics'][m]['value']:.4g}" for m in better)
                          + f", minor_faults {rec['minor_faults']}", flush=True)
        identity = {side: bit_identity(trees[side]) for side in SIDES}
    first = next(iter(records.values()))["parent"][0]
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
        "how": ("Written by scripts/bench_pairs.py from the perfbench result files "
                "(.perfbench-out/<workload>-seed<S>-trace0.json). Parent and change ran from "
                "two sibling copies exported with git archive, one run at a time; each pair "
                "index ran its workloads in the order listed."),
        "command": (f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                    "--trace 0"),
        "machine": first["machine"],
        "units": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "end_to_end": end_to_end,
        "bit_identity": {"command": "python3 scripts/bit_identity.py", **identity,
                         "parent_equal": identity["parent"] == identity["change"]},
    }
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

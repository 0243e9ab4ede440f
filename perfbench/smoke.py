"""Smoke test of the benchmark itself.

Checks that a one-second run of every workload (which still runs at least
11 items) passes its gates and prints exactly the end-to-end metrics of
BENCHMARK.json; that a corrupted output counts as one failed item without
crashing the run; that the traced run prints exactly the per-layer metrics;
and that without the library sources the benchmark exits non-zero and
prints no result.  Takes about four minutes:

    python3 perfbench/smoke.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([*SPEC["command"], "--seed", "7", "--seconds", "1", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def require(ok: bool, what: str, proc=None) -> None:
    if not ok:
        detail = f"\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}" if proc is not None else ""
        sys.exit(f"FAIL: {what}{detail}")
    print(f"ok: {what}")


def result(proc) -> dict:
    require(proc.returncode == 0, f"exit code 0 for {proc.args[2:]}", proc)
    return json.loads(proc.stdout.splitlines()[-1])


def units(res) -> dict:
    return {name: m["unit"] for name, m in res["metrics"].items()}


def main() -> None:
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload in (w["name"] for w in SPEC["workloads"]):
        res = result(bench("--workload", workload, "--trace", "0"))
        require(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                f"{workload}: every item passes its gate")
        require(units(res) == end_to_end, f"{workload}: end-to-end metrics as in BENCHMARK.json")
        res = result(bench("--workload", workload, "--trace", "0", "--corrupt-item", "0"))
        require(not res["correct"] and res["failed"] == 1,
                f"{workload}: a corrupted output counts as one failed item")
    res = result(bench("--workload", "train", "--trace", "1"))
    require(res["correct"] and res["failed"] == 0, "traced run: every item passes its gate")
    require(units(res) == per_layer, "traced run: per-layer metrics as in BENCHMARK.json")

    scratch = ROOT / ".perfbench-out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "train", "--trace", "0", cwd=tmp)
        require(proc.returncode != 0 and not proc.stdout.strip(),
                "without the library sources: non-zero exit and no result", proc)


if __name__ == "__main__":
    main()

"""The benchmark collector's in-process measurer and the bit-identity script.

`scripts/bench_pairs.py` times two package copies in one process and says
whether their outputs match bit for bit; `scripts/bit_identity.py` prints
the hashes that pin the library's numbers.  Both run here on this tree.
"""

import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "waveletcond"
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

SUMMARY_FIELDS = {"pairs", "parent_median_ms", "change_median_ms", "ratio_median", "ratio_ci95",
                  "ratio_q1", "ratio_q3", "parent_minor_faults_per_item",
                  "change_minor_faults_per_item", "outputs_bit_identical", "output_mismatches"}
TRAIN_FIELDS = {"parent_traced_peak_mib", "change_traced_peak_mib"}


# `scripts/bit_identity.py`'s eight lines.  A change whose numbers are meant to move
# edits this tuple, so the diff records the old and the new hashes.
BIT_IDENTITY = (
    ("train_float64", "8600083741aa4766"),
    ("train_float32", "793ce6ce808fa26f"),
    ("ablate_freeze_backbone_off", "97ccfb7f3d45cf23"),
    ("ablate_freeze_backbone_on", "a4a29d9271859a27"),
    ("sample_float64", "acca466605ff1208"),
    ("sample_float32", "dd4217e97b7b589d"),
    ("metrics_report", "dc4e97211a5817f3"),
    ("manifest", "dfde508e3bdead78"),
)


def test_bit_identity_prints_its_eight_checks_as_16_hex_digits():
    out = subprocess.run([sys.executable, "scripts/bit_identity.py"], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout
    lines = tuple(tuple(line.split()) for line in out.splitlines())
    assert all(re.fullmatch("[0-9a-f]{16}", digest) for _, digest in lines)
    assert lines == BIT_IDENTITY


def test_bit_identity_section_names_the_checks_whose_digests_differ():
    same = dict(BIT_IDENTITY)
    moved = {**same, "sample_float64": "0" * 16, "extra": "1" * 16}
    del moved["manifest"]
    section = bench_pairs.identity_section({"parent": same, "change": moved})
    assert section["differing"] == ["extra", "manifest", "sample_float64"]
    assert not section["parent_equal"]
    assert section["parent"] == same and section["change"] == moved
    section = bench_pairs.identity_section({"parent": same, "change": dict(same)})
    assert section["differing"] == [] and section["parent_equal"]

@pytest.mark.parametrize("parent, change", [
    ({"a": np.zeros(2)}, {"a": np.zeros(2), "b": np.zeros(2)}),
    ({"a": np.zeros(2), "b": np.zeros(2)}, {"a": np.zeros(2)}),
    ({"a": np.zeros(2)}, {"b": np.zeros(2)}),
    (np.zeros((3, 2)), np.zeros((2, 2))),
    (np.zeros(2), np.zeros(2, dtype=np.float32)),
    (np.zeros(2), -np.zeros(2)),
], ids=["extra_param", "missing_param", "renamed_param", "leading_length", "dtype", "signed_zero"])
def test_interleave_counts_every_pair_whose_outputs_differ_in_bits(monkeypatch, parent, change):
    monkeypatch.setattr(bench_pairs, "PAIRS", 3)
    monkeypatch.setattr(bench_pairs, "WARMUP", 1)
    run = bench_pairs.interleave({"parent": lambda i: (parent, 0.0, 0),
                                  "change": lambda i: (change, 0.0, 0)})
    assert run["mismatches"] == 3
    assert bench_pairs.interleave({"parent": lambda i: (parent, 0.0, 0),
                                   "change": lambda i: (parent, 0.0, 0)})["mismatches"] == 0


@pytest.fixture
def lib(tmp_path, monkeypatch):
    """A directory holding two copies of this tree's package, `wc_parent` and `wc_change`."""
    for side in bench_pairs.SIDES:
        shutil.copytree(PACKAGE, tmp_path / f"wc_{side}",
                        ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(bench_pairs, "PAIRS", 3)
    monkeypatch.setattr(bench_pairs, "WARMUP", 1)
    yield tmp_path
    for name in [m for m in sys.modules if m.partition(".")[0] in ("wc_parent", "wc_change")]:
        del sys.modules[name]


def test_measurer_on_two_copies_of_one_package_reports_identical_outputs(lib):
    runs = bench_pairs.measure(str(lib))
    assert set(runs) == {"train", "sample"}
    assert set(runs["train"]) == SUMMARY_FIELDS | TRAIN_FIELDS
    assert set(runs["sample"]) == SUMMARY_FIELDS
    for summary in runs.values():
        assert summary["pairs"] == 3
        assert summary["outputs_bit_identical"] and summary["output_mismatches"] == 0
    # one default step holds its params, Adam moments, graph and gradients: a few MiB,
    # the same on two copies of one package
    parent, change = (runs["train"][f"{side}_traced_peak_mib"] for side in bench_pairs.SIDES)
    assert 1.0 < parent < 64.0
    assert change == pytest.approx(parent, rel=0.01)


def test_measurer_reports_train_mismatches_when_adam_eps_changes(lib):
    tensor = lib / "wc_change" / "tensor.py"
    text = tensor.read_text()
    assert text.count("ADAM_EPS = 1e-8\n") == 1
    tensor.write_text(text.replace("ADAM_EPS = 1e-8\n", "ADAM_EPS = 1e-7\n"))
    runs = bench_pairs.measure(str(lib))
    assert runs["train"]["output_mismatches"] == 3
    assert not runs["train"]["outputs_bit_identical"]
    assert runs["sample"]["outputs_bit_identical"]


def perfbench_record(scale: float) -> dict:
    """The parts of one perfbench result file that the collector reads."""
    return {"metrics": {"items_per_s": {"value": 10.0 * scale},
                        "item_ms_p50": {"value": 100.0 / scale}},
            "unscaled": {"items_per_s": 6.0 * scale, "item_ms_p50": 160.0 / scale},
            "calibration": {"slowdown": 1.5 * scale},
            "minor_faults": 1000, "attempted": 20, "failed": 0, "reference": {"ok": True}}


def test_side_summary_keeps_the_unscaled_figures_and_the_slowdown():
    summary = bench_pairs.side_summary([perfbench_record(1.0), perfbench_record(2.0)],
                                       ["items_per_s", "item_ms_p50"])
    assert summary["unscaled_items_per_s"] == {"median": 9.0, "q1": 7.5, "q3": 10.5,
                                               "iqr": 3.0, "runs": [6.0, 12.0]}
    assert summary["unscaled_item_ms_p50"]["runs"] == [160.0, 80.0]
    assert summary["calibration_slowdown"]["median"] == 2.25
    assert summary["items_per_s"]["runs"] == [10.0, 20.0]  # the scaled figures, as before
    assert summary["minor_faults_per_item"]["median"] == 50.0
    assert summary["failed_of_attempted"] == "0/40" and summary["reference_ok"]

"""Write reference.json: each workload's outputs for the reference seed.

Run from the repository root, only when a change of outputs is intended:

    python3 perfbench/make_reference.py
"""

import json
import shutil

from run import OUT_DIR, import_library, set_up


def main() -> None:
    import_library()
    from workloads import REFERENCE_PATH, REFERENCE_SEED, WORKLOADS
    work = OUT_DIR / "make-reference"
    try:
        reference = {name: set_up(cls, REFERENCE_SEED, work / name)[0].reference_values()
                     for name, cls in WORKLOADS.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

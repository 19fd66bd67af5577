"""Regenerate reference.json from full-size runs of the current code.

    python3 bench/make_reference.py

Only for a commit whose outputs are trusted: the benchmark checks every
later job against this file.
"""
import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
import workloads  # noqa: E402


def main():
    work = BENCH / ".work"
    work.mkdir(exist_ok=True)
    reference = {}
    try:
        for cls in workloads.WORKLOADS.values():
            workload = cls(0, work, reference={})
            workload.setup()
            reference[cls.name] = workload.make_reference()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()

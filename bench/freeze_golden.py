"""Freeze the 200 acceptance-grid verdicts as bench/grid_golden.jsonl.

    python3 bench/freeze_golden.py

One line per instance, in the grid's canonical order: the instance and its
``Verdict.to_json()``, keys sorted.  The benchmark's grid workload counts
the verdicts that differ from this file as ``engine.golden_mismatch``.
Regenerate only when a verdict change is intended and explained.
"""

import json
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main():
    lines = []
    for inst in workloads.grid_instances():
        verdict = workloads.run_op(inst, None, None)
        row = {"instance": {k: inst[k] for k in ("octonion", "d", "cubic")}, "verdict": verdict}
        lines.append(json.dumps(row, sort_keys=True))
    (HERE / "grid_golden.jsonl").write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()

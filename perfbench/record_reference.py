"""Record ``reference.json``: the rows every benchmark run is checked against.

    python3 perfbench/record_reference.py

Run from a checkout root of the commit whose rows are the reference.  Runs
inline sweeps of every cell any workload can produce and stores each cell's
row without its seed-determined fields, plus each fixed-grid workload's rows
checksum and per-status counts.  Re-record only when the rows are meant to
change; a benchmark run never writes this file.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads as wl

GRIDS = (
    {"algorithms": ["greedy", "proposal"], "deltas": [*range(3, 11), 12, 13], "chains": ["ec"]},
    {"algorithms": ["proposal"], "deltas": [3, 4], "chains": ["po", "oi", "id"]},
)


def inline_rows(grid: dict, env: dict) -> list:
    scratch = Path.cwd() / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        result = Path(tmp) / "result.json"
        subprocess.run(
            [sys.executable, str(wl.HERE / "worker.py"), "--grid", json.dumps(grid),
             "--result", str(result)],
            env=env, check=True,
        )
        return json.loads(result.read_text(encoding="utf-8"))["rows"]


def main() -> int:
    import run

    env = run.child_env(Path.cwd())
    cells = {}
    for grid in GRIDS:
        for row in inline_rows(grid, env):
            cells[wl.cell_name(row["algorithm"], row["delta"], row["chain"])] = wl.normalised(row)
    workloads = {}
    for name in wl.SWEEPS:
        rows = [
            dict(cells[wl.cell_name(a, d, c)], seed=s, key=f"{a}/d{d}/{c}/s{s}")
            for a, d, c, s in wl.grid_cells(wl.sweep_grid(name, 0))
        ]
        workloads[name] = {
            "rows_sha256": wl.rows_checksum(rows),
            "status_counts": wl.status_counts(rows),
        }
    reference = {"cells": dict(sorted(cells.items())), "workloads": workloads}
    wl.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {wl.REFERENCE} ({len(cells)} cells)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads, their seeded inputs and their reference rows.

Nothing here imports ``repro``: the entry point (``run.py``) stays a pure
load generator and every byte of program work happens in the child
interpreters it starts.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

#: inline sweep workloads: grid axes (the cell seed comes from --seed)
SWEEPS = {
    "adversary-deep": {"algorithms": ["greedy", "proposal"], "deltas": [12, 13], "chains": ["ec"]},
    "sim-chain": {"algorithms": ["proposal"], "deltas": [3, 4], "chains": ["po", "oi", "id"]},
}

SERVICE = "service-mixed"
SERVICE_JOBS = 100
SERVICE_TENANTS = ("tenant-a", "tenant-b")
SERVICE_DELTAS = tuple(range(3, 11))

WORKLOADS = tuple(SWEEPS) + (SERVICE,)


def sweep_grid(workload: str, seed: int) -> dict:
    """The sweep workload's grid; ``seed`` only names the cells (keys)."""
    return dict(SWEEPS[workload], seeds=[seed])


def service_jobs(seed: int) -> list:
    """The seeded closed-loop job list: alternating tenants, each job
    greedy + proposal over three distinct Delta drawn from 3..10."""
    rng = random.Random(seed)
    jobs = []
    for index in range(SERVICE_JOBS):
        deltas = sorted(rng.sample(SERVICE_DELTAS, 3))
        jobs.append(
            {
                "tenant": SERVICE_TENANTS[index % len(SERVICE_TENANTS)],
                "grid": {"algorithms": ["greedy", "proposal"], "deltas": deltas, "chains": ["ec"]},
            }
        )
    return jobs


def grid_cells(grid: dict) -> list:
    """(algorithm, delta, chain, seed) of every cell in ``grid``."""
    return [
        (algorithm, delta, chain, seed)
        for algorithm in grid["algorithms"]
        for chain in grid.get("chains", ["ec"])
        for delta in grid["deltas"]
        for seed in grid.get("seeds", [0])
    ]


def cell_name(algorithm: str, delta: int, chain: str) -> str:
    """Reference key of a cell: its grid point without the seed."""
    return f"{algorithm}/d{delta}/{chain}"


def row_bytes(row: dict) -> bytes:
    return json.dumps(row, sort_keys=True, separators=(",", ":")).encode("utf-8")


def normalised(row: dict) -> dict:
    """The row without the fields the seed alone determines."""
    return {k: v for k, v in row.items() if k not in ("seed", "key")}


def rows_checksum(rows) -> str:
    """SHA-256 over the seed-normalised rows in key order."""
    digest = hashlib.sha256()
    for row in sorted(rows, key=lambda r: cell_name(r["algorithm"], r["delta"], r["chain"])):
        digest.update(row_bytes(normalised(row)) + b"\n")
    return digest.hexdigest()


def status_counts(rows) -> dict:
    counts: dict = {}
    for row in rows:
        counts[row.get("status", "?")] = counts.get(row.get("status", "?"), 0) + 1
    return dict(sorted(counts.items()))


def span_times(trace: dict, name: str) -> dict:
    """Wall seconds of a sweep trace's spans called ``name``, summed per
    ``key`` attribute (spans without one are summed under ``None``)."""
    times: dict = {}
    stack = list(trace.get("spans", []))
    while stack:
        span = stack.pop()
        if span["name"] == name:
            key = span["attrs"].get("key")
            times[key] = times.get(key, 0.0) + span["duration"]
        stack.extend(span.get("children", []))
    return times


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def check_rows(reference: dict, grid: dict, rows) -> list:
    """Keys of the grid's cells whose row is missing or differs from the
    reference; every cell of ``grid`` is one attempted operation."""
    cells = reference["cells"]
    by_key = {row.get("key"): row for row in rows}
    bad = []
    for algorithm, delta, chain, seed in grid_cells(grid):
        key = f"{algorithm}/d{delta}/{chain}/s{seed}"
        expected = cells.get(cell_name(algorithm, delta, chain))
        row = by_key.get(key)
        if row is None or expected is None:
            bad.append(key)
            continue
        want = dict(expected, seed=seed, key=key)
        if row_bytes(row) != row_bytes(want):
            bad.append(key)
    return bad

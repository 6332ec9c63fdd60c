"""Resumable sweep results: JSONL shards plus one merged summary.

Each worker appends finished rows to its own ``shard-<k>.jsonl`` file — one
JSON object per line, flushed per row — so a sweep killed mid-flight loses
at most the row being written.  :meth:`ResultStore.completed` reads every
shard back and reports which cell keys are already done; the engine skips
those on resume.

Crash tolerance is explicit about what each damage class means:

* a torn **final** line is the expected signature of a writer killed
  mid-``write`` — it is dropped silently (counted in ``last_scan``);
* torn or garbage lines **mid-file** mean something else damaged the shard
  (truncation faults, disk corruption) — they are skipped too, but loudly:
  a ``RuntimeWarning`` names the file and line, and the ambient tracer's
  ``engine.store`` counter records it, so a sweep never aborts on a bad
  row yet the damage is never silent;
* duplicate cell keys (a shard killed after flushing a row but before the
  resume bookkeeping saw it, then re-run) keep the **first** occurrence —
  the dedup guard that makes resumed sweeps unable to double-count rows.

When a sweep finishes, :meth:`ResultStore.write_summary` merges all rows —
sorted by cell key, so worker scheduling never changes the document — into
``summary.json`` next to the shards, alongside the grid spec, aggregated
cache statistics, any failed cells, and the recovery account.  The merged
trace document lives in ``trace.json``.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import Dict, List, Optional

from ..obs.tracer import current_tracer
from .faults import active_injector

__all__ = ["STORE_FORMAT", "ResultStore"]

STORE_FORMAT = "repro-sweep-v1"


class ResultStore:
    """Shard files and the merged summary for one sweep output directory."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: damage accounting of the most recent :meth:`rows` scan
        self.last_scan: Dict[str, int] = {"torn_final": 0, "corrupt_lines": 0, "duplicates": 0}

    # ------------------------------------------------------------------
    # shards
    # ------------------------------------------------------------------
    def shard_path(self, shard: int) -> Path:
        return self.directory / f"shard-{shard}.jsonl"

    def append(self, shard: int, row: dict) -> None:
        """Append one finished row to a shard, flushed immediately.

        A shard that ends in a torn line (no trailing newline) gets one
        first, so the new row starts a line of its own instead of being
        glued onto the fragment and lost with it.
        """
        path = self.shard_path(shard)
        line = json.dumps(row, sort_keys=True, default=str) + "\n"
        with path.open("a+b") as fh:
            end = fh.tell()
            if end:
                fh.seek(end - 1)
                if fh.read(1) != b"\n":
                    line = "\n" + line
            fh.write(line.encode("utf-8"))
            fh.flush()
        injector = active_injector()
        if injector is not None:
            injector.on_store_append(path, row.get("key"))

    def rows(self) -> List[dict]:
        """Every persisted row across all shards, deduplicated and sorted.

        Damage policy: a truncated *final* line is dropped silently (the
        expected killed-writer signature); torn or garbage lines anywhere
        else are skipped with a ``RuntimeWarning`` and an ``engine.store``
        counter bump; duplicate cell keys keep the first occurrence.  The
        per-class tallies of this scan land in ``self.last_scan``.
        """
        scan = {"torn_final": 0, "corrupt_lines": 0, "duplicates": 0}
        metrics = current_tracer().metrics
        seen: Dict[str, dict] = {}
        for path in sorted(self.directory.glob("shard-*.jsonl")):
            # bytes + lossy decode: corruption may not even be valid UTF-8,
            # and an undecodable shard must degrade line-wise, not abort
            lines = path.read_bytes().decode("utf-8", errors="replace").splitlines()
            for lineno, line in enumerate(lines, start=1):
                if not line.strip():
                    continue
                row: Optional[dict] = None
                try:
                    parsed = json.loads(line)
                    if isinstance(parsed, dict) and parsed.get("key") is not None:
                        row = parsed
                except json.JSONDecodeError:
                    row = None
                if row is None:
                    if lineno == len(lines):
                        scan["torn_final"] += 1  # killed mid-write: expected
                    else:
                        scan["corrupt_lines"] += 1
                        metrics.counter("engine.store", outcome="corrupt_line").inc()
                        warnings.warn(
                            f"{path.name}:{lineno}: unreadable shard line skipped "
                            f"(mid-file corruption, not a torn final write)",
                            RuntimeWarning,
                            stacklevel=2,
                        )
                    continue
                key = row["key"]
                if key in seen:
                    scan["duplicates"] += 1
                    metrics.counter("engine.store", outcome="duplicate_row").inc()
                    continue
                seen[key] = row
        self.last_scan = scan
        return [seen[key] for key in sorted(seen)]

    def completed(self) -> Dict[str, dict]:
        """Cell key -> persisted row for every already-finished cell."""
        return {row["key"]: row for row in self.rows()}

    def count_rows(self) -> int:
        """Cheap non-empty-line count across shards, for progress polling.

        Skips JSON decoding and the damage policy entirely, so the sweep's
        progress monitor can poll it frequently while workers are flushing.
        Torn lines and duplicates make this an upper-bound approximation —
        exact counts come from :meth:`rows` (and the progress ``final``
        event, which is derived from them).
        """
        total = 0
        for path in sorted(self.directory.glob("shard-*.jsonl")):
            try:
                data = path.read_bytes()
            except OSError:  # a shard mid-replacement reads as zero rows
                continue
            total += sum(1 for line in data.splitlines() if line.strip())
        return total

    # ------------------------------------------------------------------
    # summary
    # ------------------------------------------------------------------
    @property
    def summary_path(self) -> Path:
        return self.directory / "summary.json"

    @property
    def trace_path(self) -> Path:
        return self.directory / "trace.json"

    def write_summary(
        self,
        grid: dict,
        rows: List[dict],
        cache_stats: Optional[dict] = None,
        workers: Optional[int] = None,
        failed: Optional[List[dict]] = None,
        recovery: Optional[dict] = None,
    ) -> Path:
        """Write the merged ``summary.json``; rows are sorted by cell key.

        ``failed`` names cells whose execution error survived every retry
        and restart (each entry carries the cell key and the error), and
        ``recovery`` is the engine's restart/reassignment account — both
        empty on a healthy run.
        """
        document = {
            "format": STORE_FORMAT,
            "grid": grid,
            "workers": workers,
            "cells": len(rows),
            "cache": cache_stats,
            "failed": failed or [],
            "recovery": recovery or {},
            "rows": sorted(rows, key=lambda r: r.get("key", "")),
        }
        self.summary_path.write_text(
            json.dumps(document, indent=2, sort_keys=True, default=str) + "\n",
            encoding="utf-8",
        )
        return self.summary_path

    def read_summary(self) -> Optional[dict]:
        """The previously written summary, or ``None``."""
        try:
            return json.loads(self.summary_path.read_text(encoding="utf-8"))
        except (FileNotFoundError, json.JSONDecodeError):
            return None

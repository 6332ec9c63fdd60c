"""One cold inline sweep pass in a fresh interpreter.

    python3 perfbench/worker.py --grid JSON --result FILE [--layers | --setup-only]

Run with ``src`` on ``PYTHONPATH``.  The pass imports ``repro``, builds its
grid, records the moment it is ready (``time.monotonic``, comparable with
the parent's clock), runs one inline ``repro.api.sweep`` call and writes a
JSON result: rows, wall time, per-cell times from the sweep's own trace,
cache stats, peak RSS and, with ``--layers``, the layer clocks.
``--setup-only`` stops once ready.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402 - after the path fix above
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--layers", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from repro import api

    clock = None
    if args.layers:
        clock = layers.LayerClock()
        layers.install(clock)
    grid = json.loads(args.grid)
    ready = time.monotonic()
    if args.setup_only:
        Path(args.result).write_text(json.dumps({"ready": ready}), encoding="utf-8")
        return 0

    start = time.perf_counter()
    report = api.sweep(grid, workers=0, backend="inline")
    sweep_s = time.perf_counter() - start

    result = {
        "ready": ready,
        "sweep_s": sweep_s,
        "rows": list(report.rows),
        "cache": report.cache.as_dict(),
        "cell_s": workloads.span_times(report.trace or {}, "engine.cell"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": clock.snapshot() if clock is not None else None,
    }
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""``repro serve-api`` with the layer clocks installed.

    python3 perfbench/serve.py --layers-out FILE -- <serve-api options>

Run with ``src`` on ``PYTHONPATH``.  Installs :mod:`layers` in this
process, then hands over to the repository's own CLI.  When the server is
interrupted (SIGINT) and has stopped, the layer clocks are written to FILE.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402 - after the path fix above


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--layers-out", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args

    clock = layers.LayerClock()
    layers.install(clock)
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve-api", *serve_args])
    finally:
        Path(args.layers_out).write_text(json.dumps(clock.snapshot()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())

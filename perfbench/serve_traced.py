"""Start ``repro serve`` with the layer wrappers installed.

Usage: ``python3 perfbench/serve_traced.py --port 0 --spans out.jsonl``

Installs :class:`perfbench.layers.Instruments` (serve layers included) in
this process, runs :func:`repro.serve.api.run_server` with its defaults,
and once the server returns on SIGTERM writes every recorded span to
``--spans`` in ``repro.trace/v1`` JSONL form.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import layers  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args(argv)

    from repro.serve.api import run_server

    recorder = layers.SpanRecorder()
    instruments = layers.Instruments(recorder, serve=True).install()
    try:
        code = run_server(port=args.port)
    finally:
        instruments.uninstall()
        recorder.write_jsonl(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())

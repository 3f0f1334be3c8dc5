"""Extraction chunk-size sweep: wall-clock vs ``extraction_chunk_size``.

Times :func:`repro.core.build_candidate_set` on the BENCH_1 scenario for
each sweep chunk size in a grid of powers of two — the measurement behind
``DEFAULT_EXTRACTION_CHUNK`` in ``repro.core.placement``.  Chunking only
bounds memory and task granularity, so every chunk size yields the same
candidate set (asserted here by comparing serialized blobs before any
timing is reported).

The result is written as JSON (default: ``BENCH_3.json`` at the repo
root) with the shared provenance ``meta`` stamp.

Usage::

    PYTHONPATH=src python benchmarks/bench_backends.py
    PYTHONPATH=src python benchmarks/bench_backends.py --smoke --out /tmp/bench.json
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

import numpy as np

from repro.core import build_candidate_set
from repro.core.reuse import serialize_candidate_set
from repro.experiments import random_scenario
from repro.obs import write_bench_json

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 20260806
CHUNK_GRID = (64, 128, 256, 512, 1024, 2048, 4096)


def make_scenario(seed: int, device_multiple: int, charger_multiple: int):
    return random_scenario(
        np.random.default_rng(seed),
        device_multiple=device_multiple,
        charger_multiple=charger_multiple,
    )


def bench_chunk_sweep(args, repeats: int, grid=CHUNK_GRID) -> dict:
    """Best-of-*repeats* extraction wall-clock per chunk size."""
    timings: dict[str, float] = {}
    blobs: set[bytes] = set()
    for chunk in grid:
        runs = []
        for _ in range(repeats):
            scenario = make_scenario(args.seed, args.devices, args.chargers)
            t0 = time.perf_counter()
            cs = build_candidate_set(scenario, extraction_chunk_size=chunk)
            runs.append(time.perf_counter() - t0)
        blobs.add(serialize_candidate_set(cs))
        timings[str(chunk)] = round(min(runs), 4)
    if len(blobs) != 1:
        raise SystemExit("candidate sets differ across chunk sizes")
    best = min(timings, key=lambda k: timings[k])
    return {"seconds_by_chunk": timings, "best_chunk": int(best), "byte_identical": True}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--devices", type=int, default=4, help="device multiple (of 4,3,2,1)")
    parser.add_argument("--chargers", type=int, default=3, help="charger multiple (of 1,2,3)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=str, default=str(REPO_ROOT / "BENCH_3.json"))
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny scenario, two chunk sizes, single repeat (CI completeness check)",
    )
    args = parser.parse_args(argv)

    repeats = args.repeats
    chunk_grid = CHUNK_GRID
    if args.smoke:
        args.devices, args.chargers, repeats = 1, 1, 1
        chunk_grid = (256, 1024)

    sweep = bench_chunk_sweep(args, repeats, chunk_grid)
    print(f"chunk sweep       : {sweep['seconds_by_chunk']}")
    print(f"best chunk        : {sweep['best_chunk']}")

    payload = {
        "scenario": {
            "seed": args.seed,
            "device_multiple": args.devices,
            "charger_multiple": args.chargers,
        },
        "repeats": repeats,
        "smoke": args.smoke,
        "chunk_sweep": sweep,
    }
    out = write_bench_json(Path(args.out), "backends", payload)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

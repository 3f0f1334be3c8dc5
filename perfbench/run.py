"""HIPO benchmark: one command for every workload.

Usage::

    python3 perfbench/run.py --workload cold_solve --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
makes the separate traced run that reports the per-layer metrics.  Every
metric is printed by name and unit, with the sample count behind each
timing; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with provenance, is written under ``.perfbench_out/``.

Workloads, metrics and the layer → metric mapping: ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import stats  # noqa: E402
from perfbench.common import END_TO_END, OUT_DIR, PER_LAYER, Result, calibration_chunk  # noqa: E402

WORKLOADS = ("cold_solve", "budget_sweep", "serve_mix")


def calibration_s(repeats: int = 25) -> float:
    """Median time of the fixed calibration chunk, so results taken on
    different hosts are not compared silently."""
    return statistics.median(calibration_chunk() for _ in range(repeats))


def _run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Result:
    if workload == "serve_mix":
        from perfbench.serve_mix import serve_mix

        return serve_mix(seed, seconds, trace, smoke)
    from perfbench import direct

    return getattr(direct, workload)(seed, seconds, trace, smoke)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="HIPO benchmark runner")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    try:
        import numpy  # noqa: F401

        import repro  # noqa: F401
        from repro.core import solve_hipo  # noqa: F401
        from repro.serve import api  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    res = _run(args.workload, args.seed, args.seconds, trace, args.smoke)

    from repro.obs import run_meta

    wanted = PER_LAYER if trace else END_TO_END
    missing = [name for name in wanted if name not in res.metrics]
    if missing:
        res.fail(f"metrics not measured: {', '.join(missing)}")
    meta = run_meta()
    meta["calibration_s"] = calibration_s()
    meta["host_scale"] = res.host_scale

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, unit in wanted.items():
        value = res.metrics.get(name)
        n = res.samples.get(name)
        shown = "MISSING" if value is None else f"{value:.6g} {unit}"
        if n is not None:
            shown += f"  (n={n})"
        if name in res.raw:
            shown += f"  [as measured: {res.raw[name]:.6g}]"
        print(f"  {name:34s} {shown}")
        if name in res.tails:
            q, tail_ms = res.tails[name]
            print(f"    tail: p{q:g} {tail_ms:.6g} ms (highest percentile with {stats.MIN_TAIL_SAMPLES} samples beyond; not gated)")
        elif name == "latency_p50_ms" and n is not None:
            print(f"    tail: none resolved ({n} samples, fewer than {stats.MIN_TAIL_SAMPLES} beyond any of p75-p99)")
    print(f"  failed_ratio                       {res.failed / max(1, res.attempted):.6g}  ({res.failed}/{res.attempted})")
    print(f"counts {json.dumps(res.counts, sort_keys=True)}")
    print(f"digest {res.digest}")
    for note in res.notes:
        print(note)
    print(
        "provenance "
        + json.dumps({k: meta.get(k) for k in ("git_sha", "cpu_count", "python", "numpy", "backend", "calibration_s", "host_scale")})
    )
    for err in res.errors[:20]:
        print(f"CHECK FAILED: {err}")

    metrics = {name: {"value": float(res.metrics.get(name, 0.0)), "unit": unit} for name, unit in wanted.items()}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": metrics,
        "samples": res.samples,
        "raw": res.raw,
        "tails": res.tails,
        "counts": res.counts,
        "digest": res.digest,
        "errors": res.errors,
        "meta": meta,
    }
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1, default=str))
    result = {
        "correct": not res.errors,
        "attempted": max(1, res.attempted),
        "failed": res.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

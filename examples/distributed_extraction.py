#!/usr/bin/env python
"""Distributed PDCS extraction (Sec. 5): tasks, LPT, real process pool.

Demonstrates the three layers of the distributed extractor:

1. task decomposition — one candidate-extraction task per device over its
   2*dmax neighbour set (Algorithm 4);
2. simulated cluster — measure each task's serial cost once, assign with
   LPT, report the makespan for several machine counts (Fig. 12's metric);
3. real parallelism — build the candidate set with ``workers=N``, which
   runs the same tasks and the PDCS sweeps on a local process pool, and
   check its per-type position counts match the serial build.

Run:  python examples/distributed_extraction.py
"""

import os
import time

import numpy as np

from repro.core import assign_tasks, build_candidate_set, measure_task_costs
from repro.experiments import random_scenario


def main() -> None:
    scenario = random_scenario(np.random.default_rng(9), device_multiple=2)
    print(f"{scenario.num_devices} devices -> {scenario.num_devices} extraction tasks\n")

    # 1 + 2: measure serial task costs and simulate the cluster.
    meas = measure_task_costs(scenario)
    print(f"serial extraction: {meas.serial_total * 1e3:.1f} ms total")
    print(f"{'machines':>9} {'LPT makespan (ms)':>18} {'speedup':>8}")
    for m in (1, 2, 5, 10, 20):
        span = assign_tasks(meas.durations, m).makespan
        print(f"{m:>9d} {span * 1e3:>18.1f} {meas.serial_total / max(span, 1e-12):>8.2f}x")

    # 3: real process pool (workers capped by this machine's cores).
    workers = min(4, os.cpu_count() or 1)
    t0 = time.perf_counter()
    parallel = build_candidate_set(scenario, workers=workers)
    wall = time.perf_counter() - t0
    print(f"\nprocess pool ({workers} workers): {wall * 1e3:.1f} ms wall clock")

    serial = build_candidate_set(scenario)
    for name, count in parallel.positions_per_type.items():
        status = "match" if serial.positions_per_type[name] == count else "MISMATCH"
        print(f"  {name}: {count} candidate positions ({status} with serial)")
    status = "match" if serial.num_candidates == parallel.num_candidates else "MISMATCH"
    print(f"  {parallel.num_candidates} candidates ({status} with serial)")

if __name__ == "__main__":
    main()

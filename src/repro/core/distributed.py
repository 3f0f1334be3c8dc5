"""Distributed PDCS extraction (§5, Algorithms 4 and 5).

The candidate extraction decomposes into independent per-device tasks:
task *i* generates the candidates of device *i*'s neighbour set (devices
within ``2·dmax``), pairing *i* only with larger-indexed neighbours to avoid
duplicate work.  Tasks are assigned to ``m`` parallel machines with the LPT
rule [40] (4/3-approximate makespan); with ``m ≥ No`` each task gets its own
machine (Algorithm 5's first branch).

The task itself is :meth:`CandidateGenerator.device_task`; it runs two
ways:

* :func:`simulate_distributed_times` — measures each task's serial cost once
  and reports the LPT makespan for each machine count.  This is the
  deterministic substitute for the paper's machine cluster (Fig. 12 plots
  time *ratios*, which is exactly makespan / serial-total).
* :func:`positions_by_type_pooled` — a real ``ProcessPoolExecutor``
  execution of the tasks on an :func:`extraction_pool`, which is what
  ``build_candidate_set(workers=N)`` runs.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..backend import activate_backend
from ..model.network import Scenario
from ..obs import NULL_TRACER, MetricsRegistry, Tracer
from ..opt.scheduling import Schedule, lpt_schedule
from .candidates import CandidateGenerator, merge_positions

__all__ = [
    "SolveCancelled",
    "TaskMeasurement",
    "check_cancel",
    "extraction_pool",
    "measure_task_costs",
    "simulate_distributed_times",
    "assign_tasks",
    "positions_by_type_pooled",
]


class SolveCancelled(RuntimeError):
    """A cooperative cancellation fired mid-solve.

    The extraction pipeline polls a caller-supplied *cancel* token (anything
    with an ``is_set() -> bool``, e.g. a ``threading.Event``) between
    per-device tasks and between sweep chunks.  Long solves therefore stop
    within one task of the token being set — this is how ``repro.serve``
    implements job cancellation and per-job timeouts without killing worker
    processes.
    """


def check_cancel(cancel) -> None:
    """Raise :class:`SolveCancelled` when the *cancel* token is set.

    ``None`` (the default everywhere) is a no-op, so the hook costs one
    attribute check on the hot paths that poll it.
    """
    if cancel is not None and cancel.is_set():
        raise SolveCancelled("solve cancelled by caller")


@dataclass
class TaskMeasurement:
    """Serial cost measurement of the per-device extraction tasks."""

    durations: np.ndarray  # seconds per task (device), summed over charger types
    positions_by_type: dict[str, np.ndarray]

    @property
    def serial_total(self) -> float:
        """Non-distributed extraction time (Σ task durations)."""
        return float(self.durations.sum())


def measure_task_costs(
    scenario: Scenario,
    *,
    eps: float = 0.15,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    cancel=None,
) -> TaskMeasurement:
    """Run every per-device task serially, timing each (Algorithm 4 unit).

    The per-task duration covers all charger types, matching Algorithm 5
    which hands "the task with device index i and all the charger types" to
    one machine.

    With *tracer* given, each task becomes a ``task`` span (attribute
    ``device``) under a ``measure_tasks`` parent; *metrics* receives the
    ``distributed.tasks`` counter and the ``distributed.task_seconds``
    histogram, so per-task costs are no longer dropped from the user view.
    """
    trace = tracer if tracer is not None else NULL_TRACER
    gen = CandidateGenerator(scenario, eps=eps)
    n = scenario.num_devices
    durations = np.zeros(n)
    results: list[dict[str, np.ndarray]] = []
    with trace.span("measure_tasks", devices=n) as msp:
        for i in range(n):
            check_cancel(cancel)
            with trace.span("task", device=i) as tsp:
                t0 = time.perf_counter()
                results.append(gen.device_task(i))
                durations[i] = time.perf_counter() - t0
                tsp.set(seconds=round(float(durations[i]), 6))
            if metrics is not None:
                metrics.inc("distributed.tasks")
                metrics.observe("distributed.task_seconds", float(durations[i]))
        msp.set(serial_total=round(float(durations.sum()), 6))
    return TaskMeasurement(durations, _merge_tasks(results, scenario))


def _merge_tasks(results: list[dict[str, np.ndarray]], scenario: Scenario) -> dict:
    """Per-type :func:`merge_positions` of device-task results (device order)."""
    return {
        ct.name: merge_positions(res[ct.name] for res in results if ct.name in res)
        for ct in scenario.charger_types
    }


def assign_tasks(durations: np.ndarray, machines: int) -> Schedule:
    """Algorithm 5: one task per machine when ``m >= No``, else LPT."""
    n = len(durations)
    if machines >= n:
        return Schedule(tuple(range(n)), tuple(float(d) for d in durations))
    return lpt_schedule(durations, machines)


def simulate_distributed_times(
    scenario: Scenario,
    machine_counts: list[int],
    *,
    eps: float = 0.15,
    include_tasks: bool = False,
    tracer: Tracer | None = None,
) -> dict:
    """Fig. 12 harness: serial total plus LPT makespan per machine count.

    Keys: ``"serial"`` and each entry of *machine_counts*.  With
    ``include_tasks=True`` the per-device task durations measured by
    :func:`measure_task_costs` are surfaced under a ``"tasks"`` key instead
    of being dropped; *tracer* additionally records one span per task plus
    a ``schedule`` span per machine count.
    """
    trace = tracer if tracer is not None else NULL_TRACER
    with trace.span("simulate_distributed", machines=list(machine_counts)):
        m = measure_task_costs(scenario, eps=eps, tracer=tracer)
        out: dict = {"serial": m.serial_total}
        for k in machine_counts:
            with trace.span("schedule", machines=k) as sp:
                out[k] = assign_tasks(m.durations, k).makespan
                sp.set(makespan=round(float(out[k]), 6))
        if include_tasks:
            out["tasks"] = [float(d) for d in m.durations]
    return out


#: Per-worker extraction state: one :class:`CandidateGenerator` built from the
#: scenario shipped once via the pool initializer.  Tasks then carry only
#: small payloads (a device index, or a charger name plus a position chunk)
#: instead of re-pickling the whole scenario per task.
_WORKER_GEN: CandidateGenerator | None = None


def _pool_init(
    scenario: Scenario, eps: float, max_positions: int | None, backend: str | None
) -> None:
    global _WORKER_GEN
    # Workers compute on the same backend the parent solve resolved, so
    # pooled and serial extraction stay byte-identical by construction.
    activate_backend(backend)
    _WORKER_GEN = CandidateGenerator(scenario, eps=eps, max_positions=max_positions)


def extraction_pool(
    scenario: Scenario,
    eps: float,
    workers: int,
    *,
    max_positions: int | None = None,
    backend: str | None = None,
) -> ProcessPoolExecutor:
    """A process pool whose workers hold the scenario-bound extraction state.

    The scenario is pickled once per worker (pool initializer), not once per
    task; the same pool serves both the per-device position tasks
    (:func:`positions_by_type_pooled`) and the batched PDCS sweep tasks used
    by :func:`~repro.core.placement.build_candidate_set`.  The generator's
    approximation parameters (``eps``, ``max_positions``) are shipped so the
    worker-side state matches the caller's generator; note the
    ``max_positions`` cap itself is applied by the *parent* after gathering
    (per-task subsampling would not equal the serial global subsample).
    :class:`CandidateGenerator` *subclasses* cannot be rebuilt in workers.
    """
    return ProcessPoolExecutor(
        max_workers=workers,
        initializer=_pool_init,
        initargs=(scenario, eps, max_positions, backend),
    )


def _positions_task(i: int) -> dict[str, np.ndarray]:
    return _WORKER_GEN.device_task(i)


def _sweep_task(args: tuple[str, np.ndarray]):
    """One chunked PDCS sweep in a pool worker.

    Returns ``(records, sweep_seconds, metrics_snapshot)``: the worker
    accumulates kernel counters into a task-local registry and ships the
    picklable snapshot back for the parent to merge, so serial and
    multi-worker runs report identical counter totals.
    """
    from .pdcs import sweep_position_batch

    ct_name, positions = args
    gen = _WORKER_GEN
    ct = gen.scenario.charger_type(ct_name)
    task_metrics = MetricsRegistry()
    records, sweep_s = sweep_position_batch(
        gen.evaluator, gen.approx, ct, positions, metrics=task_metrics
    )
    return records, sweep_s, task_metrics.snapshot()


def positions_by_type_pooled(
    pool: ProcessPoolExecutor, scenario: Scenario, *, cancel=None
) -> dict[str, np.ndarray]:
    """All candidate positions per type, using an :func:`extraction_pool`.

    The device tasks stream back in device order, the order
    :meth:`CandidateGenerator.positions` merges them in, so the result is
    array-equal to the serial one (before any ``max_positions`` cap, which
    the caller applies).  The *cancel* token is polled as results arrive.
    """
    results = []
    for res in pool.map(_positions_task, range(scenario.num_devices)):
        check_cancel(cancel)
        results.append(res)
    return _merge_tasks(results, scenario)

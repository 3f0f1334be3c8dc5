"""End-to-end HIPO solver (Theorem 4.2).

Pipeline:

1. :class:`~repro.core.candidates.CandidateGenerator` reduces the continuous
   strategy space to finitely many candidate *positions* per charger type;
2. the Algorithm-1 rotational sweep at every position extracts the PDCS
   orientations, each becoming a candidate :class:`~repro.model.Strategy`
   with an approximated and an exact power row;
3. Algorithm 3 — greedy maximization of the monotone submodular utility under
   the partition matroid of per-type budgets — selects the placement, with
   approximation ratio ``1/2 − ε`` for the approximated objective.

The greedy optimizes the piecewise-constant *approximated* powers (that is
what the guarantee covers, Lemmas 4.2/4.3); reported utilities are computed
with the exact power law.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace
from typing import Literal, Sequence

import numpy as np

from ..backend import use_backend
from ..model.entities import Strategy
from ..model.network import Scenario
from ..model.utility import total_utility
from ..obs import MetricsRegistry, MetricsSnapshot, Tracer, render_run_report
from ..opt.matroid import PartitionMatroid
from ..opt.submodular import (
    ChargingUtilityObjective,
    GreedyResult,
    greedy_matroid,
    lazy_greedy_matroid,
)
from .candidates import CandidateGenerator
from .distributed import (
    _sweep_task,
    check_cancel,
    extraction_pool,
    positions_by_type_pooled,
)
from .pdcs import SweptCandidate, sweep_position_batch
from .reuse import CandidateSetCache, active_candidate_cache, extraction_cache_key

__all__ = [
    "CandidateSet",
    "HIPOSolution",
    "PhaseTimings",
    "build_candidate_set",
    "select_strategies",
    "solve_hipo",
    "solve_hipo_hardened",
]


@dataclass
class PhaseTimings:
    """Wall-clock breakdown of a solve — a thin view derived from the trace.

    Since the `repro.obs` tracer became the source of truth, this dataclass
    is computed by :meth:`from_trace` from the ``extraction`` / ``selection``
    span tree (it is kept as a stable, flat API for callers that predate the
    tracer).  ``extraction_seconds`` covers candidate-position generation
    plus the batched coverability/power kernels; ``sweep_seconds`` the
    Algorithm-1 rotational sweeps; ``dedupe_seconds`` candidate
    deduplication and row assembly; ``selection_seconds`` the greedy.  When
    the sweeps ran in pool workers (``pooled`` on the ``sweeps`` span),
    ``sweep_seconds`` is CPU-seconds summed across workers (it overlaps
    ``extraction_seconds``, which stays wall-clock).
    """

    extraction_seconds: float = 0.0
    sweep_seconds: float = 0.0
    dedupe_seconds: float = 0.0
    selection_seconds: float = 0.0
    num_positions: int = 0
    num_candidates: int = 0
    workers: int = 1

    @classmethod
    def from_trace(cls, trace: Tracer) -> "PhaseTimings":
        """Derive the flat breakdown from a trace's span tree.

        Uses the most recent ``extraction`` span (wall clock plus its
        accumulated ``sweep_seconds`` / ``dedupe_seconds`` attributes) and
        the most recent ``selection`` span, matching the pre-tracer
        semantics: in-process sweep time is carved out of extraction,
        pooled sweep time overlaps it.  Whether the sweeps were pooled is
        read from the ``pooled`` attribute of the extraction's ``sweeps``
        child, which records whether the pool actually ran — not the
        requested worker count, since a subclassed generator runs
        in-process whatever ``workers`` says.
        """
        t = cls()
        ext_spans = trace.find_all("extraction")
        if ext_spans:
            ext = ext_spans[-1]
            t.workers = int(ext.attrs.get("workers", 1))
            t.sweep_seconds = float(ext.attrs.get("sweep_seconds", 0.0))
            t.dedupe_seconds = float(ext.attrs.get("dedupe_seconds", 0.0))
            t.num_positions = int(ext.attrs.get("positions", 0))
            t.num_candidates = int(ext.attrs.get("candidates", 0))
            sweeps = [sp for sp in trace.children_of(ext) if sp.name == "sweeps"]
            pooled = bool(sweeps and sweeps[-1].attrs.get("pooled"))
            in_process_sweep = 0.0 if pooled else t.sweep_seconds
            t.extraction_seconds = max(0.0, ext.wall_s - t.dedupe_seconds - in_process_sweep)
        sel_spans = trace.find_all("selection")
        if sel_spans:
            t.selection_seconds = sel_spans[-1].wall_s
        return t

    def as_dict(self) -> dict:
        """Machine-readable form (``repro solve --timings --json``)."""
        return asdict(self)

    def format(self) -> str:
        """One-line summary (printed by ``repro solve --timings``)."""
        return (
            f"extraction={self.extraction_seconds:.3f}s "
            f"sweep={self.sweep_seconds:.3f}s "
            f"dedupe={self.dedupe_seconds:.3f}s "
            f"selection={self.selection_seconds:.3f}s "
            f"positions={self.num_positions} "
            f"candidates={self.num_candidates} "
            f"workers={self.workers}"
        )


@dataclass
class CandidateSet:
    """The discrete reformulation (problem P2): candidate strategies with
    their power rows and matroid structure."""

    strategies: list[Strategy]
    approx_power: np.ndarray  # (candidates, devices) — P̃, what the greedy sees
    exact_power: np.ndarray  # (candidates, devices) — P, what gets reported
    part_of: list[int]  # candidate -> charger type index
    capacities: list[int]  # per charger type index
    positions_per_type: dict[str, int] = field(default_factory=dict)
    timings: PhaseTimings | None = None

    @property
    def num_candidates(self) -> int:
        return len(self.strategies)

    def matroid(self) -> PartitionMatroid:
        return PartitionMatroid(self.part_of, self.capacities)


@dataclass
class HIPOSolution:
    """A solved placement."""

    strategies: list[Strategy]
    utility: float  # exact objective (Eq. 4)
    approx_utility: float  # objective under P̃ (what the greedy maximized)
    candidate_set: CandidateSet | None
    greedy: GreedyResult | None
    timings: PhaseTimings | None = None
    trace: Tracer | None = None
    metrics: MetricsSnapshot | None = None

    def report(self) -> str:
        """Human-readable run report: per-phase span tree plus metrics.

        Rendered from the trace and merged metric snapshot of the solve
        (``repro solve --metrics`` prints exactly this).
        """
        return render_run_report(self.trace, self.metrics)


#: Positions per sweep task; bounds both worker payload size and the peak
#: (positions × devices) intermediates of the batched kernels.  The default
#: comes from sweeping chunk sizes on the BENCH_1 scenario
#: (``benchmarks/bench_backends.py``; the ``extraction.sweep_chunk_seconds``
#: histogram makes per-chunk cost observable): 128–512 are within
#: run-to-run noise of each other, with 128 showing the best mean across
#: repeated sweeps (``chunk_sweep`` in ``BENCH_3.json``); 64 pays too much
#: per-chunk batch setup, and ≥1024 trends slower as the intermediates
#: outgrow cache.
DEFAULT_EXTRACTION_CHUNK = 128


def build_candidate_set(
    scenario: Scenario,
    *,
    eps: float = 0.15,
    generator: CandidateGenerator | None = None,
    positions_by_type: dict[str, np.ndarray] | None = None,
    workers: int | None = None,
    extraction_chunk_size: int | None = None,
    backend: str | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    cancel=None,
) -> CandidateSet:
    """Run candidate extraction + PDCS sweeps and assemble the power matrices.

    *backend* names the kernel set for the hot kernels (``"numpy"`` or
    the ``"pyloop"`` oracle; ``None`` keeps the ambient one — see
    :mod:`repro.backend`); pool workers inherit the resolved choice, and
    both produce byte-identical candidate sets.  *extraction_chunk_size*
    tunes the positions-per-sweep-task granularity (default
    :data:`DEFAULT_EXTRACTION_CHUNK`); chunking preserves record order, so
    any positive value yields byte-identical candidates.  The value is
    recorded on the ``sweeps`` span as ``chunk_size``, next to ``pooled``
    (whether the sweeps actually ran in the pool).

    *cancel* is a cooperative cancellation token (``is_set() -> bool``,
    e.g. ``threading.Event``) polled between position tasks and between
    sweep chunks; when it fires the build raises
    :class:`~repro.core.distributed.SolveCancelled`.

    *positions_by_type* overrides the geometric candidate positions (used by
    the grid baselines, the distributed extractor and the ablation benches) —
    the PDCS orientation sweep is still applied at each given position.

    There is one path: the positions of every active type are cut into
    ``(type, position chunk)`` sweep tasks, run by
    :func:`~repro.core.pdcs.sweep_position_batch` and deduplicated in task
    order.  ``workers > 1`` runs the same tasks — and, before them, the
    per-device position tasks of Algorithm 4 — on one
    :func:`extraction_pool` whose workers receive the scenario once (pool
    initializer).  The pool ships the generator's approximation parameters
    (``eps``, ``max_positions``), so a plain :class:`CandidateGenerator`
    with custom parameters pools correctly; a *subclassed* generator cannot
    be rebuilt in workers, so it runs in-process whatever *workers* says
    (correctness over parallelism).  Either way the candidate sets are
    identical, in identical order.

    Observability: the phases run inside ``extraction`` → ``positions`` /
    ``sweeps`` spans on *tracer* (a private tracer is created when none is
    given, so :class:`PhaseTimings` is always derivable), and *metrics*
    accumulates the extraction counters (see DESIGN.md §"Observability");
    pool workers ship per-task snapshots back, so counter totals are
    identical to a serial run.
    """
    trace = tracer if tracer is not None else Tracer()
    mreg = metrics if metrics is not None else MetricsRegistry()
    gen = generator if generator is not None else CandidateGenerator(scenario, eps=eps)
    ev = scenario.evaluator()
    approx = gen.approx
    strategies: list[Strategy] = []
    covered_idx: list[np.ndarray] = []
    approx_vals: list[np.ndarray] = []
    exact_vals: list[np.ndarray] = []
    part_of: list[int] = []
    seen: set[bytes] = set()
    positions_per_type: dict[str, int] = {}
    capacities = [int(scenario.budgets.get(ct.name, 0)) for ct in scenario.charger_types]
    active = [(q, ct) for q, ct in enumerate(scenario.charger_types) if capacities[q] > 0]
    nworkers = max(1, int(workers or 1))
    # A subclassed generator cannot be rebuilt in workers: run in-process.
    plain_generator = generator is None or type(generator) is CandidateGenerator
    use_pool = nworkers > 1 and plain_generator and bool(active)
    chunk = DEFAULT_EXTRACTION_CHUNK if extraction_chunk_size is None else int(extraction_chunk_size)
    if chunk < 1:
        raise ValueError(f"extraction chunk size must be positive, got {chunk}")
    sweep_s = 0.0  # CPU-seconds inside Algorithm-1 sweeps (worker-side when pooled)
    dedupe_s = 0.0  # wall-clock inside absorb()

    def absorb(q: int, ct, records: list[SweptCandidate]) -> None:
        """Dedupe swept candidates and stash their compact rows (timed).

        The key is one bytes object (type index, covered indices, rounded
        approx powers; unambiguous as both arrays have equal length).  The
        compact (indices, values) rows are scattered into the two power
        matrices once, after all sweeps (cheaper than a full-width zero row
        per candidate plus a final vstack).
        """
        nonlocal dedupe_s
        t0 = time.perf_counter()
        kept = 0
        qb = q.to_bytes(4, "little")
        for rec in records:
            covered = np.asarray(rec.covered, dtype=np.int64)
            key = b"".join((qb, covered.tobytes(), rec.approx_powers.round(12).tobytes()))
            if key in seen:
                continue
            seen.add(key)
            strategies.append(Strategy(rec.position, rec.orientation, ct))
            covered_idx.append(covered)
            approx_vals.append(rec.approx_powers)
            exact_vals.append(rec.exact_powers)
            part_of.append(q)
            kept += 1
        dedupe_s += time.perf_counter() - t0
        mreg.inc("extraction.candidates", kept)
        mreg.inc("extraction.duplicates", len(records) - kept)

    with use_backend(backend) as bk, trace.span(
        "extraction", workers=nworkers, backend=bk.name
    ) as ext_sp:
        pool_cm = (
            extraction_pool(
                scenario, gen.eps, nworkers, max_positions=gen.max_positions, backend=bk.name
            )
            if use_pool
            else nullcontext()
        )
        with pool_cm as pool:
            # Phase 1: candidate positions per charger type.
            with trace.span("positions") as pos_sp:
                pos_map: dict[str, np.ndarray] = {}
                if positions_by_type is not None:
                    for q, ct in active:
                        pos_map[ct.name] = np.asarray(
                            positions_by_type.get(ct.name, np.zeros((0, 2))), dtype=float
                        )
                elif pool is not None:
                    gathered = positions_by_type_pooled(pool, scenario, cancel=cancel)
                    for q, ct in active:
                        pos_map[ct.name] = gen.apply_position_cap(gathered[ct.name])
                else:
                    for q, ct in active:
                        check_cancel(cancel)
                        pos_map[ct.name] = gen.positions(ct)
                for q, ct in active:
                    positions_per_type[ct.name] = len(pos_map[ct.name])
                    mreg.inc("extraction.positions", len(pos_map[ct.name]))
                pos_sp.set(positions=sum(positions_per_type.values()))

            # Phase 2: PDCS sweeps over (type, position chunk) tasks + dedupe.
            tasks = [
                (q, ct, pos_map[ct.name][lo : lo + chunk])
                for q, ct in active
                for lo in range(0, len(pos_map[ct.name]), chunk)
            ]
            pooled = pool is not None and bool(tasks)
            with trace.span("sweeps", chunk_size=chunk) as sw_sp:
                if pooled:
                    results = pool.map(_sweep_task, [(ct.name, pts) for _, ct, pts in tasks])
                else:
                    # In-process chunks feed *mreg* directly: no snapshot to merge.
                    results = (
                        (*sweep_position_batch(ev, approx, ct, pts, metrics=mreg), None)
                        for _, ct, pts in tasks
                    )
                for (q, ct, _), (records, task_sweep_s, snap) in zip(tasks, results):
                    check_cancel(cancel)
                    sweep_s += task_sweep_s
                    if snap is not None:
                        mreg.merge(snap)
                    absorb(q, ct, records)
                sw_sp.set(
                    pooled=pooled,
                    sweep_seconds=round(sweep_s, 6),
                    dedupe_seconds=round(dedupe_s, 6),
                    candidates=len(strategies),
                )
        ext_sp.set(
            sweep_seconds=sweep_s,
            dedupe_seconds=dedupe_s,
            positions=sum(positions_per_type.values()),
            candidates=len(strategies),
        )

    timings = PhaseTimings.from_trace(trace)

    approx_power = np.zeros((len(strategies), ev.num_devices))
    exact_power = np.zeros((len(strategies), ev.num_devices))
    for k, covered in enumerate(covered_idx):
        approx_power[k, covered] = approx_vals[k]
        exact_power[k, covered] = exact_vals[k]
    return CandidateSet(
        strategies, approx_power, exact_power, part_of, capacities, positions_per_type, timings
    )


def select_strategies(
    scenario: Scenario,
    candidates: CandidateSet,
    *,
    objective_power: Literal["approx", "exact"] = "approx",
    lazy: bool = False,
    algorithm3_order: bool = False,
    refine: bool = False,
    metrics: MetricsRegistry | None = None,
) -> tuple[list[Strategy], GreedyResult]:
    """Algorithm 3: greedy strategy selection for heterogeneous chargers.

    ``algorithm3_order=True`` reproduces the paper's per-type loop order;
    the default picks the globally best extendable candidate each round
    (both carry the ``1/2`` guarantee).  ``lazy=True`` uses CELF.
    ``refine=True`` post-processes the greedy output with matroid-preserving
    swap local search (value never decreases; guarantee unchanged).

    *metrics*, when given, records the greedy convergence: the
    ``greedy.marginal_gain`` histogram (one observation per iteration),
    iteration/evaluation counters, and — for ``lazy=True`` — the
    evaluations CELF saved versus a full scan every round.
    """
    ev = scenario.evaluator()
    P = candidates.approx_power if objective_power == "approx" else candidates.exact_power
    if candidates.num_candidates == 0:
        return [], GreedyResult([], 0.0)
    objective = ChargingUtilityObjective(P, ev.thresholds)
    matroid = candidates.matroid()
    if lazy:
        result = lazy_greedy_matroid(objective, matroid)
    elif algorithm3_order:
        result = greedy_matroid(objective, matroid, part_order=list(range(len(candidates.capacities))))
    else:
        result = greedy_matroid(objective, matroid)
    if refine and result.indices:
        from ..opt.local_search import local_search_refine

        refined = local_search_refine(objective, matroid, result.indices)
        if refined.value > result.value:
            result = refined
    if metrics is not None:
        metrics.inc("greedy.iterations", len(result.gains))
        metrics.inc("greedy.evaluations", result.evaluations)
        for gain in result.gains:
            metrics.observe("greedy.marginal_gain", gain)
        if lazy:
            full_scan = candidates.num_candidates * max(1, len(result.gains))
            metrics.inc("greedy.lazy_evaluations_saved", max(0, full_scan - result.evaluations))
    return [candidates.strategies[k] for k in result.indices], result


def solve_hipo(
    scenario: Scenario,
    *,
    eps: float = 0.15,
    lazy: bool = False,
    algorithm3_order: bool = False,
    refine: bool = False,
    objective_power: Literal["approx", "exact"] = "approx",
    generator: CandidateGenerator | None = None,
    positions_by_type: dict[str, np.ndarray] | None = None,
    keep_candidates: bool = False,
    workers: int | None = None,
    backend: str | None = None,
    candidate_cache: CandidateSetCache | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    cancel=None,
) -> HIPOSolution:
    """Solve a HIPO instance end to end (the paper's full algorithm).

    *backend* selects the kernel set for the extraction hot path
    (``"numpy"`` or the ``"pyloop"`` oracle; ``None`` keeps the ambient
    one — see :mod:`repro.backend`).  The two are bit-identical by
    contract, so the choice affects wall-clock only — never the placement,
    the utilities or the candidate-cache keys.  The resolved name is
    stamped on the ``solve`` and ``extraction`` trace spans.

    Returns a :class:`HIPOSolution`; ``utility`` is the exact objective of
    Eq. (4) for the selected strategies.  ``workers > 1`` runs the candidate
    extraction on a process pool (identical result, see
    :func:`build_candidate_set`).  *cancel* is a cooperative cancellation
    token polled throughout extraction and before selection
    (:class:`~repro.core.distributed.SolveCancelled` on fire) — the
    mechanism behind ``repro.serve`` job timeouts and cancellation.

    *candidate_cache* (or, when omitted, the ambient cache installed by
    :func:`~repro.core.reuse.use_candidate_cache`) warm-starts the solve:
    when the extraction-relevant slice of *scenario* (geometry, hardware
    tables, active types, ``eps`` — see
    :func:`repro.io.canonical_extraction_hash`) hits the cache, the whole
    extraction phase is skipped and only the millisecond greedy selection
    runs.  Results are byte-identical to a cold solve (tested); the
    ``extraction`` span then carries ``cached=True`` and cache traffic
    lands on the cache's ``cache.candidates.*`` counters.  The cache is
    bypassed when *positions_by_type* overrides extraction.

    Every solve is traced: a ``solve`` root span contains the
    ``extraction`` and ``selection`` phase spans, and the returned
    solution carries the :class:`~repro.obs.Tracer` plus a merged
    :class:`~repro.obs.MetricsSnapshot` (``HIPOSolution.report()`` renders
    both; ``repro solve --trace out.jsonl`` exports the JSONL).  Pass
    *tracer* / *metrics* to aggregate several solves into one view.
    """
    trace = tracer if tracer is not None else Tracer()
    mreg = metrics if metrics is not None else MetricsRegistry()
    nworkers = max(1, int(workers or 1))
    with use_backend(backend) as bk, trace.span(
        "solve",
        devices=scenario.num_devices,
        chargers=scenario.num_chargers,
        eps=eps,
        workers=nworkers,
        backend=bk.name,
    ) as root_sp:
        cache = candidate_cache if candidate_cache is not None else active_candidate_cache()
        cache_key: str | None = None
        candidates = None
        if cache is not None and positions_by_type is None:
            cache_key = extraction_cache_key(scenario, eps=eps, generator=generator)
            candidates = cache.get(cache_key, scenario)
        if candidates is not None:
            with trace.span("extraction", workers=nworkers, cached=True, backend=bk.name) as ext_sp:
                ext_sp.set(
                    positions=sum(candidates.positions_per_type.values()),
                    candidates=candidates.num_candidates,
                )
            candidates.timings = PhaseTimings.from_trace(trace)
        else:
            candidates = build_candidate_set(
                scenario,
                eps=eps,
                generator=generator,
                positions_by_type=positions_by_type,
                workers=workers,
                tracer=trace,
                metrics=mreg,
                cancel=cancel,
            )
            if cache is not None and cache_key is not None:
                cache.put(cache_key, candidates)
        check_cancel(cancel)
        with trace.span("selection", candidates=candidates.num_candidates, lazy=lazy) as sel_sp:
            strategies, greedy = select_strategies(
                scenario,
                candidates,
                objective_power=objective_power,
                lazy=lazy,
                algorithm3_order=algorithm3_order,
                refine=refine,
                metrics=mreg,
            )
            sel_sp.set(selected=len(strategies), evaluations=greedy.evaluations)
        ev = scenario.evaluator()
        exact_total = candidates.exact_power[greedy.indices].sum(axis=0)
        approx_total = candidates.approx_power[greedy.indices].sum(axis=0)
        utility = total_utility(exact_total, ev.thresholds)
        root_sp.set(utility=round(float(utility), 6), selected=len(strategies))
    mreg.record_peak_rss()
    timings = candidates.timings
    if timings is not None:
        timings.selection_seconds = sel_sp.wall_s
    return HIPOSolution(
        strategies=strategies,
        utility=utility,
        approx_utility=total_utility(approx_total, ev.thresholds),
        candidate_set=candidates if keep_candidates else None,
        greedy=greedy,
        timings=timings,
        trace=trace,
        metrics=mreg.snapshot(),
    )


def solve_hipo_hardened(
    scenario: Scenario,
    *,
    angle_margin: float = 0.05,
    radial_margin: float = 0.5,
    eps: float = 0.15,
    **solve_kwargs,
) -> HIPOSolution:
    """HIPO with a deployment-tolerance safety margin.

    The plain solver places devices *exactly* on coverage boundaries (the
    PDCS orientations put a device on the clockwise cone edge; many
    candidate positions sit on ring boundaries), so centimetre-level
    installation noise can drop boundary devices out of coverage (see
    ``bench_robustness``).  This variant optimizes under *shrunk* charger
    footprints — aperture reduced by ``2·angle_margin`` radians, ring
    tightened by ``radial_margin`` on both ends — and evaluates/reports the
    resulting strategies under the true hardware.  Every covered device then
    retains at least the margin of slack in every condition of Eq. (1).

    The utility guarantee degrades to ``(1/2 − ε)`` of the optimum of the
    *shrunk* instance; the pay-off is robustness (the margin is a knob).
    """
    from ..model.types import ChargerType

    if angle_margin < 0.0 or radial_margin < 0.0:
        raise ValueError("margins must be non-negative")
    hardened_types = []
    for ct in scenario.charger_types:
        angle = max(ct.charging_angle - 2.0 * angle_margin, 1e-3)
        dmin = ct.dmin + radial_margin
        dmax = max(ct.dmax - radial_margin, dmin + 1e-3)
        hardened_types.append(ChargerType(ct.name, angle, dmin, dmax))
    hardened = scenario.with_charger_types(tuple(hardened_types), scenario.budgets)
    inner = solve_hipo(hardened, eps=eps, **solve_kwargs)
    # Map strategies back onto the true hardware for evaluation.
    true_types = {ct.name: ct for ct in scenario.charger_types}
    strategies = [
        Strategy(s.position, s.orientation, true_types[s.ctype.name]) for s in inner.strategies
    ]
    return replace(inner, strategies=strategies, utility=scenario.utility_of(strategies))

"""The two closed-loop workloads: one caller invoking ``solve_hipo``.

* ``cold_solve`` — a distinct seeded §6 default scene per call (40 devices,
  18 chargers, 2 obstacles, eps 0.15), no candidate cache, ``workers=1``.
* ``budget_sweep`` — set-up warms a ``CandidateSetCache`` with a fixed §6
  geometry at 60 devices; each call then re-solves it with other budgets
  and thresholds, so extraction is bypassed.

Tiers a loop does not reach are measured by :class:`TierProbe` between the
timed calls, on scenes the loop solved cold.  Every time is scaled to the
reference host by :class:`~perfbench.common.HostSpeed`.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from . import checks, layers
from .common import OUT_DIR, SERVE_ONLY, HostSpeed, Result, Span, fresh_import, peak_rss_mb, record_setup, record_timing


@dataclass(frozen=True)
class Config:
    """The scene sizes the smoke mode shrinks."""

    cold_device_multiple: int = 4
    cold_charger_multiple: int = 3
    sweep_device_multiple: int = 6
    cold_setups: int = 5


FULL = Config()
SMOKE = Config(cold_device_multiple=1, cold_charger_multiple=1, sweep_device_multiple=1, cold_setups=2)

#: §6 charger-budget multiple and threshold of the default scene.
BASE_MULTIPLE = 3
BASE_THRESHOLD = 0.05
SWEEP_MULTIPLES = tuple(range(1, 11))
SWEEP_THRESHOLDS = (0.04, BASE_THRESHOLD, 0.06)
#: The fixed set of budget_sweep geometries: one room re-solved under many
#: budgets.  The workload seed picks the order of budgets and thresholds.
SWEEP_GEOMETRY_SEEDS = (6101,)
#: Fewer than cold_solve's 5: each budget_sweep set-up is a 60-device cold
#: solve of several seconds.
SWEEP_SETUPS = 3
#: Leading calls every run makes whatever the host's speed; their exact
#: counts, digest and mean utility must repeat for a seed.
COLD_PREFIX = 8
SWEEP_PREFIX = 60
#: Probe calls after each cold_solve call (on the scene it solved), and
#: budget_sweep calls per full-hit probe.
COLD_CANDIDATE_PROBES = 6
COLD_FULL_HIT_PROBES = 10
SWEEP_CALLS_PER_PROBE = 20
#: Loop seconds between budget_sweep's cold probes.  Its own cold solves
#: are the 3 set-up extractions of several seconds each, too few for a
#: median, so the cold tier is probed on new 10-device §6 scenes.
SWEEP_COLD_PROBE_S = 0.75
#: Cold scenes generated during set-up (later ones are generated on demand).
PREGENERATED = 8
COUNTERS = layers.SOLVER_COUNTERS


@dataclass
class Call:
    """What is kept of one solve: enough to check it and count it.  The
    solution itself is dropped so the heap stays small while timing."""

    record: dict[str, Any]
    cached: bool
    counters: dict[str, int]
    candidate_set: Any = None


def keep_call(sol: Any, *, candidates: bool = False) -> Call:
    ext = sol.trace.find_all("extraction")[-1]
    return Call(
        checks.solution_record(sol.strategies, sol.utility),
        bool(ext.attrs.get("cached", False)),
        {name: int(sol.metrics.counters.get(name, 0)) for name in COUNTERS},
        sol.candidate_set if candidates else None,
    )


@dataclass
class LoopRun:
    #: Start and end of each call that returned.
    spans: list[Span] = field(default_factory=list)
    calls: list[Call | None] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


def closed_loop(
    prepare: Callable[[int], Any],
    op: Callable[[Any], Any],
    keep: Callable[[int, Any], Call],
    host: HostSpeed,
    *,
    seconds: float,
    min_ops: int,
    max_ops: int | None = None,
    between: Callable[[int, Call | None], None] | None = None,
) -> LoopRun:
    """Run ``op(prepare(i))`` for i = 0, 1, ... until *seconds* have passed
    and at least *min_ops* calls were made (at most *max_ops*).  Only *op*
    is timed, with *host* samples taken between calls; a call that raises
    counts as failed.  ``between(i, call)`` runs after call *i*; its time
    does not count towards *seconds*."""
    run = LoopRun()
    gc.collect()
    t0 = time.perf_counter()
    i = 0
    while (i < min_ops or time.perf_counter() - t0 < seconds) and (max_ops is None or i < max_ops):
        arg = prepare(i)
        host.sample_if_due()
        a = time.perf_counter()
        try:
            out = op(arg)
        except Exception as exc:  # noqa: BLE001 - a failed call is a measured outcome
            run.failures.append(f"call {i}: {type(exc).__name__}: {exc}")
            run.calls.append(None)
        else:
            run.spans.append((a, time.perf_counter()))
            run.calls.append(keep(i, out))
        if between is not None:
            b = time.perf_counter()
            between(i, run.calls[-1])
            t0 += time.perf_counter() - b
        i += 1
    host.sample()
    return run


def _loop_metrics(res: Result, run: LoopRun, prefix: int, host: HostSpeed) -> None:
    utilities = [c.record["utility"] for c in run.calls[:prefix] if c is not None]
    record_timing(res, "latency_p50_ms", run.spans, 50, host)
    # Calls per second of solver time (the loop's own bookkeeping excluded).
    res.metrics["ops_per_s"] = len(run.spans) / sum((b - a) * host.scale_over(a, b) for a, b in run.spans)
    res.raw["ops_per_s"] = len(run.spans) / sum(b - a for a, b in run.spans)
    res.samples["ops_per_s"] = len(run.spans)
    res.metrics["utility_mean"] = float(np.mean(utilities)) if utilities else 0.0
    res.samples["utility_mean"] = len(utilities)
    res.attempted += len(run.calls)
    res.failed += len(run.failures)
    res.errors.extend(run.failures)


def _prefix_counts(run: LoopRun, prefix: int) -> dict[str, int]:
    head = [c for c in run.calls[:prefix] if c is not None]
    counts = {name: sum(c.counters[name] for c in head) for name in COUNTERS}
    counts["cache.hits"] = sum(c.cached for c in head)
    return counts


class TierProbe:
    """Latency of the tiers a direct loop does not reach: the candidate and
    full tiers on scenes it has already solved cold, and the cold tier on
    new scenes.

    The candidate tier is ``solve_hipo(candidate_cache=...)`` at the sweep
    budgets and thresholds; the full tier is an in-process
    ``SolveService.submit`` (no HTTP) of a request whose result is cached.
    Probes run between the timed calls, on the scene added last, so they
    cover the whole run and weigh each scene the same.
    """

    def __init__(self, res: Result, host: HostSpeed) -> None:
        from repro.core import CandidateSetCache
        from repro.serve.api import SolveService

        self.res = res
        self.host = host
        self.cache = CandidateSetCache()
        self.service = SolveService(pool_size=1)  # never started: both tiers answer in submit()
        self.scenes: list[tuple[Any, dict, dict]] = []
        self.candidate: list[Span] = []
        self.full_hit: list[Span] = []
        self.cold_spans: list[Span] = []
        self._variants = [(m, t) for m in SWEEP_MULTIPLES for t in SWEEP_THRESHOLDS]
        self._next_variant = 0

    def add(self, scenario: Any, candidate_set: Any, cold: dict, base_multiple: int) -> None:
        """Cache a cold-solved scene in both tiers and check that each tier
        reproduces the cold result."""
        from repro.core.reuse import extraction_cache_key
        from repro.io import scenario_to_dict

        key = extraction_cache_key(scenario)
        self.cache.put(key, candidate_set)
        self.service.candidate_cache.put(key, candidate_set)
        body = {"scenario": scenario_to_dict(scenario)}
        job, _ = self.service.submit(body)  # candidate tier; fills the result cache
        if job.cache_tier != "candidates" or checks.payload_record(job.result) != cold:
            self.res.fail("tier probe: the candidate tier of SolveService differs from the cold solve")
        sol = self._solve(scenario, base_multiple, BASE_THRESHOLD)
        if checks.solution_record(sol.strategies, sol.utility) != cold:
            self.res.fail("tier probe: a warm solve_hipo differs from the cold solve")
        self.scenes.append((scenario, body, cold))

    def _solve(self, scenario: Any, m: int, t: float) -> Any:
        from repro.core import solve_hipo
        from repro.experiments.scenarios import default_budgets

        variant = scenario.with_budgets(default_budgets(m)).with_thresholds({d.dtype.name: t for d in scenario.devices})
        return solve_hipo(variant, candidate_cache=self.cache)

    def cold(self, scenario: Any) -> None:
        """Solve a scene no tier has seen, with no cache, and check it."""
        from repro.core import solve_hipo

        self.host.sample()
        t0 = time.perf_counter()
        sol = solve_hipo(scenario, workers=1)
        self.cold_spans.append((t0, time.perf_counter()))
        self.host.sample()
        record = checks.solution_record(sol.strategies, sol.utility)
        self.res.errors.extend(f"cold probe: {e}" for e in checks.check_solution(scenario, record))

    def run(self, candidate: int, full_hit: int) -> None:
        """Probe the scene added last."""
        if not self.scenes:
            return
        scenario, body, cold = self.scenes[-1]
        self.host.sample()
        for _ in range(candidate):
            m, t = self._variants[self._next_variant % len(self._variants)]
            self._next_variant += 1
            t0 = time.perf_counter()
            self._solve(scenario, m, t)
            self.candidate.append((t0, time.perf_counter()))
        for _ in range(full_hit):
            t0 = time.perf_counter()
            job, _ = self.service.submit(body)
            self.full_hit.append((t0, time.perf_counter()))
            if job.cache_tier != "full" or checks.payload_record(job.result) != cold:
                self.res.fail("tier probe: a repeated request was not a byte-identical full hit")
        self.host.sample()


def _scaled_p50(run: LoopRun, host: HostSpeed) -> float:
    return statistics.median((b - a) * host.scale_over(a, b) for a, b in run.spans)


def _trace_phase(
    res: Result,
    name: str,
    seed: int,
    recorder: layers.SpanRecorder,
    instruments: layers.Instruments,
    untraced: LoopRun,
    host: HostSpeed,
    prepare: Callable[[int], Any],
    solve: Callable[[Any], Any],
    keep: Callable[[int, Any], Call],
    prefix: int,
) -> None:
    """Re-run the untraced calls with the wrappers installed and turn the
    spans into the per-layer metrics."""
    from repro.obs import validate_trace_lines

    n = len(untraced.calls)
    instruments.install()
    try:
        traced = closed_loop(
            prepare, lambda arg: instruments.run_op(solve, arg), keep, host, seconds=0.0, min_ops=n, max_ops=n
        )
    finally:
        instruments.uninstall()
    spans = recorder.snapshot()
    metrics, errors = layers.layer_metrics(spans, n_ops=n, count_prefix=prefix)
    res.metrics.update(metrics)
    res.metrics.update(dict.fromkeys(SERVE_ONLY, 0.0))
    res.errors.extend(errors)
    res.metrics["obs.tracing_overhead_ratio"] = _scaled_p50(traced, host) / _scaled_p50(untraced, host) - 1.0
    path = recorder.write_jsonl(OUT_DIR / f"{name}-seed{seed}.trace.jsonl")
    validate_trace_lines(path.read_text().splitlines())
    res.notes.append(f"spans: {len(spans)} written to {path.relative_to(OUT_DIR.parent)} (validated)")
    if checks.digest([c.record for c in traced.calls[:prefix] if c is not None]) != res.digest:
        res.fail("traced calls returned other results than the untraced ones")
    res.attempted += 2 * n
    res.failed += len(untraced.failures) + len(traced.failures)
    res.errors.extend(untraced.failures + traced.failures)


def cold_solve(seed: int, seconds: float, trace: bool, smoke: bool) -> Result:
    from repro.core import solve_hipo
    from repro.experiments.scenarios import random_scenario

    cfg = SMOKE if smoke else FULL
    res = Result()
    host = HostSpeed()

    def scene(i: int) -> Any:
        return random_scenario(
            np.random.default_rng([seed, i]),
            device_multiple=cfg.cold_device_multiple,
            charger_multiple=cfg.cold_charger_multiple,
        )

    setups: list[Span] = []
    for _ in range(cfg.cold_setups):
        host.sample()
        t0 = time.perf_counter()
        fresh_import()
        pregenerated = {i: scene(i) for i in range(PREGENERATED)}
        setups.append((t0, time.perf_counter()))

    def prepare(i: int) -> Any:
        # A fresh Scenario per call: its evaluator caches line of sight.
        return pregenerated.pop(i, None) or scene(i)

    def solve(sc: Any) -> Any:
        return solve_hipo(sc, workers=1, keep_candidates=True)

    def keep(i: int, sol: Any) -> Call:
        return keep_call(sol, candidates=not trace)

    probe = TierProbe(res, host)

    def between(i: int, call: Call | None) -> None:
        if call is not None:
            probe.add(scene(i), call.candidate_set, call.record, cfg.cold_charger_multiple)
            call.candidate_set = None
        probe.run(COLD_CANDIDATE_PROBES, COLD_FULL_HIT_PROBES)

    run = closed_loop(
        prepare,
        solve,
        keep,
        host,
        seconds=seconds / 2 if trace else seconds,
        min_ops=COLD_PREFIX,
        between=None if trace else between,
    )
    rss = peak_rss_mb()
    for i, call in enumerate(run.calls):
        if call is not None:
            res.errors.extend(f"call {i}: {e}" for e in checks.check_solution(scene(i), call.record))
    res.digest = checks.digest([c.record for c in run.calls[:COLD_PREFIX] if c is not None])
    res.counts = _prefix_counts(run, COLD_PREFIX)

    if trace:
        recorder = layers.SpanRecorder()
        _trace_phase(res, "cold_solve", seed, recorder, layers.Instruments(recorder), run, host, scene, solve, keep, COLD_PREFIX)
        return res

    _loop_metrics(res, run, COLD_PREFIX, host)
    record_setup(res, setups, host)
    res.metrics["peak_rss_mb"] = rss
    record_timing(res, "cold_p50_ms", run.spans, 50, host)
    record_timing(res, "candidate_tier_p50_ms", probe.candidate, 50, host)
    record_timing(res, "full_hit_p50_ms", probe.full_hit, 50, host)
    return res


def budget_sweep(seed: int, seconds: float, trace: bool, smoke: bool) -> Result:
    from repro.core import CandidateSetCache, solve_hipo
    from repro.experiments.scenarios import default_budgets, default_device_types, random_scenario

    cfg = SMOKE if smoke else FULL
    res = Result()
    host = HostSpeed()
    recorder = layers.SpanRecorder()
    instruments = layers.Instruments(recorder)
    device_types = [dt.name for dt in default_device_types()]

    def setup() -> tuple[list[Any], Any, list[Any]]:
        geos = [
            random_scenario(np.random.default_rng(g), device_multiple=cfg.sweep_device_multiple)
            for g in SWEEP_GEOMETRY_SEEDS
        ]
        cache = CandidateSetCache()
        sols = []
        for geo in geos:
            if trace:
                sols.append(instruments.run_op(solve_hipo, geo, name=layers.SETUP_OP, candidate_cache=cache, keep_candidates=True))
            else:
                sols.append(solve_hipo(geo, candidate_cache=cache, keep_candidates=True))
        return geos, cache, sols

    setups: list[Span] = []
    if trace:
        instruments.install()
    try:
        for _ in range(1 if trace else SWEEP_SETUPS):
            host.sample()
            t0 = time.perf_counter()
            fresh_import()
            geos, cache, cold_sols = setup()
            setups.append((t0, time.perf_counter()))
        host.sample()
    finally:
        instruments.uninstall()
    cold_records = [checks.solution_record(sol.strategies, sol.utility) for sol in cold_sols]

    variants = [(g, m, t) for g in range(len(SWEEP_GEOMETRY_SEEDS)) for m in SWEEP_MULTIPLES for t in SWEEP_THRESHOLDS]
    rng = np.random.default_rng([seed, 2])
    order: list[int] = []

    def variant(i: int) -> tuple[int, int, float]:
        while len(order) <= i:
            order.extend(int(k) for k in rng.permutation(len(variants)))
        return variants[order[i]]

    def prepare(i: int) -> Any:
        g, m, t = variant(i)
        return geos[g].with_budgets(default_budgets(m)).with_thresholds({name: t for name in device_types})

    def solve(sc: Any) -> Any:
        return solve_hipo(sc, candidate_cache=cache)

    def keep(i: int, sol: Any) -> Call:
        return keep_call(sol)

    probe = TierProbe(res, host)
    if not trace:
        for geo, sol, rec in zip(geos, cold_sols, cold_records):
            probe.add(geo, sol.candidate_set, rec, BASE_MULTIPLE)

    next_cold = time.perf_counter() + SWEEP_COLD_PROBE_S
    cold_probes = 0

    def between(i: int, call: Call | None) -> None:
        nonlocal next_cold, cold_probes
        if i % SWEEP_CALLS_PER_PROBE == 0:
            probe.run(0, 1)
        if time.perf_counter() >= next_cold:
            probe.cold(random_scenario(np.random.default_rng([seed, 3, cold_probes]), device_multiple=1))
            cold_probes += 1
            next_cold = time.perf_counter() + SWEEP_COLD_PROBE_S

    run = closed_loop(
        prepare,
        solve,
        keep,
        host,
        seconds=seconds / 2 if trace else seconds,
        min_ops=SWEEP_PREFIX,
        between=None if trace else between,
    )
    rss = peak_rss_mb()

    first: dict[tuple[int, int, float], bytes] = {}
    for i, call in enumerate(run.calls):
        if call is None:
            continue
        if not call.cached:
            res.fail(f"call {i}: extraction was not served from the candidate cache")
        blob = checks.record_bytes(call.record)
        key = variant(i)
        if key not in first:
            first[key] = blob
            res.errors.extend(f"call {i}: {e}" for e in checks.check_solution(prepare(i), call.record))
            g, m, t = key
            if (m, t) == (BASE_MULTIPLE, BASE_THRESHOLD) and blob != checks.record_bytes(cold_records[g]):
                res.fail(f"geometry {g}: warm result differs from its cold solve")
        elif first[key] != blob:
            res.fail(f"call {i}: result of {key} differs from its earlier repeat")
    res.digest = checks.digest([c.record for c in run.calls[:SWEEP_PREFIX] if c is not None])
    res.counts = _prefix_counts(run, SWEEP_PREFIX)
    for name in ("extraction.positions", "extraction.candidates"):
        res.counts["setup." + name] = sum(int(sol.metrics.counters.get(name, 0)) for sol in cold_sols)

    if trace:
        _trace_phase(res, "budget_sweep", seed, recorder, instruments, run, host, prepare, solve, keep, SWEEP_PREFIX)
        return res

    _loop_metrics(res, run, SWEEP_PREFIX, host)
    record_setup(res, setups, host)
    res.metrics["peak_rss_mb"] = rss
    record_timing(res, "cold_p50_ms", probe.cold_spans, 50, host)
    record_timing(res, "candidate_tier_p50_ms", run.spans, 50, host)
    record_timing(res, "full_hit_p50_ms", probe.full_hit, 50, host)
    return res

"""Per-layer attribution for the traced run, recorded from outside ``src/``.

:class:`Instruments` replaces public functions of the solve and serve paths
with timing wrappers, at the names their callers resolve (a module global
for plain functions, the class attribute for methods), and restores them on
:meth:`Instruments.uninstall`.  Every wrapper records one span into a
:class:`SpanRecorder`: name, start, end, parent and the trace id of the
operation it belongs to.  Spans stay in memory and are written once, in the
``repro.trace/v1`` JSONL form, when the run ends.

The one exception is ``pdcs.sweep_orientations``: it runs once per swept
position (about 12,000 times per §6 solve), so its time and call count are
accumulated onto the enclosing span's attributes instead of emitting a span
per call.

:func:`layer_metrics` turns the spans into the per-layer metrics.  Times are
seconds per operation; counts are exact totals over a fixed prefix of
operations, so they repeat exactly for a given seed.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

import numpy as np

TRACE_SCHEMA = "repro.trace/v1"

#: Name of the root span around one solve (an "operation").
OP = "op.solve"
#: Name of the root span around one solve made during set-up.
SETUP_OP = "setup.solve"

_LEAF_SWEEP = "sweep_orientations"
#: Solver counters that must equal what the wrappers count.
SOLVER_COUNTERS = ("extraction.positions", "extraction.candidates_raw", "extraction.candidates", "greedy.evaluations")


class SpanRecorder:
    """Thread-safe in-memory span store with per-thread parent stacks."""

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.spans: list[dict[str, Any]] = []

    def _stack(self) -> list[dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def current(self) -> dict[str, Any] | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, *, trace_id: str | None = None, **attrs: Any) -> Iterator[dict[str, Any]]:
        """Open a span under this thread's innermost open span.

        A span opened with no parent is a root and starts a new trace id
        unless *trace_id* names one.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        if trace_id is None:
            trace_id = parent["trace_id"] if parent is not None else uuid.uuid4().hex[:16]
        sp: dict[str, Any] = {
            "schema": TRACE_SCHEMA,
            "trace_id": trace_id,
            "span_id": f"b{next(self._ids)}",
            "parent_id": parent["span_id"] if parent is not None else None,
            "name": name,
            "start_s": time.perf_counter() - self._epoch,
            "wall_s": 0.0,
            "cpu_s": 0.0,
            "status": "ok",
            "attrs": dict(attrs),
        }
        stack.append(sp)
        cpu0 = time.thread_time()
        try:
            yield sp
        except BaseException as exc:
            sp["status"] = "error"
            sp["attrs"].setdefault("error", f"{type(exc).__name__}: {exc}")
            raise
        finally:
            sp["wall_s"] = (time.perf_counter() - self._epoch) - sp["start_s"]
            sp["cpu_s"] = time.thread_time() - cpu0
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    def accumulate(self, key: str, seconds: float) -> None:
        """Add one call of a hot leaf function to the enclosing span."""
        sp = self.current
        if sp is not None:
            attrs = sp["attrs"]
            attrs[key + "_s"] = attrs.get(key + "_s", 0.0) + seconds
            attrs[key + "_calls"] = attrs.get(key + "_calls", 0) + 1

    def snapshot(self) -> list[dict[str, Any]]:
        with self._lock:
            return sorted(self.spans, key=lambda s: s["start_s"])

    def write_jsonl(self, path: str | Path) -> Path:
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text("".join(json.dumps(sp, sort_keys=True) + "\n" for sp in self.snapshot()))
        return out


# -- what each wrapper records beyond its duration --------------------------


def _solver_attrs(solution: Any) -> dict[str, Any]:
    """Figures from the solver's own trace and metrics snapshot, stamped on
    the operation span for the cross-check against the wrappers."""
    trace = solution.trace
    ext = trace.find_all("extraction")[-1]
    counters = solution.metrics.counters if solution.metrics is not None else {}
    out: dict[str, Any] = {"cached": bool(ext.attrs.get("cached", False))}
    if not out["cached"]:
        pos = trace.find_all("positions")[-1]
        out.update(
            solver_extraction_s=ext.wall_s,
            solver_positions_s=pos.wall_s,
            solver_sweep_s=float(ext.attrs.get("sweep_seconds", 0.0)),
            solver_dedupe_s=float(ext.attrs.get("dedupe_seconds", 0.0)),
        )
    for name in SOLVER_COUNTERS:
        out["counter:" + name] = int(counters.get(name, 0))
    return out


def _build_attrs(args: tuple, kwargs: dict, out: Any) -> dict[str, Any]:
    return {
        "kept": out.num_candidates,
        "distinct_positions": len({s.position for s in out.strategies}),
    }


def _batch_attrs(args: tuple, kwargs: dict, out: Any) -> dict[str, Any]:
    return {"positions": len(args[3]), "records": len(out[0])}


def _coverable_attrs(args: tuple, kwargs: dict, out: Any) -> dict[str, Any]:
    mask = out[0]
    return {"rows": int(mask.size), "coverable_rows": int(mask.any(axis=1).sum())}


def _blocked_attrs(args: tuple, kwargs: dict, out: Any) -> dict[str, Any]:
    # blocked_segments(self, starts, ends, c, d, s): every segment is tested
    # against every polygon edge.  Computed from argument shapes.
    return {"edge_tests": len(args[1]) * len(args[3])}


def _greedy_attrs(args: tuple, kwargs: dict, out: Any) -> dict[str, Any]:
    return {"evaluations": int(out.evaluations), "iterations": len(out.gains)}


def _hit_attrs(args: tuple, kwargs: dict, out: Any) -> dict[str, Any]:
    return {"hit": out is not None}


def _put_bytes_attrs(args: tuple, kwargs: dict, out: Any) -> dict[str, Any]:
    return {"blob_bytes": len(args[2])}


def _submit_attrs(args: tuple, kwargs: dict, out: Any) -> dict[str, Any]:
    job, synchronous = out
    return {"synchronous": bool(synchronous), "tier": job.cache_tier or "queued"}


def _job_attrs(args: tuple, kwargs: dict, out: Any) -> dict[str, Any]:
    job = args[1]
    attrs: dict[str, Any] = {"state": job.state, "tier": job.cache_tier or "cold"}
    if job.started_s is not None:
        attrs["queue_wait_s"] = job.started_s - job.submitted_s
        if job.finished_s is not None:
            attrs["run_s"] = job.finished_s - job.started_s
    return attrs


def _dispatch_attrs(args: tuple, kwargs: dict, out: Any) -> dict[str, Any]:
    return {"method": args[1], "status": int(getattr(args[0], "_status", 0))}


class Instruments:
    """The set of timing wrappers for one traced run."""

    def __init__(self, recorder: SpanRecorder, *, serve: bool = False) -> None:
        self.recorder = recorder
        self.serve = serve
        self._patches: list[tuple[Any, str, Any]] = []

    def _targets(self) -> list[tuple[Any, str, str, Callable | None]]:
        from repro.backend import resolve_backend
        from repro.core import placement
        from repro.core.candidates import CandidateGenerator
        from repro.core.reuse import CandidateSetCache
        from repro.model.power import PowerEvaluator

        backend_cls = type(resolve_backend(None))
        targets: list[tuple[Any, str, str, Callable | None]] = [
            (placement, "build_candidate_set", "placement.build_candidate_set", _build_attrs),
            (CandidateGenerator, "positions", "candidates.positions", lambda a, k, o: {"count": len(o)}),
            (placement, "sweep_position_batch", "pdcs.sweep_position_batch", _batch_attrs),
            (PowerEvaluator, "coverable_many", "power.coverable_many", _coverable_attrs),
            (backend_cls, "blocked_segments", "backend.blocked_segments", _blocked_attrs),
            (backend_cls, "power_fill", "backend.power_fill", None),
            (placement, "greedy_matroid", "submodular.greedy", _greedy_attrs),
            (placement, "extraction_cache_key", "io.extraction_key", None),
            (CandidateSetCache, "get", "reuse.get", _hit_attrs),
            (CandidateSetCache, "put", "reuse.put", None),
        ]
        if self.serve:
            from repro.serve import api
            from repro.serve.cache import SolveCache
            from repro.serve.pool import SolverPool

            targets += [
                (api, "solve_hipo", OP, lambda a, k, o: _solver_attrs(o)),
                (api, "scenario_from_dict", "io.scenario_from_dict", None),
                (api, "canonical_scenario_hash", "io.scenario_hash", None),
                (api, "validate_scenario", "validation.validate", None),
                (api, "extraction_cache_key", "io.extraction_key", None),
                (api.SolveService, "submit", "serve.submit", _submit_attrs),
                (SolveCache, "get", "serve.result_cache.get", _hit_attrs),
                (SolverPool, "_run_job", "serve.job", _job_attrs),
                (api._Handler, "_dispatch", "serve.http", _dispatch_attrs),
            ]
        return targets

    def install(self) -> "Instruments":
        from repro.core import pdcs
        from repro.core.reuse import CandidateSetCache

        if self._patches:
            raise RuntimeError("instruments already installed")
        for owner, attr, name, attrs_fn in self._targets():
            self._patch(owner, attr, self._spanned(getattr(owner, attr), name, attrs_fn))
        self._patch(pdcs, _LEAF_SWEEP, self._leaf(getattr(pdcs, _LEAF_SWEEP)))
        self._patch(
            CandidateSetCache,
            "put_bytes",
            self._annotating(CandidateSetCache.put_bytes, _put_bytes_attrs),
        )
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _spanned(self, fn: Callable, name: str, attrs_fn: Callable | None) -> Callable:
        rec = self.recorder
        trace_id_of = _job_trace_id if name == "serve.job" else None

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tid = trace_id_of(args) if trace_id_of is not None else None
            with rec.span(name, trace_id=tid) as sp:
                out = fn(*args, **kwargs)
                if attrs_fn is not None:
                    sp["attrs"].update(attrs_fn(args, kwargs, out))
            return out

        return wrapper

    def _leaf(self, fn: Callable) -> Callable:
        rec = self.recorder

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec.accumulate(_LEAF_SWEEP, time.perf_counter() - t0)

        return wrapper

    def _annotating(self, fn: Callable, attrs_fn: Callable) -> Callable:
        rec = self.recorder

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            out = fn(*args, **kwargs)
            sp = rec.current
            if sp is not None:
                sp["attrs"].update(attrs_fn(args, kwargs, out))
            return out

        return wrapper

    def run_op(self, fn: Callable, *args: Any, name: str = OP, trace_id: str | None = None, **kwargs: Any) -> Any:
        """Call a solve as one traced operation (a root span)."""
        with self.recorder.span(name, trace_id=trace_id) as sp:
            out = fn(*args, **kwargs)
            sp["attrs"].update(_solver_attrs(out))
        return out


def _job_trace_id(args: tuple) -> str:
    return "job-" + args[1].id


# -- aggregation -------------------------------------------------------------


def _descendants(spans: list[dict[str, Any]], roots: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    """*roots* and every span below them."""
    children: dict[str | None, list[dict[str, Any]]] = {}
    for sp in spans:
        children.setdefault(sp["parent_id"], []).append(sp)
    out: list[dict[str, Any]] = []
    todo = list(roots)
    while todo:
        sp = todo.pop()
        out.append(sp)
        todo.extend(children.get(sp["span_id"], ()))
    return out


def _sum_wall(spans: list[dict[str, Any]], name: str) -> float:
    return sum(sp["wall_s"] for sp in spans if sp["name"] == name)


def _sum_attr(spans: list[dict[str, Any]], name: str, attr: str) -> float:
    return sum(sp["attrs"].get(attr, 0) for sp in spans if sp["name"] == name)


def _count(spans: list[dict[str, Any]], name: str) -> int:
    return sum(1 for sp in spans if sp["name"] == name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: Wrapper time over the solver's own time for the same phase.  The solver
#: times the call that contains the wrapper, so the ratio sits just below 1;
#: the lower bound leaves room for the wrapper's own bookkeeping.
AGREEMENT_LO = 0.85
AGREEMENT_HI = 1.001


def layer_metrics(
    spans: list[dict[str, Any]],
    *,
    n_ops: int,
    count_prefix: int | None = None,
) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from a traced run's spans, plus cross-check errors.

    Time metrics are seconds per operation over every :data:`OP` span;
    count metrics and the ratios built from them cover the first
    *count_prefix* operations (all when ``None``).  Spans under
    :data:`SETUP_OP` roots feed only the ``setup.*`` metrics.
    """
    ops = sorted((sp for sp in spans if sp["name"] == OP), key=lambda s: s["start_s"])
    run = _descendants(spans, ops)
    head = _descendants(spans, ops if count_prefix is None else ops[:count_prefix])
    setup = _descendants(spans, (sp for sp in spans if sp["name"] == SETUP_OP))
    n = max(1, n_ops)
    m: dict[str, float] = {}
    errors: list[str] = []

    m["candidates.positions_s"] = _sum_wall(run, "candidates.positions") / n
    m["candidates.positions"] = _sum_attr(head, "candidates.positions", "count")

    rows = _sum_attr(head, "power.coverable_many", "rows")
    m["power.coverable_many_s"] = _sum_wall(run, "power.coverable_many") / n
    m["power.coverable_rows"] = rows
    m["power.coverable_row_ratio"] = _ratio(_sum_attr(head, "power.coverable_many", "coverable_rows"), rows)

    m["backend.blocked_segments_calls"] = _count(head, "backend.blocked_segments")
    m["backend.segment_edge_tests"] = _sum_attr(head, "backend.blocked_segments", "edge_tests")
    m["backend.power_fill_s"] = _sum_wall(run, "backend.power_fill") / n

    batch = "pdcs.sweep_position_batch"
    build = "placement.build_candidate_set"
    raw = _sum_attr(head, batch, "records")
    kept = _sum_attr(head, build, "kept")
    m["pdcs.sweep_s"] = _sum_attr(run, batch, _LEAF_SWEEP + "_s") / n
    m["pdcs.batch_other_s"] = (
        _sum_wall(run, batch)
        - _sum_wall(run, "power.coverable_many")
        - _sum_wall(run, "backend.power_fill")
        - _sum_attr(run, batch, _LEAF_SWEEP + "_s")
    ) / n
    m["pdcs.records_raw"] = raw
    m["pdcs.useful_position_ratio"] = _ratio(
        _sum_attr(head, build, "distinct_positions"), _sum_attr(head, batch, "positions")
    )

    cold_ops = [sp for sp in ops if not sp["attrs"].get("cached")]
    dedupe = sum(sp["attrs"]["solver_dedupe_s"] for sp in cold_ops)
    assembly = _sum_wall(run, build) - sum(sp["attrs"]["solver_extraction_s"] for sp in cold_ops)
    named = (
        _sum_wall(run, "candidates.positions")
        + _sum_wall(run, batch)
        + dedupe
        + assembly
        + _sum_wall(run, "submodular.greedy")
        + _sum_wall(run, "reuse.get")
        + _sum_wall(run, "reuse.put")
        + _sum_wall(run, "io.extraction_key")
    )
    op_wall = sum(sp["wall_s"] for sp in ops)
    m["placement.candidates_kept"] = kept
    m["placement.dedupe_s"] = dedupe / n
    m["placement.dedupe_yield"] = _ratio(kept, raw)
    m["placement.assembly_s"] = assembly / n
    m["placement.unattributed_s"] = (op_wall - named) / n
    m["placement.op_wall_s"] = op_wall / n
    m["placement.attributed_share"] = _ratio(named, op_wall)

    m["submodular.greedy_s"] = _sum_wall(run, "submodular.greedy") / n
    m["submodular.evaluations"] = _sum_attr(head, "submodular.greedy", "evaluations")
    m["submodular.iterations"] = _sum_attr(head, "submodular.greedy", "iterations")

    hits = _sum_attr(head, "reuse.get", "hit")
    lookups = _count(head, "reuse.get")
    stored = [sp["attrs"]["blob_bytes"] for sp in spans if sp["name"] == "reuse.put" and "blob_bytes" in sp["attrs"]]
    m["reuse.get_s"] = _sum_wall(run, "reuse.get") / n
    m["reuse.put_s"] = _sum_wall(run, "reuse.put") / n
    m["reuse.hits"] = hits
    m["reuse.misses"] = lookups - hits
    m["reuse.hit_ratio"] = _ratio(hits, lookups)
    m["reuse.blob_bytes"] = sum(stored) / len(stored) if stored else 0.0
    m["setup.positions_s"] = _sum_wall(setup, "candidates.positions")
    m["setup.reuse_put_s"] = _sum_wall(setup, "reuse.put")

    # The io / validation / serve spans of a request sit outside the solve.
    m["io.extraction_key_s"] = (_sum_wall(spans, "io.extraction_key") - _sum_wall(setup, "io.extraction_key")) / n
    m["io.scenario_hash_s"] = _sum_wall(spans, "io.scenario_hash") / n
    m["io.scenario_from_dict_s"] = _sum_wall(spans, "io.scenario_from_dict") / n
    m["validation.validate_s"] = _sum_wall(spans, "validation.validate") / n

    jobs = [sp for sp in spans if sp["name"] == "serve.job" and "queue_wait_s" in sp["attrs"]]
    waits = [sp["attrs"]["queue_wait_s"] * 1e3 for sp in jobs]
    runs = [sp["attrs"]["run_s"] * 1e3 for sp in jobs if "run_s" in sp["attrs"]]
    submits = [sp["wall_s"] * 1e3 for sp in spans if sp["name"] == "serve.submit" and sp["attrs"].get("synchronous")]
    m["serve.queue_wait_p50_ms"] = float(np.percentile(waits, 50)) if waits else 0.0
    m["serve.queue_wait_p90_ms"] = float(np.percentile(waits, 90)) if waits else 0.0
    m["serve.run_ms"] = float(np.percentile(runs, 50)) if runs else 0.0
    m["serve.submit_ms"] = float(np.percentile(submits, 50)) if submits else 0.0
    m["serve.result_cache_hit_ratio"] = _ratio(
        _sum_attr(spans, "serve.result_cache.get", "hit"), _count(spans, "serve.result_cache.get")
    )

    # Cross-check: the wrappers against the solver's own spans and counters.
    solver_pos = sum(sp["attrs"]["solver_positions_s"] for sp in cold_ops)
    solver_sweep = sum(sp["attrs"]["solver_sweep_s"] for sp in cold_ops)
    m["obs.positions_agreement"] = _ratio(_sum_wall(run, "candidates.positions"), solver_pos)
    m["obs.sweep_agreement"] = _ratio(_sum_attr(run, batch, _LEAF_SWEEP + "_s"), solver_sweep)
    head_ops = [sp for sp in head if sp["name"] == OP]
    for counter, mine in (
        ("extraction.positions", m["candidates.positions"]),
        ("extraction.candidates_raw", raw),
        ("extraction.candidates", kept),
        ("greedy.evaluations", m["submodular.evaluations"]),
    ):
        theirs = sum(sp["attrs"].get("counter:" + counter, 0) for sp in head_ops)
        if theirs != mine:
            errors.append(f"count mismatch: wrappers saw {counter}={mine}, solver counted {theirs}")
    if cold_ops:
        for key in ("obs.positions_agreement", "obs.sweep_agreement"):
            if not AGREEMENT_LO <= m[key] <= AGREEMENT_HI:
                errors.append(f"{key}={m[key]:.3f} outside [{AGREEMENT_LO}, {AGREEMENT_HI}]")
    return m, errors

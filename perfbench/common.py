"""Metric tables and the result type every workload returns."""

from __future__ import annotations

import bisect
import gc
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import stats

#: The checkout the benchmark runs in (the parent of this package).
ROOT = Path(__file__).resolve().parents[1]
#: Where span files and full result records are written (git-ignored).
OUT_DIR = ROOT / ".perfbench_out"

#: End-to-end metrics (untraced runs): name -> unit.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "utility_mean": "utility",
    "cold_p50_ms": "ms",
    "candidate_tier_p50_ms": "ms",
    "full_hit_p50_ms": "ms",
}

#: Per-layer metrics (traced runs): name -> unit.  ``*_s`` times are
#: seconds per operation; counts cover a fixed prefix of operations.
PER_LAYER: dict[str, str] = {
    "candidates.positions_s": "s",
    "candidates.positions": "count",
    "power.coverable_many_s": "s",
    "power.coverable_rows": "count",
    "power.coverable_row_ratio": "ratio",
    "backend.blocked_segments_calls": "count",
    "backend.segment_edge_tests": "count",
    "backend.power_fill_s": "s",
    "pdcs.sweep_s": "s",
    "pdcs.batch_other_s": "s",
    "pdcs.records_raw": "count",
    "pdcs.useful_position_ratio": "ratio",
    "placement.candidates_kept": "count",
    "placement.dedupe_s": "s",
    "placement.dedupe_yield": "ratio",
    "placement.assembly_s": "s",
    "placement.unattributed_s": "s",
    "placement.op_wall_s": "s",
    "placement.attributed_share": "ratio",
    "submodular.greedy_s": "s",
    "submodular.evaluations": "count",
    "submodular.iterations": "count",
    "reuse.get_s": "s",
    "reuse.put_s": "s",
    "reuse.hits": "count",
    "reuse.misses": "count",
    "reuse.hit_ratio": "ratio",
    "reuse.blob_bytes": "bytes",
    "setup.positions_s": "s",
    "setup.reuse_put_s": "s",
    "io.extraction_key_s": "s",
    "io.scenario_hash_s": "s",
    "io.scenario_from_dict_s": "s",
    "validation.validate_s": "s",
    "serve.queue_wait_p50_ms": "ms",
    "serve.queue_wait_p90_ms": "ms",
    "serve.run_ms": "ms",
    "serve.submit_ms": "ms",
    "serve.pool_busy_ratio": "ratio",
    "serve.result_cache_hit_ratio": "ratio",
    "serve.tier_mismatch_ratio": "ratio",
    "serve.responses_4xx": "count",
    "serve.responses_5xx": "count",
    "serve.requests_cold": "count",
    "serve.requests_candidate_tier": "count",
    "serve.requests_full_hit": "count",
    "obs.tracing_overhead_ratio": "ratio",
    "obs.positions_agreement": "ratio",
    "obs.sweep_agreement": "ratio",
    "loadgen.late_p90_ms": "ms",
    "loadgen.poll_lag_ms": "ms",
}

#: Per-layer metrics only ``serve_mix`` measures (from its HTTP client and
#: its server's job spans); they are 0 on the workloads that call the
#: solver directly.
SERVE_ONLY = (
    "serve.pool_busy_ratio",
    "serve.tier_mismatch_ratio",
    "serve.responses_4xx",
    "serve.responses_5xx",
    "serve.requests_cold",
    "serve.requests_candidate_tier",
    "serve.requests_full_hit",
    "loadgen.late_p90_ms",
    "loadgen.poll_lag_ms",
)


@dataclass
class Result:
    """What one run of one workload measured and checked."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    #: Sample count behind each timing metric (printed next to it).
    samples: dict[str, int] = field(default_factory=dict)
    #: Unscaled value of each metric scaled by :class:`HostSpeed`.
    raw: dict[str, float] = field(default_factory=dict)
    #: For a latency median: its highest resolved tail (percentile, ms),
    #: printed and recorded but not a gated metric.
    tails: dict[str, tuple[float, float]] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    #: Exact counts that must repeat for a given seed.
    counts: dict[str, int] = field(default_factory=dict)
    digest: str = ""
    #: The run's median :class:`HostSpeed` scale (provenance).
    host_scale: float = 0.0
    notes: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.errors.append(message)


#: Time of one :func:`calibration_chunk` on the reference host (a quiet
#: 2-core Xeon at 2.0 GHz).  Timings are reported at this host speed.
REF_CHUNK_S = 0.0040

_CHUNK_INPUT = np.random.default_rng(0).random((64, 64))


def _chunk_work() -> None:
    table = {}
    for k in range(8000):
        table[(k * 7919) % 8009] = (k, str(k))
    sorted(table.items(), key=lambda kv: kv[1][0] % 97)
    a = _CHUNK_INPUT
    for _ in range(10):
        a = np.sqrt(np.abs(a @ a.T) + 1.0)
        a /= a.max()
        (np.sort(a, axis=1)[:, :, None] < 0.5).sum()


def calibration_chunk() -> float:
    """Seconds taken by a fixed ~4 ms mix of interpreter work on dicts,
    tuples and strings and of small-array NumPy work, the two kinds of work
    the solver and the server do.

    The work runs once untimed first, so the caches the operation before it
    filled do not count, and with the garbage collector off, so the size of
    the program's heap does not count either.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _chunk_work()
        t0 = time.perf_counter()
        _chunk_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """The host's speed over a run, sampled by timing
    :func:`calibration_chunk` between operations.

    A shared host runs the same code up to 1.5x slower for stretches of
    seconds to minutes, which no run length averages out.  An operation
    timed from ``t0`` to ``t1`` is therefore scaled by ``REF_CHUNK_S /
    chunk time``, the chunk time being the median of the samples that
    bracket it: the last one taken by ``t0``, any taken in between and the
    first one taken after ``t1``.  The result is the time the operation
    would take on the reference host.
    """

    #: Shortest time between two samples taken by :meth:`sample_if_due`.
    MIN_GAP_S = 0.1

    def __init__(self) -> None:
        #: perf_counter() at the end of each sample, and its chunk time.
        self.ends: list[float] = []
        self.chunks: list[float] = []

    def sample(self) -> None:
        chunk = calibration_chunk()
        self.ends.append(time.perf_counter())
        self.chunks.append(chunk)

    def sample_if_due(self) -> None:
        """Take a sample unless one was taken in the last ``MIN_GAP_S``."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= self.MIN_GAP_S:
            self.sample()

    def scale_over(self, t0: float, t1: float) -> float:
        lo = max(bisect.bisect_right(self.ends, t0) - 1, 0)
        hi = bisect.bisect_left(self.ends, t1)
        return REF_CHUNK_S / statistics.median(self.chunks[lo : hi + 1])

    def scale(self) -> float:
        """Scale for work spread over the whole run: the median sample."""
        return REF_CHUNK_S / statistics.median(self.chunks)


#: An operation's start and end, ``time.perf_counter()`` seconds.
Span = tuple[float, float]


def record_timing(res: Result, name: str, spans: list[Span], q: float, host: HostSpeed) -> None:
    """Store the *q*-th percentile of the *spans*' durations, scaled to the
    reference host, as *name* in ms, with its sample count and the same
    percentile unscaled; no samples is a failed check.  For
    ``latency_p50_ms``, also keep the highest tail the sample count
    resolves (:func:`stats.tail_percentile`)."""
    if spans:
        scaled = [(b - a) * host.scale_over(a, b) for a, b in spans]
        res.metrics[name] = float(np.percentile(scaled, q)) * 1e3
        res.raw[name] = float(np.percentile([b - a for a, b in spans], q)) * 1e3
        res.samples[name] = len(spans)
        tail = stats.tail_percentile(len(spans))
        if name == "latency_p50_ms" and tail is not None:
            res.tails[name] = (tail, float(np.percentile(scaled, tail)) * 1e3)
    else:
        res.fail(f"{name}: no samples")


#: What the benchmark imports before it can run a workload.
PROGRAM_IMPORTS = "import numpy, repro, repro.core, repro.serve.api"


def fresh_import() -> None:
    """Start a fresh interpreter that imports the program.  Each set-up
    does this once, so ``setup_s`` counts the imports whatever this process
    has already imported."""
    subprocess.run(
        [sys.executable, "-c", PROGRAM_IMPORTS], env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True
    )


def record_setup(res: Result, spans: list[Span], host: HostSpeed) -> None:
    """``setup_s``: the median of the run's repeated set-ups, scaled by the
    run's median host sample.  Set-up is mostly starting interpreters and
    importing, which the samples just before and after it track poorly."""
    raw = statistics.median(b - a for a, b in spans)
    res.host_scale = host.scale()
    res.metrics["setup_s"] = raw * res.host_scale
    res.raw["setup_s"] = raw
    res.samples["setup_s"] = len(spans)


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

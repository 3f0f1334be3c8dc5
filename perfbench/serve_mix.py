"""``serve_mix``: an open-loop request mix against a ``repro serve`` process.

The server runs with default settings in a fresh subprocess per run.  In a
traced run the same schedule is sent first to a plain server and then to one
started through :mod:`perfbench.serve_traced`, which installs the layer
wrappers in the server process and writes its spans on SIGTERM.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from . import checks, layers, loadgen
from .common import OUT_DIR, ROOT, HostSpeed, Result, Span, fresh_import, record_setup, record_timing

#: Cold scenes: the ``cluttered`` family at about 9 devices and 5 obstacles.
COLD_PARAMS = {"size": 24.0, "num_obstacles": 5, "clusters": 3, "per_cluster": 3, "charger_multiple": 1}
#: Candidate-tier variants of a cold scene: (charger multiple, threshold).
VARIANTS = [(m, t) for m in (1, 2, 3) for t in (0.04, 0.05, 0.06) if (m, t) != (1, 0.05)]

MIX = loadgen.Mix(
    rate=5.0,
    shares=((loadgen.COLD, 0.15), (loadgen.CANDIDATE, 0.5), (loadgen.FULL, 0.25), (loadgen.INVALID, 0.1)),
    reuse_lag_s=2.0,
)
SMOKE_MIX = loadgen.Mix(rate=5.0, shares=MIX.shares, reuse_lag_s=0.5)

#: Malformed requests; each must be answered with a 400 error envelope.
INVALID_KINDS = ("bad-eps", "unknown-param", "missing-devices", "scenario-not-object", "not-json", "unknown-device-type")

SETUPS = 5
#: Direct re-solves of served results, per class, checked for equality.
DIRECT_CHECKS = 3
SERVER_START_TIMEOUT_S = 60.0


@dataclass
class Server:
    proc: subprocess.Popen
    port: int

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def get(self, path: str) -> tuple[int, dict[str, Any]]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read() or b"{}")
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGTERM, then wait for the process to end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


def start_server(spans_path: Path | None = None) -> Server:
    """Start ``repro serve`` on an ephemeral port and wait for healthz 200."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if spans_path is None:
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
    else:
        cmd = [sys.executable, str(ROOT / "perfbench" / "serve_traced.py"), "--port", "0", "--spans", str(spans_path)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    deadline = time.monotonic() + SERVER_START_TIMEOUT_S
    try:
        line = ""
        while "listening on" not in line:
            ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
            if not ready or proc.poll() is not None:
                raise RuntimeError("server did not report its port")
            line = proc.stdout.readline()
        port = int(line.rsplit(":", 1)[1].split()[0])
        server = Server(proc, port)
        while True:
            try:
                if server.get("/v1/healthz")[0] == 200:
                    return server
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.01)
    except BaseException:
        proc.kill()
        proc.communicate()
        raise


def _schedule(seed: int, seconds: float, mix: loadgen.Mix) -> list[loadgen.Request]:
    from repro.io import scenario_to_dict
    from repro.variation.families import get_family

    family = get_family("cluttered")

    def cold_body(i: int) -> dict[str, Any]:
        scene = family.build(COLD_PARAMS, seed=int(np.random.default_rng([seed, i]).integers(2**31)))
        return {"scenario": scenario_to_dict(scene.scenario)}

    def candidate_body(src: dict[str, Any], k: int) -> dict[str, Any] | None:
        from repro.experiments.scenarios import default_budgets

        if k >= len(VARIANTS):
            return None
        m, t = VARIANTS[k]
        scen = json.loads(json.dumps(src["scenario"]))
        scen["budgets"] = default_budgets(m)
        for dev in scen["devices"]:
            dev["threshold"] = t
        return {"scenario": scen}

    def invalid_body(i: int) -> bytes:
        kind = INVALID_KINDS[i % len(INVALID_KINDS)]
        if kind == "not-json":
            return b"{this is not json"
        body = cold_body(i)
        if kind == "bad-eps":
            body["params"] = {"eps": 2.5}
        elif kind == "unknown-param":
            body["params"] = {"speed": "max"}
        elif kind == "missing-devices":
            del body["scenario"]["devices"]
        elif kind == "scenario-not-object":
            body["scenario"] = [1, 2, 3]
        elif kind == "unknown-device-type":
            body["scenario"]["devices"][0]["type"] = "device-99"
        return json.dumps(body).encode()

    return loadgen.build_schedule(seed, seconds, mix, cold_body, candidate_body, invalid_body)


def _valid(run: loadgen.LoadRun) -> list[loadgen.Outcome]:
    return [o for o in run.outcomes if o.cls != loadgen.INVALID and o.ok]


def _check(res: Result, schedule: list[loadgen.Request], run: loadgen.LoadRun) -> dict[int, dict]:
    """Output checks; returns the result record of each valid request by
    its index."""
    from repro.core import solve_hipo
    from repro.io import scenario_from_dict

    records: dict[int, dict] = {}
    direct = {loadgen.COLD: 0, loadgen.CANDIDATE: 0}
    for req, out in zip(schedule, run.outcomes):
        res.attempted += 1
        if not out.ok:
            res.failed += 1
            res.fail(f"request {req.index} ({req.cls}): {out.error or f'HTTP {out.status}'}")
            continue
        if req.cls == loadgen.INVALID:
            continue
        scenario, _ = scenario_from_dict(json.loads(req.body)["scenario"])
        rec = checks.payload_record(out.result)
        records[req.index] = rec
        res.errors.extend(f"request {req.index}: {e}" for e in checks.check_solution(scenario, rec))
        if req.cls == loadgen.FULL and req.source in records and records[req.source] != rec:
            res.fail(f"request {req.index}: full-hit result differs from request {req.source}")
        if out.tier in direct and direct[out.tier] < DIRECT_CHECKS:
            direct[out.tier] += 1
            sol = solve_hipo(scenario)
            if checks.solution_record(sol.strategies, sol.utility) != rec:
                res.fail(f"request {req.index}: HTTP result differs from a direct solve_hipo")
    n_invalid = sum(1 for r in schedule if r.cls == loadgen.INVALID)
    n_4xx = sum(1 for o in run.outcomes if 400 <= o.status < 500)
    if n_4xx != n_invalid:
        res.fail(f"{n_4xx} responses were 4xx, but {n_invalid} requests were invalid")
    return records


def _spans(schedule: list[loadgen.Request], run: loadgen.LoadRun, outs: list[loadgen.Outcome]) -> list[Span]:
    """Each request's latency as a span from its due time."""
    due = {r.index: run.start_s + r.due_s for r in schedule}
    return [(due[o.index], due[o.index] + o.latency_s) for o in outs]


def _latency_metrics(
    res: Result, schedule: list[loadgen.Request], run: loadgen.LoadRun, records: dict[int, dict], host: HostSpeed
) -> None:
    valid = _valid(run)

    def timing(name: str, outs: list[loadgen.Outcome], q: float) -> None:
        record_timing(res, name, _spans(schedule, run, outs), q, host)

    by_tier = {t: [o for o in valid if o.tier == t] for t in (loadgen.COLD, loadgen.CANDIDATE, loadgen.FULL)}
    timing("latency_p50_ms", valid, 50)
    timing("cold_p50_ms", by_tier[loadgen.COLD], 50)
    timing("candidate_tier_p50_ms", by_tier[loadgen.CANDIDATE], 50)
    timing("full_hit_p50_ms", by_tier[loadgen.FULL], 50)
    res.metrics["ops_per_s"] = len(valid) / (run.end_s - run.start_s)
    res.samples["ops_per_s"] = len(valid)
    # Over the scheduled cold requests, whatever tier answered them, so the
    # set of scenes depends on the seed only.
    utilities = [records[r.index]["utility"] for r in schedule if r.cls == loadgen.COLD and r.index in records]
    res.metrics["utility_mean"] = float(np.mean(utilities)) if utilities else 0.0
    res.samples["utility_mean"] = len(utilities)


#: ``/v1/metrics`` counters kept as exact counts: solver work and cache use.
SERVER_COUNTERS = (
    "extraction.positions",
    "extraction.candidates_raw",
    "extraction.candidates",
    "greedy.evaluations",
    "cache.hits",
    "cache.misses",
    "cache.candidates.hits",
    "cache.candidates.misses",
)


def _exact_counts(run: loadgen.LoadRun, server_metrics: dict[str, Any]) -> dict[str, int]:
    """Requests per observed tier plus the server's own counters; all must
    repeat for a seed."""
    counts = {f"responses.{t}": sum(1 for o in run.outcomes if o.ok and o.tier == t) for t in (loadgen.COLD, loadgen.CANDIDATE, loadgen.FULL)}
    counts["responses.400"] = sum(1 for o in run.outcomes if o.status == 400)
    counters = server_metrics["metrics"]["counters"]
    counts.update({name: int(counters.get(name, 0)) for name in SERVER_COUNTERS})
    return counts


def _client_layer_metrics(res: Result, run: loadgen.LoadRun, pool_size: int, spans: list[dict[str, Any]]) -> None:
    outs = run.outcomes
    valid = [o for o in outs if o.cls != loadgen.INVALID]
    res.metrics["serve.tier_mismatch_ratio"] = sum(1 for o in valid if o.tier != o.cls) / max(1, len(valid))
    res.metrics["serve.responses_4xx"] = sum(1 for o in outs if 400 <= o.status < 500)
    res.metrics["serve.responses_5xx"] = sum(1 for o in outs if o.status >= 500)
    for tier, name in ((loadgen.COLD, "cold"), (loadgen.CANDIDATE, "candidate_tier"), (loadgen.FULL, "full_hit")):
        res.metrics[f"serve.requests_{name}"] = sum(1 for o in valid if o.ok and o.tier == tier)
    # Solver-pool occupancy: job run time over the load window's worker time.
    job_s = sum(sp["attrs"].get("run_s", 0.0) for sp in spans if sp["name"] == "serve.job")
    res.metrics["serve.pool_busy_ratio"] = job_s / ((run.end_s - run.start_s) * pool_size)
    late = [o.sent_late_s * 1e3 for o in outs]
    lags = [o.poll_lag_s * 1e3 for o in outs if o.poll_lag_s is not None]
    res.metrics["loadgen.late_p90_ms"] = float(np.percentile(late, 90))
    res.metrics["loadgen.poll_lag_ms"] = float(np.percentile(lags, 50)) if lags else 0.0


def serve_mix(seed: int, seconds: float, trace: bool, smoke: bool) -> Result:
    res = Result()
    host = HostSpeed()
    mix = SMOKE_MIX if smoke else MIX
    span_seconds = seconds / 2 if trace else seconds

    setups: list[Span] = []
    for k in range(1 if trace else SETUPS):
        host.sample()
        t0 = time.perf_counter()
        fresh_import()
        schedule = _schedule(seed, span_seconds, mix)
        server = start_server()
        setups.append((t0, time.perf_counter()))
        if k < SETUPS - 1 and not trace:
            server.stop()

    try:
        run = loadgen.run_open_loop("127.0.0.1", server.port, schedule, idle=host.sample_if_due)
        rss = server.peak_rss_mb()
        _, server_metrics = server.get("/v1/metrics")
    finally:
        server.stop()
    records = _check(res, schedule, run)
    res.digest = checks.digest([records[i] for i in sorted(records)])
    res.counts = _exact_counts(run, server_metrics)

    if not trace:
        _latency_metrics(res, schedule, run, records, host)
        record_setup(res, setups, host)
        res.metrics["peak_rss_mb"] = rss
        return res

    spans_path = OUT_DIR / f"serve_mix-seed{seed}.trace.jsonl"
    spans_path.unlink(missing_ok=True)
    server = start_server(spans_path)
    try:
        traced = loadgen.run_open_loop("127.0.0.1", server.port, schedule, idle=host.sample_if_due)
        _, server_metrics = server.get("/v1/metrics")
        pool_size = int(server.get("/v1/healthz")[1]["workers"])
    finally:
        server.stop()
    traced_records = _check(res, schedule, traced)
    if checks.digest([traced_records[i] for i in sorted(traced_records)]) != res.digest:
        res.fail("the traced server returned other results than the untraced one")
    if _exact_counts(traced, server_metrics) != res.counts:
        res.fail("the traced server counted other work than the untraced one")
    from repro.obs import validate_trace_lines

    spans = validate_trace_lines(spans_path.read_text().splitlines())
    res.notes.append(f"spans: {len(spans)} written to {spans_path.relative_to(OUT_DIR.parent)} (validated)")
    n_valid = len(_valid(traced))
    metrics, errors = layers.layer_metrics(spans, n_ops=n_valid)
    res.metrics.update(metrics)
    res.errors.extend(errors)
    _client_layer_metrics(res, traced, pool_size, spans)
    untraced_p50 = statistics.median((b - a) * host.scale_over(a, b) for a, b in _spans(schedule, run, _valid(run)))
    traced_p50 = statistics.median((b - a) * host.scale_over(a, b) for a, b in _spans(schedule, traced, _valid(traced)))
    res.metrics["obs.tracing_overhead_ratio"] = traced_p50 / untraced_p50 - 1.0
    counters = server_metrics["metrics"]["counters"]
    if int(counters.get("extraction.positions", 0)) != metrics["candidates.positions"]:
        res.fail(
            f"count mismatch: wrappers saw {metrics['candidates.positions']} positions, "
            f"the server counted {counters.get('extraction.positions', 0)}"
        )
    return res

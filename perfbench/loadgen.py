"""Open-loop HTTP load generator for ``serve_mix``.

Requests are sent on a seeded schedule whatever the server's state, as
independent clients would send them.  One thread sends (``POST
/v1/solve``, one keep-alive connection) and one thread polls queued jobs
(``GET /v1/jobs/<id>``, a second connection), so the process never uses
more than two threads or connections.

Every latency runs from the request's *due* time to the moment the client
sees its result, so a stall also charges the wait it imposes on the
requests behind it; how late the sender itself ran is reported separately.
"""

from __future__ import annotations

import http.client
import json
import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

COLD, CANDIDATE, FULL, INVALID = "cold", "candidate", "full", "invalid"
#: Observed tier for each ``cache_tier`` a response reports.
TIER_OF = {None: COLD, "candidates": CANDIDATE, "full": FULL}


@dataclass(frozen=True)
class Request:
    index: int
    due_s: float
    cls: str
    body: bytes
    #: Index of the request whose geometry (candidate) or bytes (full) this reuses.
    source: int | None = None


@dataclass
class Outcome:
    index: int
    cls: str
    sent_late_s: float = 0.0
    status: int = 0
    tier: str | None = None
    latency_s: float | None = None
    #: Upper bound on how long a finished queued job waited for the poller.
    poll_lag_s: float | None = None
    result: dict[str, Any] | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        if self.cls == INVALID:
            return self.status == 400 and self.error is None
        return self.status == 200 and self.error is None and self.result is not None


@dataclass(frozen=True)
class Mix:
    rate: float  # requests per second
    shares: tuple[tuple[str, float], ...]  # (class, share of requests)
    #: A request may reuse another only when that one was due this much
    #: earlier, so that its result normally exists by then.
    reuse_lag_s: float


#: Slots per block; every block holds the exact class mix in the same
#: order, so each stretch of a run, and each seed, offers the same load.
BLOCK = 20


def block_order(shares: tuple[tuple[str, float], ...]) -> list[str]:
    """One block of classes: cold requests on evenly spaced slots (so cold
    solves seldom overlap), each other class spread evenly over the rest.
    A fixed order keeps the share of each class that lands beside a running
    cold solve the same for every seed."""
    counts = {cls: round(share * BLOCK) for cls, share in shares}
    n_cold = counts.pop(COLD, 0)
    cold_slots = {round(k * BLOCK / n_cold) for k in range(n_cold)} if n_cold else set()
    spread = sorted(((j + 0.5) / n, cls) for cls, n in counts.items() for j in range(n))
    it = iter([cls for _, cls in spread] + [COLD] * BLOCK)
    return [COLD if slot in cold_slots else next(it) for slot in range(BLOCK)]


def build_schedule(
    seed: int,
    seconds: float,
    mix: Mix,
    cold_body: Callable[[int], dict[str, Any]],
    candidate_body: Callable[[dict[str, Any], int], dict[str, Any] | None],
    invalid_body: Callable[[int], bytes],
) -> list[Request]:
    """The seeded request schedule.

    Requests are due at evenly spaced slots, ``1 / rate`` apart, in the
    class order of :func:`block_order`; the seed picks the scenes and which
    earlier request each reuse repeats.  A
    *candidate* request takes the geometry of an earlier cold request with
    new budgets or thresholds (``candidate_body(cold_body, k)`` gives
    variant *k*, or ``None`` when there are no more); a *full* request
    repeats an earlier valid request byte for byte.  Only requests due
    :attr:`Mix.reuse_lag_s` earlier are reused; a slot with nothing to reuse
    stays empty, so a run opens with cold and invalid requests only, at
    their usual rate.
    """
    rng = np.random.default_rng([seed, 11])
    schedule: list[Request] = []
    cold_dicts: dict[int, dict[str, Any]] = {}
    variants_used: dict[int, int] = {}
    order = block_order(mix.shares)
    for slot in range(max(1, round(mix.rate * seconds))):
        cls, due = order[slot % BLOCK], slot / mix.rate
        ready = [r for r in schedule if r.due_s <= due - mix.reuse_lag_s]
        i = len(schedule)
        source = None
        if cls == INVALID:
            body = invalid_body(i)
        elif cls == COLD:
            cold_dicts[i] = cold_body(i)
            body = json.dumps(cold_dicts[i]).encode()
        elif cls == FULL:
            valid = [r for r in ready if r.cls != INVALID]
            if not valid:
                continue
            src = valid[int(rng.integers(len(valid)))]
            body, source = src.body, src.index
        else:
            sources = [r.index for r in ready if r.cls == COLD]
            for k in rng.permutation(len(sources)):
                variant = candidate_body(cold_dicts[sources[k]], variants_used.get(sources[k], 0))
                if variant is not None:
                    source = sources[k]
                    variants_used[source] = variants_used.get(source, 0) + 1
                    break
            if source is None:
                continue
            body = json.dumps(variant).encode()
        schedule.append(Request(i, due, cls, body, source))
    return schedule


def _request(conn: http.client.HTTPConnection, method: str, path: str, body: bytes | None = None) -> tuple[int, dict[str, Any]]:
    headers = {"Content-Type": "application/json"} if body is not None else {}
    conn.request(method, path, body=body, headers=headers)
    resp = conn.getresponse()
    raw = resp.read()
    try:
        payload = json.loads(raw) if raw else {}
    except json.JSONDecodeError:
        payload = {"raw": raw.decode("utf-8", "replace")}
    return resp.status, payload


#: Shortest wait before a due request in which the sender calls ``idle``.
IDLE_MIN_S = 0.03


@dataclass
class LoadRun:
    outcomes: list[Outcome]
    start_s: float  # time.perf_counter() at due time 0
    end_s: float  # time.perf_counter() when the last result was seen


def run_open_loop(
    host: str,
    port: int,
    schedule: list[Request],
    *,
    poll_interval_s: float = 0.02,
    timeout_s: float = 60.0,
    idle: Callable[[], None] | None = None,
) -> LoadRun:
    """Send *schedule* open-loop and collect one :class:`Outcome` each.

    ``idle()`` (a few ms of work) is called by the sender while it waits for
    a request that is due at least :data:`IDLE_MIN_S` later."""
    outcomes = [Outcome(r.index, r.cls) for r in schedule]
    jobs: "queue.Queue[tuple[Request, str] | None]" = queue.Queue()
    start = time.perf_counter() + 0.05
    last_seen = [start]

    def done(out: Outcome, req: Request, status: int, payload: dict[str, Any]) -> None:
        now = time.perf_counter()
        last_seen[0] = max(last_seen[0], now)
        out.status = status
        out.latency_s = now - (start + req.due_s)
        if status == 200 and payload.get("state") == "done":
            out.result = payload.get("result")
            out.tier = TIER_OF.get(payload.get("cache_tier"), payload.get("cache_tier"))
        elif req.cls != INVALID or status != 400:
            out.error = f"HTTP {status}: {json.dumps(payload)[:200]}"

    def poller() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
        pending: list[tuple[Request, str, float]] = []
        finished = False
        try:
            while not (finished and not pending):
                try:
                    while True:
                        item = jobs.get_nowait()
                        if item is None:
                            finished = True
                        else:
                            pending.append((item[0], item[1], time.perf_counter()))
                except queue.Empty:
                    pass
                still = []
                for req, job_id, last_poll in pending:
                    out = outcomes[req.index]
                    polled = time.perf_counter()
                    try:
                        status, payload = _request(conn, "GET", f"/v1/jobs/{job_id}")
                    except (OSError, http.client.HTTPException) as exc:
                        out.error = f"poll failed: {type(exc).__name__}: {exc}"
                        conn.close()
                        continue
                    state = payload.get("state")
                    if status == 200 and state in ("queued", "running"):
                        if time.perf_counter() - (start + req.due_s) > timeout_s:
                            out.error = f"no result after {timeout_s}s"
                        else:
                            still.append((req, job_id, polled))
                        continue
                    done(out, req, status, payload)
                    out.poll_lag_s = time.perf_counter() - last_poll
                pending = still
                time.sleep(poll_interval_s)
        finally:
            conn.close()

    poll_thread = threading.Thread(target=poller, name="loadgen-poller", daemon=True)
    poll_thread.start()
    conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
    try:
        for req in schedule:
            out = outcomes[req.index]
            wait = start + req.due_s - time.perf_counter()
            if idle is not None and wait > IDLE_MIN_S:
                idle()
                wait = start + req.due_s - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            out.sent_late_s = max(0.0, time.perf_counter() - (start + req.due_s))
            try:
                status, payload = _request(conn, "POST", "/v1/solve", req.body)
            except (OSError, http.client.HTTPException) as exc:
                out.error = f"post failed: {type(exc).__name__}: {exc}"
                conn.close()
                continue
            if status == 202:
                out.status = 202
                jobs.put((req, payload["id"]))
            else:
                done(out, req, status, payload)
    finally:
        conn.close()
        jobs.put(None)
        poll_thread.join(timeout=timeout_s + 5.0)
    if poll_thread.is_alive():
        raise RuntimeError("load generator poller did not finish")
    return LoadRun(outcomes, start, last_seen[0])

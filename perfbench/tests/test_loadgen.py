"""The open-loop generator: schedule shape, due-time latency, lateness."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from perfbench import loadgen
from perfbench.loadgen import CANDIDATE, COLD, FULL, INVALID, Request

MIX = loadgen.Mix(rate=5.0, shares=((COLD, 0.2), (CANDIDATE, 0.35), (FULL, 0.35), (INVALID, 0.1)), reuse_lag_s=2.0)


def _schedule(seed, seconds=40.0):
    def candidate(src, k):
        return None if k >= 3 else {"geometry": src["geometry"], "variant": k}

    return loadgen.build_schedule(
        seed,
        seconds,
        MIX,
        cold_body=lambda i: {"geometry": i},
        candidate_body=candidate,
        invalid_body=lambda i: b"not json",
    )


def test_schedule_is_a_function_of_the_seed():
    assert _schedule(4) == _schedule(4)
    assert _schedule(4) != _schedule(5)


def test_schedule_keeps_the_mix_and_spaces_cold_requests():
    sched = _schedule(1)
    by_index = {r.index: r for r in sched}
    assert [r.index for r in sched] == list(range(len(sched)))
    cold = [r.due_s for r in sched if r.cls == COLD]
    # Four cold requests per 20-slot block, one every fifth slot (1 s).
    assert cold == pytest.approx([k * 1.0 for k in range(40)])
    late = [r for r in sched if r.due_s >= MIX.reuse_lag_s]
    for cls, share in MIX.shares:
        assert sum(r.cls == cls for r in late) == pytest.approx(share * 5.0 * 38, abs=5)
    for r in sched:
        if r.cls in (FULL, CANDIDATE):
            src = by_index[r.source]
            assert src.due_s <= r.due_s - MIX.reuse_lag_s
        if r.cls == FULL:
            assert src.cls != INVALID and r.body == src.body
        if r.cls == CANDIDATE:
            assert src.cls == COLD and json.loads(r.body)["geometry"] == src.index


class _FakeServer(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    jobs: dict = {}

    def log_message(self, *args):
        pass

    def _send(self, status, payload):
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):
        kind = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["kind"]
        if kind == "invalid":
            return self._send(400, {"error": {"code": "bad", "message": "bad"}})
        if kind == "queued":
            self.jobs["j1"] = time.perf_counter() + 0.15
            return self._send(202, {"id": "j1", "state": "queued"})
        if kind == "slow":
            time.sleep(0.3)
        self._send(200, {"state": "done", "cache_tier": "full", "result": {"kind": kind}})

    def do_GET(self):
        ready = time.perf_counter() >= self.jobs["j1"]
        self._send(200, {"state": "done", "result": {"kind": "queued"}} if ready else {"state": "running"})


@pytest.fixture
def fake_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FakeServer)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def test_latency_runs_from_the_due_time_and_lateness_is_reported(fake_server):
    body = lambda kind: json.dumps({"kind": kind}).encode()  # noqa: E731
    schedule = [
        Request(0, 0.0, FULL, body("slow")),
        Request(1, 0.1, FULL, body("fast")),
        Request(2, 0.5, COLD, body("queued")),
        Request(3, 0.6, INVALID, body("invalid")),
    ]
    run = loadgen.run_open_loop("127.0.0.1", fake_server, schedule, poll_interval_s=0.01, timeout_s=10)
    slow, fast, queued, invalid = run.outcomes
    assert all(o.ok for o in run.outcomes)
    assert slow.latency_s >= 0.3 and slow.sent_late_s < 0.05
    # The fast request waited behind the slow one: it was sent ~0.2 s late,
    # and its latency counts that wait although the server answered at once.
    assert fast.sent_late_s >= 0.15
    assert fast.latency_s >= fast.sent_late_s
    assert fast.tier == FULL
    assert queued.tier == COLD and queued.latency_s >= 0.15 and queued.poll_lag_s is not None
    assert invalid.status == 400 and invalid.latency_s is not None
    assert run.end_s - run.start_s >= 0.65


def test_idle_work_runs_only_in_long_waits_and_does_not_delay_sends(fake_server):
    body = json.dumps({"kind": "fast"}).encode()
    # Waits before the sends: ~0.05 s (first), 0.2 s, then 0.01 s (too short).
    schedule = [Request(0, 0.0, FULL, body), Request(1, 0.2, FULL, body), Request(2, 0.21, FULL, body)]
    calls = []
    run = loadgen.run_open_loop(
        "127.0.0.1", fake_server, schedule, poll_interval_s=0.01, timeout_s=10, idle=lambda: calls.append(time.perf_counter())
    )
    assert all(o.ok for o in run.outcomes)
    assert len(calls) == 2
    assert all(o.sent_late_s < 0.05 for o in run.outcomes)


def test_every_seed_sends_the_same_class_sequence():
    def classes(sched):
        return [(r.due_s, r.cls) for r in sched]

    assert classes(_schedule(4)) == classes(_schedule(5))
    assert loadgen.block_order(MIX.shares) == loadgen.block_order(MIX.shares)

"""The kernel seam is reached through the numpy class's methods.

Per-layer profiling wraps ``blocked_segments`` and ``power_fill`` on the
class of the default backend and counts the calls.  A refactor that makes
the geometry, model or pdcs code bypass those methods (an inlined kernel, a
module-level function) would silently zero those counts; this test makes
it fail here instead.
"""

from __future__ import annotations

from backend_testlib import solve_scenario

from repro.backend import resolve_backend
from repro.core import solve_hipo


def test_cold_solve_calls_blocked_segments_and_power_fill(monkeypatch):
    cls = type(resolve_backend(None))
    assert cls.__name__ == "NumpyBackend"
    calls = {"blocked_segments": 0, "power_fill": 0}

    def counted(name):
        original = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(cls, name, counted(name))
    solve_hipo(solve_scenario())  # no cache: a cold extraction
    assert calls["blocked_segments"] > 0, calls
    assert calls["power_fill"] > 0, calls

"""Name resolution and ambient scoping of the kernel seam."""

from __future__ import annotations

import pytest

from repro import backend as backend_pkg
from repro.backend import (
    activate_backend,
    active_backend,
    resolve_backend,
    use_backend,
)


def test_builtin_backends_registered():
    """Exactly two kernel sets ship: numpy and the pyloop oracle."""
    assert resolve_backend("numpy").name == "numpy"
    assert resolve_backend("pyloop").name == "pyloop"
    with pytest.raises(ValueError) as exc:
        resolve_backend("tpu")
    assert "numpy, pyloop" in str(exc.value)


def test_numpy_always_resolves():
    assert resolve_backend("numpy").name == "numpy"
    assert resolve_backend(" NumPy ").name == "numpy"  # normalized


def test_unknown_backend_is_a_clear_error():
    with pytest.raises(ValueError, match="unknown backend 'tpu'.*numpy.*pyloop"):
        resolve_backend("tpu")


def test_explicit_unavailable_backend_does_not_fall_back():
    """A name that is not one of the two kernel sets errors instead of
    silently running numpy, in every entry point that takes a name."""
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend("numba")
    with pytest.raises(ValueError, match="unknown backend"):
        with use_backend("numba"):
            pass  # pragma: no cover - never entered


def test_none_resolves_to_ambient_then_numpy(monkeypatch):
    # The former selection env var is no longer consulted.
    monkeypatch.setenv("REPRO_BACKEND", "pyloop")
    token = backend_pkg._ACTIVE.set(None)  # isolate this test's context
    try:
        assert resolve_backend(None).name == "numpy"
        assert active_backend().name == "numpy"
        with use_backend("pyloop") as b:
            assert resolve_backend(None) is b
    finally:
        backend_pkg._ACTIVE.reset(token)


def test_use_backend_scopes_the_ambient_choice():
    before = active_backend().name
    with use_backend("pyloop") as b:
        assert b.name == "pyloop"
        assert active_backend() is b
        assert resolve_backend(None) is b
    assert active_backend().name == before


def test_use_backend_nests():
    with use_backend("numpy") as outer:
        with use_backend(None) as inner:  # None defers to ambient
            assert inner is outer


def test_activate_backend_installs_unscoped():
    token = backend_pkg._ACTIVE.set(None)  # isolate this test's context
    try:
        activate_backend("pyloop")
        assert active_backend().name == "pyloop"
    finally:
        backend_pkg._ACTIVE.reset(token)

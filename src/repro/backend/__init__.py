"""Kernel seam of the extraction hot path: one kernel set plus its oracle.

The candidate extraction spends nearly all of its time in four array
kernels: the segment-blocking test behind
:func:`~repro.geometry.visibility.visible_mask_many`, the even-odd
point-in-polygon parity fallback, the exact power-law fill
``a / (d + b)**2``, and the Algorithm-1 rotational-sweep coverage matrix.
This package holds exactly two implementations of them behind one
contract:

* :class:`KernelBackend` — the kernel API (``blocked_segments`` /
  ``parity_inside`` / ``power_fill`` / ``sweep_coverage``).
* ``numpy`` (:mod:`.numpy_backend`) — the broadcast kernels every solve
  runs.
* ``pyloop`` (:mod:`.pyloop_backend`) — the same kernels written as
  scalar loops in plain Python: an independently written second
  implementation, requested by name only, behind the cross-implementation
  byte-equality tests and the ``cross_impl`` invariant of
  :mod:`repro.variation`.

The two are **numerically interchangeable by contract**: every kernel
returns bit-identical arrays for identical inputs, so candidate sets,
cache keys and solutions do not depend on the implementation (asserted by
``tests/backend/test_equivalence.py``).  Because of that contract the
extraction-reuse cache key deliberately does *not* fold the backend in.

Resolution: an explicit name (``solve_hipo(backend=...)``) wins, then the
ambient backend installed by :func:`use_backend` (how ``solve_hipo``
scopes its choice for nested kernels and pool workers), then ``numpy``.
"""

from __future__ import annotations

import contextlib
from abc import ABC, abstractmethod
from contextvars import ContextVar
from typing import Iterator

import numpy as np

__all__ = [
    "KernelBackend",
    "activate_backend",
    "active_backend",
    "resolve_backend",
    "use_backend",
]


class KernelBackend(ABC):
    """The stable kernel API of the extraction hot path.

    All kernels take and return plain ``numpy`` arrays.  The contract is
    bit-identical output: for equal inputs every implementation must
    return arrays equal under ``np.array_equal`` with identical dtypes.
    That property is what keeps candidate sets, content-address cache keys
    and solved placements backend-independent.
    """

    #: The name ``resolve_backend`` and ``solve_hipo(backend=)`` accept.
    name: str = ""

    @abstractmethod
    def blocked_segments(
        self,
        starts: np.ndarray,
        ends: np.ndarray,
        edge_starts: np.ndarray,
        edge_ends: np.ndarray,
        edge_dirs: np.ndarray,
    ) -> np.ndarray:
        """Which sight segments ``starts[k] → ends[k]`` one polygon blocks.

        *edge_starts* / *edge_ends* / *edge_dirs* are the polygon's
        ``(E, 2)`` edge arrays (:meth:`repro.geometry.Polygon.edge_arrays`).
        A segment is blocked when it properly crosses an edge, or — for
        grazing segments — when its midpoint lies strictly inside by the
        even-odd parity test.  Returns an ``(m,)`` bool array.
        """

    @abstractmethod
    def parity_inside(
        self, edge_starts: np.ndarray, edge_ends: np.ndarray, points: np.ndarray
    ) -> np.ndarray:
        """Even-odd point-in-polygon over edges ``(edge_starts[k],
        edge_ends[k])`` for each row of *points* (no boundary refinement).
        Returns an ``(n,)`` bool array."""

    @abstractmethod
    def power_fill(self, a: np.ndarray, b: np.ndarray, dists: np.ndarray) -> np.ndarray:
        """The exact power law ``a / (dists + b) ** 2`` (Eq. 1).

        *dists* is either ``(n,)`` with *a*/*b* of the same length, or
        ``(rows, devices)`` with *a*/*b* of length ``devices`` broadcast
        across rows.  Returns a float array shaped like *dists*.
        """

    @abstractmethod
    def sweep_coverage(
        self, bearings: np.ndarray, half_angle: float, tol: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Algorithm-1 sweep support: candidate orientations and coverage.

        Given the charger→device *bearings* of the coverable devices and
        the charger cone *half_angle*, returns ``(thetas, coverage)``
        where ``thetas[t] = mod(bearings[t] + half_angle, 2π)`` puts
        device *t* on the clockwise cone boundary and ``coverage[t, j]``
        is True iff device *j* lies inside the cone oriented at
        ``thetas[t]`` (within *tol*).
        """


#: Ambient backend installed by :func:`use_backend` (context-local so
#: concurrent serve threads never see each other's scope).
_ACTIVE: ContextVar[KernelBackend | None] = ContextVar("repro_backend", default=None)


def resolve_backend(name: str | None) -> KernelBackend:
    """The backend called *name*; ``None`` means the ambient backend when
    one is installed, else ``numpy``.  Unknown names raise ``ValueError``."""
    if name is None:
        return active_backend()
    backend = _BACKENDS.get(name.strip().lower())
    if backend is None:
        known = ", ".join(sorted(_BACKENDS))
        raise ValueError(f"unknown backend {name!r} (expected one of: {known})")
    return backend


def active_backend() -> KernelBackend:
    """The backend the hot kernels must use *right now*: the ambient one
    (:func:`use_backend`) when installed, otherwise ``numpy``.  This is the
    only entry point the ``geometry`` / ``model`` / ``core`` kernels call,
    and it is a context-variable read."""
    backend = _ACTIVE.get()
    return backend if backend is not None else _BACKENDS["numpy"]


def activate_backend(name: str | None) -> KernelBackend:
    """Resolve *name* and install it as this context's ambient backend,
    unscoped.  This is the pool-worker entry point: the extraction pool
    initializer calls it once per worker process so chunked sweep tasks
    run on the same backend the parent solve resolved.  In-process callers
    should prefer the scoped :func:`use_backend`."""
    backend = resolve_backend(name)
    _ACTIVE.set(backend)
    return backend


@contextlib.contextmanager
def use_backend(backend: KernelBackend | str | None) -> Iterator[KernelBackend]:
    """Make *backend* (instance, name, or ``None`` for the current one) the
    ambient backend for the enclosed block::

        with use_backend("pyloop") as b:
            solve_hipo(scenario)   # every kernel inside runs on b
    """
    resolved = backend if isinstance(backend, KernelBackend) else resolve_backend(backend)
    token = _ACTIVE.set(resolved)
    try:
        yield resolved
    finally:
        _ACTIVE.reset(token)


from .numpy_backend import NumpyBackend  # noqa: E402 - needs KernelBackend
from .pyloop_backend import PyLoopBackend  # noqa: E402

_BACKENDS: dict[str, KernelBackend] = {"numpy": NumpyBackend(), "pyloop": PyLoopBackend()}

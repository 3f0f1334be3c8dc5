"""Scalar-loop kernels (``pyloop``): the test oracle for the numpy kernels.

The four kernels written a second time, one element at a time in plain
Python (early exit per segment instead of the numpy ``(m, E)``
broadcast).  Being an independently written implementation, it is what
the byte-equality tests in ``tests/backend`` and the ``cross_impl``
invariant of :mod:`repro.variation` compare the numpy kernels against.
It is orders of magnitude slower, so it runs only when requested by name.

Bit-identity notes — the contract is *exact* equality with the numpy
kernels, which constrains the arithmetic:

* the power law is written ``t = d + b; a / (t * t)`` because numpy's
  ``x ** 2`` takes the integer-exponent fast path (a multiply), and the
  loop must do the identical multiply rather than call ``pow``;
* every output element is computed by the same operations in the same
  order as its numpy counterpart, with no accumulation across elements.
"""

from __future__ import annotations

import math

import numpy as np

from ..geometry.primitives import EPS, TWO_PI
from . import KernelBackend

__all__ = ["PyLoopBackend"]


class PyLoopBackend(KernelBackend):
    """Plain-Python scalar loops; bit-identical to :class:`NumpyBackend`."""

    name = "pyloop"

    def blocked_segments(
        self,
        starts: np.ndarray,
        ends: np.ndarray,
        edge_starts: np.ndarray,
        edge_ends: np.ndarray,
        edge_dirs: np.ndarray,
    ) -> np.ndarray:
        # Per segment: proper-crossing test against each edge with early
        # exit, then the even-odd parity fallback for grazing ones — split at
        # interior vertex touches (skipping stretches along a collinear
        # edge), one whole-segment midpoint otherwise.
        c, d, s = edge_starts, edge_ends, edge_dirs
        m = starts.shape[0]
        out = np.zeros(m, dtype=np.bool_)
        for k in range(m):
            sx = starts[k, 0]
            sy = starts[k, 1]
            rx = ends[k, 0] - sx
            ry = ends[k, 1] - sy
            rr = rx * rx + ry * ry
            blocked = False
            touches = []
            along = []
            for e in range(c.shape[0]):
                d1 = rx * (c[e, 1] - sy) - ry * (c[e, 0] - sx)
                d2 = rx * (d[e, 1] - sy) - ry * (d[e, 0] - sx)
                if rr > 0.0 and not (d1 > EPS or d1 < -EPS):
                    tc = ((c[e, 0] - sx) * rx + (c[e, 1] - sy) * ry) / rr
                    if EPS < tc < 1.0 - EPS:
                        touches.append(tc)
                    if not (d2 > EPS or d2 < -EPS):
                        td = ((d[e, 0] - sx) * rx + (d[e, 1] - sy) * ry) / rr
                        along.append((min(tc, td), max(tc, td)))
                if not ((d1 > EPS and d2 < -EPS) or (d1 < -EPS and d2 > EPS)):
                    continue
                d3 = s[e, 0] * (sy - c[e, 1]) - s[e, 1] * (sx - c[e, 0])
                d4 = s[e, 0] * (ends[k, 1] - c[e, 1]) - s[e, 1] * (ends[k, 0] - c[e, 0])
                if (d3 > EPS and d4 < -EPS) or (d3 < -EPS and d4 > EPS):
                    blocked = True
                    break
            if not blocked and (touches or along):
                ts = sorted([0.0, *touches, 1.0])
                for t0, t1 in zip(ts, ts[1:]):
                    if t1 - t0 <= EPS or any(lo - EPS <= t0 and t1 <= hi + EPS for lo, hi in along):
                        continue
                    tm = (t0 + t1) / 2.0
                    mid = np.array([[sx + tm * rx, sy + tm * ry]])
                    if self.parity_inside(c, d, mid)[0]:
                        blocked = True
                        break
            elif not blocked:
                mid = np.array([[(sx + ends[k, 0]) / 2.0, (sy + ends[k, 1]) / 2.0]])
                blocked = bool(self.parity_inside(c, d, mid)[0])
            out[k] = blocked
        return out

    def parity_inside(
        self, edge_starts: np.ndarray, edge_ends: np.ndarray, points: np.ndarray
    ) -> np.ndarray:
        c, d = edge_starts, edge_ends
        out = np.zeros(points.shape[0], dtype=np.bool_)
        for k in range(points.shape[0]):
            x = points[k, 0]
            y = points[k, 1]
            crossings = 0
            for e in range(c.shape[0]):
                if (c[e, 1] > y) != (d[e, 1] > y):
                    x_cross = (d[e, 0] - c[e, 0]) * (y - c[e, 1]) / (d[e, 1] - c[e, 1]) + c[e, 0]
                    if x < x_cross:
                        crossings += 1
            out[k] = crossings % 2 == 1
        return out

    def power_fill(self, a: np.ndarray, b: np.ndarray, dists: np.ndarray) -> np.ndarray:
        out = np.empty(dists.shape, dtype=np.float64)
        for idx in np.ndindex(*dists.shape):
            j = idx[-1]
            t = dists[idx] + b[j]
            out[idx] = a[j] / (t * t)
        return out

    def sweep_coverage(
        self, bearings: np.ndarray, half_angle: float, tol: float
    ) -> tuple[np.ndarray, np.ndarray]:
        m = bearings.shape[0]
        thetas = np.empty(m, dtype=np.float64)
        for t in range(m):
            thetas[t] = np.mod(bearings[t] + half_angle, TWO_PI)
        coverage = np.empty((m, m), dtype=np.bool_)
        limit = half_angle + tol
        for t in range(m):
            for j in range(m):
                diff = abs(np.mod(bearings[j] - thetas[t] + math.pi, TWO_PI) - math.pi)
                coverage[t, j] = diff <= limit
        return thetas, coverage

"""The numpy kernels: the broadcast implementation every solve runs.

These bodies are the exact array expressions that previously lived inline
in :mod:`repro.geometry.visibility` (proper-crossing + parity tests),
:mod:`repro.model.power` (the power-law fill) and :mod:`repro.core.pdcs`
(the sweep coverage matrix), moved here verbatim — same operations in the
same order on the same dtypes — so the seam itself cannot change results.
"""

from __future__ import annotations

import math

import numpy as np

from ..geometry.primitives import EPS, TWO_PI
from . import KernelBackend

__all__ = ["NumpyBackend"]


def _parity_inside(c: np.ndarray, d: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Vectorized even-odd point-in-polygon over edges ``(c[k], d[k])``
    (no boundary refinement)."""
    x, y = pts[:, 0], pts[:, 1]
    cond = (c[None, :, 1] > y[:, None]) != (d[None, :, 1] > y[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = (d[:, 0] - c[:, 0])[None, :] * (y[:, None] - c[None, :, 1]) / (
            d[:, 1] - c[:, 1]
        )[None, :] + c[None, :, 0]
    crossing = cond & (x[:, None] < x_cross)
    return crossing.sum(axis=1) % 2 == 1


def _blocked_segments(
    starts: np.ndarray,
    ends: np.ndarray,
    c: np.ndarray,
    d: np.ndarray,
    s: np.ndarray,
) -> np.ndarray:
    """Proper-crossing test of every sight segment against every edge, with
    the parity (midpoint-inside) fallback for grazing segments.

    A grazing segment through a polygon vertex can still cross the interior
    between two boundary touches (a corner-to-corner diagonal), where its
    single midpoint may land on the boundary.  Those rows are split at the
    vertex parameters and each sub-interval midpoint off the boundary is
    parity-tested, as :meth:`~repro.geometry.Polygon.blocks_segment` does.
    """
    r = ends - starts  # (m, 2) segment directions
    cs = c[None, :, :] - starts[:, None, :]  # (m, E, 2)
    ds = d[None, :, :] - starts[:, None, :]
    # d1/d2: edge endpoints relative to each sight segment (m, E)
    d1 = r[:, None, 0] * cs[..., 1] - r[:, None, 1] * cs[..., 0]
    d2 = r[:, None, 0] * ds[..., 1] - r[:, None, 1] * ds[..., 0]
    # d3/d4: segment endpoints relative to each edge (m, E)
    sc = starts[:, None, :] - c[None, :, :]
    ec = ends[:, None, :] - c[None, :, :]
    d3 = s[None, :, 0] * sc[..., 1] - s[None, :, 1] * sc[..., 0]
    d4 = s[None, :, 0] * ec[..., 1] - s[None, :, 1] * ec[..., 0]
    above, below = d1 > EPS, d1 < -EPS
    proper = ((above & (d2 < -EPS)) | (below & (d2 > EPS))) & (
        ((d3 > EPS) & (d4 < -EPS)) | ((d3 < -EPS) & (d4 > EPS))
    )
    blocked = proper.any(axis=1)
    free = ~blocked
    # Free rows whose line passes through a polygon vertex (rare) are split
    # at the vertices strictly inside the segment, as blocks_segment does;
    # sub-intervals along a collinear edge lie on the boundary and are
    # skipped.  The other sub-interval midpoints join the parity test below.
    on_line = ~(above | below)
    rows: list[int] = []
    sub_mids: list[tuple[float, float]] = []
    owner: list[int] = []
    if on_line.any():
        touched = np.zeros_like(free)
        touched[np.flatnonzero(on_line) // on_line.shape[1]] = True
        cl, dl = c.tolist(), d.tolist()
        for k in np.flatnonzero(touched & free).tolist():
            sx, sy = starts[k].tolist()
            rx, ry = r[k].tolist()
            rr = rx * rx + ry * ry
            if rr <= 0.0:
                continue
            ts, along = [0.0, 1.0], []
            d2k = d2[k].tolist()
            for e in np.flatnonzero(on_line[k]).tolist():
                tc = ((cl[e][0] - sx) * rx + (cl[e][1] - sy) * ry) / rr
                if EPS < tc < 1.0 - EPS:
                    ts.append(tc)
                if not (d2k[e] > EPS or d2k[e] < -EPS):
                    td = ((dl[e][0] - sx) * rx + (dl[e][1] - sy) * ry) / rr
                    along.append((min(tc, td), max(tc, td)))
            if len(ts) == 2 and not along:
                continue
            ts.sort()
            for t0, t1 in zip(ts, ts[1:]):
                if t1 - t0 > EPS and not any(lo - EPS <= t0 and t1 <= hi + EPS for lo, hi in along):
                    tm = (t0 + t1) / 2.0
                    sub_mids.append((sx + tm * rx, sy + tm * ry))
                    owner.append(k)
            rows.append(k)
        free[rows] = False
    plain = np.nonzero(free)[0]
    mids = (starts[plain] + ends[plain]) / 2.0
    if sub_mids:
        mids = np.concatenate([mids, np.array(sub_mids)])
    if len(mids):
        inside = _parity_inside(c, d, mids)
        blocked[plain] = inside[: plain.size]
        blocked[np.array(owner, dtype=np.intp)[inside[plain.size :]]] = True
    return blocked


class NumpyBackend(KernelBackend):
    """Pure-numpy broadcast kernels; the backend every solve runs on."""

    name = "numpy"

    def blocked_segments(
        self,
        starts: np.ndarray,
        ends: np.ndarray,
        edge_starts: np.ndarray,
        edge_ends: np.ndarray,
        edge_dirs: np.ndarray,
    ) -> np.ndarray:
        return _blocked_segments(starts, ends, edge_starts, edge_ends, edge_dirs)

    def parity_inside(
        self, edge_starts: np.ndarray, edge_ends: np.ndarray, points: np.ndarray
    ) -> np.ndarray:
        return _parity_inside(edge_starts, edge_ends, points)

    def power_fill(self, a: np.ndarray, b: np.ndarray, dists: np.ndarray) -> np.ndarray:
        return a / (dists + b) ** 2

    def sweep_coverage(
        self, bearings: np.ndarray, half_angle: float, tol: float
    ) -> tuple[np.ndarray, np.ndarray]:
        thetas = np.mod(bearings + half_angle, TWO_PI)
        # coverage[t, d]: device d inside cone oriented at thetas[t]
        diff = np.abs(np.mod(bearings[None, :] - thetas[:, None] + math.pi, TWO_PI) - math.pi)
        coverage = diff <= half_angle + tol
        return thetas, coverage

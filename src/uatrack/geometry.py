"""Rotated-rectangle intersection and IoU in bird's-eye view and 3D.

One numpy kernel scores a batch of (a, b) box pairs.  Each box's corner
loop, circumradius and edge tolerances are computed once per box
(``_box_table``).  A pair is scored only if the circumcircles of its two
boxes meet (``_pairs_in_reach``, the one cheap reject); every other
pair has IoU 0.  The kernel clips box a against the four half-planes of
box b, Sutherland-Hodgman style restricted to a convex clipper
(Sutherland & Hodgman, "Reentrant polygon clipping", CACM 1974), on
padded vertex buffers of all pairs at once, and sums the shoelace
formula vertex by vertex.  Points within EDGE_EPS x edge length of an
edge count as inside, so touching configurations do not flicker between
0 and a sliver.

The kernel performs the float operations of a per-pair scalar clip in
the same order, so its values do not depend on how the pairs are
batched.  ``iou_bev``, ``iou_3d`` and ``rotated_intersection_area`` are
one-pair calls of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import NamedTuple, Sequence

import numpy as np

from .boxes import Box3D

EDGE_EPS = 1e-9

# Pairs per kernel pass: bounds the kernel's temporaries to a few MB.
_CHUNK = 1024
# Cells per block of the reach test: bounds its temporaries likewise.
_GATE_CELLS = 1 << 15
# corner k - 1 of a corner loop, for k = 0..3
_PREV_CORNER = [3, 0, 1, 2]


@dataclass(frozen=True)
class RotatedRect:
    """BEV footprint: center, extents (w across, l along heading), yaw."""

    cx: float
    cy: float
    w: float
    l: float
    theta: float

    def __post_init__(self):
        t = (self.cx, self.cy, self.w, self.l, self.theta)
        # the sum is finite whenever every value is, short of overflow
        if not (math.isfinite(sum(t)) or all(map(math.isfinite, t))):
            raise ValueError(f"rectangle values must be finite, got {t}")
        if not (self.w > 0.0 and self.l > 0.0):
            raise ValueError("rectangle extents must be positive")


class _Boxes(NamedTuple):
    """What the kernel reads of each box, one row per box."""

    x: np.ndarray  # center
    y: np.ndarray
    radius: np.ndarray  # circumradius, 0.5 * hypot(w, l)
    area: np.ndarray  # w * l
    px: np.ndarray  # (N, 4) corner loop, counterclockwise
    py: np.ndarray
    eps: np.ndarray  # (N, 4) EDGE_EPS x the length of the edge from corner k - 1 to corner k
    z: np.ndarray
    h: np.ndarray


def _table(fields: np.ndarray) -> _Boxes:
    """Kernel rows from an (N, 7) array of x, y, z, w, l, h, theta."""
    n = len(fields)
    x, y, z, w, l, h, theta = fields.T

    def each(fn, *columns):  # math.* per value: numpy's own may round differently
        return np.fromiter(map(fn, *(col.tolist() for col in columns)), float, n)

    c = each(math.cos, theta)
    s = each(math.sin, theta)
    hl = 0.5 * l
    hw = 0.5 * w
    px = np.empty((n, 4))
    py = np.empty((n, 4))
    for k, (lx, ly) in enumerate(((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))):
        px[:, k] = x + lx * c - ly * s
        py[:, k] = y + lx * s + ly * c
    ex = px - px[:, _PREV_CORNER]
    ey = py - py[:, _PREV_CORNER]
    edge = np.stack([each(math.hypot, ex[:, k], ey[:, k]) for k in range(4)], axis=1)
    return _Boxes(
        x=x, y=y,
        radius=0.5 * each(math.hypot, w, l),
        area=w * l,
        px=px, py=py,
        eps=EDGE_EPS * edge,
        z=z, h=h,
    )


_FIELDS = attrgetter("x", "y", "z", "w", "l", "h", "theta")


def _box_table(boxes: Sequence[Box3D]) -> _Boxes:
    return _table(np.fromiter(map(_FIELDS, boxes), np.dtype((float, 7)), len(boxes)))


def _rect_table(rects: Sequence[RotatedRect]) -> _Boxes:
    """Kernel rows of BEV rectangles, read as unit-height boxes at z = 0."""
    return _table(np.array([(r.cx, r.cy, 0.0, r.w, r.l, 1.0, r.theta) for r in rects], dtype=float).reshape(-1, 7))


def _pairs_in_reach(a: _Boxes, a_lo: int, a_hi: int, b: _Boxes, b_lo: int, b_hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows (ia, ib) of a[a_lo:a_hi] x b[b_lo:b_hi] that may overlap, row-major.

    Two boxes whose centers are farther apart than the sum of their
    circumradii cannot overlap; this is the one reject, and the kernel
    scores only the pairs it lets through.  Rows are taken in blocks so
    no temporary exceeds _GATE_CELLS cells.
    """
    bx = b.x[b_lo:b_hi]
    by = b.y[b_lo:b_hi]
    br = b.radius[b_lo:b_hi]
    step = max(1, _GATE_CELLS // max(len(bx), 1))
    found_a, found_b = [], []
    for r0 in range(a_lo, a_hi, step):
        r1 = min(r0 + step, a_hi)
        d2 = a.x[r0:r1, None] - bx
        d2 *= d2
        dy = a.y[r0:r1, None] - by
        dy *= dy
        d2 += dy
        rr = a.radius[r0:r1, None] + br
        rr *= rr
        ia, ib = np.nonzero(d2 <= rr)
        found_a.append(ia + r0)
        found_b.append(ib + b_lo)
    if not found_a:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    if len(found_a) == 1:
        return found_a[0], found_b[0]
    return np.concatenate(found_a), np.concatenate(found_b)


def _clip(a: _Boxes, ia: np.ndarray, b: _Boxes, ib: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Polygon a[ia] intersect b[ib] per pair: vertex buffers (M, W) and counts (M,).

    Vertices k < count of a row are its polygon, in the order a scalar
    Sutherland-Hodgman pass emits them; the rest is padding.  In exact
    arithmetic each half-plane clip of a convex polygon adds at most one
    vertex, so W ends at most 8; buffers are sized to the largest
    polygon so far, so a rounding case with more vertices still fits.
    """
    m = len(ia)
    rows = np.arange(m)
    qx = a.px[ia]
    qy = a.py[ia]
    n = np.full(m, 4)
    cpx, cpy, ceps = b.px[ib], b.py[ib], b.eps[ib]
    for k in range(4):
        if qx.shape[1] == 0:
            break
        # keep what lies left of the directed edge from corner k - 1 to corner k
        ax = cpx[:, k - 1, None]
        ay = cpy[:, k - 1, None]
        ex = cpx[:, k, None] - ax
        ey = cpy[:, k, None] - ay
        side = ex * (qy - ay) - ey * (qx - ax)
        inside = side >= -ceps[:, k, None]
        # each vertex's predecessor in its own (count-long) loop
        cols = np.arange(qx.shape[1])
        before = np.where(cols == 0, np.maximum(n - 1, 0)[:, None], cols - 1)
        valid = cols < n[:, None]
        keep = inside & valid
        cross = (inside != inside[rows[:, None], before]) & valid
        # vertex j emits the crossing on its incoming edge, then itself
        emitted = cross.astype(np.intp) + keep
        end = np.cumsum(emitted, axis=1)
        n = end[:, -1]
        width = int(n.max()) if m else 0
        nx = np.zeros((m, width))
        ny = np.zeros((m, width))
        r, j = np.nonzero(cross)
        i = before[r, j]
        at = end[r, j] - emitted[r, j]
        t = side[r, i] / (side[r, i] - side[r, j])
        nx[r, at] = qx[r, i] + t * (qx[r, j] - qx[r, i])
        ny[r, at] = qy[r, i] + t * (qy[r, j] - qy[r, i])
        r, j = np.nonzero(keep)
        nx[r, end[r, j] - 1] = qx[r, j]
        ny[r, end[r, j] - 1] = qy[r, j]
        qx, qy = nx, ny
    return qx, qy, n


def _overlap(a: _Boxes, ia: np.ndarray, b: _Boxes, ib: np.ndarray) -> np.ndarray:
    """BEV intersection area of each pair a[ia], b[ib] in reach."""
    qx, qy, n = _clip(a, ia, b, ib)
    acc = np.zeros(len(ia))
    width = qx.shape[1]
    for i in range(width):
        # the successor of vertex i wraps to vertex 0 at the row's count
        wrap = n == i + 1
        x1 = np.where(wrap, qx[:, 0], qx[:, (i + 1) % width])
        y1 = np.where(wrap, qy[:, 0], qy[:, (i + 1) % width])
        np.add(acc, qx[:, i] * y1 - x1 * qy[:, i], out=acc, where=i < n)
    area = np.minimum(np.minimum(0.5 * np.abs(acc), a.area[ia]), b.area[ib])
    return np.where(n >= 3, area, 0.0)


def _pair_iou(a: _Boxes, ia: np.ndarray, b: _Boxes, ib: np.ndarray, three_d: bool) -> np.ndarray:
    """BEV (or, if three_d, volumetric) IoU of each pair a[ia], b[ib].

    Every pair must have passed _pairs_in_reach.  Pairs are scored
    _CHUNK at a time.
    """
    out = np.zeros(len(ia))
    for lo in range(0, len(ia), _CHUNK):
        ja = ia[lo:lo + _CHUNK]
        jb = ib[lo:lo + _CHUNK]
        inter = _overlap(a, ja, b, jb)
        if three_d:
            top_a = a.z[ja] + 0.5 * a.h[ja]
            top_b = b.z[jb] + 0.5 * b.h[jb]
            bot_a = a.z[ja] - 0.5 * a.h[ja]
            bot_b = b.z[jb] - 0.5 * b.h[jb]
            # min/max as Python's: the first argument wins ties
            gap = np.where(top_b < top_a, top_b, top_a) - np.where(bot_b > bot_a, bot_b, bot_a)
            overlap = np.where(gap > 0.0, gap, 0.0)
            live = inter > 0.0
            inter = np.where(live, inter * overlap, 0.0)
            union = a.area[ja] * a.h[ja] + b.area[jb] * b.h[jb] - inter
            live &= union > 0.0
        else:
            union = a.area[ja] + b.area[jb] - inter
            live = union > 0.0
        np.divide(inter, union, out=out[lo:lo + _CHUNK], where=live)
    return out


def _one_pair(table: _Boxes, score) -> float:
    """score(table, ia, table, ib) of row 0 against row 1, or 0.0 when they are out of reach."""
    ia, ib = _pairs_in_reach(table, 0, 1, table, 1, 2)
    return float(score(table, ia, table, ib)[0]) if len(ia) else 0.0


def rotated_intersection_area(a: RotatedRect, b: RotatedRect) -> float:
    """Area of the intersection of two rotated rectangles."""
    return _one_pair(_rect_table((a, b)), _overlap)


def iou_bev(a: Box3D, b: Box3D) -> float:
    """Intersection over union of the BEV footprints."""
    return _one_pair(_box_table((a, b)), partial(_pair_iou, three_d=False))


def iou_3d(a: Box3D, b: Box3D) -> float:
    """Volumetric IoU: BEV intersection times vertical overlap."""
    return _one_pair(_box_table((a, b)), partial(_pair_iou, three_d=True))

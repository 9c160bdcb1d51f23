"""Rotated-rectangle intersection and IoU in bird's-eye view and 3D.

One numpy kernel scores a batch of (a, b) box pairs.  Each box's corner
loop, circumradius and edge tolerances are computed once per box
(``_table`` of box rows).  A pair is scored only if the circumcircles of its two
boxes meet (``_reach``, the one cheap reject); every other pair has IoU
0.  The pairs put to that test come from one sort-and-sweep along x over
one group of boxes or many (``_grouped_pairs_in_reach`` over
``sweep_pairs``, the broad phase that the tracker's association shares).
The kernel clips box a against the four half-planes of box b,
Sutherland-Hodgman style restricted to a convex clipper (Sutherland &
Hodgman, "Reentrant polygon clipping", CACM 1974), on padded vertex
buffers of all pairs at once, and sums the shoelace formula vertex by
vertex.  Points within EDGE_EPS x edge length of an edge count as
inside, so touching configurations do not flicker between 0 and a
sliver.

The kernel performs the float operations of a per-pair scalar clip in
the same order, so its values do not depend on how the pairs are
batched.  ``iou_bev``, ``iou_3d`` and ``rotated_intersection_area`` are
one-pair calls of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Sequence

import numpy as np

from .boxes import Box3D, all_finite, box_values

EDGE_EPS = 1e-9

# Pairs per kernel pass: bounds the kernel's temporaries to a few MB.
_CHUNK = 1024
# Sweep candidates per block of the reach test: bounds its temporaries
# likewise.
_GATE_CELLS = 1 << 15
# Relative widening of a sweep window: far above the few ulps by which
# the window's ends and an exact test can round, far below any gate.
SWEEP_SLACK = 1e-9
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
        if not all_finite(t):
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
    """Kernel rows from an (N, 7) array of box rows in BOX_FIELDS order."""
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


def _box_table(boxes: Sequence[Box3D]) -> _Boxes:
    return _table(np.fromiter(map(box_values, boxes), np.dtype((float, 7)), len(boxes)))


def _rect_table(rects: Sequence[RotatedRect]) -> _Boxes:
    """Kernel rows of BEV rectangles, read as unit-height boxes at z = 0."""
    return _table(np.array([(r.cx, r.cy, 0.0, r.w, r.l, 1.0, r.theta) for r in rects], dtype=float).reshape(-1, 7))


def _reach(ax, ay, ar, bx, by, br) -> np.ndarray:
    """Whether boxes a and b (centers, circumradii; broadcast) may overlap.

    Two boxes whose centers are farther apart than the sum of their
    circumradii cannot overlap; this is the one reject, and the kernel
    scores only the pairs it lets through.
    """
    d2 = ax - bx
    d2 *= d2
    dy = ay - by
    dy *= dy
    d2 += dy
    rr = ar + br
    rr *= rr
    return d2 <= rr


def sweep_window(center: np.ndarray, reach, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Window ends (lo, hi) around each center, for sweep_pairs over the ascending keys.

    A window holds every key within reach of its center, and the exact
    test after the sweep needs no more.  The window is widened by
    SWEEP_SLACK relative to the reach and to the largest key magnitude:
    a center with a key in reach is at most that far out, so the
    widening covers the rounding of center +- reach and of the exact
    test.
    """
    pad = reach * (1.0 + SWEEP_SLACK)
    if len(keys):
        pad = pad + SWEEP_SLACK * max(-float(keys[0]), float(keys[-1]))
    return center - pad, center + pad


def sweep_pairs(keys: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (i, k) with lo[i] <= keys[k] < hi[i], for ascending keys; lo <= hi.

    The broad phase of sort and sweep (Baraff 1992, "Dynamic simulation
    of non-penetrating rigid bodies"): two binary searches per window,
    then work in proportion to the pairs found, not to windows x keys.
    Pairs come i ascending, then k ascending.  Array methods stand in
    for numpy's module functions, whose dispatch costs more than the
    work at a few dozen rows.
    """
    start = keys.searchsorted(lo)
    stop = keys.searchsorted(hi)
    end = (stop - start).cumsum()
    pos = np.arange(end[-1] if len(end) else 0)
    rows = end.searchsorted(pos, "right")
    return rows, pos + (stop - end)[rows]


def _grouped_pairs_in_reach(a: _Boxes, a_group: np.ndarray, b: _Boxes, b_group: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Rows (ia, ib) of one group that pass _reach, from one sweep over every group; ia ascending.

    The pair set is that of _reach over each group's full cross
    product.  Each b row is keyed by its group, then by the rank of its
    x among all b rows: exact integers, so no window reaches into
    another group.  a's rows are swept in blocks of about _GATE_CELLS
    candidates, so temporaries do not grow with the sequence.
    """
    if not len(a.x) or not len(b.x):
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    xs = np.sort(b.x)
    width = len(xs) + 1  # ranks run 0 .. len(xs)
    order = np.lexsort((b.x, b_group))
    keys = b_group[order] * width + xs.searchsorted(b.x[order])
    lo, hi = sweep_window(a.x, a.radius + b.radius.max(), xs)
    base = a_group * width
    lo, hi = base + xs.searchsorted(lo), base + xs.searchsorted(hi)
    filled = (keys.searchsorted(hi) - keys.searchsorted(lo)).cumsum()
    cuts = [0, *filled.searchsorted(np.arange(_GATE_CELLS, filled[-1], _GATE_CELLS)).tolist(), len(lo)]
    # b's columns in key order, so that each window's candidates are read in sequence
    bx, by, br = b.x[order], b.y[order], b.radius[order]
    found_a, found_b = [], []
    for r0, r1 in zip(cuts[:-1], cuts[1:]):
        ia, k = sweep_pairs(keys, lo[r0:r1], hi[r0:r1])
        ia += r0
        keep = _reach(a.x[ia], a.y[ia], a.radius[ia], bx[k], by[k], br[k])
        found_a.append(ia[keep])
        found_b.append(order[k[keep]])
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

    Every pair must have passed _reach.  Pairs are scored
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
    if not _reach(table.x[0], table.y[0], table.radius[0], table.x[1], table.y[1], table.radius[1]):
        return 0.0
    return float(score(table, np.zeros(1, np.intp), table, np.ones(1, np.intp))[0])


def rotated_intersection_area(a: RotatedRect, b: RotatedRect) -> float:
    """Area of the intersection of two rotated rectangles."""
    return _one_pair(_rect_table((a, b)), _overlap)


def iou_bev(a: Box3D, b: Box3D) -> float:
    """Intersection over union of the BEV footprints."""
    return _one_pair(_box_table((a, b)), partial(_pair_iou, three_d=False))


def iou_3d(a: Box3D, b: Box3D) -> float:
    """Volumetric IoU: BEV intersection times vertical overlap."""
    return _one_pair(_box_table((a, b)), partial(_pair_iou, three_d=True))

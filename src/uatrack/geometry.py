"""Rotated-rectangle intersection and IoU in bird's-eye view and 3D.

One numpy kernel scores a batch of (a, b) box pairs.  Each box's corner
loop, circumradius and edge tolerances are computed once per box
(``_table`` of box rows).  A pair is scored only if the circumcircles of its two
boxes meet (``_reach``, the one cheap reject); every other pair has IoU
0.  The pairs put to that test come from one sort-and-sweep along x,
``_grouped_sweep``: over many groups, keyed by group and x rank
(``_grouped_pairs_in_reach`` for evaluation, and the RMSE pairing), or
over one group, keyed by x itself (NMS).  It searches each window's ends
once and expands them to pairs with ``_between``, which the tracker's
association reaches through ``sweep_pairs``.
The kernel clips box a against the four half-planes of box b,
Sutherland-Hodgman style restricted to a convex clipper (Sutherland &
Hodgman, "Reentrant polygon clipping", CACM 1974), on padded vertex
buffers of all pairs at once that each pass indexes by flat offset, and
adds each polygon's shoelace terms in one cumulative sum.  Points within
EDGE_EPS x edge length of an edge count as inside, so touching
configurations do not flicker between 0 and a sliver.

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

from .boxes import Box3D, all_finite, box_values, math_map

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
# signs of corner k's offsets along and across the heading, counterclockwise
_ALONG = np.array([1.0, -1.0, -1.0, 1.0])
_ACROSS = np.array([1.0, 1.0, -1.0, -1.0])


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
    x, y, z, w, l, h, theta = fields.T
    c = math_map(math.cos, theta)
    s = math_map(math.sin, theta)
    # one row per corner k, at (+-l/2, +-w/2) along and across the heading; negation is exact
    lx = _ALONG[:, None] * (0.5 * l)
    ly = _ACROSS[:, None] * (0.5 * w)
    px = x + lx * c - ly * s
    py = y + lx * s + ly * c
    ex = px - px[_PREV_CORNER]
    ey = py - py[_PREV_CORNER]
    return _Boxes(
        x=x, y=y,
        radius=0.5 * math_map(math.hypot, w, l),
        area=w * l,
        px=px.T, py=py.T,
        eps=EDGE_EPS * math_map(math.hypot, ex.ravel(), ey.ravel()).reshape(4, -1).T,
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
    then work in proportion to the pairs found, not to windows x keys
    (_between).  Pairs come i ascending, then k ascending.  Array
    methods stand in for numpy's module functions, whose dispatch costs
    more than the work at a few dozen rows.
    """
    return _between(keys.searchsorted(lo), keys.searchsorted(hi))


def _between(start: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (i, k) with start[i] <= k < stop[i]; start <= stop.  Pairs come i ascending, then k ascending."""
    count = stop - start
    rows = np.arange(len(count)).repeat(count)
    # pair p of row i, counted over all rows, is k = p - (its row's end - stop[i])
    return rows, (stop - count.cumsum()).repeat(count) + np.arange(len(rows))


def _grouped_sweep(ax: np.ndarray, a_group: np.ndarray | None, reach, bx: np.ndarray, b_group: np.ndarray | None):
    """Blocks of rows (ia, ib) of one group whose x may lie within reach, from one sweep over every group.

    With groups, each b row is keyed by its group, then by the rank of
    its x among all b rows: exact integers, so no window reaches into
    another group.  Without (a_group and b_group None), every row is of
    the one group and the keys are the b rows' x values, sorted once.
    Every pair within reach along x comes, and a few just beyond it (see
    sweep_window): the caller applies its exact test.  Each window's
    ends are searched in the keys once; a's rows are then swept in
    blocks of about _GATE_CELLS candidates, ia ascending, so
    temporaries do not grow with the sequence.
    """
    if not len(ax) or not len(bx):
        return
    if a_group is None:
        order = bx.argsort(kind="stable")
        keys = bx[order]
        lo, hi = sweep_window(ax, reach, keys)
    else:
        xs = np.sort(bx)
        width = len(xs) + 1  # ranks run 0 .. len(xs)
        order = np.lexsort((bx, b_group))
        keys = b_group[order] * width + xs.searchsorted(bx[order])
        lo, hi = sweep_window(ax, reach, xs)
        base = a_group * width
        lo, hi = base + xs.searchsorted(lo), base + xs.searchsorted(hi)
    start, stop = keys.searchsorted(lo), keys.searchsorted(hi)
    filled = (stop - start).cumsum()
    cuts = [0, *filled.searchsorted(np.arange(_GATE_CELLS, filled[-1], _GATE_CELLS)).tolist(), len(lo)]
    for r0, r1 in zip(cuts[:-1], cuts[1:]):
        ia, k = _between(start[r0:r1], stop[r0:r1])
        yield ia + r0, order[k]


def _grouped_pairs_in_reach(a: _Boxes, a_group: np.ndarray, b: _Boxes, b_group: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Rows (ia, ib) of one group that pass _reach, from one _grouped_sweep over every group; ia ascending.

    The pair set is that of _reach over each group's full cross product.
    """
    found_a, found_b = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    if len(b.x):
        for ia, ib in _grouped_sweep(a.x, a_group, a.radius + b.radius.max(), b.x, b_group):
            keep = _reach(a.x[ia], a.y[ia], a.radius[ia], b.x[ib], b.y[ib], b.radius[ib])
            found_a.append(ia[keep])
            found_b.append(ib[keep])
    return np.concatenate(found_a), np.concatenate(found_b)


def _clip(a: _Boxes, ia: np.ndarray, b: _Boxes, ib: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Polygon a[ia] intersect b[ib] per pair: vertex buffers (M, W) and counts (M,).

    Vertices k < count of a row are its polygon, in the order a scalar
    Sutherland-Hodgman pass emits them; the rest is 0.0.  In exact
    arithmetic each half-plane clip of a convex polygon adds at most one
    vertex, so W ends at most 8; each pass sizes its buffers to its
    largest polygon, so a rounding case with more vertices still fits.
    Each pass indexes its buffers by flat offset row * W + col.
    """
    m = len(ia)
    qx, qy = a.px[ia], a.py[ia]
    n = np.full(m, 4)
    width = 4
    cpx, cpy, tol = b.px[ib], b.py[ib], -b.eps[ib]
    cex, cey = cpx - cpx[:, _PREV_CORNER], cpy - cpy[:, _PREV_CORNER]
    for k in range(4):
        if width == 0:
            break
        # keep what lies left of the directed edge from corner k - 1 to corner k
        side = cex[:, k, None] * (qy - cpy[:, k - 1, None]) - cey[:, k, None] * (qx - cpx[:, k - 1, None])
        inside = side >= tol[:, k, None]
        # each vertex's predecessor in its own (count-long) loop; an empty row's is never read
        before = np.arange(-1, m * width - 1).reshape(m, width)
        before[:, 0] += n
        valid = np.arange(width) < n[:, None]
        keep = inside & valid
        cross = (inside != inside.ravel()[before]) & valid
        # vertex j emits the crossing on its incoming edge, then itself
        end = np.add(cross, keep, dtype=np.intp).cumsum(axis=1)
        n = end[:, -1]
        width = int(n.max()) if m else 0
        last = (end + (width * np.arange(m) - 1)[:, None]).ravel()  # offset of each vertex's last emission
        nx, ny = np.zeros(m * width), np.zeros(m * width)
        qx, qy, side, keep = qx.ravel(), qy.ravel(), side.ravel(), keep.ravel()
        j = cross.ravel().nonzero()[0]
        i = before.ravel()[j]
        s_i, x_i, y_i = side[i], qx[i], qy[i]
        t = s_i / (s_i - side[j])
        at = last[j] - keep[j]
        nx[at] = x_i + t * (qx[j] - x_i)
        ny[at] = y_i + t * (qy[j] - y_i)
        j = keep.nonzero()[0]
        nx[last[j]] = qx[j]
        ny[last[j]] = qy[j]
        qx, qy = nx.reshape(m, width), ny.reshape(m, width)
    return qx, qy, n


def _overlap(a: _Boxes, ia: np.ndarray, b: _Boxes, ib: np.ndarray) -> np.ndarray:
    """BEV intersection area of each pair a[ia], b[ib] in reach.

    Each vertex's shoelace term x_k y_(k+1) - x_(k+1) y_k comes from one
    successor gather, and one cumulative sum adds a row's terms left to
    right, as the scalar loop does.  A padded lane's term is +-0.0: it
    leaves a sum as it is, and abs drops the sign of a zero one.
    """
    qx, qy, n = _clip(a, ia, b, ib)
    m, width = qx.shape
    # the successor of vertex k, wrapping to vertex 0 at the row's count
    cols = np.arange(1, width + 1)
    succ = np.where(cols < n[:, None], cols, 0) + width * np.arange(m)[:, None]
    terms = qx * qy.ravel()[succ] - qx.ravel()[succ] * qy
    acc = terms.cumsum(axis=1)[:, -1] if width else np.zeros(m)
    area = np.minimum(np.minimum(0.5 * np.abs(acc), a.area[ia]), b.area[ib])
    return np.where(n >= 3, area, 0.0)


def _pair_iou(a: _Boxes, ia: np.ndarray, b: _Boxes, ib: np.ndarray, three_d: bool) -> np.ndarray:
    """BEV (or, if three_d, volumetric) IoU of each pair a[ia], b[ib].

    Every pair must have passed _reach.  Pairs are scored _CHUNK at a time.
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

"""Oriented 3D boxes, anchor-relative encoding and variance decoding.

A box regression head predicts anchor-relative targets; the matching
uncertainty head predicts one log-variance per target component.  This
module holds the value types and the exact encode/decode transforms plus
the first-order variance transport back to world units.

Detections travel as DetectionColumns, one block of arrays per frame or
file, from the simulator and the readers into the tracker, NMS and the
writer; the block is also a read-only sequence of DetectionRecord rows,
each built through the checked Box3D and BoxVariance constructors.
check_rows makes those constructors' checks on a whole block at once,
and trusted_box builds a Box3D from values that have passed them.
Tracks travel the same way: TrackColumns holds track rows (ids too) as
the tracker and the track reader return them and CLEAR-MOT and the
position RMSE score them, and TrackColumns.of converts (id, box) frame
lists to it.  A block whose
arrays are all read-only (the simulator's truth, the track reader's
blocks) never changes, so what is computed from it alone, such as
CLEAR-MOT's truth side, is computed once and kept with it
(TrackColumns.kept).  TrackFrames is a read-only sequence of (id, box)
frame lists over such a block, the simulator's ground truth: each frame
is built through the checked Box3D constructor when it is read, and
TrackColumns.of returns its block as it is.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter, index as as_index
from typing import TypeVar

import numpy as np

TWO_PI = 2.0 * math.pi

# The order of a box's seven numbers in every array row and file: center, extents, yaw.
BOX_FIELDS = ("x", "y", "z", "w", "l", "h", "theta")
box_values = attrgetter(*BOX_FIELDS)  # a box's BOX_FIELDS values as a tuple
_box_row = attrgetter(*BOX_FIELDS, "score")  # a box's row in a block: BOX_FIELDS values, then score

# Largest frame index a file or scenario may hold (a day at 10 Hz is
# 864,000 frames).  track steps through every frame up to the largest
# index, empty ones included, so this bounds its time and memory for any
# file; the simulator emits frames 0 to n_frames - 1 within it.
MAX_FRAME_INDEX = 1_000_000


def wrap_angle(theta: float) -> float:
    """Normalize an angle to (-pi, pi]."""
    m = math.fmod(math.pi - theta, TWO_PI)
    if m < 0.0:
        m += TWO_PI
        if m == TWO_PI:  # a tiny negative m rounds up to 2 pi, which would give -pi
            m = 0.0
    return math.pi - m


def all_finite(values: tuple[float, ...]) -> bool:
    """Whether every value is finite."""
    # the sum is finite whenever every value is, short of overflow
    return math.isfinite(sum(values)) or all(map(math.isfinite, values))


def math_map(fn: Callable[..., float], *columns: np.ndarray) -> np.ndarray:
    """fn of each value (of each tuple of values, one from each column), by one map over Python floats.

    A math function so mapped gives the bits of its scalar call, where
    numpy's own ufunc may round differently.
    """
    return np.fromiter(map(fn, *(c.tolist() for c in columns)), float, len(columns[0]))


@dataclass(frozen=True)
class Box3D:
    """Oriented box: center (x, y, z), extents (w, l, h), yaw about z."""

    x: float
    y: float
    z: float
    w: float
    l: float
    h: float
    theta: float
    class_id: str = "Car"
    score: float = 1.0

    def __post_init__(self):
        t = _box_row(self)
        if not all_finite(t):
            raise ValueError(f"box values must be finite, got {t}")
        if not (self.w > 0.0 and self.l > 0.0 and self.h > 0.0):
            raise ValueError(f"box dimensions must be positive, got w={self.w} l={self.l} h={self.h}")
        object.__setattr__(self, "theta", wrap_angle(self.theta))

    @property
    def bev_area(self) -> float:
        return self.w * self.l

    @property
    def volume(self) -> float:
        return self.w * self.l * self.h


@dataclass(frozen=True)
class Anchor:
    """Reference box for target encoding; diagonal d = sqrt(l^2 + w^2)."""

    x: float
    y: float
    z: float
    w: float
    l: float
    h: float
    theta: float = 0.0

    def __post_init__(self):
        if not (self.w > 0.0 and self.l > 0.0 and self.h > 0.0):
            raise ValueError("anchor dimensions must be positive")

    @property
    def diagonal(self) -> float:
        return math.hypot(self.l, self.w)


@dataclass(frozen=True)
class EncodedTarget:
    """Anchor-relative regression target (dimensionless except theta)."""

    x: float
    y: float
    z: float
    w: float
    l: float
    h: float
    theta: float


@dataclass(frozen=True)
class EncodedLogVar:
    """Per-component log-variances of the encoded targets."""

    s_x: float
    s_y: float
    s_z: float
    s_w: float
    s_l: float
    s_h: float
    s_theta: float

    def as_tuple(self) -> tuple[float, ...]:
        return (self.s_x, self.s_y, self.s_z, self.s_w, self.s_l, self.s_h, self.s_theta)


@dataclass(frozen=True)
class BoxVariance:
    """Diagonal variance of a decoded box, in world units squared."""

    var_x: float
    var_y: float
    var_z: float
    var_w: float
    var_l: float
    var_h: float
    var_theta: float

    def __post_init__(self):
        t = self.as_tuple()
        # NaN fails every comparison, so finiteness is checked apart
        if not (min(t) > 0.0 and all_finite(t)):
            raise ValueError("variances must be finite and positive")

    def as_tuple(self) -> tuple[float, ...]:
        return (self.var_x, self.var_y, self.var_z, self.var_w, self.var_l, self.var_h, self.var_theta)


_new, _set = object.__new__, object.__setattr__


def trusted_box(x: float, y: float, z: float, w: float, l: float, h: float, theta: float,
                class_id: str, score: float) -> Box3D:
    """A Box3D of values that already pass its checks, theta already wrapped; skips __init__ and __post_init__.

    The fields are set in __init__'s order, so the box keeps the compact
    attribute layout of one built by its constructor.
    """
    box = _new(Box3D)
    put = _set.__get__(box)  # object's __setattr__, bound once: the frozen box's own refuses
    put("x", x)
    put("y", y)
    put("z", z)
    put("w", w)
    put("l", l)
    put("h", h)
    put("theta", theta)
    put("class_id", class_id)
    put("score", score)
    return box


def first_bad_row(rows: np.ndarray, var: np.ndarray | None = None) -> tuple[int, str] | None:
    """The first row that fails Box3D's or BoxVariance's checks and the message they raise for it, or None.

    rows is (n, 8): BOX_FIELDS values, then score; var (n, 7) or None.
    Box values and scores must be finite, w, l and h positive, variances
    finite and positive.  Within a row the box is checked first.
    """
    if (np.isfinite(rows).all() and (rows[:, 3:6] > 0.0).all()
            and (var is None or ((var > 0.0) & (var < math.inf)).all())):
        return None
    bad_box = ~np.isfinite(rows).all(axis=1)
    bad_size = ~(rows[:, 3:6] > 0.0).all(axis=1)
    bad = bad_box | bad_size
    if var is not None:
        bad |= ~((var > 0.0) & (var < math.inf)).all(axis=1)
    i = int(bad.argmax())
    if bad_box[i]:
        return i, f"box values must be finite, got {tuple(rows[i].tolist())}"
    if bad_size[i]:
        return i, "box dimensions must be positive, got w={} l={} h={}".format(*rows[i, 3:6].tolist())
    return i, "variances must be finite and positive"


def check_rows(rows: np.ndarray, var: np.ndarray | None = None) -> None:
    """Raise ValueError, as Box3D and BoxVariance would for the first bad row (see first_bad_row), if there is one."""
    bad = first_bad_row(rows, var)
    if bad:
        raise ValueError(bad[1])


@dataclass(frozen=True)
class DetectionRecord:
    """One detection row: its frame index, the box and optionally its decoded diagonal variance."""

    frame: int
    box: Box3D
    variance: BoxVariance | None = None


@dataclass(frozen=True, eq=False)
class DetectionColumns(Sequence):
    """Detection rows as columns, one entry per row, in input order.

    `rows` holds each box's BOX_FIELDS values, theta wrapped to
    (-pi, pi] by motion.wrap_angles, then its score; `var` holds its
    variances in BOX_FIELDS order, or is None where the rows carry none.
    The simulator and the readers check every row as Box3D and
    BoxVariance would (see check_rows).

    As a read-only Sequence[DetectionRecord], len, iteration and integer
    indexing (negative too) build each record through the checked Box3D
    and BoxVariance constructors.
    """

    frame: np.ndarray  # (n,) int64 frame indices
    class_id: np.ndarray  # (n,) class names, dtype object
    rows: np.ndarray  # (n, 8)
    var: np.ndarray | None = None  # (n, 7)

    def __len__(self) -> int:
        return len(self.frame)

    def __getitem__(self, i: int) -> DetectionRecord:
        i = range(len(self))[as_index(i)]  # IndexError out of range; a negative index counts from the end
        return next(iter(self.take([i])))

    def __iter__(self) -> Iterator[DetectionRecord]:
        variances = self.var.tolist() if self.var is not None else [None] * len(self)
        for f, c, r, v in zip(self.frame.tolist(), self.class_id.tolist(), self.rows.tolist(), variances):
            yield DetectionRecord(f, Box3D(*r[:7], class_id=c, score=r[7]), None if v is None else BoxVariance(*v))

    @classmethod
    def of(cls, records: Sequence[DetectionRecord]) -> DetectionColumns:
        """The records as columns, a block as it is; raises ValueError unless variances are all-or-none."""
        if isinstance(records, DetectionColumns):
            return records
        with_var = [r.variance is not None for r in records]
        if any(with_var) and not all(with_var):
            raise ValueError("either every record carries a variance or none does")
        n = len(records)
        return cls(
            np.fromiter((r.frame for r in records), np.int64, n),
            np.array([r.box.class_id for r in records], dtype=object),
            np.array([_box_row(r.box) for r in records], dtype=float).reshape(n, 8),
            np.array([r.variance.as_tuple() for r in records], dtype=float) if n and with_var[0] else None,
        )

    def take(self, index: np.ndarray) -> DetectionColumns:
        """The rows at the given indices, in that order."""
        return DetectionColumns(self.frame[index], self.class_id[index], self.rows[index],
                                None if self.var is None else self.var[index])

    def by_frame(self) -> list[tuple[int, np.ndarray]]:
        """(frame, row indices) for each frame present: frames ascending, each frame's rows in input order."""
        order = self.frame.argsort(kind="stable")
        frames, starts = np.unique(self.frame[order], return_index=True)
        return list(zip(frames.tolist(), np.split(order, starts[1:])))


_T = TypeVar("_T")


@dataclass(frozen=True, eq=False)
class TrackColumns:
    """Track rows as columns, one entry per row, in input order; `rows` as in DetectionColumns.

    A block whose four arrays are all read-only is taken never to change:
    kept computes a value from it once and keeps it with the block.
    """

    frame: np.ndarray  # (n,) int64 frame indices
    track_id: np.ndarray  # (n,) ids as Python ints, dtype object
    class_id: np.ndarray  # (n,) class names, dtype object
    rows: np.ndarray  # (n, 8)
    _kept: dict = field(default_factory=dict, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.frame)

    @classmethod
    def sealed(cls, frame: np.ndarray, track_id: np.ndarray, class_id: np.ndarray, rows: np.ndarray) -> TrackColumns:
        """The block of these arrays, each marked read-only, so that kept keeps what it computes."""
        for column in (frame, track_id, class_id, rows):
            column.flags.writeable = False
        return cls(frame, track_id, class_id, rows)

    def kept(self, build: Callable[[TrackColumns], _T]) -> _T:
        """build(self), computed on the first call and kept for later ones where every array is read-only.

        A block with a writable array may change between calls, so each
        call builds afresh.
        """
        if any(column.flags.writeable for column in (self.frame, self.track_id, self.class_id, self.rows)):
            return build(self)
        if build not in self._kept:
            self._kept[build] = build(self)
        return self._kept[build]

    @classmethod
    def of(cls, frames: Sequence[Sequence[tuple[int, Box3D]]] | TrackColumns) -> TrackColumns:
        """(id, box) frame lists as columns: list position f is frame f.  A block, or a TrackFrames view's, as it is."""
        if isinstance(frames, TrackColumns):
            return frames
        if isinstance(frames, TrackFrames):
            return frames.block
        ids = [i for frame in frames for i, _ in frame]
        boxes = [b for frame in frames for _, b in frame]
        n = len(boxes)
        return cls(np.repeat(np.arange(len(frames), dtype=np.int64), [len(frame) for frame in frames]),
                   np.fromiter(ids, object, n), np.fromiter(map(attrgetter("class_id"), boxes), object, n),
                   np.fromiter(chain.from_iterable(map(_box_row, boxes)), float, 8 * n).reshape(n, 8))


class TrackFrames(Sequence):
    """A read-only sequence of (id, Box3D) frame lists over one TrackColumns block: position f is frame f.

    The block's frame indices ascend within [0, n_frames), and len is
    n_frames.  view[f] builds frame f's list through the checked Box3D
    constructor, as DetectionColumns builds its records; iteration
    builds one frame at a time.  A slice with step 1 is again a view,
    its frames renumbered from 0 as a list slice's positions are, over a
    block of the same rows, read-only where this one's is; any other
    step gives a list of frame lists, as a list's slice does.
    """

    def __init__(self, block: TrackColumns, n_frames: int):
        frame = block.frame
        if len(frame) and not (frame[0] >= 0 and frame[-1] < n_frames and (frame[1:] >= frame[:-1]).all()):
            raise ValueError(f"frame indices must ascend within [0, {n_frames})")
        self.block = block
        self._lo = frame.searchsorted(np.arange(n_frames + 1)).tolist()  # frame f's rows are _lo[f]:_lo[f + 1]

    def __len__(self) -> int:
        return len(self._lo) - 1

    def _frame(self, lo: int, hi: int) -> list[tuple[int, Box3D]]:
        b = self.block
        return [(i, Box3D(*v[:7], class_id=c, score=v[7]))
                for i, c, v in zip(b.track_id[lo:hi].tolist(), b.class_id[lo:hi].tolist(), b.rows[lo:hi].tolist())]

    def __getitem__(self, f):
        if isinstance(f, slice):
            start, stop, step = f.indices(len(self))
            if step != 1:
                return [self[k] for k in range(start, stop, step)]
            stop = max(start, stop)
            lo, hi = self._lo[start], self._lo[stop]
            b = self.block
            frame = b.frame[lo:hi] - start
            frame.flags.writeable = b.frame.flags.writeable  # the slice is read-only where the block is
            return TrackFrames(TrackColumns(frame, b.track_id[lo:hi], b.class_id[lo:hi], b.rows[lo:hi]), stop - start)
        f = range(len(self))[as_index(f)]  # IndexError out of range; a negative index counts from the end
        return self._frame(self._lo[f], self._lo[f + 1])

    def __iter__(self) -> Iterator[list[tuple[int, Box3D]]]:
        for lo, hi in zip(self._lo, self._lo[1:]):
            yield self._frame(lo, hi)


# One frame's worth of detections, a DetectionColumns block or a list of
# records; the tracker ignores their frame index.
FrameDetections = Sequence[DetectionRecord]


def encode_box(gt: Box3D, anchor: Anchor) -> EncodedTarget:
    """Encode a box relative to an anchor.

    Positions scale by the anchor BEV diagonal (z by anchor height),
    dimensions by log ratio, yaw by plain difference.
    """
    d = anchor.diagonal
    return EncodedTarget(
        x=(gt.x - anchor.x) / d,
        y=(gt.y - anchor.y) / d,
        z=(gt.z - anchor.z) / anchor.h,
        w=math.log(gt.w / anchor.w),
        l=math.log(gt.l / anchor.l),
        h=math.log(gt.h / anchor.h),
        theta=gt.theta - anchor.theta,
    )


def decode_box(target: EncodedTarget, anchor: Anchor, class_id: str = "Car", score: float = 1.0) -> Box3D:
    """Exact algebraic inverse of :func:`encode_box`; yaw wrapped to (-pi, pi]."""
    d = anchor.diagonal
    return Box3D(
        x=target.x * d + anchor.x,
        y=target.y * d + anchor.y,
        z=target.z * anchor.h + anchor.z,
        w=math.exp(target.w) * anchor.w,
        l=math.exp(target.l) * anchor.l,
        h=math.exp(target.h) * anchor.h,
        theta=wrap_angle(target.theta + anchor.theta),
        class_id=class_id,
        score=score,
    )


def decode_variance(s: EncodedLogVar, anchor: Anchor, decoded: Box3D) -> BoxVariance:
    """Transport encoded log-variances to world units.

    Linear components scale exactly by the squared encoding factor; the
    log-encoded dimensions use the first-order delta rule var[w] ~
    E[w]^2 var[w_t] with the decoded value standing in for E[w].  Yaw is
    a plain offset, so its variance passes through.
    """
    d2 = anchor.diagonal**2
    return BoxVariance(
        var_x=d2 * math.exp(s.s_x),
        var_y=d2 * math.exp(s.s_y),
        var_z=anchor.h**2 * math.exp(s.s_z),
        var_w=decoded.w**2 * math.exp(s.s_w),
        var_l=decoded.l**2 * math.exp(s.s_l),
        var_h=decoded.h**2 * math.exp(s.s_h),
        var_theta=math.exp(s.s_theta),
    )


def encode_variance(var: BoxVariance, anchor: Anchor, decoded: Box3D) -> EncodedLogVar:
    """Exact inverse of :func:`decode_variance` for the same anchor and box."""
    d2 = anchor.diagonal**2
    return EncodedLogVar(
        s_x=math.log(var.var_x / d2),
        s_y=math.log(var.var_y / d2),
        s_z=math.log(var.var_z / anchor.h**2),
        s_w=math.log(var.var_w / decoded.w**2),
        s_l=math.log(var.var_l / decoded.l**2),
        s_h=math.log(var.var_h / decoded.h**2),
        s_theta=math.log(var.var_theta),
    )


def self_anchor(box: Box3D) -> Anchor:
    """An anchor coincident with the box itself.

    Lets file-level pipelines, which only see decoded boxes and world-unit
    variances, recover encoded-space log-variances via
    :func:`encode_variance` without the original anchor grid.
    """
    return Anchor(*box_values(box))


def anchor_grid(
    extent: float,
    spacing: float,
    w: float = 1.6,
    l: float = 3.9,
    h: float = 1.56,
    z: float = 0.78,
    thetas: tuple[float, ...] = (0.0, math.pi / 2.0),
) -> list[Anchor]:
    """Regular anchor lattice over [-extent, extent]^2 at the given yaws."""
    if not spacing > 0.0:
        raise ValueError("spacing must be > 0")
    anchors = []
    ticks = []
    t = -extent
    while t <= extent + 1e-9:
        ticks.append(t)
        t += spacing
    for x in ticks:
        for y in ticks:
            for theta in thetas:
                anchors.append(Anchor(x, y, z, w, l, h, theta))
    return anchors

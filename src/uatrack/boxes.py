"""Oriented 3D boxes, anchor-relative encoding and variance decoding.

A box regression head predicts anchor-relative targets; the matching
uncertainty head predicts one log-variance per target component.  This
module holds the value types and the exact encode/decode transforms plus
the first-order variance transport back to world units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


def wrap_angle(theta: float) -> float:
    """Normalize an angle to (-pi, pi]."""
    m = math.fmod(math.pi - theta, TWO_PI)
    if m < 0.0:
        m += TWO_PI
    return math.pi - m


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
        # NaN fails every comparison, so finiteness is checked apart; the
        # sum is finite whenever every value is, short of overflow
        if not (min(t) > 0.0 and (math.isfinite(sum(t)) or all(map(math.isfinite, t)))):
            raise ValueError("variances must be finite and positive")

    def as_tuple(self) -> tuple[float, ...]:
        return (self.var_x, self.var_y, self.var_z, self.var_w, self.var_l, self.var_h, self.var_theta)


@dataclass(frozen=True)
class DetectionWithCovariance:
    """A detected box, optionally with its decoded diagonal variance."""

    box: Box3D
    variance: BoxVariance | None = None


# One frame's worth of detections.
FrameDetections = list[DetectionWithCovariance]


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
    return Anchor(box.x, box.y, box.z, box.w, box.l, box.h, box.theta)


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

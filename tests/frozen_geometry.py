"""Frozen per-pair rotated-rectangle clipper: the oracle for the IoU kernel.

A verbatim copy of the scalar ``uatrack.geometry`` that the numpy kernel
replaced, kept so tests can check the kernel bit for bit against it.
Do not edit it along with the package.

Original module docstring:

Rotated-rectangle intersection and IoU in bird's-eye view and 3D.

Intersection of two convex rectangles is computed by clipping one
against the half-planes of the other (Sutherland-Hodgman restricted to
convex clippers), then applying the shoelace formula.  Points within
EDGE_EPS of an edge count as inside so touching configurations do not
flicker between 0 and a sliver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from uatrack.boxes import Box3D

EDGE_EPS = 1e-9


@dataclass(frozen=True)
class RotatedRect:
    """BEV footprint: center, extents (w across, l along heading), yaw."""

    cx: float
    cy: float
    w: float
    l: float
    theta: float

    def __post_init__(self):
        if not (self.w > 0.0 and self.l > 0.0):
            raise ValueError("rectangle extents must be positive")

    def corners(self) -> list[tuple[float, float]]:
        """Corner loop in counterclockwise order."""
        c = math.cos(self.theta)
        s = math.sin(self.theta)
        hl = 0.5 * self.l
        hw = 0.5 * self.w
        out = []
        for lx, ly in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw)):
            out.append((self.cx + lx * c - ly * s, self.cy + lx * s + ly * c))
        return out

    @property
    def area(self) -> float:
        return self.w * self.l

    @property
    def circumradius(self) -> float:
        return 0.5 * math.hypot(self.w, self.l)


def _clip_halfplane(poly, ax, ay, bx, by, eps):
    """Keep the part of poly on the left of the directed edge a->b."""
    ex = bx - ax
    ey = by - ay
    out = []
    n = len(poly)
    px, py = poly[-1]
    prev_side = ex * (py - ay) - ey * (px - ax)
    for i in range(n):
        qx, qy = poly[i]
        side = ex * (qy - ay) - ey * (qx - ax)
        if side >= -eps:
            if prev_side < -eps:
                t = prev_side / (prev_side - side)
                out.append((px + t * (qx - px), py + t * (qy - py)))
            out.append((qx, qy))
        elif prev_side >= -eps:
            t = prev_side / (prev_side - side)
            out.append((px + t * (qx - px), py + t * (qy - py)))
        px, py, prev_side = qx, qy, side
    return out


def clip_rect_polygon(a: RotatedRect, b: RotatedRect) -> list[tuple[float, float]]:
    """Vertices of the convex polygon a intersect b (possibly empty)."""
    poly = a.corners()
    clip = b.corners()
    cx, cy = clip[-1]
    for qx, qy in clip:
        # eps scales with edge length so the tolerance is a distance
        edge_len = math.hypot(qx - cx, qy - cy)
        poly = _clip_halfplane(poly, cx, cy, qx, qy, EDGE_EPS * edge_len)
        if not poly:
            return []
        cx, cy = qx, qy
    return poly


def _shoelace(poly) -> float:
    acc = 0.0
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        acc += x0 * y1 - x1 * y0
    return 0.5 * abs(acc)


def rotated_intersection_area(a: RotatedRect, b: RotatedRect) -> float:
    """Area of the intersection of two rotated rectangles."""
    # cheap reject: centers farther apart than the circumradii sum
    dx = a.cx - b.cx
    dy = a.cy - b.cy
    rr = a.circumradius + b.circumradius
    if dx * dx + dy * dy > rr * rr:
        return 0.0
    poly = clip_rect_polygon(a, b)
    if len(poly) < 3:
        return 0.0
    area = _shoelace(poly)
    return min(area, a.area, b.area)


def bev_rect(box: Box3D) -> RotatedRect:
    return RotatedRect(box.x, box.y, box.w, box.l, box.theta)


def iou_bev(a: Box3D, b: Box3D) -> float:
    """Intersection over union of the BEV footprints."""
    inter = rotated_intersection_area(bev_rect(a), bev_rect(b))
    union = a.bev_area + b.bev_area - inter
    return inter / union if union > 0.0 else 0.0


def iou_3d(a: Box3D, b: Box3D) -> float:
    """Volumetric IoU: BEV intersection times vertical overlap."""
    inter_bev = rotated_intersection_area(bev_rect(a), bev_rect(b))
    if inter_bev <= 0.0:
        return 0.0
    top = min(a.z + 0.5 * a.h, b.z + 0.5 * b.h)
    bot = max(a.z - 0.5 * a.h, b.z - 0.5 * b.h)
    overlap = max(0.0, top - bot)
    inter = inter_bev * overlap
    union = a.volume + b.volume - inter
    return inter / union if union > 0.0 else 0.0

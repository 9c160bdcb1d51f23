"""Rotated-rectangle intersection against analytic and raster oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import frozen_geometry as frozen
from uatrack.boxes import Box3D
from uatrack.geometry import (
    RotatedRect,
    _box_table,
    _clip,
    _pair_iou,
    _pairs_in_reach,
    _rect_table,
    iou_3d,
    iou_bev,
    rotated_intersection_area,
)


def raster_intersection(a: RotatedRect, b: RotatedRect, cell: float = 1e-3) -> float:
    """Oracle: count grid cells (global lattice, centers) inside both rects.

    Restricting the lattice to the overlap of the axis-aligned bounding
    boxes counts exactly the same cells as gridding any larger region.
    """

    def aabb(r: RotatedRect):
        corners = frozen.RotatedRect(r.cx, r.cy, r.w, r.l, r.theta).corners()
        xs = [p[0] for p in corners]
        ys = [p[1] for p in corners]
        return min(xs), max(xs), min(ys), max(ys)

    ax0, ax1, ay0, ay1 = aabb(a)
    bx0, bx1, by0, by1 = aabb(b)
    x0, x1 = max(ax0, bx0), min(ax1, bx1)
    y0, y1 = max(ay0, by0), min(ay1, by1)
    if x0 >= x1 or y0 >= y1:
        return 0.0
    i0 = math.floor(x0 / cell)
    i1 = math.ceil(x1 / cell)
    j0 = math.floor(y0 / cell)
    j1 = math.ceil(y1 / cell)
    xs = (np.arange(i0, i1) + 0.5) * cell
    ys = (np.arange(j0, j1) + 0.5) * cell
    gx, gy = np.meshgrid(xs, ys, indexing="ij")

    def inside(r: RotatedRect):
        dx = gx - r.cx
        dy = gy - r.cy
        c, s = math.cos(r.theta), math.sin(r.theta)
        local_l = dx * c + dy * s
        local_w = -dx * s + dy * c
        return (np.abs(local_l) <= r.l / 2) & (np.abs(local_w) <= r.w / 2)

    return float(np.count_nonzero(inside(a) & inside(b))) * cell * cell


def rect_pair(a: RotatedRect, b: RotatedRect):
    """(table, [0], table, [1]): the kernel's arguments for one rectangle pair."""
    table = _rect_table((a, b))
    return table, np.array([0]), table, np.array([1])


class TestIntersectionArea:
    def test_identical_unit_squares(self):
        r = RotatedRect(0, 0, 1, 1, 0)
        assert rotated_intersection_area(r, r) == pytest.approx(1.0, rel=1e-12)

    def test_disjoint(self):
        a = RotatedRect(0, 0, 1, 1, 0)
        b = RotatedRect(10, 0, 1, 1, 0)
        assert rotated_intersection_area(a, b) == 0.0

    def test_octagon_case(self):
        a = RotatedRect(0, 0, 1, 1, 0)
        b = RotatedRect(0, 0, 1, 1, math.pi / 4)
        assert rotated_intersection_area(a, b) == pytest.approx(2 * (math.sqrt(2) - 1), rel=1e-9)

    def test_touching_edges_zero(self):
        a = RotatedRect(0, 0, 1, 1, 0)
        b = RotatedRect(1.0, 0, 1, 1, 0)
        assert rotated_intersection_area(a, b) == pytest.approx(0.0, abs=1e-6)

    def test_clip_vertex_budget(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            a = RotatedRect(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.3, 2), rng.uniform(0.3, 2), rng.uniform(-math.pi, math.pi))
            b = RotatedRect(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.3, 2), rng.uniform(0.3, 2), rng.uniform(-math.pi, math.pi))
            _, _, count = _clip(*rect_pair(a, b))
            assert count[0] <= 8

    def test_raster_oracle_sample(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            a = RotatedRect(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0), rng.uniform(-math.pi, math.pi))
            b = RotatedRect(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0), rng.uniform(-math.pi, math.pi))
            got = rotated_intersection_area(a, b)
            want = raster_intersection(a, b)
            assert got == pytest.approx(want, rel=5e-3, abs=1e-4)


class TestIou:
    def _box(self, x=0.0, y=0.0, z=0.0, w=1.0, l=1.0, h=1.0, theta=0.0):
        return Box3D(x, y, z, w, l, h, theta)

    def test_identical(self):
        b = self._box()
        assert iou_bev(b, b) == pytest.approx(1.0)
        assert iou_3d(b, b) == pytest.approx(1.0)

    def test_disjoint(self):
        assert iou_bev(self._box(), self._box(x=5.0)) == 0.0
        assert iou_3d(self._box(), self._box(x=5.0)) == 0.0

    def test_octagon_iou(self):
        inter = 2 * (math.sqrt(2) - 1)
        expected = inter / (2 - inter)
        assert iou_bev(self._box(), self._box(theta=math.pi / 4)) == pytest.approx(expected, abs=1e-9)

    def test_vertical_offset_kills_3d(self):
        assert iou_3d(self._box(), self._box(z=1.0)) == 0.0

    def test_half_height_overlap(self):
        value = iou_3d(self._box(), self._box(z=0.5))
        assert value == pytest.approx(1.0 / 3.0, rel=1e-12)

    @given(
        st.floats(min_value=-2, max_value=2), st.floats(min_value=-2, max_value=2),
        st.floats(min_value=0.3, max_value=3), st.floats(min_value=0.3, max_value=3),
        st.floats(min_value=-math.pi, max_value=math.pi),
        st.floats(min_value=0.3, max_value=3), st.floats(min_value=0.3, max_value=3),
        st.floats(min_value=-math.pi, max_value=math.pi),
    )
    @settings(max_examples=150, deadline=None)
    def test_symmetry_and_bounds(self, x, y, w1, l1, t1, w2, l2, t2):
        a = Box3D(0, 0, 0, w1, l1, 1.0, t1)
        b = Box3D(x, y, 0, w2, l2, 1.0, t2)
        ab = iou_bev(a, b)
        ba = iou_bev(b, a)
        assert ab == pytest.approx(ba, abs=1e-12)
        assert 0.0 <= ab <= 1.0 + 1e-12

    def test_rotation_invariance(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            a = Box3D(rng.uniform(-3, 3), rng.uniform(-3, 3), 0, rng.uniform(0.5, 2), rng.uniform(0.5, 2), 1.0, rng.uniform(-math.pi, math.pi))
            b = Box3D(rng.uniform(-3, 3), rng.uniform(-3, 3), 0, rng.uniform(0.5, 2), rng.uniform(0.5, 2), 1.0, rng.uniform(-math.pi, math.pi))
            base = iou_bev(a, b)
            phi = rng.uniform(-math.pi, math.pi)
            c, s = math.cos(phi), math.sin(phi)

            def rot(box):
                return Box3D(
                    box.x * c - box.y * s, box.x * s + box.y * c, box.z,
                    box.w, box.l, box.h, box.theta + phi,
                )

            assert iou_bev(rot(a), rot(b)) == pytest.approx(base, abs=1e-9)


class TestRotatedRectChecks:
    @pytest.mark.parametrize("field", range(5))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, bad):
        values = [0.0, 0.0, 1.0, 1.0, 0.0]
        values[field] = bad
        with pytest.raises(ValueError, match="finite"):
            RotatedRect(*values)

    def test_overflowing_sum_accepted(self):
        RotatedRect(1e308, 1e308, 1.0, 1.0, 0.0)

    def test_nan_heading_no_longer_reads_as_disjoint(self):
        square = RotatedRect(0.0, 0.0, 1.0, 1.0, 0.0)
        assert rotated_intersection_area(square, square) == 1.0
        with pytest.raises(ValueError):
            rotated_intersection_area(square, RotatedRect(0.0, 0.0, 1.0, 1.0, math.nan))


# --- the kernel against the frozen per-pair clipper, bit for bit -------------

def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def kernel_matrix(boxes_a, boxes_b, three_d):
    """Dense len(a) x len(b) IoU through the package's reach test and kernel."""
    ta, tb = _box_table(boxes_a), _box_table(boxes_b)
    ia, ib = _pairs_in_reach(ta, 0, len(boxes_a), tb, 0, len(boxes_b))
    out = np.zeros((len(boxes_a), len(boxes_b)))
    out[ia, ib] = _pair_iou(ta, ia, tb, ib, three_d)
    return out


def frozen_matrix(boxes_a, boxes_b, three_d):
    fn = frozen.iou_3d if three_d else frozen.iou_bev
    return np.array([[fn(a, b) for b in boxes_b] for a in boxes_a]).reshape(len(boxes_a), len(boxes_b))


def random_boxes(rng, n, spread):
    return [
        Box3D(rng.uniform(-spread, spread), rng.uniform(-spread, spread), rng.uniform(-0.5, 0.5),
              rng.uniform(0.3, 3.0), rng.uniform(0.5, 5.0), rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi))
        for _ in range(n)
    ]


ULP_PAST_PI = math.nextafter(math.pi, math.inf)
# heading that points corner (l/2, w/2) of a 3 x 4 box along +x
DIAGONAL = -math.atan2(1.5, 2.0)

# (a, b) as RotatedRect fields cx, cy, w, l, theta
SPECIAL_RECTS = {
    "identical unit": ((0, 0, 1, 1, 0), (0, 0, 1, 1, 0)),
    "identical rotated": ((1.3, -2.1, 1.7, 4.2, 0.7), (1.3, -2.1, 1.7, 4.2, 0.7)),
    "touching edge": ((0, 0, 1, 1, 0), (1.0, 0, 1, 1, 0)),
    "touching edge rotated": ((0, 0, 1, 2, 0.3), (2 * math.cos(0.3), 2 * math.sin(0.3), 1, 2, 0.3)),
    "touching corner": ((0, 0, 1, 1, 0), (1.0, 1.0, 1, 1, 0)),
    "shared edges, half overlap": ((0, 0, 1, 1, 0), (0.5, 0, 1, 1, 0)),
    "shared edge, one side": ((0, 0, 2, 2, 0), (0.5, 0.5, 1, 1, 0)),
    "octagon": ((0, 0, 1, 1, 0), (0, 0, 1, 1, math.pi / 4)),
    "contained": ((0, 0, 4, 4, 0.2), (0.3, -0.2, 1, 1, 1.0)),
    "container": ((0.3, -0.2, 1, 1, 1.0), (0, 0, 4, 4, 0.2)),
    "heading +pi": ((0, 0, 1, 2, math.pi), (0.4, 0.1, 1, 2, 0.5)),
    "heading -pi": ((0, 0, 1, 2, -math.pi), (0.4, 0.1, 1, 2, math.pi)),
    "heading one ulp past pi": ((0, 0, 1, 2, ULP_PAST_PI), (0.4, 0.1, 1, 2, -ULP_PAST_PI)),
    "heading pi vs ulp past pi": ((0, 0, 1, 2, math.pi), (0, 0, 1, 2, ULP_PAST_PI)),
    "needles crossing": ((0, 0, 0.01, 50, 0.3), (0.1, 0.2, 50, 0.01, 0.3)),
    "needles parallel": ((0, 0, 0.01, 50, 0.3), (0.002, 0.001, 0.01, 50, 0.3)),
    "needle and slab": ((0, 0, 0.01, 50, 1.1), (1.0, -0.5, 50, 0.01, -0.4)),
    "at reach, corners meet": ((0, 0, 3, 4, DIAGONAL), (5.0, 0, 3, 4, DIAGONAL)),
    "just inside reach": ((0, 0, 3, 4, DIAGONAL), (math.nextafter(5.0, 0.0), 0, 3, 4, DIAGONAL)),
    "just outside reach": ((0, 0, 3, 4, DIAGONAL), (math.nextafter(5.0, 9.0), 0, 3, 4, DIAGONAL)),
    "at reach, axis aligned": ((0, 0, 3, 4, 0), (0, 5.0, 3, 4, 0)),
}


class TestKernelOracle:
    @pytest.mark.parametrize("three_d", [False, True], ids=["bev", "3d"])
    def test_random_pairs_bitwise(self, three_d):
        rng = np.random.default_rng(50 + three_d)
        a = random_boxes(rng, 250, 2.5)
        b = random_boxes(rng, 250, 2.5)
        got = kernel_matrix(a, b, three_d)
        want = frozen_matrix(a, b, three_d)
        assert got.size >= 50_000
        assert np.count_nonzero(want) > 0.3 * want.size  # most pairs really clip
        assert np.array_equal(bits(got), bits(want))

    def test_random_pairs_fill_the_vertex_buffer(self):
        rng = np.random.default_rng(52)
        a = random_boxes(rng, 200, 1.0)
        ta = _box_table(a)
        ia, ib = _pairs_in_reach(ta, 0, len(a), ta, 0, len(a))
        qx, _, count = _clip(ta, ia, ta, ib)
        assert count.max() == qx.shape[1] == 8

    @pytest.mark.parametrize("case", list(SPECIAL_RECTS))
    def test_special_cases_bitwise(self, case):
        fa, fb = SPECIAL_RECTS[case]
        for p, q in ((fa, fb), (fb, fa)):
            got = rotated_intersection_area(RotatedRect(*p), RotatedRect(*q))
            want = frozen.rotated_intersection_area(frozen.RotatedRect(*p), frozen.RotatedRect(*q))
            assert bits(got) == bits(want)
            for z, h in ((0.0, 1.0), (0.3, 0.5)):
                a = Box3D(p[0], p[1], 0.0, p[2], p[3], 1.0, p[4])
                b = Box3D(q[0], q[1], z, q[2], q[3], h, q[4])
                assert bits(iou_bev(a, b)) == bits(frozen.iou_bev(a, b))
                assert bits(iou_3d(a, b)) == bits(frozen.iou_3d(a, b))
                for three_d in (False, True):
                    assert np.array_equal(bits(kernel_matrix([a], [b], three_d)), bits(frozen_matrix([a], [b], three_d)))

    def test_special_cases_cover_their_names(self):
        def area(case):
            return frozen.rotated_intersection_area(*(frozen.RotatedRect(*r) for r in SPECIAL_RECTS[case]))

        assert area("identical unit") == 1.0
        assert area("touching edge") < 1e-8
        assert area("octagon") == pytest.approx(2 * (math.sqrt(2) - 1), rel=1e-12)
        assert area("contained") == 1.0
        fa, fb = SPECIAL_RECTS["at reach, corners meet"]
        ra = 0.5 * math.hypot(fa[2], fa[3])
        rb = 0.5 * math.hypot(fb[2], fb[3])
        assert fb[0] ** 2 == (ra + rb) ** 2
        table = _rect_table([RotatedRect(*fa), RotatedRect(*fb)])
        assert len(_pairs_in_reach(table, 0, 1, table, 1, 2)[0]) == 1
        fa, fb = SPECIAL_RECTS["just outside reach"]
        table = _rect_table([RotatedRect(*fa), RotatedRect(*fb)])
        assert len(_pairs_in_reach(table, 0, 1, table, 1, 2)[0]) == 0

    def test_empty_and_zero_pair_inputs(self):
        empty = _box_table([])
        assert empty.px.shape == (0, 4) and empty.eps.shape == (0, 4)
        some = _box_table(random_boxes(np.random.default_rng(53), 5, 1.0))
        none = np.zeros(0, dtype=np.intp)
        for a, b in ((empty, some), (some, empty), (empty, empty)):
            ia, ib = _pairs_in_reach(a, 0, len(a.x), b, 0, len(b.x))
            assert len(ia) == len(ib) == 0
        ia, ib = _pairs_in_reach(some, 2, 2, some, 0, 5)
        assert len(ia) == 0
        for three_d in (False, True):
            assert _pair_iou(some, none, some, none, three_d).shape == (0,)
        assert _clip(some, none, some, none)[2].shape == (0,)
        assert kernel_matrix([], [], False).shape == (0, 0)

    def test_pairs_that_clip_to_nothing(self):
        # in reach, but every vertex falls outside: the polygons empty out
        a = Box3D(0, 0, 0, 1, 1, 1, 0)
        bs = [Box3D(1.25, y, 0, 1, 1, 1, math.pi / 4) for y in (-0.1, 0.0, 0.1)]
        for b in bs:
            assert frozen.clip_rect_polygon(frozen.bev_rect(a), frozen.bev_rect(b)) == []
        table = _box_table([a] + bs)
        ia, ib = _pairs_in_reach(table, 0, 1, table, 1, 4)
        assert len(ia) == 3
        qx, _, count = _clip(table, ia, table, ib)
        assert count.tolist() == [0, 0, 0] and qx.shape[1] == 0
        assert _pair_iou(table, ia, table, ib, False).tolist() == [0.0, 0.0, 0.0]

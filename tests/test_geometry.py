"""Rotated-rectangle intersection against analytic and raster oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import frozen_geometry as frozen
from uatrack.boxes import Box3D
from uatrack.geometry import (
    _GATE_CELLS,
    RotatedRect,
    _between,
    _box_table,
    _clip,
    _grouped_pairs_in_reach,
    _grouped_sweep,
    _pair_iou,
    _reach,
    _rect_table,
    iou_3d,
    iou_bev,
    rotated_intersection_area,
    sweep_window,
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

    @pytest.mark.parametrize("w, l", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_extent_not_positive_rejected(self, w, l):
        with pytest.raises(ValueError, match="rectangle extents must be positive"):
            RotatedRect(0.0, 0.0, w, l, 0.0)

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


def reach_pairs(a, a_lo, a_hi, b, b_lo, b_hi):
    """Rows (ia, ib) of the full cross product a[a_lo:a_hi] x b[b_lo:b_hi] that pass _reach, row-major.

    The reference for the package's broad phase: it shares no sweep code.
    """
    ia, ib = np.nonzero(_reach(a.x[a_lo:a_hi, None], a.y[a_lo:a_hi, None], a.radius[a_lo:a_hi, None],
                               b.x[b_lo:b_hi], b.y[b_lo:b_hi], b.radius[b_lo:b_hi]))
    return ia + a_lo, ib + b_lo


def kernel_matrix(boxes_a, boxes_b, three_d):
    """Dense len(a) x len(b) IoU through the package's reach test and kernel."""
    ta, tb = _box_table(boxes_a), _box_table(boxes_b)
    ia, ib = reach_pairs(ta, 0, len(boxes_a), tb, 0, len(boxes_b))
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


def nms_shaped_boxes(rng, n):
    """n boxes, each followed by the duplicates NMS scores it against.

    Two near-duplicates jittered as the postproc benchmark jitters them
    (sigma 0.4 m in x and y, 0.05 rad in heading), one exact duplicate
    and one at the same center turned by pi/2.
    """
    out = []
    for box in random_boxes(rng, n, 6.0):
        jitter = [replace(box, x=box.x + 0.4 * dx, y=box.y + 0.4 * dy, theta=box.theta + 0.05 * dt)
                  for dx, dy, dt in rng.standard_normal((2, 3))]
        out += [box, *jitter, replace(box), replace(box, theta=box.theta + math.pi / 2)]
    return out


class TestKernelOracle:
    @pytest.mark.parametrize("three_d", [False, True], ids=["bev", "3d"])
    def test_nms_shaped_pairs_bitwise(self, three_d):
        boxes = nms_shaped_boxes(np.random.default_rng(54), 32)
        got = kernel_matrix(boxes, boxes, three_d)
        want = frozen_matrix(boxes, boxes, three_d)
        assert np.count_nonzero(want) > 2 * len(boxes)  # every box meets its own duplicates
        assert np.array_equal(bits(got), bits(want))
        table = _box_table(boxes)
        ia, ib = reach_pairs(table, 0, len(boxes), table, 0, len(boxes))
        count = _clip(table, ia, table, ib)[2]
        assert {0, 5, 6, 7, 8} <= set(count.tolist())

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
        ia, ib = reach_pairs(ta, 0, len(a), ta, 0, len(a))
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
        assert len(reach_pairs(table, 0, 1, table, 1, 2)[0]) == 1
        fa, fb = SPECIAL_RECTS["just outside reach"]
        table = _rect_table([RotatedRect(*fa), RotatedRect(*fb)])
        assert len(reach_pairs(table, 0, 1, table, 1, 2)[0]) == 0

    def test_empty_and_zero_pair_inputs(self):
        empty = _box_table([])
        assert empty.px.shape == (0, 4) and empty.eps.shape == (0, 4)
        some = _box_table(random_boxes(np.random.default_rng(53), 5, 1.0))
        none = np.zeros(0, dtype=np.intp)
        for a, b in ((empty, some), (some, empty), (empty, empty)):
            ia, ib = _grouped_pairs_in_reach(a, np.zeros(len(a.x), np.intp), b, np.zeros(len(b.x), np.intp))
            assert len(ia) == len(ib) == 0
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
        ia, ib = reach_pairs(table, 0, 1, table, 1, 4)
        assert len(ia) == 3
        qx, _, count = _clip(table, ia, table, ib)
        assert count.tolist() == [0, 0, 0] and qx.shape[1] == 0
        assert _pair_iou(table, ia, table, ib, False).tolist() == [0.0, 0.0, 0.0]


class TestGroupedPairsInReach:
    """One sweep over every group finds the pairs of the reach test over each group's cross product."""

    @staticmethod
    def per_group(a, a_sizes, b, b_sizes):
        a_lo, b_lo = np.cumsum([0, *a_sizes]), np.cumsum([0, *b_sizes])
        found = [reach_pairs(a, a_lo[g], a_lo[g + 1], b, b_lo[g], b_lo[g + 1]) for g in range(len(a_sizes))]
        return {(i, j) for ia, ib in found for i, j in zip(ia.tolist(), ib.tolist())}

    @staticmethod
    def grouped(a, a_sizes, b, b_sizes):
        ia, ib = _grouped_pairs_in_reach(a, np.repeat(np.arange(len(a_sizes)), a_sizes),
                                         b, np.repeat(np.arange(len(b_sizes)), b_sizes))
        assert np.all(np.diff(ia) >= 0)
        pairs = list(zip(ia.tolist(), ib.tolist()))
        assert len(set(pairs)) == len(pairs)
        return set(pairs)

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    @pytest.mark.parametrize("seed", range(4))
    def test_same_pair_set_as_per_group_blocks(self, seed, offset):
        rng = np.random.default_rng(seed)
        a_sizes = rng.integers(0, 30, 12).tolist()
        b_sizes = rng.integers(0, 30, 12).tolist()
        a_sizes[3] = b_sizes[5] = 0
        boxes = [random_boxes(rng, n, 10.0) for n in (sum(a_sizes), sum(b_sizes))]
        a, b = (_box_table([Box3D(p.x + offset, p.y, p.z, p.w, p.l, p.h, p.theta) for p in bs]) for bs in boxes)
        want = self.per_group(a, a_sizes, b, b_sizes)
        assert len(want) > 50
        assert self.grouped(a, a_sizes, b, b_sizes) == want

    def test_many_blocks_of_candidates(self):
        # dense groups: far more than _GATE_CELLS candidates, swept block by block
        rng = np.random.default_rng(9)
        a_sizes, b_sizes = [400, 0, 350], [300, 200, 380]
        a, b = (_box_table(random_boxes(rng, sum(sizes), 6.0)) for sizes in (a_sizes, b_sizes))
        want = self.per_group(a, a_sizes, b, b_sizes)
        assert len(want) > _GATE_CELLS  # so more than one block
        assert self.grouped(a, a_sizes, b, b_sizes) == want

    def test_exact_reach_shared_x_and_empty_sides(self):
        # boxes at exactly the reach distance, one ulp beyond, and many equal x
        fa, fb = SPECIAL_RECTS["at reach, corners meet"]
        rects = [RotatedRect(*fa), RotatedRect(*fb), RotatedRect(*SPECIAL_RECTS["just outside reach"][1]),
                 RotatedRect(0.0, 5.0, 3, 4, 0.0), RotatedRect(0.0, -3.0, 1, 1, 0.0)]
        a, b = _rect_table(rects[:1] * 3), _rect_table(rects[1:] * 2)
        for a_sizes, b_sizes in (([1, 1, 1], [4, 2, 2]), ([3], [8]), ([0, 3], [8, 0])):
            assert self.grouped(a, a_sizes, b, b_sizes) == self.per_group(a, a_sizes, b, b_sizes)
        assert self.grouped(a, [3], b, [8]) == {(i, j) for i in range(3) for j in (0, 2, 3, 4, 6, 7)}
        empty = _box_table([])
        assert self.grouped(empty, [0], b, [8]) == self.grouped(a, [3], empty, [0]) == set()


class TestOneGroupSweep:
    """The one-group sweep finds every pair within the window, as the grouped sweep does with one group."""

    @staticmethod
    def blocks(ax, a_group, reach, bx, b_group):
        """The sweep's pairs as a set, checking that ia ascends across blocks and no pair repeats."""
        found = list(_grouped_sweep(ax, a_group, reach, bx, b_group))
        ia = np.concatenate([np.zeros(0, np.intp), *(i for i, _ in found)])
        assert np.all(np.diff(ia) >= 0)
        pairs = [(i, k) for block in found for i, k in zip(*(side.tolist() for side in block))]
        assert len(set(pairs)) == len(pairs)
        return len(found), set(pairs)

    @staticmethod
    def in_window(ax, reach, bx):
        """Every (i, k) with bx[k] in sweep_window's [lo[i], hi[i]), pair by pair."""
        lo, hi = sweep_window(ax, reach, np.sort(bx))
        return {(i, k) for i in range(len(ax)) for k in range(len(bx)) if lo[i] <= bx[k] < hi[i]}

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    @pytest.mark.parametrize("seed", range(3))
    def test_same_pairs_as_one_zero_group_and_as_the_window(self, seed, offset):
        rng = np.random.default_rng(seed)
        ax = offset + rng.uniform(-20, 20, 70).round(1)  # rounded: many equal x
        bx = np.concatenate([ax[:20], offset + rng.uniform(-20, 20, 50)])
        reach = rng.uniform(0.0, 2.0, len(ax))
        n, one = self.blocks(ax, None, reach, bx, None)
        assert n == 1
        zeros = self.blocks(ax, np.zeros(len(ax), np.intp), reach, bx, np.zeros(len(bx), np.intp))[1]
        assert one == zeros == self.in_window(ax, reach, bx)
        assert len(one) > 100

    def test_window_ends(self):
        # keys on each window's ends and one ulp outside them; the extreme keys, which set the widening, stay put
        ax, reach = np.array([0.0, 3.0, 7.5]), np.array([1.0, 0.25, 2.0])
        lo, hi = sweep_window(ax, reach, np.array([-10.0, 1e3]))
        inside = np.concatenate([lo, np.nextafter(hi, -np.inf)])
        bx = np.concatenate([[-10.0, 1e3], inside, np.nextafter(lo, -np.inf), hi])
        want = {(i, 2 + i) for i in range(3)} | {(i, 5 + i) for i in range(3)}
        for a_group, b_group in ((None, None), (np.zeros(3, np.intp), np.zeros(len(bx), np.intp))):
            assert self.blocks(ax, a_group, reach, bx, b_group)[1] == self.in_window(ax, reach, bx) == want

    def test_many_blocks(self, monkeypatch):
        monkeypatch.setattr("uatrack.geometry._GATE_CELLS", 64)
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 30, 200)
        reach = np.full(len(x), 1.5)
        n, one = self.blocks(x, None, reach, x, None)
        assert n > 10
        assert one == self.blocks(x, np.zeros(len(x), np.intp), reach, x, np.zeros(len(x), np.intp))[1]
        assert one == self.in_window(x, reach, x)

    def test_empty_sides(self):
        some = np.arange(3.0)
        for ax, bx in ((some, some[:0]), (some[:0], some), (some[:0], some[:0])):
            assert list(_grouped_sweep(ax, None, 1.0, bx, None)) == []

    def test_between(self):
        none = np.zeros(0, np.intp)
        rows, k = _between(none, none)
        assert rows.tolist() == k.tolist() == []
        rows, k = _between(np.array([2, 3, 0, 5]), np.array([2, 5, 0, 7]))  # two empty windows
        assert rows.tolist() == [1, 1, 3, 3] and k.tolist() == [3, 4, 5, 6]
        rows, k = _between(np.array([4, 4]), np.array([4, 4]))
        assert rows.tolist() == k.tolist() == []

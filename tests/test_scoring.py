"""Uncertainty scoring strategies and NMS behavior."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import frozen_geometry as frozen
from uatrack.boxes import Box3D, EncodedLogVar
from uatrack.scoring import (
    AggregateMode,
    IouKind,
    NmsConfig,
    ScoreMapConfig,
    ScoreStrategy,
    aggregate_logvar,
    combined_score,
    map_uncertainty_to_logscore,
    nms,
    score_detection,
)


class TestAggregate:
    def test_uniform(self):
        s = EncodedLogVar(*([-2.0] * 7))
        assert aggregate_logvar(s, AggregateMode.MAX) == -2.0
        assert aggregate_logvar(s, AggregateMode.SUM) == pytest.approx(-14.0)

    def test_max_picks_largest(self):
        s = EncodedLogVar(0, 1, 2, 0, 0, 0, 0)
        assert aggregate_logvar(s, AggregateMode.MAX) == 2.0


class TestMapping:
    def test_linear_value(self):
        cfg = ScoreMapConfig(strategy=ScoreStrategy.LINEAR, k_s=0.001, b_s=0.0)
        assert map_uncertainty_to_logscore(-3.0, cfg) == pytest.approx(0.003)

    def test_linear_clamps_at_zero(self):
        cfg = ScoreMapConfig(strategy=ScoreStrategy.LINEAR, k_s=0.5, b_s=0.0)
        assert map_uncertainty_to_logscore(10.0, cfg) == 0.0

    def test_sigmoid_at_midpoint(self):
        cfg = ScoreMapConfig(strategy=ScoreStrategy.SIGMOID, k_s=0.7, b_s=0.0)
        assert map_uncertainty_to_logscore(0.0, cfg) == pytest.approx(math.log(0.5), rel=1e-12)

    def test_exponential_value(self):
        cfg = ScoreMapConfig(strategy=ScoreStrategy.EXPONENTIAL, k_s=0.01, b_s=0.0)
        assert map_uncertainty_to_logscore(0.0, cfg) == pytest.approx(-1.0)

    def test_exponential_overflow_is_minus_inf(self):
        # exp(1000) overflows: beta_s is 0 in the limit, its log -inf
        cfg = ScoreMapConfig(strategy=ScoreStrategy.EXPONENTIAL, k_s=0.001, b_s=1000.0)
        assert map_uncertainty_to_logscore(0.0, cfg) == -math.inf
        assert combined_score(0.5, map_uncertainty_to_logscore(0.0, cfg)) == 0.0

    def test_none_is_zero(self):
        cfg = ScoreMapConfig(strategy=ScoreStrategy.NONE)
        assert map_uncertainty_to_logscore(123.0, cfg) == 0.0

    @given(
        st.sampled_from([ScoreStrategy.LINEAR, ScoreStrategy.EXPONENTIAL, ScoreStrategy.SIGMOID]),
        st.floats(min_value=1e-4, max_value=1.0),
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=-50.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_monotone_non_increasing(self, strategy, k_s, b_s, g, delta):
        cfg = ScoreMapConfig(strategy=strategy, k_s=k_s, b_s=b_s)
        assert map_uncertainty_to_logscore(g + delta, cfg) <= map_uncertainty_to_logscore(g, cfg) + 1e-12


class TestCombinedScore:
    def test_neutral(self):
        assert combined_score(1.0, 0.0, 1.0) == pytest.approx(1.0)

    def test_hand_value(self):
        assert combined_score(0.5, -1.0, 1.0) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-12)

    def test_alpha_exponent_law(self):
        one = combined_score(0.5, -1.0, 1.0)
        two = combined_score(0.5, -1.0, 2.0)
        assert two == pytest.approx(one * one, rel=1e-12)

    def test_rejects_nonpositive_score(self):
        with pytest.raises(ValueError):
            combined_score(0.0, 0.0, 1.0)

    def test_rejects_a_value_beyond_float_range(self):
        with pytest.raises(ValueError, match="beyond float range"):
            combined_score(0.5, 1000.0, 1.0)
        with pytest.raises(ValueError, match="beyond float range"):
            combined_score(0.5, math.inf, 1.0)

    def test_none_strategy_reduces_to_classification(self):
        s = EncodedLogVar(*([-3.0] * 7))
        cfg = ScoreMapConfig(strategy=ScoreStrategy.NONE, alpha=1.0)
        assert score_detection(0.77, s, cfg) == pytest.approx(0.77, rel=1e-12)


def _box(x=0.0, y=0.0, score=0.5, theta=0.0, w=1.0, l=1.0):
    return Box3D(x, y, 0.0, w, l, 1.0, theta, score=score)


class TestNms:
    def test_identical_boxes_keep_best(self):
        boxes = [_box(score=0.9), _box(score=0.8)]
        kept = nms(boxes, NmsConfig(iou_threshold=0.5))
        assert len(kept) == 1
        assert kept[0].score == 0.9

    def test_disjoint_kept(self):
        boxes = [_box(score=0.9), _box(x=10.0, score=0.8)]
        assert len(nms(boxes, NmsConfig(iou_threshold=0.5))) == 2

    def test_chain_suppression(self):
        # A overlaps B, B overlaps C, A and C barely overlap: keep A and C
        a = _box(x=0.0, score=0.9, w=1.0, l=2.0)
        b = _box(x=0.5, score=0.8, w=1.0, l=2.0)
        c = _box(x=1.3, score=0.7, w=1.0, l=2.0)
        from uatrack.geometry import iou_bev

        assert iou_bev(a, b) > 0.3 and iou_bev(b, c) > 0.3 and iou_bev(a, c) < 0.3
        kept = nms([a, b, c], NmsConfig(iou_threshold=0.3))
        assert [k.score for k in kept] == [0.9, 0.7]

    def test_pre_top_k(self):
        boxes = [_box(x=3.0 * i, score=0.9 - 0.01 * i) for i in range(10)]
        kept = nms(boxes, NmsConfig(iou_threshold=0.5, pre_top_k=4))
        assert len(kept) == 4

    @given(st.permutations(range(8)))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, order):
        boxes = [_box(x=1.1 * i, score=0.9 - 0.07 * i) for i in range(8)]
        base = nms(boxes, NmsConfig(iou_threshold=0.3))
        shuffled = [boxes[i] for i in order]
        permuted = nms(shuffled, NmsConfig(iou_threshold=0.3))
        assert sorted(b.score for b in base) == sorted(b.score for b in permuted)

    def test_output_bounded(self):
        boxes = [_box(x=2.0 * i, score=0.5) for i in range(5)]
        kept = nms(boxes, NmsConfig(iou_threshold=0.5, pre_top_k=100))
        assert len(kept) <= min(len(boxes), 100)

    def test_3d_kind(self):
        a = Box3D(0, 0, 0.0, 1, 1, 1, 0, score=0.9)
        b = Box3D(0, 0, 0.9, 1, 1, 1, 0, score=0.8)  # thin vertical overlap
        kept = nms([a, b], NmsConfig(iou_threshold=0.5, iou_kind=IouKind.THREE_D))
        assert len(kept) == 2


# --- batched NMS against the per-pair greedy loop it replaced ----------------

def reference_nms(boxes, cfg):
    """The greedy loop, one scalar IoU per (candidate, kept) pair, frozen clipper."""
    iou = frozen.iou_bev if cfg.iou_kind is IouKind.BEV else frozen.iou_3d
    order = sorted(range(len(boxes)), key=lambda i: (-boxes[i].score, i))
    order = order[: cfg.pre_top_k]
    kept = []
    for i in order:
        candidate = boxes[i]
        if all(iou(candidate, k) <= cfg.iou_threshold for k in kept):
            kept.append(candidate)
    return kept


def clustered_boxes(seed, n_clusters=12, per_cluster=6):
    """Near-duplicate clusters, some boxes repeated exactly, scores from few values."""
    rng = np.random.default_rng(seed)
    boxes = []
    for _ in range(n_clusters):
        cx, cy, cz = rng.uniform(-6, 6), rng.uniform(-6, 6), rng.uniform(-0.3, 0.3)
        w, l, h, theta = rng.uniform(1.0, 2.5), rng.uniform(2.0, 5.0), rng.uniform(1.0, 2.0), rng.uniform(-math.pi, math.pi)
        for _ in range(per_cluster):
            boxes.append(Box3D(
                cx + rng.normal(0, 0.4), cy + rng.normal(0, 0.4), cz + rng.normal(0, 0.3),
                w * rng.uniform(0.8, 1.2), l * rng.uniform(0.8, 1.2), h, theta + rng.normal(0, 0.2),
                score=float(rng.choice([0.3, 0.5, 0.7, 0.9])),
            ))
        boxes.append(boxes[-1])
    rng.shuffle(boxes)
    return boxes


class TestNmsOracle:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", list(IouKind))
    @pytest.mark.parametrize("pre_top_k", [1, 30, 84, 500])
    @pytest.mark.parametrize("threshold", [0.1, 0.5])
    def test_same_objects_same_order(self, seed, kind, pre_top_k, threshold):
        boxes = clustered_boxes(seed)
        assert len(boxes) == 84
        cfg = NmsConfig(iou_threshold=threshold, pre_top_k=pre_top_k, iou_kind=kind)
        got = nms(boxes, cfg)
        want = reference_nms(boxes, cfg)
        assert [id(b) for b in got] == [id(b) for b in want]

    def test_inputs_hold_ties_duplicates_and_suppression(self):
        boxes = clustered_boxes(0)
        assert len({b.score for b in boxes}) < len(boxes)
        assert len({id(b) for b in boxes}) < len(boxes)
        kept = reference_nms(boxes, NmsConfig(iou_threshold=0.1, pre_top_k=500))
        assert 1 < len(kept) < len(boxes) // 2

    def test_empty(self):
        assert nms([], NmsConfig()) == []

    def test_candidate_is_the_first_box(self):
        # rounding makes this pair's IoU depend on argument order; with the
        # threshold between the two values, only iou(candidate, kept) decides right
        kept = Box3D(0.0, 0.0, 0.0, 1.8, 4.2, 1.5, 0.3, score=0.9)
        candidate = Box3D(0.274, -0.46, 0.0, 1.8, 4.2, 1.5, -0.918, score=0.8)
        forward = frozen.iou_bev(candidate, kept)
        threshold = frozen.iou_bev(kept, candidate)
        assert threshold < forward
        cfg = NmsConfig(iou_threshold=threshold)
        assert nms([kept, candidate], cfg) == reference_nms([kept, candidate], cfg) == [kept]

    def test_no_dense_matrix(self):
        rng = np.random.default_rng(7)
        grid = [(i % 64, i // 64) for i in range(4000)]
        boxes = [
            Box3D(6.0 * gx + rng.uniform(-2, 2), 6.0 * gy + rng.uniform(-2, 2), 0.0,
                  rng.uniform(1.0, 2.0), rng.uniform(2.0, 4.5), 1.5, rng.uniform(-math.pi, math.pi),
                  score=float(rng.uniform(0.1, 1.0)))
            for gx, gy in grid
        ]
        cfg = NmsConfig(iou_threshold=0.1, pre_top_k=4000)
        tracemalloc.start()
        try:
            kept = nms(boxes, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20  # a dense float64 4000 x 4000 matrix alone is 128 MB
        assert len(boxes) // 2 < len(kept) < len(boxes)

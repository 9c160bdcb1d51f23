"""Uncertainty scoring strategies and NMS behavior."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import frozen_geometry as frozen
import frozen_scoring
from uatrack import scoring
from uatrack.boxes import Box3D, BoxVariance, EncodedLogVar, box_values, encode_variance, self_anchor
from uatrack.io import read_detection_columns, write_detections
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
    rescore,
    rescore_logvars,
    score_detection,
)
from uatrack.sim import ScenarioConfig, generate_scenario


class TestAggregate:
    def test_uniform(self):
        s = EncodedLogVar(*([-2.0] * 7))
        assert aggregate_logvar(s, AggregateMode.MAX) == frozen_scoring.aggregate_logvar(s, AggregateMode.MAX) == -2.0
        assert aggregate_logvar(s, AggregateMode.SUM) == frozen_scoring.aggregate_logvar(s, AggregateMode.SUM)
        assert aggregate_logvar(s, AggregateMode.SUM) == pytest.approx(-14.0)

    def test_max_picks_largest(self):
        s = EncodedLogVar(0, 1, 2, 0, 0, 0, 0)
        assert aggregate_logvar(s, AggregateMode.MAX) == frozen_scoring.aggregate_logvar(s, AggregateMode.MAX) == 2.0

    def test_sum_adds_left_to_right_uncompensated(self):
        # on every Python version: 1e16 + 1.0 rounds back to 1e16, where a compensated sum (3.12's sum()) gives 1.0
        s = EncodedLogVar(1e16, 1.0, -1e16, 0, 0, 0, 0)
        assert aggregate_logvar(s, AggregateMode.SUM) == 0.0
        assert frozen_scoring.aggregate_logvar(s, AggregateMode.SUM) == 0.0
        cfg = ScoreMapConfig(strategy=ScoreStrategy.LINEAR, aggregate=AggregateMode.SUM, k_s=1.0, b_s=1.0)
        logvars = np.array(s.as_tuple(), dtype=float).reshape(7, 1)
        values, errors = rescore_logvars(np.array([0.5]), logvars, cfg)
        assert errors == {}
        assert values.tolist() == [frozen_scoring.score_detection(0.5, s, cfg)]


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


def rows_of(boxes):
    """Boxes as an (n, 8) row block: BOX_FIELDS values, then score."""
    return np.array([(*box_values(b), b.score) for b in boxes], dtype=float).reshape(-1, 8)


def kept_boxes(boxes, cfg):
    """The boxes nms keeps, in rank order."""
    return [boxes[i] for i in nms(rows_of(boxes), cfg)]


class TestNms:
    def test_identical_boxes_keep_best(self):
        boxes = [_box(score=0.9), _box(score=0.8)]
        kept = kept_boxes(boxes, NmsConfig(iou_threshold=0.5))
        assert len(kept) == 1
        assert kept[0].score == 0.9

    def test_disjoint_kept(self):
        boxes = [_box(score=0.9), _box(x=10.0, score=0.8)]
        assert len(kept_boxes(boxes, NmsConfig(iou_threshold=0.5))) == 2

    def test_chain_suppression(self):
        # A overlaps B, B overlaps C, A and C barely overlap: keep A and C
        a = _box(x=0.0, score=0.9, w=1.0, l=2.0)
        b = _box(x=0.5, score=0.8, w=1.0, l=2.0)
        c = _box(x=1.3, score=0.7, w=1.0, l=2.0)
        from uatrack.geometry import iou_bev

        assert iou_bev(a, b) > 0.3 and iou_bev(b, c) > 0.3 and iou_bev(a, c) < 0.3
        kept = kept_boxes([a, b, c], NmsConfig(iou_threshold=0.3))
        assert [k.score for k in kept] == [0.9, 0.7]

    def test_pre_top_k(self):
        boxes = [_box(x=3.0 * i, score=0.9 - 0.01 * i) for i in range(10)]
        kept = kept_boxes(boxes, NmsConfig(iou_threshold=0.5, pre_top_k=4))
        assert len(kept) == 4

    @given(st.permutations(range(8)))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, order):
        boxes = [_box(x=1.1 * i, score=0.9 - 0.07 * i) for i in range(8)]
        base = kept_boxes(boxes, NmsConfig(iou_threshold=0.3))
        shuffled = [boxes[i] for i in order]
        permuted = kept_boxes(shuffled, NmsConfig(iou_threshold=0.3))
        assert sorted(b.score for b in base) == sorted(b.score for b in permuted)

    def test_output_bounded(self):
        boxes = [_box(x=2.0 * i, score=0.5) for i in range(5)]
        kept = kept_boxes(boxes, NmsConfig(iou_threshold=0.5, pre_top_k=100))
        assert len(kept) <= min(len(boxes), 100)

    def test_3d_kind(self):
        a = Box3D(0, 0, 0.0, 1, 1, 1, 0, score=0.9)
        b = Box3D(0, 0, 0.9, 1, 1, 1, 0, score=0.8)  # thin vertical overlap
        kept = kept_boxes([a, b], NmsConfig(iou_threshold=0.5, iou_kind=IouKind.THREE_D))
        assert len(kept) == 2


# --- batched NMS against the per-pair greedy loop it replaced ----------------

def reference_nms(boxes, cfg):
    """The greedy loop, one scalar IoU per (candidate, kept) pair, frozen clipper; kept indices in rank order."""
    iou = frozen.iou_bev if cfg.iou_kind is IouKind.BEV else frozen.iou_3d
    order = sorted(range(len(boxes)), key=lambda i: (-boxes[i].score, i))
    order = order[: cfg.pre_top_k]
    kept = []
    for i in order:
        candidate = boxes[i]
        if all(iou(candidate, boxes[k]) <= cfg.iou_threshold for k in kept):
            kept.append(i)
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


def grid_frame():
    """A seeded frame of 4,000 boxes, jittered about the nodes of a 64-wide grid 6 m apart, as an (n, 8) row block."""
    rng = np.random.default_rng(7)
    grid = [(i % 64, i // 64) for i in range(4000)]
    return rows_of([
        Box3D(6.0 * gx + rng.uniform(-2, 2), 6.0 * gy + rng.uniform(-2, 2), 0.0,
              rng.uniform(1.0, 2.0), rng.uniform(2.0, 4.5), 1.5, rng.uniform(-math.pi, math.pi),
              score=float(rng.uniform(0.1, 1.0)))
        for gx, gy in grid
    ])


class TestNmsOracle:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", list(IouKind))
    @pytest.mark.parametrize("pre_top_k", [1, 30, 84, 500])
    @pytest.mark.parametrize("threshold", [0.1, 0.5])
    def test_same_objects_same_order(self, seed, kind, pre_top_k, threshold):
        boxes = clustered_boxes(seed)
        assert len(boxes) == 84
        cfg = NmsConfig(iou_threshold=threshold, pre_top_k=pre_top_k, iou_kind=kind)
        got = nms(rows_of(boxes), cfg)
        want = reference_nms(boxes, cfg)
        assert got.tolist() == want

    def test_inputs_hold_ties_duplicates_and_suppression(self):
        boxes = clustered_boxes(0)
        assert len({b.score for b in boxes}) < len(boxes)
        assert len({id(b) for b in boxes}) < len(boxes)
        kept = reference_nms(boxes, NmsConfig(iou_threshold=0.1, pre_top_k=500))
        assert 1 < len(kept) < len(boxes) // 2

    def test_empty(self):
        assert nms(np.zeros((0, 8)), NmsConfig()).tolist() == []

    def test_candidate_is_the_first_box(self):
        # rounding makes this pair's IoU depend on argument order; with the
        # threshold between the two values, only iou(candidate, kept) decides right
        kept = Box3D(0.0, 0.0, 0.0, 1.8, 4.2, 1.5, 0.3, score=0.9)
        candidate = Box3D(0.274, -0.46, 0.0, 1.8, 4.2, 1.5, -0.918, score=0.8)
        forward = frozen.iou_bev(candidate, kept)
        threshold = frozen.iou_bev(kept, candidate)
        assert threshold < forward
        cfg = NmsConfig(iou_threshold=threshold)
        assert nms(rows_of([kept, candidate]), cfg).tolist() == reference_nms([kept, candidate], cfg) == [0]

    def test_no_dense_matrix(self):
        rows = grid_frame()
        cfg = NmsConfig(iou_threshold=0.1, pre_top_k=4000)
        tracemalloc.start()
        try:
            kept = nms(rows, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20  # a dense float64 4000 x 4000 matrix alone is 128 MB
        assert len(rows) // 2 < len(kept) < len(rows)

    def test_many_sweep_blocks(self, monkeypatch):
        # a small block bound splits one dense frame's sweep into many blocks
        monkeypatch.setattr("uatrack.geometry._GATE_CELLS", 64)
        sweep, blocks = scoring._grouped_sweep, []
        monkeypatch.setattr(scoring, "_grouped_sweep", lambda *args: (blocks.append(b) or b for b in sweep(*args)))
        boxes = clustered_boxes(5, n_clusters=50, per_cluster=5)
        assert len(boxes) == 300
        for kind in IouKind:
            cfg = NmsConfig(iou_threshold=0.3, pre_top_k=300, iou_kind=kind)
            blocks.clear()
            assert nms(rows_of(boxes), cfg).tolist() == reference_nms(boxes, cfg)
            assert len(blocks) > 10


@st.composite
def nms_frames(draw):
    """A frame of clustered near-duplicates, some repeated exactly, scores from few values (0.0 and -0.0 too)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    boxes = []
    for _ in range(draw(st.integers(0, 6))):
        cx, cy, cz = rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-0.3, 0.3)
        w, l, h, theta = rng.uniform(1.0, 2.5), rng.uniform(2.0, 5.0), rng.uniform(1.0, 2.0), rng.uniform(-4, 4)
        for score in draw(st.lists(st.sampled_from([0.0, -0.0, 0.3, 0.5, 0.9]), min_size=1, max_size=5)):
            boxes.append(Box3D(
                cx + rng.normal(0, 0.3), cy + rng.normal(0, 0.3), cz + rng.normal(0, 0.3),
                w * rng.uniform(0.8, 1.2), l * rng.uniform(0.8, 1.2), h, theta + rng.normal(0, 0.2), score=score,
            ))
    if boxes:
        boxes += [boxes[i] for i in draw(st.lists(st.integers(0, len(boxes) - 1), max_size=4))]
    return [boxes[i] for i in draw(st.permutations(range(len(boxes))))]


class TestNmsGenerated:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_as_the_greedy_loop(self, data):
        boxes = data.draw(nms_frames())
        cfg = NmsConfig(
            iou_threshold=data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
            pre_top_k=data.draw(st.integers(1, len(boxes) + 5)),
            iou_kind=data.draw(st.sampled_from(list(IouKind))),
        )
        assert nms(rows_of(boxes), cfg).tolist() == reference_nms(boxes, cfg)


# --- row rescoring against the per-box pipeline -------------------------------

def reference_rescore(rows, var, cfg):
    """The frozen score_detection of each row through Box3D, BoxVariance and the self anchor; the first failing
    row's error raised."""
    out = []
    for row, v in zip(rows.tolist(), var.tolist()):
        box = Box3D(*row[:7], score=row[7])
        out.append(frozen_scoring.score_detection(box.score, encode_variance(BoxVariance(*v), self_anchor(box), box),
                                                  cfg))
    return out


def rescored(rows, var, cfg):
    """rescore's values, or the first failing row's error raised, as reference_rescore raises it."""
    values, errors = rescore(rows, var, cfg)
    if errors:
        raise errors[min(errors)]
    return values


def outcome(fn, *args):
    """The bits of fn(*args) as hex strings, or the type and message of the error it raises."""
    try:
        return [float(v).hex() for v in fn(*args)]
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


SCORE_CONFIGS = [ScoreMapConfig(strategy=s, aggregate=m) for s in ScoreStrategy for m in AggregateMode]
# every positive finite float, subnormals included
POSITIVE = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)


class TestRescoreOracle:
    @pytest.mark.parametrize("cfg", SCORE_CONFIGS, ids=lambda c: f"{c.strategy.value}-{c.aggregate.value}")
    def test_simulated_file(self, tmp_path, cfg):
        scenario = generate_scenario(ScenarioConfig(n_targets=6, n_frames=30, fp_rate=0.5, seed=13))
        path = tmp_path / "dets.csv"
        write_detections(path, [d for frame in scenario.detections for d in frame])
        dets = read_detection_columns(path)
        assert len(dets) > 100
        got = outcome(rescored, dets.rows, dets.var, cfg)
        assert isinstance(got, list)
        assert got == outcome(reference_rescore, dets.rows, dets.var, cfg)

    @given(
        st.lists(st.tuples(POSITIVE, POSITIVE, POSITIVE, st.floats(-1.0, 1.0), st.lists(POSITIVE, min_size=7, max_size=7)),
                 min_size=1, max_size=4),
        st.sampled_from(SCORE_CONFIGS),
        st.floats(1e-4, 10.0),
        st.floats(-5.0, 1000.0),
        st.floats(0.1, 100.0),
    )
    @settings(max_examples=400, deadline=None)
    def test_extreme_rows(self, rows, base, k_s, b_s, alpha):
        """Equal bits, or the first failing row's error: extents and variances span every positive float."""
        cfg = replace(base, k_s=k_s, b_s=b_s, alpha=alpha)
        block = np.array([(0.0, 0.0, 0.0, w, l, h, 0.0, score) for w, l, h, score, _ in rows])
        var = np.array([v for *_, v in rows])
        assert outcome(rescored, block, var, cfg) == outcome(reference_rescore, block, var, cfg)

    def test_overflow_cases(self):
        rows = np.array([[0.0, 0.0, 0.0, 1.6, 3.9, 1.5, 0.0, 0.5]])
        var = np.full((1, 7), 0.1)
        # the exponential mapping overflows: beta_s is 0, and so is the rescored value
        cfg = ScoreMapConfig(strategy=ScoreStrategy.EXPONENTIAL, b_s=1000.0)
        assert rescored(rows, var, cfg).tolist() == reference_rescore(rows, var, cfg) == [0.0]
        cfg = ScoreMapConfig(strategy=ScoreStrategy.LINEAR, b_s=1000.0)
        assert outcome(rescored, rows, var, cfg) == outcome(reference_rescore, rows, var, cfg)
        values, errors = rescore(rows, var, cfg)
        assert list(errors) == [0] and "beyond float range" in str(errors[0])
        assert math.isnan(values[0])

    @pytest.mark.parametrize("w, h, var_x, error", [
        (1e200, 1.5, 0.1, "OverflowError"),  # the squared diagonal overflows
        (1.6, 1e-200, 0.1, "ZeroDivisionError"),  # h squared underflows to 0
        (1.6, 1.5, 5e-324, "ValueError"),  # var_x / d2 underflows to 0, whose log is undefined
    ])
    def test_arithmetic_errors(self, w, h, var_x, error):
        rows = np.array([[0.0, 0.0, 0.0, w, 3.9, h, 0.0, 0.5]])
        var = np.array([[var_x] + [0.1] * 6])
        cfg = ScoreMapConfig(strategy=ScoreStrategy.EXPONENTIAL)
        got = outcome(rescored, rows, var, cfg)
        assert got[0] == error
        assert got == outcome(reference_rescore, rows, var, cfg)


def _simulated_block(tmp_path):
    scenario = generate_scenario(ScenarioConfig(n_targets=6, n_frames=30, fp_rate=0.5, seed=13))
    path = tmp_path / "dets.csv"
    write_detections(path, [d for frame in scenario.detections for d in frame])
    return read_detection_columns(path)


def _bit_traps(seed=0, n=50000, keep=300):
    """Extents where x ** 2 != x * x, and quotients where math.log != np.log, among a seeded sample.

    Which values these are depends on the machine's libm and numpy build;
    each list may be short, or empty, elsewhere.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.5, 5.0, n)
    squares = np.array([v ** 2 for v in x.tolist()])
    q = rng.uniform(1e-3, 10.0, n)
    logs = np.array([math.log(v) for v in q.tolist()])
    return x[squares != x * x][:keep], q[logs != np.log(q)][:keep]


class TestColumnPass:
    """rescore's column pass: no failure on valid rows, and bit for bit the frozen per-row path's values."""

    @pytest.mark.parametrize("cfg", SCORE_CONFIGS, ids=lambda c: f"{c.strategy.value}-{c.aggregate.value}")
    def test_valid_rows_never_reach_the_per_row_path(self, tmp_path, cfg):
        dets = _simulated_block(tmp_path)
        expected = outcome(reference_rescore, dets.rows, dets.var, cfg)
        values, errors = rescore(dets.rows, dets.var, cfg)
        assert errors == {}
        assert [v.hex() for v in values.tolist()] == expected

    def test_bit_traps(self):
        """Squares whose pow differs from x * x, logs whose math value differs from numpy's, tied log-variances."""
        squares, logs = _bit_traps()
        n = max(len(squares), len(logs), 1)
        rng = np.random.default_rng(1)
        ext = np.resize(squares, n) if len(squares) else rng.uniform(0.5, 5.0, n)
        block = np.zeros((n, 8))
        block[:, 3], block[:, 4], block[:, 5] = ext, np.roll(ext, 1), np.roll(ext, 2)
        block[:, 7] = rng.uniform(0.05, 1.0, n)
        var = rng.uniform(1e-3, 2.0, (n, 7))
        var[:, 6] = np.resize(logs, n) if len(logs) else var[:, 6]
        # tied log-variances: w = l = h = 2 and each extent's and the yaw's quotient is 1, so five of them are 0.0
        tied = np.array([[0.0, 0.0, 0.0, 2.0, 2.0, 2.0, 0.0, 0.5], [0.0, 0.0, 0.0, 2.0, 2.0, 2.0, 0.0, 1.0]])
        tied_var = np.array([[8.0, 8.0, 4.0, 4.0, 4.0, 4.0, 1.0], [4.0, 4.0, 4.0, 4.0, 4.0, 4.0, 1.0]])
        block, var = np.vstack([block, tied]), np.vstack([var, tied_var])
        for cfg in SCORE_CONFIGS + [replace(c, k_s=0.3, b_s=-0.0, alpha=0.7) for c in SCORE_CONFIGS]:
            got = outcome(rescored, block, var, cfg)
            assert isinstance(got, list)
            assert got == outcome(reference_rescore, block, var, cfg)

    @pytest.mark.parametrize("cfg", SCORE_CONFIGS + [replace(c, b_s=-0.0) for c in SCORE_CONFIGS],
                             ids=lambda c: f"{c.strategy.value}-{c.aggregate.value}-{c.b_s}")
    def test_ties_signed_zeros_and_nan(self, cfg):
        """max() keeps the first of tied values, 0.0 or -0.0, and passes over a NaN after the first value, as
        the columns' comparison does (np.maximum would not); the sum adds from 0.0, left to right."""
        nan = math.nan
        logvars = np.array([
            [0.0, -0.0, 0.0, -0.0, 1.5, -2.0, 1.0],
            [-0.0, 0.0, 0.0, -0.0, 1.5, -2.0, nan],
            [-1.0, -1.0, -0.0, 0.0, 1.5, -2.0, 2.0],
            [0.0, -0.0, -0.0, 0.0, -3.0, -2.0, nan],
            [-0.0, 0.0, 0.0, 0.0, 1.5, -2.0, 0.5],
            [0.0, 0.0, -0.0, -0.0, 1.5, -2.0, -1.0],
            [-0.0, -0.0, 0.0, -0.0, 1.5, -2.0, 0.0],
        ])
        scores = np.array([1.0, 0.5, 1.0, 0.25, 1.0, 0.75, 0.5])
        got, errors = rescore_logvars(scores, logvars, cfg)
        assert errors == {}
        expected = [frozen_scoring.score_detection(s, EncodedLogVar(*col), cfg)
                    for s, col in zip(scores.tolist(), logvars.T.tolist())]
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in expected]


# --- each row's value or error against the frozen per-row path ----------------

def row_outcomes(rows, var, cfg):
    """Each row's rescore outcome: its value's bits, or its error's type and message."""
    values, errors = rescore(rows, var, cfg)
    return [(type(errors[i]).__name__, str(errors[i])) if i in errors else [v.hex()]
            for i, v in enumerate(values.tolist())]


def frozen_row_outcomes(rows, var, cfg):
    """Each row's outcome through the frozen per-row path, one row at a time."""
    return [outcome(frozen_scoring.rescore_rows, rows[i:i + 1], var[i:i + 1], cfg) for i in range(len(rows))]


OVERFLOW = ("OverflowError", "(34, 'Numerical result out of range')")
ZERO_DIVISOR = ("ZeroDivisionError", "float division by zero")
DOMAIN = ("ValueError", "math domain error")
SCORE = ("ValueError", "detection_score must be > 0")
BEYOND = "beyond float range"  # under linear alone, the one mapping whose log(beta_s) is > 0 here
TINY, HUGE, TOP = 5e-324, 1e200, 1.7e308

# (w, l, h, score, variances, the error every config gives, None for a value): one row for each failure, in the
# order the per-row path raises them, and the traps where a row could fail two ways
TRAP_ROWS = [
    (1.6, 3.9, 1.5, 0.5, [0.1] * 7, None),
    (HUGE, 3.9, 1.5, 0.5, [0.1] * 7, OVERFLOW),  # the squared diagonal overflows
    (TOP, TOP, 1.5, 0.5, [0.1] * 7, DOMAIN),  # hypot overflows to inf, so var_x / inf is 0
    (0.0, 0.0, 1.5, 0.5, [0.1] * 7, ZERO_DIVISOR),  # the diagonal is 0
    (1.6, 3.9, 1.5, 0.5, [TINY] + [0.1] * 6, DOMAIN),  # var_x / d2 underflows to 0
    (1.6, 3.9, HUGE, 0.5, [TINY] + [0.1] * 6, DOMAIN),  # ... before h squared overflows
    (1.6, 3.9, HUGE, 0.5, [0.1] * 7, OVERFLOW),  # h squared overflows
    (1.6, 3.9, 1e-200, 0.5, [0.1] * 7, ZERO_DIVISOR),  # h squared underflows to 0
    (1.6, 3.9, 1e-200, 0.5, [0.1, -0.1] + [0.1] * 5, DOMAIN),  # var_y <= 0 before h squared is taken
    (1e-200, 3.9, 1.5, 0.5, [0.1] * 7, ZERO_DIVISOR),  # w squared underflows to 0
    (1e-200, 3.9, 1.5, 0.5, [0.1, 0.1, 0.0] + [0.1] * 4, DOMAIN),  # var_z is 0 before w squared is taken
    (1.6, 3.9, 1.5, 0.5, [0.1] * 6 + [0.0], DOMAIN),  # the yaw's variance is 0
    (1.6, 3.9, 1.5, 0.0, [0.1] * 7, SCORE),
    (1.6, 3.9, 1.5, math.nan, [0.1] * 7, SCORE),
    (1.6, 3.9, 1.5, -0.5, [0.1] * 6 + [-1.0], DOMAIN),  # a score <= 0 in a row whose encoding fails
    (1.6, 3.9, 1e-200, 0.0, [0.1] * 7, ZERO_DIVISOR),
    (1.6, 3.9, 1.5, TOP, [1e-300] * 7, BEYOND),  # log(TOP) + log(beta_s) is past log(DBL_MAX) where log(beta_s) > 0
    (1.6, 3.9, 1.5, 0.5, [math.nan] + [0.1] * 6, None),  # a NaN log-variance fails nowhere
]


def _block(trap_rows):
    rows = np.array([(0.0, 0.0, 0.0, w, l, h, 0.0, score) for w, l, h, score, *_ in trap_rows]).reshape(-1, 8)
    var = np.array([v for *_, v, _ in trap_rows]).reshape(-1, 7)
    return rows, var


ROW_VALUE = st.one_of(st.floats(0.5, 5.0), st.sampled_from([0.0, TINY, 1e-200, HUGE, TOP]))
VARIANCE = st.one_of(st.floats(1e-3, 2.0), st.sampled_from([0.0, -0.1, TINY, TOP, math.nan]))
SCORE_VALUE = st.one_of(st.floats(0.05, 1.0), st.sampled_from([0.0, -0.5, math.nan, TINY, TOP, math.inf]))
RANDOM_ROW = st.tuples(ROW_VALUE, ROW_VALUE, ROW_VALUE, SCORE_VALUE, st.lists(VARIANCE, min_size=7, max_size=7),
                       st.none())


class TestPerRowErrors:
    """rescore reports each row's value or error: the one the frozen per-row path gives that row alone."""

    @pytest.mark.parametrize("cfg", SCORE_CONFIGS + [replace(c, k_s=0.3, b_s=1000.0, alpha=0.7) for c in SCORE_CONFIGS],
                             ids=lambda c: f"{c.strategy.value}-{c.aggregate.value}-{c.b_s}")
    def test_each_failure_in_one_block(self, cfg):
        rows, var = _block(TRAP_ROWS)
        got = row_outcomes(rows, var, cfg)
        assert got == frozen_row_outcomes(rows, var, cfg)
        for (*_, error), row in zip(TRAP_ROWS, got):
            if error is BEYOND:
                assert (isinstance(row, tuple) and BEYOND in row[1]) == (cfg.strategy is ScoreStrategy.LINEAR)
            else:
                assert row == error if error else isinstance(row, list)

    @given(st.lists(st.one_of(st.sampled_from(TRAP_ROWS), RANDOM_ROW), min_size=1, max_size=8),
           st.floats(1e-4, 10.0), st.floats(-5.0, 1000.0), st.floats(0.1, 100.0))
    @settings(max_examples=300, deadline=None)
    def test_mixed_blocks(self, trap_rows, k_s, b_s, alpha):
        """Valid rows among rows that fail each way, under every strategy x aggregate config."""
        rows, var = _block(trap_rows)
        for base in SCORE_CONFIGS:
            cfg = replace(base, k_s=k_s, b_s=b_s, alpha=alpha)
            assert row_outcomes(rows, var, cfg) == frozen_row_outcomes(rows, var, cfg)


def one_outcome(fn, *args):
    """The bits of fn(*args), or the type and message of the error it raises."""
    try:
        return float(fn(*args)).hex()
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


ANY_FLOAT = st.floats()
ANY_CONFIG = st.builds(ScoreMapConfig, st.sampled_from(list(ScoreStrategy)), st.floats(1e-4, 10.0),
                       st.floats(-1000.0, 1000.0), st.sampled_from(list(AggregateMode)), st.floats(0.1, 100.0))
LOGVARS = st.builds(EncodedLogVar, *[st.one_of(ANY_FLOAT, st.sampled_from([0.0, -0.0]))] * 7)


class TestOneRowCalls:
    """The public one-row calls against their frozen twins: equal bits, or the same error."""

    @given(LOGVARS, st.sampled_from(list(AggregateMode)))
    @settings(max_examples=300, deadline=None)
    def test_aggregate_logvar(self, s, mode):
        assert one_outcome(aggregate_logvar, s, mode) == one_outcome(frozen_scoring.aggregate_logvar, s, mode)

    @given(ANY_FLOAT, ANY_CONFIG)
    @settings(max_examples=300, deadline=None)
    def test_map_uncertainty_to_logscore(self, g, cfg):
        assert (one_outcome(map_uncertainty_to_logscore, g, cfg)
                == one_outcome(frozen_scoring.map_uncertainty_to_logscore, g, cfg))

    @given(ANY_FLOAT, ANY_FLOAT, ANY_FLOAT)
    @settings(max_examples=300, deadline=None)
    def test_combined_score(self, score, log_beta_s, alpha):
        assert (one_outcome(combined_score, score, log_beta_s, alpha)
                == one_outcome(frozen_scoring.combined_score, score, log_beta_s, alpha))

    @given(ANY_FLOAT, LOGVARS, ANY_CONFIG)
    @settings(max_examples=300, deadline=None)
    def test_score_detection(self, score, s, cfg):
        assert one_outcome(score_detection, score, s, cfg) == one_outcome(frozen_scoring.score_detection, score, s, cfg)

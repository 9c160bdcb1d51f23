"""Position RMSE of the constant-vs-adaptive experiment against its dense per-frame form."""

import math
from dataclasses import astuple, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from uatrack import metrics
from uatrack.assignment import hungarian_assign
from uatrack.boxes import Box3D, TrackColumns
from uatrack.experiments import (RMSE_MATCH_GATE, SCENARIO, SIGMA_GRID, TRACKER, compare_adaptive_vs_constant,
                                 position_rmse)
from uatrack.metrics import EvalConfig, clear_mot, clear_mot_rows
from uatrack.sim import ScenarioConfig, generate_scenario


def reference_position_rmse(scenario, pred_frames, gate=RMSE_MATCH_GATE):
    """position_rmse as one dense distance matrix and one assignment per frame."""
    sq_sum = 0.0
    count = 0
    for gt_frame, pred_frame in zip(scenario.ground_truth, pred_frames):
        if not gt_frame or not pred_frame:
            continue
        g_xy = np.array([[b.x, b.y] for _, b in gt_frame])
        p_xy = np.array([[b.x, b.y] for _, b in pred_frame])
        dist = np.hypot(g_xy[:, 0:1] - p_xy[None, :, 0], g_xy[:, 1:2] - p_xy[None, :, 1])
        for gi, pi in hungarian_assign(dist, dist <= gate):
            sq_sum += float(dist[gi, pi]) ** 2
            count += 1
    return math.sqrt(sq_sum / count) if count else float("inf")


def at(x, y):
    return Box3D(x, y, 0.8, 1.8, 4.2, 1.5, 0.0)


def scenario(gt_xy):
    """What position_rmse reads of a Scenario: its ground truth, (id, box) per frame."""
    return SimpleNamespace(ground_truth=[[(k, at(x, y)) for k, (x, y) in enumerate(frame)] for frame in gt_xy])


def tracks(pred_xy):
    return [[(100 + k, at(x, y)) for k, (x, y) in enumerate(frame)] for frame in pred_xy]


def random_case(seed, n_frames=40):
    """Gt clusters with jittered, duplicated and missing tracks, some on a coarse grid.

    Every other frame snaps its positions to a 0.25 m grid, so distances
    tie within a frame; some tracks sit exactly (1.2, 1.6) from their
    gt, on the 2 m gate.  Some frames have no gt or no track.
    """
    rng = np.random.default_rng([seed, 29])
    gt_xy, pred_xy = [], []
    for f in range(n_frames):
        centers = rng.uniform(-30.0, 30.0, (3, 2))
        g = centers[rng.integers(0, 3, int(rng.integers(0, 9)))]
        g = g + rng.normal(0.0, 1.2, g.shape)
        p = [xy + rng.normal(0.0, 0.6, 2) for xy in g for _ in range(int(rng.integers(0, 3)))]
        p += [xy + (1.2, 1.6) for xy in g if rng.random() < 0.2]
        p += list(rng.uniform(-30.0, 30.0, (int(rng.integers(0, 3)), 2)))
        if f % 2:
            g, p = np.round(np.asarray(g) * 4.0) / 4.0, [np.round(xy * 4.0) / 4.0 for xy in p]
        if rng.random() < 0.1:
            p = []
        gt_xy.append([tuple(xy) for xy in np.asarray(g).tolist()])
        pred_xy.append([tuple(xy) for xy in np.asarray(p).reshape(-1, 2).tolist()])
    return gt_xy, pred_xy


# Two gts and two tracks on a line: 0.5 + 1.5 ties 1.0 + 1.0 in total
# distance, but not in squared distance, so the solver's pick shows.
TIED = ([(0.0, 0.0), (-0.5, 0.0)], [(0.5, 0.0), (1.0, 0.0)])


class TestPositionRmse:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_dense_form(self, seed):
        gt_xy, pred_xy = random_case(seed)
        gt_xy[3], pred_xy[3] = TIED
        sc, pred = scenario(gt_xy), tracks(pred_xy)
        for p in (pred, pred[:17], pred + tracks([[(0.0, 0.0)]] * 5)):
            for gate in (RMSE_MATCH_GATE, 0.5, 6.0):
                assert position_rmse(sc, p, gate) == reference_position_rmse(sc, p, gate)
        # gt lists longer and shorter than the track lists: frames past the shorter one do not count
        assert position_rmse(scenario(gt_xy[:9]), pred) == reference_position_rmse(scenario(gt_xy[:9]), pred)

    def test_inputs_exercise_the_cases(self):
        # a pair exactly on the gate, frames that are contested and frames
        # that are not, ties in a contested frame's distances, and frames
        # with no gt or no track
        on_gate = contested = lone = tied = empty = False
        for seed in range(6):
            gt_xy, pred_xy = random_case(seed)
            for g, p in zip(gt_xy, pred_xy):
                empty |= not g or not p
                if not g or not p:
                    continue
                d = np.hypot(np.subtract.outer(np.array(g)[:, 0], np.array(p)[:, 0]),
                             np.subtract.outer(np.array(g)[:, 1], np.array(p)[:, 1]))
                hit = d <= RMSE_MATCH_GATE
                on_gate |= (d == RMSE_MATCH_GATE).any()
                busy = (hit.sum(axis=0) > 1).any() or (hit.sum(axis=1) > 1).any()
                contested |= busy
                lone |= hit.any() and not busy
                tied |= busy and len(np.unique(d[hit])) < hit.sum()
        assert on_gate and contested and lone and tied and empty

    def test_solver_tie_is_the_dense_forms(self):
        sc, pred = scenario([TIED[0]]), tracks([TIED[1]])
        want = reference_position_rmse(sc, pred)
        assert position_rmse(sc, pred) == want
        assert want in (math.sqrt(2.5 / 2), 1.0)

    @pytest.mark.parametrize("gate", [0.0, -1.0, math.nan, -math.inf])
    def test_gate_not_above_0_rejected(self, gate):
        gt_xy, pred_xy = random_case(0)
        with pytest.raises(ValueError, match="gate must be > 0"):
            position_rmse(scenario(gt_xy), tracks(pred_xy), gate)

    def test_infinite_gate_pairs_every_frame_by_count(self):
        gt_xy, pred_xy = random_case(1)
        sc, pred = scenario(gt_xy), tracks(pred_xy)
        assert position_rmse(sc, pred, math.inf) == reference_position_rmse(sc, pred, math.inf) < math.inf

    def test_no_pair_is_inf(self):
        far = ([[(0.0, 0.0)], [], [(5.0, 5.0)]], [[(3.0, 0.0)], [(0.0, 0.0)], []])
        for gt_xy, pred_xy in (far, ([], []), ([[(0.0, 0.0)]], [])):
            assert position_rmse(scenario(gt_xy), tracks(pred_xy)) == math.inf
            assert reference_position_rmse(scenario(gt_xy), tracks(pred_xy)) == math.inf


def _bits(value):
    """A float's or a report's floats as float.hex, the rest as they are: equal only bit for bit."""
    values = astuple(value) if isinstance(value, metrics.TrackingReport) else (value,)
    return [float(v).hex() if isinstance(v, float) else v for v in values]


class TestGroundTruthView:
    """A scenario's ground truth is scored from its read-only block, as its frame lists are scored."""

    @given(n_targets=st.integers(1, 5), n_frames=st.integers(1, 8), fp_rate=st.sampled_from([0.0, 0.5, 1.0]),
           fn_rate=st.sampled_from([0.0, 0.3, 1.0]), seed=st.integers(0, 50), cut=st.integers(0, 9))
    @example(n_targets=3, n_frames=1, fp_rate=0.0, fn_rate=1.0, seed=0, cut=1)
    @example(n_targets=3, n_frames=1, fp_rate=1.0, fn_rate=1.0, seed=0, cut=1)
    @settings(max_examples=60, deadline=None)
    def test_scores_equal_those_of_the_frame_lists(self, n_targets, n_frames, fp_rate, fn_rate, seed, cut):
        sc = generate_scenario(ScenarioConfig(n_targets=n_targets, n_frames=n_frames, fp_rate=fp_rate,
                                              fn_rate=fn_rate, noise_base=(0.3,) * 7, seed=seed))
        view = sc.ground_truth
        lists = [list(frame) for frame in view]
        # the detections as tracks: ids repeat across frames, and some boxes miss their truth
        pred = [[(k, d.box) for k, d in enumerate(frame)] for frame in sc.detections]
        cfg = EvalConfig(iou_threshold=0.3)
        for gt, want in ((view, lists), (view[:cut], lists[:cut]), (view[cut:], lists[cut:])):
            expected = _bits(clear_mot(want, pred, cfg))
            assert _bits(clear_mot(gt, pred, cfg)) == _bits(clear_mot(gt, pred, cfg)) == expected  # kept side too
            assert (_bits(position_rmse(SimpleNamespace(ground_truth=gt), pred))
                    == _bits(position_rmse(SimpleNamespace(ground_truth=want), pred)))

    def test_the_arms_of_a_scenario_share_one_truth_table(self, monkeypatch):
        built = []
        table = metrics._table
        monkeypatch.setattr(metrics, "_table", lambda fields: built.append(len(fields)) or table(fields))
        cfg = replace(SCENARIO, n_targets=4, n_frames=30, seed=2)
        arms = compare_adaptive_vs_constant(cfg, SIGMA_GRID, TRACKER)
        assert len(arms) == 6 and len(built) == 7  # once for the truth, once per arm
        assert built[0] == cfg.n_targets * cfg.n_frames

    def test_a_writable_truth_block_is_read_afresh(self, monkeypatch):
        built = []
        table = metrics._table
        monkeypatch.setattr(metrics, "_table", lambda fields: built.append(len(fields)) or table(fields))
        sc = generate_scenario(ScenarioConfig(n_targets=3, n_frames=10, seed=4))
        gt = TrackColumns.of(list(sc.ground_truth))
        pred = TrackColumns.of([[(k, d.box) for k, d in enumerate(frame)] for frame in sc.detections])
        first = clear_mot_rows(gt, pred, EvalConfig())
        gt.rows[:, 0] += 100.0  # a writable block may change between calls
        assert clear_mot_rows(gt, pred, EvalConfig()).fn == first.gt_total > first.fn
        assert len(built) == 4

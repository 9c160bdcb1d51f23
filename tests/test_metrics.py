"""Detection PR/AP and CLEAR tracking metrics."""

import math
import sys

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from uatrack.boxes import Box3D
from uatrack.geometry import iou_3d, iou_bev
from uatrack.metrics import MOSTLY_LOST_FRACTION, EvalConfig, TrackingReport, clear_mot, detection_pr, match_frame
from uatrack.scoring import IouKind


def box(x=0.0, y=0.0, score=1.0, w=2.0, l=4.0, theta=0.0):
    return Box3D(x, y, 0.75, w, l, 1.5, theta, score=score)


CFG = EvalConfig(iou_threshold=0.5, iou_kind=IouKind.BEV, recall_points=40)


class TestMatchFrame:
    def test_identical_sets(self):
        gt = [box(0, 0), box(10, 0)]
        matches = match_frame(gt, list(gt), CFG)
        assert len(matches) == 2
        assert all(iou == pytest.approx(1.0) for _, _, iou in matches)

    def test_empty_predictions(self):
        assert match_frame([box()], [], CFG) == []

    def test_ambiguous_matches_brute_force(self):
        # two gt, two preds, each pred overlaps both; Hungarian must pick
        # the total-IoU-maximizing pairing
        gt = [box(0.0, 0.0), box(1.2, 0.0)]
        pred = [box(0.4, 0.0, score=0.9), box(0.9, 0.0, score=0.8)]
        matches = match_frame(gt, pred, EvalConfig(iou_threshold=0.1))
        from uatrack.geometry import iou_bev

        iou = [[iou_bev(g, p) for p in pred] for g in gt]
        best = max(
            (iou[0][0] + iou[1][1], ((0, 0), (1, 1))),
            (iou[0][1] + iou[1][0], ((0, 1), (1, 0))),
        )
        got_pairs = tuple(sorted((g, p) for g, p, _ in matches))
        assert got_pairs == best[1]

    def test_threshold_forbids(self):
        gt = [box(0, 0)]
        pred = [box(3.0, 0)]
        assert match_frame(gt, pred, CFG) == []


class TestDetectionPr:
    def test_perfect(self):
        frames_gt = [[box(0, 0), box(10, 0)], [box(5, 5)]]
        frames_pred = [[box(0, 0, score=0.9), box(10, 0, score=0.8)], [box(5, 5, score=0.7)]]
        ap, f1, _ = detection_pr(frames_gt, frames_pred, CFG)
        assert ap == pytest.approx(100.0)
        assert f1 == pytest.approx(100.0)

    def test_no_predictions(self):
        ap, f1, curve = detection_pr([[box()]], [[]], CFG)
        assert ap == 0.0 and f1 == 0.0 and curve == []

    def test_handcrafted_curve(self):
        # 3 gt; TPs at scores .9/.8/.6 and one FP at .7
        gt = [box(0, 0), box(10, 0), box(20, 0)]
        pred = [
            box(0, 0, score=0.9),
            box(10, 0, score=0.8),
            box(50, 0, score=0.7),  # far from every gt: FP
            box(20, 0, score=0.6),
        ]
        ap, f1, curve = detection_pr([gt], [pred], CFG)
        # interpolated precision: 1.0 up to recall 2/3, then 0.75;
        # R40 levels: 26 levels at/below 2/3 => (26*1 + 14*0.75)/40
        assert ap == pytest.approx(100.0 * 36.5 / 40.0, abs=1e-9)
        assert f1 == pytest.approx(100.0 * 6.0 / 7.0, rel=1e-12)
        recalls = [r for _, _, r in curve]
        assert recalls == sorted(recalls)

    def test_order_invariance_within_frame(self):
        gt = [box(0, 0), box(8, 0)]
        preds = [box(0, 0, score=0.6), box(8, 0, score=0.9), box(30, 0, score=0.7)]
        ap1, f11, _ = detection_pr([gt], [preds], CFG)
        ap2, f12, _ = detection_pr([gt], [list(reversed(preds))], CFG)
        assert ap1 == ap2 and f11 == f12

    def test_adding_false_positives_never_raises_ap(self):
        rng = np.random.default_rng(0)
        gt = [[box(5 * i, 0) for i in range(4)]]
        pred = [[box(5 * i, 0, score=float(s)) for i, s in enumerate(rng.uniform(0.5, 1.0, 4))]]
        base_ap, _, _ = detection_pr(gt, pred, CFG)
        worse = [pred[0] + [box(100 + 5 * i, 0, score=float(s)) for i, s in enumerate(rng.uniform(0.0, 1.0, 5))]]
        worse_ap, _, _ = detection_pr(gt, worse, CFG)
        assert worse_ap <= base_ap + 1e-12


class TestClearMot:
    def test_perfect_tracking(self):
        frames = [[(1, box(0, 0)), (2, box(10, 0))] for _ in range(10)]
        report = clear_mot(frames, frames, CFG)
        assert report.idsw == 0
        assert report.frag == 0
        assert report.ml == 0.0
        assert report.mota == pytest.approx(100.0)
        assert report.ap == pytest.approx(100.0)

    def test_identity_switch_counted(self):
        gt = [[(7, box(0, 0))] for _ in range(10)]
        pred = [[(1 if f < 5 else 2, box(0, 0))] for f in range(10)]
        report = clear_mot(gt, pred, CFG)
        assert report.idsw == 1
        assert report.frag == 0

    def test_fragmentation_counted(self):
        gt = [[(7, box(0, 0))] for _ in range(10)]
        pred = []
        for f in range(10):
            pred.append([(1, box(0, 0))] if f not in (4, 5) else [])
        report = clear_mot(gt, pred, CFG)
        assert report.frag == 1
        assert report.idsw == 0
        assert report.fn == 2

    def test_mostly_lost(self):
        gt = [[(7, box(0, 0))] for _ in range(10)]
        pred = [[(1, box(0, 0))] if f == 0 else [] for f in range(10)]
        report = clear_mot(gt, pred, CFG)
        assert report.ml == pytest.approx(100.0)

    def test_sticky_correspondence_prevents_switch(self):
        # two preds both overlap the gt; the carried-over id must win even
        # when the newcomer has slightly higher IoU
        gt = [[(7, box(0, 0))] for _ in range(4)]
        pred = [
            [(1, box(0, 0))],
            [(1, box(0.2, 0)), (2, box(0.05, 0))],
            [(1, box(0.2, 0)), (2, box(0.05, 0))],
            [(1, box(0, 0))],
        ]
        report = clear_mot(gt, pred, CFG)
        assert report.idsw == 0

    def test_sequence_additivity(self):
        rng = np.random.default_rng(3)

        def mini_seq(id_base, n):
            gt, pred = [], []
            for f in range(n):
                gtf, prf = [], []
                for k in range(2):
                    g = box(10.0 * k + 0.1 * f, 0)
                    gtf.append((id_base + k, g))
                    if rng.random() > 0.2:
                        prf.append((id_base + 10 + k, box(10.0 * k + 0.1 * f + rng.normal(0, 0.2), 0, score=0.9)))
                gt.append(gtf)
                pred.append(prf)
            return gt, pred

        gt1, pred1 = mini_seq(0, 12)
        gt2, pred2 = mini_seq(100, 12)
        a = clear_mot(gt1, pred1, CFG)
        b = clear_mot(gt2, pred2, CFG)
        both = clear_mot(gt1 + gt2, pred1 + pred2, CFG)
        assert both.idsw == a.idsw + b.idsw
        assert both.frag == a.frag + b.frag
        assert both.fn == a.fn + b.fn
        assert both.fp == a.fp + b.fp
        assert both.gt_total == a.gt_total + b.gt_total
        expected_mota = 100.0 * (1.0 - (both.fn + both.fp + both.idsw) / both.gt_total)
        assert both.mota == pytest.approx(expected_mota)


# --- reference implementations: a dense Hungarian per score threshold ------
#
# These are the straightforward versions the incremental sweep replaced:
# detection_pr re-matches a frame by Hungarian whenever its active set
# grows, and clear_mot scores every pair it looks at on its own.  The
# sparse versions must agree with them exactly, float for float.


def reference_detection_pr(gt_frames, pred_frames, cfg):
    n_frames = max(len(gt_frames), len(pred_frames))
    gt_frames = list(gt_frames) + [[] for _ in range(n_frames - len(gt_frames))]
    pred_frames = list(pred_frames) + [[] for _ in range(n_frames - len(pred_frames))]

    total_gt = sum(len(g) for g in gt_frames)
    thresholds = sorted({b.score for p in pred_frames for b in p}, reverse=True)
    if not thresholds or total_gt == 0:
        return 0.0, 0.0, []

    sorted_preds = [sorted(p, key=lambda b: -b.score) for p in pred_frames]
    frames_at = {}
    for f, preds in enumerate(sorted_preds):
        for b in preds:
            frames_at.setdefault(b.score, []).append(f)

    active = [0] * n_frames
    tp_frame = [0] * n_frames
    total_active = 0
    total_tp = 0
    curve = []
    for t in thresholds:
        for f in frames_at[t]:
            preds = sorted_preds[f]
            changed = False
            while active[f] < len(preds) and preds[active[f]].score >= t:
                active[f] += 1
                total_active += 1
                changed = True
            if changed:
                new_tp = len(match_frame(gt_frames[f], preds[: active[f]], cfg))
                total_tp += new_tp - tp_frame[f]
                tp_frame[f] = new_tp
        precision = total_tp / total_active if total_active else 0.0
        recall = total_tp / total_gt
        curve.append((t, precision, recall))

    max_f1 = 0.0
    for _, p, r in curve:
        if p + r > 0.0:
            max_f1 = max(max_f1, 2.0 * p * r / (p + r))

    ap_acc = 0.0
    for i in range(1, cfg.recall_points + 1):
        level = i / cfg.recall_points
        ap_acc += max((p for _, p, r in curve if r >= level - 1e-12), default=0.0)
    ap = ap_acc / cfg.recall_points
    return 100.0 * ap, 100.0 * max_f1, curve


def reference_iou_gated(a, b, kind):
    rr = 0.5 * (math.hypot(a.w, a.l) + math.hypot(b.w, b.l))
    if (a.x - b.x) ** 2 + (a.y - b.y) ** 2 > rr * rr:
        return 0.0
    return (iou_bev if kind is IouKind.BEV else iou_3d)(a, b)


def reference_clear_mot(gt_tracks, pred_tracks, cfg):
    n_frames = max(len(gt_tracks), len(pred_tracks))
    gt_tracks = list(gt_tracks) + [[] for _ in range(n_frames - len(gt_tracks))]
    pred_tracks = list(pred_tracks) + [[] for _ in range(n_frames - len(pred_tracks))]

    fn = fp = idsw = 0
    gt_total = 0
    last_pred_of = {}
    presence = {}
    prev = {}
    for f in range(n_frames):
        gt = gt_tracks[f]
        pred = pred_tracks[f]
        gt_total += len(gt)
        gt_by_id = {i: b for i, b in gt}
        pred_by_id = {i: b for i, b in pred}

        matches = {}
        used_pred = set()
        for g_id, p_id in prev.items():
            if g_id in gt_by_id and p_id in pred_by_id and p_id not in used_pred:
                if reference_iou_gated(gt_by_id[g_id], pred_by_id[p_id], cfg.iou_kind) >= cfg.iou_threshold:
                    matches[g_id] = p_id
                    used_pred.add(p_id)

        rem_gt = [(i, b) for i, b in gt if i not in matches]
        rem_pred = [(i, b) for i, b in pred if i not in used_pred]
        for gi, pi, _ in match_frame([b for _, b in rem_gt], [b for _, b in rem_pred], cfg):
            matches[rem_gt[gi][0]] = rem_pred[pi][0]
            used_pred.add(rem_pred[pi][0])

        fn += len(gt) - len(matches)
        fp += len(pred) - len(matches)
        for g_id, _ in gt:
            matched = g_id in matches
            presence.setdefault(g_id, []).append(matched)
            if matched:
                p_id = matches[g_id]
                if g_id in last_pred_of and last_pred_of[g_id] != p_id:
                    idsw += 1
                last_pred_of[g_id] = p_id
        prev = matches

    frag = 0
    mostly_lost = 0
    for flags in presence.values():
        if sum(flags) < MOSTLY_LOST_FRACTION * len(flags):
            mostly_lost += 1
        seen_match = False
        in_gap = False
        for flag in flags:
            if flag:
                if in_gap:
                    frag += 1
                    in_gap = False
                seen_match = True
            elif seen_match:
                in_gap = True

    ml = 100.0 * mostly_lost / len(presence) if presence else 0.0
    mota = 100.0 * (1.0 - (fn + fp + idsw) / gt_total) if gt_total else 0.0
    ap, max_f1, _ = reference_detection_pr(
        [[b for _, b in frame] for frame in gt_tracks],
        [[b for _, b in frame] for frame in pred_tracks],
        cfg,
    )
    return TrackingReport(ap=ap, max_f1=max_f1, idsw=idsw, frag=frag, ml=ml, mota=mota,
                          fn=fn, fp=fp, gt_total=gt_total)


def random_tracks(seed, n_targets=8, n_gt_frames=12, extra_pred_frames=3):
    """Clustered targets with jittered, id-swapping, duplicated predictions.

    Scores take few distinct values, so they tie within and across frames;
    some frames drop all gt or all predictions; the prediction list runs
    extra_pred_frames past the gt list.
    """
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 15.0, size=(2, 2))
    home = centers[rng.integers(0, 2, n_targets)] + rng.normal(0.0, 1.5, size=(n_targets, 2))
    dims = np.column_stack([rng.uniform(1.5, 2.2, n_targets), rng.uniform(3.5, 4.5, n_targets),
                            rng.uniform(1.3, 1.8, n_targets)])
    yaw = rng.uniform(-math.pi, math.pi, n_targets)

    def score():
        # half from a small pool, half on a 0.05 grid: ties everywhere
        if rng.random() < 0.5:
            return float(rng.choice([0.3, 0.5, 0.9]))
        return 0.05 * int(rng.integers(1, 20))

    pred_id = list(range(100, 100 + n_targets))
    next_id = 100 + n_targets
    gt_tracks, pred_tracks = [], []
    for f in range(n_gt_frames + extra_pred_frames):
        if rng.random() < 0.15:  # swap two prediction ids
            a, b = rng.choice(n_targets, 2, replace=False)
            pred_id[a], pred_id[b] = pred_id[b], pred_id[a]
        drop_gt = f >= n_gt_frames or f == 4 or rng.random() < 0.1
        drop_pred = f == 7 or rng.random() < 0.1
        gt_frame, pred_frame = [], []
        for k in range(n_targets):
            x, y = home[k] + 0.2 * f
            w, l, h = dims[k]
            if rng.random() < 0.85 and not drop_gt:
                gt_frame.append((k, Box3D(x, y, 0.8, w, l, h, yaw[k])))
            if rng.random() < 0.8 and not drop_pred:
                spread = rng.uniform(0.1, 1.0)
                dx, dy = rng.normal(0.0, 0.4 * spread, 2)
                b = Box3D(x + dx, y + dy, 0.8 + rng.normal(0.0, 0.1 * spread), w * rng.uniform(0.9, 1.1), l, h,
                          yaw[k] + rng.normal(0.0, 0.1 * spread), score=score())
                pred_frame.append((pred_id[k], b))
                if rng.random() < 0.15:  # an identical duplicate under a fresh id
                    pred_frame.append((next_id, b))
                    next_id += 1
        if not drop_pred:
            for _ in range(rng.integers(0, 3)):  # false positives inside the clusters
                x, y = centers[rng.integers(0, 2)] + rng.normal(0.0, 2.0, 2)
                pred_frame.append((next_id, Box3D(x, y, 0.8, 1.9, 4.0, 1.5, rng.uniform(-3, 3),
                                                  score=score())))
                next_id += 1
        if f < n_gt_frames:
            gt_tracks.append(gt_frame)
        pred_tracks.append(pred_frame)
    return gt_tracks, pred_tracks


ORACLE_CFGS = [EvalConfig(iou_threshold=t, iou_kind=k, recall_points=40)
               for k in (IouKind.BEV, IouKind.THREE_D) for t in (0.1, 0.5, 0.7)]


def _cfg_id(cfg):
    return f"{cfg.iou_kind.value}-{cfg.iou_threshold}"


class TestOracle:
    """The sparse, incremental evaluation equals the dense per-threshold one."""

    @pytest.mark.parametrize("cfg", ORACLE_CFGS, ids=_cfg_id)
    @pytest.mark.parametrize("seed", range(4))
    def test_detection_pr_equals_reference(self, cfg, seed):
        gt_tracks, pred_tracks = random_tracks(seed)
        gt = [[b for _, b in frame] for frame in gt_tracks]
        pred = [[b for _, b in frame] for frame in pred_tracks]
        want = reference_detection_pr(gt, pred, cfg)
        assert detection_pr(gt, pred, cfg) == want
        assert 0 < len(want[2])

    @pytest.mark.parametrize("cfg", ORACLE_CFGS, ids=_cfg_id)
    @pytest.mark.parametrize("seed", range(4))
    def test_clear_mot_equals_reference(self, cfg, seed):
        gt_tracks, pred_tracks = random_tracks(seed)
        assert clear_mot(gt_tracks, pred_tracks, cfg) == reference_clear_mot(gt_tracks, pred_tracks, cfg)

    def test_inputs_exercise_the_hard_cases(self):
        # ties within a frame, gt with several candidate predictions,
        # identity switches, empty frames and extra prediction frames
        cases = [random_tracks(seed) for seed in range(4)]
        for gt_tracks, pred_tracks in cases:
            scores = [[b.score for _, b in frame] for frame in pred_tracks]
            assert any(len(s) > len(set(s)) for s in scores)
            assert len(pred_tracks) > len(gt_tracks)
            assert any(sum(reference_iou_gated(g, b, IouKind.BEV) >= 0.1 for _, b in p) > 1
                       for gf, p in zip(gt_tracks, pred_tracks) for _, g in gf)
            assert reference_clear_mot(gt_tracks, pred_tracks, CFG).idsw > 0
        assert any(not frame for gt_tracks, _ in cases for frame in gt_tracks)
        assert any(not frame for _, pred_tracks in cases for frame in pred_tracks)

    @pytest.mark.parametrize("cfg", ORACLE_CFGS[:2], ids=_cfg_id)
    def test_repeated_ids_resolve_like_reference(self, cfg):
        # a repeated id within a frame: the last box stands for the id
        gt_tracks, pred_tracks = random_tracks(6)
        for frames in (gt_tracks, pred_tracks):
            for frame in frames[::2]:
                for i, b in frame[:2]:
                    frame.append((i, Box3D(b.x + 2.5, b.y, b.z, b.w, b.l, b.h, b.theta, score=b.score)))
        assert clear_mot(gt_tracks, pred_tracks, cfg) == reference_clear_mot(gt_tracks, pred_tracks, cfg)

    def test_more_gt_frames_than_prediction_frames(self):
        gt_tracks, pred_tracks = random_tracks(5, extra_pred_frames=0)
        pred_tracks = pred_tracks[:7]
        for cfg in (CFG, EvalConfig(iou_threshold=0.1, iou_kind=IouKind.THREE_D)):
            assert clear_mot(gt_tracks, pred_tracks, cfg) == reference_clear_mot(gt_tracks, pred_tracks, cfg)


def test_deep_augmenting_path_needs_no_recursion():
    """A staircase whose last prediction needs an augmenting path through every box.

    Prediction i overlaps gt i and gt i+1 and is activated i-th, taking
    gt i.  The last prediction overlaps only gt 0, so matching it shifts
    every earlier prediction one gt along: a path of 2n + 1 edges, far
    deeper than the interpreter's recursion limit.
    """
    n = sys.getrecursionlimit() + 500
    gt = [box(4.0 * i, 0.0) for i in range(n + 1)]
    pred = [box(4.0 * i + 2.0, 0.0, score=1.0 - i / (2 * n)) for i in range(n)]
    pred.append(box(0.0, 0.0, score=0.1))
    cfg = EvalConfig(iou_threshold=0.1)
    _, _, curve = detection_pr([gt], [pred], cfg)

    rows, cols = [], []
    for pi, p in enumerate(pred):
        for gi in range(max(0, int(p.x // 4.0) - 1), min(n + 1, int(p.x // 4.0) + 2)):
            if iou_bev(gt[gi], p) >= cfg.iou_threshold:
                rows.append(pi)
                cols.append(gi)
    graph = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(pred), len(gt)))
    want = int(np.sum(maximum_bipartite_matching(graph, perm_type="column") >= 0))
    assert want == n + 1
    assert round(curve[-1][2] * len(gt)) == want
    assert curve[-1][0] == 0.1

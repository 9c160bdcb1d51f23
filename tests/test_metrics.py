"""Detection PR/AP and CLEAR tracking metrics."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

import frozen_geometry as frozen
import frozen_metrics
from uatrack import metrics
from uatrack.boxes import Box3D, TrackColumns, box_values
from uatrack.geometry import _box_table, _pair_iou, _reach, iou_bev
from uatrack.io import MAX_FRAME_INDEX
from uatrack.metrics import (
    MOSTLY_LOST_FRACTION,
    EvalConfig,
    TrackingReport,
    clear_mot,
    clear_mot_rows,
    detection_pr,
    detection_pr_rows,
    match_frame,
)
from uatrack.scoring import IouKind


# The references' own cost for a forbidden pair.
REFERENCE_FORBIDDEN = 1e9


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
                new_tp = len(reference_match_frame(gt_frames[f], preds[: active[f]], cfg))
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
    return (frozen.iou_bev if kind is IouKind.BEV else frozen.iou_3d)(a, b)


def reference_match_frame(gt, pred, cfg):
    """match_frame on frozen per-pair IoUs and scipy's solver: the references share no IoU or assignment code."""
    iou = np.array([[reference_iou_gated(g, p, cfg.iou_kind) for p in pred] for g in gt]).reshape(len(gt), len(pred))
    if iou.size == 0 or not np.any(iou >= cfg.iou_threshold):
        return []
    rows, cols = linear_sum_assignment(np.where(iou >= cfg.iou_threshold, -iou, REFERENCE_FORBIDDEN))
    return [(gi, pi, float(iou[gi, pi])) for gi, pi in zip(rows.tolist(), cols.tolist())
            if iou[gi, pi] >= cfg.iou_threshold]


def reference_clear_mot(gt_tracks, pred_tracks, cfg, frames_out=None):
    """The per-frame CLEAR walk; frames_out, if given, gets each frame's (persisted, matches) dicts."""
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

        if frames_out is not None:
            frames_out.append((dict(matches), matches))
        rem_gt = [(i, b) for i, b in gt if i not in matches]
        rem_pred = [(i, b) for i, b in pred if i not in used_pred]
        for gi, pi, _ in reference_match_frame([b for _, b in rem_gt], [b for _, b in rem_pred], cfg):
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


def edge_pairs(gt, pred, cfg):
    """The (gt id, prediction id) pairs of one frame with reference IoU >= threshold."""
    return {(g_id, p_id) for g_id, g in gt for p_id, p in pred
            if reference_iou_gated(g, p, cfg.iou_kind) >= cfg.iou_threshold}


def walked_frame(gt, pred, cfg):
    """Whether a frame needs the per-frame walk: some box has two edges, or some id repeats."""
    hit = np.array([[reference_iou_gated(g, p, cfg.iou_kind) >= cfg.iou_threshold for _, p in pred]
                    for _, g in gt], dtype=bool).reshape(len(gt), len(pred))
    repeats = len({i for i, _ in gt}) < len(gt) or len({i for i, _ in pred}) < len(pred)
    return repeats or bool((hit.sum(axis=0) > 1).any() or (hit.sum(axis=1) > 1).any())


def lone_tracks(seed, n_targets=5, n_frames=12):
    """Targets 20 m apart, each predicted at most once per frame: no box ever has two edges.

    Prediction ids of targets 0 and 1 swap at frame 6, target 2 is missed
    in frames 3-4 (a fragmentation), target 4 is predicted only in frame
    0 (mostly lost), and some frames hold a far false positive.
    """
    rng = np.random.default_rng([seed, 23])
    gt_tracks, pred_tracks = [], []
    for f in range(n_frames):
        gt_frame, pred_frame = [], []
        for k in range(n_targets):
            x, y = 20.0 * k + 0.3 * f, 0.1 * f
            gt_frame.append((k, box(x, y)))
            if (k == 2 and f in (3, 4)) or (k == 4 and f > 0):
                continue
            dx, dy = rng.normal(0.0, 0.1, 2)
            p_id = 100 + (k ^ 1 if k < 2 and f >= 6 else k)
            pred_frame.append((p_id, box(x + dx, y + dy, score=float(rng.choice([0.4, 0.8])))))
        if f % 3 == 1:
            pred_frame.append((200 + f, box(-50.0, 5.0 * f, score=0.3)))
        order = rng.permutation(len(pred_frame))
        gt_tracks.append(gt_frame)
        pred_tracks.append([pred_frame[k] for k in order])
    return gt_tracks, pred_tracks


ORACLE_CFGS = [EvalConfig(iou_threshold=t, iou_kind=k, recall_points=40)
               for k in (IouKind.BEV, IouKind.THREE_D) for t in (0.1, 0.5, 0.7)]


def _cfg_id(cfg):
    return f"{cfg.iou_kind.value}-{cfg.iou_threshold}"


def gapped_tracks(seed):
    """random_tracks and a frame index for each list position, with runs of absent frame indices between some."""
    gt_tracks, pred_tracks = random_tracks(seed)
    rng = np.random.default_rng([seed, 19])
    steps = 1 + rng.integers(1, 3, len(pred_tracks)) * (rng.random(len(pred_tracks)) < 0.4)
    return gt_tracks, pred_tracks, (np.cumsum(steps) - 1).tolist()


def with_gaps(tracks, index):
    """Frame lists with list position f moved to index[f], the frames between empty."""
    out = [[] for _ in range(index[len(tracks) - 1] + 1 if tracks else 0)]
    for f, frame in enumerate(tracks):
        out[index[f]] = frame
    return out


def at_frames(cols, index):
    """A block with frame f renumbered index[f]."""
    return replace(cols, frame=np.asarray(index, dtype=np.int64)[cols.frame])


def take(cols, order):
    return TrackColumns(cols.frame[order], cols.track_id[order], cols.class_id[order], cols.rows[order])


def frames_permuted(cols, rng):
    """The block's frames in random order, each frame's rows together and in order."""
    frames = rng.permutation(np.unique(cols.frame))
    return take(cols, np.concatenate([np.flatnonzero(cols.frame == f) for f in frames] + [np.zeros(0, np.intp)]))


def frames_interleaved(cols, rng):
    """The block's rows of different frames interleaved at random, each frame's rows in order."""
    slots = rng.permutation(cols.frame)  # the frame each position of the new block holds
    order = np.empty(len(cols.frame), dtype=np.intp)
    order[np.argsort(slots, kind="stable")] = np.argsort(cols.frame, kind="stable")
    return take(cols, order)


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
        want = reference_clear_mot(gt_tracks, pred_tracks, cfg)
        assert clear_mot(gt_tracks, pred_tracks, cfg) == want
        assert clear_mot_rows(TrackColumns.of(gt_tracks), TrackColumns.of(pred_tracks), cfg) == want

    @pytest.mark.parametrize("cfg", ORACLE_CFGS, ids=_cfg_id)
    @pytest.mark.parametrize("seed", range(4))
    def test_row_form_with_absent_frames_equals_reference(self, cfg, seed):
        # frame indices absent from both blocks are empty frames, and the
        # report does not depend on where each frame's rows sit in the block
        gt_tracks, pred_tracks, index = gapped_tracks(seed)
        want = reference_clear_mot(with_gaps(gt_tracks, index), with_gaps(pred_tracks, index), cfg)
        gt, pred = (at_frames(TrackColumns.of(t), index) for t in (gt_tracks, pred_tracks))
        assert clear_mot_rows(gt, pred, cfg) == want
        rng = np.random.default_rng([seed, 18])
        for permute in (frames_permuted, frames_interleaved):
            assert clear_mot_rows(permute(gt, rng), permute(pred, rng), cfg) == want

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

    def test_inputs_exercise_the_absent_frames(self):
        # some frame index is absent from both blocks, and keeping the
        # sticky correspondences across it would change IDSW
        cases = [gapped_tracks(seed) for seed in range(4)]
        for gt_tracks, pred_tracks, index in cases:
            gt, pred = (at_frames(TrackColumns.of(t), index) for t in (gt_tracks, pred_tracks))
            assert set(range(index[-1])) - set(gt.frame.tolist()) - set(pred.frame.tolist())
        assert any(reference_clear_mot(gt, pred, cfg).idsw
                   != reference_clear_mot(with_gaps(gt, index), with_gaps(pred, index), cfg).idsw
                   for gt, pred, index in cases for cfg in ORACLE_CFGS)

    def test_absent_frame_ends_the_sticky_correspondence(self):
        # prediction 1 holds gt 7 through consecutive frames; across an
        # absent frame prediction 2, the closer one, takes it: an IDSW
        gt = [[(7, box(0, 0))], [(7, box(0, 0))]]
        pred = [[(1, box(0, 0))], [(1, box(0.2, 0)), (2, box(0.05, 0))]]
        assert clear_mot(gt, pred, CFG).idsw == 0
        got = clear_mot_rows(at_frames(TrackColumns.of(gt), [0, 2]), at_frames(TrackColumns.of(pred), [0, 2]), CFG)
        assert got == reference_clear_mot(with_gaps(gt, [0, 2]), with_gaps(pred, [0, 2]), CFG)
        assert got.idsw == 1

    def test_inputs_carry_correspondences_between_lone_and_walked_frames(self):
        # a frame is lone when no box has two edges and no id repeats, and
        # clear_mot_rows resolves it without the walk: the inputs carry a
        # sticky correspondence from a lone frame into a walked one, from
        # a walked frame into a lone one, and to a walked frame across an
        # absent one, where it must not persist
        into_walked = into_lone = across_gap = False
        for seed in range(4):
            gt_tracks, pred_tracks, index = gapped_tracks(seed)
            for gt, pred in ((gt_tracks, pred_tracks), (with_gaps(gt_tracks, index), with_gaps(pred_tracks, index))):
                log = []
                reference_clear_mot(gt, pred, CFG, log)
                walked = [walked_frame(g, p, CFG) for g, p in zip(gt, pred + [[]] * (len(gt) - len(pred)))]
                walked += [walked_frame([], p, CFG) for p in pred[len(gt):]]
                present = [f for f in range(len(log)) if f < len(gt) and gt[f] or f < len(pred) and pred[f]]
                for f in range(1, len(log)):
                    persisted, matches = log[f]
                    prev_matches = log[f - 1][1]
                    into_walked |= walked[f] and not walked[f - 1] and bool(persisted)
                    into_lone |= walked[f - 1] and not walked[f] and bool(prev_matches.items() & matches.items())
                for a, b in zip(present, present[1:]):
                    if b > a + 1 and walked[b]:
                        across_gap |= bool(log[a][1].items() & edge_pairs(gt[b], pred[b], CFG))
        assert into_walked and into_lone and across_gap

    def test_lone_frames_reach_no_solver(self, monkeypatch):
        # well-separated targets, one prediction each: every frame is
        # lone, yet ids swap, tracks fragment, one is mostly lost and far
        # false positives come and go, with an absent frame between
        calls = []
        inner = metrics._match_from_matrix
        monkeypatch.setattr(metrics, "_match_from_matrix", lambda *a: calls.append(a) or inner(*a))
        gt, pred = lone_tracks(0)
        index = [0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12]
        for g, p in ((gt, pred), (with_gaps(gt, index), with_gaps(pred, index))):
            assert not any(walked_frame(gf, pf, CFG) for gf, pf in zip(g, p))
            want = reference_clear_mot(g, p, CFG)
            assert want.idsw and want.frag and want.ml and want.fp
            assert clear_mot(g, p, CFG) == want
        assert calls == []
        gt_tracks, pred_tracks = random_tracks(0)
        assert clear_mot(gt_tracks, pred_tracks, CFG) == reference_clear_mot(gt_tracks, pred_tracks, CFG)
        assert calls  # random_tracks has walked frames, and the counter sees them

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


# --- the row-block core against the list form and the per-box object path ---


def frame_ious(gt_frames, pred_frames, kind):
    """Each frame's dense gt x pred IoU matrix, the kernel run on every pair in reach of the frame's cross product.

    The shorter frame list is padded with empty frames.
    """
    n_frames = max(len(gt_frames), len(pred_frames))
    out = []
    for f in range(n_frames):
        gt, pred = (frames[f] if f < len(frames) else [] for frames in (gt_frames, pred_frames))
        a, b = _box_table(gt), _box_table(pred)
        ia, ib = (k.ravel() for k in np.indices((len(gt), len(pred))))
        near = _reach(a.x[ia], a.y[ia], a.radius[ia], b.x[ib], b.y[ib], b.radius[ib])
        iou = np.zeros((len(gt), len(pred)))
        iou[ia[near], ib[near]] = _pair_iou(a, ia[near], b, ib[near], kind is IouKind.THREE_D)
        out.append(iou)
    return out


def object_path_detection_pr(gt_frames, pred_frames, cfg):
    """detection_pr as Box3D lists were scored before the row-block core and the edge-array sweep.

    Per-frame IoU matrices and sorted boxes, then the frozen incremental
    sweep: one augmenting-path search per prediction.
    """
    ious = frame_ious(gt_frames, pred_frames, cfg.iou_kind)
    pred_frames = list(pred_frames) + [[]] * (len(ious) - len(pred_frames))
    frames = [frozen_metrics._sweep_frame(iou, pred, cfg.iou_threshold) for iou, pred in zip(ious, pred_frames)]
    return frozen_metrics._pr_sweep(frames, cfg.recall_points)


def row_block(frames, index, rng):
    """Frame lists as (frame indices, rows), list position f at frame index[f].

    Rows of different frames are interleaved at random; each frame's
    rows keep their list order.
    """
    pending = [list(frame) for frame in frames]
    labels = [f for f, frame in enumerate(frames) for _ in frame]
    rng.shuffle(labels)
    boxes = [(f, pending[f].pop(0)) for f in labels]
    rows = np.array([(*box_values(b), b.score) for _, b in boxes], dtype=float).reshape(len(boxes), 8)
    return np.array([index[f] for f, _ in boxes], dtype=np.int64), rows


def truth_block(block):
    """A (frame indices, rows) block as the TrackColumns that detection_pr_rows takes for the ground truth."""
    frame, rows = block
    ids = np.arange(len(frame)).astype(object)
    return TrackColumns(frame, ids, np.full(len(frame), "Car", dtype=object), rows)


def sparse_case(seed):
    """random_tracks' boxes, an empty frame on both sides inserted, at increasing frame indices up to MAX_FRAME_INDEX."""
    gt_tracks, pred_tracks = random_tracks(seed)
    gt = [[b for _, b in frame] for frame in gt_tracks]
    pred = [[b for _, b in frame] for frame in pred_tracks]
    gt.insert(2, [])
    pred.insert(2, [])
    rng = np.random.default_rng([seed, 14])
    index = sorted(rng.choice(MAX_FRAME_INDEX, len(pred) - 1, replace=False).tolist()) + [MAX_FRAME_INDEX]
    return gt, pred, index, rng


class TestRowBlockOracle:
    """detection_pr_rows returns what the list form and the object path return, bit for bit."""

    @pytest.mark.parametrize("cfg", ORACLE_CFGS, ids=_cfg_id)
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_list_form_and_the_object_path(self, cfg, seed):
        gt, pred, index, rng = sparse_case(seed)
        want = object_path_detection_pr(gt, pred, cfg)
        assert 0 < len(want[2])
        assert repr(detection_pr(gt, pred, cfg)) == repr(want)
        # frames absent from both blocks score nothing, so sparse indices score as the dense list
        got = detection_pr_rows(truth_block(row_block(gt, index, rng)), row_block(pred, index, rng), cfg)
        assert repr(got) == repr(want)

    def test_inputs_exercise_the_edge_frames(self):
        for seed in range(4):
            gt, pred, index, _ = sparse_case(seed)
            gt = gt + [[] for _ in range(len(pred) - len(gt))]
            assert any(g and not p for g, p in zip(gt, pred))  # gt-only frames
            assert any(p and not g for g, p in zip(gt, pred))  # prediction-only frames
            assert any(not g and not p for g, p in zip(gt, pred))  # empty on both sides
            scores = [[b.score for b in frame] for frame in pred]
            assert any(len(s) > len(set(s)) for s in scores)  # ties within a frame
            assert any(set(a) & set(b) for a, b in zip(scores, scores[1:]))  # ties across frames
            assert index[-1] == MAX_FRAME_INDEX

    @pytest.mark.parametrize("cfg", ORACLE_CFGS[:1] + ORACLE_CFGS[3:4], ids=_cfg_id)
    def test_one_side_empty(self, cfg):
        gt, pred, index, rng = sparse_case(1)
        empty = (np.zeros(0, dtype=np.int64), np.zeros((0, 8)))
        for g, p in ((empty, row_block(pred, index, rng)), (row_block(gt, index, rng), empty), (empty, empty)):
            assert detection_pr_rows(truth_block(g), p, cfg) == (0.0, 0.0, [])
        assert detection_pr([], [], cfg) == detection_pr(gt, [], cfg) == (0.0, 0.0, [])


# --- the edge-array sweep against the frozen incremental one ---------------


def contested_tracks(seed, n_frames=6):
    """Frames where predictions contend: 2-3 near-duplicates per gt and crossing gt pairs.

    Each frame holds two crossing pairs: gt A and gt B 1 m apart along
    their heading, a high-scored prediction between them (it overlaps
    both, and takes A first) and a lower one behind A (at IoU threshold
    0.5 it overlaps A only), so the second one matches only by an
    augmenting path of three edges that moves the first to B.  Around them: gts with 2-3
    jittered near-duplicates, gts with one prediction of their own,
    unmatched gts and far false positives.  Scores tie within and
    across frames.
    """
    rng = np.random.default_rng([seed, 17])
    gt_tracks, pred_tracks = [], []
    next_id = 1000

    def pred(x, y, score, spread=0.05):
        nonlocal next_id
        next_id += 1
        dx, dy = rng.normal(0.0, spread, 2)
        return next_id, box(x + dx, y + dy, score=score)

    for f in range(n_frames):
        gt_frame, pred_frame = [], []
        for k, x in enumerate((0.0, 20.0)):  # crossing pairs
            gt_frame += [(10 * k, box(x, 0.0)), (10 * k + 1, box(x + 1.0, 0.0))]
            pred_frame += [pred(x + 0.5, 0.0, 0.9), pred(x - 0.5, 0.0, 0.8)]
        for k in range(4):  # near-duplicates
            x, y = 40.0 + 10.0 * k, 10.0 * rng.uniform()
            gt_frame.append((20 + k, box(x, y)))
            pred_frame += [pred(x, y, float(rng.choice([0.3, 0.6, 0.9])), 0.3) for _ in range(rng.integers(2, 4))]
        for k in range(2):  # one prediction each, then an unmatched gt
            gt_frame.append((30 + k, box(80.0 + 10.0 * k, 0.0)))
            pred_frame.append(pred(80.0 + 10.0 * k, 0.0, 0.6))
        gt_frame.append((40, box(100.0, 0.0)))
        pred_frame += [pred(x, -30.0, float(rng.choice([0.3, 0.6]))) for x in rng.uniform(0.0, 100.0, 2)]
        order = rng.permutation(len(pred_frame))
        gt_tracks.append(gt_frame)
        pred_tracks.append([pred_frame[k] for k in order])
    return gt_tracks, pred_tracks


def boxes_of(tracks):
    return [[b for _, b in frame] for frame in tracks]


SWEEP_CASES = [("random", seed) for seed in range(4)] + [("contested", seed) for seed in range(3)]


def sweep_case(kind, seed):
    return (random_tracks if kind == "random" else contested_tracks)(seed)


class TestFrozenSweep:
    """The edge-array sweep returns what the frozen per-prediction sweep returns, repr for repr."""

    @pytest.mark.parametrize("cfg", ORACLE_CFGS, ids=_cfg_id)
    @pytest.mark.parametrize("kind, seed", SWEEP_CASES, ids=[f"{k}-{s}" for k, s in SWEEP_CASES])
    def test_detection_pr_and_clear_mot(self, cfg, kind, seed):
        gt_tracks, pred_tracks = sweep_case(kind, seed)
        want = object_path_detection_pr(boxes_of(gt_tracks), boxes_of(pred_tracks), cfg)
        assert repr(detection_pr(boxes_of(gt_tracks), boxes_of(pred_tracks), cfg)) == repr(want)
        report = clear_mot(gt_tracks, pred_tracks, cfg)
        assert repr((report.ap, report.max_f1)) == repr(want[:2])

    def test_inputs_exercise_the_contested_branch(self):
        # one sweep meets a prediction with no edge, one with an isolated
        # edge, and one in a contested component; some activation there
        # needs an augmenting path of three or more edges
        gt, pred = (boxes_of(t) for t in contested_tracks(0))
        no_edge = lone = contested = False
        long_paths = 0
        for iou, frame in zip(frame_ious(gt, pred, CFG.iou_kind), pred):
            hit = iou >= CFG.iou_threshold
            deg_g, deg_p = hit.sum(axis=1), hit.sum(axis=0)
            lone_p = (hit & (deg_g[:, None] == 1) & (deg_p == 1)).any(axis=0)
            no_edge |= (deg_p == 0).any()
            lone |= lone_p.any()
            contested |= ((deg_p > 0) & ~lone_p).any()
            _, adj, n_gt = frozen_metrics._sweep_frame(iou, frame, CFG.iou_threshold)
            owner = [-1] * n_gt
            for root, rows in enumerate(adj):
                all_taken = bool(rows) and all(owner[g] >= 0 for g in rows)
                long_paths += frozen_metrics._augment(adj, owner, root) and all_taken
        assert no_edge and lone and contested
        assert long_paths > 0

    @pytest.mark.parametrize("first", [0.0, -0.0], ids=repr)
    def test_signed_zero_threshold_is_the_first_seen(self, first):
        # 0.0 and -0.0 tie: the run's threshold is the one first in
        # (frame, rank) order, as the frozen sweep's set keeps it
        second = -first
        gt = [[box(0.0, 0.0)], [box(0.0, 0.0)]]
        pred = [[box(0.0, 0.0, score=first), box(30.0, 0.0, score=0.5)], [box(0.0, 0.0, score=second)]]
        want = object_path_detection_pr(gt, pred, CFG)
        got = detection_pr(gt, pred, CFG)
        assert repr(got) == repr(want)
        assert repr(got[2][-1]) == repr((first, 2 / 3, 1.0))
        # rows given in the other input order: the frame, not the input row, decides
        rows = row_block(gt, [0, 1], np.random.default_rng(0))
        p_frame, p_rows = row_block(pred, [0, 1], np.random.default_rng(0))
        flip = np.argsort(-p_frame, kind="stable")
        assert repr(detection_pr_rows(truth_block(rows), (p_frame[flip], p_rows[flip]), CFG)) == repr(want)

    def test_false_positives_only(self):
        # precision and recall are 0 at every threshold: F1 is masked, not 0 / 0
        gt = [[box(0.0, 0.0)]]
        pred = [[box(30.0, 0.0, score=0.9), box(60.0, 0.0, score=0.4)]]
        want = object_path_detection_pr(gt, pred, CFG)
        assert repr(detection_pr(gt, pred, CFG)) == repr(want)
        assert want == (0.0, 0.0, [(0.9, 0.0, 0.0), (0.4, 0.0, 0.0)])

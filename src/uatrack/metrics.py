"""Detection and tracking evaluation.

Detection quality is scored by a threshold sweep over prediction scores
with a maximum per-frame matching at every threshold, grown by augmenting
paths as predictions become active (AP over interpolated precision at
fixed recall levels, plus the best F1 along the sweep).
Tracking quality follows the CLEAR protocol: sticky correspondences,
identity switches, fragmentations, mostly-lost ratio and MOTA.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .assignment import FORBIDDEN_COST, hungarian_assign
from .boxes import Box3D
from .geometry import iou_3d, iou_bev
from .scoring import IouKind

# A ground-truth track matched in less than this fraction of its frames
# counts as mostly lost.
MOSTLY_LOST_FRACTION = 0.2


@dataclass(frozen=True)
class EvalConfig:
    iou_threshold: float = 0.5
    iou_kind: IouKind = IouKind.BEV
    recall_points: int = 40

    def __post_init__(self):
        if not 0.0 < self.iou_threshold < 1.0:
            raise ValueError("iou_threshold must be in (0, 1)")
        if self.recall_points < 1:
            raise ValueError("recall_points must be >= 1")


@dataclass
class TrackingReport:
    ap: float
    max_f1: float
    idsw: int
    frag: int
    ml: float
    mota: float
    fn: int = 0
    fp: int = 0
    gt_total: int = 0

    def lines(self) -> list[str]:
        return [
            f"AP:     {self.ap:.2f} %",
            f"Max F1: {self.max_f1:.2f} %",
            f"IDSW:   {self.idsw}",
            f"FRAG:   {self.frag}",
            f"ML:     {self.ml:.2f} %",
            f"MOTA:   {self.mota:.2f} %",
        ]


def _iou_fn(kind: IouKind):
    return iou_bev if kind is IouKind.BEV else iou_3d


def _gated_iou_matrix(gt: list[Box3D], pred: list[Box3D], kind: IouKind) -> np.ndarray:
    """Pairwise IoU with a vectorized center-distance reject."""
    iou = np.zeros((len(gt), len(pred)))
    if not gt or not pred:
        return iou
    g_xy = np.array([[b.x, b.y] for b in gt])
    p_xy = np.array([[b.x, b.y] for b in pred])
    g_r = np.array([0.5 * math.hypot(b.w, b.l) for b in gt])
    p_r = np.array([0.5 * math.hypot(b.w, b.l) for b in pred])
    d2 = (g_xy[:, 0:1] - p_xy[None, :, 0]) ** 2 + (g_xy[:, 1:2] - p_xy[None, :, 1]) ** 2
    near = d2 <= (g_r[:, None] + p_r[None, :]) ** 2
    fn = _iou_fn(kind)
    for gi, pi in zip(*np.nonzero(near)):
        iou[gi, pi] = fn(gt[gi], pred[pi])
    return iou


def _match_from_matrix(iou: np.ndarray, threshold: float) -> list[tuple[int, int, float]]:
    if iou.size == 0 or not np.any(iou >= threshold):
        return []
    cost = np.where(iou >= threshold, -iou, FORBIDDEN_COST)
    out = []
    for gi, pi in hungarian_assign(cost):
        if iou[gi, pi] >= threshold:
            out.append((gi, pi, float(iou[gi, pi])))
    return out


def match_frame(gt: list[Box3D], pred: list[Box3D], cfg: EvalConfig) -> list[tuple[int, int, float]]:
    """One-to-one matching maximizing count, then total IoU.

    Pairs below the IoU threshold are forbidden.  Returns (gt index,
    pred index, iou) triples.
    """
    return _match_from_matrix(_gated_iou_matrix(gt, pred, cfg.iou_kind), cfg.iou_threshold)


def _sweep_frame(iou: np.ndarray, pred: list[Box3D], threshold: float) -> tuple[list[float], list[list[int]], int]:
    """A frame as _pr_sweep takes it, from its gt x pred IoU matrix.

    Returns the prediction scores in descending order (ties keep their
    input order), each one's gt rows with IoU >= threshold, and the gt
    count.
    """
    order = sorted(range(len(pred)), key=lambda k: -pred[k].score)
    rows_of: list[list[int]] = [[] for _ in pred]
    for gi, pi in zip(*(a.tolist() for a in np.nonzero(iou >= threshold))):
        rows_of[pi].append(gi)
    return [pred[k].score for k in order], [rows_of[k] for k in order], iou.shape[0]


def _augment(adj: list[list[int]], owner: list[int], root: int) -> bool:
    """Grow a frame's matching by an augmenting path from the free prediction root.

    owner[g] is the prediction matched to gt row g, or -1.  Depth-first
    search with an explicit stack (paths can be as long as the frame);
    on success the path's edges are flipped in owner.
    """
    seen = bytearray(len(owner))
    preds = [root]  # the path's predictions, root first
    pos = [0]  # next neighbor to try, per prediction on the path
    via: list[int] = []  # via[k] is the gt row between preds[k] and preds[k + 1]
    while preds:
        nbrs = adj[preds[-1]]
        i = pos[-1]
        while i < len(nbrs) and seen[nbrs[i]]:
            i += 1
        if i == len(nbrs):
            preds.pop()
            pos.pop()
            if via:
                via.pop()
            continue
        g = nbrs[i]
        pos[-1] = i + 1
        seen[g] = 1
        via.append(g)
        if owner[g] < 0:
            for p, row in zip(preds, via):
                owner[row] = p
            return True
        preds.append(owner[g])
        pos.append(0)
    return False


def _pr_sweep(
    frames: list[tuple[list[float], list[list[int]], int]],
    recall_points: int,
) -> tuple[float, float, list[tuple[float, float, float]]]:
    """AP, max F1 and curve from each frame's (scores, adjacency, gt count).

    A frame's scores run in descending order and adjacency[k] lists the
    gt rows its k-th prediction may match (see _sweep_frame).  The true
    positives at a threshold are the frames' maximum-cardinality
    matchings over the active predictions.  Activating one prediction
    grows a maximum matching by at most one, exactly when an augmenting
    path starts at it, so one search per prediction keeps every frame's
    count current.
    """
    total_gt = sum(n for _, _, n in frames)
    thresholds = sorted({s for scores, _, _ in frames for s in scores}, reverse=True)
    if not thresholds or total_gt == 0:
        return 0.0, 0.0, []

    frames_at: dict[float, list[int]] = {}
    for f, (scores, _, _) in enumerate(frames):
        for s in scores:
            frames_at.setdefault(s, []).append(f)

    active = [0] * len(frames)  # how many of the frame's sorted preds are in play
    owners = [[-1] * n for _, _, n in frames]
    total_active = 0
    total_tp = 0
    curve = []
    for t in thresholds:
        for f in frames_at[t]:
            scores, adj, _ = frames[f]
            while active[f] < len(scores) and scores[active[f]] >= t:
                if _augment(adj, owners[f], active[f]):
                    total_tp += 1
                active[f] += 1
                total_active += 1
        precision = total_tp / total_active if total_active else 0.0
        recall = total_tp / total_gt
        curve.append((t, precision, recall))

    max_f1 = 0.0
    for _, p, r in curve:
        if p + r > 0.0:
            max_f1 = max(max_f1, 2.0 * p * r / (p + r))

    # recall never falls along the sweep, so the points at or above a
    # recall level are a suffix of the curve: interpolated precision is
    # a suffix maximum
    recalls = [r for _, _, r in curve]
    best_from = [0.0] * (len(curve) + 1)
    for k in range(len(curve) - 1, -1, -1):
        best_from[k] = max(best_from[k + 1], curve[k][1])
    ap_acc = 0.0
    for i in range(1, recall_points + 1):
        level = i / recall_points
        ap_acc += best_from[bisect_left(recalls, level - 1e-12)]
    ap = ap_acc / recall_points
    return 100.0 * ap, 100.0 * max_f1, curve


def detection_pr(
    gt_frames: list[list[Box3D]],
    pred_frames: list[list[Box3D]],
    cfg: EvalConfig,
) -> tuple[float, float, list[tuple[float, float, float]]]:
    """AP (percent), max F1 (percent) and the swept (threshold, P, R) curve.

    Thresholds run over every distinct prediction score, descending.  At
    each one the true positives are each frame's largest one-to-one
    matching of the predictions scored at or above it to ground truth
    with IoU >= cfg.iou_threshold, kept current by one augmenting-path
    search per newly active prediction.  AP is the mean interpolated
    precision at recall levels i/recall_points, i = 1..recall_points.
    """
    n_frames = max(len(gt_frames), len(pred_frames))
    gt_frames = list(gt_frames) + [[] for _ in range(n_frames - len(gt_frames))]
    pred_frames = list(pred_frames) + [[] for _ in range(n_frames - len(pred_frames))]

    frames = [
        _sweep_frame(_gated_iou_matrix(gt, pred, cfg.iou_kind), pred, cfg.iou_threshold)
        for gt, pred in zip(gt_frames, pred_frames)
    ]
    return _pr_sweep(frames, cfg.recall_points)


def clear_mot(
    gt_tracks: list[list[tuple[int, Box3D]]],
    pred_tracks: list[list[tuple[int, Box3D]]],
    cfg: EvalConfig,
) -> TrackingReport:
    """CLEAR-style evaluation of identified tracks.

    Correspondences persist across frames while their IoU stays above
    threshold; the remainder is matched by Hungarian on IoU.  An identity
    switch is counted when a ground-truth track's matched prediction id
    differs from the one at its previous matched frame.  Each frame's
    IoU matrix is computed once; it serves both matchings and gives the
    frame's match graph to the AP sweep, which scores the boxes as
    detection_pr would.
    """
    n_frames = max(len(gt_tracks), len(pred_tracks))
    gt_tracks = list(gt_tracks) + [[] for _ in range(n_frames - len(gt_tracks))]
    pred_tracks = list(pred_tracks) + [[] for _ in range(n_frames - len(pred_tracks))]
    thr = cfg.iou_threshold

    fn = fp = idsw = 0
    gt_total = 0
    last_pred_of: dict[int, int] = {}
    presence: dict[int, list[bool]] = {}  # gt id -> matched flag per present frame
    prev: dict[int, int] = {}
    sweep_frames = []

    for f in range(n_frames):
        gt = gt_tracks[f]
        pred = pred_tracks[f]
        gt_total += len(gt)
        pred_boxes = [b for _, b in pred]
        iou = _gated_iou_matrix([b for _, b in gt], pred_boxes, cfg.iou_kind)
        # row/column of each id; a repeated id resolves to its last box
        gt_row = {i: k for k, (i, _) in enumerate(gt)}
        pred_col = {i: k for k, (i, _) in enumerate(pred)}

        matches: dict[int, int] = {}
        used_pred: set[int] = set()
        for g_id, p_id in prev.items():
            if g_id in gt_row and p_id in pred_col and p_id not in used_pred:
                if iou[gt_row[g_id], pred_col[p_id]] >= thr:
                    matches[g_id] = p_id
                    used_pred.add(p_id)

        rem_g = [k for k, (i, _) in enumerate(gt) if i not in matches]
        rem_p = [k for k, (i, _) in enumerate(pred) if i not in used_pred]
        for gi, pi, _ in _match_from_matrix(iou[np.ix_(rem_g, rem_p)], thr):
            g_id = gt[rem_g[gi]][0]
            p_id = pred[rem_p[pi]][0]
            matches[g_id] = p_id
            used_pred.add(p_id)

        sweep_frames.append(_sweep_frame(iou, pred_boxes, thr))

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
        matched_frames = sum(flags)
        if matched_frames < MOSTLY_LOST_FRACTION * len(flags):
            mostly_lost += 1
        # interruptions: matched -> unmatched transitions that resume later
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

    n_gt_tracks = len(presence)
    ml = 100.0 * mostly_lost / n_gt_tracks if n_gt_tracks else 0.0
    mota = 100.0 * (1.0 - (fn + fp + idsw) / gt_total) if gt_total else 0.0
    ap, max_f1, _ = _pr_sweep(sweep_frames, cfg.recall_points)
    return TrackingReport(
        ap=ap,
        max_f1=max_f1,
        idsw=idsw,
        frag=frag,
        ml=ml,
        mota=mota,
        fn=fn,
        fp=fp,
        gt_total=gt_total,
    )

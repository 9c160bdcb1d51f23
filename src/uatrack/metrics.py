"""Detection and tracking evaluation.

Detection quality is scored by a threshold sweep over prediction scores
(AP over interpolated precision at fixed recall levels, plus the best
F1 along the sweep).  The sweep reads one array of match edges, the
(gt, prediction) pairs with IoU at or above threshold: each
prediction's gain in maximum matching comes from its edge counts, or
from an augmenting-path search where a gt or prediction has two edges,
and the curve is one cumulative sum over descending scores.
Tracking quality follows the CLEAR protocol: sticky correspondences,
identity switches, fragmentations, mostly-lost ratio and MOTA.
Both compute on row blocks, frame indices and (n, 8) rows as the io
readers return them (TrackColumns for tracks), with no per-row box
object, and walk only the frames present.  One edge builder serves
both: it scores a whole sequence's pairs with one call of the geometry
kernel.  CLEAR-MOT matches each frame on the frame's edges, and its AP
sweep reads the same edges.  The list forms (clear_mot, detection_pr,
match_frame) convert to row blocks through TrackColumns.of.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .assignment import hungarian_assign
from .boxes import Box3D, TrackColumns
# iou_bev and iou_3d stay bound here: the benchmark's tracer wraps them by name.
from .geometry import _grouped_pairs_in_reach, _pair_iou, _table, iou_3d, iou_bev  # noqa: F401
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
            f"FN:     {self.fn}",
            f"FP:     {self.fp}",
            f"GT:     {self.gt_total}",
        ]


class _Edges(NamedTuple):
    """Two row blocks' frames and match edges, the pairs of one frame with IoU at or above threshold."""

    frames: np.ndarray  # the frame indices present in either block, ascending
    g_order: np.ndarray  # the gt rows in frame order, input order within a frame
    g_group: np.ndarray  # each of them, its frame's position in frames
    p_order: np.ndarray  # the same for the predictions
    p_group: np.ndarray
    ig: np.ndarray  # edge k joins gt g_order[ig[k]] and prediction p_order[ip[k]]; ig ascends
    ip: np.ndarray
    iou: np.ndarray  # each edge's IoU


def _edges(gt: tuple[np.ndarray, np.ndarray], pred: tuple[np.ndarray, np.ndarray], cfg: EvalConfig) -> _Edges:
    """The match edges of two row blocks, (frame indices, rows) each.

    Only the frames present are grouped, so memory does not grow with
    the largest frame index.  Every frame's pairs come from one
    sort-and-sweep with the frames as groups, and the kernel scores them
    all in one call.
    """
    (g_frame, g_rows), (p_frame, p_rows) = gt, pred
    frames, group = np.unique(np.concatenate([g_frame, p_frame]), return_inverse=True)
    g_group, p_group = group[: len(g_frame)], group[len(g_frame):]
    g_order, p_order = g_group.argsort(kind="stable"), p_group.argsort(kind="stable")
    g_group, p_group = g_group[g_order], p_group[p_order]
    g_table, p_table = _table(g_rows[g_order, :7]), _table(p_rows[p_order, :7])
    ig, ip = _grouped_pairs_in_reach(g_table, g_group, p_table, p_group)
    iou = _pair_iou(g_table, ig, p_table, ip, cfg.iou_kind is IouKind.THREE_D)
    hit = iou >= cfg.iou_threshold  # below threshold a pair takes part in no matching
    return _Edges(frames, g_order, g_group, p_order, p_group, ig[hit], ip[hit], iou[hit])


def _boxes_block(frames: list[list[Box3D]]) -> tuple[np.ndarray, np.ndarray]:
    """Box frame lists as (frame indices, rows): list position f is frame f."""
    t = TrackColumns.of([list(enumerate(frame)) for frame in frames])
    return t.frame, t.rows


def _match_from_matrix(iou: np.ndarray, threshold: float) -> list[tuple[int, int, float]]:
    return [(gi, pi, float(iou[gi, pi])) for gi, pi in hungarian_assign(-iou, iou >= threshold)]


def match_frame(gt: list[Box3D], pred: list[Box3D], cfg: EvalConfig) -> list[tuple[int, int, float]]:
    """One-to-one matching maximizing count, then total IoU.

    Pairs below the IoU threshold are forbidden.  Returns (gt index,
    pred index, iou) triples.
    """
    e = _edges(_boxes_block([gt]), _boxes_block([pred]), cfg)  # one frame: the orders are the input's
    iou = np.zeros((len(gt), len(pred)))
    iou[e.ig, e.ip] = e.iou
    return _match_from_matrix(iou, cfg.iou_threshold)


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


def _gains(scores: np.ndarray, ig: np.ndarray, ip: np.ndarray, n_gt: int) -> np.ndarray:
    """How much activating each prediction grows a maximum matching, in descending-score order.

    A prediction with no edge gains 0, and one whose only edge is also
    its gt's only edge gains 1.  The rest lie in components where some
    box has two edges: they are activated in descending score (ties in
    input order) and each gains 1 exactly when an augmenting path starts
    at it.  No component spans two frames, so this one pass runs every
    frame's predictions in that frame's order.
    """
    gain = np.zeros(len(scores), dtype=np.intp)
    lone = (np.bincount(ip, minlength=len(scores))[ip] == 1) & (np.bincount(ig, minlength=n_gt)[ig] == 1)
    gain[ip[lone]] = 1
    order = np.lexsort((ig[~lone], ip[~lone]))  # by prediction, then gt
    cp, cg = ip[~lone][order], ig[~lone][order]
    preds, start = np.unique(cp, return_index=True)
    rows = np.unique(cg, return_inverse=True)[1].tolist()  # each gt numbered among the contested ones
    bounds = [*start.tolist(), len(rows)]
    adj = [rows[a:b] for a, b in zip(bounds, bounds[1:])]
    owner = [-1] * len(rows)
    for k in np.argsort(-scores[preds], kind="stable").tolist():
        gain[preds[k]] = _augment(adj, owner, k)
    return gain


def _pr_sweep(
    scores: np.ndarray, ig: np.ndarray, ip: np.ndarray, n_gt: int, recall_points: int,
) -> tuple[float, float, list[tuple[float, float, float]]]:
    """AP, max F1 and curve of scored predictions and their match edges.

    scores run in frame order, input order within a frame.  Edge k lets
    gt ig[k] match prediction ip[k]; an index names one box of the whole
    sequence, and no edge joins two frames; n_gt counts every frame's gt.
    The true positives at a threshold are the size of a maximum matching
    of the predictions scored at or above it.  That size does not depend
    on the order the predictions were activated in, so each one's gain
    (see _gains) is found once and the curve is a cumulative sum.  A
    run of tied scores is one threshold, the run's first score in frame
    order: 0.0 and -0.0 tie.
    """
    if not len(scores) or n_gt == 0:
        return 0.0, 0.0, []
    rank = np.argsort(-scores, kind="stable")
    ranked = scores[rank]
    last = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))  # each tied run's last rank
    thresholds = ranked[np.append(0, last[:-1] + 1)]
    tp = _gains(scores, ig, ip, n_gt)[rank].cumsum()[last]
    precision = tp / (last + 1)
    recall = tp / n_gt
    both = precision + recall
    f1 = np.divide(2.0 * precision * recall, both, out=np.zeros_like(both), where=both > 0.0)

    # recall never falls along the sweep, so the points at or above a
    # recall level are a suffix of the curve: interpolated precision is
    # a suffix maximum
    best_from = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0).tolist()
    levels = np.arange(1, recall_points + 1) / recall_points
    ap_acc = 0.0
    for k in recall.searchsorted(levels - 1e-12).tolist():
        ap_acc += best_from[k]  # summed in order: numpy's pairwise sum rounds differently
    ap = ap_acc / recall_points
    curve = list(zip(thresholds.tolist(), precision.tolist(), recall.tolist()))
    return 100.0 * ap, 100.0 * float(f1.max()), curve


def detection_pr_rows(
    gt: tuple[np.ndarray, np.ndarray],
    pred: tuple[np.ndarray, np.ndarray],
    cfg: EvalConfig,
) -> tuple[float, float, list[tuple[float, float, float]]]:
    """detection_pr of row blocks: (frame indices, rows) for the ground truth and for the predictions.

    A block's rows hold BOX_FIELDS values, then the score (read for
    predictions only); rows pair up by frame index.  Only the frames
    present are scored, each frame's rows in input order, so memory
    does not grow with the largest frame index.
    """
    e = _edges(gt, pred, cfg)
    return _pr_sweep(pred[1][e.p_order, 7], e.ig, e.ip, len(gt[0]), cfg.recall_points)


def detection_pr(
    gt_frames: list[list[Box3D]],
    pred_frames: list[list[Box3D]],
    cfg: EvalConfig,
) -> tuple[float, float, list[tuple[float, float, float]]]:
    """AP (percent), max F1 (percent) and the swept (threshold, P, R) curve.

    Thresholds run over every distinct prediction score, descending.  At
    each one the true positives are each frame's largest one-to-one
    matching of the predictions scored at or above it to ground truth
    with IoU >= cfg.iou_threshold, from one cumulative sum of each
    prediction's gain (see _pr_sweep).  AP is the mean interpolated
    precision at recall levels i/recall_points, i = 1..recall_points.
    The boxes are scored as row blocks (see detection_pr_rows).
    """
    return detection_pr_rows(_boxes_block(gt_frames), _boxes_block(pred_frames), cfg)


def clear_mot(
    gt_tracks: list[list[tuple[int, Box3D]]],
    pred_tracks: list[list[tuple[int, Box3D]]],
    cfg: EvalConfig,
) -> TrackingReport:
    """clear_mot_rows of (id, box) frame lists: list position f is frame f."""
    return clear_mot_rows(TrackColumns.of(gt_tracks), TrackColumns.of(pred_tracks), cfg)


def clear_mot_rows(gt: TrackColumns, pred: TrackColumns, cfg: EvalConfig) -> TrackingReport:
    """CLEAR-style evaluation of identified tracks, given as row blocks.

    Correspondences persist across frames while their IoU stays above
    threshold; the remainder is matched by Hungarian on IoU.  An identity
    switch is counted when a ground-truth track's matched prediction id
    differs from the one at its previous matched frame.  Only the frames
    present are walked, ascending, each frame's rows in input order; a
    frame index absent from both blocks is an empty frame, so no
    correspondence persists across it.  The edges, the pairs with
    IoU >= threshold, are found once: each frame's matrix of them serves
    both matchings, and the AP sweep reads them whole, scoring the boxes
    as detection_pr_rows would.
    """
    e = _edges((gt.frame, gt.rows), (pred.frame, pred.rows), cfg)
    thr = cfg.iou_threshold
    bounds = np.arange(len(e.frames) + 1)
    g_lo, p_lo = e.g_group.searchsorted(bounds).tolist(), e.p_group.searchsorted(bounds).tolist()
    e_lo = e.ig.searchsorted(g_lo).tolist()  # ig ascends, so each frame's edges are one run
    g_ids, p_ids = gt.track_id[e.g_order].tolist(), pred.track_id[e.p_order].tolist()

    fn = fp = idsw = 0
    last_pred_of: dict[int, int] = {}
    presence: dict[int, list[bool]] = {}  # gt id -> matched flag per present frame
    prev: dict[int, int] = {}
    last = -1
    for k, f in enumerate(e.frames.tolist()):
        if f != last + 1:  # the frames between are empty: they match nothing
            prev = {}
        last = f
        gt_ids, pred_ids = g_ids[g_lo[k]:g_lo[k + 1]], p_ids[p_lo[k]:p_lo[k + 1]]
        run = slice(e_lo[k], e_lo[k + 1])
        iou = np.zeros((len(gt_ids), len(pred_ids)))
        iou[e.ig[run] - g_lo[k], e.ip[run] - p_lo[k]] = e.iou[run]
        # row/column of each id; a repeated id resolves to its last box
        gt_row = {i: r for r, i in enumerate(gt_ids)}
        pred_col = {i: c for c, i in enumerate(pred_ids)}

        matches: dict[int, int] = {}
        used_pred: set[int] = set()
        for g_id, p_id in prev.items():
            if g_id in gt_row and p_id in pred_col and p_id not in used_pred:
                if iou[gt_row[g_id], pred_col[p_id]] >= thr:
                    matches[g_id] = p_id
                    used_pred.add(p_id)

        rem_g = [r for r, i in enumerate(gt_ids) if i not in matches]
        rem_p = [c for c, i in enumerate(pred_ids) if i not in used_pred]
        for gi, pi, _ in _match_from_matrix(iou[np.ix_(rem_g, rem_p)], thr):
            g_id = gt_ids[rem_g[gi]]
            p_id = pred_ids[rem_p[pi]]
            matches[g_id] = p_id
            used_pred.add(p_id)

        fn += len(gt_ids) - len(matches)
        fp += len(pred_ids) - len(matches)
        for g_id in gt_ids:
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

    gt_total = len(gt.frame)
    n_gt_tracks = len(presence)
    ml = 100.0 * mostly_lost / n_gt_tracks if n_gt_tracks else 0.0
    mota = 100.0 * (1.0 - (fn + fp + idsw) / gt_total) if gt_total else 0.0
    ap, max_f1, _ = _pr_sweep(pred.rows[e.p_order, 7], e.ig, e.ip, gt_total, cfg.recall_points)
    return TrackingReport(ap=ap, max_f1=max_f1, idsw=idsw, frag=frag, ml=ml, mota=mota, fn=fn, fp=fp,
                          gt_total=gt_total)

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
readers and tracker.track_frames return them (TrackColumns for tracks),
with no per-row box object, and read only the frames present.  One edge builder serves
both: it scores a whole sequence's pairs with one call of the geometry
kernel.  CLEAR-MOT matches each frame on the frame's edges, and its AP
sweep reads the same edges.  As in the sweep, an edge whose gt and
prediction have no other edge is lone: frames whose edges are all lone
(and whose ids do not repeat) match exactly their edges, in one array
pass, and only the rest are walked through persistence and the solver.
The list forms (clear_mot, detection_pr, match_frame) convert to row
blocks through TrackColumns.of, which passes a block through as it is.

The edge builder reads each block through its side: its rows in frame
order and their kernel table.  The truth side (and CLEAR-MOT's id
codes) does not depend on the predictions, so a read-only truth block
keeps it (TrackColumns.kept), for detection AP as for CLEAR-MOT: the
arms of one scenario, or the cells of a sweep over one ground-truth
file, build the truth's table once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .assignment import hungarian_assign, lone_edges
from .boxes import Box3D, TrackColumns
# iou_bev and iou_3d stay bound here: the benchmark's tracer wraps them by name.
from .geometry import _Boxes, _grouped_pairs_in_reach, _pair_iou, _table, iou_3d, iou_bev  # noqa: F401
from .scoring import IouKind

# A ground-truth track matched in less than this fraction of its frames
# counts as mostly lost.
MOSTLY_LOST_FRACTION = 0.2
# The most recall levels AP may average over: the sweep holds arrays of that length.
MAX_RECALL_POINTS = 1_000_000


@dataclass(frozen=True)
class EvalConfig:
    iou_threshold: float = 0.5
    iou_kind: IouKind = IouKind.BEV
    recall_points: int = 40

    def __post_init__(self):
        if not 0.0 < self.iou_threshold < 1.0:
            raise ValueError("iou_threshold must be in (0, 1)")
        if not 1 <= self.recall_points <= MAX_RECALL_POINTS:
            raise ValueError(f"recall_points must be in [1, {MAX_RECALL_POINTS}], got {self.recall_points!r}")


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


class _Side(NamedTuple):
    """What the edge builder reads of one row block, whatever the other block holds."""

    order: np.ndarray  # the rows in frame order, input order within a frame
    frame: np.ndarray  # their frame indices, ascending
    table: _Boxes  # their kernel rows


def _side(frame: np.ndarray, rows: np.ndarray) -> _Side:
    """The side of a row block, (frame indices, rows)."""
    order = frame.argsort(kind="stable")
    return _Side(order, frame[order], _table(rows[order, :7]))


def _block_side(block: TrackColumns) -> _Side:
    """The side of a TrackColumns block; a read-only block keeps it (TrackColumns.kept)."""
    return _side(block.frame, block.rows)


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


def _edges(gt: _Side, pred: _Side, cfg: EvalConfig) -> _Edges:
    """The match edges of two row blocks, given by their sides.

    Only the frames present are grouped, so memory does not grow with
    the largest frame index.  Every frame's pairs come from one
    sort-and-sweep with the frames as groups, and the kernel scores them
    all in one call.
    """
    frames = np.unique(np.concatenate([gt.frame, pred.frame]))
    g_group, p_group = frames.searchsorted(gt.frame), frames.searchsorted(pred.frame)
    ig, ip = _grouped_pairs_in_reach(gt.table, g_group, pred.table, p_group)
    iou = _pair_iou(gt.table, ig, pred.table, ip, cfg.iou_kind is IouKind.THREE_D)
    hit = iou >= cfg.iou_threshold  # below threshold a pair takes part in no matching
    return _Edges(frames, gt.order, g_group, pred.order, p_group, ig[hit], ip[hit], iou[hit])


def _boxes_block(frames: list[list[Box3D]]) -> TrackColumns:
    """Box frame lists as a row block: list position f is frame f."""
    return TrackColumns.of([list(enumerate(frame)) for frame in frames])


def _match_from_matrix(iou: np.ndarray, threshold: float) -> list[tuple[int, int, float]]:
    return [(gi, pi, float(iou[gi, pi])) for gi, pi in hungarian_assign(-iou, iou >= threshold)]


def match_frame(gt: list[Box3D], pred: list[Box3D], cfg: EvalConfig) -> list[tuple[int, int, float]]:
    """One-to-one matching maximizing count, then total IoU.

    Pairs below the IoU threshold are forbidden.  Returns (gt index,
    pred index, iou) triples.
    """
    e = _edges(_block_side(_boxes_block([gt])), _block_side(_boxes_block([pred])), cfg)  # one frame: input orders
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
    lone = lone_edges(ig, ip, n_gt, len(scores))
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
    gt: TrackColumns,
    pred: tuple[np.ndarray, np.ndarray],
    cfg: EvalConfig,
) -> tuple[float, float, list[tuple[float, float, float]]]:
    """detection_pr of row blocks: the ground truth's TrackColumns and the predictions' (frame indices, rows).

    A block's rows hold BOX_FIELDS values, then the score (read for
    predictions only); rows pair up by frame index.  Only the frames
    present are scored, each frame's rows in input order, so memory
    does not grow with the largest frame index.  The truth's side is
    built once per read-only gt block and kept with it, as clear_mot_rows
    keeps it: the cells of a sweep over one gt file build it once.
    """
    e = _edges(gt.kept(_block_side), _side(*pred), cfg)
    return _pr_sweep(pred[1][e.p_order, 7], e.ig, e.ip, len(gt), cfg.recall_points)


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
    pred = _boxes_block(pred_frames)
    return detection_pr_rows(_boxes_block(gt_frames), (pred.frame, pred.rows), cfg)


def clear_mot(
    gt_tracks: list[list[tuple[int, Box3D]]],
    pred_tracks: list[list[tuple[int, Box3D]]],
    cfg: EvalConfig,
) -> TrackingReport:
    """clear_mot_rows of (id, box) frame lists: list position f is frame f."""
    return clear_mot_rows(TrackColumns.of(gt_tracks), TrackColumns.of(pred_tracks), cfg)


def _codes(ids: list) -> tuple[np.ndarray, dict]:
    """Each id's number, in order of first appearance, and the numbering; ids equal as dict keys share one."""
    code = {i: n for n, i in enumerate(dict.fromkeys(ids))}
    return np.fromiter(map(code.__getitem__, ids), np.intp, len(ids)), code


class _Truth(NamedTuple):
    """What CLEAR-MOT reads of a ground-truth block alone: its side and its ids in the side's order, numbered."""

    side: _Side
    ids: list
    code: np.ndarray  # each id's number (see _codes)
    of: dict  # the numbering


def _truth(gt: TrackColumns) -> _Truth:
    side = gt.kept(_block_side)
    ids = gt.track_id[side.order].tolist()
    return _Truth(side, ids, *_codes(ids))


def clear_mot_rows(gt: TrackColumns, pred: TrackColumns, cfg: EvalConfig) -> TrackingReport:
    """CLEAR-style evaluation of identified tracks, given as row blocks.

    Correspondences persist across frames while their IoU stays above
    threshold; the remainder is matched by Hungarian on IoU.  An identity
    switch is counted when a ground-truth track's matched prediction id
    differs from the one at its previous matched frame.  Only the frames
    present count, ascending, each frame's rows in input order; a frame
    index absent from both blocks is an empty frame, so no
    correspondence persists across it.  The edges, the pairs with
    IoU >= threshold, are found once, and the AP sweep reads them whole.

    A lone edge (see assignment.lone_edges) is matched whatever the
    previous frame held: persistence keeps only edges, and the
    remainder's maximum-count matching takes every isolated one.  So the
    frames whose edges are all lone and whose ids do not repeat match
    exactly their edges, in one array pass; only the rest are walked,
    through persistence and the solver, a repeated id resolving to its
    last box.

    The truth side (see _truth) is built once per read-only gt block
    and kept with it; a writable block's is built on every call.
    """
    truth = gt.kept(_truth)
    e = _edges(truth.side, _side(pred.frame, pred.rows), cfg)
    thr = cfg.iou_threshold
    bounds = np.arange(len(e.frames) + 1)
    g_lo, p_lo = e.g_group.searchsorted(bounds).tolist(), e.p_group.searchsorted(bounds).tolist()
    e_lo = e.ig.searchsorted(g_lo).tolist()  # ig ascends, so each frame's edges are one run
    g_ids, g_code, g_of = truth.ids, truth.code, truth.of
    p_ids = pred.track_id[e.p_order].tolist()
    p_code, p_of = _codes(p_ids)

    walk = np.zeros(len(e.frames), dtype=bool)
    walk[e.g_group[e.ig[~lone_edges(e.ig, e.ip, len(g_ids), len(p_ids))]]] = True
    for group, code, n in ((e.g_group, g_code, len(g_of)), (e.p_group, p_code, len(p_of))):
        key = np.sort(group * n + code)  # a repeated (frame, id) pair sorts next to itself
        walk[key[1:][key[1:] == key[:-1]] // n] = True
    match = np.full(len(g_ids), -1)  # each gt row's matched prediction id, numbered, or -1
    taken = ~walk[e.g_group[e.ig]]
    match[e.ig[taken]] = p_code[e.ip[taken]]
    n_matches = int(np.count_nonzero(taken))

    frames = e.frames.tolist()
    prev: dict = {}
    for k in np.flatnonzero(walk).tolist():
        if not k or frames[k - 1] != frames[k] - 1:  # the frames between are empty: they match nothing
            prev = {}
        elif not walk[k - 1]:  # the previous frame's matches are its edges
            prev = {g_ids[g]: p_ids[p] for g, p in zip(e.ig[e_lo[k - 1]:e_lo[k]].tolist(),
                                                       e.ip[e_lo[k - 1]:e_lo[k]].tolist())}
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

        n_matches += len(matches)
        match[g_lo[k]:g_lo[k + 1]] = [p_of[matches[i]] if i in matches else -1 for i in gt_ids]
        prev = matches

    # each gt id's rows together, in frame order
    order = np.argsort(g_code, kind="stable")
    code, hit = g_code[order], match[order]
    on = hit >= 0
    # a switch: the id's matched prediction differs from the one at its previous matched row
    c, m = code[on], hit[on]
    idsw = int(np.count_nonzero((c[1:] == c[:-1]) & (m[1:] != m[:-1])))
    # each run of matched rows after an id's first one resumes an interrupted track
    starts = on.copy()
    starts[1:] &= ~((code[1:] == code[:-1]) & on[:-1])
    hits = np.bincount(code[on], minlength=len(g_of))
    frag = int(np.count_nonzero(starts)) - int(np.count_nonzero(hits))
    mostly_lost = int(np.count_nonzero(hits < MOSTLY_LOST_FRACTION * np.bincount(code, minlength=len(g_of))))

    gt_total = len(gt.frame)
    fn, fp = gt_total - n_matches, len(p_ids) - n_matches
    ml = 100.0 * mostly_lost / len(g_of) if g_of else 0.0
    mota = 100.0 * (1.0 - (fn + fp + idsw) / gt_total) if gt_total else 0.0
    ap, max_f1, _ = _pr_sweep(pred.rows[e.p_order, 7], e.ig, e.ip, gt_total, cfg.recall_points)
    return TrackingReport(ap=ap, max_f1=max_f1, idsw=idsw, frag=frag, ml=ml, mota=mota, fn=fn, fp=fp,
                          gt_total=gt_total)

"""Detection and tracking evaluation.

Detection quality is scored by a threshold sweep over prediction scores
with a maximum per-frame matching at every threshold, grown by augmenting
paths as predictions become active (AP over interpolated precision at
fixed recall levels, plus the best F1 along the sweep).
Tracking quality follows the CLEAR protocol: sticky correspondences,
identity switches, fragmentations, mostly-lost ratio and MOTA.
Both score a whole sequence's IoUs with one call of the geometry kernel.
Detection AP computes on row blocks, frame indices and (n, 8) rows as
the io readers return them (`uatrack eval-det` scores its files so,
with no per-row box object); its list-of-boxes form converts to them.
CLEAR-MOT reads the IoUs frame by frame as dense gt x prediction
matrices.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .assignment import hungarian_assign
from .boxes import Box3D, box_values
# iou_bev and iou_3d stay bound here: the benchmark's tracer wraps them by name.
from .geometry import _box_table, _grouped_pairs_in_reach, _pair_iou, _table, iou_3d, iou_bev  # noqa: F401
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


def _frame_ious(gt_frames: list[list[Box3D]], pred_frames: list[list[Box3D]], kind: IouKind):
    """Each frame's dense gt x pred IoU matrix, in frame order.

    Every frame's pairs in reach come from one sort-and-sweep with the
    frames as groups, and the kernel scores them all in one call; a
    frame's matrix is filled only when the caller asks for it, so no
    more than one is alive at a time.
    """
    gt = _box_table([b for frame in gt_frames for b in frame])
    pred = _box_table([b for frame in pred_frames for b in frame])
    g_size = [len(frame) for frame in gt_frames]
    p_size = [len(frame) for frame in pred_frames]
    ig, ip = _grouped_pairs_in_reach(gt, np.repeat(np.arange(len(g_size)), g_size),
                                     pred, np.repeat(np.arange(len(p_size)), p_size))
    values = _pair_iou(gt, ig, pred, ip, kind is IouKind.THREE_D)
    del gt, pred  # the frame loop below needs only the values
    g_lo = np.cumsum([0] + g_size).tolist()
    p_lo = np.cumsum([0] + p_size).tolist()
    ends = np.searchsorted(ig, g_lo).tolist()  # ig ascends, so each frame's pairs are one run
    for f in range(len(gt_frames)):
        run = slice(ends[f], ends[f + 1])
        iou = np.zeros((g_size[f], p_size[f]))
        iou[ig[run] - g_lo[f], ip[run] - p_lo[f]] = values[run]
        yield iou


def _padded(*frame_lists: list[list]) -> list[list[list]]:
    """The frame lists, each padded with empty frames to the longest one's length."""
    n_frames = max(map(len, frame_lists))
    return [list(frames) + [[] for _ in range(n_frames - len(frames))] for frames in frame_lists]


def _match_from_matrix(iou: np.ndarray, threshold: float) -> list[tuple[int, int, float]]:
    return [(gi, pi, float(iou[gi, pi])) for gi, pi in hungarian_assign(-iou, iou >= threshold)]


def match_frame(gt: list[Box3D], pred: list[Box3D], cfg: EvalConfig) -> list[tuple[int, int, float]]:
    """One-to-one matching maximizing count, then total IoU.

    Pairs below the IoU threshold are forbidden.  Returns (gt index,
    pred index, iou) triples.
    """
    return _match_from_matrix(next(_frame_ious([gt], [pred], cfg.iou_kind)), cfg.iou_threshold)


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
    (g_frame, g_rows), (p_frame, p_rows) = gt, pred
    present, group = np.unique(np.concatenate([g_frame, p_frame]), return_inverse=True)
    g_group, p_group = group[: len(g_frame)], group[len(g_frame):]
    g_order = g_group.argsort(kind="stable")
    scores = p_rows[:, 7]
    p_order = np.lexsort((-scores, p_group))  # stable: tied scores keep their input order
    g_group, p_group = g_group[g_order], p_group[p_order]
    g_table, p_table = _table(g_rows[g_order, :7]), _table(p_rows[p_order, :7])
    ig, ip = _grouped_pairs_in_reach(g_table, g_group, p_table, p_group)
    hit = _pair_iou(g_table, ig, p_table, ip, cfg.iou_kind is IouKind.THREE_D) >= cfg.iou_threshold
    ig, ip = ig[hit], ip[hit]
    edge = np.lexsort((ig, ip))  # each prediction's gt rows, ascending
    rows_of = (ig - g_group.searchsorted(g_group[ig]))[edge].tolist()  # numbered within the frame
    ends = np.bincount(ip, minlength=len(p_group)).cumsum().tolist()
    adj = [rows_of[a:b] for a, b in zip([0, *ends], ends)]
    ranked = scores[p_order].tolist()
    g_ends, p_ends = (np.bincount(g, minlength=len(present)).cumsum().tolist() for g in (g_group, p_group))
    sweep_frames = [(ranked[p0:p1], adj[p0:p1], g1 - g0)
                    for g0, g1, p0, p1 in zip([0, *g_ends], g_ends, [0, *p_ends], p_ends)]
    return _pr_sweep(sweep_frames, cfg.recall_points)


def _row_block(frames: list[list[Box3D]]) -> tuple[np.ndarray, np.ndarray]:
    """Frame lists as (frame indices, rows): list position f is frame f."""
    boxes = [b for frame in frames for b in frame]
    rows = np.array([(*box_values(b), b.score) for b in boxes], dtype=float).reshape(len(boxes), 8)
    return np.repeat(np.arange(len(frames)), [len(frame) for frame in frames]), rows


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
    The boxes are scored as row blocks (see detection_pr_rows).
    """
    return detection_pr_rows(_row_block(gt_frames), _row_block(pred_frames), cfg)


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
    gt_tracks, pred_tracks = _padded(gt_tracks, pred_tracks)
    thr = cfg.iou_threshold

    fn = fp = idsw = 0
    gt_total = 0
    last_pred_of: dict[int, int] = {}
    presence: dict[int, list[bool]] = {}  # gt id -> matched flag per present frame
    prev: dict[int, int] = {}
    sweep_frames = []
    ious = _frame_ious(
        [[b for _, b in frame] for frame in gt_tracks],
        [[b for _, b in frame] for frame in pred_tracks],
        cfg.iou_kind,
    )

    for f, iou in enumerate(ious):
        gt = gt_tracks[f]
        pred = pred_tracks[f]
        gt_total += len(gt)
        pred_boxes = [b for _, b in pred]
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

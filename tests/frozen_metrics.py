"""Frozen incremental AP sweep: the oracle for the edge-array sweep in ``uatrack.metrics``.

A verbatim copy of the per-frame sweep that the vectorized one replaced:
each frame's prediction scores and adjacency lists from its dense IoU
matrix, then one augmenting-path search per prediction as thresholds
fall.  Kept so tests can check the package's AP, max F1 and curve repr
for repr against it.  Do not edit it along with the package.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from uatrack.boxes import Box3D


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

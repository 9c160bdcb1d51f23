"""Uncertainty-to-score mappings and non-maximum suppression.

Detections are re-ranked by combining the classifier score with a score
derived from aggregated log-variances, so that among near-duplicate
proposals the better-localized (lower-uncertainty) one survives NMS.
All mappings operate in log space to avoid under/overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .boxes import Box3D, EncodedLogVar
# iou_bev and iou_3d stay bound here: the benchmark's tracer wraps them by name.
from .geometry import _box_table, _pair_iou, _pairs_in_reach, iou_3d, iou_bev  # noqa: F401


class ScoreStrategy(str, Enum):
    LINEAR = "linear"
    EXPONENTIAL = "exponential"
    SIGMOID = "sigmoid"
    NONE = "none"


class AggregateMode(str, Enum):
    MAX = "max"
    SUM = "sum"


class IouKind(str, Enum):
    BEV = "bev"
    THREE_D = "3d"


@dataclass(frozen=True)
class ScoreMapConfig:
    """Uncertainty scoring: strategy, scale k_s, offset b_s, exponent alpha."""

    strategy: ScoreStrategy = ScoreStrategy.NONE
    k_s: float = 0.001
    b_s: float = 0.0
    aggregate: AggregateMode = AggregateMode.SUM
    alpha: float = 1.0

    def __post_init__(self):
        if not self.k_s > 0.0:
            raise ValueError("k_s must be > 0")
        if not self.alpha > 0.0:
            raise ValueError("alpha must be > 0")


@dataclass(frozen=True)
class NmsConfig:
    iou_threshold: float = 0.5
    pre_top_k: int = 100
    iou_kind: IouKind = IouKind.BEV

    def __post_init__(self):
        if not 0.0 < self.iou_threshold < 1.0:
            raise ValueError("iou_threshold must be in (0, 1)")
        if self.pre_top_k < 1:
            raise ValueError("pre_top_k must be >= 1")


def aggregate_logvar(s: EncodedLogVar, mode: AggregateMode) -> float:
    """Collapse the seven per-parameter log-variances to one scalar."""
    values = s.as_tuple()
    if mode is AggregateMode.MAX:
        return max(values)
    return sum(values)


def _log_sigmoid(x: float) -> float:
    if x >= 0.0:
        return -math.log1p(math.exp(-x))
    return x - math.log1p(math.exp(x))


def map_uncertainty_to_logscore(g_s: float, cfg: ScoreMapConfig) -> float:
    """log(beta_s) from the aggregated log-variance g_s.

    Monotone non-increasing in g_s for every strategy, so boxes with more
    uncertainty never gain score.
    """
    if cfg.strategy is ScoreStrategy.NONE:
        return 0.0
    if cfg.strategy is ScoreStrategy.LINEAR:
        return max(-cfg.k_s * g_s + cfg.b_s, 0.0)
    if cfg.strategy is ScoreStrategy.EXPONENTIAL:
        return -math.exp(cfg.k_s * g_s + cfg.b_s)
    return _log_sigmoid(-cfg.k_s * g_s + cfg.b_s)


def combined_score(detection_score: float, log_beta_s: float, alpha: float = 1.0) -> float:
    """beta = (beta_d * beta_s)^alpha, evaluated through logs."""
    if not detection_score > 0.0:
        raise ValueError("detection_score must be > 0")
    return math.exp(alpha * (math.log(detection_score) + log_beta_s))


def score_detection(detection_score: float, s: EncodedLogVar, cfg: ScoreMapConfig) -> float:
    """Full pipeline: aggregate, map and combine into the rescored value."""
    g = aggregate_logvar(s, cfg.aggregate)
    return combined_score(detection_score, map_uncertainty_to_logscore(g, cfg), cfg.alpha)


def nms(boxes: Sequence[Box3D], cfg: NmsConfig) -> list[Box3D]:
    """Greedy suppression by descending score.

    At most pre_top_k highest-scoring boxes are considered; a box is
    dropped when its IoU with any already-kept box exceeds the
    threshold.  Score ties break toward the lower input index.  The IoU
    of each candidate with every box ranked before it and in reach is
    scored in one kernel call, with the candidate as the first box;
    the input objects are returned.
    """
    order = sorted(range(len(boxes)), key=lambda i: (-boxes[i].score, i))[: cfg.pre_top_k]
    ranked = [boxes[i] for i in order]
    table = _box_table(ranked)
    later, earlier = _pairs_in_reach(table, 0, len(ranked), table, 0, len(ranked))
    once = later > earlier
    later, earlier = later[once], earlier[once]
    over = _pair_iou(table, later, table, earlier, cfg.iou_kind is IouKind.THREE_D) > cfg.iou_threshold
    rivals: list[list[int]] = [[] for _ in ranked]
    for r, c in zip(later[over].tolist(), earlier[over].tolist()):
        rivals[r].append(c)
    kept = [False] * len(ranked)
    for r, cols in enumerate(rivals):
        kept[r] = not any(kept[c] for c in cols)
    return [box for box, k in zip(ranked, kept) if k]

"""Uncertainty-to-score mappings and non-maximum suppression.

Detections are re-ranked by combining the classifier score with a score
derived from aggregated log-variances, so that among near-duplicate
proposals the better-localized (lower-uncertainty) one survives NMS.
All mappings operate in log space to avoid under/overflow.

score_detection states the pipeline for one detection.  rescore runs it
over a row block as one column pass in two steps: self_logvars, the
config-free self-anchored log-variances, then rescore_logvars, their
mapping under a ScoreMapConfig.  Both keep every operation of the
scalar path in its order: + - * / as numpy column operations, each
transcendental (hypot, pow, log, exp, log1p) as its math function, one
map per column, so every value is the scalar path's bit for bit.  Where
a row's value fails, the pass hands the block to rescore_rows, the
scalar path row by row, which raises that row's error.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from itertools import repeat
from operator import add
from typing import Callable, Sequence

import numpy as np

from .boxes import EncodedLogVar
# iou_bev and iou_3d stay bound here: the benchmark's tracer wraps them by name.
from .geometry import _grouped_pairs_in_reach, _pair_iou, _table, iou_3d, iou_bev  # noqa: F401

_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # math.exp overflows above it


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
        if not 0.0 < self.k_s < math.inf:
            raise ValueError("k_s must be finite and > 0")
        if not math.isfinite(self.b_s):
            raise ValueError("b_s must be finite")
        if not 0.0 < self.alpha < math.inf:
            raise ValueError("alpha must be finite and > 0")


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


def _aggregate(logvars: Sequence[float], mode: AggregateMode) -> float:
    # the sum adds from 0.0, left to right, as sum() does up to Python 3.11 (3.12's compensates) and as
    # rescore_logvars adds columns
    return max(logvars) if mode is AggregateMode.MAX else reduce(add, logvars, 0.0)


def aggregate_logvar(s: EncodedLogVar, mode: AggregateMode) -> float:
    """Collapse the seven per-parameter log-variances to one scalar."""
    return _aggregate(s.as_tuple(), mode)


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
        x = cfg.k_s * g_s + cfg.b_s
        return -math.exp(x) if x <= _LOG_FLOAT_MAX else -math.inf  # past exp's range, beta_s is 0 in the limit
    return _log_sigmoid(-cfg.k_s * g_s + cfg.b_s)


def combined_score(detection_score: float, log_beta_s: float, alpha: float = 1.0) -> float:
    """beta = (beta_d * beta_s)^alpha, evaluated through logs; ValueError where it is beyond float range."""
    if not detection_score > 0.0:
        raise ValueError("detection_score must be > 0")
    log_beta = alpha * (math.log(detection_score) + log_beta_s)
    if log_beta > _LOG_FLOAT_MAX:
        raise ValueError(f"rescored value exp({log_beta}) is beyond float range")
    return math.exp(log_beta)


def _score(detection_score: float, logvars: Sequence[float], cfg: ScoreMapConfig) -> float:
    g = _aggregate(logvars, cfg.aggregate)
    return combined_score(detection_score, map_uncertainty_to_logscore(g, cfg), cfg.alpha)


def score_detection(detection_score: float, s: EncodedLogVar, cfg: ScoreMapConfig) -> float:
    """Full pipeline: aggregate, map and combine into the rescored value."""
    return _score(detection_score, s.as_tuple(), cfg)


def rescore_rows(rows: np.ndarray, var: np.ndarray, cfg: ScoreMapConfig) -> np.ndarray:
    """Each row's rescored value, without building a box: score_detection(score,
    encode_variance(var, self_anchor(box), box), cfg).

    rows is an (n, 8) block (BOX_FIELDS values, then score) and var the
    rows' (n, 7) variances.  The self-anchored encoding is the one step
    stated here again: with the anchor at the box, x and y scale by the
    squared BEV diagonal and each extent by its own square.  Its
    operations are Python's, value by value in encode_variance's order,
    so every value, and the first row's error where one fails, is that
    of the object path bit for bit.  rescore computes the same values
    for a whole block at once; this is its reference and error path.
    """
    def one(row, v):
        _, _, _, w, l, h, _, score = row
        d2 = math.hypot(l, w) ** 2
        return _score(score, (math.log(v[0] / d2), math.log(v[1] / d2), math.log(v[2] / h**2),
                              math.log(v[3] / w**2), math.log(v[4] / l**2), math.log(v[5] / h**2),
                              math.log(v[6])), cfg)

    return np.fromiter(map(one, rows.tolist(), var.tolist()), float, len(rows))


def _mapped(fn: Callable[..., float], *columns: np.ndarray) -> np.ndarray:
    """fn of each value (of each tuple of values, one from each column), by one map over Python floats."""
    return np.fromiter(map(fn, *(c.tolist() for c in columns)), float, len(columns[0]))


# self_logvars divides variance k by row _DIVISOR[k] of (diagonal², w², l², h², 1.0): the self-anchored
# encoding scales x and y by the squared BEV diagonal, z and h by h², w and l by their own squares, and
# leaves theta, which 1.0 divides exactly.
_DIVISOR = [0, 0, 3, 1, 2, 3, 4]


def self_logvars(rows: np.ndarray, var: np.ndarray) -> np.ndarray | None:
    """The self-anchored encoded log-variances of a row block, row k of the (7, n) result holding
    EncodedLogVar field k; None where a row's fails.

    rows and var are as in rescore_rows, whose log-variances these are
    bit for bit: math.hypot, math.pow(., 2.0) (which is x ** 2, not
    always x * x) and math.log, each mapped over a column, and numpy
    divisions.  None where a map raises or a square underflows to 0,
    the rows whose division or log raises in rescore_rows.
    """
    n = len(rows)
    w, l, h = rows[:, 3], rows[:, 4], rows[:, 5]
    try:
        divisors = np.ones((5, n))
        for k, base in enumerate((_mapped(math.hypot, l, w), w, l, h)):
            divisors[k] = np.fromiter(map(math.pow, base.tolist(), repeat(2.0)), float, n)
        if not divisors.all():
            return None
        with np.errstate(all="ignore"):  # a quotient may overflow to inf, as Python's does, silently
            quotients = var.T / divisors[_DIVISOR]
        logvars = np.empty((7, n))
        for k, q in enumerate(quotients):  # one map per log-variance: n Python floats alive at a time, not 7n
            logvars[k] = _mapped(math.log, q)
        return logvars
    except (ArithmeticError, ValueError):
        return None


def _log_scores(g: np.ndarray, cfg: ScoreMapConfig) -> np.ndarray:
    """map_uncertainty_to_logscore of each aggregated log-variance in g."""
    if cfg.strategy is ScoreStrategy.NONE:
        return np.zeros(len(g))
    if cfg.strategy is ScoreStrategy.EXPONENTIAL:
        x = cfg.k_s * g + cfg.b_s
        out = np.full(len(g), -math.inf)
        fits = x <= _LOG_FLOAT_MAX
        out[fits] = -_mapped(math.exp, x[fits])
        return out
    x = -cfg.k_s * g + cfg.b_s
    if cfg.strategy is ScoreStrategy.LINEAR:
        return np.where(0.0 > x, 0.0, x)  # max(x, 0.0): x unless 0.0 is greater
    # _log_sigmoid: both branches take exp(-|x|), and -x or x equals -|x| where each is taken
    log1p = _mapped(math.log1p, _mapped(math.exp, -np.abs(x)))
    return np.where(x >= 0.0, -log1p, x - log1p)


def rescore_logvars(scores: np.ndarray, logvars: np.ndarray, cfg: ScoreMapConfig) -> np.ndarray | None:
    """Each row's rescored value from its score and self_logvars column; None where a row's fails.

    _score's operations on whole columns: the sum adds from 0.0 left to
    right, as _aggregate does, and the max keeps the first of equal
    values, as max() does.  None where a map raises, a score is not > 0
    or a log of the rescored value exceeds the float range, the rows
    whose combined_score raises.
    """
    if not (scores > 0.0).all():
        return None
    try:
        with np.errstate(all="ignore"):  # Python's float arithmetic over- and underflows silently
            if cfg.aggregate is AggregateMode.MAX:
                g = logvars[0]
                for s in logvars[1:]:
                    g = np.where(s > g, s, g)
            else:
                g = np.zeros(len(scores))
                for s in logvars:
                    g = g + s
            log_beta = cfg.alpha * (_mapped(math.log, scores) + _log_scores(g, cfg))
        if (log_beta > _LOG_FLOAT_MAX).any():
            return None
        return _mapped(math.exp, log_beta)
    except (ArithmeticError, ValueError):
        return None


def rescore(rows: np.ndarray, var: np.ndarray, cfg: ScoreMapConfig) -> np.ndarray:
    """rescore_rows(rows, var, cfg), bit for bit, as one column pass over the block.

    self_logvars then rescore_logvars; where either hands over, the
    block goes to rescore_rows, which raises the first failing row's
    error.
    """
    logvars = self_logvars(rows, var)
    out = None if logvars is None else rescore_logvars(rows[:, 7], logvars, cfg)
    return rescore_rows(rows, var, cfg) if out is None else out


def nms(rows: np.ndarray, cfg: NmsConfig) -> np.ndarray:
    """Greedy suppression by descending score over one frame's rows; the kept row indices, in rank order.

    rows is an (n, 8) block: BOX_FIELDS values, then score.  At most
    pre_top_k highest-scoring rows are considered; a row is dropped when
    its IoU with any already-kept row exceeds the threshold.  Score ties
    break toward the lower row index.  The IoU of each candidate with
    every row ranked before it and in reach is scored in one kernel
    call, with the candidate as the first box.
    """
    order = (-rows[:, 7]).argsort(kind="stable")[: cfg.pre_top_k]
    table = _table(rows[order, :7])
    group = np.zeros(len(order), dtype=np.intp)
    later, earlier = _grouped_pairs_in_reach(table, group, table, group)
    once = later > earlier
    later, earlier = later[once], earlier[once]
    over = _pair_iou(table, later, table, earlier, cfg.iou_kind is IouKind.THREE_D) > cfg.iou_threshold
    rivals: list[list[int]] = [[] for _ in order]
    for r, c in zip(later[over].tolist(), earlier[over].tolist()):
        rivals[r].append(c)
    kept = [False] * len(order)
    for r, cols in enumerate(rivals):
        kept[r] = not any(kept[c] for c in cols)
    return order[kept]

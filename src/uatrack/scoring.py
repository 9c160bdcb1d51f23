"""Uncertainty-to-score mappings and non-maximum suppression.

Detections are re-ranked by combining the classifier score with a score
derived from aggregated log-variances, so that among near-duplicate
proposals the better-localized (lower-uncertainty) one survives NMS.
All mappings operate in log space to avoid under/overflow.

rescore states the pipeline once, as one column pass over a row block
in two steps: self_logvars, the config-free self-anchored
log-variances, then rescore_logvars, their mapping under a
ScoreMapConfig.  + - * / run as numpy column operations in the
formula's order, each transcendental (hypot, pow, log, exp, log1p) as
its math function, one map per column (boxes.math_map).  A row whose
value fails reports its own error, the first its steps raise, and the
other rows are computed on.
score_detection, combined_score, map_uncertainty_to_logscore and
aggregate_logvar are one-row calls of the same column functions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from itertools import repeat

import numpy as np

from .boxes import EncodedLogVar, math_map
# iou_bev and iou_3d stay bound here: the benchmark's tracer wraps them by name.
from .geometry import _grouped_sweep, _pair_iou, _reach, _table, iou_3d, iou_bev  # noqa: F401

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


def _fail(errors: dict[int, Exception], rows: np.ndarray, error: Exception) -> None:
    """Record error for each row that rows marks and that holds no error yet: a row's first failing step names it."""
    for i in np.flatnonzero(rows).tolist():
        errors.setdefault(i, error)


def _one(result: tuple[np.ndarray, dict[int, Exception]]) -> float:
    """A one-row pass's value, or its error raised."""
    values, errors = result
    if errors:
        raise errors[0]
    return values.item()


def _squares(x: np.ndarray) -> tuple[np.ndarray, dict[int, Exception]]:
    """x ** 2 of each value by one math.pow map, and the error of each value whose square overflows: where the
    map raises, the column alone is squared again by ** (whose error, not pow's, a row reports), overflows as inf."""
    values = x.tolist()
    try:
        return np.fromiter(map(math.pow, values, repeat(2.0)), float, len(values)), {}
    except OverflowError:
        pass
    squares, errors = np.empty(len(values)), {}
    for i, v in enumerate(values):
        try:
            squares[i] = v ** 2
        except OverflowError as exc:
            squares[i], errors[i] = math.inf, exc
    return squares, errors


# self_logvars divides variance k by row _DIVISOR[k] of (diagonal², w², l², h², 1.0): the self-anchored
# encoding scales x and y by the squared BEV diagonal, z and h by h², w and l by their own squares, and
# leaves theta, which 1.0 divides exactly.
_DIVISOR = [0, 0, 3, 1, 2, 3, 4]


def self_logvars(rows: np.ndarray, var: np.ndarray) -> tuple[np.ndarray, dict[int, Exception]]:
    """The self-anchored encoded log-variances of a row block, row k of the (7, n) result holding
    EncodedLogVar field k, and the error of each row whose encoding fails.

    rows and var are as in rescore.  The values are encode_variance(var, self_anchor(box), box)'s
    bit for bit: math.hypot, math.pow(., 2.0) and math.log mapped over columns, and numpy divisions.
    A row's error is the first the encoding raises: its squared diagonal overflows; then, field by
    field, a square first taken there overflows, a divisor is 0 or a quotient is <= 0.
    """
    n = len(rows)
    w, l, h = rows[:, 3], rows[:, 4], rows[:, 5]
    squares = [_squares(base) for base in (math_map(math.hypot, l, w), w, l, h)]
    divisors = np.vstack([square for square, _ in squares] + [np.ones(n)])
    with np.errstate(all="ignore"):  # a quotient may overflow to inf, as Python's does, silently
        quotients = var.T / divisors[_DIVISOR]
    logvars, errors = np.empty((7, n)), {}
    for k, q in enumerate(quotients):  # one map per log-variance: n Python floats alive at a time, not 7n
        d = _DIVISOR[k]
        if d < 4:  # a square's overflow is recorded where it is first taken; setdefault skips the repeats
            for i, exc in squares[d][1].items():
                errors.setdefault(i, exc)
            _fail(errors, divisors[d] == 0.0, ZeroDivisionError("float division by zero"))
        undefined = q <= 0.0
        _fail(errors, undefined, ValueError("math domain error"))
        logvars[k] = math_map(math.log, np.where(undefined, 1.0, q))
    return logvars, errors


def _aggregated(logvars: np.ndarray, mode: AggregateMode) -> np.ndarray:
    """Each column of seven log-variances collapsed to one: the max keeps the first of equal values, and
    passes over a NaN after the first, as max() does; the sum adds from 0.0, left to right, uncompensated
    on every Python version."""
    if mode is AggregateMode.MAX:
        g = logvars[0]
        for s in logvars[1:]:
            g = np.where(s > g, s, g)
        return g
    g = np.zeros(logvars.shape[1])
    with np.errstate(all="ignore"):  # float arithmetic over- and underflows silently, as Python's does
        for s in logvars:
            g = g + s
    return g


def _log_scores(g: np.ndarray, cfg: ScoreMapConfig) -> np.ndarray:
    """log(beta_s) of each aggregated log-variance in g."""
    if cfg.strategy is ScoreStrategy.NONE:
        return np.zeros(len(g))
    with np.errstate(all="ignore"):
        if cfg.strategy is ScoreStrategy.EXPONENTIAL:
            x = cfg.k_s * g + cfg.b_s
            out = np.full(len(g), -math.inf)  # past exp's range, beta_s is 0 in the limit
            fits = x <= _LOG_FLOAT_MAX
            out[fits] = -math_map(math.exp, x[fits])
            return out
        x = -cfg.k_s * g + cfg.b_s
    if cfg.strategy is ScoreStrategy.LINEAR:
        return np.where(0.0 > x, 0.0, x)  # max(x, 0.0): x unless 0.0 is greater
    # log sigmoid: -log1p(exp(-x)) where x >= 0, else x - log1p(exp(x)); both take exp(-|x|)
    log1p = math_map(math.log1p, math_map(math.exp, -np.abs(x)))
    return np.where(x >= 0.0, -log1p, x - log1p)


def _combined(scores: np.ndarray, log_beta_s: np.ndarray, alpha: float) -> tuple[np.ndarray, dict[int, Exception]]:
    """(beta_d * beta_s)^alpha of each row, evaluated through logs, and the error of each row where it
    fails: a score not > 0 (NaN included), else a value beyond float range."""
    errors: dict[int, Exception] = {}
    positive = scores > 0.0
    _fail(errors, ~positive, ValueError("detection_score must be > 0"))
    with np.errstate(all="ignore"):
        log_beta = alpha * (math_map(math.log, np.where(positive, scores, 1.0)) + log_beta_s)
    beyond = log_beta > _LOG_FLOAT_MAX  # math.exp overflows here
    for i in np.flatnonzero(beyond).tolist():
        errors.setdefault(i, ValueError(f"rescored value exp({log_beta[i].item()}) is beyond float range"))
    return math_map(math.exp, np.where(beyond, 0.0, log_beta)), errors


def rescore_logvars(scores: np.ndarray, logvars: np.ndarray,
                    cfg: ScoreMapConfig) -> tuple[np.ndarray, dict[int, Exception]]:
    """Each row's rescored value from its score and self_logvars column under cfg: aggregate, map and
    combine; and the error of each row whose value fails, a score not > 0, else one beyond float range."""
    return _combined(scores, _log_scores(_aggregated(logvars, cfg.aggregate), cfg), cfg.alpha)


def rescore(rows: np.ndarray, var: np.ndarray, cfg: ScoreMapConfig) -> tuple[np.ndarray, dict[int, Exception]]:
    """Each row's rescored value, without building a box: score_detection(score,
    encode_variance(var, self_anchor(box), box), cfg); and each failing row's error, by row index.

    rows is an (n, 8) block (BOX_FIELDS values, then score) and var the rows' (n, 7) variances.  A
    row's error is the first its steps raise, its encoding's before its score's; its value is NaN.
    """
    logvars, errors = self_logvars(rows, var)
    values, late = rescore_logvars(rows[:, 7], logvars, cfg)
    errors = late | errors  # a row's encoding fails before its score is read
    values[list(errors)] = math.nan
    return values, errors


def aggregate_logvar(s: EncodedLogVar, mode: AggregateMode) -> float:
    """Collapse the seven per-parameter log-variances to one scalar."""
    return _aggregated(np.array(s.as_tuple(), dtype=float)[:, None], mode).item()


def map_uncertainty_to_logscore(g_s: float, cfg: ScoreMapConfig) -> float:
    """log(beta_s) from the aggregated log-variance g_s.

    Monotone non-increasing in g_s for every strategy, so boxes with more
    uncertainty never gain score.
    """
    return _log_scores(np.array([g_s], dtype=float), cfg).item()


def combined_score(detection_score: float, log_beta_s: float, alpha: float = 1.0) -> float:
    """beta = (beta_d * beta_s)^alpha, evaluated through logs; ValueError where it is beyond float range."""
    return _one(_combined(np.array([detection_score], dtype=float), np.array([log_beta_s], dtype=float), alpha))


def score_detection(detection_score: float, s: EncodedLogVar, cfg: ScoreMapConfig) -> float:
    """Full pipeline: aggregate, map and combine into the rescored value."""
    return _one(rescore_logvars(np.array([detection_score], dtype=float),
                                np.array(s.as_tuple(), dtype=float)[:, None], cfg))


def nms(rows: np.ndarray, cfg: NmsConfig) -> np.ndarray:
    """Greedy suppression by descending score over one frame's rows; the kept row indices, in rank order.

    rows is an (n, 8) block: BOX_FIELDS values, then score.  At most
    pre_top_k highest-scoring rows are considered; a row is dropped when
    its IoU with any already-kept row exceeds the threshold.  Score ties
    break toward the lower row index.  The pairs come from the one-group
    _grouped_sweep; of each block, those whose first row ranks later
    go to _reach.  Every pair that passes is scored in one kernel call,
    the later-ranked candidate as the first box, and the edges above the
    threshold are resolved in one greedy pass, later rank ascending: an
    edge drops its candidate if the earlier row is kept, and every edge
    of that earlier row came before it.
    """
    order = (-rows[:, 7]).argsort(kind="stable")[: cfg.pre_top_k]
    if not len(order):
        return order
    table = _table(rows[order, :7])
    x, y, radius = table.x, table.y, table.radius
    found_r, found_c = [], []
    for later, earlier in _grouped_sweep(x, None, radius + radius.max(), x, None):
        once = later > earlier
        later, earlier = later[once], earlier[once]
        near = _reach(x[later], y[later], radius[later], x[earlier], y[earlier], radius[earlier])
        found_r.append(later[near])
        found_c.append(earlier[near])
    later, earlier = np.concatenate(found_r), np.concatenate(found_c)
    over = _pair_iou(table, later, table, earlier, cfg.iou_kind is IouKind.THREE_D) > cfg.iou_threshold
    kept = [True] * len(order)
    for r, c in zip(later[over].tolist(), earlier[over].tolist()):
        if kept[c]:
            kept[r] = False
    return order[kept]

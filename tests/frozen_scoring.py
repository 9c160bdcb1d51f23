"""Frozen scalar rescoring: the oracle for the scoring column pass.

A verbatim copy of the per-row path (aggregation, score mappings, the
combined score and rescore_rows, with its self-anchored encoding) that
the column pass replaced, kept so tests can check each row's value bit
for bit, and each failing row's error, against it.  Do not edit it
along with the package.
"""

from __future__ import annotations

import math
import sys
from functools import reduce
from operator import add
from typing import Sequence

import numpy as np

from uatrack.boxes import EncodedLogVar
from uatrack.scoring import AggregateMode, ScoreMapConfig, ScoreStrategy

_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # math.exp overflows above it


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

"""Reusable pieces of the constant-vs-adaptive tracking experiment.

A scenario is tracked once with the per-detection covariance fed to the
filter and once per point of a constant-sigma grid; each run is scored
by planar position RMSE against ground truth and by MOTA.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .assignment import hungarian_assign
from .boxes import Box3D
from .metrics import EvalConfig, clear_mot
from .sim import Scenario, ScenarioConfig, generate_scenario
from .tracker import TrackerConfig, constant_sigma_config, track_frames

# Track-to-truth pairing radius for the RMSE pool.  Tight on purpose:
# wrong-identity pairings from crossings are association errors and are
# scored by MOTA/IDSW, not smeared into the localization number.
RMSE_MATCH_GATE = 2.0


def position_rmse(
    scenario: Scenario,
    pred_frames: list[list[tuple[int, Box3D]]],
    gate: float = RMSE_MATCH_GATE,
) -> float:
    """Planar RMSE of track centers over distance-matched (gt, track) pairs."""
    sq_sum = 0.0
    count = 0
    for gt_frame, pred_frame in zip(scenario.ground_truth, pred_frames):
        if not gt_frame or not pred_frame:
            continue
        g_xy = np.array([[b.x, b.y] for _, b in gt_frame])
        p_xy = np.array([[b.x, b.y] for _, b in pred_frame])
        dist = np.hypot(g_xy[:, 0:1] - p_xy[None, :, 0], g_xy[:, 1:2] - p_xy[None, :, 1])
        for gi, pi in hungarian_assign(dist, dist <= gate):
            sq_sum += float(dist[gi, pi]) ** 2
            count += 1
    return math.sqrt(sq_sum / count) if count else float("inf")


@dataclass(frozen=True)
class ArmResult:
    label: str
    rmse: float
    mota: float


def compare_adaptive_vs_constant(
    scenario_cfg: ScenarioConfig,
    sigma_grid: tuple[float, ...],
    tracker_base: TrackerConfig | None = None,
    eval_cfg: EvalConfig | None = None,
) -> list[ArmResult]:
    """One adaptive run plus one run per constant sigma; adaptive first."""
    base = tracker_base if tracker_base is not None else TrackerConfig()
    ev = eval_cfg if eval_cfg is not None else EvalConfig()
    scenario = generate_scenario(scenario_cfg)

    arms = [("adaptive", replace(base, use_detection_covariance=True))]
    arms += [(f"sigma={sigma:g}", constant_sigma_config(base, sigma)) for sigma in sigma_grid]
    results = []
    for label, cfg in arms:
        pred = track_frames(scenario.detections, cfg, scenario.config.dt)
        report = clear_mot(scenario.ground_truth, pred, ev)
        results.append(ArmResult(label, position_rmse(scenario, pred), report.mota))
    return results

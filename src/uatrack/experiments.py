"""The constant-vs-adaptive tracking experiment.

A scenario is tracked once with the per-detection covariance fed to the
filter and once per point of a constant-sigma grid; each run is scored
by planar position RMSE against ground truth and by MOTA.  SCENARIO,
TRACKER and SIGMA_GRID state the paper's experiment (criterion 8).
Each run's tracks leave track_frames as one TrackColumns block, which
CLEAR-MOT and the RMSE read against the scenario's truth block as they
are: no Track or Box3D is built on the way.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import chain
from operator import attrgetter

import numpy as np

from .assignment import hungarian_assign, lone_edges
from .boxes import Box3D, TrackColumns, TrackFrames
from .geometry import _grouped_sweep
from .metrics import EvalConfig, clear_mot_rows
from .sim import Scenario, ScenarioConfig, generate_scenario
from .tracker import TrackerConfig, constant_sigma_config, track_frames

# Track-to-truth pairing radius for the RMSE pool.  Tight on purpose:
# wrong-identity pairings from crossings are association errors and are
# scored by MOTA/IDSW, not smeared into the localization number.
RMSE_MATCH_GATE = 2.0

# The paper's experiment, one scenario per seed: noise sigma grows with
# range, so no constant sigma fits every detection; a 3 m gate.
SCENARIO = ScenarioConfig(
    n_targets=15, n_frames=200, dt=0.1, field_extent=60.0,
    noise_base=(0.03, 0.03, 0.02, 0.02, 0.02, 0.02, 0.01),
    noise_range_coeff=(0.012, 0.002, 0.002, 0.001, 0.001, 0.001, 0.001),
    fp_rate=0.5, fn_rate=0.1,
)
TRACKER = TrackerConfig(gate_distance=3.0)
SIGMA_GRID = (0.05, 0.15, 0.5, 1.5, 5.0)


def _centers(tracks: Sequence[Sequence[tuple[int, Box3D]]] | TrackColumns) -> tuple[np.ndarray, np.ndarray]:
    """(frame index, (n, 2) box centers) in frame order, of a block's rows (see TrackColumns.of) or of frame lists."""
    if isinstance(tracks, TrackColumns | TrackFrames):
        block = TrackColumns.of(tracks)
        order = block.frame.argsort(kind="stable")
        return block.frame[order], block.rows[order, :2]
    boxes = [b for frame in tracks for _, b in frame]
    xy = np.fromiter(chain.from_iterable(map(attrgetter("x", "y"), boxes)), float, 2 * len(boxes)).reshape(-1, 2)
    return np.repeat(np.arange(len(tracks)), [len(frame) for frame in tracks]), xy


def position_rmse(
    scenario: Scenario,
    pred_frames: list[list[tuple[int, Box3D]]] | TrackColumns,
    gate: float = RMSE_MATCH_GATE,
) -> float:
    """Planar RMSE of track centers over distance-matched (gt, track) pairs.

    The tracks come as a block (track_frames') or as (id, box) frame
    lists, list position f frame f.  Frame f's gt and tracks are matched
    by count within the gate, then least total distance; a frame that
    only one side holds forms no pair.  A gate that is not > 0 (inf is)
    raises ValueError.  The pairs in the gate come from one sweep over
    every frame (_grouped_sweep); a frame whose pairs are all lone
    matches exactly them, any other goes to the solver whole.  Squares
    are summed in (frame, gt row) order.  A Scenario's ground truth is
    read from its block's rows (see _centers), with no box.
    """
    if not gate > 0.0:  # NaN too
        raise ValueError(f"gate must be > 0, got {gate!r}")
    (g_frame, g_xy), (p_frame, p_xy) = _centers(scenario.ground_truth), _centers(pred_frames)
    found = [(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0))]
    for ig, ip in _grouped_sweep(g_xy[:, 0], g_frame, gate, p_xy[:, 0], p_frame):
        d = np.hypot(g_xy[ig, 0] - p_xy[ip, 0], g_xy[ig, 1] - p_xy[ip, 1])
        keep = d <= gate
        found.append((ig[keep], ip[keep], d[keep]))
    ig, ip, d = (np.concatenate(parts) for parts in zip(*found))
    dist = np.full(len(g_frame), -1.0)  # each gt row's matched distance, or -1
    dist[ig] = d
    contested = ~lone_edges(ig, ip, len(g_frame), len(p_frame))
    frames = np.unique(g_frame[ig[contested]])
    # each contested frame's rows: g_lo:g_hi of the gt, p_lo:p_hi of the tracks
    (g_lo, g_hi), (p_lo, p_hi) = (frame.searchsorted([frames, frames + 1]).tolist() for frame in (g_frame, p_frame))
    for g0, g1, p0, p1 in zip(g_lo, g_hi, p_lo, p_hi):
        g, p = g_xy[g0:g1], p_xy[p0:p1]
        frame_dist = np.hypot(g[:, 0:1] - p[None, :, 0], g[:, 1:2] - p[None, :, 1])
        dist[g0:g1] = -1.0
        for gi, pi in hungarian_assign(frame_dist, frame_dist <= gate):
            dist[g0 + gi] = frame_dist[gi, pi]
    sq_sum = 0.0
    matched = dist[dist >= 0.0].tolist()
    for r in matched:
        sq_sum += r ** 2  # pow, as the per-pair sum always took it: d * d differs in the last bit
    return math.sqrt(sq_sum / len(matched)) if matched else float("inf")


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
        report = clear_mot_rows(scenario.ground_truth.block, pred, ev)
        results.append(ArmResult(label, position_rmse(scenario, pred), report.mota))
    return results

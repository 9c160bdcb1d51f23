"""Synthetic scenario generation with range-dependent detection noise.

Targets follow exact CTRA trajectories with small per-frame random
perturbations of acceleration and turn rate.  Detections are the true
boxes plus independent zero-mean Gaussian noise whose per-parameter
standard deviation grows linearly with range from the sensor at the
origin, so a tracker consuming the per-detection covariance sees a
genuinely heteroscedastic stream with known ground truth.
scenario_frames draws the frames one at a time, and generate_scenario
keeps them all.  Each frame's detections are one DetectionColumns block,
tagged with its frame index and checked as a whole; the ground truth of
every frame is one read-only TrackColumns block, seen as (id, box) frame
lists through a TrackFrames view.  No object is built per detection or
per true box, and every class column holds the one str "Car".

All randomness comes from a single numpy Generator seeded from the
config (PCG64, a named portable algorithm with documented state), with a
fixed draw order, so scenarios are bitwise reproducible.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .boxes import (MAX_FRAME_INDEX, DetectionColumns, TrackColumns, TrackFrames, check_rows, first_bad_row,
                    math_map)
from .motion import ctra_step, wrap_angles

# Per-frame random-walk scale on acceleration and turn rate, per sqrt(s).
# Deliberately lively: targets brake, accelerate and swerve, so trackers
# must lean on the measurement stream rather than coast on the model.
ACCEL_WALK_STD = 0.8
TURN_WALK_STD = 0.15
ACCEL_LIMIT = 2.0
TURN_LIMIT = 0.3

# The a/omega perturbations are mean-reverting: acceleration is pulled
# toward holding each target's cruise speed and the turn rate decays to
# zero, with a steer back toward the arena once a target leaves it.
# Without the pull the clamped random walk saturates and speeds grow
# without bound, drifting targets hundreds of meters out.
ACCEL_DECAY = 0.98
ACCEL_PULL = 0.02
TURN_DECAY = 0.95
STEER_GAIN = 0.12
STEER_LIMIT = 0.25

# Uniform ranges of box width, length and height, for targets and false
# positives alike.
SIZE_RANGES = ((1.5, 2.0), (3.5, 4.6), (1.4, 1.8))

# Minimum box dimension after noise; keeps degenerate draws valid.
MIN_DIMENSION = 0.05

# Variance floor so the noiseless limit still emits valid covariances.
VARIANCE_FLOOR = 1e-12

# Most targets a scenario may hold: each frame draws (n_targets, 7) arrays,
# so this bounds a frame's memory; a crowded scene is a few hundred.
MAX_TARGETS = 100_000
# Most boxes a scenario may hold, n_targets * n_frames.  This bounds
# generate_scenario, which keeps about 0.37 kB per box (truth rows,
# detections, their reported and true variances and the states; 348 MB
# of peak RSS for 10**6 boxes of 1,000 targets), near 3.7 GB.  scenario_frames holds one frame at a time, whose arrays
# MAX_TARGETS bounds, and `uatrack simulate` writes each frame as it is
# drawn: it peaked at 166 MB for 10**7 boxes of 100,000 targets.
_MAX_BOXES = 10**7


@dataclass(frozen=True)
class ScenarioConfig:
    """Scenario shape and noise model.

    noise_base and noise_range_coeff hold one entry per box parameter in
    BOX_FIELDS order; sigma(range) = base + coeff * range.
    miscalibration_factor scales the variance the detections *report*
    without changing the noise actually injected.  A scenario holds at
    most 10**7 boxes (n_targets * n_frames), and twice field_extent,
    the span false positives are drawn over, must be finite.
    """

    n_targets: int = 5
    n_frames: int = 100
    dt: float = 0.1
    field_extent: float = 80.0
    noise_base: tuple[float, ...] = (0.1, 0.1, 0.05, 0.05, 0.05, 0.05, 0.02)
    noise_range_coeff: tuple[float, ...] = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    fp_rate: float = 0.0
    fn_rate: float = 0.0
    miscalibration_factor: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.n_targets <= MAX_TARGETS:
            raise ValueError(f"n_targets must be in [1, {MAX_TARGETS}], got {self.n_targets}")
        if not 1 <= self.n_frames <= MAX_FRAME_INDEX + 1:  # frames 0 .. n_frames - 1 are written
            raise ValueError(f"n_frames must be in [1, {MAX_FRAME_INDEX + 1}], got {self.n_frames}")
        if not 0.0 < self.dt < math.inf:
            raise ValueError("dt must be finite and > 0")
        if not 0.0 < self.field_extent < math.inf:
            raise ValueError("field_extent must be finite and > 0")
        for name, rate in (("fp_rate", self.fp_rate), ("fn_rate", self.fn_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        for name, vec in (("noise_base", self.noise_base), ("noise_range_coeff", self.noise_range_coeff)):
            if len(vec) != 7 or not all(0.0 <= v < math.inf for v in vec):
                raise ValueError(f"{name} must hold 7 finite nonnegative values")
        if not 0.0 < self.miscalibration_factor < math.inf:
            raise ValueError("miscalibration_factor must be finite and > 0")
        if self.n_targets * self.n_frames > _MAX_BOXES:
            raise ValueError(f"n_targets * n_frames must be at most {_MAX_BOXES}, "
                             f"got {self.n_targets * self.n_frames}")
        if not 2.0 * self.field_extent < math.inf:  # false positives are drawn over [-extent, extent)
            raise ValueError(f"field_extent must have a finite double, got {self.field_extent!r}")


class SimFrame(NamedTuple):
    """One drawn frame of a scenario.

    state is every target's CTRA state (n, 6); truth is the frame's true
    boxes as one TrackColumns block: ids 0 to n - 1, "Car" names and
    (n, 8) rows (BOX_FIELDS values with theta wrapped by
    motion.wrap_angles, then score 1.0); detections is the frame's
    detections as one block: frame indices, "Car" names, (n, 8) rows
    (BOX_FIELDS values with theta wrapped, then score) and the (n, 7)
    *reported* variances; true_variances is the actual generating noise
    variances of those detections as one (n, 7) array, rows in the
    block's order and columns in BOX_FIELDS order (equal to the reported
    ones when miscalibration_factor is 1).  Every name column holds one
    shared str.
    """

    state: np.ndarray
    truth: TrackColumns
    detections: DetectionColumns
    true_variances: np.ndarray


@dataclass
class Scenario:
    """Generated ground truth and detections: scenario_frames' frames, collected.

    ground_truth is every frame's true boxes as one read-only
    TrackColumns block (ground_truth.block): SimFrame.truth's blocks one
    after another, tagged with their frame indices.  As a Sequence,
    ground_truth[f] is frame f's (id, Box3D) list, built when read (see
    boxes.TrackFrames).  detections[f] and true_variances[f] are frame
    f's SimFrame.detections and SimFrame.true_variances.  gt_states is
    one (n_frames, n_targets, 6) array: gt_states[f] is every target's
    CTRA state at frame f, for motion-level checks.
    """

    config: ScenarioConfig
    ground_truth: TrackFrames
    detections: list[DetectionColumns]
    true_variances: list[np.ndarray]
    gt_states: np.ndarray


def _names(n: int) -> np.ndarray:
    """n class names as an object column, every entry the one str "Car"."""
    names = np.empty(n, object)
    names.fill("Car")  # np.full would make a str per entry
    return names


def generate_scenario(cfg: ScenarioConfig) -> Scenario:
    """The scenario the config describes, every frame of scenario_frames kept.

    Raises ValueError as scenario_frames does.
    """
    n = cfg.n_targets
    truth_rows = np.empty((cfg.n_frames, n, 8))
    gt_states = np.empty((cfg.n_frames, n, 6))
    detections: list[DetectionColumns] = []
    true_variances: list[np.ndarray] = []
    for f, frame in enumerate(scenario_frames(cfg)):
        gt_states[f] = frame.state
        truth_rows[f] = frame.truth.rows
        detections.append(frame.detections)
        true_variances.append(frame.true_variances)
    truth = TrackColumns.sealed(np.repeat(np.arange(cfg.n_frames, dtype=np.int64), n),
                                np.tile(np.arange(n), cfg.n_frames).astype(object), _names(cfg.n_frames * n),
                                truth_rows.reshape(-1, 8))
    return Scenario(cfg, TrackFrames(truth, cfg.n_frames), detections, true_variances, gt_states)


def scenario_frames(cfg: ScenarioConfig) -> Iterator[SimFrame]:
    """The scenario the config describes, one frame at a time, frames 0 to n_frames - 1.

    Each frame is drawn when it is asked for, so only the frame at hand
    is held.  Raises ValueError where the noise model's variance leaves
    float64's positive finite range, or where a detection fails Box3D's
    checks, on reaching that frame; where a true box fails them, after
    the last frame, so a detection's fault in any frame comes first.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_targets
    base, coeff = np.asarray(cfg.noise_base), np.asarray(cfg.noise_range_coeff)

    # Initial ranges are stratified from near to far so every scenario
    # carries the full sweep of range-dependent noise levels; bearings
    # and dynamics are random.
    states = np.empty((n, 6))
    radii = np.linspace(0.08 * cfg.field_extent, 0.95 * cfg.field_extent, n)
    bearings = rng.uniform(-math.pi, math.pi, n)
    states[:, 0] = radii * np.cos(bearings)
    states[:, 1] = radii * np.sin(bearings)
    states[:, 2] = rng.uniform(-math.pi, math.pi, n)
    states[:, 3] = rng.uniform(2.0, 10.0, n)
    states[:, 4] = rng.uniform(-0.5, 0.5, n)
    states[:, 5] = rng.uniform(-0.15, 0.15, n)
    cruise_speed = states[:, 3].copy()
    widths, lengths, heights = (rng.uniform(lo, hi, n) for lo, hi in SIZE_RANGES)
    z_centers = heights / 2.0
    ids, names = np.arange(n).astype(object), _names(n)  # every frame's truth block shares them
    truth_fault = None  # the first true box's fault, raised after the last frame

    for f in range(cfg.n_frames):
        # box rows in BOX_FIELDS order, theta unwrapped
        truth = np.column_stack([states[:, 0], states[:, 1], z_centers, widths, lengths, heights, states[:, 2]])
        truth_rows = np.empty((n, 8))  # the true boxes, then score 1.0
        truth_rows[:, :7] = truth
        truth_rows[:, 7] = 1.0
        truth_fault = truth_fault or first_bad_row(truth_rows)
        truth_rows[:, 6] = wrap_angles(truth_rows[:, 6])

        noise = rng.standard_normal((n, 7))
        fn_draws = rng.random(n)
        score_jitter = rng.normal(0.0, 0.01, n)
        n_fp = int(rng.poisson(cfg.fp_rate))
        fp_xy = rng.uniform(-cfg.field_extent, cfg.field_extent, (n_fp, 2))
        fp_theta = rng.uniform(-math.pi, math.pi, n_fp)
        fp_w, fp_l, fp_h = (rng.uniform(lo, hi, n_fp) for lo, hi in SIZE_RANGES)
        fp_score = rng.uniform(0.05, 0.5, n_fp)

        # The frame's detections as one block of rows, detected targets
        # first, then false positives: true_rows holds the box each is
        # drawn around (a false positive's own), rows the box it reports.
        kept = fn_draws >= cfg.fn_rate
        n_tp = int(kept.sum())
        true_rows = np.concatenate([truth[kept], np.column_stack([fp_xy, fp_h / 2.0, fp_w, fp_l, fp_h, fp_theta])])
        dist = math_map(math.hypot, true_rows[:, 0], true_rows[:, 1])
        with np.errstate(over="ignore"):
            sigma = base + coeff * dist[:, None]
            var = np.maximum(sigma**2, VARIANCE_FLOOR)
            reported = var * cfg.miscalibration_factor
        if not np.all((reported > 0.0) & (reported < math.inf)):
            raise ValueError("noise_base, noise_range_coeff and miscalibration_factor give a reported "
                             "variance outside float64's positive finite range")
        n_dets = len(true_rows)
        rows = np.empty((n_dets, 8))  # the reported boxes, then scores
        rows[:, :7] = true_rows
        rows[:n_tp, :7] += noise[kept] * sigma[:n_tp]
        rows[:n_tp, 3:6] = np.maximum(rows[:n_tp, 3:6], MIN_DIMENSION)
        rows[:, 6] = wrap_angles(rows[:, 6])
        tp_scores = 0.9 - 0.5 * dist[:n_tp] / cfg.field_extent + score_jitter[kept]
        rows[:n_tp, 7] = np.clip(tp_scores, 0.05, 0.99)
        rows[n_tp:, 7] = fp_score
        check_rows(rows)
        # ctra_step below builds the next frame's states as a new array, so this frame's stay as they are
        yield SimFrame(states, TrackColumns(np.full(n, f, np.int64), ids, names, truth_rows),
                       DetectionColumns(np.full(n_dets, f, np.int64), _names(n_dets), rows, reported), var)

        # next frame: exact CTRA, then perturb the accel and turn rate
        states = ctra_step(states, cfg.dt)
        accel_noise = rng.normal(0.0, ACCEL_WALK_STD * math.sqrt(cfg.dt), n)
        turn_noise = rng.normal(0.0, TURN_WALK_STD * math.sqrt(cfg.dt), n)
        ranges = np.hypot(states[:, 0], states[:, 1])
        bearing_home = np.arctan2(-states[:, 1], -states[:, 0])
        heading_err = wrap_angles(bearing_home - states[:, 2])
        steer = np.where(ranges > cfg.field_extent, np.clip(0.5 * heading_err, -STEER_LIMIT, STEER_LIMIT), 0.0)
        states[:, 4] = np.clip(
            ACCEL_DECAY * states[:, 4] + ACCEL_PULL * (cruise_speed - states[:, 3]) + accel_noise,
            -ACCEL_LIMIT,
            ACCEL_LIMIT,
        )
        states[:, 5] = np.clip(
            TURN_DECAY * states[:, 5] + STEER_GAIN * steer + turn_noise,
            -TURN_LIMIT,
            TURN_LIMIT,
        )

    if truth_fault:
        raise ValueError(truth_fault[1])

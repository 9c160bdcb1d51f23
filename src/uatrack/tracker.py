"""Covariance-aware multi-object tracking.

Each track's state is split the way the detections are used: a Kalman
filter over the planar pose (x, y, theta) and the hidden (v, a, omega),
an independent scalar Kalman filter per footprint dimension (w, l), and
pass-through of the latest z and h.  The pose filter predicts with the
unscented transform, because the CTRA dynamics are nonlinear, and
updates in closed form, because a detection observes (x, y, theta)
directly: for a linear observation the unscented update would only
recompute the same moments.  When detections carry their own variance
it is used directly as the observation noise (and as the initial state
noise of new tracks); otherwise a fixed default applies, which is the
classic constant-covariance tracker.  TrackerConfig states both noises
as a config file does: a process-noise diagonal and observation sigmas.

A Tracker keeps every track in one table, a float64 matrix with one row
per track and one column per value (see _ID to _CONFIRMED).  step()
takes a frame as a DetectionColumns block, whose arrays it slices, or as
a list of records, which becomes such a block through DetectionColumns.of,
each record without a variance given the default first; it checks the
rows and variances, and reads the frame as plain arrays: (n, 8) rows,
(n, 7) observation variances and class codes.  It then predicts,
associates, updates, drops and spawns with array operations on a copy of
the table.  The confirmed rows are checked as one block, and every
track's mean and covariance for finiteness, before that copy replaces
the old table: a step either completes or changes nothing, and a state
the filter overflows is refused, never kept as NaN.  step_rows returns
the confirmed tracks as arrays (ids, class names, (n, 8) rows), and
track_frames gathers a sequence's into one boxes.TrackColumns block,
with no per-track object.  step() wraps the rows as Track records, whose
boxes, whose values step_rows has checked, skip Box3D's checks.

The filter math takes a batch of states (leading axis T); a single
state is the T=1 case.  The predict builds the sigma points
component-major, as an (n, T, 2n+1) array straight from each covariance
factor, runs ctra_step on it through a transposed view, so that each
component is one contiguous block, and takes the sine and cosine of
the predicted headings, which the circular mean needs, from that same
ctra_step call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .assignment import hungarian_assign, lone_edges
from .boxes import (Box3D, BoxVariance, DetectionColumns, FrameDetections, TrackColumns, check_rows, math_map,
                    trusted_box)
from .geometry import sweep_pairs, sweep_window
from .motion import ctra_step, wrap_angles

# Unscented-transform scaling.  alpha=1 with kappa=0 gives lambda=0: every
# covariance weight is nonnegative (center weight 2, others 1/12), so the
# reconstructed covariance is PSD by construction, and the huge +-1e6
# weights of the textbook alpha=1e-3 choice (which amplify rounding far
# beyond the accuracy the filter contracts promise) never appear.
UT_ALPHA = 1.0
UT_BETA = 2.0
UT_KAPPA = 0.0

_N = 6
_LAMBDA = UT_ALPHA**2 * (_N + UT_KAPPA) - _N
_GAMMA = math.sqrt(_N + _LAMBDA)
_WM = np.full(2 * _N + 1, 1.0 / (2.0 * (_N + _LAMBDA)))
_WM[0] = _LAMBDA / (_N + _LAMBDA)
_WC = _WM.copy()
_WC[0] += 1.0 - UT_ALPHA**2 + UT_BETA

# Prior standard deviations for the never-observed state components of a
# newly spawned track; generous so the first few updates dominate.
PRIOR_SPEED_STD = 10.0
PRIOR_ACCEL_STD = 3.0
PRIOR_TURN_STD = 0.5

# EMA weight on the previous value when smoothing track scores.
SCORE_SMOOTHING = 0.7

# Process noise per second on (x, y, theta, v, a, omega), matched to the
# bundled simulator's dynamics: position, heading and speed evolve by
# CTRA exactly, so nearly all model error enters through the acceleration
# and turn-rate random walks.
DEFAULT_PROCESS_DIAG = (1e-4, 1e-4, 1e-5, 0.01, 0.64, 0.0225)
# Observation sigmas in BOX_FIELDS order, wherever a detection's own
# variance is not used.
DEFAULT_OBS_SIGMA = (0.5, 0.5, 0.5, 0.2, 0.2, 0.2, 0.1)

# The track table's columns: id, class code (into Tracker.class_names),
# pose mean (x, y, theta, v, a, omega) and covariance (row-major), filtered
# (w, l) and their variances, z and h of the latest matched detection,
# smoothed score, consecutive hits and misses, and confirmed (0.0 or 1.0).
# Ids, codes and counts are integers far below 2**53, so float64 holds
# them exactly.
_ID, _CLASS = 0, 1
_MEAN = slice(2, 2 + _N)
_COV = slice(_MEAN.stop, _MEAN.stop + _N * _N)
_SIZE = slice(_COV.stop, _COV.stop + 2)
_SIZE_VAR = slice(_SIZE.stop, _SIZE.stop + 2)
_Z, _H, _SCORE, _HITS, _MISSES, _CONFIRMED = range(_SIZE_VAR.stop, _SIZE_VAR.stop + 6)
_COLUMNS = _CONFIRMED + 1
# a confirmed row's reported box, in BOX_FIELDS order, then its score
_BOX = [_MEAN.start, _MEAN.start + 1, _Z, _SIZE.start, _SIZE.start + 1, _H, _MEAN.start + 2, _SCORE]


def _cov(table: np.ndarray) -> np.ndarray:
    """The (T, 6, 6) covariances of a table's rows, as a view."""
    return table[:, _COV].reshape(-1, _N, _N)


# Of a detection's (n, 8) row and (n, 7) variances, both in BOX_FIELDS
# order, the pose filter observes columns _OBS (x, y, theta), the size
# filter 3:5 (w, l); z (2) and h (5) pass through, and the row's column 7
# is its score.
_OBS = [0, 1, 6]

_POSE = np.arange(3)  # observed state components (x, y, theta)
_HIDDEN = np.arange(3, _N)  # never observed (v, a, omega)
_PRIOR_HIDDEN_VAR = (PRIOR_SPEED_STD**2, PRIOR_ACCEL_STD**2, PRIOR_TURN_STD**2)


@dataclass
class Track:
    """A confirmed track as step() reports it."""

    id: int
    class_id: str
    x: float
    y: float
    z: float
    w: float
    l: float
    h: float
    theta: float
    score: float

    def to_box(self) -> Box3D:
        """Reported box: filtered pose and footprint, pass-through z and h.

        step() has checked the values and theta comes out of wrap_angles,
        so the box is built without Box3D's checks (see trusted_box).
        The fields are passed one by one: packing and unpacking
        box_values' tuple would cost a fifth of the call.
        """
        return trusted_box(self.x, self.y, self.z, self.w, self.l, self.h, self.theta, self.class_id, self.score)


@dataclass(frozen=True)
class TrackerConfig:
    gate_distance: float = 2.5
    t_init: int = 3
    t_drop: int = 5
    process_noise_diag: tuple[float, ...] = DEFAULT_PROCESS_DIAG
    default_obs_sigma: tuple[float, ...] = DEFAULT_OBS_SIGMA
    use_detection_covariance: bool = True

    def __post_init__(self):
        if not self.gate_distance > 0.0:
            raise ValueError("gate_distance must be > 0")
        if self.t_init < 1 or self.t_drop < 1:
            raise ValueError("t_init and t_drop must be >= 1")
        if len(self.process_noise_diag) != _N or not all(0.0 <= q < math.inf for q in self.process_noise_diag):
            raise ValueError(f"process_noise_diag must hold {_N} finite nonnegative values")
        # the sign is checked on its own: a negative sigma has a valid square
        if len(self.default_obs_sigma) != 7 or not all(s > 0.0 and 0.0 < s * s < math.inf
                                                        for s in self.default_obs_sigma):
            raise ValueError("default_obs_sigma must hold 7 values > 0 with positive finite squares")


def constant_sigma_config(base: TrackerConfig, sigma: float) -> TrackerConfig:
    """Baseline configuration: one constant sigma for every box parameter."""
    return replace(base, default_obs_sigma=(sigma,) * 7, use_detection_covariance=False)


def _sigma_points(means: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """(n, T, 2n+1) sigma points for T states, component-major.

    pts[i, t] holds component i of state t's points: its mean, then the
    mean plus and the mean minus gamma times each column of the
    covariance factor.  Each covariance is factored as M M^T by Cholesky
    when it is positive definite; otherwise by an eigen factor with
    negative eigenvalues clamped to zero, which keeps exactly-singular
    covariances (pinned state components) singular.
    """
    try:
        factors = np.linalg.cholesky(covs)
    except np.linalg.LinAlgError:
        factors = np.empty_like(covs)
        for i, cov in enumerate(covs):
            try:
                factors[i] = np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                vals, vecs = np.linalg.eigh(0.5 * (cov + cov.T))
                factors[i] = vecs * np.sqrt(np.clip(vals, 0.0, None))
    t = len(means)
    pts = np.empty((_N, t, 2 * _N + 1))
    center = means.T[:, :, None]
    offsets = _GAMMA * factors.transpose(1, 0, 2)  # offsets[i, t, j]: component i of column j
    pts[:, :, :1] = center
    np.add(center, offsets, out=pts[:, :, 1:_N + 1])
    np.subtract(center, offsets, out=pts[:, :, _N + 1:])
    return pts


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def ukf_predict_batch(
    means: np.ndarray, covs: np.ndarray, dt: float, process_noise: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Unscented CTRA prediction for a batch of pose states; adds process_noise * dt.

    The sigma points go through ctra_step component-major, as a
    transposed view, so each component is one contiguous block; the
    step also hands over the sine and cosine of each point's new
    heading, which the circular mean needs.  Each row's weighted sums
    run over its own points in one fixed order (one einsum loop over
    contiguous rows), and its heading comes from math.atan2 (numpy's own
    may round differently), so a row's result does not depend on the
    rows batched with it.  Means leave with theta in (-pi, pi],
    covariances exactly symmetric.
    """
    t, p = len(means), 2 * _N + 1
    # the propagated points, component-major, then the sine and cosine of their headings
    rows = np.empty((_N + 2, t, p))
    rows[:_N] = ctra_step(_sigma_points(means, covs).transpose(1, 2, 0), dt, trig=rows[_N:]).transpose(2, 0, 1)
    sums = np.einsum("tp,p->t", rows.reshape(-1, p), _WM).reshape(_N + 2, t)
    mean = sums[:_N].T
    mean[:, 2] = wrap_angles(math_map(math.atan2, sums[_N], sums[_N + 1]))
    dev = rows[:_N] - mean.T[:, :, None]
    dev[2] = wrap_angles(dev[2])
    # C-contiguous (T, 2n+1, n): the product's BLAS path, and so its bits, depend on the operands' layout
    dev = np.ascontiguousarray(dev.transpose(1, 2, 0))
    # sum_p Wc[p] dev[p] dev[p]^T, one matrix product per row, is symmetric only up to rounding
    return mean, _sym((np.swapaxes(dev, -1, -2) * _WC) @ dev + process_noise * dt)


def ukf_update_batch(
    means: np.ndarray, covs: np.ndarray, obs: np.ndarray, obs_var: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Kalman update on (x, y, theta) with per-state noise variances.

    obs is (T, 3) measurements, obs_var the matching (T, 3) diagonal
    observation-noise variances.  The observation is a row selection of
    the state, so the update is the exact linear-Gaussian posterior:
    innovation covariance S = P[:3, :3] + R, gain K = P[:, :3] S^-1, with
    the innovation's theta wrapped.  Means leave with theta in (-pi, pi],
    covariances exactly symmetric.
    """
    s_mat = covs[:, :3, :3].copy()
    s_mat.reshape(-1, 9)[:, ::4] += obs_var  # the diagonal of each fresh 3x3 copy
    # K^T = S^-1 P[:3, :], since P and S are symmetric
    gain = np.swapaxes(np.linalg.solve(s_mat, covs[:, :3, :]), -1, -2)
    innovation = obs - means[:, :3]
    innovation[:, 2] = wrap_angles(innovation[:, 2])
    new_means = means + np.einsum("tij,tj->ti", gain, innovation)
    new_means[:, 2] = wrap_angles(new_means[:, 2])
    return new_means, _sym(covs - gain @ s_mat @ np.swapaxes(gain, -1, -2))


def size_update(
    size: np.ndarray, size_var: np.ndarray, meas: np.ndarray, meas_var: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Independent scalar KF update of every footprint dimension at once.

    A zero prior variance gives zero gain, so a perfect prior ignores the
    measurement.
    """
    gain = size_var / (size_var + meas_var)
    return size + gain * (meas - size), (1.0 - gain) * size_var


def associate(
    track_xy: np.ndarray,
    det_xy: np.ndarray,
    track_class: np.ndarray,
    det_class: np.ndarray,
    gate_distance: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Global nearest neighbor on planar center distance.

    Takes (T, 2) track and (D, 2) detection centers with their classes.
    Pairs with distance above the gate or with differing classes are
    forbidden.  Returns intp arrays: the matched track rows, ascending,
    the detection row matched to each, and the unmatched detection rows,
    ascending.

    Only the detections in each track's x-window of the gate are tested
    (sweep_pairs over the detections sorted by x).  An allowed pair
    whose track and detection have no other allowed pair is matched
    directly: every matching with the most pairs contains it.  The
    other allowed pairs go to one hungarian_assign call, their rows and
    columns in ascending order.  So the matches are those of
    hungarian_assign on the full matrix, except on exact ties: where
    several matchings have the most pairs and the least total
    distance, the two may pick different ones (see hungarian_assign).
    """
    n_t, n_d = len(track_xy), len(det_xy)
    if not n_t or not n_d:
        return np.zeros(0, np.intp), np.zeros(0, np.intp), np.arange(n_d, dtype=np.intp)
    # array methods, not module functions: see sweep_pairs
    det_x = det_xy[:, 0]
    order = det_x.argsort(kind="stable")
    keys = det_x[order]
    ti, k = sweep_pairs(keys, *sweep_window(track_xy[:, 0], gate_distance, keys))
    di = order[k]
    gap = track_xy.take(ti, 0) - det_xy.take(di, 0)
    dist = np.hypot(gap[:, 0], gap[:, 1])
    edge = ((dist <= gate_distance) & (np.asarray(track_class)[ti] == np.asarray(det_class)[di])).nonzero()[0]
    ti, di, dist = ti[edge], di[edge], dist[edge]
    direct = lone_edges(ti, di, n_t, n_d)
    mt, md = ti[direct], di[direct]
    if len(mt) < len(ti):
        ti, di, dist = ti[~direct], di[~direct], dist[~direct]
        rows = np.bincount(ti, minlength=n_t).nonzero()[0]
        cols = np.bincount(di, minlength=n_d).nonzero()[0]
        cost = np.zeros((len(rows), len(cols)))
        allowed = np.zeros(cost.shape, dtype=bool)
        cell = rows.searchsorted(ti), cols.searchsorted(di)
        cost[cell], allowed[cell] = dist, True
        pr, pc = np.array(hungarian_assign(cost, allowed), dtype=np.intp).reshape(-1, 2).T
        mt, md = np.concatenate((mt, rows[pr])), np.concatenate((md, cols[pc]))
        by_track = mt.argsort()
        mt, md = mt[by_track], md[by_track]
    return mt, md, (np.bincount(md, minlength=n_d) == 0).nonzero()[0]


class Tracker:
    """Single-writer tracker instance; one per sequence.

    step() replaces the track table and must not be called concurrently
    on the same instance.  Track ids are assigned from a strictly
    increasing counter and never reused.  The table's _CLASS column
    holds codes into class_names, which grows by each new class name a
    completed step brings.
    """

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config if config is not None else TrackerConfig()
        self.table = np.zeros((0, _COLUMNS))
        self.class_names: tuple[str, ...] = ()
        self._next_id = 1
        self._process_noise = np.diag(self.config.process_noise_diag)
        self._default_var = np.array([s * s for s in self.config.default_obs_sigma])

    def _read_frame(self, detections: FrameDetections) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[str, ...]]:
        """The frame's (n, 8) rows, (n, 7) observation variances and class codes, checked before any state changes.

        A block's arrays are sliced as they are; a record list becomes a
        block through DetectionColumns.of, each record without a variance
        given the configured default first.  The rows are checked as
        Box3D checks a box, then the observation variances.  Each
        detection's variance is its own when the config feeds detection
        covariance and it has one, else the configured default.  The
        codes index the returned names: class_names with the frame's new
        ones appended, in the order they first appear; step() keeps them
        only when it completes.
        """
        if not isinstance(detections, DetectionColumns):
            default = BoxVariance(*self._default_var.tolist())
            detections = DetectionColumns.of([d if d.variance is not None else replace(d, variance=default)
                                              for d in detections])
        rows, var, names = detections.rows, detections.var, detections.class_id.tolist()
        check_rows(rows)
        if not self.config.use_detection_covariance or var is None:
            var = np.repeat(self._default_var[None], len(rows), 0)
        if not np.all((var > 0.0) & (var < np.inf)):
            raise ValueError("observation noise must be positive definite")
        codes = {name: code for code, name in enumerate(self.class_names)}
        class_id = np.array([codes.setdefault(name, len(codes)) for name in names], dtype=np.int64)
        return rows, var, class_id, tuple(codes)

    def _spawn(self, rows: np.ndarray, var: np.ndarray, class_id: np.ndarray) -> np.ndarray:
        """New tentative rows, one per detection, ids in detection order."""
        new = np.zeros((len(rows), _COLUMNS))
        new[:, _ID] = np.arange(self._next_id, self._next_id + len(rows))
        new[:, _CLASS] = class_id
        mean, cov = new[:, _MEAN], _cov(new)
        mean[:, :3] = rows[:, _OBS]
        mean[:, 2] = wrap_angles(mean[:, 2])
        cov[:, _POSE, _POSE] = var[:, _OBS]
        cov[:, _HIDDEN, _HIDDEN] = _PRIOR_HIDDEN_VAR
        new[:, _SIZE], new[:, _SIZE_VAR] = rows[:, 3:5], var[:, 3:5]
        new[:, _Z], new[:, _H] = rows[:, 2], rows[:, 5]
        new[:, _SCORE] = rows[:, 7]
        new[:, _HITS] = 1.0
        return new

    def step(self, detections: FrameDetections, dt: float) -> list[Track]:
        """Advance one frame; returns the confirmed tracks (see step_rows)."""
        ids, names, rows = self.step_rows(detections, dt)
        return [Track(i, name, *box) for i, name, box in zip(ids.tolist(), names, rows.tolist())]

    def step_rows(self, detections: FrameDetections, dt: float) -> tuple[np.ndarray, list[str], np.ndarray]:
        """Advance one frame; returns the confirmed tracks' ids, class names and checked (n, 8) rows.

        Raises ValueError, leaving the tracker unchanged, on a
        non-positive or non-finite dt, a detection box Box3D would
        reject, a non-positive or non-finite observation variance, a
        track mean or covariance that the filter could not keep finite,
        or a confirmed track whose box would leave the finite range or
        lose a positive extent.
        """
        if not 0.0 < dt < math.inf:
            raise ValueError("dt must be finite and > 0")
        if not len(self.table) and not detections:
            return np.zeros(0, np.int64), [], np.zeros((0, 8))  # nothing to predict, match or spawn
        cfg = self.config
        rows, var, det_class, class_names = self._read_frame(detections)
        table = self.table.copy()

        with np.errstate(over="ignore", invalid="ignore"):  # a state that overflows is refused below
            if len(table):
                mean, cov = table[:, _MEAN], _cov(table)
                mean[:], cov[:] = ukf_predict_batch(mean, cov, dt, self._process_noise)
            ti, di, free = associate(table[:, _MEAN][:, :2], rows[:, :2], table[:, _CLASS], det_class,
                                     cfg.gate_distance)
            if len(ti):
                matched, box, box_var = table[ti], rows[di], var[di]
                mean, cov = matched[:, _MEAN], _cov(matched)
                mean[:], cov[:] = ukf_update_batch(mean, cov, box[:, _OBS], box_var[:, _OBS])
                matched[:, _SIZE], matched[:, _SIZE_VAR] = size_update(
                    matched[:, _SIZE], matched[:, _SIZE_VAR], box[:, 3:5], box_var[:, 3:5]
                )
                matched[:, _Z], matched[:, _H] = box[:, 2], box[:, 5]
                matched[:, _SCORE] = SCORE_SMOOTHING * matched[:, _SCORE] + (1.0 - SCORE_SMOOTHING) * box[:, 7]
                table[ti] = matched

        hit = np.zeros(len(table), dtype=bool)
        hit[ti] = True
        table[:, _HITS] = np.where(hit, table[:, _HITS] + 1.0, 0.0)
        table[:, _MISSES] = np.where(hit, 0.0, table[:, _MISSES] + 1.0)
        table = table[table[:, _MISSES] < cfg.t_drop]
        if len(free):
            table = np.concatenate([table, self._spawn(rows[free], var[free], det_class[free])])
        if not (np.isfinite(table[:, _MEAN]).all() and np.isfinite(table[:, _COV]).all()):
            raise ValueError("track state is not finite: a detection's values or variances overflow the filter")
        confirmed = (table[:, _CONFIRMED] == 1.0) | (table[:, _HITS] >= cfg.t_init)
        table[:, _CONFIRMED] = confirmed
        out = table[confirmed]
        boxes = out.take(_BOX, 1)  # C-ordered, where out[:, _BOX] would be Fortran-ordered
        check_rows(boxes)

        self.table, self.class_names = table, class_names
        self._next_id += len(free)
        names = [class_names[code] for code in out[:, _CLASS].astype(np.intp).tolist()]
        return out[:, _ID].astype(np.int64), names, boxes


def track_frames(frames: list[FrameDetections], cfg: TrackerConfig, dt: float) -> TrackColumns:
    """Run a fresh tracker over a frame list; every frame's confirmed tracks as one block, list position f frame f.

    A frame the tracker refuses raises its ValueError, prefixed with the frame's position.
    """
    tracker = Tracker(cfg)
    steps = []
    for f, frame in enumerate(frames):
        try:
            steps.append(tracker.step_rows(frame, dt))
        except ValueError as exc:
            raise ValueError(f"frame {f}: {exc}") from exc
    ids, names, rows = zip(*steps) if steps else ((), (), ())
    return TrackColumns(np.repeat(np.arange(len(steps), dtype=np.int64), [len(i) for i in ids]),
                        np.concatenate([np.zeros(0, np.int64), *ids]).astype(object),
                        np.array([name for frame in names for name in frame], dtype=object),
                        np.concatenate([np.zeros((0, 8)), *rows]))

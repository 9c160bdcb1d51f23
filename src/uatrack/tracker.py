"""Covariance-aware multi-object tracking.

Each track's state is split the way the detections are used: an
unscented Kalman filter over the planar pose (x, y, theta) with CTRA
dynamics on the hidden (v, a, omega), an independent scalar Kalman
filter per footprint dimension (w, l), and pass-through of the latest z
and h.  When detections carry their own variance it is used directly as
the observation noise (and as the initial state noise of new tracks);
otherwise a fixed default applies, which is the classic
constant-covariance tracker.  TrackerConfig states both noises as a
config file does: a process-noise diagonal and observation sigmas.

A Tracker keeps every track in one table, a numpy structured array with
one row per track (see TRACK_DTYPE).  step() takes a frame as a
DetectionColumns block, whose arrays it slices, or as a list of
records, which it first converts to the same arrays; it checks the rows
and variances, then predicts, associates, updates, drops and spawns with
array operations on a copy of the table.  The confirmed rows are checked
as one block before that copy replaces the old table, so a step either
completes or changes nothing.  The filter math takes a batch of states
(leading axis T); a single state is the T=1 case.  Track records are
built only for the confirmed tracks a step returns, and their boxes,
whose values step() has checked, skip Box3D's checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .assignment import hungarian_assign
from .boxes import Box3D, DetectionColumns, FrameDetections, box_values, check_rows, trusted_box
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

# One row per track: pose mean (x, y, theta, v, a, omega) and covariance,
# filtered (w, l) and their variances, z and h of the latest matched
# detection, smoothed score, consecutive hits and misses.  class_id is a
# code into Tracker.class_names.
TRACK_DTYPE = np.dtype(
    [
        ("id", np.int64),
        ("class_id", np.int64),
        ("mean", float, (_N,)),
        ("cov", float, (_N, _N)),
        ("size", float, (2,)),
        ("size_var", float, (2,)),
        ("z", float),
        ("h", float),
        ("score", float),
        ("hits", np.int64),
        ("misses", np.int64),
        ("confirmed", bool),
    ],
    align=True,
)

# One row per detection: the box and its observation variances, both in
# BOX_FIELDS order, then score and class code.  The pose filter observes
# columns _OBS (x, y, theta), the size filter 3:5 (w, l); z (2) and h (5)
# pass through.
_DETECTION_DTYPE = np.dtype([("box", float, (7,)), ("var", float, (7,)), ("score", float), ("class_id", np.int64)])
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
    """(T, 2n+1, n) sigma points for T states.

    Each covariance is factored as M M^T by Cholesky when it is positive
    definite; otherwise by an eigen factor with negative eigenvalues clamped
    to zero, which keeps exactly-singular covariances (pinned state
    components) singular.
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
    offsets = _GAMMA * np.swapaxes(factors, -1, -2)  # rows are scaled sqrt columns
    center = means[:, None, :]
    return np.concatenate([center, center + offsets, center - offsets], axis=1)


def _moments(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted mean of sigma points and their deviations from it, circular in theta.

    Each row's weighted sums run over its own points in one fixed order,
    and its heading comes from math.atan2 (numpy's own may round
    differently), so a row's result does not depend on the rows batched
    with it.  The mean's theta is in (-pi, pi]; deviations in theta are
    wrapped.
    """
    t, p, n = pts.shape
    # C-contiguous, so that every row is summed by the same einsum loop
    rows = np.empty((t, n + 2, p))
    rows[:, :n] = np.swapaxes(pts, 1, 2)
    rows[:, n], rows[:, n + 1] = np.sin(pts[..., 2]), np.cos(pts[..., 2])
    sums = np.einsum("tp,p->t", rows.reshape(-1, p), _WM).reshape(t, n + 2)
    mean = sums[:, :n]
    mean[:, 2] = wrap_angles(np.array([math.atan2(s, c) for s, c in sums[:, n:].tolist()]))
    dev = pts - mean[:, None, :]
    dev[..., 2] = wrap_angles(dev[..., 2])
    return mean, dev


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Weighted cross-covariance sum_p Wc[p] a[p] b[p]^T of each row, one matrix product each."""
    return (np.swapaxes(a, -1, -2) * _WC) @ b


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def ukf_predict_batch(
    means: np.ndarray, covs: np.ndarray, dt: float, process_noise: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Unscented CTRA prediction for a batch of pose states; adds process_noise * dt.

    Means leave with theta in (-pi, pi], covariances exactly symmetric.
    """
    mean, dev = _moments(ctra_step(_sigma_points(means, covs), dt))
    # the weighted product is symmetric only up to rounding
    return mean, _sym(_cross(dev, dev) + process_noise * dt)


def ukf_update_batch(
    means: np.ndarray, covs: np.ndarray, obs: np.ndarray, obs_var: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Measurement update on (x, y, theta) with per-state noise variances.

    obs is (T, 3) measurements, obs_var the matching (T, 3) diagonal
    observation-noise variances.  Means leave with theta in (-pi, pi],
    covariances exactly symmetric.
    """
    pts = _sigma_points(means, covs)
    z_mean, dz = _moments(pts[:, :, :3])
    dx = pts - means[:, None, :]
    dx[..., 2] = wrap_angles(dx[..., 2])

    s_mat = _cross(dz, dz)
    s_mat[:, _POSE, _POSE] += obs_var
    gain = np.swapaxes(np.linalg.solve(s_mat, np.swapaxes(_cross(dx, dz), -1, -2)), -1, -2)

    innovation = obs - z_mean
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
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Global nearest neighbor on planar center distance.

    Takes (T, 2) track and (D, 2) detection centers with their classes.
    Pairs with distance above the gate or with differing classes are
    forbidden.  Returns the (track, detection) matches, tracks
    ascending, and the unmatched track and detection rows.

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
        return [], list(range(n_t)), list(range(n_d))
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
    direct = (np.bincount(ti, minlength=n_t)[ti] == 1) & (np.bincount(di, minlength=n_d)[di] == 1)
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
    free_t = (np.bincount(mt, minlength=n_t) == 0).nonzero()[0]
    free_d = (np.bincount(md, minlength=n_d) == 0).nonzero()[0]
    return list(zip(mt.tolist(), md.tolist())), free_t.tolist(), free_d.tolist()


class Tracker:
    """Single-writer tracker instance; one per sequence.

    step() replaces the track table and must not be called concurrently
    on the same instance.  Track ids are assigned from a strictly
    increasing counter and never reused.  The table's class_id column
    holds codes into class_names, which grows by each new class name a
    completed step brings.
    """

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config if config is not None else TrackerConfig()
        self.table = np.zeros(0, dtype=TRACK_DTYPE)
        self.class_names: tuple[str, ...] = ()
        self._next_id = 1
        self._process_noise = np.diag(self.config.process_noise_diag)
        self._default_var = np.array([s * s for s in self.config.default_obs_sigma])

    def _read_frame(self, detections: FrameDetections) -> tuple[np.ndarray, tuple[str, ...]]:
        """The frame as detection rows, checked before any state changes, and its class names.

        A block's arrays are sliced as they are; records convert to the
        same arrays first (see _record_arrays).  The rows are checked as
        Box3D checks a box, then the observation variances.  Each
        detection's variance is its own when the config feeds detection
        covariance and it has one, else the configured default.  The
        names are class_names with the frame's new ones appended, in the
        order they first appear; step() keeps them only when it completes.
        """
        own = self.config.use_detection_covariance
        if isinstance(detections, DetectionColumns):
            rows, var, names = detections.rows, detections.var, detections.class_id.tolist()
        else:
            rows, var, names = _record_arrays(detections, own, self._default_var)
        check_rows(rows)
        if not own or var is None:
            var = self._default_var
        if not np.all((var > 0.0) & (var < np.inf)):
            raise ValueError("observation noise must be positive definite")
        codes = {name: code for code, name in enumerate(self.class_names)}
        frame = np.empty(len(rows), dtype=_DETECTION_DTYPE)
        frame["box"], frame["var"], frame["score"] = rows[:, :7], var, rows[:, 7]
        frame["class_id"] = [codes.setdefault(name, len(codes)) for name in names]
        return frame, tuple(codes)

    def _spawn(self, dets: np.ndarray) -> np.ndarray:
        """New tentative rows, one per detection, ids in detection order."""
        new = np.zeros(len(dets), dtype=TRACK_DTYPE)
        new["id"] = np.arange(self._next_id, self._next_id + len(dets))
        box, var = dets["box"], dets["var"]
        new["class_id"] = dets["class_id"]
        new["mean"][:, :3] = box[:, _OBS]
        new["mean"][:, 2] = wrap_angles(new["mean"][:, 2])
        new["cov"][:, _POSE, _POSE] = var[:, _OBS]
        new["cov"][:, _HIDDEN, _HIDDEN] = _PRIOR_HIDDEN_VAR
        new["size"], new["size_var"] = box[:, 3:5], var[:, 3:5]
        new["z"], new["h"] = box[:, 2], box[:, 5]
        new["score"] = dets["score"]
        new["hits"] = 1
        return new

    def step(self, detections: FrameDetections, dt: float) -> list[Track]:
        """Advance one frame; returns the confirmed tracks.

        Raises ValueError, leaving the tracker unchanged, on a
        non-positive or non-finite dt, a detection box Box3D would
        reject, a non-positive or non-finite observation variance, or a
        confirmed track whose box would leave the finite range or lose a
        positive extent.
        """
        if not 0.0 < dt < math.inf:
            raise ValueError("dt must be finite and > 0")
        if not len(self.table) and not detections:
            return []  # nothing to predict, match or spawn: the step changes nothing
        cfg = self.config
        dets, class_names = self._read_frame(detections)
        table = self.table.copy()

        if len(table):
            table["mean"], table["cov"] = ukf_predict_batch(table["mean"], table["cov"], dt, self._process_noise)
        matches, _, unmatched_d = associate(
            table["mean"][:, :2], dets["box"][:, :2], table["class_id"], dets["class_id"], cfg.gate_distance
        )
        ti, di = np.array(matches, dtype=np.intp).reshape(-1, 2).T
        if matches:
            matched, box, var = table[ti], dets["box"][di], dets["var"][di]
            table["mean"][ti], table["cov"][ti] = ukf_update_batch(
                matched["mean"], matched["cov"], box[:, _OBS], var[:, _OBS]
            )
            table["size"][ti], table["size_var"][ti] = size_update(
                matched["size"], matched["size_var"], box[:, 3:5], var[:, 3:5]
            )
            table["z"][ti], table["h"][ti] = box[:, 2], box[:, 5]
            table["score"][ti] = SCORE_SMOOTHING * matched["score"] + (1.0 - SCORE_SMOOTHING) * dets["score"][di]

        hit = np.zeros(len(table), dtype=bool)
        hit[ti] = True
        table["hits"] = np.where(hit, table["hits"] + 1, 0)
        table["misses"] = np.where(hit, 0, table["misses"] + 1)
        table = table[table["misses"] < cfg.t_drop]
        if unmatched_d:
            table = np.concatenate([table, self._spawn(dets[unmatched_d])], dtype=TRACK_DTYPE)
        table["confirmed"] |= table["hits"] >= cfg.t_init
        out = table[table["confirmed"]]
        mean, size = out["mean"], out["size"]
        boxes = np.column_stack((mean[:, :2], out["z"], size, out["h"], mean[:, 2], out["score"]))
        check_rows(boxes)

        self.table, self.class_names = table, class_names
        self._next_id += len(unmatched_d)
        names = [class_names[code] for code in out["class_id"].tolist()]
        return [Track(i, name, *box) for i, name, box in zip(out["id"].tolist(), names, boxes.tolist())]


def _record_arrays(records: FrameDetections, own: bool,
                   default: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Records as the (n, 8) rows, (n, 7) observation variances and class names of a block.

    A record's variance is its own when `own` and it has one, else the default.
    """
    rows = np.array([(*box_values(d.box), d.box.score) for d in records], dtype=float).reshape(-1, 8)
    var = np.array([d.variance.as_tuple() if own and d.variance is not None else default for d in records],
                   dtype=float).reshape(-1, 7)
    return rows, var, [d.box.class_id for d in records]


def track_frames(frames: list[FrameDetections], cfg: TrackerConfig, dt: float) -> list[list[tuple[int, Box3D]]]:
    """Run a fresh tracker over a frame list; the confirmed (id, box) pairs of each frame."""
    tracker = Tracker(cfg)
    return [[(t.id, t.to_box()) for t in tracker.step(frame, dt)] for frame in frames]

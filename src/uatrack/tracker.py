"""Covariance-aware multi-object tracking.

Each track's state is split the way the detections are used: an
unscented Kalman filter over the planar pose (x, y, theta) with CTRA
dynamics on the hidden (v, a, omega), an independent scalar Kalman
filter per box dimension, and pass-through of the latest z and h.  When
detections carry their own variance it is used directly as the
observation noise (and as the initial state noise of new tracks);
otherwise a fixed default applies, which is the classic
constant-covariance tracker.

A Tracker keeps every track in one table, a numpy structured array with
one row per track (see TRACK_DTYPE).  step() reads the frame into arrays
and checks it, then predicts, associates, updates, drops and spawns with
array operations on a copy of the table, which replaces the old one only
when the step completes.  The filter math takes a batch of states
(leading axis T); a single state is the T=1 case.  Track records are
built only for the confirmed tracks a step returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .assignment import FORBIDDEN_COST, hungarian_assign
from .boxes import Box3D, BoxVariance, FrameDetections
from .motion import ctra_step

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

# Matched to the bundled simulator's dynamics: position, heading and
# speed evolve by CTRA exactly, so nearly all model error enters through
# the acceleration and turn-rate random walks.
DEFAULT_PROCESS_DIAG = (1e-4, 1e-4, 1e-5, 0.01, 0.64, 0.0225)
DEFAULT_OBS_NOISE = BoxVariance(0.25, 0.25, 0.25, 0.04, 0.04, 0.04, 0.01)

# One row per track: pose mean (x, y, theta, v, a, omega) and covariance,
# filtered (w, l, h) and their variances, z and h of the latest matched
# detection, smoothed score, consecutive hits and misses.
TRACK_DTYPE = np.dtype(
    [
        ("id", np.int64),
        ("class_id", object),
        ("mean", float, (_N,)),
        ("cov", float, (_N, _N)),
        ("size", float, (3,)),
        ("size_var", float, (3,)),
        ("z", float),
        ("h", float),
        ("score", float),
        ("hits", np.int64),
        ("misses", np.int64),
        ("confirmed", bool),
    ],
    align=True,
)

# One row per detection: observed (x, y, theta), (w, l, h), z, score and
# the observation variances of (x, y, theta, w, l, h).
_DETECTION_DTYPE = np.dtype(
    [
        ("obs", float, (3,)),
        ("size", float, (3,)),
        ("z", float),
        ("score", float),
        ("var", float, (6,)),
        ("class_id", object),
    ]
)

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
        """Reported box: filtered pose and footprint, pass-through z and h."""
        return Box3D(
            self.x, self.y, self.z, self.w, self.l, self.h, self.theta, class_id=self.class_id, score=self.score
        )


@dataclass
class TrackerConfig:
    gate_distance: float = 2.5
    t_init: int = 3
    t_drop: int = 5
    process_noise: np.ndarray = field(default_factory=lambda: np.diag(DEFAULT_PROCESS_DIAG))
    default_obs_noise: BoxVariance = field(default_factory=lambda: DEFAULT_OBS_NOISE)
    use_detection_covariance: bool = True

    def __post_init__(self):
        if not self.gate_distance > 0.0:
            raise ValueError("gate_distance must be > 0")
        if self.t_init < 1 or self.t_drop < 1:
            raise ValueError("t_init and t_drop must be >= 1")
        q = np.asarray(self.process_noise, dtype=float)
        if q.shape != (6, 6):
            raise ValueError("process_noise must be 6x6")
        if np.max(np.abs(q - q.T)) > 1e-9 or np.min(np.linalg.eigvalsh(q)) < -1e-9:
            raise ValueError("process_noise must be symmetric PSD")
        self.process_noise = q


def constant_sigma_config(base: TrackerConfig, sigma: float) -> TrackerConfig:
    """Baseline configuration: one constant sigma for every box parameter."""
    if not sigma > 0.0:
        raise ValueError("sigma must be > 0")
    return replace(
        base,
        default_obs_noise=BoxVariance(*([sigma * sigma] * 7)),
        use_detection_covariance=False,
    )


def _matrix_sqrt_psd(cov: np.ndarray) -> np.ndarray:
    """Factor M with cov = M M^T for a single PSD matrix.

    Cholesky when positive definite; otherwise an eigen factor with
    negative eigenvalues clamped to zero, which keeps exactly-singular
    covariances (pinned state components) singular.
    """
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(0.5 * (cov + cov.T))
        vals = np.clip(vals, 0.0, None)
        return vecs * np.sqrt(vals)


def _batch_sqrt(covs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(covs)
    except np.linalg.LinAlgError:
        return np.stack([_matrix_sqrt_psd(c) for c in covs])


def _batch_sigma_points(means: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """(T, 2n+1, n) sigma points for T states."""
    factors = _batch_sqrt(covs)
    offsets = _GAMMA * np.swapaxes(factors, -1, -2)  # rows are scaled sqrt columns
    t = means.shape[0]
    pts = np.empty((t, 2 * _N + 1, _N))
    pts[:, 0, :] = means
    pts[:, 1 : _N + 1, :] = means[:, None, :] + offsets
    pts[:, _N + 1 :, :] = means[:, None, :] - offsets
    return pts


def _wrap_array(a: np.ndarray) -> np.ndarray:
    return np.pi - np.mod(np.pi - a, 2.0 * np.pi)


def _wrap_mean(a: np.ndarray) -> np.ndarray:
    """Wrap angles to (-pi, pi]: bitwise boxes.wrap_angle of _wrap_array's result.

    _wrap_array returns -pi where its modulus rounds up to 2 pi; elsewhere
    wrap_angle leaves its result unchanged.
    """
    out = _wrap_array(a)
    return np.where(out == -np.pi, np.pi, out)


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def _batch_moments(pts: np.ndarray, angle_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Weighted mean and covariance of sigma points, circular in one axis."""
    mean = np.einsum("p,tpn->tn", _WM, pts)
    ang = pts[..., angle_index]
    mean[:, angle_index] = np.arctan2(np.sin(ang) @ _WM, np.cos(ang) @ _WM)
    dev = pts - mean[:, None, :]
    dev[..., angle_index] = _wrap_array(dev[..., angle_index])
    cov = np.einsum("p,tpi,tpj->tij", _WC, dev, dev)
    return mean, _sym(cov)


def ukf_predict_batch(
    means: np.ndarray, covs: np.ndarray, dt: float, process_noise: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Unscented CTRA prediction for a batch of pose states; adds process_noise * dt.

    Means leave with theta in (-pi, pi], covariances exactly symmetric.
    """
    pts = ctra_step(_batch_sigma_points(means, covs), dt)
    mean, cov = _batch_moments(pts, angle_index=2)
    mean[:, 2] = _wrap_mean(mean[:, 2])
    # process noise may be asymmetric within TrackerConfig's tolerance
    return mean, _sym(cov + np.asarray(process_noise, dtype=float) * dt)


def ukf_update_batch(
    means: np.ndarray, covs: np.ndarray, obs: np.ndarray, obs_var: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Measurement update on (x, y, theta) with per-state noise variances.

    obs is (T, 3) measurements, obs_var the matching (T, 3) diagonal
    observation-noise variances.  Means leave with theta in (-pi, pi],
    covariances exactly symmetric.
    """
    pts = _batch_sigma_points(means, covs)
    z_pts = pts[:, :, :3]
    z_mean = np.einsum("p,tpn->tn", _WM, z_pts)
    ang = z_pts[..., 2]
    z_mean[:, 2] = np.arctan2(np.sin(ang) @ _WM, np.cos(ang) @ _WM)

    dz = z_pts - z_mean[:, None, :]
    dz[..., 2] = _wrap_array(dz[..., 2])
    dx = pts - means[:, None, :]
    dx[..., 2] = _wrap_array(dx[..., 2])

    s_mat = np.einsum("p,tpi,tpj->tij", _WC, dz, dz)
    idx = np.arange(3)
    s_mat[:, idx, idx] += obs_var
    p_xz = np.einsum("p,tpi,tpj->tij", _WC, dx, dz)
    gain = np.swapaxes(np.linalg.solve(s_mat, np.swapaxes(p_xz, -1, -2)), -1, -2)

    innovation = obs - z_mean
    innovation[:, 2] = _wrap_array(innovation[:, 2])
    new_means = means + np.einsum("tij,tj->ti", gain, innovation)
    new_means[:, 2] = _wrap_mean(new_means[:, 2])
    return new_means, _sym(covs - gain @ s_mat @ np.swapaxes(gain, -1, -2))


def size_update(
    size: np.ndarray, size_var: np.ndarray, meas: np.ndarray, meas_var: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Independent scalar KF update of every box dimension at once.

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
    forbidden; the optimal assignment is then re-checked against the gate
    so a forced pairing never survives.  Returns the (track, detection)
    matches and the unmatched track and detection rows.
    """
    n_t, n_d = len(track_xy), len(det_xy)
    if not n_t or not n_d:
        return [], list(range(n_t)), list(range(n_d))
    dist = np.hypot(track_xy[:, 0:1] - det_xy[None, :, 0], track_xy[:, 1:2] - det_xy[None, :, 1])
    same_class = np.asarray(track_class, dtype=object)[:, None] == np.asarray(det_class, dtype=object)[None, :]
    allowed = (dist <= gate_distance) & same_class
    matches = [(ti, di) for ti, di in hungarian_assign(np.where(allowed, dist, FORBIDDEN_COST)) if allowed[ti, di]]
    matched_t = {ti for ti, _ in matches}
    matched_d = {di for _, di in matches}
    return matches, [i for i in range(n_t) if i not in matched_t], [i for i in range(n_d) if i not in matched_d]


class Tracker:
    """Single-writer tracker instance; one per sequence.

    step() replaces the track table and must not be called concurrently
    on the same instance.  Track ids are assigned from a strictly
    increasing counter and never reused.
    """

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config if config is not None else TrackerConfig()
        self.table = np.zeros(0, dtype=TRACK_DTYPE)
        self._next_id = 1

    def _read_frame(self, detections: FrameDetections) -> np.ndarray:
        """The frame as detection rows, checked before any state changes.

        The one place that chooses each detection's observation variance:
        its own when the config feeds detection covariance and it has one,
        else the configured default.
        """
        cfg = self.config
        rows = []
        for det in detections:
            b = det.box
            v = det.variance if cfg.use_detection_covariance and det.variance is not None else cfg.default_obs_noise
            rows.append(((b.x, b.y, b.theta), (b.w, b.l, b.h), b.z, b.score,
                         (v.var_x, v.var_y, v.var_theta, v.var_w, v.var_l, v.var_h), b.class_id))
        frame = np.array(rows, dtype=_DETECTION_DTYPE)
        var = frame["var"]
        if not np.all((var > 0.0) & (var < np.inf)):
            raise ValueError("observation noise must be positive definite")
        return frame

    def _spawn(self, dets: np.ndarray) -> np.ndarray:
        """New tentative rows, one per detection, ids in detection order."""
        new = np.zeros(len(dets), dtype=TRACK_DTYPE)
        new["id"] = np.arange(self._next_id, self._next_id + len(dets))
        new["class_id"] = dets["class_id"]
        new["mean"][:, :3] = dets["obs"]
        new["mean"][:, 2] = _wrap_mean(dets["obs"][:, 2])
        new["cov"][:, _POSE, _POSE] = dets["var"][:, :3]
        new["cov"][:, _HIDDEN, _HIDDEN] = _PRIOR_HIDDEN_VAR
        new["size"] = dets["size"]
        new["size_var"] = dets["var"][:, 3:]
        new["z"] = dets["z"]
        new["h"] = dets["size"][:, 2]
        new["score"] = dets["score"]
        new["hits"] = 1
        return new

    def step(self, detections: FrameDetections, dt: float) -> list[Track]:
        """Advance one frame; returns the confirmed tracks.

        Raises ValueError, leaving the tracker unchanged, on a
        non-positive dt or a non-positive or non-finite observation
        variance.
        """
        if not dt > 0.0:
            raise ValueError("dt must be > 0")
        cfg = self.config
        dets = self._read_frame(detections)
        table = self.table.copy()

        if len(table):
            table["mean"], table["cov"] = ukf_predict_batch(table["mean"], table["cov"], dt, cfg.process_noise)
        matches, _, unmatched_d = associate(
            table["mean"][:, :2], dets["obs"][:, :2], table["class_id"], dets["class_id"], cfg.gate_distance
        )
        ti, di = np.array(matches, dtype=np.intp).reshape(-1, 2).T
        if matches:
            matched, det = table[ti], dets[di]
            table["mean"][ti], table["cov"][ti] = ukf_update_batch(
                matched["mean"], matched["cov"], det["obs"], det["var"][:, :3]
            )
            table["size"][ti], table["size_var"][ti] = size_update(
                matched["size"], matched["size_var"], det["size"], det["var"][:, 3:]
            )
            table["z"][ti] = det["z"]
            table["h"][ti] = det["size"][:, 2]
            table["score"][ti] = SCORE_SMOOTHING * matched["score"] + (1.0 - SCORE_SMOOTHING) * det["score"]

        hit = np.zeros(len(table), dtype=bool)
        hit[ti] = True
        table["hits"] = np.where(hit, table["hits"] + 1, 0)
        table["misses"] = np.where(hit, 0, table["misses"] + 1)
        table = table[table["misses"] < cfg.t_drop]
        if unmatched_d:
            table = np.concatenate([table, self._spawn(dets[unmatched_d])], dtype=TRACK_DTYPE)
        table["confirmed"] |= table["hits"] >= cfg.t_init

        self.table = table
        self._next_id += len(unmatched_d)
        out = table[table["confirmed"]]
        mean, size = out["mean"], out["size"]
        columns = (out["id"], out["class_id"], mean[:, 0], mean[:, 1], out["z"], size[:, 0], size[:, 1], out["h"],
                   mean[:, 2], out["score"])
        return [Track(*row) for row in zip(*(c.tolist() for c in columns))]

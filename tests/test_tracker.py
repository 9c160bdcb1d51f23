"""Motion model, UKF consistency, assignment, and track lifecycle."""

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import frozen_tracker as frozen
from uatrack.assignment import FORBIDDEN_COST, hungarian_assign
from uatrack.boxes import Box3D, BoxVariance, DetectionColumns, DetectionRecord, box_values, wrap_angle
from uatrack.motion import OMEGA_EPS, ctra_step, wrap_angles
from uatrack.sim import ScenarioConfig, generate_scenario
from uatrack.tracker import (
    DEFAULT_OBS_SIGMA,
    DEFAULT_PROCESS_DIAG,
    PRIOR_ACCEL_STD,
    PRIOR_SPEED_STD,
    PRIOR_TURN_STD,
    SCORE_SMOOTHING,
    Tracker,
    TrackerConfig,
    _CLASS,
    _COLUMNS,
    _CONFIRMED,
    _GAMMA,
    _ID,
    _MEAN,
    _WC,
    _cov,
    associate,
    constant_sigma_config,
    size_update,
    track_frames,
    ukf_predict_batch,
    ukf_update_batch,
)


def pose(mean=None, cov=None):
    mean = np.zeros(6) if mean is None else np.asarray(mean, dtype=float)
    cov = np.eye(6) if cov is None else np.asarray(cov, dtype=float)
    return mean, cov


def predict(state, dt, process_noise):
    """One state through the T=1 batch prediction."""
    mean, cov = ukf_predict_batch(state[0][None], state[1][None], dt, process_noise)
    return mean[0], cov[0]


def update(state, det):
    """One state updated by a detection with its own variance (T=1 batch)."""
    b, v = det.box, det.variance
    mean, cov = ukf_update_batch(
        state[0][None], state[1][None], np.array([[b.x, b.y, b.theta]]), np.array([[v.var_x, v.var_y, v.var_theta]])
    )
    return mean[0], cov[0]


def sizes(size, size_var, det):
    """One size state updated by a detection, its variance chosen as by TrackerConfig()."""
    v = det.variance if det.variance is not None else BoxVariance(*(s * s for s in DEFAULT_OBS_SIGMA))
    mean, var = size_update(
        np.array([size]), np.array([size_var]), np.array([[det.box.w, det.box.l, det.box.h]]),
        np.array([[v.var_w, v.var_l, v.var_h]]),
    )
    return mean[0], var[0]


def detection(x, y, theta=0.0, variance=None, class_id="Car", score=0.9):
    box = Box3D(x, y, 0.75, 1.8, 4.2, 1.5, theta, class_id=class_id, score=score)
    return DetectionRecord(0, box, variance)


def centers(*xy):
    return np.array(xy, dtype=float).reshape(-1, 2)


class TestCtra:
    def test_stationary(self):
        s = np.array([1.0, 2.0, 0.5, 0.0, 0.0, 0.0])
        out = ctra_step(s, 1.0)
        assert np.allclose(out, s)

    def test_straight_motion(self):
        s = np.array([0.0, 0.0, 0.0, 10.0, 0.0, 0.0])
        out = ctra_step(s, 1.0)
        assert out[0] == pytest.approx(10.0)
        assert out[1] == pytest.approx(0.0)

    def test_quarter_circle(self):
        s = np.array([0.0, 0.0, 0.0, math.pi, 0.0, math.pi / 2])
        out = ctra_step(s, 1.0)
        assert out[0] == pytest.approx(2.0, rel=1e-12)
        assert out[1] == pytest.approx(2.0, rel=1e-12)
        assert out[2] == pytest.approx(math.pi / 2, rel=1e-12)

    def test_accelerated_straight(self):
        s = np.array([0.0, 0.0, 0.0, 2.0, 1.0, 0.0])
        out = ctra_step(s, 2.0)
        assert out[0] == pytest.approx(2.0 * 2.0 + 0.5 * 1.0 * 4.0)
        assert out[3] == pytest.approx(4.0)

    def test_arc_matches_quadrature(self):
        s = np.array([1.0, -2.0, 0.7, 5.0, 0.8, 0.2])
        dt = 1.3
        # numerical quadrature of the exact kinematics
        ts = np.linspace(0.0, dt, 20001)
        v = s[3] + s[4] * ts
        th = s[2] + s[5] * ts
        x = s[0] + np.trapezoid(v * np.cos(th), ts)
        y = s[1] + np.trapezoid(v * np.sin(th), ts)
        out = ctra_step(s, dt)
        assert out[0] == pytest.approx(x, abs=1e-8)
        assert out[1] == pytest.approx(y, abs=1e-8)


class TestUkfPredict:
    def test_stationary_zero_noise(self):
        state = pose(cov=np.diag([1, 1, 0.1, 0, 0, 0]))
        out = predict(state, 1.0, np.zeros((6, 6)))
        assert np.max(np.abs(out[1] - state[1])) < 1e-10
        assert np.allclose(out[0], state[0])

    def test_symmetry_contract(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.normal(size=(6, 6))
            state = pose(mean=rng.normal(size=6), cov=a @ a.T + 0.1 * np.eye(6))
            out = predict(state, 0.1, np.diag(rng.uniform(0, 0.1, 6)))
            assert np.max(np.abs(out[1] - out[1].T)) < 1e-9

    def test_linear_regime_matches_kf(self):
        # theta, a, omega pinned (zero variance): dynamics are linear in
        # (x, y, v); compare with the closed-form Kalman prediction
        theta0 = 0.3
        dt = 0.1
        mean = np.array([1.0, 2.0, theta0, 5.0, 0.0, 0.0])
        cov = np.diag([0.5, 0.8, 0.0, 1.5, 0.0, 0.0])
        q = np.diag([0.01, 0.01, 0.0, 0.1, 0.0, 0.0])
        state = pose(mean=mean, cov=cov)

        f = np.eye(3)
        f[0, 2] = math.cos(theta0) * dt
        f[1, 2] = math.sin(theta0) * dt
        x_lin = mean[[0, 1, 3]]
        p_lin = cov[np.ix_([0, 1, 3], [0, 1, 3])]
        for _ in range(100):
            state = predict(state, dt, q)
            x_lin = f @ x_lin
            p_lin = f @ p_lin @ f.T + q[np.ix_([0, 1, 3], [0, 1, 3])] * dt
        assert np.max(np.abs(state[0][[0, 1, 3]] - x_lin)) < 1e-8
        assert np.max(np.abs(state[1][np.ix_([0, 1, 3], [0, 1, 3])] - p_lin)) < 1e-8
        assert state[0][2] == pytest.approx(theta0, abs=1e-12)


class TestAngleWrap:
    def test_just_above_pi_lands_on_pi(self):
        # the modulus rounds up to 2 pi here, which would give -pi
        x = np.array([3.1415926535897936])
        assert wrap_angles(x)[0] == math.pi == wrap_angle(x[0])

    def test_matches_wrap_angle_of_wrap_array(self):
        rng = np.random.default_rng(3)
        ulp = np.spacing(math.pi)
        x = np.concatenate([
            rng.uniform(-20.0, 20.0, 20_000),
            math.pi + ulp * rng.integers(-40, 40, 2_000),
            -math.pi + ulp * rng.integers(-40, 40, 2_000),
            3.0 * math.pi + 2.0 * ulp * rng.integers(-40, 40, 2_000),
        ])
        want = np.array([wrap_angle(v) for v in wrap_angles(x)])
        assert np.array_equal(wrap_angles(x), want)
        assert np.all(wrap_angles(x) > -math.pi)

    def test_update_moving_just_past_pi_lands_on_pi(self):
        # the correction takes theta one ulp past pi, where the modulus rounds up to 2 pi
        mean = np.array([[0.0, 0.0, math.pi, 0.0, 0.0, 0.0]])
        obs = np.array([[0.0, 0.0, 3.141592653589794]])
        out, _ = ukf_update_batch(mean, np.eye(6)[None], obs, np.ones((1, 3)))
        assert out[0, 2] == math.pi

    def test_spawned_heading_lands_on_pi(self):
        # Box3D wraps a heading one ulp past pi to -pi
        tracker = Tracker()
        tracker.step([detection(0.0, 0.0, 3.1415926535897936)], 0.1)
        assert tracker.table[0, _MEAN][2] == math.pi


class TestWrapAnglesFormula:
    """wrap_angles computes fmod and fixes its sign in place; it must give what the np.mod formula gave."""

    @staticmethod
    def _by_modulus(a):
        out = np.pi - np.mod(np.pi - a, 2.0 * np.pi)
        return np.where(out == -np.pi, np.pi, out)

    def test_bitwise_the_modulus_formula(self):
        rng = np.random.default_rng(21)
        ulp = np.spacing(math.pi)
        x = np.concatenate([
            rng.uniform(-1e8, 1e8, 100_000),
            rng.normal(0.0, 4.0, 100_000),
            rng.normal(0.0, 1e-12, 10_000),
            np.ldexp(rng.uniform(-1.0, 1.0, 20_000), rng.integers(-1074, 1000, 20_000)),
            np.outer(np.arange(-7, 8) * math.pi, np.ones(401)).ravel() + ulp * np.tile(np.arange(-200, 201), 15),
            [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, math.pi, -math.pi, 2 * math.pi, -2 * math.pi, 1e300, -1e300],
        ])
        assert np.array_equal(wrap_angles(x).view(np.uint64), self._by_modulus(x).view(np.uint64))
        strided = x[: 39 * 1000].reshape(1000, 13, 3)[..., 2]
        assert np.array_equal(wrap_angles(strided), self._by_modulus(strided))
        x32 = rng.uniform(-1e4, 1e4, 10_000).astype(np.float32)
        assert wrap_angles(x32).dtype == np.float32
        assert np.array_equal(wrap_angles(x32).view(np.uint32), self._by_modulus(x32).view(np.uint32))

    @pytest.mark.parametrize("a", [4.0, -0.0, np.float64(-4.0), np.array(2.5), np.array([1, 2]), np.float32(7.0)],
                             ids=["float", "negative zero", "float64", "0-d", "int array", "float32"])
    def test_input_kinds(self, a):
        got, want = wrap_angles(a), self._by_modulus(a)
        assert (type(got), got.dtype, got.shape) == (type(want), want.dtype, want.shape)
        assert np.array_equal(got, want)

    def test_nan_passes_and_inf_warns(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert np.isnan(wrap_angles(np.array([math.nan]))).all()
            for bad in (math.inf, -math.inf):
                with pytest.raises(RuntimeWarning):
                    self._by_modulus(np.array([bad]))
                with pytest.raises(RuntimeWarning):
                    wrap_angles(np.array([bad]))


class TestRowIndependence:
    """Every row of a batch is bitwise what its own T=1 call gives."""

    MAX_T = 1000

    @pytest.fixture(scope="class")
    def states(self):
        # headings within a few ulps of +-pi, and row 1 with a singular
        # covariance (zero acceleration variance), so that Cholesky fails there
        # and its eigen fallback runs inside a mixed batch
        n = self.MAX_T
        rng = np.random.default_rng(11)
        ulp = np.spacing(math.pi)
        means = np.column_stack([rng.normal(0.0, 20.0, (n, 2)), rng.uniform(-math.pi, math.pi, n),
                                 rng.uniform(0.0, 10.0, n), rng.normal(0.0, 1.0, n), rng.normal(0.0, 0.3, n)])
        near_pi = means[::3, 2]
        near_pi[:] = math.pi * rng.choice([-1.0, 1.0], len(near_pi)) + ulp * rng.integers(-4, 5, len(near_pi))
        a = rng.normal(0.0, 0.3, (n, 6, 6))
        covs = a @ np.swapaxes(a, 1, 2) + 1e-3 * np.eye(6)
        covs[1] = np.diag([0.5, 0.5, 0.1, 1.0, 0.0, 0.01])
        obs = means[:, :3] + rng.normal(0.0, 0.5, (n, 3))
        obs[::5, 2] = math.pi + ulp * rng.integers(-4, 5, len(obs[::5]))
        obs_var = rng.uniform(0.01, 1.0, (n, 3))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(covs[1])
        q = np.diag(TrackerConfig().process_noise_diag)
        alone = [(ukf_predict_batch(means[i:i + 1], covs[i:i + 1], 0.1, q),
                  ukf_update_batch(means[i:i + 1], covs[i:i + 1], obs[i:i + 1], obs_var[i:i + 1]))
                 for i in range(self.MAX_T)]
        return means, covs, obs, obs_var, q, alone

    @pytest.mark.parametrize("t", [1, 2, 3, 7, 15, 16, 17, 64, 240, MAX_T])
    def test_rows_equal_their_own_call(self, states, t):
        means, covs, obs, obs_var, q, alone = states
        batch = (ukf_predict_batch(means[:t], covs[:t], 0.1, q),
                 ukf_update_batch(means[:t], covs[:t], obs[:t], obs_var[:t]))
        for i in range(t):
            for (got_mean, got_cov), (want_mean, want_cov) in zip(batch, alone[i]):
                assert got_mean[i].tobytes() == want_mean[0].tobytes(), i
                assert got_cov[i].tobytes() == want_cov[0].tobytes(), i


class TestPredictOracle:
    """ukf_predict_batch is bitwise the sigma-point path it replaced (tests/frozen_tracker.py)."""

    @pytest.fixture(scope="class")
    def table(self):
        # column views of a track table, strided as step() passes them; in
        # the first rows, turn rates at the straight-line switch (0, +-eps,
        # one ulp inside it) next to arcs, a turn-rate variance small enough
        # that the sigma points straddle the switch, and a singular
        # covariance, so that Cholesky fails and the eigen fallback runs
        n = 250
        rng = np.random.default_rng(41)
        ulp = np.spacing(math.pi)
        inside = np.nextafter(OMEGA_EPS, 0.0)
        table = np.zeros((n, _COLUMNS))
        mean = np.column_stack([rng.normal(0.0, 20.0, (n, 2)), rng.uniform(-math.pi, math.pi, n),
                                rng.uniform(0.0, 10.0, n), rng.normal(0.0, 1.0, n), rng.normal(0.0, 0.3, n)])
        mean[::3, 2] = math.pi * rng.choice([-1.0, 1.0], len(mean[::3])) + ulp * rng.integers(-4, 5, len(mean[::3]))
        mean[:12, 5] = [0.0, OMEGA_EPS, -OMEGA_EPS, inside, 0.4, -inside, -0.0, OMEGA_EPS, 2.0 * OMEGA_EPS,
                        -0.3, inside, 0.0]
        a = rng.normal(0.0, 0.3, (n, 6, 6))
        cov = a @ np.swapaxes(a, 1, 2) + 1e-3 * np.eye(6)
        cov[7:10, 5, :] = cov[7:10, :, 5] = 0.0
        cov[7:10, 5, 5] = 1e-14
        cov[1] = np.diag([0.5, 0.5, 0.1, 1.0, 0.3, 0.0])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(cov[1])
        table[:, _MEAN], _cov(table)[:] = mean, cov
        return table

    @pytest.mark.parametrize("t", [1, 2, 15, 250])
    def test_bitwise_the_frozen_path(self, table, t):
        q = np.diag(DEFAULT_PROCESS_DIAG)
        rows = table[:t]
        mean, cov = rows[:, _MEAN], _cov(rows)
        assert np.shares_memory(mean, table) and np.shares_memory(cov, table)
        assert t == 1 or mean.strides[0] == cov.strides[0] == table.strides[0]  # one row's stride is free
        got = ukf_predict_batch(mean, cov, 0.1, q)
        want = frozen.ukf_predict_batch(mean, cov, 0.1, q)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("t", [1, 2, 15, 250])
    def test_bits_do_not_depend_on_the_layout(self, table, t):
        # the same states as the table's column views, as contiguous
        # copies, and as the fields of a structured array
        rows = table[:t]
        fields = np.zeros(t, dtype=np.dtype([("id", np.int64), ("mean", float, (6,)), ("cov", float, (6, 6)),
                                             ("confirmed", bool)], align=True))
        fields["mean"], fields["cov"] = rows[:, _MEAN], _cov(rows)
        layouts = [(rows[:, _MEAN], _cov(rows)), (rows[:, _MEAN].copy(), _cov(rows).copy()),
                   (fields["mean"], fields["cov"])]
        assert t == 1 or [m.flags.c_contiguous for m, _ in layouts] == [False, True, False]
        rng = np.random.default_rng(t)
        obs = rows[:, _MEAN][:, :3] + rng.normal(0.0, 1.0, (t, 3))
        obs_var = rng.uniform(0.01, 2.0, (t, 3))
        q = np.diag(DEFAULT_PROCESS_DIAG)
        outs = [ukf_predict_batch(m, c, 0.1, q) + ukf_update_batch(m, c, obs, obs_var) for m, c in layouts]
        for out in outs[1:]:
            assert [o.tobytes() for o in out] == [o.tobytes() for o in outs[0]]

    def test_sigma_points_cross_the_straight_line_switch(self, table):
        # the cases above reach both branches of ctra_step in one batch
        pts = frozen._sigma_points(table[:12, _MEAN], _cov(table[:12]))
        straight = np.abs(pts[..., 5]) < OMEGA_EPS
        assert straight.any() and not straight.all()
        assert (straight.any(axis=1) & ~straight.all(axis=1)).any()


class TestUkfUpdate:
    def test_uninformative_measurement(self):
        state = pose(mean=[1, 2, 0.3, 4, 0, 0], cov=np.eye(6))
        det = detection(5.0, 5.0, 1.0, BoxVariance(1e12, 1e12, 1e12, 1e12, 1e12, 1e12, 1e12))
        out = update(state, det)
        assert np.max(np.abs(out[0] - state[0])) < 1e-4

    def test_scalar_kf_halving(self):
        state = pose(mean=[0, 0, 0, 0, 0, 0], cov=np.diag([1.0, 1.0, 1.0, 0, 0, 0]))
        det = detection(0.0, 0.0, 0.0, BoxVariance(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0))
        out = update(state, det)
        for i in range(3):
            assert out[1][i, i] == pytest.approx(0.5, abs=1e-9)

    def test_innovation_wraps(self):
        state = pose(mean=[0, 0, 3.1, 0, 0, 0], cov=np.diag([1e-6, 1e-6, 1.0, 0, 0, 0]))
        det = detection(0.0, 0.0, -3.1, BoxVariance(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1e-6))
        out = update(state, det)
        # the short way from 3.1 to -3.1 crosses pi (|distance| ~ 0.083);
        # an unwrapped update would drag theta toward 0 instead
        assert abs(math.remainder(out[0][2] - (-3.1), 2 * math.pi)) < 0.01
        innovation = math.remainder(-3.1 - 3.1, 2 * math.pi)
        assert abs(innovation) == pytest.approx(2 * math.pi - 6.2, abs=1e-9)

    @staticmethod
    def _random_states(rng, n, sigma_theta):
        """n random states whose theta standard deviations are sigma_theta, with measurements."""
        a = rng.normal(0.0, 0.3, (n, 6, 6))
        covs = a @ np.swapaxes(a, 1, 2) + 1e-3 * np.eye(6)
        scale = np.ones((n, 6))
        scale[:, 2] = sigma_theta / np.sqrt(covs[:, 2, 2])
        covs *= scale[:, :, None] * scale[:, None, :]
        means = np.column_stack([rng.normal(0.0, 20.0, (n, 2)), rng.uniform(-math.pi, math.pi, n),
                                 rng.normal(0.0, 1.0, (n, 3))])
        obs = means[:, :3] + rng.normal(0.0, 0.5, (n, 3))
        obs[:, 2] = wrap_angles(obs[:, 2])
        return means, covs, obs, rng.uniform(0.01, 1.0, (n, 3))

    @staticmethod
    def _unscented_update(means, covs, obs, obs_var):
        """The unscented update: the same moments, taken through sigma points."""
        pts = frozen._sigma_points(means, covs)
        z_mean, dz = frozen._moments(pts[:, :, :3])
        dx = pts - means[:, None, :]
        dx[..., 2] = wrap_angles(dx[..., 2])
        s_mat = (np.swapaxes(dz, 1, 2) * _WC) @ dz + obs_var[:, :, None] * np.eye(3)
        gain = (np.swapaxes(dx, 1, 2) * _WC) @ dz @ np.linalg.inv(s_mat)
        innovation = obs - z_mean
        innovation[:, 2] = wrap_angles(innovation[:, 2])
        new_means = means + np.einsum("tij,tj->ti", gain, innovation)
        new_means[:, 2] = wrap_angles(new_means[:, 2])
        return new_means, covs - gain @ s_mat @ np.swapaxes(gain, 1, 2)

    def test_matches_the_unscented_update_while_sigma_points_stay_within_pi(self):
        # for a linear observation the unscented transform gives the same
        # moments, as long as no sigma point's heading wraps around
        rng = np.random.default_rng(31)
        sigma_theta = rng.uniform(0.01, 0.999, 500) * math.pi / _GAMMA
        means, covs, obs, obs_var = self._random_states(rng, 500, sigma_theta)
        got_mean, got_cov = ukf_update_batch(means, covs, obs, obs_var)
        want_mean, want_cov = self._unscented_update(means, covs, obs, obs_var)
        gap = got_mean - want_mean
        gap[:, 2] = wrap_angles(gap[:, 2])
        assert np.abs(gap).max() <= 1e-12
        assert np.abs(got_cov - want_cov).max() <= 1e-12

    def test_is_the_joseph_form_posterior_past_pi(self):
        # headings far too uncertain for sigma points to stay within pi:
        # the update is still the exact linear-Gaussian posterior
        n = 200
        rng = np.random.default_rng(32)
        sigma_theta = np.geomspace(0.01, 10.0, n)
        means, covs, obs, obs_var = self._random_states(rng, n, sigma_theta)
        got_mean, got_cov = ukf_update_batch(means, covs, obs, obs_var)
        h = np.eye(6)[:3]
        for i in range(n):
            p, r = covs[i], np.diag(obs_var[i])
            k = p @ h.T @ np.linalg.inv(h @ p @ h.T + r)
            innovation = obs[i] - means[i, :3]
            innovation[2] = wrap_angle(innovation[2])
            want_mean = means[i] + k @ innovation
            want_mean[2] = wrap_angle(want_mean[2])
            i_kh = np.eye(6) - k @ h
            want_cov = i_kh @ p @ i_kh.T + k @ r @ k.T
            gap = got_mean[i] - want_mean
            gap[2] = wrap_angle(gap[2])
            assert np.abs(gap).max() <= 1e-9, i
            assert np.abs(got_cov[i] - want_cov).max() <= 1e-9, i
        # the sigma-point update would wrap its headings here, and give another posterior
        past_pi = _GAMMA * sigma_theta > math.pi
        want_mean, _ = self._unscented_update(means[past_pi], covs[past_pi], obs[past_pi], obs_var[past_pi])
        assert np.abs(wrap_angles(got_mean[past_pi, 2] - want_mean[:, 2])).max() > 0.1

    def test_trace_never_grows(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.normal(size=(6, 6))
            state = pose(mean=rng.normal(size=6), cov=a @ a.T + 0.1 * np.eye(6))
            var = BoxVariance(*rng.uniform(0.01, 2.0, 7))
            out = update(state, detection(*rng.normal(size=2), rng.uniform(-3, 3), var))
            assert np.trace(out[1]) <= np.trace(state[1]) + 1e-9

    @staticmethod
    def _rejects_without_change(bad_x):
        # a detection's variance, corrupted after validation: step() raises
        # before it touches any state, class codes included
        tracker = Tracker(TrackerConfig())
        for _ in range(3):
            tracker.step([detection(5.0, 5.0), detection(20.0, 0.0, class_id="Pedestrian")], 0.1)
        table, before, next_id = tracker.table, tracker.table.copy(), tracker._next_id
        assert tracker.class_names == ("Car", "Pedestrian")
        bad = BoxVariance(1, 1, 1, 1, 1, 1, 1)
        object.__setattr__(bad, "var_x", -1.0)
        with pytest.raises(ValueError):
            tracker.step([detection(-30.0, 0.0, class_id="Cyclist"), detection(bad_x, 5.0, variance=bad)], 0.1)
        assert tracker.table is table and tracker._next_id == next_id
        assert tracker.class_names == ("Car", "Pedestrian")
        assert np.array_equal(table, before)

    def test_bad_noise_rejected(self):
        self._rejects_without_change(5.0)  # would update the Car track

    def test_bad_noise_of_unmatched_detection_rejected(self):
        self._rejects_without_change(50.0)  # would spawn a track

    @pytest.mark.parametrize("dt", [0.0, -0.1, math.inf, math.nan])
    def test_bad_dt_rejected_without_change(self, dt):
        tracker = Tracker(TrackerConfig(t_init=1))
        tracker.step([detection(5.0, 5.0)], 0.1)
        table, before, next_id = tracker.table, tracker.table.copy(), tracker._next_id
        with pytest.raises(ValueError, match="dt"):
            tracker.step([detection(5.0, 5.0), detection(20.0, 0.0)], dt)
        assert tracker.table is table and tracker._next_id == next_id
        assert np.array_equal(table, before)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_process_noise_rejected(self, bad):
        q = (bad, *DEFAULT_PROCESS_DIAG[1:])
        with pytest.raises(ValueError, match="finite"):
            TrackerConfig(process_noise_diag=q)


class TestSizeUpdate:
    def test_halving(self):
        det = DetectionRecord(
            0, Box3D(0, 0, 0, 2.0, 2.0, 2.0, 0.0), BoxVariance(1, 1, 1, 1.0, 1.0, 1.0, 1)
        )
        mean, var = sizes((2.0, 2.0, 2.0), (1.0, 1.0, 1.0), det)
        assert mean[0] == pytest.approx(2.0)
        assert var[0] == pytest.approx(0.5)

    def test_uninformative(self):
        det = DetectionRecord(
            0, Box3D(0, 0, 0, 3.0, 5.0, 2.0, 0.0), BoxVariance(1, 1, 1, 1e12, 1e12, 1e12, 1)
        )
        mean, _ = sizes((2.0, 4.0, 1.5), (0.1, 0.1, 0.1), det)
        assert mean[0] == pytest.approx(2.0, abs=1e-4)

    def test_perfect_prior_ignores_measurement(self):
        det = DetectionRecord(0, Box3D(0, 0, 0, 3.0, 5.0, 2.0, 0.0), None)
        mean, _ = sizes((2.0, 4.0, 1.5), (0.0, 0.0, 0.0), det)
        assert tuple(mean) == (2.0, 4.0, 1.5)

    def test_posterior_variance_shrinks(self):
        det = DetectionRecord(0, Box3D(0, 0, 0, 2.1, 4.1, 1.4, 0.0), BoxVariance(1, 1, 1, 0.5, 0.5, 0.5, 1))
        _, var = sizes((2.0, 4.0, 1.5), (0.3, 0.3, 0.3), det)
        assert var[0] < 0.3 and var[1] < 0.3 and var[2] < 0.3


def all_allowed(cost):
    return np.ones(np.shape(cost), dtype=bool)


class TestHungarian:
    def test_two_by_two(self):
        cost = np.array([[1.0, 2.0], [2.0, 4.0]])
        pairs = hungarian_assign(cost, all_allowed(cost))
        assert sum(cost[i, j] for i, j in pairs) == pytest.approx(4.0)
        assert pairs == [(0, 1), (1, 0)]

    def test_diagonal_dominant(self):
        cost = np.ones((4, 4)) - np.eye(4)
        assert hungarian_assign(cost, all_allowed(cost)) == [(i, i) for i in range(4)]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for n in range(2, 8):
            for _ in range(20):
                cost = rng.uniform(0, 1, (n, n))
                pairs = hungarian_assign(cost, all_allowed(cost))
                got = sum(cost[i, j] for i, j in pairs)
                best = min(
                    sum(cost[i, p[i]] for i in range(n))
                    for p in itertools.permutations(range(n))
                )
                assert got == pytest.approx(best, abs=1e-12)

    def test_rectangular(self):
        cost = np.array([[1.0, 0.1, 5.0], [2.0, 3.0, 0.2]])
        pairs = hungarian_assign(cost, all_allowed(cost))
        assert len(pairs) == 2

    def test_rejects_nonfinite(self):
        cost = np.array([[np.inf, 1.0], [1.0, 2.0]])
        with pytest.raises(ValueError):
            hungarian_assign(cost, all_allowed(cost))


def brute_force_gated(cost, allowed):
    """(pair count, total cost) of the best matching: most allowed pairs, then least cost."""
    n_rows, n_cols = cost.shape
    best = (0, 0.0)
    for k in range(1, min(n_rows, n_cols) + 1):
        for rows in itertools.combinations(range(n_rows), k):
            for cols in itertools.permutations(range(n_cols), k):
                if all(allowed[r, c] for r, c in zip(rows, cols)):
                    total = sum(cost[r, c] for r, c in zip(rows, cols))
                    if k > best[0] or total < best[1]:
                        best = (k, total)
    return best


class TestGatedAssignment:
    def test_matches_brute_force_on_random_masks(self):
        rng = np.random.default_rng(11)
        for n_rows in range(1, 6):
            for n_cols in range(1, 6):
                for _ in range(12):
                    cost = rng.uniform(-1.0, 3.0, (n_rows, n_cols))
                    allowed = rng.uniform(size=cost.shape) < rng.uniform(0.2, 0.9)
                    pairs = hungarian_assign(cost, allowed)
                    assert all(allowed[r, c] for r, c in pairs)
                    assert [r for r, _ in pairs] == sorted({r for r, _ in pairs})
                    assert len({c for _, c in pairs}) == len(pairs)
                    count, total = brute_force_gated(cost, allowed)
                    assert len(pairs) == count
                    assert sum(cost[r, c] for r, c in pairs) == pytest.approx(total, abs=1e-12)

    def test_prefers_more_pairs_to_lower_cost(self):
        cost = np.array([[0.0, 1.0], [0.5, 9.0]])
        allowed = np.array([[True, True], [True, False]])
        assert hungarian_assign(cost, allowed) == [(0, 1), (1, 0)]

    def test_all_forbidden(self):
        cost = np.arange(6.0).reshape(2, 3)
        assert hungarian_assign(cost, np.zeros((2, 3), dtype=bool)) == []

    def test_forbidden_cells_never_read(self):
        cost = np.array([[np.nan, 1.0], [np.inf, 2.0]])
        assert hungarian_assign(cost, np.array([[False, True], [False, False]])) == [(0, 1)]

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_matrix(self, shape):
        assert hungarian_assign(np.zeros(shape), np.zeros(shape, dtype=bool)) == []

    def test_mask_shape_must_match(self):
        with pytest.raises(ValueError, match="shape"):
            hungarian_assign(np.zeros((2, 3)), np.ones((3, 2), dtype=bool))


def solver_path(cost, allowed):
    """hungarian_assign as it was before its shortcut: every non-empty mask goes to the solver."""
    if not allowed.any():
        return []
    rows, cols = linear_sum_assignment(np.where(allowed, cost, FORBIDDEN_COST))
    keep = allowed[rows, cols]
    return list(zip(rows[keep].tolist(), cols[keep].tolist()))


def sparse_mask(rng, shape, contested):
    """A random mask with no row or column holding two cells, plus one contested cell if asked.

    Some rows and columns stay empty; the contested cell shares a row
    or a column with a cell already set.
    """
    n_rows, n_cols = shape
    k = rng.integers(1, min(shape) + 1)
    allowed = np.zeros(shape, dtype=bool)
    rows, cols = rng.choice(n_rows, k, replace=False), rng.choice(n_cols, k, replace=False)
    allowed[rows, cols] = True
    if contested:
        r, c = rows[0], cols[0]
        free = [(r, j) for j in range(n_cols) if not allowed[r, j]] + [(i, c) for i in range(n_rows) if not allowed[i, c]]
        allowed[free[rng.integers(len(free))]] = True
    return allowed


class TestAssignmentShortcut:
    """Masks with no contested row or column skip the solver, and the result is the solver's."""

    CASES = [(s, c) for s in [(1, 1), (1, 6), (6, 1), (4, 4), (3, 9), (9, 3), (12, 12)] for c in (False, True)
             if max(s) > 1 or not c]  # a 1 x 1 mask has no second cell

    @pytest.mark.parametrize("shape, contested", CASES,
                             ids=[f"{r}x{c}-{'contested' if k else 'uncontested'}" for (r, c), k in CASES])
    def test_equals_the_solver_path(self, shape, contested, monkeypatch):
        rng = np.random.default_rng([*shape, int(contested)])
        calls = []
        monkeypatch.setattr("uatrack.assignment.linear_sum_assignment",
                            lambda m: calls.append(1) or linear_sum_assignment(m))
        for _ in range(40):
            cost = rng.uniform(-1.0, 3.0, shape)
            allowed = sparse_mask(rng, shape, contested)
            assert hungarian_assign(cost, allowed) == solver_path(cost, allowed)
        assert len(calls) == (40 if contested else 0)

    def test_empty_rows_and_columns(self):
        cost = np.arange(20.0).reshape(4, 5)
        allowed = np.zeros((4, 5), dtype=bool)
        allowed[3, 0] = allowed[0, 4] = True  # rows 1-2 and columns 1-3 empty
        assert hungarian_assign(cost, allowed) == solver_path(cost, allowed) == [(0, 4), (3, 0)]

    def test_checks_run_before_the_shortcut(self):
        allowed = np.eye(3, dtype=bool)
        with pytest.raises(ValueError, match="finite"):
            hungarian_assign(np.diag([1.0, np.inf, 2.0]), allowed)
        with pytest.raises(ValueError, match="shape"):
            hungarian_assign(np.zeros((3, 4)), allowed)
        with pytest.raises(ValueError, match="2D"):
            hungarian_assign(np.zeros(3), allowed[0])


def matched_pairs(t_xy, d_xy, t_cls, d_cls, gate):
    """associate's matches as (track, detection) pairs, and its unmatched detections, as lists."""
    ti, di, free_d = associate(t_xy, d_xy, t_cls, d_cls, gate)
    assert ti.dtype == di.dtype == free_d.dtype == np.intp
    return list(zip(ti.tolist(), di.tolist())), free_d.tolist()


class TestAssociate:
    def test_simple_match(self):
        matches, ud = matched_pairs(centers(0, 0), centers(0.1, 0.0), ["Car"], ["Car"], 2.0)
        assert matches == [(0, 0)] and not ud

    def test_gated_out(self):
        matches, ud = matched_pairs(centers(0, 0), centers(5.0, 0.0), ["Car"], ["Car"], 2.0)
        assert not matches and ud == [0]

    def test_class_separation(self):
        matches, _ = matched_pairs(centers(0, 0), centers(0.1, 0.0), ["Car"], ["Pedestrian"],
                                   TrackerConfig().gate_distance)
        assert not matches

    def test_crossing_matches_brute_force(self):
        rng = np.random.default_rng(8)
        cfg = TrackerConfig(gate_distance=50.0)
        for _ in range(50):
            tracks = rng.uniform(-5, 5, (3, 2))
            dets = rng.uniform(-5, 5, (3, 2))
            matches, _ = matched_pairs(tracks, dets, ["Car"] * 3, ["Car"] * 3, cfg.gate_distance)
            dist = np.array(
                [[math.hypot(t[0] - d[0], t[1] - d[1]) for d in dets] for t in tracks]
            )
            best = min(
                sum(dist[i, p[i]] for i in range(3)) for p in itertools.permutations(range(3))
            )
            got = sum(dist[i, j] for i, j in matches)
            assert got == pytest.approx(best, abs=1e-12)


def dense_associate(t_xy, d_xy, t_cls, d_cls, gate):
    """Reference matches: one LSAP on the full matrix, as _ref_associate solves it."""
    if not len(t_xy) or not len(d_xy):
        return []
    dist = np.hypot(t_xy[:, 0:1] - d_xy[None, :, 0], t_xy[:, 1:2] - d_xy[None, :, 1])
    allowed = (dist <= gate) & (np.asarray(t_cls)[:, None] == np.asarray(d_cls)[None, :])
    rows, cols = linear_sum_assignment(np.where(allowed, dist, 1e9))
    return [(ti, di) for ti, di in zip(rows.tolist(), cols.tolist()) if allowed[ti, di]]


def sparse_frame(rng, n_tracks, gate, offset=0.0, ties=False):
    """Tracks and detections at crowded density: two classes, clutter, and pairs exactly at the gate.

    With ties, centers lie on a 0.5 m grid and some detections are
    duplicated, so several matchings can share the best count and cost.
    """
    side = 10.0 * math.sqrt(n_tracks)
    t_xy = rng.uniform(0.0, side, (n_tracks, 2))
    seen = rng.permutation(n_tracks)[: int(0.9 * n_tracks)]
    d_xy = np.concatenate([t_xy[seen] + rng.normal(0.0, 0.8 * gate, (len(seen), 2)),
                           rng.uniform(0.0, side, (n_tracks // 4, 2))])
    t_cls = rng.integers(0, 2, n_tracks)
    d_cls = np.concatenate([t_cls[seen], rng.integers(0, 2, n_tracks // 4)])
    if ties:
        t_xy, d_xy = np.round(2.0 * t_xy) / 2.0, np.round(2.0 * d_xy) / 2.0
        dup = rng.integers(0, len(d_xy), n_tracks // 5)
        d_xy, d_cls = np.concatenate([d_xy, d_xy[dup]]), np.concatenate([d_cls, d_cls[dup]])
    # exactly at the gate along each axis, and one ulp beyond: the tracks sit
    # on a 1/64 m grid, so every sum here and with the offset is exact
    at = rng.choice(n_tracks, 4, replace=False)
    t_xy[at] = np.round(64.0 * t_xy[at]) / 64.0
    edge = t_xy[at] + [[gate, 0.0], [0.0, -gate], [-gate, 0.0], [0.0, gate]]
    edge[3, 1] = np.nextafter(edge[3, 1], np.inf)
    d_xy, d_cls = np.concatenate([d_xy, edge]), np.concatenate([d_cls, t_cls[at]])
    order = rng.permutation(len(d_xy))
    return t_xy + offset, d_xy[order] + offset, t_cls, d_cls[order]


class TestSparseAssociate:
    """The sparse gate against one LSAP on the full matrix."""

    GATE = 2.5

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    @pytest.mark.parametrize("n_tracks", [15, 60, 240])
    def test_matches_equal_dense(self, n_tracks, offset):
        rng = np.random.default_rng(n_tracks)
        contested = 0
        for _ in range(10):
            t_xy, d_xy, t_cls, d_cls = sparse_frame(rng, n_tracks, self.GATE, offset)
            want = dense_associate(t_xy, d_xy, t_cls, d_cls, self.GATE)
            matches, free_d = matched_pairs(t_xy, d_xy, t_cls, d_cls, self.GATE)
            assert matches == want
            assert free_d == sorted(set(range(len(d_xy))) - {d for _, d in want})
            dist = np.hypot(*(t_xy[:, None, :] - d_xy[None, :, :]).transpose(2, 0, 1))
            contested += int(((dist <= self.GATE).sum(axis=1) > 1).sum())
        assert contested > 0  # the frames reach the assignment step, not only direct matches

    def test_pairs_exactly_at_the_gate(self):
        for offset in (0.0, 1e6):
            t_xy = centers(offset + 1.0, offset + 2.0)
            d_xy = centers(offset + 3.5, offset + 2.0, offset + 1.0, np.nextafter(offset + 4.5, np.inf))
            matches, free_d = matched_pairs(t_xy, d_xy, [0], [0, 0], self.GATE)
            assert matches == [(0, 0)] and free_d == [1]
            matches, _ = matched_pairs(t_xy, d_xy[1:], [0], [0], self.GATE)
            assert matches == []

    @pytest.mark.parametrize("n_tracks", [15, 60, 240])
    def test_exact_ties_keep_count_and_cost(self, n_tracks):
        # where several matchings are optimal, the sparse gate may pick another one
        rng = np.random.default_rng(100 + n_tracks)
        for _ in range(10):
            t_xy, d_xy, t_cls, d_cls = sparse_frame(rng, n_tracks, self.GATE, ties=True)
            want = dense_associate(t_xy, d_xy, t_cls, d_cls, self.GATE)
            matches, _ = matched_pairs(t_xy, d_xy, t_cls, d_cls, self.GATE)

            def total(pairs):
                return math.fsum(math.hypot(*(t_xy[t] - d_xy[d])) for t, d in pairs)

            assert len(matches) == len(want)
            assert total(matches) == pytest.approx(total(want), rel=1e-12)
            assert all(t_cls[t] == d_cls[d] and math.hypot(*(t_xy[t] - d_xy[d])) <= self.GATE for t, d in matches)
            assert len({t for t, _ in matches}) == len({d for _, d in matches}) == len(matches)

    @pytest.mark.parametrize("n_tracks, n_dets", [(0, 3), (3, 0), (0, 0)])
    def test_empty_side(self, n_tracks, n_dets):
        t_xy, d_xy = np.zeros((n_tracks, 2)), np.zeros((n_dets, 2))
        assert matched_pairs(t_xy, d_xy, [0] * n_tracks, [0] * n_dets, self.GATE) == ([], list(range(n_dets)))


class TestTrackerLifecycle:
    def _stationary_det(self, score=0.9):
        return detection(10.0, 5.0, 0.2, BoxVariance(0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.001), score=score)

    def test_empty_in_empty_out(self):
        tracker = Tracker(TrackerConfig())
        assert tracker.step([], 0.1) == []

    def test_empty_step_on_an_empty_table_returns_at_once(self, monkeypatch):
        import uatrack.tracker as tracker_module

        tracker = Tracker(TrackerConfig(t_drop=2))
        tracker.step([detection(10.0, 5.0)], 0.1)
        while len(tracker.table):
            tracker.step([], 0.1)
        table, class_names, next_id = tracker.table, tracker.class_names, tracker._next_id
        assert class_names == ("Car",) and next_id == 2

        def called(*args, **kwargs):
            raise AssertionError("an empty step reached the filter or the association")

        monkeypatch.setattr(tracker_module, "ukf_predict_batch", called)
        monkeypatch.setattr(tracker_module, "associate", called)
        for _ in range(3):
            assert tracker.step([], 0.1) == []
        assert tracker.table is table and tracker.class_names == class_names and tracker._next_id == next_id
        with pytest.raises(ValueError, match="dt"):
            tracker.step([], 0.0)

    def test_class_codes_index_class_names(self):
        tracker = Tracker(TrackerConfig(t_init=1))
        out = tracker.step([detection(0.0, 0.0, class_id="Pedestrian"), detection(10.0, 0.0),
                            detection(20.0, 0.0, class_id="Pedestrian")], 0.1)
        assert tracker.class_names == ("Pedestrian", "Car")
        assert tracker.table[:, _CLASS].tolist() == [0, 1, 0]
        assert [t.class_id for t in out] == ["Pedestrian", "Car", "Pedestrian"]
        out = tracker.step([detection(10.0, 0.0), detection(40.0, 0.0, class_id="Cyclist")], 0.1)
        assert tracker.class_names == ("Pedestrian", "Car", "Cyclist")
        assert [t.class_id for t in out] == ["Pedestrian", "Car", "Pedestrian", "Cyclist"]

    def test_confirmation_at_t_init(self):
        cfg = TrackerConfig(t_init=3, t_drop=5)
        tracker = Tracker(cfg)
        outputs = [tracker.step([self._stationary_det()], 0.1) for _ in range(5)]
        assert [len(o) for o in outputs] == [0, 0, 1, 1, 1]
        ids = {o[0].id for o in outputs[2:]}
        assert len(ids) == 1

    def test_drop_after_t_drop_and_new_id(self):
        cfg = TrackerConfig(t_init=1, t_drop=3)
        tracker = Tracker(cfg)
        first = tracker.step([self._stationary_det()], 0.1)
        assert len(first) == 1
        first_id = first[0].id
        for _ in range(3):
            tracker.step([], 0.1)
        assert len(tracker.table) == 0
        again = tracker.step([self._stationary_det()], 0.1)
        assert len(again) == 1
        assert again[0].id != first_id

    def test_ids_strictly_increasing(self):
        tracker = Tracker(TrackerConfig(t_init=1))
        a = tracker.step([self._stationary_det()], 0.1)[0].id
        b = tracker.step([self._stationary_det(), detection(50.0, 50.0, 0.0)], 0.1)
        ids = sorted(tracker.table[:, _ID])
        assert ids[0] == a and ids[-1] > a

    def test_miss_resets_consecutive_hits(self):
        cfg = TrackerConfig(t_init=3, t_drop=10)
        tracker = Tracker(cfg)
        tracker.step([self._stationary_det()], 0.1)
        tracker.step([self._stationary_det()], 0.1)
        tracker.step([], 0.1)  # interrupt the run of hits
        out = tracker.step([self._stationary_det()], 0.1)
        assert out == []  # consecutive count restarted

    @staticmethod
    def _unchanged(tracker, state):
        table, before, class_names, next_id = state
        assert tracker.table is table and tracker.class_names == class_names and tracker._next_id == next_id
        assert np.array_equal(table, before)

    @staticmethod
    def _state(tracker):
        return tracker.table, tracker.table.copy(), tracker.class_names, tracker._next_id

    def test_non_finite_update_rejected_without_change(self, monkeypatch):
        import uatrack.tracker as tracker_module

        tracker = Tracker(TrackerConfig(t_init=1))
        tracker.step([detection(5.0, 5.0), detection(20.0, 0.0)], 0.1)
        state = self._state(tracker)
        update = tracker_module.ukf_update_batch

        def nan_update(*args):
            means, covs = update(*args)
            means[0, 1] = math.nan
            return means, covs

        monkeypatch.setattr(tracker_module, "ukf_update_batch", nan_update)
        with pytest.raises(ValueError, match="finite"):
            tracker.step([detection(5.0, 5.0), detection(40.0, 0.0, class_id="Pedestrian")], 0.1)
        self._unchanged(tracker, state)
        monkeypatch.setattr(tracker_module, "ukf_update_batch", update)
        assert len(tracker.step([detection(5.0, 5.0)], 0.1)) == 2

    # Rows Box3D and BoxVariance pass whose filter state overflows at the first predict: a variance
    # whose deviations square past the float range, and an x whose ulp-level deviations do.
    @pytest.mark.parametrize("x, var_x", [(1.0, 1.7e308), (1.79e308, 0.1)], ids=["var_x", "x"])
    def test_state_that_overflows_rejected_without_change(self, x, var_x):
        var = np.full((1, 7), 0.1)
        var[0, 0] = var_x
        block = DetectionColumns(np.zeros(1, np.int64), np.array(["Car"], dtype=object),
                                 np.array([[x, 2.0, 0.0, 1.8, 4.2, 1.5, 0.3, 0.9]]), var)
        tracker = Tracker(TrackerConfig())
        assert tracker.step(block, 0.1) == []
        state = self._state(tracker)
        # no RuntimeWarning escapes first: pyproject.toml's error::RuntimeWarning filter would raise it
        with pytest.raises(ValueError, match="track state is not finite"):
            tracker.step(block, 0.1)
        self._unchanged(tracker, state)
        with pytest.raises(ValueError, match="frame 1: track state is not finite"):
            track_frames([block] * 6, TrackerConfig(), 0.1)

    @pytest.mark.parametrize("column, value, error", [
        (0, math.nan, "box values must be finite"), (7, math.inf, "box values must be finite"),
        (4, 0.0, "box dimensions must be positive"), (5, -1.0, "box dimensions must be positive"),
    ])
    def test_bad_block_row_rejected_without_change(self, column, value, error):
        from uatrack.boxes import DetectionColumns

        tracker = Tracker(TrackerConfig(t_init=1))
        tracker.step([detection(5.0, 5.0)], 0.1)
        state = self._state(tracker)
        block = DetectionColumns.of([detection(5.0, 5.0), detection(30.0, 0.0, class_id="Cyclist"),
                                     detection(60.0, 0.0)])
        block.rows[1, column] = value
        with pytest.raises(ValueError, match=error):
            tracker.step(block, 0.1)
        self._unchanged(tracker, state)

    def test_constant_sigma_config(self):
        cfg = constant_sigma_config(TrackerConfig(), 0.5)
        assert not cfg.use_detection_covariance
        assert cfg.default_obs_sigma == (0.5,) * 7
        with pytest.raises(ValueError):
            constant_sigma_config(TrackerConfig(), 0.0)


class TestLifecycleOrder:
    """step() keeps the surviving rows first, in their order, then spawns one row per unmatched detection."""

    def test_survivors_then_spawns_in_detection_order(self, monkeypatch):
        import uatrack.tracker as tracker_module

        sc = generate_scenario(ScenarioConfig(n_targets=6, n_frames=40, fp_rate=0.5, fn_rate=0.3, seed=5))
        tracker = Tracker(TrackerConfig(t_init=2, t_drop=2))
        tracker._next_id = 2**40 + 7  # ids with high bits set
        seen = []

        def spy(*args):
            seen.append(associate(*args))
            return seen[-1]

        monkeypatch.setattr(tracker_module, "associate", spy)
        events = {"drop": 0, "spawn": 0, "confirm": 0}
        for k, frame in enumerate(sc.detections):
            before, next_id = tracker.table.copy(), tracker._next_id
            seen.clear()
            tracker.step(frame, 0.1)
            table = tracker.table
            # surviving rows come first, in their order, with their ids and class codes
            kept = np.isin(before[:, _ID], table[:, _ID])
            old, new = table[:kept.sum()], table[kept.sum():]
            assert old[:, [_ID, _CLASS]].tobytes() == before[kept][:, [_ID, _CLASS]].tobytes(), k
            # spawned rows follow in detection order, with consecutive ids from the counter
            free = seen[0][2] if seen else np.zeros(0, np.intp)  # an empty step on an empty table associates nothing
            assert new[:, _ID].tolist() == list(range(next_id, next_id + len(free))), k
            assert new[:, _MEAN][:, :2].tobytes() == frame.rows[free, :2].tobytes(), k
            assert tracker._next_id == next_id + len(free)
            codes = {name: code for code, name in enumerate(tracker.class_names)}
            assert new[:, _CLASS].tolist() == [codes[name] for name in frame.class_id[free].tolist()], k
            events["drop"] += int((~kept).sum())
            events["spawn"] += len(new) if k else 0
            events["confirm"] += int((old[:, _CONFIRMED] > before[kept][:, _CONFIRMED]).sum())
        assert all(events.values()), events


class TestCovarianceHealth:
    def test_random_steps_keep_psd(self):
        rng = np.random.default_rng(17)
        cfg = TrackerConfig()
        state = pose(cov=np.diag([0.5, 0.5, 0.1, 4.0, 1.0, 0.05]))
        for i in range(1000):
            state = predict(state, 0.1, np.diag(cfg.process_noise_diag))
            if i % 2 == 0:
                var = BoxVariance(*rng.uniform(0.005, 3.0, 7))
                det = detection(
                    state[0][0] + rng.normal(0, 0.5),
                    state[0][1] + rng.normal(0, 0.5),
                    state[0][2] + rng.normal(0, 0.2),
                    var,
                )
                state = update(state, det)
            cov = state[1]
            assert np.max(np.abs(cov - cov.T)) < 1e-9
            assert np.linalg.eigvalsh(cov).min() > -1e-9


# --- reference: the per-track object bookkeeping the track table replaced ---


@dataclass
class _RefTrack:
    id: int
    class_id: str
    mean: np.ndarray
    cov: np.ndarray
    size: tuple
    size_var: tuple
    z_latest: float
    h_latest: float
    hits: int = 1
    misses: int = 0
    confirmed: bool = False
    score: float = 1.0

    def set_pose(self, mean, cov):
        # copy, re-wrap theta and symmetrize after every batch call
        self.mean = np.asarray(mean, dtype=float).copy()
        self.cov = np.asarray(cov, dtype=float).copy()
        self.mean[2] = wrap_angle(self.mean[2])
        self.cov = 0.5 * (self.cov + self.cov.T)


def _ref_noise(det, cfg):
    if cfg.use_detection_covariance and det.variance is not None:
        return det.variance
    return BoxVariance(*(s * s for s in cfg.default_obs_sigma))


def _ref_size_update(track, det, cfg):
    v = _ref_noise(det, cfg)
    out_mean, out_var = [], []
    for prior, pv, z, rv in zip(track.size, track.size_var, (det.box.w, det.box.l, det.box.h),
                                (v.var_w, v.var_l, v.var_h)):
        if pv <= 0.0:
            out_mean.append(prior)
            out_var.append(pv)
            continue
        k = pv / (pv + rv)
        out_mean.append(prior + k * (z - prior))
        out_var.append((1.0 - k) * pv)
    return tuple(out_mean), tuple(out_var)


def _ref_associate(tracks, dets, cfg):
    if not tracks or not dets:
        return [], list(range(len(tracks))), list(range(len(dets)))
    t_xy = np.array([[float(t.mean[0]), float(t.mean[1])] for t in tracks])
    d_xy = np.array([[d.box.x, d.box.y] for d in dets])
    dist = np.hypot(t_xy[:, 0:1] - d_xy[None, :, 0], t_xy[:, 1:2] - d_xy[None, :, 1])
    t_cls = np.array([t.class_id for t in tracks])
    d_cls = np.array([d.box.class_id for d in dets])
    allowed = (dist <= cfg.gate_distance) & (t_cls[:, None] == d_cls[None, :])
    rows, cols = linear_sum_assignment(np.where(allowed, dist, 1e9))  # the reference's own forbidden cost
    matches = [(ti, di) for ti, di in zip(rows.tolist(), cols.tolist()) if allowed[ti, di]]
    return (matches, [i for i in range(len(tracks)) if i not in {m[0] for m in matches}],
            [i for i in range(len(dets)) if i not in {m[1] for m in matches}])


class ReferenceTracker:
    """One object per track, unpacked and repacked around the batch filter."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.tracks = []
        self.next_id = 1

    def _spawn(self, det):
        b, var = det.box, _ref_noise(det, self.cfg)
        track = _RefTrack(self.next_id, b.class_id, None, None, (b.w, b.l, b.h),
                          (var.var_w, var.var_l, var.var_h), b.z, b.h, score=b.score)
        track.set_pose(np.array([b.x, b.y, b.theta, 0.0, 0.0, 0.0]),
                       np.diag([var.var_x, var.var_y, var.var_theta,
                                PRIOR_SPEED_STD**2, PRIOR_ACCEL_STD**2, PRIOR_TURN_STD**2]))
        self.next_id += 1
        return track

    def step(self, detections, dt):
        cfg = self.cfg
        if self.tracks:
            means, covs = ukf_predict_batch(np.stack([t.mean for t in self.tracks]),
                                            np.stack([t.cov for t in self.tracks]), dt,
                                            np.diag(cfg.process_noise_diag))
            for i, track in enumerate(self.tracks):
                track.set_pose(means[i], covs[i])
        matches, unmatched_t, unmatched_d = _ref_associate(self.tracks, detections, cfg)
        if matches:
            obs = np.array([[detections[di].box.x, detections[di].box.y, detections[di].box.theta]
                            for _, di in matches])
            obs_var = np.array([[_ref_noise(detections[di], cfg).var_x, _ref_noise(detections[di], cfg).var_y,
                                 _ref_noise(detections[di], cfg).var_theta] for _, di in matches])
            means, covs = ukf_update_batch(np.stack([self.tracks[ti].mean for ti, _ in matches]),
                                           np.stack([self.tracks[ti].cov for ti, _ in matches]), obs, obs_var)
            for row, (ti, di) in enumerate(matches):
                det, track = detections[di], self.tracks[ti]
                track.set_pose(means[row], covs[row])
                track.size, track.size_var = _ref_size_update(track, det, cfg)
                track.z_latest, track.h_latest = det.box.z, det.box.h
                track.hits += 1
                track.misses = 0
                track.score = SCORE_SMOOTHING * track.score + (1.0 - SCORE_SMOOTHING) * det.box.score
        for ti in unmatched_t:
            self.tracks[ti].misses += 1
            self.tracks[ti].hits = 0
        self.tracks = [t for t in self.tracks if t.misses < cfg.t_drop]
        self.tracks += [self._spawn(detections[di]) for di in unmatched_d]
        for track in self.tracks:
            track.confirmed = track.confirmed or track.hits >= cfg.t_init
        return [(t.id, Box3D(float(t.mean[0]), float(t.mean[1]), t.z_latest, t.size[0], t.size[1], t.h_latest,
                             float(t.mean[2]), class_id=t.class_id, score=t.score))
                for t in self.tracks if t.confirmed]


def oracle_frames(seed, n_frames=80):
    """Seeded detections: two classes, births and deaths, misses, clutter,
    empty frames, detections without variance, and one target whose heading
    crosses +-pi."""
    rng = np.random.default_rng(seed)
    targets = []
    for k in range(9):
        state = np.array([*rng.uniform(-40, 40, 2), rng.uniform(-math.pi, math.pi), rng.uniform(0, 8),
                          0.0, rng.normal(0, 0.15)])
        born = int(rng.integers(0, n_frames // 2))
        targets.append(("Pedestrian" if k % 3 == 0 else "Car", state, born, born + int(rng.integers(15, n_frames))))
    # turning left through theta = pi at about frame 17
    targets.append(("Car", np.array([0.0, 0.0, math.pi - 1.0, 4.0, 0.0, 0.6]), 0, n_frames))
    frames = []
    for f in range(n_frames):
        dets = []
        for i, (cls, state, born, dies) in enumerate(targets):
            if born <= f < dies and f % 23 != 5 and rng.uniform() < 0.85:
                var = BoxVariance(*rng.uniform(0.001, 0.3, 7))
                noise = rng.normal(0.0, np.sqrt(var.as_tuple()))
                w, l, h = np.array([1.8, 4.2, 1.5]) * np.exp(noise[3:6])
                box = Box3D(state[0] + noise[0], state[1] + noise[1], 0.8 + noise[2], w, l, h,
                            state[2] + noise[6], class_id=cls,
                            score=float(rng.uniform(0.3, 1.0)))
                dets.append(DetectionRecord(0, box, var if rng.uniform() < 0.9 else None))
            targets[i] = (cls, ctra_step(state, 0.1), born, dies)
        for _ in range(rng.poisson(0.6) if f % 23 != 5 else 0):
            box = Box3D(*rng.uniform(-40, 40, 2), 0.8, 1.8, 4.2, 1.5, rng.uniform(-math.pi, math.pi),
                        class_id=str(rng.choice(["Car", "Pedestrian"])), score=float(rng.uniform(0.1, 0.6)))
            dets.append(DetectionRecord(0, box, BoxVariance(*rng.uniform(0.01, 1.0, 7))))
        if f % 23 != 5:
            # driving along -x, heading one ulp past pi: Box3D wraps that to -pi
            dets.append(DetectionRecord(0, Box3D(12.0 - 0.3 * f + rng.normal(0, 0.1), -30.0, 0.8, 1.8, 4.2,
                                                 1.5, 3.1415926535897936), BoxVariance(*[0.01] * 7)))
        frames.append([dets[i] for i in rng.permutation(len(dets))])
    return frames


def sim_frames(seed):
    cfg = ScenarioConfig(n_targets=12, n_frames=60, seed=seed, fp_rate=0.1, fn_rate=0.1,
                         noise_range_coeff=(0.01, 0.01, 0.005, 0.002, 0.002, 0.002, 0.004))
    return generate_scenario(cfg).detections


ORACLE_CFGS = {
    "adaptive": TrackerConfig(),
    "sigma=0.5": constant_sigma_config(TrackerConfig(), 0.5),
    "t_init=1": TrackerConfig(t_init=1, t_drop=2),
    "sigma=0.3,t_init=1": constant_sigma_config(TrackerConfig(t_init=1, t_drop=3, gate_distance=4.0), 0.3),
}


def _bits(frame):
    return [(tid, b.class_id, *(float(v).hex() for v in (b.x, b.y, b.z, b.w, b.l, b.h, b.theta, b.score)))
            for tid, b in frame]


def _block_bits(block, n_frames):
    """A track block as _bits gives the (id, box) list of each of frames 0 to n_frames - 1."""
    frames = [[] for _ in range(n_frames)]
    for f, tid, cls, row in zip(block.frame.tolist(), block.track_id.tolist(), block.class_id.tolist(),
                                block.rows.tolist()):
        frames[f].append((tid, cls, *(float(v).hex() for v in row)))
    return frames


def _run_both(frames, cfg):
    tracker, reference = Tracker(cfg), ReferenceTracker(cfg)
    for frame in frames:
        got = [(t.id, t.to_box()) for t in tracker.step(frame, 0.1)]
        want = reference.step(frame, 0.1)
        assert _bits(got) == _bits(want)
        yield want


class TestOracle:
    """The track table reports bitwise what per-track objects did."""

    @pytest.mark.parametrize("cfg", ORACLE_CFGS.values(), ids=ORACLE_CFGS.keys())
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_reference(self, cfg, seed):
        for _ in _run_both(oracle_frames(seed), cfg):
            pass

    @pytest.mark.parametrize("cfg", ORACLE_CFGS.values(), ids=ORACLE_CFGS.keys())
    def test_simulated_scenario_equals_reference(self, cfg):
        for _ in _run_both(sim_frames(5), cfg):
            pass

    @pytest.mark.parametrize("cfg", ORACLE_CFGS.values(), ids=ORACLE_CFGS.keys())
    def test_block_equals_its_records(self, cfg):
        frames = sim_frames(5)
        assert all(isinstance(frame, DetectionColumns) for frame in frames)
        by_block, by_records = Tracker(cfg), Tracker(cfg)
        for frame in frames:
            got = [(t.id, t.to_box()) for t in by_block.step(frame, 0.1)]
            want = [(t.id, t.to_box()) for t in by_records.step(list(frame), 0.1)]
            assert _bits(got) == _bits(want)
        assert by_block.table.tobytes() == by_records.table.tobytes()
        assert by_block.class_names == by_records.class_names and by_block._next_id == by_records._next_id

    @pytest.mark.parametrize("cfg", ORACLE_CFGS.values(), ids=ORACLE_CFGS.keys())
    def test_mixed_records_track_as_with_the_default_written_in(self, cfg):
        # oracle_frames gives about a tenth of the targets' records no variance
        default = BoxVariance(*(s * s for s in cfg.default_obs_sigma))
        mixed, filled = Tracker(cfg), Tracker(cfg)
        frames = oracle_frames(1)
        assert sum(len({d.variance is None for d in frame}) == 2 for frame in frames) > 10
        for frame in frames:
            got = [(t.id, t.to_box()) for t in mixed.step(frame, 0.1)]
            want = [(t.id, t.to_box()) for t in filled.step([d if d.variance is not None else
                                                             replace(d, variance=default) for d in frame], 0.1)]
            assert _bits(got) == _bits(want)
            assert mixed.table.tobytes() == filled.table.tobytes()
        assert mixed.class_names == filled.class_names and mixed._next_id == filled._next_id

    def test_boxes_pass_the_checks_they_skip(self):
        # theta comes out of wrap_angles, so a checked Box3D of the same values holds the same bits
        tracker = Tracker(ORACLE_CFGS["t_init=1"])
        for frame in sim_frames(5):
            for track in tracker.step(frame, 0.1):
                box = track.to_box()
                checked = Box3D(*box_values(box), class_id=box.class_id, score=box.score)
                assert repr(checked) == repr(box) and checked == box and hash(checked) == hash(box)

    def test_sim_blocks_track_without_building_a_detection_box(self, monkeypatch):
        frames = sim_frames(5)
        want = track_frames(frames, ORACLE_CFGS["adaptive"], 0.1)

        def refuse(self):
            raise AssertionError("a Box3D was built")

        monkeypatch.setattr(Box3D, "__post_init__", refuse)
        got = track_frames(frames, ORACLE_CFGS["adaptive"], 0.1)
        assert _block_bits(got, len(frames)) == _block_bits(want, len(frames))
        assert len(got) > 0

    @pytest.mark.parametrize("cfg", ORACLE_CFGS.values(), ids=ORACLE_CFGS.keys())
    @pytest.mark.parametrize("seed", range(3))
    def test_track_frames_block_equals_reference(self, cfg, seed):
        frames = oracle_frames(seed)
        block = track_frames(frames, cfg, 0.1)
        reference = ReferenceTracker(cfg)
        assert _block_bits(block, len(frames)) == [_bits(reference.step(frame, 0.1)) for frame in frames]
        assert block.frame.dtype == np.int64 and block.rows.shape == (len(block), 8)
        assert {type(i) for i in block.track_id.tolist()} == {int}

    def test_no_frames_is_an_empty_block(self):
        block = track_frames([], ORACLE_CFGS["adaptive"], 0.1)
        shapes = block.frame.shape, block.track_id.shape, block.class_id.shape, block.rows.shape
        assert shapes == ((0,), (0,), (0,), (0, 8))

    def test_inputs_exercise_the_hard_cases(self):
        for seed in range(3):
            frames = oracle_frames(seed)
            assert any(not frame for frame in frames)
            assert any(d.variance is None for frame in frames for d in frame)
            out = list(_run_both(frames, ORACLE_CFGS["t_init=1"]))
            classes = {b.class_id for frame in out for _, b in frame}
            assert classes == {"Car", "Pedestrian"}
            ids_per_frame = [{tid for tid, _ in frame} for frame in out]
            # tracks end (dropped) and begin (spawned) mid-sequence
            assert any(a - b for a, b in zip(ids_per_frame, ids_per_frame[1:]))
            assert any(b - a for a, b in zip(ids_per_frame, ids_per_frame[1:]))
            # one track reports headings on both sides of +-pi
            by_id = {}
            for frame in out:
                for tid, b in frame:
                    by_id.setdefault(tid, []).append(b.theta)
            assert any(max(t) > 3.0 and min(t) < -3.0 for t in by_id.values())

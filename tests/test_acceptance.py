"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines as they complete.
"""

import itertools
import math
import time

import numpy as np
import pytest

from uatrack.assignment import hungarian_assign
from uatrack.boxes import (
    Anchor,
    Box3D,
    BoxVariance,
    DetectionRecord,
    EncodedLogVar,
    EncodedTarget,
    box_values,
    decode_box,
    decode_variance,
)
from uatrack.checks import golden_section_min, run_loss_checks
from uatrack.cli import main as cli_main
from uatrack.geometry import RotatedRect, iou_bev, rotated_intersection_area
from uatrack.losses import GaussianNllConfig, VonMisesNllConfig, gaussian_nll, von_mises_nll
from uatrack.metrics import EvalConfig, detection_pr
from uatrack.scoring import (
    AggregateMode,
    NmsConfig,
    ScoreMapConfig,
    ScoreStrategy,
    map_uncertainty_to_logscore,
    nms,
    score_detection,
)
from uatrack.sim import ScenarioConfig, generate_scenario
from uatrack.special import bessel_i0, log_bessel_i0
from uatrack.tracker import TrackerConfig, ukf_predict_batch, ukf_update_batch
from uatrack.experiments import compare_adaptive_vs_constant

from test_special import i0_power_series
from test_geometry import raster_intersection


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# --- criterion 1: loss correctness through check-losses --------------------

def test_criterion_1_loss_correctness():
    t0 = time.perf_counter()
    results = run_loss_checks(seed=0)
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in results) and elapsed < 5.0
    report(
        "criterion-1 loss-correctness",
        ok,
        f"{sum(r.passed for r in results)}/{len(results)} checks passed in {elapsed:.2f} s (< 5 s)",
    )


# --- criterion 2: Bessel accuracy -------------------------------------------

def test_criterion_2_bessel_accuracy():
    rng = np.random.default_rng(100)
    worst = 0.0
    for kappa in rng.uniform(0.0, 50.0, 1000):
        k = float(kappa)
        expected = i0_power_series(k)
        worst = max(worst, abs(bessel_i0(k) - expected) / expected)
    series_ok = worst < 1e-10

    # 50-digit reference values of log I0 in the asymptotic regime
    references = {100.0: 96.77973268994258, 500.0: 495.9740076681067, 700.0: 695.8056999984434}
    log_ok = True
    worst_log = 0.0
    for kappa, expected in references.items():
        value = log_bessel_i0(kappa)
        rel = abs(value - expected) / abs(expected)
        worst_log = max(worst_log, rel)
        log_ok = log_ok and math.isfinite(value) and rel < 1e-8
    report(
        "criterion-2 bessel-accuracy",
        series_ok and log_ok,
        f"series worst rel {worst:.2e} (< 1e-10); log-asymptotic worst rel {worst_log:.2e} (< 1e-8)",
    )


# --- criterion 3: regularization behavior -----------------------------------

def test_criterion_3_regularization():
    worst_shift = 0.0
    for d in (0.5, 1.0, 2.0):
        for lam in (0.5, 1.0, 2.0):
            lo = golden_section_min(lambda s: gaussian_nll(d, 0.0, s, GaussianNllConfig(lam)).value, -10, 10)
            hi = golden_section_min(lambda s: gaussian_nll(d, 0.0, s, GaussianNllConfig(2 * lam)).value, -10, 10)
            worst_shift = max(worst_shift, abs((hi - lo) + math.log(2.0)))
    shift_ok = worst_shift < 1e-6

    delta = math.acos(0.5)
    minima = [
        golden_section_min(
            lambda s: von_mises_nll(delta, 0.0, s, VonMisesNllConfig(lambda_v=lam, s0=1.0)).value, -10, 10
        )
        for lam in (0.5, 1.0, 2.0)
    ]
    monotone_ok = minima[0] > minima[1] > minima[2]
    report(
        "criterion-3 regularization",
        shift_ok and monotone_ok,
        f"lambda-doubling shift dev {worst_shift:.2e} (< 1e-6); "
        f"von-Mises minima {minima[0]:.4f} > {minima[1]:.4f} > {minima[2]:.4f}",
    )


# --- criterion 4: rotated geometry vs rasterization oracle ------------------

def test_criterion_4_geometry_oracle():
    # analytic: intersection 2(sqrt(2)-1) against union 2 - 2(sqrt(2)-1)
    # simplifies to exactly 1/sqrt(2) = 0.7071067811865476
    octagon = iou_bev(Box3D(0, 0, 0, 1, 1, 1, 0), Box3D(0, 0, 0, 1, 1, 1, math.pi / 4))
    octagon_ok = abs(octagon - 0.7071067811865476) < 1e-6

    rng = np.random.default_rng(200)
    worst = 0.0
    checked = 0
    for _ in range(500):
        a = RotatedRect(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                        rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0), rng.uniform(-math.pi, math.pi))
        b = RotatedRect(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6),
                        rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0), rng.uniform(-math.pi, math.pi))
        got = rotated_intersection_area(a, b)
        want = raster_intersection(a, b)
        err = abs(got - want)
        if err > 1e-4:
            worst = max(worst, err / max(want, 1e-12))
        checked += 1
        if worst > 5e-3:
            break
    ok = octagon_ok and worst <= 5e-3
    report(
        "criterion-4 geometry-oracle",
        ok,
        f"octagon IoU {octagon:.6f} (0.707107 +- 1e-6); raster worst rel {worst:.2e} over {checked} pairs (< 0.5%)",
    )


# --- criterion 5: assignment optimality --------------------------------------

def test_criterion_5_assignment_optimality():
    rng = np.random.default_rng(300)
    exact = 0
    total = 0
    for n in range(2, 8):
        for _ in range(100):
            cost = rng.uniform(0.0, 1.0, (n, n))
            pairs = hungarian_assign(cost, np.ones((n, n), dtype=bool))
            got = sum(cost[i, j] for i, j in pairs)
            best = min(sum(cost[i, p[i]] for i in range(n)) for p in itertools.permutations(range(n)))
            total += 1
            if abs(got - best) < 1e-12:
                exact += 1
    report("criterion-5 assignment-optimality", exact == total, f"{exact}/{total} matrices exactly optimal (n in 2..7)")


# --- criterion 6: filter consistency ------------------------------------------

def _predict(state, dt, q):
    mean, cov = ukf_predict_batch(state[0][None], state[1][None], dt, q)
    return mean[0], cov[0]


def _update(state, det):
    b, v = det.box, det.variance
    mean, cov = ukf_update_batch(state[0][None], state[1][None], np.array([[b.x, b.y, b.theta]]),
                                 np.array([[v.var_x, v.var_y, v.var_theta]]))
    return mean[0], cov[0]


def test_criterion_6_filter_consistency():
    # linear regime: theta, a, omega pinned with zero variance
    theta0 = -0.7
    dt = 0.1
    mean = np.array([0.0, 0.0, theta0, 4.0, 0.0, 0.0])
    cov = np.diag([0.4, 0.9, 0.0, 2.0, 0.0, 0.0])
    q = np.diag([0.02, 0.02, 0.0, 0.2, 0.0, 0.0])
    state = (mean, cov)
    f_lin = np.eye(3)
    f_lin[0, 2] = math.cos(theta0) * dt
    f_lin[1, 2] = math.sin(theta0) * dt
    h_lin = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    r_lin = np.diag([0.3, 0.5])
    x = mean[[0, 1, 3]].copy()
    p = cov[np.ix_([0, 1, 3], [0, 1, 3])].copy()
    rng = np.random.default_rng(400)
    cfg = TrackerConfig()
    worst = 0.0
    for step in range(100):
        state = _predict(state, dt, q)
        x = f_lin @ x
        p = f_lin @ p @ f_lin.T + q[np.ix_([0, 1, 3], [0, 1, 3])] * dt
        z = np.array([x[0] + rng.normal(0, 0.3), x[1] + rng.normal(0, 0.5)])
        det = DetectionRecord(
            0, Box3D(z[0], z[1], 0.75, 1.8, 4.2, 1.5, theta0),
            BoxVariance(0.3, 0.5, 1.0, 1.0, 1.0, 1.0, 1e12),
        )
        state = _update(state, det)
        s_mat = h_lin @ p @ h_lin.T + r_lin
        k_gain = p @ h_lin.T @ np.linalg.inv(s_mat)
        x = x + k_gain @ (z - h_lin @ x)
        p = p - k_gain @ s_mat @ k_gain.T
        worst = max(
            worst,
            float(np.max(np.abs(state[0][[0, 1, 3]] - x))),
            float(np.max(np.abs(state[1][np.ix_([0, 1, 3], [0, 1, 3])] - p))),
        )
    linear_ok = worst < 1e-8

    # covariance health across 1e4 randomized predict/update steps
    rng = np.random.default_rng(401)
    state = (np.zeros(6), np.diag([0.5, 0.5, 0.1, 4.0, 1.0, 0.05]))
    worst_asym = 0.0
    worst_eig = 0.0
    for i in range(10_000):
        state = _predict(state, 0.1, np.diag(cfg.process_noise_diag))
        if i % 2 == 0:
            det = DetectionRecord(
                0, Box3D(state[0][0] + rng.normal(0, 0.6), state[0][1] + rng.normal(0, 0.6), 0.75,
                      1.8, 4.2, 1.5, state[0][2] + rng.normal(0, 0.3)),
                BoxVariance(*rng.uniform(0.004, 3.0, 7)),
            )
            state = _update(state, det)
        cov = state[1]
        worst_asym = max(worst_asym, float(np.max(np.abs(cov - cov.T))))
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(cov).min()))
    psd_ok = worst_asym < 1e-9 and worst_eig > -1e-9
    report(
        "criterion-6 filter-consistency",
        linear_ok and psd_ok,
        f"linear-KF max dev {worst:.2e} (< 1e-8); asym {worst_asym:.2e}, min eig {worst_eig:.2e} over 1e4 steps",
    )


# --- criterion 7: variance propagation Monte Carlo ---------------------------

def test_criterion_7_variance_propagation():
    rng = np.random.default_rng(500)
    anchor = Anchor(5.0, -3.0, 0.2, 1.6, 3.9, 1.56)
    n = 1_000_000

    # linear component: exact transport
    sigma_t = 0.07
    samples = rng.normal(0.4, sigma_t, n)
    decoded_x = samples * anchor.diagonal + anchor.x
    target = EncodedTarget(0.4, 0, 0, 0.3, 0.2, 0.1, 0.0)
    box = decode_box(target, anchor)
    var = decode_variance(
        EncodedLogVar(2 * math.log(sigma_t), 0, 0, 0, 0, 0, 0), anchor, box
    )
    emp = decoded_x.var(ddof=1)
    est_sd = var.var_x * math.sqrt(2.0 / (n - 1))
    linear_ok = abs(emp - var.var_x) < 3.0 * est_sd

    # log dimension at sigma_t = 0.05: first-order Taylor within 5%
    def log_dim_err(sigma_w):
        samples_w = rng.normal(target.w, sigma_w, n)
        decoded_w = np.exp(samples_w) * anchor.w
        var_w = decode_variance(
            EncodedLogVar(0, 0, 0, 2 * math.log(sigma_w), 0, 0, 0), anchor, box
        ).var_w
        return abs(decoded_w.var(ddof=1) - var_w) / decoded_w.var(ddof=1)

    err_005 = log_dim_err(0.05)
    err_02 = log_dim_err(0.2)
    log_ok = err_005 < 0.05 and err_02 < 0.15
    report(
        "criterion-7 variance-propagation",
        linear_ok and log_ok,
        f"linear |emp-pred| {abs(emp - var.var_x):.2e} < 3sd {3 * est_sd:.2e}; "
        f"log-dim rel err {err_005:.3f} (< 0.05 at sigma 0.05), {err_02:.3f} (< 0.15 at sigma 0.2)",
    )


# --- criteria 8 and 9: adaptive vs constant covariance tracking --------------

SIGMA_GRID = (0.05, 0.15, 0.5, 1.5, 5.0)


@pytest.fixture(scope="module")
def tracking_experiment():
    base = TrackerConfig(gate_distance=3.0)
    rows = []
    t0 = time.perf_counter()
    for seed in range(20):
        cfg = ScenarioConfig(
            n_targets=15, n_frames=200, dt=0.1, field_extent=60.0,
            noise_base=(0.03, 0.03, 0.02, 0.02, 0.02, 0.02, 0.01),
            noise_range_coeff=(0.012, 0.002, 0.002, 0.001, 0.001, 0.001, 0.001),
            fp_rate=0.5, fn_rate=0.1, seed=seed,
        )
        scenario = generate_scenario(cfg)
        sigmas = [math.sqrt(v.var_x) for frame in scenario.true_variances for v in frame]
        sigma_spread = max(sigmas) / min(sigmas)
        results = compare_adaptive_vs_constant(cfg, SIGMA_GRID, base)
        adaptive, consts = results[0], results[1:]
        rows.append(
            dict(
                seed=seed,
                sigma_spread=sigma_spread,
                adaptive_rmse=adaptive.rmse,
                adaptive_mota=adaptive.mota,
                best_const_rmse=min(c.rmse for c in consts),
                best_const_mota=max(c.mota for c in consts),
                mota_spread=max(c.mota for c in consts) - min(c.mota for c in consts),
            )
        )
    elapsed = time.perf_counter() - t0
    return rows, elapsed


def test_criterion_8_headline_direction(tracking_experiment):
    rows, elapsed = tracking_experiment
    spread_ok = all(r["sigma_spread"] >= 4.0 for r in rows)
    wins = sum(
        1
        for r in rows
        if r["adaptive_rmse"] <= 0.9 * r["best_const_rmse"] and r["adaptive_mota"] > r["best_const_mota"]
    )
    ok = spread_ok and wins >= 18 and elapsed < 120.0
    worst_ratio = max(r["adaptive_rmse"] / r["best_const_rmse"] for r in rows)
    report(
        "criterion-8 adaptive-vs-constant",
        ok,
        f"{wins}/20 scenarios with >=10% lower RMSE and strictly higher MOTA "
        f"(worst RMSE ratio {worst_ratio:.3f}, min sigma spread {min(r['sigma_spread'] for r in rows):.1f}x, "
        f"runtime {elapsed:.1f} s < 120 s)",
    )


def test_criterion_9_covariance_sensitivity(tracking_experiment):
    rows, _ = tracking_experiment
    min_spread = min(r["mota_spread"] for r in rows)
    report(
        "criterion-9 covariance-sensitivity",
        min_spread > 10.0,
        f"constant-sigma grid MOTA spread {min_spread:.1f} points minimum across scenarios (> 10)",
    )


# --- criterion 10: uncertainty-aware NMS scoring ------------------------------

def _duplicate_proposal_set():
    """Ground truth plus proposal pairs: the better-localized duplicate
    carries lower uncertainty but (usually) a slightly lower class score."""
    gt = []
    proposals = []
    for i in range(6):
        cx, cy = 12.0 * i, 6.0 * (i % 2)
        gt.append(Box3D(cx, cy, 0.75, 1.8, 4.2, 1.5, 0.0))
        good = Box3D(cx, cy, 0.75, 1.8, 4.2, 1.5, 0.0, score=0.80)
        bad = Box3D(cx + 1.2, cy, 0.75, 1.8, 4.2, 1.5, 0.0, score=0.805 if i % 2 == 0 else 0.79)
        proposals.append((good, EncodedLogVar(*([-6.0] * 7))))
        proposals.append((bad, EncodedLogVar(*([-1.0] * 7))))
    return gt, proposals


def _nms_ap(gt, proposals, strategy):
    cfg = ScoreMapConfig(strategy=strategy, k_s=0.001, b_s=0.0, aggregate=AggregateMode.SUM, alpha=1.0)
    boxes = []
    for box, s in proposals:
        rescored = score_detection(box.score, s, cfg) if strategy is not ScoreStrategy.NONE else box.score
        boxes.append(Box3D(box.x, box.y, box.z, box.w, box.l, box.h, box.theta, box.class_id, rescored))
    rows = np.array([(*box_values(b), b.score) for b in boxes])
    kept = [boxes[i] for i in nms(rows, NmsConfig(iou_threshold=0.5))]
    ap, _, _ = detection_pr([gt], [kept], EvalConfig(iou_threshold=0.7))
    return ap


def test_criterion_10_nms_scoring():
    gt, proposals = _duplicate_proposal_set()
    baseline = _nms_ap(gt, proposals, ScoreStrategy.NONE)
    results = {
        "C+L": _nms_ap(gt, proposals, ScoreStrategy.LINEAR),
        "C+S": _nms_ap(gt, proposals, ScoreStrategy.SIGMOID),
        "C+E": _nms_ap(gt, proposals, ScoreStrategy.EXPONENTIAL),
    }
    all_geq = all(v >= baseline for v in results.values())
    any_strict = any(v > baseline for v in results.values())

    rng = np.random.default_rng(600)
    monotone = True
    for strategy in (ScoreStrategy.LINEAR, ScoreStrategy.SIGMOID, ScoreStrategy.EXPONENTIAL):
        for _ in range(1000):
            cfg = ScoreMapConfig(strategy=strategy, k_s=float(rng.uniform(1e-4, 1.0)), b_s=float(rng.uniform(-2, 2)))
            g = float(rng.uniform(-50, 50))
            d = float(rng.uniform(0, 10))
            if map_uncertainty_to_logscore(g + d, cfg) > map_uncertainty_to_logscore(g, cfg) + 1e-12:
                monotone = False
    ok = all_geq and any_strict and monotone
    report(
        "criterion-10 nms-scoring",
        ok,
        f"baseline AP {baseline:.1f}; " + ", ".join(f"{k} {v:.1f}" for k, v in results.items())
        + f"; monotone non-increasing mappings: {monotone}",
    )


# --- criterion 11: pipeline determinism ---------------------------------------

def test_criterion_11_determinism(tmp_path):
    digests = []
    for tag in ("a", "b"):
        gt = tmp_path / f"gt_{tag}.csv"
        dets = tmp_path / f"dets_{tag}.csv"
        trk = tmp_path / f"trk_{tag}.csv"
        rep = tmp_path / f"rep_{tag}.csv"
        assert cli_main([
            "simulate", "--out-gt", str(gt), "--out-dets", str(dets),
            "--n-targets", "8", "--n-frames", "60", "--fp-rate", "0.5", "--fn-rate", "0.1",
            "--noise-range-coeff", "0.012,0.002,0.002,0.001,0.001,0.001,0.001",
            "--seed", "11",
        ]) == 0
        assert cli_main(["track", "--dets", str(dets), "--out", str(trk), "--dt", "0.1"]) == 0
        assert cli_main(["eval-track", "--gt", str(gt), "--tracks", str(trk), "--out", str(rep)]) == 0
        digests.append((gt.read_bytes(), dets.read_bytes(), trk.read_bytes(), rep.read_bytes()))
    ok = digests[0] == digests[1]
    report("criterion-11 determinism", ok, "simulate->track->eval byte-identical across two runs with the same seed")

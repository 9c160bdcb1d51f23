"""Numerical self-checks for the loss functions.

Analytic gradients are compared against central finite differences, and
the closed-form / implicit minimizer characterizations are verified by
golden-section search.  These back the ``check-losses`` CLI command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .losses import GaussianNllConfig, VonMisesNllConfig, gaussian_nll, von_mises_nll
from .special import bessel_ratio_i1_i0

FD_STEP = 1e-5
REL_TOL = 1e-6
ABS_TOL = 1e-8

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def golden_section_min(f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-9) -> float:
    """Minimizer of a unimodal f on [lo, hi] by golden-section search."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _grad_ok(analytic: float, numeric: float) -> bool:
    diff = abs(analytic - numeric)
    if diff < ABS_TOL:
        return True
    scale = max(abs(analytic), abs(numeric))
    return diff < REL_TOL * scale


def _check_gradients(name: str, loss: Callable, draw: Callable[[], tuple], labels: tuple, n: int) -> CheckResult:
    """loss's partials against central differences at n draws of (x, x_target, s, cfg); labels name x, x_target, s."""
    worst = 0.0
    h = FD_STEP
    for _ in range(n):
        x, x_t, s, cfg = draw()
        res = loss(x, x_t, s, cfg)
        fd_x = (loss(x + h, x_t, s, cfg).value - loss(x - h, x_t, s, cfg).value) / (2 * h)
        fd_s = (loss(x, x_t, s + h, cfg).value - loss(x, x_t, s - h, cfg).value) / (2 * h)
        if not (_grad_ok(res.d_value, fd_x) and _grad_ok(res.d_s, fd_s)):
            at = " ".join(f"{label}={value}" for label, value in zip(labels, (x, x_t, s)))
            return CheckResult(name, False, f"mismatch at {at}")
        worst = max(worst, abs(res.d_value - fd_x), abs(res.d_s - fd_s))
    return CheckResult(name, True, f"{n} points, worst abs dev {worst:.2e}")


def check_gaussian_gradients(rng: np.random.Generator, n: int = 1000) -> CheckResult:
    def draw():
        v, v_t, s = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(-4.0, 4.0)
        return v, v_t, s, GaussianNllConfig(lambda_g=rng.uniform(0.2, 3.0))
    return _check_gradients("gaussian-gradients", gaussian_nll, draw, ("v", "v_t", "s"), n)


def check_von_mises_gradients(rng: np.random.Generator, n: int = 1000) -> CheckResult:
    def draw():
        th, th_t, s = rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi), rng.uniform(-4.0, 4.0)
        return th, th_t, s, VonMisesNllConfig(lambda_v=rng.uniform(0.0, 2.0), s0=rng.uniform(-1.0, 2.0))
    return _check_gradients("von-mises-gradients", von_mises_nll, draw, ("th", "th_t", "s"), n)


def check_gaussian_argmin(rng: np.random.Generator, n: int = 20) -> CheckResult:
    worst = 0.0
    for _ in range(n):
        d = rng.uniform(0.1, 3.0)
        lam = rng.uniform(0.3, 3.0)
        cfg = GaussianNllConfig(lambda_g=lam)
        s_star = golden_section_min(lambda s: gaussian_nll(d, 0.0, s, cfg).value, -10.0, 10.0)
        expected = math.log(d * d / lam)
        worst = max(worst, abs(s_star - expected))
        if abs(s_star - expected) > 1e-6:
            return CheckResult("gaussian-argmin", False, f"argmin {s_star} != log(d^2/lambda) {expected}")
    return CheckResult("gaussian-argmin", True, f"{n} cases, worst dev {worst:.2e}")


def check_von_mises_stationarity() -> CheckResult:
    worst = 0.0
    cfg = VonMisesNllConfig(lambda_v=0.0, s0=1.0)
    for cos_d in (0.1, 0.3, 0.5, 0.7, 0.9):
        delta = math.acos(cos_d)
        s_star = golden_section_min(lambda s: von_mises_nll(delta, 0.0, s, cfg).value, -10.0, 10.0)
        kappa_star = math.exp(-s_star)
        dev = abs(bessel_ratio_i1_i0(kappa_star) - cos_d)
        worst = max(worst, dev)
        if dev > 1e-5:
            return CheckResult("von-mises-stationarity", False, f"A(kappa*)={dev:+.2e} off at cos={cos_d}")
    return CheckResult("von-mises-stationarity", True, f"5 cos values, worst |A(k*)-cos| {worst:.2e}")


def check_gaussian_regularization_shift() -> CheckResult:
    worst = 0.0
    for d in (0.5, 1.0, 2.0):
        for lam in (0.5, 1.0):
            lo = golden_section_min(lambda s: gaussian_nll(d, 0.0, s, GaussianNllConfig(lam)).value, -10.0, 10.0)
            hi = golden_section_min(lambda s: gaussian_nll(d, 0.0, s, GaussianNllConfig(2 * lam)).value, -10.0, 10.0)
            dev = abs((hi - lo) + math.log(2.0))
            worst = max(worst, dev)
            if dev > 1e-6:
                return CheckResult("gaussian-regularization-shift", False, f"shift off by {dev:.2e} at d={d}")
    return CheckResult("gaussian-regularization-shift", True, f"doubling lambda shifts argmin by -log 2 (worst dev {worst:.2e})")


def check_von_mises_regularization_monotone() -> CheckResult:
    delta = math.acos(0.5)
    minima = []
    for lam in (0.5, 1.0, 2.0):
        cfg = VonMisesNllConfig(lambda_v=lam, s0=1.0)
        minima.append(golden_section_min(lambda s: von_mises_nll(delta, 0.0, s, cfg).value, -10.0, 10.0))
    if not (minima[0] > minima[1] > minima[2]):
        return CheckResult("von-mises-regularization-monotone", False, f"minima not decreasing: {minima}")
    return CheckResult(
        "von-mises-regularization-monotone", True,
        "argmin s decreases with lambda_v: " + " > ".join(f"{m:.4f}" for m in minima),
    )


def run_loss_checks(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    return [
        check_gaussian_gradients(rng),
        check_von_mises_gradients(rng),
        check_gaussian_argmin(rng),
        check_von_mises_stationarity(),
        check_gaussian_regularization_shift(),
        check_von_mises_regularization_monotone(),
    ]

"""Heteroscedastic regression losses with analytic first derivatives.

Linear box parameters use a Gaussian negative log-likelihood over the
residual and its log-variance s = log(sigma^2); the yaw angle uses a
von-Mises negative log-likelihood with concentration kappa = exp(-s).
Both are regularized so the optimum in s stays finite and reachable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .special import bessel_ratio_i1_i0, elu, elu_grad, log_bessel_i0

# Log-variances are clamped to this symmetric range before exponentiation;
# everything of practical interest lives well inside it.
S_CLAMP = 10.0


@dataclass(frozen=True)
class GaussianNllConfig:
    """Gaussian NLL settings; lambda_g scales the log-variance penalty."""

    lambda_g: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.lambda_g < math.inf:
            raise ValueError("lambda_g must be finite and > 0")


@dataclass(frozen=True)
class VonMisesNllConfig:
    """von-Mises NLL settings.

    lambda_v scales an ELU barrier centered at s0 that restores a useful
    gradient for large s, where the raw likelihood becomes flat.
    """

    lambda_v: float = 1.0
    s0: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.lambda_v < math.inf:
            raise ValueError("lambda_v must be finite and >= 0")
        if not math.isfinite(self.s0):
            raise ValueError("s0 must be finite")


@dataclass(frozen=True)
class LossWeights:
    """Weights combining classification, regression and variance terms."""

    alpha_cls: float = 1.0
    alpha_reg: float = 2.0
    alpha_angle: float = 1.0
    alpha_var: float = 1.0

    def __post_init__(self):
        for name in ("alpha_cls", "alpha_reg", "alpha_angle", "alpha_var"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0")


@dataclass(frozen=True)
class LossValueGrad:
    """Loss value plus partials w.r.t. the regressed parameter and s."""

    value: float
    d_value: float
    d_s: float


def _clamp_s(s: float) -> float:
    return min(max(s, -S_CLAMP), S_CLAMP)


def gaussian_nll(v: float, v_target: float, s: float, cfg: GaussianNllConfig) -> LossValueGrad:
    """0.5 * (exp(-s) * (v - v_target)^2 + lambda_g * s).

    The minimizer over s for a fixed residual d is log(d^2 / lambda_g).
    """
    s = _clamp_s(s)
    d = v - v_target
    inv_var = math.exp(-s)
    value = 0.5 * (inv_var * d * d + cfg.lambda_g * s)
    d_value = inv_var * d
    d_s = 0.5 * (-inv_var * d * d + cfg.lambda_g)
    return LossValueGrad(value, d_value, d_s)


def von_mises_nll(theta: float, theta_target: float, s: float, cfg: VonMisesNllConfig) -> LossValueGrad:
    """log I0(kappa) - kappa*cos(theta - theta_target) + lambda_v*ELU(s - s0).

    kappa = exp(-s).  Periodic in theta with period 2*pi; for
    cos(theta - theta_target) <= 0 only the ELU term keeps the loss
    bounded from below in s.
    """
    s = _clamp_s(s)
    delta = theta - theta_target
    kappa = math.exp(-s)
    cos_d = math.cos(delta)
    value = log_bessel_i0(kappa) - kappa * cos_d + cfg.lambda_v * elu(s - cfg.s0)
    d_value = kappa * math.sin(delta)
    ratio = bessel_ratio_i1_i0(kappa)
    d_s = -kappa * (ratio - cos_d) + cfg.lambda_v * elu_grad(s - cfg.s0)
    return LossValueGrad(value, d_value, d_s)


def smooth_l1(d: float) -> tuple[float, float]:
    """SmoothL1 with transition at |d| = 1; returns (value, derivative)."""
    if abs(d) < 1.0:
        return 0.5 * d * d, d
    return abs(d) - 0.5, math.copysign(1.0, d)


def sine_error_loss(theta: float, theta_target: float) -> LossValueGrad:
    """SmoothL1 applied to sin(theta - theta_target).

    Invariant under the pi flip of the box heading (sin of the residual
    vanishes at both 0 and pi); d_s is identically zero since no variance
    enters.
    """
    delta = theta - theta_target
    u = math.sin(delta)
    value, du = smooth_l1(u)
    return LossValueGrad(value, du * math.cos(delta), 0.0)


def assemble_loss(
    l_cls: float,
    l_reg: float,
    l_reg_theta: float,
    l_var: float,
    l_var_theta: float,
    weights: LossWeights,
) -> float:
    """Combine classification, regression and variance losses."""
    return (
        weights.alpha_cls * l_cls
        + weights.alpha_reg * (l_reg + weights.alpha_angle * l_reg_theta)
        + weights.alpha_var * (l_var + weights.alpha_angle * l_var_theta)
    )

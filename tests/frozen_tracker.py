"""Frozen unscented CTRA prediction: the oracle for ukf_predict_batch.

A verbatim copy of the sigma-point construction, the CTRA step, the
circular moments and the covariance product that the component-major
predict pass replaced, kept so tests can check the pass bit for bit
against it.  Do not edit it along with the package.
"""

from __future__ import annotations

import math

import numpy as np

from uatrack.motion import wrap_angles
from uatrack.tracker import _GAMMA, _WC, _WM

OMEGA_EPS = 1e-6

# state vector layout
IX, IY, ITHETA, IV, IA, IOMEGA = range(6)


def ctra_step(state: np.ndarray, dt: float) -> np.ndarray:
    """Propagate CTRA states by dt; vectorized over leading axes.

    state[..., :] = (x, y, theta, v, a, omega).  Returns a new array;
    theta is left unwrapped so callers can do circular statistics.
    """
    s = np.asarray(state, dtype=float)
    x, y, th, v, a, om = (s[..., i] for i in range(6))

    th_new = th + om * dt
    v_new = v + a * dt
    sin0, cos0 = np.sin(th), np.cos(th)
    sin1, cos1 = np.sin(th_new), np.cos(th_new)

    straight = np.abs(om) < OMEGA_EPS
    om_safe = np.where(straight, 1.0, om)

    arc_dx = (v_new * sin1 - v * sin0) / om_safe + a * (cos1 - cos0) / om_safe**2
    arc_dy = (-v_new * cos1 + v * cos0) / om_safe + a * (sin1 - sin0) / om_safe**2

    dist = v * dt + 0.5 * a * dt * dt
    dx = np.where(straight, dist * cos0, arc_dx)
    dy = np.where(straight, dist * sin0, arc_dy)

    out = np.empty_like(s)
    out[..., IX] = x + dx
    out[..., IY] = y + dy
    out[..., ITHETA] = th_new
    out[..., IV] = v_new
    out[..., IA] = a
    out[..., IOMEGA] = om
    return out


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


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def ukf_predict_batch(
    means: np.ndarray, covs: np.ndarray, dt: float, process_noise: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Unscented CTRA prediction for a batch of pose states; adds process_noise * dt.

    Means leave with theta in (-pi, pi], covariances exactly symmetric.
    """
    mean, dev = _moments(ctra_step(_sigma_points(means, covs), dt))
    # sum_p Wc[p] dev[p] dev[p]^T, one matrix product per row, is symmetric only up to rounding
    return mean, _sym((np.swapaxes(dev, -1, -2) * _WC) @ dev + process_noise * dt)

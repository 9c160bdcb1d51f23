"""Constant-turn-rate-and-acceleration (CTRA) motion over (x, y, theta, v, a, omega).

The closed-form arc integration is singular as omega -> 0, so below
OMEGA_EPS the straight-line limit is used instead.
"""

from __future__ import annotations

import numpy as np

from .boxes import TWO_PI

OMEGA_EPS = 1e-6

# state vector layout
IX, IY, ITHETA, IV, IA, IOMEGA = range(6)


def ctra_step(state: np.ndarray, dt: float, trig: np.ndarray | None = None) -> np.ndarray:
    """Propagate CTRA states by dt; vectorized over leading axes.

    state[..., :] = (x, y, theta, v, a, omega).  Returns a new array, laid
    out in memory as state is (so on a transposed view of a
    component-major array, every component is one contiguous block);
    theta is left unwrapped so callers can do circular statistics.  The
    sine and cosine of the new theta are computed either way; given
    trig, of shape (2, *state.shape[:-1]), they are written to trig[0]
    and trig[1], so a circular mean need not compute them again.
    """
    s = np.asarray(state, dtype=float)
    x, y, th, v, a, om = (s[..., i] for i in range(6))

    th_new = th + om * dt
    v_new = v + a * dt
    sin0, cos0 = np.sin(th), np.cos(th)
    if trig is None:
        sin1, cos1 = np.sin(th_new), np.cos(th_new)
    else:
        sin1, cos1 = np.sin(th_new, out=trig[0]), np.cos(th_new, out=trig[1])

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


def wrap_angles(a: np.ndarray) -> np.ndarray:
    """Wrap angles to (-pi, pi] elementwise, bitwise as boxes.wrap_angle does.

    Always returns an array, 0-d for a scalar, in the input's float type.
    """
    m = np.asarray(np.fmod(np.pi - a, TWO_PI))
    # 2 pi where negative, as np.mod would add it, else 0: m + 0.0 is m,
    # but for -0.0, which becomes +0.0 and gives pi all the same
    m += (m < 0.0) * m.dtype.type(TWO_PI)
    out = np.subtract(np.pi, m, out=m)
    # just above pi the sum rounds up to 2 pi, which would give -pi
    out[out == -np.pi] = np.pi
    return out

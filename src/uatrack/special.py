"""Scalar special functions used by the uncertainty losses.

The modified Bessel function I0 and the ratio I1/I0 are evaluated with a
power series below a fixed crossover argument and with the large-argument
asymptotic expansion above it.  The log variant never forms exp(kappa):
it is finite for every finite kappa >= 0, where I0 itself exceeds the
double range beyond kappa ~713.  At kappa = inf each function returns its
limit: inf for I0 and log I0, 1 for the ratio.
"""

from __future__ import annotations

import math

# Series/asymptotic crossover.  The power series converges quickly below
# this point; the optimally truncated asymptotic expansion is accurate to
# better than 1e-12 relative above it (verified against 60-digit arithmetic).
BESSEL_CROSSOVER = 15.0


def _require_nonnegative(kappa: float) -> None:
    if kappa < 0.0 or math.isnan(kappa):
        raise ValueError(f"kappa must be >= 0, got {kappa}")


def _series(kappa: float, nu: int) -> float:
    # I_nu for nu in {0, 1}: sum_k (kappa/2)^(2k+nu) / (k! (k+nu)!) via term
    # recurrence (Abramowitz & Stegun 9.6.10).  It stops at a term <= 1e-18 * acc,
    # too small to move acc, so a sum whose terms underflow to 0 ends too
    # (nu = 1 with kappa = 0 or below ~1e-305, where 1e-18 * acc is 0).
    acc = term = 0.5 * kappa if nu else 1.0
    q = 0.25 * kappa * kappa
    n = 0
    while True:
        n += 1
        term *= q / (n * (n + nu))
        acc += term
        if term <= 1e-18 * acc:
            return acc


def _asymptotic_sum(kappa: float, mu: float) -> float:
    """Optimally truncated asymptotic series for I_nu, mu = 4 nu^2.

    I_nu(k) ~ e^k / sqrt(2 pi k) * sum_j t_j with
    t_j = t_{j-1} * -(mu - (2j-1)^2) / (8 k j).  The series is divergent;
    accumulation stops when terms stop shrinking.
    """
    acc = 1.0
    term = 1.0
    j = 0
    while j < 60:
        j += 1
        nxt = term * -(mu - (2 * j - 1) ** 2) / (8.0 * kappa * j)
        if abs(nxt) >= abs(term):
            break
        term = nxt
        acc += term
        if abs(term) < 1e-18 * abs(acc):
            break
    return acc


def log_bessel_i0(kappa: float) -> float:
    """log I0(kappa): finite for every finite kappa >= 0, and inf at kappa = inf."""
    _require_nonnegative(kappa)
    if kappa <= BESSEL_CROSSOVER:
        return math.log(_series(kappa, 0))
    if kappa == math.inf:
        return math.inf
    scaled = 2.0 * math.pi * kappa
    # the product overflows for kappa above ~2.86e307; only there is its log taken as a sum
    log_scaled = math.log(scaled) if scaled < math.inf else math.log(2.0 * math.pi) + math.log(kappa)
    return kappa - 0.5 * log_scaled + math.log(_asymptotic_sum(kappa, 0.0))


def bessel_i0(kappa: float) -> float:
    """Modified Bessel function of the first kind, order zero.

    Raises OverflowError, as math.exp does, for finite kappa beyond ~713,
    where I0 exceeds the double range; use :func:`log_bessel_i0` there.
    Returns inf at kappa = inf.
    """
    _require_nonnegative(kappa)
    if kappa <= BESSEL_CROSSOVER:
        return _series(kappa, 0)
    return math.exp(log_bessel_i0(kappa))


def bessel_ratio_i1_i0(kappa: float) -> float:
    """A(kappa) = I1(kappa)/I0(kappa), the derivative of log I0.

    Strictly increasing from 0 toward 1; approaches 1 - 1/(2 kappa) for
    large arguments.
    """
    _require_nonnegative(kappa)
    if kappa <= BESSEL_CROSSOVER:
        return _series(kappa, 1) / _series(kappa, 0)
    return _asymptotic_sum(kappa, 4.0) / _asymptotic_sum(kappa, 0.0)


def elu(x: float) -> float:
    """x for x >= 0, exp(x) - 1 below; C1-continuous at 0."""
    if x >= 0.0:
        return x
    return math.expm1(x)


def elu_grad(x: float) -> float:
    """Derivative of :func:`elu`; the value at 0 is the right limit 1."""
    if x >= 0.0:
        return 1.0
    return math.exp(x)

"""Special-function accuracy against independent oracles."""

import hashlib
import math
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from uatrack.special import (
    BESSEL_CROSSOVER,
    bessel_i0,
    bessel_ratio_i1_i0,
    elu,
    elu_grad,
    log_bessel_i0,
)


def i0_power_series(kappa: float) -> float:
    """Oracle: sum_k (kappa^2/4)^k / (k!)^2, summed to convergence."""
    acc = 1.0
    term = 1.0
    q = 0.25 * kappa * kappa
    k = 0
    while True:
        k += 1
        term *= q / (k * k)
        acc += term
        if term < 1e-18 * acc:
            return acc


def i1_power_series(kappa: float) -> float:
    acc = 0.5 * kappa
    term = acc
    q = 0.25 * kappa * kappa
    k = 0
    while term != 0.0:
        k += 1
        term *= q / (k * (k + 1))
        acc += term
        if term < 1e-18 * acc:
            break
    return acc


class TestBesselI0:
    def test_at_zero(self):
        assert bessel_i0(0.0) == 1.0

    def test_frozen_series_values(self):
        # power-series oracle, 30 terms, cross-checked at 50 digits
        assert bessel_i0(1.0) == pytest.approx(1.2660658777520083, rel=1e-12)
        assert bessel_i0(2.0) == pytest.approx(2.2795853023360673, rel=1e-12)

    def test_against_series_oracle_dense(self):
        rng = np.random.default_rng(12)
        for kappa in rng.uniform(0.0, 50.0, 1000):
            expected = i0_power_series(float(kappa))
            assert bessel_i0(float(kappa)) == pytest.approx(expected, rel=1e-10)

    def test_branch_seam(self):
        for kappa in (BESSEL_CROSSOVER - 1e-9, BESSEL_CROSSOVER, BESSEL_CROSSOVER + 1e-9, 15.5):
            assert bessel_i0(kappa) == pytest.approx(i0_power_series(kappa), rel=1e-11)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bessel_i0(-0.1)


class TestLogBesselI0:
    def test_at_zero(self):
        assert log_bessel_i0(0.0) == 0.0

    def test_frozen_value(self):
        # log of the series oracle at kappa=1
        assert log_bessel_i0(1.0) == pytest.approx(0.23591435850717865, rel=1e-12)

    def test_large_arguments_no_overflow(self):
        # 50-digit reference values for the asymptotic regime
        references = {
            100.0: 96.77973268994258,
            500.0: 495.9740076681067,
            700.0: 695.8056999984434,
        }
        for kappa, expected in references.items():
            value = log_bessel_i0(kappa)
            assert math.isfinite(value)
            assert value == pytest.approx(expected, rel=1e-8)

    def test_consistent_with_direct(self):
        for kappa in np.linspace(0.01, 50.0, 500):
            direct = bessel_i0(float(kappa))
            assert math.exp(log_bessel_i0(float(kappa))) == pytest.approx(direct, rel=1e-12)

    def test_monotone_and_convex_on_grid(self):
        grid = np.linspace(0.0, 60.0, 601)
        values = np.array([log_bessel_i0(float(k)) for k in grid])
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-15)
        assert np.all(np.diff(diffs) >= -1e-9)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            log_bessel_i0(-1.0)


class TestBesselRatio:
    def test_at_zero(self):
        assert bessel_ratio_i1_i0(0.0) == 0.0

    def test_frozen_value(self):
        # I1/I0 from the two power-series oracles
        assert bessel_ratio_i1_i0(1.0) == pytest.approx(0.44638996589653450, rel=1e-10)

    def test_large_argument_near_one(self):
        value = bessel_ratio_i1_i0(50.0)
        assert 0.98 < value < 1.0
        assert value == pytest.approx(1.0 - 1.0 / 100.0, abs=2e-4)

    def test_against_series_oracle(self):
        rng = np.random.default_rng(7)
        for kappa in rng.uniform(1e-6, 50.0, 300):
            k = float(kappa)
            expected = i1_power_series(k) / i0_power_series(k)
            assert bessel_ratio_i1_i0(k) == pytest.approx(expected, rel=1e-9)

    def test_strictly_increasing_bounded(self):
        grid = np.linspace(0.0, 80.0, 400)
        values = [bessel_ratio_i1_i0(float(k)) for k in grid]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(0.0 <= v < 1.0 for v in values)


class TestDomainEnds:
    @pytest.mark.parametrize("kappa", [2.87e307, 1e308, sys.float_info.max])
    def test_log_i0_finite_where_two_pi_kappa_overflows(self, kappa):
        # the asymptotic form with log(2 pi kappa) taken as a sum; its series factor is 1 here
        expected = kappa - 0.5 * (math.log(2.0 * math.pi) + math.log(kappa))
        assert log_bessel_i0(kappa) == expected

    def test_limits_at_infinity(self):
        assert log_bessel_i0(math.inf) == math.inf
        assert bessel_i0(math.inf) == math.inf
        assert bessel_ratio_i1_i0(math.inf) == 1.0

    @pytest.mark.parametrize("kappa", [5e-324, 1e-323, 1e-306])
    def test_ratio_where_the_series_terms_underflow(self, kappa):
        # every I1 term after the first is 0, and below ~1e-305 so is 1e-18 times the sum
        assert bessel_ratio_i1_i0(kappa) == 0.5 * kappa

    @pytest.mark.parametrize("kappa", [720.0, 1e308, sys.float_info.max])
    def test_i0_beyond_the_float_range_raises(self, kappa):
        with pytest.raises(OverflowError):
            bessel_i0(kappa)


# sha256 of float.hex of log I0, I1/I0 and (up to kappa = 700) I0 on a grid
# that spans the series/asymptotic crossover.  The oracle tests above bound
# the relative error only, so they would not see a changed last bit.
BITS_SHA256 = "0611455d660d7b8ec48eb41a6916670b92964e2edfc2dcd02fb46e3f8be6a816"


def test_bits_are_pinned():
    grid = np.concatenate([np.linspace(0.0, 30.0, 3001), np.geomspace(1e-300, 1e307, 601)])
    lines = []
    for kappa in map(float, grid):
        functions = (log_bessel_i0, bessel_ratio_i1_i0) + ((bessel_i0,) if kappa <= 700.0 else ())
        lines.append(",".join(f(kappa).hex() for f in functions))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == BITS_SHA256


class TestElu:
    def test_examples(self):
        assert elu(2.0) == 2.0
        assert elu(0.0) == 0.0
        assert elu(-1.0) == pytest.approx(math.exp(-1.0) - 1.0, rel=1e-12)

    @given(st.floats(min_value=-30.0, max_value=30.0))
    def test_continuous_and_differentiable(self, x):
        h = 1e-7
        numeric = (elu(x + h) - elu(x - h)) / (2 * h)
        assert elu_grad(x) == pytest.approx(numeric, rel=1e-4, abs=1e-6)

    def test_grad_at_zero_is_right_limit(self):
        assert elu_grad(0.0) == 1.0

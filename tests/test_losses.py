"""Loss values, analytic gradients, and minimizer characterizations."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from uatrack.checks import golden_section_min, run_loss_checks
from uatrack.losses import (
    GaussianNllConfig,
    LossWeights,
    VonMisesNllConfig,
    assemble_loss,
    gaussian_nll,
    sine_error_loss,
    smooth_l1,
    von_mises_nll,
)
from uatrack.special import bessel_ratio_i1_i0


class TestGaussianNll:
    def test_unit_residual_minimum(self):
        # with d^2 = 1 and lambda_g = 1 the minimum over s sits at s = 0
        res = gaussian_nll(1.0, 0.0, 0.0, GaussianNllConfig(1.0))
        assert res.value == pytest.approx(0.5, abs=1e-12)
        assert res.d_s == pytest.approx(0.0, abs=1e-12)

    def test_zero_residual(self):
        res = gaussian_nll(1.5, 1.5, 0.0, GaussianNllConfig(1.0))
        assert res.value == 0.0
        assert res.d_value == 0.0
        assert res.d_s == pytest.approx(0.5)

    def test_hand_evaluated(self):
        res = gaussian_nll(2.0, 0.0, 1.0, GaussianNllConfig(1.0))
        assert res.value == pytest.approx(0.5 * (4.0 * math.exp(-1.0) + 1.0), rel=1e-12)

    def test_argmin_closed_form(self):
        for d in (0.5, 1.3, 2.0):
            for lam in (0.5, 1.0, 2.0):
                cfg = GaussianNllConfig(lam)
                s_star = golden_section_min(lambda s: gaussian_nll(d, 0.0, s, cfg).value, -10, 10)
                assert s_star == pytest.approx(math.log(d * d / lam), abs=1e-6)

    def test_lambda_doubling_shifts_argmin(self):
        d = 1.7
        lo = golden_section_min(lambda s: gaussian_nll(d, 0.0, s, GaussianNllConfig(1.0)).value, -10, 10)
        hi = golden_section_min(lambda s: gaussian_nll(d, 0.0, s, GaussianNllConfig(2.0)).value, -10, 10)
        assert hi - lo == pytest.approx(-math.log(2.0), abs=1e-6)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            GaussianNllConfig(0.0)


class TestVonMisesNll:
    def test_zero_residual_value(self):
        # log I0(1) - 1 with the series oracle for I0
        res = von_mises_nll(0.7, 0.7, 0.0, VonMisesNllConfig(lambda_v=0.0))
        assert res.value == pytest.approx(0.23591435850717865 - 1.0, rel=1e-10)

    def test_quarter_turn(self):
        res = von_mises_nll(math.pi / 2, 0.0, 0.0, VonMisesNllConfig(lambda_v=0.0))
        assert res.value == pytest.approx(0.23591435850717865, rel=1e-10)
        assert res.d_value == pytest.approx(1.0, rel=1e-12)

    def test_periodicity(self):
        rng = np.random.default_rng(3)
        cfg = VonMisesNllConfig(lambda_v=1.0, s0=1.0)
        for _ in range(200):
            th = rng.uniform(-math.pi, math.pi)
            th_t = rng.uniform(-math.pi, math.pi)
            s = rng.uniform(-4, 4)
            a = von_mises_nll(th, th_t, s, cfg)
            b = von_mises_nll(th + 2 * math.pi, th_t, s, cfg)
            assert abs(a.value - b.value) < 1e-12

    def test_stationarity_condition(self):
        cfg = VonMisesNllConfig(lambda_v=0.0)
        for cos_d in (0.1, 0.3, 0.5, 0.7, 0.9):
            delta = math.acos(cos_d)
            s_star = golden_section_min(lambda s: von_mises_nll(delta, 0.0, s, cfg).value, -10, 10)
            assert bessel_ratio_i1_i0(math.exp(-s_star)) == pytest.approx(cos_d, abs=1e-5)

    def test_regularized_curve_has_single_finite_minimum(self):
        # cos residual 0.5 with the ELU barrier at s0 = 1
        cfg = VonMisesNllConfig(lambda_v=1.0, s0=1.0)
        delta = math.acos(0.5)
        grid = np.linspace(-6.0, 6.0, 1201)
        values = np.array([von_mises_nll(delta, 0.0, s, cfg).value for s in grid])
        sign_changes = np.sum(np.diff(np.sign(np.diff(values))) != 0)
        assert sign_changes == 1
        assert values.argmin() not in (0, len(values) - 1)

    def test_regularization_monotone(self):
        delta = math.acos(0.5)
        minima = []
        for lam in (0.5, 1.0, 2.0):
            cfg = VonMisesNllConfig(lambda_v=lam, s0=1.0)
            minima.append(golden_section_min(lambda s: von_mises_nll(delta, 0.0, s, cfg).value, -10, 10))
        assert minima[0] > minima[1] > minima[2]


class TestConfigChecks:
    @pytest.mark.parametrize("s0", [math.inf, -math.inf, math.nan])
    def test_von_mises_s0_must_be_finite(self, s0):
        with pytest.raises(ValueError, match="s0 must be finite"):
            VonMisesNllConfig(s0=s0)

    @pytest.mark.parametrize("name", ["alpha_cls", "alpha_reg", "alpha_angle", "alpha_var"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    def test_loss_weights_must_be_positive(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be > 0"):
            LossWeights(**{name: value})


class TestGradients:
    def test_all_check_suites_pass(self):
        results = run_loss_checks(seed=0)
        for r in results:
            assert r.passed, f"{r.name}: {r.detail}"

    @given(
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=-4, max_value=4),
    )
    def test_gaussian_gradient_spot(self, v, v_t, s):
        cfg = GaussianNllConfig(1.0)
        res = gaussian_nll(v, v_t, s, cfg)
        h = 1e-5
        fd = (gaussian_nll(v, v_t, s + h, cfg).value - gaussian_nll(v, v_t, s - h, cfg).value) / (2 * h)
        assert res.d_s == pytest.approx(fd, rel=1e-5, abs=1e-7)


class TestSineErrorLoss:
    def test_zero_and_pi(self):
        assert sine_error_loss(0.3, 0.3).value == 0.0
        assert sine_error_loss(math.pi, 0.0).value == pytest.approx(0.0, abs=1e-12)

    def test_quarter_turn(self):
        res = sine_error_loss(math.pi / 2, 0.0)
        assert res.value == pytest.approx(0.5, rel=1e-12)
        assert res.d_s == 0.0

    @given(st.floats(min_value=-6.0, max_value=6.0), st.floats(min_value=-6.0, max_value=6.0))
    def test_gradient_matches_fd(self, th, th_t):
        res = sine_error_loss(th, th_t)
        h = 1e-6
        fd = (sine_error_loss(th + h, th_t).value - sine_error_loss(th - h, th_t).value) / (2 * h)
        assert res.d_value == pytest.approx(fd, rel=1e-4, abs=1e-7)


class TestSmoothL1:
    def test_examples(self):
        assert smooth_l1(0.0) == (0.0, 0.0)
        assert smooth_l1(0.5) == (0.125, 0.5)
        assert smooth_l1(3.0) == (2.5, 1.0)
        assert smooth_l1(-3.0) == (2.5, -1.0)

    def test_continuity_at_transition(self):
        below, _ = smooth_l1(1.0 - 1e-12)
        above, _ = smooth_l1(1.0 + 1e-12)
        assert below == pytest.approx(above, abs=1e-10)
        assert smooth_l1(1.0 - 1e-9)[1] == pytest.approx(smooth_l1(1.0 + 1e-9)[1], abs=1e-8)


class TestAssembleLoss:
    def test_default_weights(self):
        w = LossWeights(alpha_cls=1.0, alpha_reg=2.0, alpha_angle=1.0, alpha_var=1.0)
        assert assemble_loss(1, 1, 1, 1, 1, w) == pytest.approx(7.0)

    def test_all_zero(self):
        assert assemble_loss(0, 0, 0, 0, 0, LossWeights()) == 0.0

    def test_variance_only_weighting(self):
        w = LossWeights(alpha_cls=1e-12, alpha_reg=1e-12, alpha_angle=1.0, alpha_var=0.2)
        assert assemble_loss(0, 0, 0, 2.0, 0, w) == pytest.approx(0.4, rel=1e-9)

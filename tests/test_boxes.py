"""Box codec: encode/decode round trips and variance transport."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from uatrack.boxes import (
    Anchor,
    Box3D,
    BoxVariance,
    EncodedLogVar,
    EncodedTarget,
    anchor_grid,
    decode_box,
    decode_variance,
    encode_box,
    encode_variance,
    self_anchor,
    wrap_angle,
)
from uatrack.tracker import TrackerConfig, constant_sigma_config


class TestWrapAngle:
    @given(st.floats(min_value=-50.0, max_value=50.0))
    def test_range_and_equivalence(self, theta):
        w = wrap_angle(theta)
        assert -math.pi < w <= math.pi
        assert math.cos(w) == pytest.approx(math.cos(theta), abs=1e-9)
        assert math.sin(w) == pytest.approx(math.sin(theta), abs=1e-9)

    def test_boundary(self):
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi


def random_box(rng) -> Box3D:
    return Box3D(
        x=rng.uniform(-50, 50),
        y=rng.uniform(-50, 50),
        z=rng.uniform(-3, 3),
        w=rng.uniform(0.1, 20.0),
        l=rng.uniform(0.1, 20.0),
        h=rng.uniform(0.1, 20.0),
        theta=rng.uniform(-math.pi, math.pi),
    )


def random_anchor(rng) -> Anchor:
    return Anchor(
        x=rng.uniform(-50, 50),
        y=rng.uniform(-50, 50),
        z=rng.uniform(-3, 3),
        w=rng.uniform(0.5, 5.0),
        l=rng.uniform(0.5, 5.0),
        h=rng.uniform(0.5, 5.0),
        theta=rng.uniform(-math.pi, math.pi),
    )


class TestEncodeDecode:
    def test_identity_case(self):
        a = Anchor(1.0, 2.0, -1.0, 1.6, 3.9, 1.56, 0.4)
        box = Box3D(1.0, 2.0, -1.0, 1.6, 3.9, 1.56, 0.4)
        t = encode_box(box, a)
        for field in ("x", "y", "z", "w", "l", "h", "theta"):
            assert getattr(t, field) == pytest.approx(0.0, abs=1e-15)

    def test_hand_values(self):
        a = Anchor(8.0, 0.0, 0.0, 1.6, 3.9, 1.56)
        box = Box3D(10.0, 0.0, 0.0, 3.2, 3.9, 1.56, 0.0)
        t = encode_box(box, a)
        assert a.diagonal == pytest.approx(4.215447781671599, rel=1e-12)
        assert t.x == pytest.approx(2.0 / 4.215447781671599, rel=1e-10)
        assert t.w == pytest.approx(math.log(2.0), rel=1e-12)

    def test_decode_zero_target_gives_anchor(self):
        a = Anchor(3.0, -2.0, 0.5, 1.6, 3.9, 1.56, 0.3)
        box = decode_box(EncodedTarget(0, 0, 0, 0, 0, 0, 0), a)
        assert (box.x, box.y, box.z) == (a.x, a.y, a.z)
        assert (box.w, box.l, box.h) == (a.w, a.l, a.h)
        assert box.theta == pytest.approx(0.3)

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            box = random_box(rng)
            anchor = random_anchor(rng)
            back = decode_box(encode_box(box, anchor), anchor)
            assert back.x == pytest.approx(box.x, abs=1e-12)
            assert back.y == pytest.approx(box.y, abs=1e-12)
            assert back.z == pytest.approx(box.z, abs=1e-12)
            assert back.w == pytest.approx(box.w, rel=1e-12)
            assert back.l == pytest.approx(box.l, rel=1e-12)
            assert back.h == pytest.approx(box.h, rel=1e-12)
            assert wrap_angle(back.theta - box.theta) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            Box3D(0, 0, 0, -1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            Anchor(0, 0, 0, 0.0, 1.0, 1.0)


class TestDecodeVariance:
    def test_hand_value_position(self):
        a = Anchor(8.0, 0.0, 0.0, 1.6, 3.9, 1.56)
        box = decode_box(EncodedTarget(0, 0, 0, 0, 0, 0, 0), a)
        s = EncodedLogVar(math.log(0.01), 0, 0, 0, 0, 0, 0)
        var = decode_variance(s, a, box)
        assert var.var_x == pytest.approx(17.77 * 0.01, rel=1e-9)

    def test_unit_scaling(self):
        a = Anchor(0, 0, 0, math.sqrt(0.5), math.sqrt(0.5), 1.0)
        assert a.diagonal == pytest.approx(1.0)
        box = Box3D(0, 0, 0, 1.0, 1.0, 1.0, 0.0)
        var = decode_variance(EncodedLogVar(0, 0, 0, 0, 0, 0, 0), a, box)
        for v in var.as_tuple():
            assert v == pytest.approx(1.0, rel=1e-12)

    def test_hand_value_dimension(self):
        a = Anchor(0, 0, 0, 1.6, 3.9, 1.56)
        box = Box3D(0, 0, 0, 2.0, 3.9, 1.56, 0.0)
        var = decode_variance(EncodedLogVar(0, 0, 0, math.log(0.04), 0, 0, 0), a, box)
        assert var.var_w == pytest.approx(0.16, rel=1e-12)

    def test_homogeneous_in_exp_s(self):
        rng = np.random.default_rng(5)
        a = random_anchor(rng)
        box = random_box(rng)
        s1 = EncodedLogVar(*rng.uniform(-3, 1, 7))
        s2 = EncodedLogVar(s1.s_x + math.log(2.0), s1.s_y, s1.s_z, s1.s_w, s1.s_l, s1.s_h, s1.s_theta)
        assert decode_variance(s2, a, box).var_x == pytest.approx(
            2.0 * decode_variance(s1, a, box).var_x, rel=1e-12
        )

    def test_encode_variance_inverse(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            a = random_anchor(rng)
            box = random_box(rng)
            s = EncodedLogVar(*rng.uniform(-4, 2, 7))
            back = encode_variance(decode_variance(s, a, box), a, box)
            for got, want in zip(back.as_tuple(), s.as_tuple()):
                assert got == pytest.approx(want, abs=1e-10)

    def test_self_anchor_consistency(self):
        box = Box3D(4.0, -2.0, 1.0, 1.8, 4.2, 1.5, 0.7)
        a = self_anchor(box)
        assert a.diagonal == pytest.approx(math.hypot(1.8, 4.2))
        var = BoxVariance(0.1, 0.2, 0.05, 0.01, 0.02, 0.01, 0.004)
        assert decode_variance(encode_variance(var, a, box), a, box).var_l == pytest.approx(0.02, rel=1e-12)


class TestBoxVarianceChecks:
    GOOD = (0.1, 0.2, 0.05, 0.01, 0.02, 0.01, 0.004)

    @pytest.mark.parametrize("index", [0, 3, 6])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1e-3])
    def test_rejects_non_finite_or_non_positive(self, index, bad):
        values = list(self.GOOD)
        values[index] = bad
        with pytest.raises(ValueError):
            BoxVariance(*values)

    def test_accepts_finite_values_whose_sum_overflows(self):
        assert BoxVariance(*[1e308] * 7).var_h == 1e308

    def test_overflowing_constant_sigma_rejected(self):
        # sigma**2 overflows to inf
        with pytest.raises(ValueError):
            constant_sigma_config(TrackerConfig(), 1e200)


class TestVariancePropagationMonteCarlo:
    """Sampling checks of the variance transport rules (reduced scale)."""

    def test_linear_components_exact(self):
        rng = np.random.default_rng(21)
        a = Anchor(5.0, -3.0, 0.2, 1.6, 3.9, 1.56)
        sigma_t = 0.07
        n = 200_000
        samples = rng.normal(0.4, sigma_t, n)
        decoded_x = samples * a.diagonal + a.x
        expected = a.diagonal**2 * sigma_t**2
        empirical = decoded_x.var(ddof=1)
        # variance estimator sd ~ var * sqrt(2/(n-1))
        assert abs(empirical - expected) < 4.0 * expected * math.sqrt(2.0 / (n - 1))

    def test_log_dimension_first_order(self):
        rng = np.random.default_rng(22)
        a = Anchor(0, 0, 0, 1.6, 3.9, 1.56)
        mu_t, sigma_t = 0.3, 0.05
        n = 400_000
        decoded_w = np.exp(rng.normal(mu_t, sigma_t, n)) * a.w
        approx = (math.exp(mu_t) * a.w) ** 2 * sigma_t**2
        assert abs(decoded_w.var(ddof=1) - approx) / approx < 0.05


class TestAnchorGrid:
    def test_grid_shape_and_validity(self):
        anchors = anchor_grid(10.0, 5.0)
        # 5 ticks per axis, two yaws
        assert len(anchors) == 5 * 5 * 2
        assert all(a.diagonal > 0 for a in anchors)

    def test_bad_spacing(self):
        with pytest.raises(ValueError):
            anchor_grid(10.0, 0.0)

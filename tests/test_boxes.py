"""Box codec: encode/decode round trips and variance transport."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from uatrack.boxes import (
    Anchor,
    Box3D,
    BoxVariance,
    DetectionColumns,
    DetectionRecord,
    EncodedLogVar,
    EncodedTarget,
    anchor_grid,
    decode_box,
    decode_variance,
    encode_box,
    encode_variance,
    box_values,
    check_rows,
    self_anchor,
    trusted_box,
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


class TestBox3DChecks:
    GOOD = dict(x=1.0, y=-2.0, z=0.5, w=1.8, l=4.2, h=1.5, theta=0.3, score=0.9)

    @pytest.mark.parametrize("name", ["x", "w", "theta", "score"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, name, bad):
        values = dict(self.GOOD, **{name: bad})
        with pytest.raises(ValueError, match="finite"):
            Box3D(**values)

    def test_accepts_finite_values_whose_sum_overflows(self):
        assert Box3D(1e308, 1e308, 1e308, 1.0, 1.0, 1.0, 0.0).x == 1e308

    def test_nan_score_rejected(self):
        # accepted, a NaN score made detection_pr depend on prediction order:
        # one gt and two identical predictions scored NaN and 0.5 gave AP 0.0
        # in one order and 100.0 in the other
        with pytest.raises(ValueError):
            Box3D(0.0, 0.0, 0.75, 2.0, 4.0, 1.5, 0.0, score=math.nan)


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


class TestWrapAngleEdges:
    def test_one_ulp_above_pi_gives_pi(self):
        # fmod gives a tiny negative modulus, which rounds up to 2 pi when 2 pi is added
        assert wrap_angle(math.nextafter(math.pi, 4.0)) == math.pi

    def test_bitwise_equal_to_the_tracker_array_wrap(self):
        from uatrack.motion import wrap_angles

        edges = [math.pi, -math.pi]
        edges += [math.nextafter(e, toward) for e in edges for toward in (-4.0, 4.0)]
        x = np.concatenate([np.random.default_rng(8).uniform(-30.0, 30.0, 5_000), edges])
        got = np.array([wrap_angle(v) for v in x.tolist()])
        assert np.array_equal(got.view(np.uint64), wrap_angles(x).view(np.uint64))

    def test_wrapping_a_wrapped_angle_again_changes_no_bit(self):
        # the column readers wrap theta with wrap_angles, and a Box3D built
        # from their rows wraps it again with wrap_angle: boxes and row
        # blocks must hold the same theta
        from uatrack.motion import wrap_angles

        rng = np.random.default_rng(14)
        ulp = np.spacing(math.pi)
        x = np.concatenate([
            rng.uniform(-1e3, 1e3, 100_000),
            rng.normal(0.0, 4.0, 50_000),
            rng.normal(0.0, 1e-12, 10_000),
            np.ldexp(rng.uniform(-1.0, 1.0, 10_000), rng.integers(-1074, 1000, 10_000)),
            np.outer(np.arange(-7, 8) * math.pi, np.ones(201)).ravel() + ulp * np.tile(np.arange(-100, 101), 15),
            [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, math.pi, -math.pi, 2 * math.pi, 1e300, -1e300],
        ])
        once = wrap_angles(x)
        twice = np.array([wrap_angle(v) for v in once.tolist()])
        assert np.array_equal(twice.view(np.uint64), once.view(np.uint64))

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_wrapping_any_finite_angle_twice_changes_no_bit(self, theta):
        from uatrack.motion import wrap_angles

        once = wrap_angles(np.array([theta]))
        assert np.array_equal(np.array([wrap_angle(float(once[0]))]).view(np.uint64), once.view(np.uint64))


def _error(build):
    with pytest.raises(ValueError) as exc:
        build()
    return str(exc.value)


class TestCheckRows:
    """check_rows raises what Box3D and BoxVariance raise for the first bad row."""

    ROW = (1.0, 2.0, 0.5, 1.8, 4.2, 1.5, 0.3, 0.9)
    VAR = (0.1,) * 7

    @pytest.mark.parametrize("column, value", [
        (0, math.nan), (2, math.inf), (6, -math.inf), (7, math.nan), (3, math.inf),
        (3, 0.0), (4, -1.0), (5, -0.0),
    ])
    def test_same_error_as_the_constructor(self, column, value):
        row = list(self.ROW)
        row[column] = value
        rows = np.array([self.ROW, row, row])
        want = _error(lambda: Box3D(*row[:7], score=row[7]))
        assert _error(lambda: check_rows(rows, np.full((3, 7), 0.1))) == want
        assert _error(lambda: check_rows(rows)) == want

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_variances(self, value):
        var = np.full((3, 7), 0.1)
        var[2, 4] = value
        rows = np.array([self.ROW] * 3)
        assert _error(lambda: check_rows(rows, var)) == _error(lambda: BoxVariance(*var[2]))
        check_rows(rows)  # no variances, nothing to check there

    def test_first_row_wins_and_the_box_before_its_variance(self):
        rows = np.array([self.ROW] * 4)
        var = np.full((4, 7), 0.1)
        var[1, 0] = -1.0
        rows[2, 3] = -1.0
        assert _error(lambda: check_rows(rows, var)) == "variances must be finite and positive"
        var[1, 0] = 0.1
        rows[2, 0] = math.nan
        var[2, 0] = -1.0
        assert _error(lambda: check_rows(rows, var)).startswith("box values must be finite")

    def test_valid_and_empty_blocks_pass(self):
        check_rows(np.array([self.ROW] * 3), np.full((3, 7), 0.1))
        check_rows(np.zeros((0, 8)), np.zeros((0, 7)))


class TestDetectionColumns:
    def _records(self, with_var=True):
        return [DetectionRecord(f, Box3D(0.5 * f, 1.0, 0.5, 1.8, 4.2, 1.5, 0.1 * f - 3.0, class_id=c, score=0.5),
                                BoxVariance(*[0.1 + f] * 7) if with_var else None)
                for f, c in [(0, "Car"), (0, "Pedestrian"), (2, "Car")]]

    def test_records_round_trip(self):
        for with_var in (True, False):
            records = self._records(with_var)
            block = DetectionColumns.of(records)
            assert list(block) == records == [block[i] for i in range(3)]
            assert block[-1] == records[-1] and block[np.int64(1)] == records[1] and len(block) == 3
            assert records[1] in block and block.index(records[2]) == 2
            with pytest.raises(IndexError):
                block[3]
            with pytest.raises(TypeError):
                block[0:2]

    def test_of_a_block_is_the_block(self):
        block = DetectionColumns.of(self._records())
        assert DetectionColumns.of(block) is block

    def test_mixed_variances_rejected(self):
        mixed = self._records() + self._records(with_var=False)
        with pytest.raises(ValueError, match="every record"):
            DetectionColumns.of(mixed)
        with pytest.raises(ValueError, match="every block"):
            DetectionColumns.concat([DetectionColumns.of(self._records()),
                                     DetectionColumns.of(self._records(with_var=False))])

    def test_concat(self):
        a, b = self._records(), self._records()[1:]
        assert list(DetectionColumns.concat([DetectionColumns.of(a), DetectionColumns.of(b)])) == a + b
        no_var = DetectionColumns.concat([DetectionColumns.of(self._records(with_var=False))] * 2)
        assert no_var.var is None and len(no_var) == 6


class TestTrustedBox:
    def test_keeps_the_constructor_attribute_layout(self):
        # a box whose instance dict was materialized (say by __dict__.update) reads its fields slower
        import gc

        checked = Box3D(1.0, -2.0, 0.5, 1.8, 4.2, 1.5, 0.25, class_id="Van", score=0.5)
        box = trusted_box(*box_values(checked), checked.class_id, checked.score)
        assert [type(r) for r in gc.get_referents(box)] == [type(r) for r in gc.get_referents(checked)]

    def test_equals_the_checked_box(self):
        rng = np.random.default_rng(5)
        for theta in np.concatenate([rng.uniform(-10.0, 10.0, 200), [math.pi, -math.pi, 0.0]]).tolist():
            checked = Box3D(1.0, -2.0, 0.5, 1.8, 4.2, 1.5, theta, class_id="Van", score=0.25)
            box = trusted_box(*box_values(checked), checked.class_id, checked.score)
            assert box == checked and hash(box) == hash(checked) and repr(box) == repr(checked)
            assert vars(box) == vars(checked)
            with pytest.raises(AttributeError):
                box.x = 0.0

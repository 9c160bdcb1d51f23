"""Scenario generation: determinism, noise calibration, motion fidelity."""

import hashlib
import math
import sys

import numpy as np
import pytest

from uatrack.motion import ctra_step
from uatrack.sim import ScenarioConfig, generate_scenario, scenario_frames


def small_config(**kwargs):
    defaults = dict(n_targets=3, n_frames=20, dt=0.1, field_extent=40.0, seed=5)
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        a = generate_scenario(small_config(fp_rate=0.5, fn_rate=0.1))
        b = generate_scenario(small_config(fp_rate=0.5, fn_rate=0.1))
        for fa, fb in zip(a.detections, b.detections):
            assert len(fa) == len(fb)
            for da, db in zip(fa, fb):
                assert da.box == db.box
                assert da.variance == db.variance
        for sa, sb in zip(a.gt_states, b.gt_states):
            assert np.array_equal(sa, sb)

    def test_detections_carry_their_frame_index(self):
        sc = generate_scenario(small_config(fp_rate=0.5, fn_rate=0.1))
        assert all(d.frame == f for f, frame in enumerate(sc.detections) for d in frame)

    def test_different_seed_differs(self):
        a = generate_scenario(small_config(seed=1))
        b = generate_scenario(small_config(seed=2))
        assert any(
            da.box != db.box
            for fa, fb in zip(a.detections, b.detections)
            for da, db in zip(fa, fb)
        )


class TestNoiseModel:
    def test_noiseless_limit_matches_ground_truth_exactly(self):
        cfg = small_config(noise_base=(0.0,) * 7, noise_range_coeff=(0.0,) * 7)
        sc = generate_scenario(cfg)
        for gt_frame, det_frame in zip(sc.ground_truth, sc.detections):
            assert len(det_frame) == len(gt_frame)
            for (tid, box), det in zip(gt_frame, det_frame):
                assert det.box.x == box.x
                assert det.box.y == box.y
                assert det.box.w == box.w
                assert det.box.theta == box.theta

    def test_empirical_sigma(self):
        # constant sigma_x = 0.1 regardless of range; ~1e5 samples
        cfg = ScenarioConfig(
            n_targets=50, n_frames=2000, dt=0.1, field_extent=40.0,
            noise_base=(0.1, 0.1, 0.05, 0.05, 0.05, 0.05, 0.02),
            noise_range_coeff=(0.0,) * 7, seed=42,
        )
        sc = generate_scenario(cfg)
        errors = []
        for gt_frame, det_frame in zip(sc.ground_truth, sc.detections):
            for (tid, box), det in zip(gt_frame, det_frame):
                errors.append(det.box.x - box.x)
        errors = np.array(errors)
        n = len(errors)
        assert n == 100_000
        sampling_err = 0.1 / math.sqrt(2 * (n - 1))
        assert abs(errors.std(ddof=1) - 0.1) < 3 * sampling_err

    def test_reported_equals_true_when_calibrated(self):
        sc = generate_scenario(small_config(noise_range_coeff=(0.01,) * 7))
        for frame_dets, frame_true in zip(sc.detections, sc.true_variances):
            assert np.array_equal(frame_dets.var, frame_true)

    def test_miscalibration_scales_reported_only(self):
        sc = generate_scenario(small_config(miscalibration_factor=2.0))
        for frame_dets, frame_true in zip(sc.detections, sc.true_variances):
            assert frame_dets.var[:, 0] == pytest.approx(2.0 * frame_true[:, 0], rel=1e-12)

    def test_reported_variance_calibrated_empirically(self):
        cfg = ScenarioConfig(
            n_targets=40, n_frames=2500, dt=0.1, field_extent=40.0,
            noise_base=(0.08, 0.08, 0.05, 0.05, 0.05, 0.05, 0.02),
            noise_range_coeff=(0.0,) * 7, seed=3,
        )
        sc = generate_scenario(cfg)
        errors = []
        reported = []
        for gt_frame, det_frame in zip(sc.ground_truth, sc.detections):
            for (tid, box), det in zip(gt_frame, det_frame):
                errors.append(det.box.y - box.y)
                reported.append(det.variance.var_y)
        emp = np.var(errors, ddof=1)
        assert abs(emp - np.mean(reported)) / np.mean(reported) < 0.05


class TestFalsePositives:
    def test_fp_count_poisson(self):
        # drop every true detection: every remaining one is an FP
        cfg = ScenarioConfig(
            n_targets=1, n_frames=4000, dt=0.1, field_extent=40.0,
            fp_rate=0.5, fn_rate=1.0, seed=77,
        )
        sc = generate_scenario(cfg)
        count = sum(len(f) for f in sc.detections)
        lam = 0.5 * cfg.n_frames
        assert abs(count - lam) < 3 * math.sqrt(lam)

    def test_fp_positions_inside_field(self):
        cfg = small_config(fp_rate=1.0, fn_rate=1.0)
        sc = generate_scenario(cfg)
        for frame in sc.detections:
            for det in frame:
                assert abs(det.box.x) <= cfg.field_extent
                assert abs(det.box.y) <= cfg.field_extent


class TestMotion:
    def test_states_follow_exact_ctra_between_perturbations(self):
        sc = generate_scenario(small_config(n_frames=50))
        for k in range(len(sc.gt_states) - 1):
            propagated = ctra_step(sc.gt_states[k], 0.1)
            nxt = sc.gt_states[k + 1]
            # position, heading and speed are exactly the CTRA image;
            # only a and omega were re-perturbed afterwards
            assert np.array_equal(propagated[:, :4], nxt[:, :4])

    def test_scores_decrease_with_range(self):
        cfg = ScenarioConfig(n_targets=10, n_frames=1, dt=0.1, field_extent=60.0, seed=9)
        sc = generate_scenario(cfg)
        by_range = sorted(
            ((math.hypot(b.x, b.y), d.box.score) for (_, b), d in zip(sc.ground_truth[0], sc.detections[0])),
        )
        ranges = [r for r, _ in by_range]
        scores = [s for _, s in by_range]
        # allow the small score jitter; the trend over the stratified
        # radii must be monotone within its amplitude
        assert scores[0] > scores[-1]
        assert all(s1 >= s2 - 0.05 for s1, s2 in zip(scores, scores[1:]))

    def test_ranges_stay_bounded(self):
        sc = generate_scenario(ScenarioConfig(n_targets=10, n_frames=300, dt=0.1, field_extent=50.0, seed=13))
        max_range = max(np.hypot(s[:, 0], s[:, 1]).max() for s in sc.gt_states)
        assert max_range < 3.0 * 50.0


class TestValidation:
    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(n_targets=0)
        with pytest.raises(ValueError):
            ScenarioConfig(dt=0.0)
        with pytest.raises(ValueError):
            ScenarioConfig(field_extent=-1.0)
        with pytest.raises(ValueError):
            ScenarioConfig(fp_rate=1.5)
        with pytest.raises(ValueError):
            ScenarioConfig(noise_base=(0.1,) * 6)
        with pytest.raises(ValueError):
            ScenarioConfig(miscalibration_factor=0.0)

    @pytest.mark.parametrize("field, value", [
        ("dt", math.inf), ("dt", math.nan), ("field_extent", math.inf),
        ("noise_base", (math.nan,) + (0.1,) * 6), ("noise_range_coeff", (0.0,) * 6 + (math.inf,)),
        ("miscalibration_factor", math.inf),
    ])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            ScenarioConfig(**{field: value})

    def test_scenario_bounds(self):
        ScenarioConfig(n_targets=100_000, n_frames=100)  # 10**7 boxes, the most
        with pytest.raises(ValueError, match=r"^n_targets \* n_frames must be at most 10000000, got 10000001$"):
            ScenarioConfig(n_targets=11, n_frames=909_091)
        # the largest extent whose double is finite builds; the next float's double overflows
        most = sys.float_info.max / 2
        sc = generate_scenario(ScenarioConfig(n_targets=2, n_frames=3, field_extent=most, fp_rate=1.0, seed=1))
        assert all(np.isfinite(frame.rows).all() for frame in sc.detections)
        with pytest.raises(ValueError, match="^field_extent must have a finite double"):
            ScenarioConfig(field_extent=math.nextafter(most, math.inf))


def _scenario_digest(sc) -> str:
    """sha256 over float.hex of every box, variance and state the scenario holds."""
    h = hashlib.sha256()

    def put(values):
        h.update(",".join(float(v).hex() for v in values).encode() + b";")

    for gt_frame, det_frame, true_frame, states in zip(
        sc.ground_truth, sc.detections, sc.true_variances, sc.gt_states
    ):
        for tid, b in gt_frame:
            put((tid, b.x, b.y, b.z, b.w, b.l, b.h, b.theta, b.score))
        for det, true_var in zip(det_frame, true_frame.tolist()):
            b = det.box
            put((b.x, b.y, b.z, b.w, b.l, b.h, b.theta, b.score) + det.variance.as_tuple() + tuple(true_var))
        for row in states:
            put(row)
        h.update(b"|")
    return h.hexdigest()


class TestBits:
    """Pins the simulator's output bits; a refactor of generate_scenario must keep them."""

    @pytest.mark.parametrize("kwargs, expected", [
        (dict(fp_rate=0.7, fn_rate=0.2, noise_range_coeff=(0.01,) * 7),
         "23f4f3d517e0f11d9200a6d46e4f6251e315355c5a7de2d44565cf555b83cb5d"),
        (dict(miscalibration_factor=2.5, noise_range_coeff=(0.005,) * 7),
         "bfa66445f475d663a78cd74360ab5abc1a34a6d29e9851ab736b661f1796da7d"),
        (dict(noise_base=(0.0,) * 7, noise_range_coeff=(0.0,) * 7),
         "e844624b54fae7dd443708c008ec541322dfbe921f0aa2957019edd93301e69f"),
        (dict(n_targets=1, fn_rate=1.0, fp_rate=0.5),
         "ad8cba9822ace4574d40961373e3dcd667b16c394cc2da415f9b57fd8dcde504"),
    ], ids=["fp_fn", "miscalibrated", "noiseless", "one_target_all_missed"])
    def test_scenario_digest(self, kwargs, expected):
        assert _scenario_digest(generate_scenario(small_config(**kwargs))) == expected


class TestBlocks:
    """Each frame's detections are one block; its records are the ones the simulator used to build."""

    CONFIG = dict(n_targets=6, n_frames=40, seed=11, fp_rate=0.7, fn_rate=0.2, noise_range_coeff=(0.01,) * 7)

    def test_indexed_records_keep_their_bits(self):
        # digest of the records the simulator built one by one before it emitted blocks
        sc = generate_scenario(small_config(**self.CONFIG))
        h = hashlib.sha256()
        for frame in sc.detections:
            n = len(frame)
            for i in range(n):
                for d in (frame[i], frame[i - n]):
                    b = d.box
                    h.update(f"{d.frame},{b.class_id}".encode())
                    h.update(",".join(float(v).hex() for v in (b.x, b.y, b.z, b.w, b.l, b.h, b.theta, b.score)
                                      + d.variance.as_tuple()).encode() + b";")
            h.update(b"|")
        assert h.hexdigest() == "72c1765ba5a391cd74114a15b89f211bcc23ecba4f7cd3b1bdee8c4d4ed32b16"

    def test_iteration_equals_indexing(self):
        sc = generate_scenario(small_config(**self.CONFIG))
        for f, frame in enumerate(sc.detections):
            records = list(frame)
            assert len(records) == len(frame) == frame.rows.shape[0]
            assert records == [frame[i] for i in range(len(frame))] == [frame[np.int64(i)] for i in range(len(frame))]
            assert all(type(d.frame) is int and d.frame == f and d.box.class_id == "Car" for d in records)
            if records:
                assert frame[-1] == records[-1] and frame[-len(frame)] == records[0]
            for bad in (len(frame), -len(frame) - 1):
                with pytest.raises(IndexError):
                    frame[bad]

    def test_builds_no_box(self, monkeypatch):
        from uatrack.boxes import Box3D

        built = []
        check = Box3D.__post_init__

        def counted(self):
            built.append(self)
            check(self)

        monkeypatch.setattr(Box3D, "__post_init__", counted)
        cfg = small_config(**self.CONFIG)
        sc = generate_scenario(cfg)
        assert sum(map(len, sc.detections)) > 0 and len(sc.ground_truth.block) == cfg.n_targets * cfg.n_frames
        assert built == []  # neither a detection's box nor a true one

    def test_theta_is_wrapped_as_a_box_wraps_it(self):
        from uatrack.boxes import wrap_angle

        sc = generate_scenario(small_config(**self.CONFIG))
        theta = np.concatenate([frame.rows[:, 6] for frame in sc.detections])
        again = np.array([wrap_angle(t) for t in theta.tolist()])
        assert np.array_equal(again.view(np.uint64), theta.view(np.uint64))

    def test_one_name_str_and_one_state_array(self):
        cfg = small_config(**self.CONFIG)
        sc = generate_scenario(cfg)
        names = [sc.ground_truth.block.class_id, *(frame.class_id for frame in sc.detections)]
        assert {id(name) for column in names for name in column} == {id(names[0][0])}
        assert isinstance(sc.gt_states, np.ndarray) and sc.gt_states.shape == (cfg.n_frames, cfg.n_targets, 6)

    def test_streamed_frames_are_the_scenario_frames(self):
        cfg = small_config(**self.CONFIG)
        sc = generate_scenario(cfg)
        frames = list(scenario_frames(cfg))
        assert len(frames) == cfg.n_frames
        for f, frame in enumerate(frames):
            assert np.array_equal(frame.state, sc.gt_states[f])
            assert np.array_equal(frame.truth.rows, sc.ground_truth.block.rows[f * cfg.n_targets:][:cfg.n_targets])
            assert np.array_equal(frame.detections.rows, sc.detections[f].rows)
            assert np.array_equal(frame.true_variances, sc.true_variances[f])


class TestGroundTruthView:
    """The ground truth is one read-only block, read as the (id, box) frame lists the simulator used to build."""

    CONFIG = dict(n_targets=4, n_frames=12, seed=3, fp_rate=0.5, fn_rate=0.2)

    def test_boxes_are_those_of_the_unwrapped_rows(self):
        # each box was Box3D(*row) of the row with theta unwrapped; the view builds it from the row wrapped once
        # by wrap_angles, so this holds as long as wrap_angle leaves an angle it has wrapped as it is
        from uatrack.boxes import Box3D

        cfg = small_config(n_targets=8, n_frames=300, seed=13)
        sc = generate_scenario(cfg)
        rows = sc.ground_truth.block.rows.reshape(cfg.n_frames, cfg.n_targets, 8).tolist()
        unwrapped = 0
        for frame, states, frame_rows in zip(sc.ground_truth, sc.gt_states, rows):
            assert [tid for tid, _ in frame] == list(range(cfg.n_targets))
            for (_, box), s, row in zip(frame, states.tolist(), frame_rows):
                want = Box3D(s[0], s[1], row[2], row[3], row[4], row[5], s[2])
                unwrapped += not -math.pi < s[2] <= math.pi
                assert box.class_id == want.class_id == "Car"
                assert ([float(v).hex() for v in (box.x, box.y, box.z, box.w, box.l, box.h, box.theta, box.score)]
                        == [float(v).hex() for v in (want.x, want.y, want.z, want.w, want.l, want.h, want.theta,
                                                     want.score)])
        assert unwrapped > 0  # some headings left (-pi, pi], so the rows' theta was wrapped

    def test_reads_as_a_list_of_frames(self):
        from uatrack.boxes import TrackColumns, TrackFrames

        view = generate_scenario(small_config(**self.CONFIG)).ground_truth
        frames = list(view)
        assert len(view) == len(frames) == self.CONFIG["n_frames"]
        for k in range(-len(frames), len(frames)):
            assert view[k] == frames[k]
        assert view[np.int64(2)] == frames[2]
        for bad in (len(frames), -len(frames) - 1):
            with pytest.raises(IndexError):
                view[bad]
        for step_not_1 in (slice(None, None, 2), slice(None, None, -1), slice(8, 2, -3), slice(1, 9, 3)):
            assert view[step_not_1] == frames[step_not_1]
        for s in (slice(3, 9), slice(0, 4), slice(-5, None), slice(7, 3), slice(None, 100), slice(12, None)):
            part, want = view[s], frames[s]
            assert isinstance(part, TrackFrames) and len(part) == len(want) and list(part) == want
            got, ref = TrackColumns.of(part), TrackColumns.of(want)  # frames renumbered as list positions are
            assert np.array_equal(got.frame, ref.frame) and np.array_equal(got.rows, ref.rows)
            assert got.track_id.tolist() == ref.track_id.tolist()
        b = view.block
        for block, n_frames in ((b, 3),  # frames past the third
                                (TrackColumns(b.frame[::-1], b.track_id, b.class_id, b.rows), len(view))):
            with pytest.raises(ValueError, match="ascend"):
                TrackFrames(block, n_frames)

    def test_block_is_read_only(self):
        view = generate_scenario(small_config(**self.CONFIG)).ground_truth
        for block in (view.block, view[2:5].block):
            for column in (block.frame, block.track_id, block.class_id, block.rows):
                with pytest.raises(ValueError, match="read-only"):
                    column[0] = column[-1]

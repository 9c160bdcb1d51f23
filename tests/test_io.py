"""File formats, KITTI import, and config round trips."""

import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from uatrack.boxes import Box3D, BoxVariance
from uatrack.cli import main
from uatrack.geometry import _box_table, _table
from uatrack.io import (
    DET_COLUMNS_VAR,
    MAX_FRAME_INDEX,
    TRACK_COLUMNS,
    DetectionRecord,
    FormatError,
    RunConfig,
    config_from_dict,
    config_to_dict,
    detections_to_frames,
    load_config,
    parse_kitti_labels,
    read_detection_columns,
    read_detections,
    read_track_columns,
    read_tracks,
    save_config,
    write_detections,
    write_tracks,
)
from uatrack.sim import ScenarioConfig, generate_scenario
from uatrack.tracker import Tracker


def random_records(rng, n, with_var=True):
    out = []
    for i in range(n):
        box = Box3D(
            x=rng.uniform(-80, 80), y=rng.uniform(-80, 80), z=rng.uniform(-2, 2),
            w=rng.uniform(0.3, 5), l=rng.uniform(0.3, 5), h=rng.uniform(0.3, 5),
            theta=rng.uniform(-math.pi, math.pi),
            class_id="Car", score=rng.uniform(0.01, 1.0),
        )
        var = BoxVariance(*rng.uniform(1e-4, 4.0, 7)) if with_var else None
        out.append(DetectionRecord(int(rng.integers(0, 50)), box, var))
    return out


class TestDetectionsRoundTrip:
    def test_round_trip_with_variance(self, tmp_path):
        rng = np.random.default_rng(0)
        records = random_records(rng, 1000)
        path = tmp_path / "dets.csv"
        write_detections(path, records)
        back = read_detections(path)
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert a.frame == b.frame
            assert b.box.x == pytest.approx(a.box.x, rel=1e-8)
            assert b.variance.var_theta == pytest.approx(a.variance.var_theta, rel=1e-8)

    def test_write_is_bit_stable(self, tmp_path):
        # a second write of the parsed records reproduces the bytes
        rng = np.random.default_rng(1)
        records = random_records(rng, 300)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_detections(p1, records)
        write_detections(p2, read_detections(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_without_variance(self, tmp_path):
        rng = np.random.default_rng(2)
        records = random_records(rng, 10, with_var=False)
        path = tmp_path / "plain.csv"
        write_detections(path, records)
        back = read_detections(path)
        assert all(r.variance is None for r in back)
        frames = detections_to_frames(back)
        assert all(d.variance is None for f in frames for d in f)

    def test_mixed_variance_rejected(self, tmp_path):
        rng = np.random.default_rng(3)
        records = random_records(rng, 4, with_var=True) + random_records(rng, 1, with_var=False)
        with pytest.raises(FormatError):
            write_detections(tmp_path / "x.csv", records)

    def test_missing_version_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frame,class,x,y,z,w,l,h,theta,score\n")
        with pytest.raises(FormatError):
            read_detections(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# uatrack-v1\nframe,x\n")
        with pytest.raises(FormatError):
            read_detections(path)

    def test_field_count_error_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# uatrack-v1\nframe,class,x,y,z,w,l,h,theta,score\n0,Car,1,2\n")
        with pytest.raises(FormatError, match=":3:"):
            read_detections(path)


class TestTracksRoundTrip:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        rows = [(r.frame, i + 1, r.box) for i, r in enumerate(random_records(rng, 100, with_var=False))]
        path = tmp_path / "tracks.csv"
        write_tracks(path, rows)
        back = read_tracks(path)
        assert [(f, i) for f, i, _ in back] == [(f, i) for f, i, _ in rows]
        assert back[0][2].l == pytest.approx(rows[0][2].l, rel=1e-8)


class TestKittiLabels:
    CAR_LINE = "Car 0.00 0 -1.58 587.01 173.33 614.12 200.12 1.65 1.67 3.64 -0.65 1.71 46.70 -1.59"

    def test_single_car_line(self, tmp_path):
        path = tmp_path / "label.txt"
        path.write_text(self.CAR_LINE + "\n")
        frames = parse_kitti_labels(path)
        assert list(frames) == [0]
        b = frames[0][0]
        assert (b.h, b.w, b.l) == (1.65, 1.67, 3.64)
        # camera (x right, y down, z fwd) -> internal (x fwd, y left, z up)
        assert b.x == pytest.approx(46.70)
        assert b.y == pytest.approx(0.65)
        assert b.z == pytest.approx(-1.71 + 1.65 / 2)
        assert b.theta == pytest.approx(-(-1.59) - math.pi / 2, abs=1e-9)
        assert b.class_id == "Car"

    def test_dontcare_skipped(self, tmp_path):
        path = tmp_path / "label.txt"
        path.write_text(
            "DontCare -1 -1 -10 503.89 169.71 590.61 190.13 -1 -1 -1 -1000 -1000 -1000 -10\n"
            + self.CAR_LINE + "\n"
        )
        frames = parse_kitti_labels(path)
        assert len(frames[0]) == 1

    def test_tracking_format(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text(
            "0 2 " + self.CAR_LINE + "\n"
            "1 2 " + self.CAR_LINE + "\n"
        )
        frames = parse_kitti_labels(path)
        assert sorted(frames) == [0, 1]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert parse_kitti_labels(path) == {}

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(self.CAR_LINE + "\nCar 1 2 3\n")
        with pytest.raises(FormatError, match=":2:"):
            parse_kitti_labels(path)

    @pytest.mark.parametrize("frame", ["inf", "-3", "1.7", str(MAX_FRAME_INDEX + 1)])
    def test_bad_tracking_frame_names_line(self, tmp_path, frame):
        path = tmp_path / "seq.txt"
        path.write_text("0 2 " + self.CAR_LINE + "\n" + f"{frame} 2 " + self.CAR_LINE + "\n")
        with pytest.raises(FormatError, match="seq.txt:2: bad frame index"):
            parse_kitti_labels(path)

    @pytest.mark.parametrize(
        "width, message",
        [("-1.8", "dimensions must be positive"), ("nan", "must be finite"), ("x", "could not convert")],
    )
    def test_bad_box_names_line(self, tmp_path, width, message):
        fields = self.CAR_LINE.split()
        fields[9] = width
        path = tmp_path / "bad.txt"
        path.write_text(self.CAR_LINE + "\n" + " ".join(fields) + "\n")
        with pytest.raises(FormatError, match=f"bad.txt:2: .*{message}"):
            parse_kitti_labels(path)


class TestRunConfig:
    def test_default_round_trip(self, tmp_path):
        cfg = RunConfig()
        path = tmp_path / "cfg.json"
        save_config(path, cfg)
        again = load_config(path)
        assert config_to_dict(again) == config_to_dict(cfg)
        assert again == cfg

    def test_modified_round_trip(self):
        d = config_to_dict(RunConfig())
        d["tracker"]["gate_distance"] = 7.5
        d["scenario"]["noise_range_coeff"] = [0.01] * 7
        d["scoring"]["strategy"] = "exponential"
        cfg = config_from_dict(d)
        assert cfg.tracker.gate_distance == 7.5
        assert config_to_dict(cfg)["scoring"]["strategy"] == "exponential"
        assert config_to_dict(cfg) == json.loads(json.dumps(config_to_dict(cfg)))

    def test_unknown_top_level_key(self):
        with pytest.raises(FormatError, match="unknown config key"):
            config_from_dict({"bogus": 1})

    def test_unknown_section_key(self):
        with pytest.raises(FormatError, match="tracker"):
            config_from_dict({"tracker": {"gate": 1.0}})

    def test_default_obs_sigma_maps_to_variance(self):
        cfg = config_from_dict({"tracker": {"default_obs_sigma": [0.5] * 7}})
        assert cfg.tracker.default_obs_sigma == (0.5,) * 7
        # a variance-free detection spawns a track with variance sigma**2
        tracker = Tracker(cfg.tracker)
        tracker.step([DetectionRecord(0, Box3D(1.0, 2.0, 0.0, 1.8, 4.2, 1.5, 0.3))], 0.1)
        assert np.diag(tracker.table["cov"][0])[:3].tolist() == [0.25] * 3
        assert tracker.table["size_var"][0].tolist() == [0.25] * 2

    def test_process_noise_diag_length_checked(self):
        with pytest.raises(FormatError):
            config_from_dict({"tracker": {"process_noise_diag": [1.0, 2.0]}})

    @pytest.mark.parametrize("data", [
        {"scoring": {"strategy": "bogus"}},
        {"tracker": {"gate_distance": -1}},
        {"tracker": {"default_obs_sigma": [-0.5] * 7}},
        {"nms": {"iou_threshold": 1.5}},
        {"scenario": {"n_targets": 0}},
        {"scenario": {"noise_base": [0.1] * 6}},
        {"eval": {"recall_points": 0}},
        {"tracker": 5},
        {"tracker": {"process_noise_diag": [-1e-4, 1e-4, 1e-5, 0.01, 0.64, 0.0225]}},
        {"tracker": {"default_obs_sigma": [1e-200] * 7}},  # the squares underflow to 0
    ])
    def test_invalid_values_raise_format_error(self, data):
        with pytest.raises(FormatError, match="config"):
            config_from_dict(data)

    def test_readme_example_is_the_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
        assert json.loads(block) == config_to_dict(RunConfig())


def _write_rows(path, header, rows):
    path.write_text("\n".join(["# uatrack-v1", header] + rows) + "\n")


DET_ROW = "0,Car,1,2,0,1.8,4.2,1.5,0.3,0.9"
VAR_ROW = DET_ROW + ",0.1,0.1,0.1,0.1,0.1,0.1,0.1"
TRACK_ROW = "0,1,Car,1,2,0,1.8,4.2,1.5,0.3,0.9"


class TestReaderChecks:
    @pytest.mark.parametrize("bad", [
        DET_ROW.replace("0,Car,1,", "0,Car,nan,") + ",0.1,0.1,0.1,0.1,0.1,0.1,0.1",
        VAR_ROW[: -len("0.1")] + "inf",
        VAR_ROW.replace(",1.8,", ",-1,"),
        VAR_ROW[: -len("0.1")] + "0",
        "-1" + VAR_ROW[1:],
        str(MAX_FRAME_INDEX + 1) + VAR_ROW[1:],
    ])
    def test_bad_detection_row_names_line(self, tmp_path, bad):
        path = tmp_path / "dets.csv"
        _write_rows(path, ",".join(["frame", "class", "x", "y", "z", "w", "l", "h", "theta", "score",
                                    "var_x", "var_y", "var_z", "var_w", "var_l", "var_h", "var_theta"]),
                    [VAR_ROW, bad])
        with pytest.raises(FormatError, match=":4:"):
            read_detections(path)

    @pytest.mark.parametrize("bad", [
        TRACK_ROW.replace(",Car,1,", ",Car,nan,"),
        "-1" + TRACK_ROW[1:],
        str(MAX_FRAME_INDEX + 1) + TRACK_ROW[1:],
        TRACK_ROW,  # the same id twice in one frame
    ])
    def test_bad_track_row_names_line(self, tmp_path, bad):
        path = tmp_path / "tracks.csv"
        _write_rows(path, "frame,id,class,x,y,z,w,l,h,theta,score", [TRACK_ROW, bad])
        with pytest.raises(FormatError, match=":4:"):
            read_tracks(path)

    # (column, bad value, error) of one fault each, in the order a row's checks run
    DET_FAULTS = [
        ("frame", "-1", "negative frame index -1"),
        ("y", "abc", "could not convert"),
        ("x", "nan", "box values must be finite"),
        ("w", "-1", "box dimensions must be positive"),
        ("var_h", "0", "variances must be finite and positive"),
    ]
    TRACK_FAULTS = [
        ("frame", "1.5", "invalid literal"),
        ("x", "abc", "could not convert"),
        ("id", "x", "invalid literal"),
        ("h", "0", "box dimensions must be positive"),
        ("score", "inf", "box values must be finite"),
        ("id", "1", "id 1 repeated in frame 0"),  # line 3 holds id 1 in frame 0
    ]

    @staticmethod
    def _with(row, columns, name, value):
        parts = row.split(",")
        parts[columns.index(name)] = value
        return ",".join(parts)

    @pytest.mark.parametrize("first, second", itertools.permutations(range(len(DET_FAULTS)), 2))
    def test_detection_file_names_the_earlier_of_two_faults(self, tmp_path, first, second):
        (name, value, error), fault = self.DET_FAULTS[first], self.DET_FAULTS[second]
        path = tmp_path / "dets.csv"
        # the blank line 4 counts: the first fault is on line 5
        _write_rows(path, ",".join(DET_COLUMNS_VAR), [
            VAR_ROW, "", self._with(VAR_ROW, DET_COLUMNS_VAR, name, value),
            VAR_ROW, self._with(VAR_ROW, DET_COLUMNS_VAR, *fault[:2]),
        ])
        with pytest.raises(FormatError, match=f"dets.csv:5: {error}"):
            read_detections(path)

    @pytest.mark.parametrize("first, second", itertools.permutations(range(len(TRACK_FAULTS)), 2))
    def test_track_file_names_the_earlier_of_two_faults(self, tmp_path, first, second):
        (name, value, error), fault = self.TRACK_FAULTS[first], self.TRACK_FAULTS[second]
        row = self._with(TRACK_ROW, TRACK_COLUMNS, "id", "2")
        path = tmp_path / "tracks.csv"
        _write_rows(path, ",".join(TRACK_COLUMNS), [
            TRACK_ROW, "", self._with(self._with(row, TRACK_COLUMNS, "id", "3"), TRACK_COLUMNS, name, value),
            row, self._with(self._with(row, TRACK_COLUMNS, "id", "4"), TRACK_COLUMNS, *fault[:2]),
        ])
        with pytest.raises(FormatError, match=f"tracks.csv:5: {error}"):
            read_tracks(path)

    @pytest.mark.parametrize("columns, row, faults, error", [
        (DET_COLUMNS_VAR, VAR_ROW, [("w", "-1"), ("frame", "-1")], "negative frame index"),
        (DET_COLUMNS_VAR, VAR_ROW, [("x", "nan"), ("y", "abc")], "could not convert"),
        (DET_COLUMNS_VAR, VAR_ROW, [("var_x", "0"), ("h", "0")], "box dimensions must be positive"),
        (TRACK_COLUMNS, TRACK_ROW, [("x", "nan"), ("id", "x")], "invalid literal"),
    ])
    def test_one_row_with_two_faults_names_the_check_a_row_reader_makes_first(self, tmp_path, columns, row, faults,
                                                                             error):
        for name, value in faults:
            row = self._with(row, columns, name, value)
        path = tmp_path / "table.csv"
        _write_rows(path, ",".join(columns), [row])
        with pytest.raises(FormatError, match=f"table.csv:3: {error}"):
            (read_tracks if columns == TRACK_COLUMNS else read_detections)(path)

    @pytest.mark.parametrize("frame", [-1])
    def test_detections_to_frames_range_checked(self, frame):
        box = Box3D(0, 0, 0, 1, 1, 1, 0)
        with pytest.raises(FormatError, match="out of range"):
            detections_to_frames([DetectionRecord(frame, box)])


@pytest.fixture(scope="module")
def pipeline_files(tmp_path_factory):
    """Detection and track files of two pipelines: (detection paths, track paths).

    postproc-shaped: every simulated detection with two jittered
    near-duplicates and inflated variances, before and after `uatrack
    nms --strategy exponential`.  Criterion 11: `simulate` and `track`
    with that criterion's flags.
    """
    d = tmp_path_factory.mktemp("pipelines")
    scenario = generate_scenario(ScenarioConfig(n_targets=12, n_frames=40, fp_rate=1.0, fn_rate=0.1,
                                                field_extent=60.0, seed=14))
    rng = np.random.default_rng(14)
    records = []
    for f, frame in enumerate(scenario.detections):
        for det in frame:
            records.append(DetectionRecord(f, det.box, det.variance))
            for dx, dy, dth, dsc in rng.standard_normal((2, 4)):
                box = Box3D(det.box.x + 0.4 * dx, det.box.y + 0.4 * dy, det.box.z, det.box.w, det.box.l, det.box.h,
                            det.box.theta + 0.05 * dth, score=min(max(det.box.score + 0.03 * dsc, 0.02), 0.99))
                records.append(DetectionRecord(f, box, BoxVariance(*(2.5 * v for v in det.variance.as_tuple()))))
    write_detections(d / "pp_dets.csv", records)
    write_tracks(d / "pp_gt.csv", [(f, i, b) for f, frame in enumerate(scenario.ground_truth) for i, b in frame])
    assert main(["nms", "--dets", str(d / "pp_dets.csv"), "--out", str(d / "pp_kept.csv"),
                 "--strategy", "exponential"]) == 0
    assert main(["simulate", "--out-gt", str(d / "c11_gt.csv"), "--out-dets", str(d / "c11_dets.csv"),
                 "--n-targets", "8", "--n-frames", "60", "--fp-rate", "0.5", "--fn-rate", "0.1",
                 "--noise-range-coeff", "0.012,0.002,0.002,0.001,0.001,0.001,0.001", "--seed", "11"]) == 0
    assert main(["track", "--dets", str(d / "c11_dets.csv"), "--out", str(d / "c11_tracks.csv"), "--dt", "0.1"]) == 0
    return ([d / name for name in ("pp_dets.csv", "pp_kept.csv", "c11_dets.csv")],
            [d / name for name in ("pp_gt.csv", "c11_gt.csv", "c11_tracks.csv")])


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class TestColumnReadersFeedTheKernel:
    """The column readers' rows are the kernel rows of the boxes read_detections and read_tracks build, bit for bit."""

    def test_detection_files(self, pipeline_files):
        for path in pipeline_files[0]:
            columns = read_detection_columns(path)
            boxes = [r.box for r in read_detections(path)]
            assert len(boxes) > 100
            assert [_bits(a) for a in _table(columns.rows[:, :7])] == [_bits(a) for a in _box_table(boxes)]
            assert _bits(columns.rows[:, 7]) == _bits([b.score for b in boxes])

    def test_track_files(self, pipeline_files):
        for path in pipeline_files[1]:
            columns = read_track_columns(path)
            rows = read_tracks(path)
            boxes = [b for _, _, b in rows]
            assert len(boxes) > 100
            assert [_bits(a) for a in _table(columns.rows[:, :7])] == [_bits(a) for a in _box_table(boxes)]
            assert _bits(columns.rows[:, 7]) == _bits([b.score for b in boxes])
            assert columns.frame.dtype == np.int64
            assert columns.frame.tolist() == [f for f, _, _ in rows]
            assert all(type(i) is int for i in columns.track_id.tolist())
            assert columns.track_id.tolist() == [i for _, i, _ in rows]
            assert columns.class_id.tolist() == [b.class_id for b in boxes]

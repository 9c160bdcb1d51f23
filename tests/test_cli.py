"""End-to-end CLI behavior: determinism, formats, exit codes."""

import errno
import os
from dataclasses import replace

import pytest

from uatrack import scoring
from uatrack.cli import MAX_PLOT_POINTS, build_parser, main
from uatrack.experiments import SCENARIO, SIGMA_GRID, TRACKER, compare_adaptive_vs_constant
from uatrack.io import format_float, read_detections, read_tracks, write_tracks
from uatrack.metrics import MAX_RECALL_POINTS

# The paper's range-dependent noise coefficients as one simulate flag value.
RANGE_COEFF = ",".join(map(str, SCENARIO.noise_range_coeff))


def run(args):
    return main(args)


def exit_code(args):
    """main's return value, or the code argparse exits with."""
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


class TestSimulateTrackEval:
    def test_pipeline_deterministic(self, tmp_path, capsys):
        args_common = [
            "--n-targets", "4", "--n-frames", "40", "--fp-rate", "0.3", "--fn-rate", "0.1",
            "--noise-range-coeff", "0.01,0.002,0.002,0.001,0.001,0.001,0.001",
            "--seed", "3",
        ]
        files = {}
        for tag in ("a", "b"):
            gt = tmp_path / f"gt_{tag}.csv"
            dets = tmp_path / f"dets_{tag}.csv"
            trk = tmp_path / f"trk_{tag}.csv"
            rep = tmp_path / f"rep_{tag}.csv"
            assert run(["simulate", "--out-gt", str(gt), "--out-dets", str(dets)] + args_common) == 0
            assert run(["track", "--dets", str(dets), "--out", str(trk), "--dt", "0.1"]) == 0
            assert run(["eval-track", "--gt", str(gt), "--tracks", str(trk), "--out", str(rep)]) == 0
            files[tag] = (gt.read_bytes(), dets.read_bytes(), trk.read_bytes(), rep.read_bytes())
        assert files["a"] == files["b"]

    def test_simulated_file_groups_into_the_scenario_frames(self, tmp_path):
        from uatrack.io import detections_to_frames
        from uatrack.sim import ScenarioConfig, generate_scenario

        gt, dets = tmp_path / "gt.csv", tmp_path / "dets.csv"
        # two targets missed half the time: some frames, the last ones too, may hold no detection
        assert run(["simulate", "--out-gt", str(gt), "--out-dets", str(dets), "--n-targets", "2",
                    "--n-frames", "40", "--fn-rate", "0.5", "--fp-rate", "0.2", "--seed", "4"]) == 0
        scenario = generate_scenario(ScenarioConfig(n_targets=2, n_frames=40, fn_rate=0.5, fp_rate=0.2, seed=4))
        counts = [len(frame) for frame in scenario.detections]
        while counts and counts[-1] == 0:
            counts.pop()
        assert 0 in counts
        frames = detections_to_frames(read_detections(dets))
        assert [len(frame) for frame in frames] == counts
        assert all(d.frame == f for f, frame in enumerate(frames) for d in frame)

    def test_track_constant_sigma_flag(self, tmp_path):
        gt = tmp_path / "gt.csv"
        dets = tmp_path / "dets.csv"
        run(["simulate", "--out-gt", str(gt), "--out-dets", str(dets),
             "--n-targets", "3", "--n-frames", "20", "--seed", "1"])
        out_a = tmp_path / "adaptive.csv"
        out_c = tmp_path / "constant.csv"
        assert run(["track", "--dets", str(dets), "--out", str(out_a), "--use-variance"]) == 0
        assert run(["track", "--dets", str(dets), "--out", str(out_c), "--constant-sigma", "0.5"]) == 0
        assert read_tracks(out_a) and read_tracks(out_c)

    def test_adaptive_beats_constant_sigma(self, tmp_path):
        from uatrack.io import read_track_columns
        from uatrack.metrics import EvalConfig, clear_mot_rows

        gt = tmp_path / "gt.csv"
        dets = tmp_path / "dets.csv"
        run(["simulate", "--out-gt", str(gt), "--out-dets", str(dets),
             "--n-targets", "8", "--n-frames", "80", "--field-extent", "60",
             "--noise-base", ",".join(map(str, SCENARIO.noise_base)), "--noise-range-coeff", RANGE_COEFF,
             "--fp-rate", "0.5", "--fn-rate", "0.1", "--seed", "12"])
        cfg = EvalConfig(iou_threshold=0.5)
        motas = {}
        for tag, flags in (("adaptive", ["--use-variance"]), ("constant", ["--constant-sigma", "1.0"])):
            out = tmp_path / f"{tag}.csv"
            assert run(["track", "--dets", str(dets), "--out", str(out), "--dt", "0.1"] + flags) == 0
            motas[tag] = clear_mot_rows(read_track_columns(gt), read_track_columns(out), cfg).mota
        assert motas["adaptive"] > motas["constant"]

    def test_conflicting_flags_error(self, tmp_path, capsys):
        dets = tmp_path / "dets.csv"
        gt = tmp_path / "gt.csv"
        run(["simulate", "--out-gt", str(gt), "--out-dets", str(dets),
             "--n-targets", "2", "--n-frames", "5", "--seed", "0"])
        rc = run(["track", "--dets", str(dets), "--out", str(tmp_path / "t.csv"),
                  "--constant-sigma", "1.0", "--use-variance"])
        assert rc == 2

    def test_eval_track_prints_the_out_row(self, tmp_path, capsys):
        gt, dets, trk, rep = (tmp_path / f"{name}.csv" for name in ("gt", "dets", "trk", "rep"))
        run(["simulate", "--out-gt", str(gt), "--out-dets", str(dets),
             "--n-targets", "3", "--n-frames", "20", "--fp-rate", "0.5", "--fn-rate", "0.2", "--seed", "6"])
        run(["track", "--dets", str(dets), "--out", str(trk)])
        capsys.readouterr()
        assert run(["eval-track", "--gt", str(gt), "--tracks", str(trk), "--out", str(rep)]) == 0
        printed = [line.split(":")[1].split()[0] for line in capsys.readouterr().out.splitlines()]
        header, row = (line.split(",") for line in rep.read_text().splitlines()[1:])
        assert header == ["ap", "max_f1", "idsw", "frag", "ml", "mota", "fn", "fp", "gt_total"]
        percent = {"ap", "max_f1", "ml", "mota"}  # printed to 2 decimals, written to 9 digits
        assert printed == [f"{float(v):.2f}" if c in percent else v for c, v in zip(header, row)]
        assert int(row[header.index("gt_total")]) > 0

    def test_eval_det(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        dets = tmp_path / "dets.csv"
        run(["simulate", "--out-gt", str(gt), "--out-dets", str(dets),
             "--n-targets", "3", "--n-frames", "15", "--seed", "2"])
        assert run(["eval-det", "--gt", str(gt), "--dets", str(dets), "--iou-threshold", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "AP:" in out and "Max F1:" in out


class TestCheckLosses:
    def test_passes_and_prints(self, capsys):
        assert run(["check-losses", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6
        assert "FAIL" not in out


class TestNmsCommand:
    def test_filters_duplicates(self, tmp_path):
        gt = tmp_path / "gt.csv"
        dets = tmp_path / "dets.csv"
        run(["simulate", "--out-gt", str(gt), "--out-dets", str(dets),
             "--n-targets", "3", "--n-frames", "10", "--seed", "4"])
        records = read_detections(dets)
        doubled = records + records  # exact duplicates must be suppressed
        from uatrack.io import write_detections

        dup_path = tmp_path / "dup.csv"
        write_detections(dup_path, doubled)
        out_path = tmp_path / "nms.csv"
        assert run(["nms", "--dets", str(dup_path), "--out", str(out_path),
                    "--strategy", "linear", "--ks", "0.001"]) == 0
        kept = read_detections(out_path)
        assert len(kept) == len(records)

    def test_strategy_requires_variance(self, tmp_path):
        from uatrack.io import DetectionRecord, write_detections
        from uatrack.boxes import Box3D

        path = tmp_path / "novar.csv"
        write_detections(path, [DetectionRecord(0, Box3D(0, 0, 0, 1, 1, 1, 0, score=0.5), None)])
        rc = run(["nms", "--dets", str(path), "--out", str(tmp_path / "o.csv"),
                  "--strategy", "sigmoid"])
        assert rc == 2


    @staticmethod
    def _nms(tmp_path, scores, *flags):
        """Run nms over one car per frame, scored as given, each with a variance."""
        from uatrack.boxes import Box3D, BoxVariance
        from uatrack.io import DetectionRecord, write_detections

        path, out = tmp_path / "dets.csv", tmp_path / "kept.csv"
        write_detections(path, [DetectionRecord(f, Box3D(0, 0, 0, 1.6, 3.9, 1.5, 0, score=s), BoxVariance(*[0.1] * 7))
                                for f, s in enumerate(scores)])
        return run(["nms", "--dets", str(path), "--out", str(out), *flags]), out

    def test_nonpositive_score_exits_2_naming_the_frame(self, tmp_path, capsys):
        # readers accept any finite score; rescoring needs its log
        rc, _ = self._nms(tmp_path, [0.5, 0.6, 0.0], "--strategy", "linear")
        assert rc == 2
        assert "error: frame 2: cannot rescore: detection_score must be > 0" in capsys.readouterr().err

    def test_rescored_value_beyond_float_range_exits_2_naming_the_frame(self, tmp_path, capsys):
        rc, _ = self._nms(tmp_path, [0.5], "--strategy", "linear", "--bs", "1000")
        assert rc == 2
        assert "error: frame 0: cannot rescore: rescored value" in capsys.readouterr().err

    def test_unsorted_file_names_the_lowest_bad_frame(self, tmp_path, capsys):
        # frames are rescored in ascending order, whatever the file's order
        from uatrack.boxes import Box3D, BoxVariance
        from uatrack.io import DetectionRecord, write_detections

        path = tmp_path / "dets.csv"
        write_detections(path, [DetectionRecord(f, Box3D(0, 0, 0, 1.6, 3.9, 1.5, 0, score=s), BoxVariance(*[0.1] * 7))
                                for f, s in [(5, 0.0), (0, 0.5), (2, 0.7), (2, -0.5)]])
        assert run(["nms", "--dets", str(path), "--out", str(tmp_path / "kept.csv"), "--strategy", "linear"]) == 2
        assert "error: frame 2: cannot rescore: detection_score must be > 0" in capsys.readouterr().err

        # frame 1 holds two failing rows, neither first in the file: a score of 0, then h = 1e-200, whose square
        # underflows; the first of them in input order names the error, though an encoding fails before a score
        gt = tmp_path / "gt.csv"
        write_detections(path, [DetectionRecord(f, Box3D(0, 0, 0, 1.6, 3.9, h, 0, score=s), BoxVariance(*[0.1] * 7))
                                for f, h, s in [(3, 1e-200, 0.5), (1, 1.5, 0.5), (1, 1.5, 0.0), (1, 1e-200, 0.5)]])
        write_tracks(gt, [(f, 1, Box3D(0, 0, 0, 1.6, 3.9, 1.5, 0)) for f in range(4)])
        for argv in (["nms", "--dets", str(path), "--out", str(tmp_path / "kept.csv"), "--strategy", "linear"],
                     ["sweep", "--mode", "nms", "--gt", str(gt), "--dets", str(path),
                      "--param", "scoring.strategy=none,linear", "--out", str(tmp_path / "rows.csv")]):
            assert run(argv) == 2
            assert capsys.readouterr().err == "error: frame 1: cannot rescore: detection_score must be > 0\n"

    def test_rescoring_arithmetic_error_exits_2_naming_the_frame(self, tmp_path, capsys):
        # h squared underflows to 0 in the self-anchored encoding
        from uatrack.boxes import Box3D, BoxVariance
        from uatrack.io import DetectionRecord, write_detections

        path = tmp_path / "dets.csv"
        write_detections(path, [DetectionRecord(3, Box3D(0, 0, 0, 1.6, 3.9, 1e-200, 0, score=0.5), BoxVariance(*[0.1] * 7))])
        assert run(["nms", "--dets", str(path), "--out", str(tmp_path / "kept.csv"), "--strategy", "linear"]) == 2
        assert "error: frame 3: cannot rescore: float division by zero" in capsys.readouterr().err

    @pytest.mark.parametrize("mapping_frame, encoding_frame", [(1, 4), (4, 1)])
    def test_the_first_failing_frame_is_named_whichever_step_fails(self, tmp_path, capsys, mapping_frame,
                                                                   encoding_frame):
        """A score of 0 fails the mapping, h = 1e-200 the encoding (h squared underflows); the lower frame is named."""
        from uatrack.boxes import Box3D, BoxVariance
        from uatrack.io import DetectionRecord, write_detections

        def box(f):
            return Box3D(f, 0, 0, 1.6, 3.9, 1e-200 if f == encoding_frame else 1.5, 0,
                         score=0.0 if f == mapping_frame else 0.5)

        path, gt = tmp_path / "dets.csv", tmp_path / "gt.csv"
        write_detections(path, [DetectionRecord(f, box(f), BoxVariance(*[0.1] * 7)) for f in reversed(range(6))])
        write_tracks(gt, [(f, 1, Box3D(f, 0, 0, 1.6, 3.9, 1.5, 0)) for f in range(6)])
        first = min(mapping_frame, encoding_frame)
        error = "detection_score must be > 0" if first == mapping_frame else "float division by zero"
        for argv in (["nms", "--dets", str(path), "--out", str(tmp_path / "kept.csv"), "--strategy", "linear"],
                     ["sweep", "--mode", "nms", "--gt", str(gt), "--dets", str(path),
                      "--param", "scoring.strategy=none,linear", "--out", str(tmp_path / "rows.csv")]):
            capsys.readouterr()
            assert run(argv) == 2
            assert capsys.readouterr().err == f"error: frame {first}: cannot rescore: {error}\n"

    def test_empty_file_keeps_nothing_and_writes_no_variance_columns(self, tmp_path):
        from uatrack.io import DET_COLUMNS, DET_COLUMNS_VAR

        path, out = tmp_path / "dets.csv", tmp_path / "kept.csv"
        path.write_text("# uatrack-v1\n" + ",".join(DET_COLUMNS_VAR) + "\n")
        assert run(["nms", "--dets", str(path), "--out", str(out), "--strategy", "exponential"]) == 0
        assert out.read_text() == "# uatrack-v1\n" + ",".join(DET_COLUMNS) + "\n"

    def test_exponential_overflow_rescores_to_zero(self, tmp_path):
        rc, out = self._nms(tmp_path, [0.5, 0.9], "--strategy", "exponential", "--bs", "1000")
        assert rc == 0
        assert [(r.frame, r.box.score) for r in read_detections(out)] == [(0, 0.0), (1, 0.0)]


class TestSweep:
    def test_track_sweep_rows(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        dets = tmp_path / "dets.csv"
        run(["simulate", "--out-gt", str(gt), "--out-dets", str(dets),
             "--n-targets", "3", "--n-frames", "20", "--seed", "5"])
        out = tmp_path / "rows.csv"
        assert run(["sweep", "--mode", "track", "--gt", str(gt), "--dets", str(dets),
                    "--param", "tracker.constant_sigma=0.2,1.0", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# uatrack-v1"
        assert lines[1].startswith("tracker.constant_sigma,ap,")
        assert len(lines) == 4

    def test_track_sweep_equals_track_then_eval(self, tmp_path):
        """A sweep cell scores what `track` then `eval-track` score, also past the last detection."""
        from uatrack.io import write_detections

        gt = tmp_path / "gt.csv"
        dets = tmp_path / "dets.csv"
        assert run(["simulate", "--out-gt", str(gt), "--out-dets", str(dets),
                    "--n-targets", "6", "--n-frames", "40", "--seed", "9"]) == 0
        cut = tmp_path / "cut.csv"
        write_detections(cut, [r for r in read_detections(dets) if r.frame < 37])
        trk = tmp_path / "trk.csv"
        rep = tmp_path / "rep.csv"
        rows = tmp_path / "rows.csv"
        assert run(["track", "--dets", str(cut), "--out", str(trk)]) == 0
        assert run(["eval-track", "--gt", str(gt), "--tracks", str(trk), "--out", str(rep)]) == 0
        assert run(["sweep", "--mode", "track", "--gt", str(gt), "--dets", str(cut),
                    "--param", "tracker.t_init=3", "--out", str(rows)]) == 0
        report = rep.read_text().splitlines()[2].split(",")
        assert rows.read_text().splitlines()[2] == ",".join(["3"] + report[:6])

    def test_track_sweep_builds_one_truth_table(self, tmp_path, monkeypatch):
        """The cells share the ground truth's side: one truth table and one per cell, each row as its own sweep's."""
        from uatrack import metrics

        gt, dets = tmp_path / "gt.csv", tmp_path / "dets.csv"
        assert run(["simulate", "--out-gt", str(gt), "--out-dets", str(dets), "--n-targets", "4", "--n-frames", "25",
                    "--fp-rate", "0.5", "--fn-rate", "0.1", "--seed", "6"]) == 0
        sigmas = ["0.1", "0.5", "2"]

        def sweep(values):
            out = tmp_path / "rows.csv"
            assert run(["sweep", "--mode", "track", "--gt", str(gt), "--dets", str(dets),
                        "--param", "tracker.constant_sigma=" + ",".join(values), "--out", str(out)]) == 0
            return out.read_text().splitlines()

        alone = [sweep([v])[2] for v in sigmas]
        built = []
        table = metrics._table
        monkeypatch.setattr(metrics, "_table", lambda fields: built.append(len(fields)) or table(fields))
        assert sweep(sigmas)[2:] == alone
        assert len(built) == 1 + len(sigmas)

    def test_nms_sweep_builds_one_truth_table(self, tmp_path, monkeypatch):
        """The cells share the ground truth's side: one truth table and one per cell, each row as its own sweep's."""
        from uatrack import metrics

        gt, dets = tmp_path / "gt.csv", tmp_path / "dets.csv"
        assert run(["simulate", "--out-gt", str(gt), "--out-dets", str(dets), "--n-targets", "4", "--n-frames", "25",
                    "--fp-rate", "0.5", "--fn-rate", "0.1", "--seed", "6"]) == 0
        k_s = ["0.5", "1", "2"]

        def sweep(values):
            out = tmp_path / "rows.csv"
            assert run(["sweep", "--mode", "nms", "--gt", str(gt), "--dets", str(dets),
                        "--param", "scoring.k_s=" + ",".join(values), "--out", str(out)]) == 0
            return out.read_text().splitlines()

        alone = [sweep([v])[2] for v in k_s]
        built = []
        table = metrics._table
        monkeypatch.setattr(metrics, "_table", lambda fields: built.append(len(fields)) or table(fields))
        assert sweep(k_s)[2:] == alone
        assert len(built) == 1 + len(k_s)

    def test_nms_sweep(self, tmp_path):
        gt = tmp_path / "gt.csv"
        dets = tmp_path / "dets.csv"
        run(["simulate", "--out-gt", str(gt), "--out-dets", str(dets),
             "--n-targets", "3", "--n-frames", "15", "--seed", "6"])
        out = tmp_path / "rows.csv"
        assert run(["sweep", "--mode", "nms", "--gt", str(gt), "--dets", str(dets),
                    "--param", "scoring.strategy=none,linear,exponential,sigmoid",
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 6

    def test_nms_sweep_equals_nms_then_eval_det(self, tmp_path):
        """A sweep cell scores what `nms` then `eval-det` score, for every strategy."""
        from dataclasses import replace

        from uatrack.io import write_detections

        gt = tmp_path / "gt.csv"
        dets = tmp_path / "dets.csv"
        assert run(["simulate", "--out-gt", str(gt), "--out-dets", str(dets), "--n-targets", "6", "--n-frames", "30",
                    "--fp-rate", "0.5", "--seed", "9"]) == 0
        # shifted near-duplicates of every detection, so that NMS and the rescoring both decide
        records = read_detections(dets)
        dup = tmp_path / "dup.csv"
        write_detections(dup, records + [replace(r, box=replace(r.box, x=r.box.x + 0.3)) for r in records])
        strategies = ["none", "linear", "exponential", "sigmoid"]
        rows = tmp_path / "rows.csv"
        assert run(["sweep", "--mode", "nms", "--gt", str(gt), "--dets", str(dup), "--param",
                    "scoring.strategy=" + ",".join(strategies), "--param", "scoring.k_s=0.05", "--out", str(rows)]) == 0
        cells = rows.read_text().splitlines()[2:]
        assert len(cells) == len(strategies)
        for strategy, cell in zip(strategies, cells):
            kept, rep = tmp_path / f"kept_{strategy}.csv", tmp_path / f"rep_{strategy}.csv"
            assert run(["nms", "--dets", str(dup), "--out", str(kept), "--strategy", strategy, "--ks", "0.05"]) == 0
            assert len(read_detections(kept)) < len(records) * 2
            assert run(["eval-det", "--gt", str(gt), "--dets", str(kept), "--out", str(rep)]) == 0
            assert cell == ",".join([strategy, "0.05", rep.read_text().splitlines()[2]])

    def test_nms_sweep_takes_the_column_pass(self, tmp_path, monkeypatch):
        """Every strategy x aggregate cell rescores valid rows in one column pass, no row failing, to the same bytes."""
        from uatrack import cli

        gt, dets = tmp_path / "gt.csv", tmp_path / "dets.csv"
        assert run(["simulate", "--out-gt", str(gt), "--out-dets", str(dets), "--n-targets", "3", "--n-frames", "10",
                    "--seed", "6"]) == 0
        argv = ["sweep", "--mode", "nms", "--gt", str(gt), "--dets", str(dets),
                "--param", "scoring.strategy=none,linear,exponential,sigmoid",
                "--param", "scoring.aggregate=sum,max", "--out"]
        assert run(argv + [str(tmp_path / "rows.csv")]) == 0

        failures = []

        def checked(rows, var, cfg):
            values, errors = scoring.rescore(rows, var, cfg)
            failures.append(errors)
            return values, errors

        monkeypatch.setattr(cli, "rescore", checked)
        assert run(argv + [str(tmp_path / "fast.csv")]) == 0
        assert failures == [{}] * 6  # every cell but the two of strategy none rescores, and no row fails
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_unknown_param_rejected(self, tmp_path):
        gt = tmp_path / "gt.csv"
        dets = tmp_path / "dets.csv"
        run(["simulate", "--out-gt", str(gt), "--out-dets", str(dets),
             "--n-targets", "2", "--n-frames", "5", "--seed", "7"])
        rc = run(["sweep", "--mode", "track", "--gt", str(gt), "--dets", str(dets),
                  "--param", "tracker.bogus=1"])
        assert rc == 2

    @pytest.mark.parametrize("mode, params, error", [
        ("track", ["tracker.t_init"], "--param expects key=v1,v2,... got 'tracker.t_init'"),
        ("nms", ["tracker.t_init=1"], "sweep --mode nms varies only scoring/nms keys, got 'tracker.t_init'"),
        ("track", ["scoring.k_s=1"], "sweep --mode track varies only tracker keys, got 'scoring.k_s'"),
        ("track", [], "at least one --param axis is required"),
    ])
    def test_bad_or_missing_param_exits_2_with_its_message(self, tmp_path, scenario_files, capsys, mode, params,
                                                            error):
        gt, dets = scenario_files
        out = tmp_path / "rows.csv"
        argv = ["sweep", "--mode", mode, "--gt", str(gt), "--dets", str(dets), "--out", str(out)]
        capsys.readouterr()
        assert run(argv + [arg for param in params for arg in ("--param", param)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    @pytest.mark.parametrize("params, clash", [
        # both cells used to run t_init=3, labelled 1,3 and 2,3
        (["tracker.t_init=1,2", "tracker.t_init=3"], "tracker.t_init"),
        (["tracker.t_init=1", " tracker.t_init =2"], "tracker.t_init"),
        (["tracker.constant_sigma=0.5,1.5", "tracker.default_obs_sigma=1"], "tracker.default_obs_sigma"),
        (["tracker.use_detection_covariance=true", "tracker.constant_sigma=0.5"],
         "tracker.use_detection_covariance"),
    ])
    def test_a_key_set_twice_exits_2_naming_it(self, tmp_path, scenario_files, capsys, params, clash):
        gt, dets = scenario_files
        out = tmp_path / "rows.csv"
        argv = ["sweep", "--mode", "track", "--gt", str(gt), "--dets", str(dets), "--out", str(out)]
        capsys.readouterr()
        assert run(argv + [arg for param in params for arg in ("--param", param)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --param ") and clash in err
        assert not out.exists()


class TestPlotData:
    def test_gaussian_minimum_location(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run(["plot-data", "gaussian", "--d2", "1", "--lambda-g", "1.0",
                    "--s-min", "-5", "--s-max", "5", "--points", "401", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# uatrack-v1"
        header = lines[1].split(",")
        assert header[0] == "s"
        rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[2:]]
        s_at_min, min_val = min(((s, v) for s, v in rows), key=lambda t: t[1])
        assert abs(s_at_min) < 0.02
        assert min_val == pytest.approx(0.5, abs=1e-3)

    def test_von_mises_family(self, tmp_path):
        out = tmp_path / "vm.csv"
        assert run(["plot-data", "von-mises", "--cos", "0.5", "--lambda-v", "0.5,1,2",
                    "--s0", "1", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines[1].split(",")) == 4


@pytest.fixture
def scenario_files(tmp_path):
    gt = tmp_path / "gt.csv"
    dets = tmp_path / "dets.csv"
    assert run(["simulate", "--out-gt", str(gt), "--out-dets", str(dets),
                "--n-targets", "4", "--n-frames", "20", "--fp-rate", "0.3", "--seed", "8",
                "--noise-base", "0.4,0.4,0.1,0.2,0.2,0.1,0.05"]) == 0
    return gt, dets


class TestConfigPath:
    @pytest.mark.parametrize("argv", [
        ["nms", "--dets", "{dets}", "--out", "{tmp}/o.csv", "--iou-threshold", "1.5"],
        ["sweep", "--mode", "nms", "--gt", "{gt}", "--dets", "{dets}", "--param", "scoring.strategy=none",
         "--config", "{tmp}/bad_strategy.json"],
        ["sweep", "--mode", "nms", "--gt", "{gt}", "--dets", "{dets}", "--param", "scoring.k_s=-1"],
        ["simulate", "--out-gt", "{tmp}/g.csv", "--out-dets", "{tmp}/d.csv", "--n-targets", "0"],
        ["track", "--dets", "{dets}", "--out", "{tmp}/t.csv", "--config", "{tmp}/bad_gate.json"],
        ["eval-det", "--gt", "{gt}", "--dets", "{dets}", "--recall-points", "0"],
        # sigma**2 overflows to an infinite variance
        ["track", "--dets", "{dets}", "--out", "{tmp}/t.csv", "--constant-sigma", "1e200"],
        ["track", "--dets", "{dets}", "--out", "{tmp}/t.csv", "--config", "{tmp}/huge_sigma.json"],
        ["simulate", "--out-gt", "{tmp}/g.csv", "--out-dets", "{tmp}/d.csv", "--field-extent", "inf"],
        ["simulate", "--out-gt", "{tmp}/g.csv", "--out-dets", "{tmp}/d.csv",
         "--noise-base", "nan,0.1,0.1,0.1,0.1,0.1,0.1"],
        ["track", "--dets", "{dets}", "--out", "{tmp}/t.csv", "--dt", "inf"],
        ["track", "--dets", "{dets}", "--out", "{tmp}/t.csv", "--config", "{tmp}/nan_noise.json"],
        # the simulated variance overflows: sigma**2, or a finite miscalibration times it
        ["simulate", "--out-gt", "{tmp}/g.csv", "--out-dets", "{tmp}/d.csv",
         "--noise-base", "1e200,0.1,0.1,0.1,0.1,0.1,0.1"],
        ["simulate", "--out-gt", "{tmp}/g.csv", "--out-dets", "{tmp}/d.csv",
         "--noise-base", "1e100,0.1,0.1,0.1,0.1,0.1,0.1", "--miscalibration", "1e200"],
        # integer config fields take integers only
        ["simulate", "--out-gt", "{tmp}/g.csv", "--out-dets", "{tmp}/d.csv", "--config", "{tmp}/half_target.json"],
        ["simulate", "--out-gt", "{tmp}/g.csv", "--out-dets", "{tmp}/d.csv", "--config", "{tmp}/half_seed.json"],
        ["simulate", "--out-gt", "{tmp}/g.csv", "--out-dets", "{tmp}/d.csv", "--config", "{tmp}/bool_frames.json"],
        ["sweep", "--mode", "nms", "--gt", "{gt}", "--dets", "{dets}", "--param", "nms.pre_top_k=2.5"],
        ["sweep", "--mode", "track", "--gt", "{gt}", "--dets", "{dets}", "--param", "tracker.t_init=2.5"],
        # plot-data and check-losses flags
        ["plot-data", "gaussian", "--points", "1"],
        ["plot-data", "gaussian", "--points", str(MAX_PLOT_POINTS + 1)],
        # it used to build a list of 1e20 points until killed
        ["plot-data", "gaussian", "--points", "100000000000000000000"],
        ["plot-data", "gaussian", "--d2", "-1"],
        ["plot-data", "von-mises", "--cos", "2"],
        ["plot-data", "gaussian", "--lambda-g", "0"],
        ["plot-data", "von-mises", "--lambda-v", "-1"],
        ["plot-data", "gaussian", "--s-min", "nan"],
        ["check-losses", "--seed", "-1"],
        # scoring parameters must be finite
        ["nms", "--dets", "{dets}", "--out", "{tmp}/o.csv", "--strategy", "exponential", "--bs", "nan"],
        ["nms", "--dets", "{dets}", "--out", "{tmp}/o.csv", "--strategy", "exponential", "--ks", "inf"],
        ["nms", "--dets", "{dets}", "--out", "{tmp}/o.csv", "--strategy", "linear", "--alpha", "inf"],
        ["sweep", "--mode", "nms", "--gt", "{gt}", "--dets", "{dets}", "--param", "scoring.b_s=-Infinity"],
    ])
    def test_invalid_value_exits_2(self, tmp_path, scenario_files, capsys, argv):
        gt, dets = scenario_files
        (tmp_path / "bad_strategy.json").write_text('{"scoring": {"strategy": "bogus"}}')
        (tmp_path / "bad_gate.json").write_text('{"tracker": {"gate_distance": -1}}')
        (tmp_path / "huge_sigma.json").write_text('{"tracker": {"default_obs_sigma": [1, 1, 1, 1e200, 1, 1, 1]}}')
        (tmp_path / "nan_noise.json").write_text('{"tracker": {"process_noise_diag": [NaN, 1, 1, 1, 1, 1]}}')
        (tmp_path / "half_target.json").write_text('{"scenario": {"n_targets": 2.5}}')
        (tmp_path / "half_seed.json").write_text('{"scenario": {"seed": 1.5}}')
        (tmp_path / "bool_frames.json").write_text('{"scenario": {"n_frames": true}}')
        capsys.readouterr()
        assert run([a.format(gt=gt, dets=dets, tmp=tmp_path) for a in argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    BIG = "9" * 401  # a JSON integer beyond the float range

    @pytest.mark.parametrize("argv, error", [
        (["simulate", "--out-gt", "{tmp}/g.csv", "--out-dets", "{tmp}/d.csv", "--config", "{tmp}/big_dt.json"],
         "config scenario: dt must be a number within float range"),
        (["simulate", "--out-gt", "{tmp}/g.csv", "--out-dets", "{tmp}/d.csv", "--config", "{tmp}/big_noise.json"],
         "config scenario: noise_base must be a list of numbers within float range"),
        (["sweep", "--mode", "nms", "--gt", "{gt}", "--dets", "{dets}", "--param", "scoring.b_s=" + BIG],
         "config scoring: b_s must be a number within float range"),
        (["sweep", "--mode", "nms", "--gt", "{gt}", "--dets", "{dets}", "--param", "scoring.k_s=1," + BIG],
         "config scoring: k_s must be a number within float range"),
        (["simulate", "--out-gt", "{tmp}/g.csv", "--out-dets", "{tmp}/d.csv", "--config", "{tmp}/long_seed.json"],
         "{tmp}/long_seed.json: invalid JSON: Exceeds the limit"),
    ])
    def test_integer_beyond_float_range_exits_2_naming_its_key(self, tmp_path, scenario_files, capsys, argv, error):
        gt, dets = scenario_files
        (tmp_path / "big_dt.json").write_text('{"scenario": {"dt": %s}}' % self.BIG)
        (tmp_path / "big_noise.json").write_text('{"scenario": {"noise_base": [0.1, 0.1, 0.1, 0.1, 0.1, 0.1, %s]}}'
                                                 % self.BIG)
        (tmp_path / "long_seed.json").write_text('{"scenario": {"seed": %s}}' % ("1" * 5000))
        capsys.readouterr()
        assert run([a.format(gt=gt, dets=dets, tmp=tmp_path) for a in argv]) == 2
        assert capsys.readouterr().err.startswith("error: " + error.format(tmp=tmp_path))
        assert not (tmp_path / "g.csv").exists()

    @pytest.mark.parametrize("argv, config, error", [
        (["sweep", "--mode", "nms", "--gt", "{gt}", "--dets", "{dets}", "--param", "scoring.k_s=1"],
         '{"nms": {"pre_top_k": 0}}', "config nms: pre_top_k must be >= 1"),
        (["sweep", "--mode", "nms", "--gt", "{gt}", "--dets", "{dets}", "--param", "scoring.k_s=1"],
         '{"eval": {"iou_threshold": 1.0}}', "config eval: iou_threshold must be in (0, 1)"),
        (["track", "--dets", "{dets}", "--out", "{tmp}/t.csv"],
         '{"tracker": {"t_init": 0}}', "config tracker: t_init and t_drop must be >= 1"),
    ])
    def test_config_value_a_section_refuses_exits_2_with_its_message(self, tmp_path, scenario_files, capsys, argv,
                                                                      config, error):
        gt, dets = scenario_files
        (tmp_path / "c.json").write_text(config)
        argv = [*argv, "--config", "{tmp}/c.json"]
        capsys.readouterr()
        assert run([a.format(gt=gt, dets=dets, tmp=tmp_path) for a in argv]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not (tmp_path / "t.csv").exists()

    HUGE = "1000000000000000000000"  # 1e21 recall levels: far too many arrays to allocate

    @pytest.mark.parametrize("argv", [
        ["eval-det", "--gt", "{gt}", "--dets", "{dets}", "--recall-points", HUGE],
        ["eval-track", "--gt", "{gt}", "--tracks", "{gt}", "--recall-points", HUGE],
        ["sweep", "--mode", "nms", "--gt", "{gt}", "--dets", "{dets}", "--config", "{tmp}/huge.json"],
        ["sweep", "--mode", "track", "--gt", "{gt}", "--dets", "{dets}", "--config", "{tmp}/huge.json"],
        ["track", "--dets", "{dets}", "--out", "{tmp}/t.csv", "--config", "{tmp}/huge.json"],
    ])
    def test_too_many_recall_points_exits_2(self, tmp_path, scenario_files, capsys, argv):
        # it was a ValueError traceback from allocating the recall levels
        gt, dets = scenario_files
        (tmp_path / "huge.json").write_text('{"eval": {"recall_points": %s}}' % self.HUGE)
        capsys.readouterr()
        assert run([a.format(gt=gt, dets=dets, tmp=tmp_path) for a in argv]) == 2
        assert capsys.readouterr().err == (
            f"error: config eval: recall_points must be in [1, {MAX_RECALL_POINTS}], got {self.HUGE}\n")
        assert not (tmp_path / "t.csv").exists()

    def test_track_config_of_the_wrong_json_type_exits_2(self, tmp_path, scenario_files, capsys):
        # a string "false" used to run the adaptive tracker as if it read true
        _, dets = scenario_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tracker": {"use_detection_covariance": "false"}}')
        capsys.readouterr()
        assert run(["track", "--dets", str(dets), "--out", str(tmp_path / "t.csv"), "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "error: config tracker: use_detection_covariance must be true or false, got 'false'\n")
        assert not (tmp_path / "t.csv").exists()

    def test_bad_input_row_exits_2(self, tmp_path, scenario_files, capsys):
        gt, dets = scenario_files
        lines = dets.read_text().splitlines()
        fields = lines[2].split(",")
        fields[5] = "-1"  # w
        lines[2] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert run(["eval-det", "--gt", str(gt), "--dets", str(bad)]) == 2
        assert f"{bad}:3:" in capsys.readouterr().err

    def test_use_variance_overrides_config(self, tmp_path, scenario_files):
        _, dets = scenario_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tracker": {"use_detection_covariance": false}}')
        out = {}
        for tag, flags in (("default", []), ("config", ["--config", str(cfg)]),
                           ("config_use_variance", ["--config", str(cfg), "--use-variance"])):
            path = tmp_path / f"{tag}.csv"
            assert run(["track", "--dets", str(dets), "--out", str(path)] + flags) == 0
            out[tag] = path.read_bytes()
        assert out["config_use_variance"] == out["default"] != out["config"]

    def test_sweep_takes_eval_threshold_from_config(self, tmp_path, scenario_files):
        gt, dets = scenario_files
        kept = tmp_path / "kept.csv"
        assert run(["nms", "--dets", str(dets), "--out", str(kept)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"eval": {"iou_threshold": 0.3}}')
        rows = {}
        for tag, eval_flags, sweep_flags in (("default", [], []),
                                             ("config", ["--iou-threshold", "0.3"], ["--config", str(cfg)])):
            ev = tmp_path / f"ev_{tag}.csv"
            sw = tmp_path / f"sw_{tag}.csv"
            assert run(["eval-det", "--gt", str(gt), "--dets", str(kept), "--out", str(ev)] + eval_flags) == 0
            assert run(["sweep", "--mode", "nms", "--gt", str(gt), "--dets", str(dets),
                        "--param", "scoring.strategy=none", "--out", str(sw)] + sweep_flags) == 0
            rows[tag] = sw.read_text().splitlines()[2]
            assert rows[tag] == "none," + ev.read_text().splitlines()[2]
        assert rows["default"] != rows["config"]

    def test_track_default_config_equals_no_config(self, tmp_path):
        import re
        from pathlib import Path

        from uatrack.io import write_detections

        gt, dets = tmp_path / "gt.csv", tmp_path / "dets.csv"
        assert run(["simulate", "--out-gt", str(gt), "--out-dets", str(dets),
                    "--n-targets", "10", "--n-frames", "80", "--fp-rate", "0.2", "--seed", "4"]) == 0
        bare = tmp_path / "bare.csv"
        write_detections(bare, [replace(r, variance=None) for r in read_detections(dets)])
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        cfg = tmp_path / "defaults.json"
        cfg.write_text(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
        out = {}
        for tag, flags in (("none", []), ("defaults", ["--config", str(cfg)])):
            path = tmp_path / f"{tag}.csv"
            assert run(["track", "--dets", str(bare), "--out", str(path)] + flags) == 0
            out[tag] = path.read_bytes()
        assert len(read_tracks(tmp_path / "none.csv")) > 100
        assert out["none"] == out["defaults"]

    @pytest.mark.parametrize("command", [
        ["track", "--dets", "d", "--out", "o"],
        ["eval-track", "--gt", "g", "--tracks", "t"],
        ["eval-det", "--gt", "g", "--dets", "d"],
        ["nms", "--dets", "d", "--out", "o"],
        ["sweep", "--mode", "track", "--gt", "g", "--dets", "d"],
        ["plot-data", "gaussian"],
    ])
    def test_seed_only_where_randomness_is_drawn(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args(command + ["--seed", "1"])

    # {missing} does not exist; {tmp} is a directory
    @pytest.mark.parametrize("argv, path, code", [
        (["simulate", "--out-gt", "{missing}/g.csv", "--out-dets", "{tmp}/d.csv"], "{missing}/g.csv", errno.ENOENT),
        (["simulate", "--out-gt", "{tmp}/g.csv", "--out-dets", "{tmp}"], "{tmp}", errno.EISDIR),
        (["simulate", "--out-gt", "{tmp}/g.csv", "--out-dets", "{tmp}/d.csv", "--config", "{missing}"],
         "{missing}", errno.ENOENT),
        (["track", "--dets", "{missing}", "--out", "{tmp}/t.csv"], "{missing}", errno.ENOENT),
        (["track", "--dets", "{tmp}", "--out", "{tmp}/t.csv"], "{tmp}", errno.EISDIR),
        (["track", "--dets", "{dets}", "--out", "{tmp}"], "{tmp}", errno.EISDIR),
        (["track", "--dets", "{dets}", "--out", "{tmp}/t.csv", "--config", "{missing}"], "{missing}", errno.ENOENT),
        (["eval-track", "--gt", "{missing}", "--tracks", "{gt}"], "{missing}", errno.ENOENT),
        (["eval-track", "--gt", "{gt}", "--tracks", "{tmp}"], "{tmp}", errno.EISDIR),
        (["eval-track", "--gt", "{gt}", "--tracks", "{gt}", "--out", "{missing}/r.csv"],
         "{missing}/r.csv", errno.ENOENT),
        (["eval-det", "--gt", "{gt}", "--dets", "{missing}"], "{missing}", errno.ENOENT),
        (["eval-det", "--gt", "{gt}", "--dets", "{dets}", "--out", "{tmp}"], "{tmp}", errno.EISDIR),
        (["nms", "--dets", "{missing}", "--out", "{tmp}/k.csv"], "{missing}", errno.ENOENT),
        (["nms", "--dets", "{dets}", "--out", "{tmp}"], "{tmp}", errno.EISDIR),
        (["sweep", "--mode", "track", "--gt", "{missing}", "--dets", "{dets}", "--param", "tracker.t_init=1"],
         "{missing}", errno.ENOENT),
        (["sweep", "--mode", "nms", "--gt", "{gt}", "--dets", "{tmp}", "--param", "nms.pre_top_k=5"],
         "{tmp}", errno.EISDIR),
        (["sweep", "--mode", "nms", "--gt", "{gt}", "--dets", "{dets}", "--param", "nms.pre_top_k=5",
          "--config", "{missing}"], "{missing}", errno.ENOENT),
        (["sweep", "--mode", "nms", "--gt", "{gt}", "--dets", "{dets}", "--param", "nms.pre_top_k=5",
          "--out", "{missing}/s.csv"], "{missing}/s.csv", errno.ENOENT),
        (["plot-data", "gaussian", "--points", "3", "--out", "{tmp}"], "{tmp}", errno.EISDIR),
        (["experiment", "--seeds", "0-0", "--out", "{missing}/a.csv"], "{missing}/a.csv", errno.ENOENT),
    ])
    def test_file_error_exits_2_naming_the_path(self, tmp_path, scenario_files, capsys, argv, path, code):
        # each was an OSError traceback, exit 1
        gt, dets = scenario_files
        names = dict(gt=gt, dets=dets, tmp=tmp_path, missing=tmp_path / "missing")
        capsys.readouterr()
        assert run([a.format(**names) for a in argv]) == 2
        assert capsys.readouterr().err == f"error: {path.format(**names)}: {os.strerror(code)}\n"

    @pytest.mark.parametrize("argv", [
        ["eval-det", "--gt", "{bin}", "--dets", "{dets}"],
        ["eval-det", "--gt", "{gt}", "--dets", "{bin}"],
        ["eval-track", "--gt", "{gt}", "--tracks", "{bin}"],
        ["track", "--dets", "{bin}", "--out", "{tmp}/t.csv"],
        ["nms", "--dets", "{bin}", "--out", "{tmp}/k.csv"],
    ])
    def test_binary_table_exits_2_naming_the_path(self, tmp_path, scenario_files, capsys, argv):
        # it was a UnicodeDecodeError traceback, exit 1
        gt, dets = scenario_files
        binary = tmp_path / "bin.csv"
        binary.write_bytes(bytes(range(256)) + b"\x80\xff" * 22)
        capsys.readouterr()
        assert run([a.format(gt=gt, dets=dets, bin=binary, tmp=tmp_path) for a in argv]) == 2
        assert capsys.readouterr().err.startswith(f"error: {binary}: not UTF-8 text: ")


class TestExperiment:
    """uatrack experiment: the paper's experiment (experiments.SCENARIO) over a range of seeds."""

    def test_rows_are_the_comparison_of_each_seed(self, tmp_path, capsys):
        out = tmp_path / "arms.csv"
        assert run(["experiment", "--seeds", "3-3", "--out", str(out)]) == 0
        adaptive, *consts = arms = compare_adaptive_vs_constant(replace(SCENARIO, seed=3), SIGMA_GRID, TRACKER)
        assert out.read_text().splitlines() == [
            "# uatrack-v1", "seed,arm,rmse,mota",
            *(f"3,{arm.label},{format_float(arm.rmse)},{format_float(arm.mota)}" for arm in arms)]
        ratio = adaptive.rmse / min(c.rmse for c in consts)
        assert capsys.readouterr().out.splitlines() == [
            f"seed 3: RMSE ratio vs best constant {ratio:.3f}; "
            f"MOTA margin {adaptive.mota - max(c.mota for c in consts):+.1f}",
            f"mean RMSE ratio over 1 scenarios: {ratio:.3f}"]

    def test_each_seed_lists_every_arm_once_adaptive_first(self, tmp_path, capsys):
        out = tmp_path / "arms.csv"
        assert run(["experiment", "--seeds", "0-1", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[:2] == ["# uatrack-v1", "seed,arm,rmse,mota"]
        cells = [line.split(",") for line in lines[2:]]
        labels = ["adaptive"] + [f"sigma={s:g}" for s in SIGMA_GRID]
        assert [cell[:2] for cell in cells] == [[seed, label] for seed in ("0", "1") for label in labels]
        printed = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in printed] == ["seed 0", "seed 1", "mean RMSE ratio over 2 scenarios"]

    def test_bad_out_fails_before_the_first_seed(self, tmp_path, capsys):
        # it used to run every seed (about 2 s each) before it got its error
        out = tmp_path / "missing" / "a.csv"
        assert run(["experiment", "--seeds", "0-0", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {out}: {os.strerror(errno.ENOENT)}\n"
        assert "seed 0:" not in captured.out

    @pytest.mark.parametrize("argv, error", [
        (["--seeds", "3-1", "--out", "{tmp}/a.csv"], "error: --seeds expects FIRST-LAST"),
        (["--seeds", "a-b", "--out", "{tmp}/a.csv"], "error: --seeds expects FIRST-LAST"),
        (["--seeds=-1-2", "--out", "{tmp}/a.csv"], "error: --seeds expects FIRST-LAST"),
        (["--seeds", "1-2-3", "--out", "{tmp}/a.csv"], "error: --seeds expects FIRST-LAST"),
        # argparse reads -1-2 as a flag, not as the value of --seeds
        (["--seeds", "-1-2", "--out", "{tmp}/a.csv"], "uatrack experiment: error: argument --seeds"),
        (["--seeds", "0-1"], "uatrack experiment: error: the following arguments are required: --out"),
    ])
    def test_bad_seeds_or_no_out_exits_2(self, tmp_path, capsys, argv, error):
        assert exit_code(["experiment"] + [a.format(tmp=tmp_path) for a in argv]) == 2
        assert error in capsys.readouterr().err
        assert not (tmp_path / "a.csv").exists()


# sha256 of every output of one small seeded run through each table-writing
# command; a change to any emitted byte shows here.
GOLDEN_SHA256 = {
    "gt.csv": "0e05d0b7fa011fd9a79e5eafbd041695951cbe7a17ee10f4e0a511b7b2e66c85",
    "dets.csv": "d24d7b2a694898a4276a4cacca6100f5963644f87d745c35a574e7df7dbd5541",
    "tracks.csv": "6a937ff1a617833c1d8ac93f8282a3a67bc2e851d3834625b101acab959af1f6",
    "eval_track.csv": "272d62e2e58195404726ca8bce188be7f3dc0f3726331261ef34e72c3277550e",
    "eval_det.csv": "a507800394638ec72088754caf9d6add907bddeddde76c322a699a6f9f89dbc3",
    "kept.csv": "aa4f658b12bbb84fb16d5477b9b4a0326103a029b720680955a84ceab31e3458",
    "sweep_track.csv": "112c4a92d5277a8c24e5b47ea23d1ae8dcb68a0fe4c1f44919b0f7a358c281a9",
    "arms.csv": "440b8793205bbe7d6797d9ab3211ea3d407364bae856005c48b5bd44558ec0fb",
    "gauss.csv": "5a29f5f5cd7fd019fd3c9910a4347ff8d5f71d073c40e272afd0b835039000b2",
    "sweep_nms.stdout": "5183c8e7a803c2aa8ac513349658d9935765e45d4b1839fcb9297ce0d38b1dc1",
    "von_mises.stdout": "2f29ce8100bb32593cef8fa073c408d0b135ad614f0aecf4163ef5879a96747a",
}

GT_HEADER = "frame,id,class,x,y,z,w,l,h,theta,score"
DET_HEADER = "frame,class,x,y,z,w,l,h,theta,score"
GT_ROW = "0,1,Car,1,2,0,1.8,4.2,1.5,0.3,1"
DET_ROW = "0,Car,1.1,2,0,1.8,4.2,1.5,0.3,0.9"


def _table_file(path, header, rows):
    path.write_text("\n".join(["# uatrack-v1", header, *rows]) + "\n")
    return path


class TestEvalDetOnColumns:
    def test_eval_det_and_nms_sweep_build_no_box_per_row(self, tmp_path, monkeypatch):
        from uatrack.boxes import Box3D

        gt, dets = tmp_path / "gt.csv", tmp_path / "dets.csv"
        assert run(["simulate", "--out-gt", str(gt), "--out-dets", str(dets), "--n-targets", "5", "--n-frames", "20",
                    "--fp-rate", "0.5", "--seed", "4"]) == 0

        def commands(tag):
            return [["eval-det", "--gt", str(gt), "--dets", str(dets), "--out", str(tmp_path / f"ap_{tag}.csv")],
                    ["sweep", "--mode", "nms", "--gt", str(gt), "--dets", str(dets),
                     "--param", "scoring.strategy=none,exponential", "--out", str(tmp_path / f"sweep_{tag}.csv")]]

        for argv in commands("objects"):
            assert run(argv) == 0

        def refuse(self):
            raise AssertionError("a Box3D was built")

        monkeypatch.setattr(Box3D, "__post_init__", refuse)
        for argv in commands("columns"):
            assert run(argv) == 0
        for name in ("ap", "sweep"):
            assert (tmp_path / f"{name}_columns.csv").read_bytes() == (tmp_path / f"{name}_objects.csv").read_bytes()

    @pytest.mark.parametrize("gt_rows, det_rows, where, error", [
        ([GT_ROW, "", GT_ROW], [DET_ROW], "gt.csv:5", "id 1 repeated in frame 0"),
        ([GT_ROW, "1000001" + GT_ROW[1:]], [DET_ROW], "gt.csv:4", "frame index 1000001 above the maximum 1000000"),
        ([GT_ROW], [DET_ROW, DET_ROW.replace(",1.8,", ",-1.8,")], "dets.csv:4", "box dimensions must be positive"),
        ([GT_ROW], [DET_ROW, "0,Car,1"], "dets.csv:4", "expected 10 fields, got 3"),
    ])
    def test_bad_row_exits_2_naming_the_line(self, tmp_path, capsys, gt_rows, det_rows, where, error):
        gt = _table_file(tmp_path / "gt.csv", GT_HEADER, gt_rows)
        dets = _table_file(tmp_path / "dets.csv", DET_HEADER, det_rows)
        for argv in (["eval-det", "--gt", str(gt), "--dets", str(dets)],
                     ["sweep", "--mode", "nms", "--gt", str(gt), "--dets", str(dets), "--param", "nms.iou_threshold=0.5"]):
            capsys.readouterr()
            assert run(argv) == 2
            assert f"error: {tmp_path / where}: {error}" in capsys.readouterr().err

    @pytest.mark.parametrize("gt_rows, det_rows", [([], []), ([GT_ROW], []), ([], [DET_ROW])])
    def test_empty_files_score_zero(self, tmp_path, capsys, gt_rows, det_rows):
        gt = _table_file(tmp_path / "gt.csv", GT_HEADER, gt_rows)
        dets = _table_file(tmp_path / "dets.csv", DET_HEADER, det_rows)
        out = tmp_path / "ap.csv"
        capsys.readouterr()
        assert run(["eval-det", "--gt", str(gt), "--dets", str(dets), "--out", str(out)]) == 0
        assert capsys.readouterr().out == "AP:     0.00 %\nMax F1: 0.00 %\n"
        assert out.read_text() == "# uatrack-v1\nap,max_f1\n0,0\n"



class TestTrackOnColumns:
    """simulate writes the scenario's blocks, track and sweep --mode track feed the tracker blocks: no box per row."""

    @staticmethod
    def _count_boxes(monkeypatch):
        from uatrack.boxes import Box3D

        built = []
        check = Box3D.__post_init__

        def counted(self):
            built.append(self)
            check(self)

        monkeypatch.setattr(Box3D, "__post_init__", counted)
        return built

    def test_simulate_builds_no_box(self, tmp_path, monkeypatch):
        gt, dets = tmp_path / "gt.csv", tmp_path / "dets.csv"
        argv = ["simulate", "--out-gt", str(gt), "--out-dets", str(dets), "--n-targets", "6", "--n-frames", "15",
                "--fp-rate", "0.5", "--fn-rate", "0.1", "--seed", "3"]
        assert run(argv) == 0
        want, n_gt = (dets.read_bytes(), gt.read_bytes()), len(read_tracks(gt))
        built = self._count_boxes(monkeypatch)
        assert run(argv) == 0
        assert (dets.read_bytes(), gt.read_bytes()) == want
        assert n_gt == 6 * 15 and built == []

    def test_track_sweep_and_experiment_build_no_box_or_track(self, tmp_path, monkeypatch):
        import uatrack.boxes
        import uatrack.tracker
        from uatrack.boxes import Box3D
        from uatrack.tracker import Track

        gt, dets = tmp_path / "gt.csv", tmp_path / "dets.csv"
        assert run(["simulate", "--out-gt", str(gt), "--out-dets", str(dets), "--n-targets", "5", "--n-frames", "30",
                    "--fp-rate", "0.5", "--seed", "4"]) == 0

        def commands(tag):
            return [["track", "--dets", str(dets), "--out", str(tmp_path / f"tracks_{tag}.csv")],
                    ["sweep", "--mode", "track", "--gt", str(gt), "--dets", str(dets),
                     "--param", "tracker.constant_sigma=0.2,0.5", "--out", str(tmp_path / f"sweep_{tag}.csv")],
                    ["experiment", "--seeds", "0-0", "--out", str(tmp_path / f"arms_{tag}.csv")]]

        for argv in commands("objects"):
            assert run(argv) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("a Box3D or a Track was built")

        # Box3D's constructor, trusted_box, which skips it, and Track
        monkeypatch.setattr(Box3D, "__post_init__", refuse)
        monkeypatch.setattr(uatrack.boxes, "trusted_box", refuse)
        monkeypatch.setattr(uatrack.tracker, "trusted_box", refuse)
        monkeypatch.setattr(Track, "__init__", refuse)
        for argv in commands("columns"):  # sweep reads the ground truth as columns too
            assert run(argv) == 0
        for name in ("tracks", "sweep", "arms"):
            assert (tmp_path / f"{name}_columns.csv").read_bytes() == (tmp_path / f"{name}_objects.csv").read_bytes()

    # Rows every reader check passes whose track state overflows the filter at frame 1.
    @pytest.mark.parametrize("row", ["{f},Car,1,2,0,1.8,4.2,1.5,0.3,0.9,1.7e308,0.1,0.1,0.1,0.1,0.1,0.1",
                                     "{f},Car,1.79e308,2,0,1.8,4.2,1.5,0.3,0.9,0.1,0.1,0.1,0.1,0.1,0.1,0.1"],
                             ids=["var_x", "x"])
    def test_state_that_overflows_exits_2_naming_the_frame(self, tmp_path, capsys, row):
        from uatrack.io import DET_COLUMNS_VAR

        gt = _table_file(tmp_path / "gt.csv", GT_HEADER, [GT_ROW])
        dets = _table_file(tmp_path / "dets.csv", ",".join(DET_COLUMNS_VAR), [row.format(f=f) for f in range(6)])
        for argv in (["track", "--dets", str(dets), "--out", str(tmp_path / "tracks.csv")],
                     ["sweep", "--mode", "track", "--gt", str(gt), "--dets", str(dets), "--param", "tracker.t_init=1"]):
            capsys.readouterr()
            assert run(argv) == 2
            assert f"error: {dets}: frame 1: track state is not finite" in capsys.readouterr().err
        assert not (tmp_path / "tracks.csv").exists()

    @pytest.mark.parametrize("rows, where, error", [
        (["0,Car,1,2,0,1.8,4.2,1.5,0.3,0.9", "", "1,Car,1,2,0,1.8,0,1.5,0.3,0.9"], "dets.csv:5",
         "box dimensions must be positive"),
        (["3,Car,1,2,0,1.8,4.2,1.5,nan,0.9"], "dets.csv:3", "box values must be finite"),
        (["1000001,Car,1,2,0,1.8,4.2,1.5,0.3,0.9"], "dets.csv:3", "frame index 1000001 above the maximum 1000000"),
    ])
    def test_bad_row_exits_2_naming_the_line(self, tmp_path, capsys, rows, where, error):
        gt = _table_file(tmp_path / "gt.csv", GT_HEADER, [GT_ROW])
        dets = _table_file(tmp_path / "dets.csv", DET_HEADER, rows)
        for argv in (["track", "--dets", str(dets), "--out", str(tmp_path / "tracks.csv")],
                     ["sweep", "--mode", "track", "--gt", str(gt), "--dets", str(dets),
                      "--param", "tracker.t_init=1"]):
            capsys.readouterr()
            assert run(argv) == 2
            assert f"error: {tmp_path / where}: {error}" in capsys.readouterr().err

    def test_empty_frames_are_padded_from_frame_0(self, tmp_path):
        dets = _table_file(tmp_path / "dets.csv", DET_HEADER,
                           [f"{f},Car,{0.5 * f},2,0,1.8,4.2,1.5,0.3,0.9" for f in (2, 3, 7, 8)])
        out = tmp_path / "tracks.csv"
        assert run(["track", "--dets", str(dets), "--out", str(out), "--config", str(self._t_init_1(tmp_path))]) == 0
        assert [(f, i) for f, i, _ in read_tracks(out)] == [(2, 1), (3, 1), (7, 2), (8, 2)]

    @staticmethod
    def _t_init_1(tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"tracker": {"t_init": 1, "t_drop": 1}}')
        return path

# Runs each (argv, stdout file) of a JSON list through the CLI in one process.
_RUN_COMMANDS = """
import json, sys
from contextlib import redirect_stdout
from uatrack.cli import main
for argv, out in json.loads(sys.argv[1]):
    with open(out, "w") as f, redirect_stdout(f):
        assert main(argv) == 0, argv
"""


def test_cli_outputs_match_golden_digests(tmp_path):
    import hashlib
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import uatrack

    def path(name):
        return str(tmp_path / name)

    log = path("log.txt")
    commands = [
        (["simulate", "--out-gt", path("gt.csv"), "--out-dets", path("dets.csv"),
          "--n-targets", "4", "--n-frames", "30", "--fp-rate", "0.3", "--fn-rate", "0.1",
          "--noise-range-coeff", RANGE_COEFF, "--seed", "5"], log),
        (["track", "--dets", path("dets.csv"), "--out", path("tracks.csv"), "--dt", "0.1"], log),
        (["eval-track", "--gt", path("gt.csv"), "--tracks", path("tracks.csv"), "--out", path("eval_track.csv")], log),
        (["eval-det", "--gt", path("gt.csv"), "--dets", path("dets.csv"), "--out", path("eval_det.csv")], log),
        (["nms", "--dets", path("dets.csv"), "--out", path("kept.csv"), "--strategy", "exponential"], log),
        (["sweep", "--mode", "track", "--gt", path("gt.csv"), "--dets", path("dets.csv"),
          "--param", "tracker.constant_sigma=0.5,1.5", "--out", path("sweep_track.csv")], log),
        (["experiment", "--seeds", "0-0", "--out", path("arms.csv")], log),
        (["plot-data", "gaussian", "--points", "11", "--out", path("gauss.csv")], log),
        (["sweep", "--mode", "nms", "--gt", path("gt.csv"), "--dets", path("dets.csv"),
          "--param", "scoring.strategy=none,exponential"], path("sweep_nms.stdout")),
        (["plot-data", "von-mises", "--points", "11"], path("von_mises.stdout")),
    ]
    # track's bytes depend on the BLAS kernel that LAPACK's Cholesky and solve
    # run on, so the commands run in a child process pinned to OpenBLAS's
    # Haswell kernel, which every x86-64 CPU with AVX2 runs; OpenBLAS reads
    # the variable when it loads
    src = str(Path(uatrack.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", _RUN_COMMANDS, json.dumps(commands)], env=env, check=True)
    outputs = {name: (tmp_path / name).read_bytes() for name in GOLDEN_SHA256}
    for name, data in outputs.items():
        assert data.startswith(b"# uatrack-v1\n"), name
    assert {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()} == GOLDEN_SHA256


# Runs the JSON list of argv lists in sys.argv[1] through main, the first
# list's commands first, then checks that scipy is not loaded; then runs
# the second list's and checks that the solver is loaded and cached, and
# that no scipy.optimize module, _lsap included, is in sys.modules unless
# scipy ships no _lsap extension file (sys.argv[2] says whether it does).
_LAZY_SOLVER = """
import json
import sys
from contextlib import redirect_stdout
from io import StringIO

import uatrack
import uatrack.cli

before, after = json.loads(sys.argv[1])
with redirect_stdout(StringIO()):
    for argv in before:
        assert uatrack.cli.main(argv) == 0, argv
    assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
    for argv in after:
        assert uatrack.cli.main(argv) == 0, argv
assert uatrack.assignment._solver.cache_info().currsize == 1
optimize = sorted(m for m in sys.modules if m.startswith("scipy.optimize"))
assert bool(optimize) == (sys.argv[2] == "no-extension"), (sys.argv[2], optimize)
"""


def test_scipy_loads_only_when_a_contested_matrix_needs_the_solver(tmp_path):
    import json
    import subprocess
    import sys
    from importlib.machinery import EXTENSION_SUFFIXES
    from pathlib import Path

    import scipy

    import uatrack
    from uatrack.boxes import Box3D
    from uatrack.io import DetectionRecord, write_detections

    def path(name):
        return str(tmp_path / name)

    def car(x, y):
        return Box3D(x, y, 0.8, 1.8, 4.2, 1.6, 0.0, score=0.9)

    # frame 1 holds two detections in the gate of frame 0's one track: a contested row
    write_detections(path("contested.csv"), [DetectionRecord(0, car(10.0, 0.0)), DetectionRecord(1, car(10.3, 0.0)),
                                             DetectionRecord(1, car(10.0, 0.3))])
    before = [
        ["simulate", "--out-gt", path("gt.csv"), "--out-dets", path("dets.csv"), "--n-targets", "4",
         "--n-frames", "30", "--fp-rate", "0.3", "--noise-range-coeff", RANGE_COEFF, "--seed", "5"],
        ["nms", "--dets", path("dets.csv"), "--out", path("kept.csv"), "--strategy", "exponential"],
        ["eval-det", "--gt", path("gt.csv"), "--dets", path("kept.csv")],
        ["plot-data", "gaussian", "--points", "11"],
    ]
    after = [["track", "--dets", path("contested.csv"), "--out", path("tracks.csv")]]
    src = str(Path(uatrack.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    extension = any((Path(p) / "optimize" / f"_lsap{suffix}").is_file()
                    for p in scipy.__path__ for suffix in EXTENSION_SUFFIXES)
    subprocess.run([sys.executable, "-c", _LAZY_SOLVER, json.dumps([before, after]),
                    "extension" if extension else "no-extension"], env=env, check=True)


def test_module_entry_point_prints_help():
    import subprocess
    import sys
    from pathlib import Path

    import uatrack

    src = str(Path(uatrack.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "uatrack", "--help"], env=env, capture_output=True, text=True)
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.startswith("usage: uatrack ")
    assert all(command in done.stdout for command in ("simulate", "track", "eval-det", "sweep", "experiment"))


def test_nms_output_is_in_frame_order_and_input_order_within_a_frame(tmp_path):
    from uatrack.boxes import Box3D
    from uatrack.io import DetectionRecord, write_detections

    # frames out of order and with gaps; within a frame, scores rise with
    # input order, so NMS sees the boxes in the reverse order
    layout = [(5, 0.0, 0.3), (2, 0.0, 0.2), (5, 10.0, 0.6), (0, 0.0, 0.5), (2, 10.0, 0.7),
              (5, 20.0, 0.9), (2, 0.1, 0.1)]
    records = [DetectionRecord(f, Box3D(x, 0.0, 0.0, 1.6, 3.9, 1.5, 0.0, score=s)) for f, x, s in layout]
    dets = tmp_path / "dets.csv"
    kept = tmp_path / "kept.csv"
    write_detections(dets, records)
    assert run(["nms", "--dets", str(dets), "--out", str(kept)]) == 0
    got = [(r.frame, r.box.x, r.box.score) for r in read_detections(kept)]
    # the box at x=0.1 in frame 2 overlaps the higher-scored one at x=0.0
    assert got == [(0, 0.0, 0.5), (2, 0.0, 0.2), (2, 10.0, 0.7), (5, 0.0, 0.3), (5, 10.0, 0.6), (5, 20.0, 0.9)]


def test_nms_memory_does_not_grow_with_the_largest_frame_index(tmp_path):
    import tracemalloc

    from uatrack.boxes import Box3D
    from uatrack.io import DetectionRecord, write_detections

    dets = tmp_path / "dets.csv"
    write_detections(dets, [DetectionRecord(1_000_000, Box3D(0.0, 0.0, 0.0, 1.6, 3.9, 1.5, 0.0, score=0.5))])
    tracemalloc.start()
    try:
        assert run(["nms", "--dets", str(dets), "--out", str(tmp_path / "kept.csv")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a list per frame index up to 1,000,000 would peak near 64 MB
    assert peak < 1_000_000
    assert [r.frame for r in read_detections(tmp_path / "kept.csv")] == [1_000_000]


def test_eval_track_at_the_frame_bound(tmp_path, capsys):
    import tracemalloc

    from uatrack.boxes import Box3D
    from uatrack.io import MAX_FRAME_INDEX

    car = Box3D(0.0, 0.0, 0.0, 1.6, 3.9, 1.5, 0.0, score=0.5)
    gt = tmp_path / "gt.csv"
    write_tracks(gt, [(0, 1, car)])
    reports = {}
    for last in (1, MAX_FRAME_INDEX):
        tracks, out = tmp_path / f"tracks_{last}.csv", tmp_path / f"eval_{last}.csv"
        write_tracks(tracks, [(last, 2, car)])
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert run(["eval-track", "--gt", str(gt), "--tracks", str(tracks), "--out", str(out)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # frame lists padded up to the last frame index would peak near 300 MB
        assert peak < 5_000_000
        reports[last] = (capsys.readouterr().out, out.read_bytes())
    assert reports[1] == reports[MAX_FRAME_INDEX]


def test_frame_index_above_the_maximum_exits_2_naming_the_line(tmp_path, capsys):
    from uatrack.boxes import Box3D
    from uatrack.io import MAX_FRAME_INDEX, DetectionRecord, write_detections

    car = Box3D(0.0, 0.0, 0.0, 1.6, 3.9, 1.5, 0.0, score=0.5)
    dets, last = tmp_path / "dets.csv", tmp_path / "last.csv"
    write_detections(dets, [DetectionRecord(0, car), DetectionRecord(MAX_FRAME_INDEX + 1, car)])
    write_detections(last, [DetectionRecord(MAX_FRAME_INDEX, car)])
    for argv in (["track", "--dets", str(dets), "--out", str(tmp_path / "tracks.csv")],
                 ["nms", "--dets", str(dets), "--out", str(tmp_path / "kept.csv")]):
        capsys.readouterr()
        assert run(argv) == 2
        assert f"{dets}:4: frame index {MAX_FRAME_INDEX + 1} above the maximum" in capsys.readouterr().err
    assert [r.frame for r in read_detections(last)] == [MAX_FRAME_INDEX]


def test_eval_det_memory_does_not_grow_with_the_largest_frame_index(tmp_path):
    import tracemalloc

    from uatrack.boxes import Box3D
    from uatrack.io import DetectionRecord, write_detections

    def car(x, score=1.0):
        return Box3D(x, 0.0, 0.0, 1.6, 3.9, 1.5, 0.0, score=score)

    # the same two frames, once at frames 0 and 1, once at frames 0 and 100,000
    reports = {}
    for last in (1, 100_000):
        gt, dets, out = (tmp_path / f"{name}_{last}.csv" for name in ("gt", "dets", "ap"))
        write_tracks(gt, [(0, 1, car(0.0)), (last, 1, car(5.0))])
        write_detections(dets, [DetectionRecord(0, car(0.0, 0.6)), DetectionRecord(last, car(20.0, 0.9)),
                                DetectionRecord(last, car(5.0, 0.5))])
        tracemalloc.start()
        try:
            assert run(["eval-det", "--gt", str(gt), "--dets", str(dets), "--out", str(out)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a frame list padded up to frame 100,000 would peak near 64 MB
        assert peak < 1_000_000
        reports[last] = out.read_text()
    assert reports[1] == reports[100_000]
    ap, max_f1 = map(float, reports[1].splitlines()[2].split(","))
    assert 0.0 < ap < 100.0 and 0.0 < max_f1 < 100.0

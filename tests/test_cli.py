"""End-to-end CLI behavior: determinism, formats, exit codes."""

import pytest

from uatrack.cli import build_parser, main
from uatrack.io import read_detections, read_tracks


def run(args):
    return main(args)


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
        from uatrack.io import tracks_to_frames
        from uatrack.metrics import EvalConfig, clear_mot

        gt = tmp_path / "gt.csv"
        dets = tmp_path / "dets.csv"
        run(["simulate", "--out-gt", str(gt), "--out-dets", str(dets),
             "--n-targets", "8", "--n-frames", "80", "--field-extent", "60",
             "--noise-base", "0.03,0.03,0.02,0.02,0.02,0.02,0.01",
             "--noise-range-coeff", "0.012,0.002,0.002,0.001,0.001,0.001,0.001",
             "--fp-rate", "0.5", "--fn-rate", "0.1", "--seed", "12"])
        cfg = EvalConfig(iou_threshold=0.5)
        motas = {}
        for tag, flags in (("adaptive", ["--use-variance"]), ("constant", ["--constant-sigma", "1.0"])):
            out = tmp_path / f"{tag}.csv"
            assert run(["track", "--dets", str(dets), "--out", str(out), "--dt", "0.1"] + flags) == 0
            gt_frames = tracks_to_frames(read_tracks(gt))
            pred = tracks_to_frames(read_tracks(out), len(gt_frames))
            motas[tag] = clear_mot(gt_frames, pred, cfg).mota
        assert motas["adaptive"] > motas["constant"]

    def test_conflicting_flags_error(self, tmp_path, capsys):
        dets = tmp_path / "dets.csv"
        gt = tmp_path / "gt.csv"
        run(["simulate", "--out-gt", str(gt), "--out-dets", str(dets),
             "--n-targets", "2", "--n-frames", "5", "--seed", "0"])
        rc = run(["track", "--dets", str(dets), "--out", str(tmp_path / "t.csv"),
                  "--constant-sigma", "1.0", "--use-variance"])
        assert rc == 2

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

    def test_unknown_param_rejected(self, tmp_path):
        gt = tmp_path / "gt.csv"
        dets = tmp_path / "dets.csv"
        run(["simulate", "--out-gt", str(gt), "--out-dets", str(dets),
             "--n-targets", "2", "--n-frames", "5", "--seed", "7"])
        rc = run(["sweep", "--mode", "track", "--gt", str(gt), "--dets", str(dets),
                  "--param", "tracker.bogus=1"])
        assert rc == 2


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
    ])
    def test_invalid_value_exits_2(self, tmp_path, scenario_files, capsys, argv):
        gt, dets = scenario_files
        (tmp_path / "bad_strategy.json").write_text('{"scoring": {"strategy": "bogus"}}')
        (tmp_path / "bad_gate.json").write_text('{"tracker": {"gate_distance": -1}}')
        (tmp_path / "huge_sigma.json").write_text('{"tracker": {"default_obs_sigma": [1, 1, 1, 1e200, 1, 1, 1]}}')
        capsys.readouterr()
        assert run([a.format(gt=gt, dets=dets, tmp=tmp_path) for a in argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")

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

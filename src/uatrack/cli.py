"""Command-line entry points.

`simulate` and `check-losses` take --seed, and `experiment` a range of seeds;
every command is byte-deterministic.
A flag that sets a config field falls back to --config where the command takes
one (simulate, track and sweep), then to the config dataclass default.  Every
emitted table, a file or stdout, starts with ``# uatrack-v1`` (see
io.write_table), and every output file replaces its path only once it is
complete (see io._replaced).
"""

from __future__ import annotations

import argparse
import copy
import itertools
import json
import math
import sys
from collections.abc import Iterator
from dataclasses import fields, replace

import numpy as np

from .checks import run_loss_checks
from .experiments import SCENARIO, SIGMA_GRID, TRACKER, compare_adaptive_vs_constant
from .io import (
    DetectionColumns,
    FormatError,
    RunConfig,
    TrackColumns,
    config_from_dict,
    detections_to_frames,
    format_float,
    read_config,
    read_detection_columns,
    read_track_columns,
    write_detections,
    write_frames,
    write_table,
    write_tracks,
)
from .losses import GaussianNllConfig, VonMisesNllConfig, gaussian_nll, von_mises_nll
from .metrics import TrackingReport, clear_mot_rows, detection_pr_rows
from .scoring import AggregateMode, IouKind, NmsConfig, ScoreMapConfig, ScoreStrategy, nms, rescore
from .sim import ScenarioConfig, scenario_frames
from .tracker import track_frames

# encode_variance, score_detection, detection_pr, read_detections and read_tracks stay bound here: the
# benchmark's tracer wraps them by name.
from .boxes import encode_variance  # noqa: F401
from .io import read_detections, read_tracks  # noqa: F401
from .metrics import detection_pr  # noqa: F401
from .scoring import score_detection  # noqa: F401

# Detection AP defaults to IoU 0.7, the KITTI car threshold; tracking
# evaluation uses EvalConfig's default.
DET_IOU_THRESHOLD = 0.7

# eval-track --out columns, in TrackingReport field order; sweep reports the first six.
_REPORT_COLUMNS = [f.name for f in fields(TrackingReport)]

# The config sections each sweep mode may vary.
_SWEEP_SECTIONS = {"track": ("tracker",), "nms": ("scoring", "nms")}

# Largest plot-data --points: its s values are one list, as metrics.MAX_RECALL_POINTS bounds AP's arrays.
MAX_PLOT_POINTS = 1_000_000


def _float_list(text: str) -> list[float]:
    return [float(p) for p in text.split(",") if p.strip()]


def _set(data: dict, key: str, value) -> None:
    """Set `section.field` in a config dict.

    `tracker.constant_sigma` is derived: it sets one observation sigma for
    every box parameter and stops feeding per-detection covariance.
    """
    if key == "tracker.constant_sigma":
        data.setdefault("tracker", {}).update(default_obs_sigma=[value] * 7, use_detection_covariance=False)
    else:
        section, _, name = key.partition(".")
        data.setdefault(section, {})[name] = value


def _config_dict(args, iou_threshold: float | None = None) -> dict:
    """The run config as a dict: --config if given, patched by every flag given.

    A flag whose argparse dest is a `section.field` key sets that key; such
    flags default to None, so that --config and the dataclass defaults apply.
    `iou_threshold` replaces EvalConfig's default where neither sets it.
    """
    data = read_config(args.config) if getattr(args, "config", None) else {}
    for key, value in vars(args).items():
        if "." in key and value is not None:
            _set(data, key, value)
    if iou_threshold is not None:
        data.setdefault("eval", {}).setdefault("iou_threshold", iou_threshold)
    return data


def _report_cells(report: TrackingReport, columns: list[str]) -> list[str]:
    values = [getattr(report, c) for c in columns]
    return [format_float(v) if isinstance(v, float) else str(v) for v in values]


# --- simulate ------------------------------------------------------------

def _cmd_simulate(args) -> int:
    """Write each frame's truth and detection rows as the frame is drawn (see io.write_frames).

    A config the scenario refuses while frames are drawn leaves neither
    output path changed; the output files are opened first, so a bad
    --out-gt or --out-dets is named ahead of such a refusal.
    """
    cfg = config_from_dict(_config_dict(args)).scenario
    n_truth, n_dets = write_frames(args.out_gt, args.out_dets, _drawn(cfg))
    print(f"wrote {n_truth} ground-truth rows to {args.out_gt}")
    print(f"wrote {n_dets} detections to {args.out_dets}")
    return 0


def _drawn(cfg: ScenarioConfig) -> Iterator[tuple[TrackColumns, DetectionColumns]]:
    """Each frame's truth and detection blocks; a config the scenario refuses raises FormatError."""
    try:
        for frame in scenario_frames(cfg):
            yield frame.truth, frame.detections
    except ValueError as exc:  # a noise model whose variance overflows
        raise FormatError(f"config scenario: {exc}") from exc


# --- track ---------------------------------------------------------------

def _cmd_track(args) -> int:
    if getattr(args, "tracker.constant_sigma") is not None and getattr(args, "tracker.use_detection_covariance"):
        raise FormatError("--constant-sigma and --use-variance are mutually exclusive")
    cfg = config_from_dict(_config_dict(args))
    tracked = _tracked(args.dets, detections_to_frames(read_detection_columns(args.dets)), cfg)
    write_tracks(args.out, tracked)
    print(f"wrote {len(tracked)} track rows to {args.out}")
    return 0


def _tracked(path: str, frames: list[DetectionColumns], cfg: RunConfig) -> TrackColumns:
    """track_frames' block; a frame the tracker refuses raises FormatError naming the file and the frame."""
    try:
        return track_frames(frames, cfg.tracker, cfg.scenario.dt)
    except ValueError as exc:  # a track state the filter cannot keep finite, say
        raise FormatError(f"{path}: {exc}") from exc


# --- evaluation ----------------------------------------------------------

def _cmd_eval_track(args) -> int:
    cfg = config_from_dict(_config_dict(args)).eval
    report = clear_mot_rows(read_track_columns(args.gt), read_track_columns(args.tracks), cfg)
    for line in report.lines():
        print(line)
    if args.out:
        write_table(args.out, _REPORT_COLUMNS, [_report_cells(report, _REPORT_COLUMNS)])
    return 0


def _cmd_eval_det(args) -> int:
    cfg = config_from_dict(_config_dict(args, DET_IOU_THRESHOLD)).eval
    gt = read_track_columns(args.gt)
    dets = read_detection_columns(args.dets)
    ap, max_f1, _ = detection_pr_rows(gt, (dets.frame, dets.rows), cfg)
    print(f"AP:     {ap:.2f} %")
    print(f"Max F1: {max_f1:.2f} %")
    if args.out:
        write_table(args.out, ["ap", "max_f1"], [[format_float(ap), format_float(max_f1)]])
    return 0


# --- nms -----------------------------------------------------------------

def _rescore_and_suppress(dets: DetectionColumns, score_cfg: ScoreMapConfig, nms_cfg: NmsConfig) -> DetectionColumns:
    """The rows NMS keeps, rescored, frame by frame in ascending order, each frame in input order."""
    rescoring = score_cfg.strategy is not ScoreStrategy.NONE and len(dets) > 0
    if rescoring and dets.var is None:
        raise FormatError("variance columns are required for uncertainty scoring")
    rows = dets.rows.copy()
    if rescoring:
        rows[:, 7], errors = rescore(dets.rows, dets.var, score_cfg)  # one column pass over the file
        if errors:  # the lowest failing frame, with the error of its first failing row in input order
            row = min(errors, key=lambda i: (dets.frame[i], i))
            raise FormatError(f"frame {dets.frame[row]}: cannot rescore: {errors[row]}") from errors[row]
    kept = [np.zeros(0, dtype=np.intp)]
    for _, index in dets.by_frame():
        kept.append(index[np.sort(nms(rows[index], nms_cfg))])
    return replace(dets, rows=rows).take(np.concatenate(kept))


def _cmd_nms(args) -> int:
    cfg = config_from_dict(_config_dict(args))
    dets = read_detection_columns(args.dets)
    kept = _rescore_and_suppress(dets, cfg.scoring, cfg.nms)
    write_detections(args.out, kept)
    print(f"kept {len(kept)} of {len(dets)} detections -> {args.out}")
    return 0


# --- check-losses ----------------------------------------------------------

def _cmd_check_losses(args) -> int:
    if args.seed < 0:
        raise FormatError("--seed must be >= 0")
    results = run_loss_checks(args.seed)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    return 0 if all(r.passed for r in results) else 1


# --- sweep -----------------------------------------------------------------

def _parse_sweep_value(text: str):
    try:
        return json.loads(text)
    except ValueError:  # not JSON, or an integer with more digits than int() converts: the text as given
        return text


def _cmd_sweep(args) -> int:
    sections = _SWEEP_SECTIONS[args.mode]
    base = _config_dict(args, DET_IOU_THRESHOLD if args.mode == "nms" else None)
    axes, taken = [], set()
    for spec_arg in args.param:
        key, sep, values = spec_arg.partition("=")
        key = key.strip()
        if not sep:
            raise FormatError(f"--param expects key=v1,v2,... got {spec_arg!r}")
        if key.partition(".")[0] not in sections:
            raise FormatError(f"sweep --mode {args.mode} varies only {'/'.join(sections)} keys, got {key!r}")
        cell = {}
        _set(cell, key, None)
        sets = {f"{section}.{name}" for section, names in cell.items() for name in names}
        if sets & taken:  # a later axis would overwrite an earlier one in every cell
            raise FormatError(f"--param {key!r} sets {', '.join(sorted(sets & taken))}, which an earlier --param sets")
        taken |= sets
        axes.append((key, [_parse_sweep_value(v) for v in values.split(",")]))
    if not axes:
        raise FormatError("at least one --param axis is required")

    grid = []
    for combo in itertools.product(*(vals for _, vals in axes)):
        data = copy.deepcopy(base)
        for (key, _), value in zip(axes, combo):
            _set(data, key, value)
        grid.append(([str(v) for v in combo], config_from_dict(data)))

    if args.mode == "track":
        gt = read_track_columns(args.gt)
        frames = detections_to_frames(read_detection_columns(args.dets))
        columns = _REPORT_COLUMNS[:6]

        def score(cfg):
            return _report_cells(clear_mot_rows(gt, _tracked(args.dets, frames, cfg), cfg.eval), columns)
    else:
        gt, dets = read_track_columns(args.gt), read_detection_columns(args.dets)
        columns = ["ap", "max_f1"]

        def score(cfg):
            kept = _rescore_and_suppress(dets, cfg.scoring, cfg.nms)
            ap, max_f1, _ = detection_pr_rows(gt, (kept.frame, kept.rows), cfg.eval)
            return [format_float(ap), format_float(max_f1)]

    rows = [cells + score(cfg) for cells, cfg in grid]  # every cell scored before the output opens
    write_table(args.out, [key for key, _ in axes] + columns, rows)
    return 0


# --- experiment ------------------------------------------------------------

def _cmd_experiment(args) -> int:
    """The paper's experiment on seeds FIRST to LAST: a row per seed and arm; the RMSE ratios printed."""
    try:
        first, last = map(int, args.seeds.split("-"))  # a ValueError unless two integers joined by one hyphen
        if first > last:
            raise ValueError
    except ValueError:
        raise FormatError(f"--seeds expects FIRST-LAST with 0 <= FIRST <= LAST, got {args.seeds!r}") from None
    seeds = range(first, last + 1)
    ratios = []

    def rows() -> Iterator[list[str]]:  # each seed runs as its rows are taken, after the output opens
        for seed in seeds:
            adaptive, *consts = arms = compare_adaptive_vs_constant(replace(SCENARIO, seed=seed), SIGMA_GRID, TRACKER)
            ratios.append(adaptive.rmse / min(c.rmse for c in consts))
            print(f"seed {seed}: RMSE ratio vs best constant {ratios[-1]:.3f}; "
                  f"MOTA margin {adaptive.mota - max(c.mota for c in consts):+.1f}")
            yield from ([str(seed), arm.label, format_float(arm.rmse), format_float(arm.mota)] for arm in arms)

    write_table(args.out, ["seed", "arm", "rmse", "mota"], rows())
    print(f"mean RMSE ratio over {len(seeds)} scenarios: {np.mean(ratios):.3f}")
    return 0


# --- plot-data ---------------------------------------------------------------

def _cmd_plot_data(args) -> int:
    if not 2 <= args.points <= MAX_PLOT_POINTS:
        raise FormatError(f"--points must be in [2, {MAX_PLOT_POINTS}], got {args.points}")
    if not math.isfinite(args.s_max - args.s_min):  # nan or inf unless both ends are finite
        raise FormatError("--s-min and --s-max must span a finite range")
    if not (0.0 <= args.d2 < math.inf and -1.0 <= args.cos <= 1.0):
        raise FormatError("--d2 must be finite and >= 0, --cos in [-1, 1]")
    try:
        if args.family == "gaussian":
            loss, residual, flags = gaussian_nll, math.sqrt(args.d2), "--d2, --lambda-g"
            curves = [(f"lambda_g={format_float(lam)}", GaussianNllConfig(lambda_g=lam)) for lam in args.lambda_g]
        else:
            loss, residual, flags = von_mises_nll, math.acos(args.cos), "--lambda-v, --s0"
            curves = [(f"lambda_v={format_float(lam)}", VonMisesNllConfig(lambda_v=lam, s0=args.s0))
                      for lam in args.lambda_v]
    except ValueError as exc:
        raise FormatError(str(exc)) from exc

    def row(s: float) -> list[str]:
        values = [loss(residual, 0.0, s, cfg).value for _, cfg in curves]
        if not all(map(math.isfinite, values)):
            raise FormatError(f"{flags}, --s-min and --s-max give a loss beyond the float range at s={format_float(s)}")
        return [format_float(s), *map(format_float, values)]

    s_values = [args.s_min + i * (args.s_max - args.s_min) / (args.points - 1) for i in range(args.points)]
    rows = list(map(row, s_values))  # every row built before the output opens, so a refused one writes nothing
    write_table(args.out, ["s"] + [name for name, _ in curves], rows)
    return 0


# --- parser ------------------------------------------------------------------

def _add_eval_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--iou-threshold", dest="eval.iou_threshold", type=float)
    p.add_argument("--iou-kind", dest="eval.iou_kind", choices=[k.value for k in IouKind])
    p.add_argument("--recall-points", dest="eval.recall_points", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="uatrack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic scenario")
    p.add_argument("--out-gt", required=True)
    p.add_argument("--out-dets", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", dest="scenario.seed", type=int)
    p.add_argument("--n-targets", dest="scenario.n_targets", type=int)
    p.add_argument("--n-frames", dest="scenario.n_frames", type=int)
    p.add_argument("--dt", dest="scenario.dt", type=float)
    p.add_argument("--field-extent", dest="scenario.field_extent", type=float)
    p.add_argument("--fp-rate", dest="scenario.fp_rate", type=float)
    p.add_argument("--fn-rate", dest="scenario.fn_rate", type=float)
    p.add_argument("--miscalibration", dest="scenario.miscalibration_factor", type=float)
    p.add_argument("--noise-base", dest="scenario.noise_base", type=_float_list)
    p.add_argument("--noise-range-coeff", dest="scenario.noise_range_coeff", type=_float_list)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("track", help="run the tracker over a detection file")
    p.add_argument("--dets", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--dt", dest="scenario.dt", type=float)
    p.add_argument("--constant-sigma", dest="tracker.constant_sigma", type=float,
                   help="ignore variance columns; constant observation sigma for all parameters")
    p.add_argument("--use-variance", dest="tracker.use_detection_covariance", action="store_const", const=True,
                   help="feed per-detection variance to the filter, also where --config turns it off")
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("eval-track", help="CLEAR tracking metrics")
    p.add_argument("--gt", required=True)
    p.add_argument("--tracks", required=True)
    _add_eval_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval_track)

    p = sub.add_parser("eval-det", help=f"detection AP / max F1 (IoU threshold {DET_IOU_THRESHOLD} by default)")
    p.add_argument("--gt", required=True)
    p.add_argument("--dets", required=True)
    _add_eval_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval_det)

    p = sub.add_parser("nms", help="rescore by uncertainty and suppress duplicates")
    p.add_argument("--dets", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--strategy", dest="scoring.strategy", choices=[s.value for s in ScoreStrategy])
    p.add_argument("--ks", dest="scoring.k_s", type=float)
    p.add_argument("--bs", dest="scoring.b_s", type=float)
    p.add_argument("--aggregate", dest="scoring.aggregate", choices=[m.value for m in AggregateMode])
    p.add_argument("--alpha", dest="scoring.alpha", type=float)
    p.add_argument("--iou-threshold", dest="nms.iou_threshold", type=float)
    p.add_argument("--pre-top-k", dest="nms.pre_top_k", type=int)
    p.add_argument("--iou-kind", dest="nms.iou_kind", choices=[k.value for k in IouKind])
    p.set_defaults(func=_cmd_nms)

    p = sub.add_parser("check-losses", help="gradient and minimum-location suites")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check_losses)

    p = sub.add_parser("sweep", help="grid over config values, one report row per cell")
    p.add_argument("--mode", required=True, choices=list(_SWEEP_SECTIONS))
    p.add_argument("--gt", required=True)
    p.add_argument("--dets", required=True)
    p.add_argument("--config")
    p.add_argument("--dt", dest="scenario.dt", type=float)
    p.add_argument("--param", action="append", default=[],
                   help="section.key=v1,v2,...; track mode varies tracker keys and "
                        "tracker.constant_sigma, nms mode scoring and nms keys")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("experiment", help="adaptive vs constant-sigma tracking, one row per seed and arm")
    p.add_argument("--seeds", required=True, help="FIRST-LAST, both included")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("plot-data", help="emit loss-curve x,y series")
    p.add_argument("family", choices=["gaussian", "von-mises"])
    p.add_argument("--d2", type=float, default=1.0, help="squared residual for the gaussian family")
    p.add_argument("--cos", type=float, default=0.5, help="cos of the angular residual")
    p.add_argument("--lambda-g", dest="lambda_g", type=_float_list, default=[GaussianNllConfig.lambda_g])
    p.add_argument("--lambda-v", dest="lambda_v", type=_float_list, default=[VonMisesNllConfig.lambda_v])
    p.add_argument("--s0", type=float, default=VonMisesNllConfig.s0)
    p.add_argument("--s-min", dest="s_min", type=float, default=-5.0)
    p.add_argument("--s-max", dest="s_max", type=float, default=5.0)
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_plot_data)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        if exc.filename is None:  # not from opening a file
            raise
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

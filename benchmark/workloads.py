"""The benchmark's workloads: seeded inputs, one operation, output checks.

Every workload drives the public API from outside the package, in one
thread, as a closed loop with one caller.  A workload's inputs come
only from the run's seed.  Its operations are grouped; a group is the
unit that timing medians are taken over, and one *round* runs every
group once.

- ``headline``: the criterion-8 experiment.  Each group is one scenario
  tracked by six arms (adaptive plus five constant sigmas), each arm
  then scored by ``clear_mot`` and ``position_rmse``.  Small track
  counts, so numpy per-call overhead in the filter matters.
- ``crowded``: 240 targets, one adaptive arm, ``clear_mot``.  Evaluation
  is superlinear in targets and dominates; the filter is amortized.
- ``postproc``: the file path through ``uatrack nms`` (read, rescore,
  suppress, write) and ``uatrack eval-det``.  The only workload that
  runs ``io`` reads, ``boxes``, ``scoring`` and NMS-style IoU.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from uatrack import boxes, cli, experiments, io, metrics, sim, tracker

SIGMA_GRID = (0.05, 0.15, 0.5, 1.5, 5.0)
HEADLINE_GATE = 3.0
HEADLINE_NOISE_BASE = (0.03, 0.03, 0.02, 0.02, 0.02, 0.02, 0.01)
HEADLINE_NOISE_RANGE = (0.012, 0.002, 0.002, 0.001, 0.001, 0.001, 0.001)
# Every workload scores at the criterion-8 threshold.
EVAL_IOU = 0.5

# Near-duplicates per postproc detection, their planar and yaw jitter.
DUPLICATES = 2
DUP_XY_STD = 0.4
DUP_THETA_STD = 0.05
DUP_SCORE_STD = 0.03


@dataclass(frozen=True)
class Sizes:
    """Input sizes; FULL is the benchmark, TINY serves the smoke test."""

    headline: sim.ScenarioConfig
    headline_scenarios: int
    crowded: sim.ScenarioConfig
    crowded_scenarios: int
    postproc: sim.ScenarioConfig
    postproc_inputs: int


def _scenario(**kw) -> sim.ScenarioConfig:
    base = dict(dt=0.1, field_extent=60.0, noise_base=HEADLINE_NOISE_BASE,
                noise_range_coeff=HEADLINE_NOISE_RANGE, fn_rate=0.1)
    base.update(kw)
    return sim.ScenarioConfig(**base)


FULL = Sizes(
    headline=_scenario(n_targets=15, n_frames=200, fp_rate=0.5),
    headline_scenarios=4,
    crowded=_scenario(n_targets=240, n_frames=30, field_extent=120.0, fp_rate=1.0),
    crowded_scenarios=2,
    postproc=_scenario(n_targets=40, n_frames=100, fp_rate=1.0),
    postproc_inputs=2,
)
TINY = Sizes(
    headline=_scenario(n_targets=4, n_frames=25, fp_rate=0.5),
    headline_scenarios=2,
    crowded=_scenario(n_targets=20, n_frames=12, field_extent=30.0, fp_rate=1.0),
    crowded_scenarios=2,
    postproc=_scenario(n_targets=5, n_frames=10, fp_rate=1.0),
    postproc_inputs=2,
)


class InvalidOutput(Exception):
    """An operation returned without error but its output is wrong."""


@dataclass
class OpResult:
    """One operation's outputs and raw timings.

    ``stages`` holds the ``ctx.clock`` readings at the start of the front
    stage, which turns detections into output boxes (tracking, or
    rescore + NMS), at its end, where the scoring stage starts, and at
    the end of scoring.  ``frame_ms`` are the front stage's per-frame
    latencies.
    """

    digest: str
    dets: int
    eval_boxes: int
    stages: tuple[float, float, float]
    frame_ms: list[float]
    quality: dict[str, float] = field(default_factory=dict)

    @property
    def front_s(self) -> float:
        return self.stages[1] - self.stages[0]

    @property
    def eval_s(self) -> float:
        return self.stages[2] - self.stages[1]


def _hash_floats(h, values) -> None:
    h.update(",".join(repr(float(v)) for v in values).encode())
    h.update(b";")


def _hash_scenario(h, scenario: sim.Scenario) -> None:
    for frame in scenario.ground_truth:
        for tid, b in frame:
            _hash_floats(h, (tid, b.x, b.y, b.z, b.w, b.l, b.h, b.theta))
    for frame in scenario.detections:
        for det in frame:
            b = det.box
            _hash_floats(h, (b.x, b.y, b.z, b.w, b.l, b.h, b.theta, b.score) + det.variance.as_tuple())


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def _check_tracks(frames) -> None:
    for f, frame in enumerate(frames):
        ids = [tid for tid, _ in frame]
        if len(set(ids)) != len(ids):
            raise InvalidOutput(f"duplicate track id in frame {f}")
        for _, b in frame:
            if not _finite(b.x, b.y, b.z, b.w, b.l, b.h, b.theta, b.score):
                raise InvalidOutput(f"non-finite track box in frame {f}")


def _check_ap(ap: float) -> None:
    if not (math.isfinite(ap) and 0.0 <= ap <= 100.0):
        raise InvalidOutput(f"AP {ap} outside [0, 100]")


def _check_report(report: metrics.TrackingReport) -> None:
    _check_ap(report.ap)
    if not _finite(report.max_f1, report.ml, report.mota):
        raise InvalidOutput("non-finite tracking report")


def _track(scenario: sim.Scenario, cfg: tracker.TrackerConfig, frames=None, clock=perf_counter):
    """Confirmed (id, box) per frame, as experiments.track_scenario builds them.

    Returns the frames and the per-step latencies (ms).
    """
    trk = tracker.Tracker(cfg)
    dt = scenario.config.dt
    out, step_ms = [], []
    for frame in scenario.detections if frames is None else frames:
        t0 = clock()
        confirmed = trk.step(frame, dt)
        step_ms.append((clock() - t0) * 1e3)
        out.append([(t.id, t.to_box()) for t in confirmed])
    return out, step_ms


def _digest_tracking(frames, report, rmse=None) -> str:
    h = hashlib.sha256()
    for frame in frames:
        for tid, b in frame:
            _hash_floats(h, (tid, b.x, b.y, b.z, b.w, b.l, b.h, b.theta, b.score))
        h.update(b"|")
    _hash_floats(h, (report.ap, report.max_f1, report.idsw, report.frag, report.ml, report.mota,
                     report.fn, report.fp, report.gt_total))
    if rmse is not None:
        _hash_floats(h, (rmse,))
    return h.hexdigest()


def _input_seeds(seed: int, n: int) -> range:
    """Seeds of the n inputs a run makes from its seed; runs never share one."""
    return range(n * seed, n * seed + n)


def _n_dets(scenario: sim.Scenario) -> int:
    return sum(len(frame) for frame in scenario.detections)


def _n_gt(scenario: sim.Scenario) -> int:
    return sum(len(frame) for frame in scenario.ground_truth)


def _n_boxes(frames) -> int:
    return sum(len(frame) for frame in frames)


class _Tracking:
    """Scenarios made from the run seed; each tracked by every arm, then scored.

    One group per scenario, one operation per arm: ``Tracker.step`` and
    ``Track.to_box`` per frame, then ``clear_mot`` (and, with
    ``with_rmse``, ``position_rmse``).  The first arm is the adaptive one.
    """

    WARM_UP_FRAMES = 5

    def __init__(self, scenario_cfg: sim.ScenarioConfig, count: int, arms, with_rmse: bool):
        self.scenario_cfg = scenario_cfg
        self.count = count
        self.arms = arms
        self.with_rmse = with_rmse
        self.eval_cfg = metrics.EvalConfig(iou_threshold=EVAL_IOU)

    def setup(self, seed: int) -> None:
        self.scenarios = [sim.generate_scenario(replace(self.scenario_cfg, seed=s))
                          for s in _input_seeds(seed, self.count)]

    def inputs_digest(self) -> str:
        h = hashlib.sha256()
        for scenario in self.scenarios:
            _hash_scenario(h, scenario)
        return h.hexdigest()

    def warm_up(self) -> None:
        scenario = self.scenarios[0]
        n = self.WARM_UP_FRAMES
        pred, _ = _track(scenario, self.arms[0][1], scenario.detections[:n])
        metrics.clear_mot(scenario.ground_truth[:n], pred, self.eval_cfg)

    def groups(self) -> list[int]:
        return list(range(len(self.scenarios)))

    def run_group(self, group: int, run_op) -> None:
        scenario = self.scenarios[group]
        for label, cfg in self.arms:
            run_op(f"{scenario.config.seed}/{label}", lambda ctx, cfg=cfg: self._arm(scenario, cfg, ctx))

    def _arm(self, scenario: sim.Scenario, cfg: tracker.TrackerConfig, ctx) -> OpResult:
        rmse = None
        with ctx.span("pass"):
            t0 = ctx.clock()
            pred, step_ms = _track(scenario, cfg, clock=ctx.clock)
            t1 = ctx.clock()
            report = metrics.clear_mot(scenario.ground_truth, pred, self.eval_cfg)
            if self.with_rmse:
                rmse = experiments.position_rmse(scenario, pred)
            t2 = ctx.clock()
        _check_tracks(pred)
        _check_report(report)
        if rmse is not None and not math.isfinite(rmse):
            raise InvalidOutput("non-finite position RMSE")
        return OpResult(
            digest=_digest_tracking(pred, report, rmse),
            dets=_n_dets(scenario), eval_boxes=_n_gt(scenario) + _n_boxes(pred),
            stages=(t0, t1, t2), frame_ms=step_ms,
            quality={"rmse": rmse, "mota": report.mota, "ap": report.ap},
        )

    def quality(self, first: dict[str, OpResult]) -> dict:
        """Adaptive AP and MOTA per scenario; with RMSE, each arm's RMSE/MOTA,
        the RMSE ratio and the MOTA margin over the best constant arm.
        Figures without a seed are means over the scenarios."""
        per_scenario = []
        for scenario in self.scenarios:
            s = scenario.config.seed
            arms = [(label, first[f"{s}/{label}"].quality) for label, _ in self.arms]
            adaptive, consts = arms[0][1], [q for _, q in arms[1:]]
            entry = {"seed": s, "ap": adaptive["ap"], "mota": adaptive["mota"]}
            if self.with_rmse:
                entry["arms"] = [[label, q["rmse"], q["mota"]] for label, q in arms]
                entry["rmse_ratio"] = adaptive["rmse"] / min(q["rmse"] for q in consts)
                entry["mota_margin"] = adaptive["mota"] - max(q["mota"] for q in consts)
            per_scenario.append(entry)
        out = {key: float(np.mean([e[key] for e in per_scenario]))
               for key in ("ap", "mota", "rmse_ratio", "mota_margin") if key in per_scenario[0]}
        out["scenarios"] = per_scenario
        return out


def _adaptive(base: tracker.TrackerConfig):
    return ("adaptive", replace(base, use_detection_covariance=True))


class Headline(_Tracking):
    """Criterion 8: six arms (adaptive, five constant sigmas), then clear_mot and position_rmse."""

    name = "headline"

    def __init__(self, sizes: Sizes, workdir: Path):
        base = tracker.TrackerConfig(gate_distance=HEADLINE_GATE)
        arms = [_adaptive(base)] + [(f"sigma={s:g}", tracker.constant_sigma_config(base, s)) for s in SIGMA_GRID]
        super().__init__(sizes.headline, sizes.headline_scenarios, arms, with_rmse=True)


class Crowded(_Tracking):
    """240 targets, the adaptive arm only, then clear_mot."""

    name = "crowded"

    def __init__(self, sizes: Sizes, workdir: Path):
        base = tracker.TrackerConfig(gate_distance=HEADLINE_GATE)
        super().__init__(sizes.crowded, sizes.crowded_scenarios, [_adaptive(base)], with_rmse=False)


def _row_key(line: str) -> str:
    """A detection row without its score column, which NMS rescoring rewrites."""
    parts = line.split(",")
    return ",".join(parts[:9] + parts[10:])


def _data_rows(path: Path) -> list[str]:
    lines = path.read_text().splitlines()
    return [line for line in lines[2:] if line.strip()]


@contextlib.contextmanager
def _frame_timer(frame_ms: list[float], clock):
    """Time each per-frame nms() call that `uatrack nms` makes."""
    inner = cli.__dict__["nms"]

    def timed(boxes, cfg):
        t0 = clock()
        kept = inner(boxes, cfg)
        frame_ms.append((clock() - t0) * 1e3)
        return kept

    cli.nms = timed
    try:
        yield
    finally:
        cli.nms = inner


@dataclass
class _PostprocInput:
    seed: int
    dets_path: Path
    gt_path: Path
    n_rows: int = 0
    n_gt: int = 0
    rows: Counter = field(default_factory=Counter)


class Postproc:
    """`uatrack nms` (exponential rescoring) then `uatrack eval-det`, through files."""

    name = "postproc"

    def __init__(self, sizes: Sizes, workdir: Path):
        self.sizes = sizes
        self.kept_path = workdir / "kept.csv"
        self.eval_path = workdir / "eval.csv"
        self.warm_path = workdir / "warm.csv"
        self.workdir = workdir

    def setup(self, seed: int) -> None:
        self.inputs = []
        for s in _input_seeds(seed, self.sizes.postproc_inputs):
            inp = _PostprocInput(s, self.workdir / f"dets-{s}.csv", self.workdir / f"gt-{s}.csv")
            self._write_input(inp)
            self.inputs.append(inp)

    def _write_input(self, inp: _PostprocInput) -> None:
        scenario = sim.generate_scenario(replace(self.sizes.postproc, seed=inp.seed))
        rng = np.random.default_rng([inp.seed, 1])
        records = []
        for f, frame in enumerate(scenario.detections):
            for det in frame:
                records.append(io.DetectionRecord(f, det.box, det.variance))
                jitter = rng.standard_normal((DUPLICATES, 4))
                for dx, dy, dth, dsc in jitter:
                    dx, dy = DUP_XY_STD * dx, DUP_XY_STD * dy
                    v = det.variance
                    inflate = 2.0 + (dx * dx + dy * dy) / (v.var_x + v.var_y)
                    box = replace(
                        det.box, x=det.box.x + dx, y=det.box.y + dy,
                        theta=det.box.theta + DUP_THETA_STD * dth,
                        score=min(max(det.box.score + DUP_SCORE_STD * dsc, 0.02), 0.99),
                    )
                    var = boxes.BoxVariance(*(x * inflate for x in v.as_tuple()))
                    records.append(io.DetectionRecord(f, box, var))
        gt_rows = [(f, tid, box) for f, frame in enumerate(scenario.ground_truth) for tid, box in frame]
        io.write_detections(inp.dets_path, records)
        io.write_tracks(inp.gt_path, gt_rows)
        io.write_detections(self.warm_path, [r for r in records if r.frame < 2])
        inp.n_rows = len(records)
        inp.n_gt = len(gt_rows)
        inp.rows = Counter(_row_key(line) for line in _data_rows(inp.dets_path))

    def inputs_digest(self) -> str:
        h = hashlib.sha256()
        for inp in self.inputs:
            h.update(inp.dets_path.read_bytes())
            h.update(inp.gt_path.read_bytes())
        return h.hexdigest()

    def _nms_argv(self, dets: Path) -> list[str]:
        return ["nms", "--dets", str(dets), "--out", str(self.kept_path), "--strategy", "exponential"]

    def _eval_argv(self, gt: Path) -> list[str]:
        return ["eval-det", "--gt", str(gt), "--dets", str(self.kept_path), "--out", str(self.eval_path),
                "--iou-threshold", str(EVAL_IOU)]

    def warm_up(self) -> None:
        with contextlib.redirect_stdout(_stdio.StringIO()):
            cli.main(self._nms_argv(self.warm_path))
            cli.main(self._eval_argv(self.inputs[-1].gt_path))

    def groups(self) -> list[int]:
        return list(range(len(self.inputs)))

    def run_group(self, group: int, run_op) -> None:
        inp = self.inputs[group]
        run_op(f"postproc/{inp.seed}", lambda ctx: self._pass(inp, ctx))

    def _pass(self, inp: _PostprocInput, ctx) -> OpResult:
        frame_ms: list[float] = []
        with contextlib.redirect_stdout(_stdio.StringIO()), _frame_timer(frame_ms, ctx.clock), ctx.span("pass"):
            t0 = ctx.clock()
            with ctx.span("cli.nms"):
                rc_nms = cli.main(self._nms_argv(inp.dets_path))
            t1 = ctx.clock()
            with ctx.span("cli.eval_det"):
                rc_eval = cli.main(self._eval_argv(inp.gt_path))
            t2 = ctx.clock()
        if rc_nms != 0 or rc_eval != 0:
            raise InvalidOutput(f"exit codes nms={rc_nms} eval-det={rc_eval}")
        kept = _data_rows(self.kept_path)
        if Counter(_row_key(line) for line in kept) - inp.rows:
            raise InvalidOutput("kept rows are not a subset of the input rows")
        ap, max_f1 = (float(v) for v in _data_rows(self.eval_path)[0].split(","))
        _check_ap(ap)
        if not math.isfinite(max_f1):
            raise InvalidOutput("non-finite max F1")
        h = hashlib.sha256()
        h.update(self.kept_path.read_bytes())
        h.update(self.eval_path.read_bytes())
        return OpResult(
            digest=h.hexdigest(),
            dets=inp.n_rows, eval_boxes=inp.n_gt + len(kept),
            stages=(t0, t1, t2), frame_ms=frame_ms,
            quality={"ap": ap},
        )

    def quality(self, first: dict[str, OpResult]) -> dict:
        return {"ap": float(np.mean([first[f"postproc/{inp.seed}"].quality["ap"] for inp in self.inputs]))}


WORKLOADS = {w.name: w for w in (Headline, Crowded, Postproc)}

"""In-memory span tracing for the benchmark's traced run.

Spans are recorded by wrappers that the benchmark binds over the
package's public functions for the length of a traced pass; the package
itself carries no instrumentation.  A function imported by name into
another module is a separate binding, so it is wrapped in every module
that calls it (see ``patch_table``).

Each span keeps its name, start, end, parent span and operation id in
flat arrays; self time is computed once at the end as the span's
duration minus the durations of its direct children, which nest
strictly because the benchmark is single-threaded.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from uatrack import assignment, cli, experiments, io, metrics, scoring, sim, tracker

SETUP = "setup"
PASS = "pass"


class Tracer:
    """Span recorder plus per-phase counters.

    The phase (set-up or pass) decides which counter table a wrapped
    call adds to, so set-up work and measured work are reported apart.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.phase_id = array("b")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.op_id = 0
        self.phase = SETUP
        self.counts = {SETUP: defaultdict(float), PASS: defaultdict(float)}

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name: str) -> int:
        """Open a span; a span with no open parent starts a new operation."""
        idx = len(self.start)
        if self._stack[-1] < 0:
            self.op_id += 1
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.phase_id.append(0 if self.phase == SETUP else 1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.finish(idx)

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[self.phase][key] += value

    def wrap(self, name: str, fn, counter=None):
        """fn inside a span; counter(count, args, result) runs after the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(idx)
            if counter is not None:
                counter(tracer.count, args, result)
            return result

        return traced

    @contextmanager
    def installed(self, table):
        """Bind a traced wrapper over every (owner, attr) in the table."""
        saved = []
        try:
            for owner, attr, name, counter in table:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, counter))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per (phase, name): span count, total and self seconds; plus pass coverage.

        Coverage is the share of the benchmark's ``pass`` spans covered by
        their direct children, the named layer calls.
        """
        n = len(self.start)
        if n == 0:
            return {"spans": {}, "coverage": 0.0}
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        phase = np.frombuffer(self.phase_id, dtype=np.int8)
        dur = (end - start).astype(float) * 1e-9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - child
        spans = {}
        for ph_id, ph in ((0, SETUP), (1, PASS)):
            sel = phase == ph_id
            calls = np.bincount(names[sel], minlength=len(self.names))
            total = np.bincount(names[sel], weights=dur[sel], minlength=len(self.names))
            own = np.bincount(names[sel], weights=self_s[sel], minlength=len(self.names))
            for i, name in enumerate(self.names):
                if calls[i]:
                    spans[(ph, name)] = (int(calls[i]), float(total[i]), float(own[i]))
        pass_sel = names == self._name_ids.get(PASS, -1)
        pass_total = float(dur[pass_sel].sum())
        coverage = float(child[pass_sel].sum()) / pass_total if pass_total > 0 else 0.0
        return {"spans": spans, "coverage": coverage}

    def write(self, path: Path) -> None:
        """All spans as gzip TSV: op, phase, name, start_ns, end_ns, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op\tphase\tname\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.op[i]}\t{SETUP if self.phase_id[i] == 0 else PASS}\t{self.names[self.name_id[i]]}"
                    f"\t{self.start[i]}\t{self.end[i]}\t{self.parent[i]}\n"
                )


# --- counters: count(key, value) after each wrapped call -----------------------

def _count_tracks(name):
    def counter(count, args, result):
        count(f"{name}.tracks", len(args[0]))
    return counter


def _count_associate(count, args, result):
    tracks, dets = args[0], args[1]
    count("tracker.associate.cells", len(tracks) * len(dets))
    count("tracker.associate.dets", len(dets))
    count("tracker.associate.matches", len(result[0]))


def _count_assignment(name, forbidden):
    def counter(count, args, result):
        cost = np.asarray(args[0])
        count(f"{name}.cells", cost.size)
        count(f"{name}.pairs", len(result))
        count(f"{name}.useful", sum(1 for r, c in result if cost[r, c] < forbidden))
    return counter


def _count_iou(name):
    def counter(count, args, result):
        if result > 0.0:
            count(f"{name}.nonzero")
    return counter


def _count_thresholds(count, args, result):
    count("metrics.detection_pr.thresholds", len(result[2]))


def _count_nms(count, args, result):
    count("scoring.nms.in", len(args[0]))
    count("scoring.nms.kept", len(result))


def _count_read(count, args, result):
    count("io.read.rows", len(result))
    count("io.read.bytes", Path(args[0]).stat().st_size)


def _count_write(count, args, result):
    count("io.write.rows", len(args[1]))
    count("io.write.bytes", Path(args[0]).stat().st_size)


def _count_sim(count, args, result):
    count("sim.detections", sum(len(frame) for frame in result.detections))


def patch_table() -> list:
    """(owner, attribute, span name, counter) for every traced binding.

    Every module that imported a function by name gets its own row.
    """
    forbidden = assignment.FORBIDDEN_COST
    return [
        (tracker.Tracker, "step", "tracker.step", None),
        (tracker.Track, "to_box", "tracker.to_box", None),
        (tracker, "ukf_predict_batch", "tracker.ukf_predict", _count_tracks("tracker.ukf_predict")),
        (tracker, "ukf_update_batch", "tracker.ukf_update", _count_tracks("tracker.ukf_update")),
        (tracker, "size_update", "tracker.size_update", None),
        (tracker, "associate", "tracker.associate", _count_associate),
        (tracker, "ctra_step", "motion.ctra_step", None),
        (sim, "ctra_step", "motion.ctra_step", None),
        (tracker, "hungarian_assign", "assignment.tracker", _count_assignment("assignment.tracker", forbidden)),
        (metrics, "hungarian_assign", "assignment.metrics", _count_assignment("assignment.metrics", forbidden)),
        (experiments, "hungarian_assign", "assignment.experiments",
         _count_assignment("assignment.experiments", forbidden)),
        (metrics, "iou_bev", "geometry.iou.metrics", _count_iou("geometry.iou.metrics")),
        (metrics, "iou_3d", "geometry.iou.metrics", _count_iou("geometry.iou.metrics")),
        (scoring, "iou_bev", "geometry.iou.scoring", _count_iou("geometry.iou.scoring")),
        (scoring, "iou_3d", "geometry.iou.scoring", _count_iou("geometry.iou.scoring")),
        (metrics, "clear_mot", "metrics.clear_mot", None),
        (metrics, "detection_pr", "metrics.detection_pr", _count_thresholds),
        (cli, "detection_pr", "metrics.detection_pr", _count_thresholds),
        (metrics, "match_frame", "metrics.match_frame", None),
        (experiments, "position_rmse", "experiments.position_rmse", None),
        (cli, "encode_variance", "boxes.encode_variance", None),
        (cli, "score_detection", "scoring.score_detection", None),
        (cli, "nms", "scoring.nms", _count_nms),
        (cli, "read_detections", "io.read", _count_read),
        (cli, "read_tracks", "io.read", _count_read),
        (cli, "write_detections", "io.write", _count_write),
        (io, "write_detections", "io.write", _count_write),
        (io, "write_tracks", "io.write", _count_write),
        (sim, "generate_scenario", "sim.generate", _count_sim),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rounds: int, setups: int, overhead_frac: float) -> dict[str, float]:
    """Per-layer figures: pass-phase figures per round, sim figures per set-up."""
    summary = tracer.summary()
    spans = summary["spans"]
    counts = tracer.counts[PASS]

    def calls(name: str) -> float:
        return spans.get((PASS, name), (0, 0.0, 0.0))[0] / rounds

    def self_s(name: str) -> float:
        return spans.get((PASS, name), (0, 0.0, 0.0))[2] / rounds

    def per_round(key: str) -> float:
        return counts[key] / rounds

    out: dict[str, float] = {}
    for name in ("tracker.step", "tracker.size_update", "tracker.to_box", "motion.ctra_step",
                 "metrics.match_frame", "scoring.score_detection", "scoring.nms", "boxes.encode_variance"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    for name in ("tracker.ukf_predict", "tracker.ukf_update"):
        out[f"{name}.tracks"] = per_round(f"{name}.tracks")
        out[f"{name}.self_s"] = self_s(name)
    out["tracker.associate.cells"] = per_round("tracker.associate.cells")
    out["tracker.associate.self_s"] = self_s("tracker.associate")
    out["tracker.associate.match_frac"] = _ratio(counts["tracker.associate.matches"], counts["tracker.associate.dets"])
    for name in ("assignment.tracker", "assignment.metrics", "assignment.experiments"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.cells"] = per_round(f"{name}.cells")
        out[f"{name}.self_s"] = self_s(name)
        out[f"{name}.useful_frac"] = _ratio(counts[f"{name}.useful"], counts[f"{name}.pairs"])
    for name in ("geometry.iou.metrics", "geometry.iou.scoring"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
        out[f"{name}.us_per_call"] = 1e6 * _ratio(self_s(name), calls(name))
        out[f"{name}.nonzero_frac"] = _ratio(counts[f"{name}.nonzero"], calls(name) * rounds)
    out["metrics.clear_mot.self_s"] = self_s("metrics.clear_mot")
    out["metrics.detection_pr.self_s"] = self_s("metrics.detection_pr")
    out["metrics.detection_pr.thresholds"] = per_round("metrics.detection_pr.thresholds")
    out["experiments.position_rmse.self_s"] = self_s("experiments.position_rmse")
    out["scoring.nms.kept_frac"] = _ratio(counts["scoring.nms.kept"], counts["scoring.nms.in"])
    for name in ("io.read", "io.write"):
        out[f"{name}.rows"] = per_round(f"{name}.rows")
        out[f"{name}.bytes"] = per_round(f"{name}.bytes")
        out[f"{name}.self_s"] = self_s(name)
    out["cli.nms.self_s"] = self_s("cli.nms")
    out["cli.eval_det.self_s"] = self_s("cli.eval_det")
    gen = spans.get((SETUP, "sim.generate"), (0, 0.0, 0.0))
    out["sim.generate.calls"] = gen[0] / setups
    out["sim.generate.self_s"] = gen[2] / setups
    out["sim.detections"] = tracer.counts[SETUP]["sim.detections"] / setups
    out["trace.overhead_frac"] = overhead_frac
    out["trace.coverage_frac"] = summary["coverage"]
    return out

#!/usr/bin/env python3
"""uatrack benchmark: one workload, one seed, one run.

    python3 benchmark/run.py --workload headline --seed 0 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/``
(nothing needs installing).  With ``--trace 0`` the last stdout line is
a JSON object with the end-to-end metrics; with ``--trace 1`` it holds
the per-layer metrics of a traced run instead.  The line before it
records the machine, the inputs/outputs digest and the quality figures.
See benchmark/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORK = BENCH_DIR / ".work"

# The benchmark is single-threaded by design; pin BLAS/OpenMP pools so
# numpy's linear algebra cannot fan out across cores.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Input generation is repeated and its median taken, so set-up time is steady.
SETUP_REPEATS = 3

# Machine speed on shared hosts drifts by tens of percent within seconds,
# which would swamp any change worth measuring.  So the benchmark samples
# the machine's speed uniformly in time: a timer signal every
# SAMPLE_INTERVAL_S runs a fixed reference computation (small numpy calls
# plus pure-Python float work, the mix the package runs) and records its
# time.  The slowness of a group's front (or scoring) stages is the
# trimmed mean of the samples taken during them over REFERENCE_NOMINAL_S,
# the reference's median on a 2-core x86-64 VM (Python 3.11, numpy 2.4).
# Stage times are read from a clock that leaves the samples out, then
# divided by that slowness; raw figures stay in the run record.
SAMPLE_INTERVAL_S = 0.05
REFERENCE_ITERATIONS = 50
REFERENCE_NOMINAL_S = 0.001
TRIM = 0.05


def reference_work() -> None:
    """A fixed computation whose duration tracks the machine's speed."""
    import numpy as np

    rng = np.random.default_rng(12345)
    a = rng.standard_normal((8, 6, 6))
    covs = np.einsum("tij,tkj->tik", a, a) + 6.0 * np.eye(6)
    acc = 0.0
    for i in range(REFERENCE_ITERATIONS):
        factors = np.linalg.cholesky(covs)
        acc += float(np.einsum("tij,tj->ti", factors, covs[:, 0, :]).sum())
        poly = [(math.cos(0.7 * k + i), math.sin(0.7 * k - i)) for k in range(8)]
        for k in range(8):
            x0, y0 = poly[k]
            x1, y1 = poly[k - 1]
            acc += x0 * y1 - x1 * y0
    if not math.isfinite(acc):
        raise RuntimeError("reference computation went non-finite")


class SpeedSampler:
    """Times ``reference_work`` from a SIGALRM handler every SAMPLE_INTERVAL_S.

    ``clock()`` is ``perf_counter`` minus the time spent in samples, so
    durations read from it leave the sampling out.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.stamps: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        reference_work()
        took = perf_counter() - t0
        self.samples.append(took)
        self.stamps.append(t0 - self.spent)
        self.spent += took
        self._busy = False

    def clock(self) -> float:
        while True:
            spent = self.spent
            now = perf_counter()
            if spent == self.spent:  # no sample ran in between
                return now - spent

    def slowness(self, intervals: list[tuple[float, float]]) -> float:
        """Slowness over the given clock intervals; 1 without samples."""
        window = []
        for start, end in intervals:
            window += self.samples[bisect.bisect_left(self.stamps, start):bisect.bisect_right(self.stamps, end)]
        window.sort()
        cut = int(len(window) * TRIM)
        window = window[cut:len(window) - cut] if cut else window
        return statistics.fmean(window) / REFERENCE_NOMINAL_S if window else 1.0

    def __enter__(self):
        reference_work()  # the first call pays numpy's lazy set-up
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def _null_span(name):
    return nullcontext()


def _import_workloads():
    """Import the package from src/ and the workload module; fail if absent."""
    if not (SRC / "uatrack" / "__init__.py").is_file():
        raise SystemExit(f"error: no uatrack package under {SRC}")
    sys.path.insert(0, str(SRC))
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    import uatrack
    import tracing
    import workloads

    if Path(uatrack.__file__).resolve().parent != (SRC / "uatrack").resolve():
        raise SystemExit(f"error: imported uatrack from {uatrack.__file__}, not from {SRC}")
    return workloads, tracing


def machine_info() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "platform": platform.platform(),
    }


class Context:
    """Handed to an operation: ``span(name)`` for tracing, ``clock()`` for timing."""

    def __init__(self, span, clock):
        self.span = span
        self.clock = clock


class Runner:
    """Runs operations, counts failures and checks repeat determinism."""

    def __init__(self, clock):
        self.clock = clock
        self.first: dict = {}
        self.order: list[str] = []
        self.attempted = 0
        self.failed = 0

    def run_op(self, key: str, fn, span):
        self.attempted += 1
        try:
            res = fn(Context(span, self.clock))
        except Exception:  # an operation that raises counts as failed; the run goes on
            self.failed += 1
            print(f"operation {key} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None
        if key in self.first:
            if self.first[key].digest != res.digest:
                self.failed += 1
                print(f"operation {key}: output differs from its first run", file=sys.stderr)
                return None
        else:
            self.first[key] = res
            self.order.append(key)
        return res

    def run_group(self, wl, group, span) -> list | None:
        """All operations of one group; None if any failed."""
        results = []
        wl.run_group(group, lambda key, fn: results.append(self.run_op(key, fn, span)))
        return None if any(r is None for r in results) else results


def _timing_metrics(groups: list[list], slowness) -> dict[str, float]:
    """Rates (median over groups) and frame latency percentiles.

    ``slowness(intervals)`` scales a group's front and scoring stage
    times; pass a constant 1 for raw figures.
    """
    det, front, evaluate = [], [], []
    frame_ms: list[float] = []
    for g in groups:
        front_slow = slowness([(r.stages[0], r.stages[1]) for r in g])
        eval_slow = slowness([(r.stages[1], r.stages[2]) for r in g])
        front_s = sum(r.front_s for r in g) / front_slow
        eval_s = sum(r.eval_s for r in g) / eval_slow
        dets = sum(r.dets for r in g)
        det.append(dets / (front_s + eval_s))
        front.append(dets / front_s)
        evaluate.append(sum(r.eval_boxes for r in g) / eval_s)
        frame_ms += [ms / front_slow for r in g for ms in r.frame_ms]
    return {
        "det_per_s": statistics.median(det) if groups else 0.0,
        "front_det_per_s": statistics.median(front) if groups else 0.0,
        "eval_det_per_s": statistics.median(evaluate) if groups else 0.0,
        "frame_p50_ms": _percentile(frame_ms, 50),
        "frame_p90_ms": _percentile(frame_ms, 90),
    }


def _percentile(values: list[float], q: float) -> float:
    import numpy

    return float(numpy.percentile(numpy.asarray(values), q)) if values else 0.0


def _measure(runner, wl, seconds: float, tracer, table, tracing) -> tuple[list[list], int, float, float]:
    """Run whole rounds of groups until ``seconds`` have passed.

    Untraced, timing may stop at any group boundary once the first round
    is done.  Traced, every group runs untraced and then traced, and
    only whole rounds run, so per-layer figures are exact per round.
    Returns the timed untraced groups, the rounds completed and the
    untraced and traced time of the groups that ran both ways.
    """
    done: list[list] = []
    untraced_s = traced_s = 0.0
    rounds = 0
    deadline = perf_counter() + seconds
    while True:
        for group in wl.groups():
            plain = runner.run_group(wl, group, _null_span)
            if tracer is None:
                if plain is not None:
                    done.append(plain)
                if rounds > 0 and perf_counter() >= deadline:
                    return done, rounds, untraced_s, traced_s
                continue
            tracer.phase = tracing.PASS
            with tracer.installed(table):
                traced = runner.run_group(wl, group, tracer.span)
            if plain is not None and traced is not None:
                untraced_s += sum(r.front_s + r.eval_s for r in plain)
                traced_s += sum(r.front_s + r.eval_s for r in traced)
        rounds += 1
        if perf_counter() >= deadline:
            return done, rounds, untraced_s, traced_s


def execute(workload: str, seed: int, seconds: float, trace: bool, sizes=None, work: Path = WORK):
    """One benchmark run; returns (result line, info line) as dicts."""
    t_import = perf_counter()
    wm, tracing = _import_workloads()
    import_s = perf_counter() - t_import
    load_at_start = os.getloadavg()

    work.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work))
    try:
        wl = wm.WORKLOADS[workload](sizes or wm.FULL, workdir)
        tracer = tracing.Tracer() if trace else None
        table = tracing.patch_table() if trace else []
        sampler = SpeedSampler()
        clock = perf_counter if trace else sampler.clock

        gen_s = []
        with nullcontext() if trace else sampler:
            setup_start = clock()
            with tracer.installed(table) if trace else nullcontext():
                for _ in range(SETUP_REPEATS):
                    t0 = clock()
                    wl.setup(seed)
                    gen_s.append(clock() - t0)
                t0 = clock()
                wl.warm_up()
                warm_s = clock() - t0
            setup_slowness = sampler.slowness([(setup_start, clock())])
            runner = Runner(clock)
            done, rounds, untraced_s, traced_s = _measure(runner, wl, seconds, tracer, table, tracing)
        setup_raw_s = import_s + statistics.median(gen_s) + warm_s
        inputs_digest = wl.inputs_digest()
        try:
            quality = wl.quality(runner.first)
        except KeyError:  # no operation of some group succeeded
            quality = {"ap": 0.0}
            runner.failed = max(runner.failed, 1)

        digest = hashlib.sha256(inputs_digest.encode())
        for key in runner.order:
            digest.update(f"{key}={runner.first[key].digest};".encode())

        info = {
            "workload": workload,
            "seed": seed,
            "trace": int(trace),
            "digest": digest.hexdigest(),
            "inputs_digest": inputs_digest,
            "rounds": rounds,
            "setup": {"import_s": import_s, "generate_s": gen_s, "warm_up_s": warm_s},
            "quality": quality,
            "machine": dict(machine_info(), loadavg_at_start=load_at_start),
        }
        if trace:
            overhead = traced_s / untraced_s - 1.0 if untraced_s > 0 else 0.0
            metrics = tracing.layer_metrics(tracer, max(rounds, 1), SETUP_REPEATS, overhead)
            metrics["experiments.rmse_ratio"] = quality.get("rmse_ratio", 0.0)
            metrics["experiments.mota_margin"] = quality.get("mota_margin", 0.0)
            metrics["metrics.mota"] = quality.get("mota", 0.0)
            spans_path = work / f"trace-{workload}-seed{seed}.tsv.gz"
            tracer.write(spans_path)
            info["spans"] = len(tracer.start)
            info["spans_file"] = str(spans_path)
        else:
            raw = dict(_timing_metrics(done, lambda intervals: 1.0), setup_s=setup_raw_s)
            metrics = _timing_metrics(done, sampler.slowness)
            metrics.update({
                "setup_s": setup_raw_s / setup_slowness,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ok_ops_frac": 1.0 - runner.failed / max(runner.attempted, 1),
                "ap": quality["ap"],
            })
            info["raw"] = raw
            info["slowness"] = {"setup": setup_slowness, "samples": len(sampler.samples),
                                "mean": sampler.slowness([(-math.inf, math.inf)])}
            info["groups_timed"] = len(done)
            info["frames_timed"] = sum(len(r.frame_ms) for g in done for r in g)
        result = {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": metrics,
        }
        return result, info
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def attach_units(metrics: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def metric_units() -> dict[str, str]:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv: list[str] | None = None, sizes=None, work: Path = WORK) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["headline", "crowded", "postproc"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; every workload still runs each of its groups once")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"

    units = metric_units()
    result, info = execute(args.workload, args.seed, args.seconds, bool(args.trace), sizes, work)
    result["metrics"] = attach_units(result["metrics"], units)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

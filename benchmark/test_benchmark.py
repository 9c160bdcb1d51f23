"""Smoke test of the benchmark itself at a tiny size; asserts no timing.

    python -m pytest benchmark/test_benchmark.py -q

Checks that every metric named in BENCHMARK.json is printed with its
unit and a finite value, that the output digest is stable (and equal
between the traced and untraced runs), that ``headline`` computes what
``experiments.compare_adaptive_vs_constant`` computes, and that the
benchmark fails cleanly where the package is missing.
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(capsys, work, workload, trace, seed=3):
    workloads, _ = run._import_workloads()
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, sizes=workloads.TINY, work=work) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_named_with_unit_and_finite(workload, capsys, tmp_path):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        _, result = _run(capsys, tmp_path, workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in SPEC[section]}
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digest_is_stable_and_seeded(workload, capsys, tmp_path):
    first, _ = _run(capsys, tmp_path, workload, 0)
    again, _ = _run(capsys, tmp_path, workload, 0)
    traced, _ = _run(capsys, tmp_path, workload, 1)
    other, _ = _run(capsys, tmp_path, workload, 0, seed=4)
    assert first["digest"] == again["digest"] == traced["digest"]
    assert first["inputs_digest"] == traced["inputs_digest"]
    assert other["inputs_digest"] != first["inputs_digest"]


def test_headline_matches_experiment_code(tmp_path):
    """One full-size criterion-8 scenario: same arms, RMSE ratio and MOTA margin."""
    workloads, _ = run._import_workloads()
    from uatrack.experiments import compare_adaptive_vs_constant
    from uatrack.tracker import TrackerConfig

    sizes = replace(workloads.FULL, headline_scenarios=1)
    result, info = run.execute("headline", 0, 0, False, sizes, tmp_path)
    assert result["correct"]
    (scenario,) = info["quality"]["scenarios"]
    arms = compare_adaptive_vs_constant(
        replace(sizes.headline, seed=scenario["seed"]),
        workloads.SIGMA_GRID,
        TrackerConfig(gate_distance=workloads.HEADLINE_GATE),
    )
    assert scenario["arms"] == [[a.label, a.rmse, a.mota] for a in arms]
    adaptive, consts = arms[0], arms[1:]
    assert scenario["rmse_ratio"] == adaptive.rmse / min(a.rmse for a in consts)
    assert scenario["mota_margin"] == adaptive.mota - max(a.mota for a in consts)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "benchmark", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "headline", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

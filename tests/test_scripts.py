"""The experiment scripts under scripts/ run end to end at a small size."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_constant_vs_adaptive_prints_every_arm_and_the_ratio(capsys):
    script = load_script("constant_vs_adaptive")
    assert script.main(["--seeds", "1", "--targets", "4", "--frames", "30"]) == 0
    lines = capsys.readouterr().out.splitlines()
    arms = [line.split()[1] for line in lines if line.split()[:1] == ["0"]]
    assert arms == ["adaptive"] + [f"sigma={s:g}" for s in script.SIGMA_GRID]
    assert sum("RMSE ratio vs best constant" in line for line in lines) == 1
    assert lines[-1].startswith("mean RMSE ratio over 1 scenarios: ")

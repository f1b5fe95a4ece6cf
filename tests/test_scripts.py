"""The scripts under scripts/, run in process through their main()."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fuzz_sweep_finds_no_violation(capsys):
    status = load("fuzz_sweep").main(["--trials", "200"])
    lines = capsys.readouterr().out.splitlines()
    assert status == 0
    assert len(lines) == 6
    assert all("grid points, worst relative gap" in line for line in lines[:5])
    assert lines[5] == "violations: 0"

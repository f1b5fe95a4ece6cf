"""The scripts under scripts/, run in process through their main()."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
#: tables and stdout of revpinsker 0.1.0, which pin the output byte for byte
GOLDEN = Path(__file__).resolve().parent / "golden"
TABLE_SUMMARIES = (
    ("simic", "20 finite rows, max ratio 9.362, mean 2.391"),
    ("sason-chi2", "75 finite rows, max ratio 1.998, mean 1.693"),
    ("sason-renyi", "75 finite rows, max ratio 5.488, mean 1.294"),
    ("verdu", "75 finite rows, max ratio 10.47, mean 1.807"),
)


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


def test_comparison_tables_match_golden(tmp_path, capsys):
    status = load("make_comparison_tables").main(["--outdir", str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert status == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        p.name for p in GOLDEN.glob("compare_*.csv")
    )
    assert len(lines) == 4
    for line, (comparator, summary) in zip(lines, TABLE_SUMMARIES):
        name = f"compare_{comparator.replace('-', '_')}.csv"
        assert line == f"{comparator:>12}: {summary} -> {tmp_path / name}"
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()

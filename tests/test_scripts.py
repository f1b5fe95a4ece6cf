"""The scripts under scripts/, run in process through their main()."""

import importlib.util
from pathlib import Path

import pytest

from revpinsker import errors

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


def test_comparison_tables_write_nothing_on_a_domain_error(tmp_path, capsys):
    # alpha = 1 is no Renyi order; the sason-renyi table is the third of four
    outdir = tmp_path / "tables"
    with pytest.raises(errors.InvalidAlpha):
        load("make_comparison_tables").main(["--outdir", str(outdir), "--alpha", "1"])
    assert not any(outdir.glob("*"))
    assert capsys.readouterr().out == ""


def test_value_dump_is_deterministic(capsys):
    dump = load("value_dump")
    runs = []
    for _ in range(2):
        assert dump.main([]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    lines = runs[0].splitlines()
    assert len(lines) > 20_000
    # a value is float.hex text, a bool, a list or dict of them, or a domain error
    domain_errors = {
        name for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.RevPinskerError)
    }
    for line in lines:
        value = line.rsplit(") ", 1)[1]
        assert (value[:1] in "[-0" or value in ("inf", "True", "False")
                or "=" in value or value in domain_errors), line


CODE_LINES_FIXTURE = '''"""A module docstring
over two lines."""

import math  # a trailing comment counts as its code line

# a comment line


class Point:
    """A class docstring."""

    x = 1.0


def norm(p):
    """A function docstring,

    with a blank line in it."""
    text = """a string that is
no docstring"""
    return math.hypot(
        p.x,
        0.0,
    )
'''


def test_code_lines_count_no_blank_comment_or_docstring(tmp_path, capsys):
    code_lines = load("code_lines")
    # import, class, x =, def, text = (two lines), return ( and its three lines
    assert code_lines.code_lines(CODE_LINES_FIXTURE) == 10
    (tmp_path / "a.py").write_text(CODE_LINES_FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# end\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["   10 a.py", "    1 b.py", "   11 total"]

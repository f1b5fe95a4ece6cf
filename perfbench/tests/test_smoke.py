"""Smoke tests of the benchmark itself: ``python3 -m pytest perfbench/tests``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS, Verdict  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric(workload, trace):
    out = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.3",
                "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    detail = json.loads(out.stdout.splitlines()[-2])["detail"]
    if workload == "bounds_grid":
        assert detail["corners"]["evaluations"] == len(WORKLOADS[workload](3).corners)


def test_tail_has_ten_samples_beyond_it_or_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert run.tail(range(100)) == (89, 90.0, 10)


def test_a_wrong_output_makes_the_run_incorrect(monkeypatch, capsys):
    def wrong(self, i, out):
        v = Verdict()
        v.fail("planted")
        return v

    monkeypatch.setattr(WORKLOADS["sweep"], "check", wrong)
    assert run.main(["--workload", "sweep", "--seed", "3", "--seconds", "0.3"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_bounds_grid_times_only_its_well_conditioned_points():
    wl = WORKLOADS["bounds_grid"](5)
    assert len(wl.ops) + len(wl.corners) == 1980
    assert wl.corners and not any(map(wl.is_corner, wl.ops))


def test_metric_names_match_benchmark_json():
    assert run.END_TO_END == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v[0] for k, v in run.PER_LAYER.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_seed_gives_one_operation_list(workload):
    cls = WORKLOADS[workload]
    assert cls(11).ops == cls(11).ops
    assert cls(11).ops != cls(12).ops


def _bindings():
    """Every object the tracer may patch, keyed by where callers find it."""
    import importlib

    found = {}
    for _, modname, qualname, _ in tracing.TARGETS:
        home = importlib.import_module(modname)
        owner, _, attr = qualname.rpartition(".")
        if owner:
            cls = getattr(home, owner)
            found[(cls, attr)] = vars(cls)[attr]
            continue
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "revpinsker" and attr in vars(module):
                found[(module, attr)] = vars(module)[attr]
    return found


def test_tracer_restores_every_original_even_after_an_error():
    import revpinsker as rp

    before = _bindings()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            changed = [key for key, obj in before.items() if getattr(*key) is not obj]
            assert len(changed) > len(tracing.TARGETS)  # feasible has several callers
            tracer.root(rp.oracle.search_sup, rp.kl_generator(), rp.default_grid()[7],
                        rp.SearchConfig(trials=50))
            raise RuntimeError
    assert all(getattr(*key) is obj for key, obj in before.items())
    recorded = {tracer.names[i] for i in tracer.name}
    assert {"op", "oracle.search_sup", "oracle.sample_batch", "bounds.feasible",
            "generators.evaluate"} <= recorded
    assert tracer.samples and tracer.absent == []


def test_restore_covers_modules_first_imported_by_install():
    script = (
        "import revpinsker, sys\n"
        "assert 'revpinsker.cli' not in sys.modules\n"
        "from perfbench.tracing import Tracer\n"
        "Tracer().installed().__enter__().restore()\n"
        "from revpinsker import bounds, cli, oracle\n"
        "assert cli.theorem1_bound is bounds.theorem1_bound is oracle.theorem1_bound\n"
        "assert cli.search_sup is oracle.search_sup and not hasattr(cli.main, '__wrapped__')\n"
    )
    out = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True,
                         text=True, timeout=60,
                         env={"PYTHONPATH": f"{ROOT / 'src'}:{ROOT}"})
    assert out.returncode == 0, out.stderr


def test_missing_targets_are_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("oracle.gone", "revpinsker.oracle", "_no_such_function", None),
        ("gone.module", "revpinsker.no_such_module", "anything", None),
        ("generators.gone", "revpinsker.generators", "Generator.no_such_method", None),
    ))
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert sorted(tracer.absent) == ["generators.gone", "gone.module", "oracle.gone"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = bench(tmp_path, "--workload", "sweep", "--seed", "1", "--seconds", "1")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

CLI = [sys.executable, "-m", "revpinsker"]


def run(*args):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=120
    )


def record_of(result):
    assert result.returncode in (0, 1)
    return json.loads(result.stdout)


def as_float(x):
    if x == "inf":
        return math.inf
    if x == "-inf":
        return -math.inf
    return float(x)


class TestBound:
    def test_thm1_kl(self):
        rec = record_of(
            run("bound", "--div", "kl", "--formula", "thm1",
                "--delta", "0.25", "--m", "0.5", "--M", "2")
        )
        assert rec["results"]["bound"] == pytest.approx(0.25 * math.log(2), rel=1e-12)

    def test_cor2_kl_is_inf(self):
        rec = record_of(
            run("bound", "--div", "kl", "--formula", "cor2", "--delta", "0.3")
        )
        assert rec["results"]["bound"] == "inf"

    def test_infeasible_exit_2(self):
        result = run("bound", "--div", "chi2", "--formula", "thm1",
                     "--delta", "0.5", "--m", "0.5", "--M", "2")
        assert result.returncode == 2

    def test_parse_error_exit_3(self):
        result = run("bound", "--div", "kl", "--formula", "thm1",
                     "--delta", "zebra", "--m", "0.5", "--M", "2")
        assert result.returncode == 3

    def test_unknown_flag_exit_3(self):
        result = run("bound", "--wat", "1")
        assert result.returncode == 3

    def test_M_inf_literal(self):
        rec = record_of(
            run("bound", "--div", "hellinger:0.5", "--formula", "cor2",
                "--delta", "0.3")
        )
        assert as_float(rec["results"]["bound"]) == pytest.approx(0.6, rel=1e-12)

    def test_matches_library_bit_for_bit(self):
        from revpinsker import ClassParams, kl_generator, theorem1_bound

        rec = record_of(
            run("bound", "--div", "kl", "--formula", "thm1",
                "--delta", "0.125", "--m", "0.25", "--M", "3")
        )
        direct = theorem1_bound(kl_generator(), ClassParams(0.125, 0.25, 3.0))
        assert rec["results"]["bound"] == direct


class TestDivergence:
    def test_kl_pair(self):
        rec = record_of(
            run("divergence", "--div", "kl",
                "--p", "0.25,0.5,0.25", "--q", "0.5,0.25,0.25")
        )
        res = rec["results"]
        assert res["divergence"] == pytest.approx(0.25 * math.log(2), rel=1e-12)
        assert res["delta"] == 0.25
        assert res["m"] == 0.5
        assert res["M"] == 2.0

    def test_identical_tv_zero(self):
        rec = record_of(
            run("divergence", "--div", "tv", "--p", "0.5,0.5", "--q", "0.5,0.5")
        )
        assert rec["results"]["divergence"] == 0.0

    def test_not_absolutely_continuous_exit_2(self):
        result = run("divergence", "--div", "kl", "--p", "0.5,0.5", "--q", "1,0")
        assert result.returncode == 2


class TestExtremal:
    def test_worked_example(self):
        rec = record_of(run("extremal", "--delta", "0.25", "--m", "0.5", "--M", "2"))
        assert rec["results"]["P"] == [0.25, 0.5, 0.25]
        assert rec["results"]["Q"] == [0.5, 0.25, 0.25]

    def test_json_roundtrip(self):
        rec = record_of(run("extremal", "--delta", "0.21", "--m", "0.3", "--M", "7"))
        from revpinsker import ClassParams, ternary_extremal

        pair = ternary_extremal(ClassParams(0.21, 0.3, 7.0))
        for emitted, direct in zip(rec["results"]["P"], pair.P.weights):
            assert emitted == pytest.approx(direct, rel=1e-15)


class TestVerify:
    def test_pass(self):
        rec = record_of(
            run("verify", "--p", "0.25,0.5,0.25", "--q", "0.5,0.25,0.25",
                "--delta", "0.25", "--m", "0.5", "--M", "2")
        )
        assert rec["status"] == "pass"
        assert abs(rec["results"]["gap.kl"]) < 1e-12

    def test_fail_on_wrong_delta(self):
        rec = record_of(
            run("verify", "--p", "0.25,0.5,0.25", "--q", "0.5,0.25,0.25",
                "--delta", "0.3", "--m", "0.5", "--M", "2")
        )
        assert rec["status"] == "fail"


class TestCompare:
    @pytest.mark.parametrize("comparator", ["simic", "sason-chi2", "sason-renyi", "verdu"])
    def test_prior_dominates_new(self, comparator):
        result = run("compare", "--grid", "default", "--comparator", comparator)
        assert result.returncode == 0
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "m,M,delta,new_bound,prior_bound,ratio"
        assert len(lines) > 1
        for line in lines[1:]:
            fields = line.split(",")
            new, prior, ratio = map(as_float, fields[3:6])
            assert prior >= new - 1e-12
            assert ratio >= 1.0 - 1e-9


class TestFuzz:
    def test_attainment_and_exit_0(self):
        result = run("fuzz", "--div", "chi2", "--delta", "0.25", "--m", "0.5",
                     "--M", "2", "--trials", "3000", "--seed", "7")
        assert result.returncode == 0
        rec = json.loads(result.stdout)
        assert rec["status"] == "pass"
        assert rec["results"]["violations"] == 0
        assert abs(rec["results"]["gap"]) <= 1e-9

    def test_byte_identical_reruns(self):
        args = ("fuzz", "--div", "kl", "--delta", "0.25", "--m", "0.5",
                "--M", "2", "--trials", "2000", "--seed", "123")
        first = run(*args)
        second = run(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0

    def test_infeasible_exit_2(self):
        result = run("fuzz", "--div", "kl", "--delta", "0.9", "--m", "0.5",
                     "--M", "2", "--trials", "10", "--seed", "0")
        assert result.returncode == 2

    def test_support_size_below_three_exit_2(self):
        result = run("fuzz", "--div", "kl", "--delta", "0.25", "--m", "0.5",
                     "--M", "2", "--trials", "10", "--seed", "0", "--n", "2")
        assert result.returncode == 2
        assert result.stdout == ""


class TestFormats:
    def test_csv_format_same_values(self):
        args = ("bound", "--div", "kl", "--formula", "thm1",
                "--delta", "0.25", "--m", "0.5", "--M", "2")
        js = json.loads(run(*args).stdout)
        csv_out = run(*args, "--format", "csv").stdout
        row = [l for l in csv_out.splitlines() if l.startswith("results.bound")]
        assert len(row) == 1
        csv_value = float(row[0].split(",")[1])
        assert csv_value == pytest.approx(js["results"]["bound"], rel=1e-11)


class TestGoldenStdout:
    """Exact stdout bytes, captured from revpinsker 0.1.0 into tests/golden."""

    GOLDEN = Path(__file__).resolve().parent / "golden"
    BOUND = ("bound", "--div", "kl", "--formula", "cor2", "--delta", "0.3",
             "--m=-inf", "--M", "inf")
    EXTREMAL = ("extremal", "--delta", "0.2", "--m", "0.25", "--M", "5")

    @pytest.mark.parametrize("args, golden", [
        (BOUND, "bound_cor2.json"),
        (BOUND + ("--format", "csv"), "bound_cor2.csv"),
        (EXTREMAL, "extremal.json"),
        (EXTREMAL + ("--format", "csv"), "extremal.csv"),
        (("compare", "--comparator", "sason-chi2"), "compare_sason_chi2.csv"),
    ])
    def test_stdout_bytes(self, args, golden, capsys):
        from revpinsker.cli import main

        assert main(list(args)) == 0
        assert capsys.readouterr().out == (self.GOLDEN / golden).read_text()

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


def main_record(capsys, *args):
    """Run the CLI in process; return its exit code and its JSON record."""
    from revpinsker.cli import main

    code = main(list(args))
    return code, json.loads(capsys.readouterr().out)


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

    def test_negative_delta_as_own_argument_exit_2(self, capsys):
        from revpinsker.cli import main

        # a domain error (2), not a parse error (3): -1e-3 is read as a value
        assert main(["bound", "--div", "kl", "--formula", "thm1",
                     "--delta", "-1e-3", "--m", "0.5", "--M", "2"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("formula", ["thm1", "cor1"])
    def test_overflowing_f_of_M_is_inf(self, formula, capsys):
        # (1e300)**3 overflows; the scalar path gives inf as the array path does
        code, rec = main_record(capsys, "bound", "--div", "hellinger:3",
                                "--formula", formula, "--delta", "0.1",
                                "--m", "0.5", "--M", "1e300")
        assert code == 0
        assert rec["results"]["bound"] == "inf"

    def test_cor1_at_infinite_M_exits_2_with_empty_stdout(self, capsys):
        from revpinsker.cli import main

        assert main(["bound", "--div", "kl", "--formula", "cor1",
                     "--m", "0.5", "--M", "inf"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

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

    @pytest.mark.parametrize("weights", ["0.5,,0.5", "nan,1"], ids=["empty-field", "nan"])
    def test_weight_that_does_not_parse_exits_3(self, weights, capsys):
        # every field follows the number rule of --delta, --m and --M
        from revpinsker.cli import main

        assert main(["divergence", "--div", "kl", "--p", weights, "--q", "0.5,0.5"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("parse error: ")


class TestExtremal:
    def test_worked_example(self):
        rec = record_of(run("extremal", "--delta", "0.25", "--m", "0.5", "--M", "2"))
        assert rec["results"]["P"] == [0.25, 0.5, 0.25]
        assert rec["results"]["Q"] == [0.5, 0.25, 0.25]

    def test_q_weight_below_normal_range_exit_2(self, capsys):
        # t (1 - q) = 1e-600 would underflow to 0, leaving P mass where Q has none
        from revpinsker.cli import main

        code = main(["extremal", "--delta", "1e-300", "--m", "1e-300", "--M", "1e300"])
        assert code == 2
        assert capsys.readouterr().out == ""

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

    def test_extremal_pair_at_huge_M_passes(self, capsys):
        # the printed pair's measured M is off by 1.5e-8, 1.5e-16 relative
        cls = ("--delta", "0.24999999875", "--m", "0.5", "--M", "1e8")
        _, rec = main_record(capsys, "extremal", *cls)
        P, Q = (",".join(map(repr, rec["results"][k])) for k in ("P", "Q"))
        code, rec = main_record(capsys, "verify", "--p", P, "--q", Q, *cls)
        assert code == 0
        assert rec["status"] == "pass"
        assert rec["results"]["deviation_M"] <= 1e-15

    def test_negative_tol_exits_2_with_empty_stdout(self, capsys):
        from revpinsker.cli import main

        code = main(["verify", "--p", "0.25,0.5,0.25", "--q", "0.5,0.25,0.25",
                     "--delta", "0.25", "--m", "0.5", "--M", "2", "--tol", "-1"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: tol must be >= 0")


class TestCompare:
    @pytest.mark.parametrize("comparator", ["simic", "sason-chi2", "sason-renyi", "verdu"])
    def test_prior_dominates_new(self, comparator):
        result = run("compare", "--comparator", comparator)
        assert result.returncode == 0
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "m,M,delta,new_bound,prior_bound,ratio"
        assert len(lines) > 1
        for line in lines[1:]:
            fields = line.split(",")
            new, prior, ratio = map(as_float, fields[3:6])
            assert prior >= new - 1e-12
            assert ratio >= 1.0 - 1e-9

    def test_unknown_grid_exit_3(self, capsys):
        from revpinsker.cli import main

        # the one-value --grid flag is gone: every grid value is unknown
        assert main(["compare", "--grid", "default", "--comparator", "simic"]) == 3
        assert capsys.readouterr().out == ""


class TestErrorStdout:
    """A domain error leaves stdout empty: nothing is printed before every
    value is computed."""

    @pytest.mark.parametrize("args", [
        ["bound", "--div", "chi2", "--formula", "thm1", "--delta", "0.5", "--m", "0.5",
         "--M", "2"],
        ["divergence", "--div", "kl", "--p", "0.5,0.5", "--q", "1,0"],
        ["extremal", "--delta", "0.5", "--m", "0.5", "--M", "2"],
        ["verify", "--p", "0.5,0.5", "--q", "0.5,0.5", "--delta", "0.5", "--m", "0.5",
         "--M", "2"],
        ["compare", "--comparator", "sason-renyi", "--alpha", "1"],
        ["fuzz", "--div", "kl", "--delta", "0.5", "--m", "0.5", "--M", "2"],
    ], ids=lambda args: args[0])
    def test_exit_2_with_empty_stdout(self, args, capsys):
        from revpinsker.cli import main

        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert any(line.startswith("error: ") for line in err.splitlines())


class TestParseErrors:
    """Arguments argparse accepts but a command cannot use exit 3, with
    empty stdout."""

    @pytest.mark.parametrize("args", [
        ["bound", "--div", "kl", "--formula", "thm1", "--m", "0.5", "--M", "2"],
        ["bound", "--div", "kl", "--formula", "cor1", "--M", "2"],
        ["bound", "--div", "kl", "--formula", "cor2"],
        ["bound", "--div", "nosuch", "--formula", "cor2", "--delta", "0.3"],
    ], ids=["thm1-without-delta", "cor1-without-m", "cor2-without-delta", "unknown-div"])
    def test_exit_3_with_empty_stdout(self, args, capsys):
        from revpinsker.cli import main

        assert main(args) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "parse error:" in err

    def test_unknown_comparator_is_a_parse_error(self):
        from revpinsker.cli import ParseError, comparison_rows

        with pytest.raises(ParseError, match="unknown comparator 'nosuch'"):
            next(comparison_rows("nosuch", 2.0))


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

    def test_large_bound_is_not_violated_by_rounding(self, capsys):
        # the best value beats the bound 4999999.5 by 3.7e-9, 7.5e-16 relative
        code, rec = main_record(capsys, "fuzz", "--div", "chi2", "--delta",
                                "0.49999997499999876", "--m", "0.5", "--M", "1e7",
                                "--trials", "2000", "--seed", "1")
        assert code == 0
        assert rec["results"]["violations"] == 0

    @pytest.mark.parametrize("flag", [("--steps", "4"), ("--step-scale", "0.9"),
                                      ("--tol", "1e-10"), ("--no-seed-extremal",)])
    def test_removed_settings_exit_3(self, flag):
        from revpinsker.cli import main

        assert main(["fuzz", "--div", "kl", "--delta", "0.25", "--m", "0.5",
                     "--M", "2", *flag]) == 3

    def test_support_size_below_three_exit_2(self):
        result = run("fuzz", "--div", "kl", "--delta", "0.25", "--m", "0.5",
                     "--M", "2", "--trials", "10", "--seed", "0", "--n", "2")
        assert result.returncode == 2
        assert result.stdout == ""

    def test_negative_seed_exit_2(self):
        # exit 1 is kept for a bound violation
        result = run("fuzz", "--div", "kl", "--delta", "0.1", "--m", "0.25",
                     "--M", "2", "--seed", "-1")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: seed must be >= 0\n"


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


class TestRenyi:
    """renyi:alpha in every subcommand prints the library's Hellinger-alpha
    result passed through renyi_from_hellinger, bit for bit, where that is
    finite; the class bounds (``bound`` thm1 and cor1, ``verify``, ``fuzz``)
    print ``renyi_bound`` itself, and a pair whose Hellinger value overflows
    prints the transform's log-domain sum over the pair."""

    DELTA, M_LOW, M_HIGH = 0.3985, 0.396, 79.856
    CLASS = ("--delta", "0.3985", "--m", "0.396", "--M", "79.856")
    P, Q = "0.25,0.5,0.25", "0.5,0.25,0.25"

    # at alpha = 0.25 this class is one where a direct M**alpha form of the
    # Renyi bound differs from the composed value in the last digits
    @pytest.mark.parametrize("alpha", [2.0, 0.5, 0.25])
    def test_bound(self, alpha, capsys):
        from revpinsker import (ClassParams, corollary1_bound, hellinger_generator,
                                renyi_bound, renyi_from_hellinger, theorem1_bound,
                                vajda_bound)

        h = hellinger_generator(alpha)
        params = ClassParams(self.DELTA, self.M_LOW, self.M_HIGH)
        hellinger = {
            "thm1": theorem1_bound(h, params),
            "cor1": corollary1_bound(h, self.M_LOW, self.M_HIGH),
            "cor2": vajda_bound(h, self.DELTA),
        }
        for formula, value in hellinger.items():
            code, rec = main_record(capsys, "bound", "--div", f"renyi:{alpha:g}",
                                    "--formula", formula, *self.CLASS)
            assert code == 0
            assert as_float(rec["results"]["bound"]) == renyi_from_hellinger(alpha, value)
            if formula == "thm1":
                assert as_float(rec["results"]["bound"]) == renyi_bound(alpha, params)

    def test_bound_is_renyi_bound_past_hellinger_overflow(self, capsys):
        # (1e300)**3 overflows: the Hellinger bound is inf, the Renyi bound is not
        from revpinsker import ClassParams, renyi_bound, tv_cap

        m, M = 0.5, 1e300
        for formula, delta in (("thm1", 0.1), ("cor1", tv_cap(m, M))):
            code, rec = main_record(capsys, "bound", "--div", "renyi:3", "--formula", formula,
                                    "--delta", repr(delta), "--m", repr(m), "--M", repr(M))
            assert code == 0
            expected = renyi_bound(3, ClassParams(delta, m, M))
            assert math.isfinite(expected)
            assert rec["results"]["bound"] == expected

    @pytest.mark.parametrize("m, M", [("1", "1e300"), ("0.5", "1"), ("1", "1")])
    def test_cor1_at_zero_cap_is_zero(self, m, M, capsys):
        code, rec = main_record(capsys, "bound", "--div", "renyi:3", "--formula", "cor1",
                                "--m", m, "--M", M)
        assert code == 0
        assert rec["results"]["bound"] == 0.0

    @pytest.mark.parametrize("args, key", [
        (("divergence", "--div", "renyi:0.5", "--p", "0.5,0.5", "--q", "0.5,0.5"),
         "divergence"),
        (("bound", "--div", "renyi:0.5", "--formula", "thm1",
          "--delta", "0", "--m", "1", "--M", "1"), "bound"),
    ])
    def test_zero_prints_positive_zero(self, args, key, capsys):
        # log(1) / (alpha - 1) is -0.0 for alpha < 1; the record says 0.0
        from revpinsker.cli import main

        assert main(list(args)) == 0
        out = capsys.readouterr().out
        assert f'"{key}": 0.0' in out
        value = json.loads(out)["results"][key]
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    @pytest.mark.parametrize("alpha", [2.0, 0.5])
    def test_divergence(self, alpha, capsys):
        from revpinsker import (f_divergence, hellinger_generator,
                                renyi_from_hellinger, validate_distribution)

        h = f_divergence(hellinger_generator(alpha),
                         validate_distribution([0.25, 0.5, 0.25]),
                         validate_distribution([0.5, 0.25, 0.25]))
        code, rec = main_record(capsys, "divergence", "--div", f"renyi:{alpha:g}",
                                "--p", self.P, "--q", self.Q)
        assert code == 0
        assert rec["results"]["divergence"] == renyi_from_hellinger(alpha, h)

    @pytest.mark.parametrize("alpha", [2.0, 0.5])
    def test_verify_reports_renyi_and_hellinger_apart(self, alpha, capsys):
        from revpinsker import (ClassParams, f_divergence, hellinger_generator,
                                renyi_from_hellinger, theorem1_bound,
                                validate_distribution)

        gen = hellinger_generator(alpha)
        h = f_divergence(gen, validate_distribution([0.25, 0.5, 0.25]),
                         validate_distribution([0.5, 0.25, 0.25]))
        h_bound = theorem1_bound(gen, ClassParams(0.25, 0.5, 2.0))
        renyi, hell = f"renyi:{alpha:g}", f"hellinger:{alpha:g}"
        code, rec = main_record(capsys, "verify", "--div", f"{renyi},{hell}",
                                "--p", self.P, "--q", self.Q,
                                "--delta", "0.25", "--m", "0.5", "--M", "2")
        assert code == 0
        res = rec["results"]
        value = renyi_from_hellinger(alpha, h)
        bound = renyi_from_hellinger(alpha, h_bound)
        assert res[f"divergence.{renyi}"] == value
        assert res[f"bound.{renyi}"] == bound
        assert res[f"gap.{renyi}"] == bound - value
        assert res[f"divergence.{hell}"] == h
        assert res[f"bound.{hell}"] == h_bound
        assert res[f"gap.{hell}"] == h_bound - h

    # the extremal pair of (0.1, 0.5, 1e300) at alpha = 3: sum p**3 / q**2
    # and the Hellinger bound overflow, and both Renyi values are
    # 689.62423535171668 to 17 digits (50-digit mpmath)
    OVERFLOW_PAIR = ("--p", "0.1,0.1,0.8", "--q", "0.2,1e-301,0.8")
    OVERFLOW_CLASS = ("--delta", "0.1", "--m", "0.5", "--M", "1e300")
    OVERFLOW_RENYI = 689.62423535171668

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_verify_finite_past_hellinger_overflow(self, capsys):
        code, rec = main_record(capsys, "verify", "--div", "renyi:3",
                                *self.OVERFLOW_PAIR, *self.OVERFLOW_CLASS)
        assert code == 0 and rec["status"] == "pass"
        res = rec["results"]
        value, bound = res["divergence.renyi:3"], res["bound.renyi:3"]
        assert value == pytest.approx(self.OVERFLOW_RENYI, rel=0, abs=1e-12)
        assert bound == pytest.approx(self.OVERFLOW_RENYI, rel=0, abs=1e-12)
        assert res["gap.renyi:3"] == bound - value

    def test_verify_past_hellinger_overflow_warns_nothing(self):
        # the Hellinger power overflows to the inf that the Renyi rule reads;
        # the process prints the same record as before, and no warning
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", *CLI[1:], "verify",
             "--div", "renyi:3", *self.OVERFLOW_PAIR, *self.OVERFLOW_CLASS],
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0 and result.stderr == ""
        assert result.stdout == (
            '{"command": "verify", "inputs": {"p": "0.1,0.1,0.8", "q": "0.2,1e-301,0.8", '
            '"delta": 0.1, "m": 0.5, "M": 1e+300, "tol": 1e-09}, "results": '
            '{"measured_delta": 0.1, "measured_m": 0.5, "measured_M": 1e+300, '
            '"deviation_delta": 0.0, "deviation_m": 0.0, "deviation_M": 0.0, '
            '"divergence.renyi:3": 689.6242353517166, "bound.renyi:3": 689.6242353517168, '
            '"gap.renyi:3": 2.2737367544323206e-13}, "status": "pass"}\n')

    @pytest.mark.parametrize("args, stdout", [
        (("--div", "chi2", "--p", "0.1,0.1,0.8", "--q", "0.2,1e-301,0.8"),
         '{"command": "divergence", "inputs": {"div": "chi2", "p": "0.1,0.1,0.8", '
         '"q": "0.2,1e-301,0.8"}, "results": {"divergence": "inf", "delta": 0.1, '
         '"m": 0.5, "M": 1e+300}, "status": "n/a"}\n'),
        (("--div", "kl", "--p", "0.1,0.1,0.8", "--q", "0.2,1e-310,0.8"),
         '{"command": "divergence", "inputs": {"div": "kl", "p": "0.1,0.1,0.8", '
         '"q": "0.2,1e-310,0.8"}, "results": {"divergence": "inf", "delta": 0.1, '
         '"m": 0.5, "M": "inf"}, "status": "n/a"}\n'),
    ], ids=["chi2-square", "kl-ratio"])
    def test_divergence_past_overflow_warns_nothing(self, args, stdout):
        # chi2's t * t and the ratio 0.1 / 1e-310 overflow to the inf that
        # is printed; the CLI keeps numpy's overflow warning off stderr
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", *CLI[1:], "divergence", *args],
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0 and result.stderr == ""
        assert result.stdout == stdout

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_finite_past_hellinger_overflow(self, capsys):
        code, rec = main_record(capsys, "divergence", "--div", "renyi:3", *self.OVERFLOW_PAIR)
        assert code == 0
        value = rec["results"]["divergence"]
        assert value == pytest.approx(self.OVERFLOW_RENYI, rel=0, abs=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fuzz_finite_past_hellinger_overflow(self, capsys):
        code, rec = main_record(capsys, "fuzz", "--div", "renyi:3", *self.OVERFLOW_CLASS,
                                "--trials", "200")
        assert code == 0 and rec["status"] == "pass"
        res = rec["results"]
        for key in ("best_value", "bound"):
            assert res[key] == pytest.approx(self.OVERFLOW_RENYI, rel=0, abs=1e-12)
        assert res["gap"] == res["bound"] - res["best_value"]

    @pytest.mark.parametrize("alpha", [2.0, 0.5])
    def test_fuzz(self, alpha, capsys):
        from revpinsker import (ClassParams, SearchConfig, hellinger_generator,
                                renyi_from_hellinger, search_sup)

        outcome = search_sup(hellinger_generator(alpha),
                             ClassParams(self.DELTA, self.M_LOW, self.M_HIGH),
                             SearchConfig(trials=500, seed=3))
        code, rec = main_record(capsys, "fuzz", "--div", f"renyi:{alpha:g}",
                                *self.CLASS, "--trials", "500", "--seed", "3")
        assert code == 0
        res = rec["results"]
        best = renyi_from_hellinger(alpha, outcome.best_value)
        bound = renyi_from_hellinger(alpha, outcome.bound)
        assert (res["best_value"], res["bound"]) == (best, bound)
        assert res["gap"] == bound - best
        assert res["violations"] == outcome.violations == 0


class TestGoldenStdout:
    """Exact stdout bytes, captured from revpinsker 0.1.0 into tests/golden;
    the fuzz files were captured before the search's settings became
    constants, and pin that seeded output did not change.  The verify files
    were captured from 0.11.0, whose ``verify`` listed its measured fields
    by hand."""

    GOLDEN = Path(__file__).resolve().parent / "golden"
    BOUND = ("bound", "--div", "kl", "--formula", "cor2", "--delta", "0.3",
             "--m=-inf", "--M", "inf")
    EXTREMAL = ("extremal", "--delta", "0.2", "--m", "0.25", "--M", "5")
    FUZZ = ("fuzz", "--div", "kl", "--delta", "0.25", "--m", "0.5", "--M", "2",
            "--trials", "2000", "--seed", "31337")
    CLASS = ("--delta", "0.2", "--m", "0.25", "--M", "5")
    VERIFY = ("verify", "--p", "0.1,0.3,0.6", "--q", "0.2,0.4,0.4", "--delta", "0.2",
              "--m", "0.5", "--M", "1.5", "--div", "kl,tv,chi2,renyi:2")

    @pytest.mark.parametrize("args, golden", [
        (BOUND, "bound_cor2.json"),
        (BOUND + ("--format", "csv"), "bound_cor2.csv"),
        (EXTREMAL, "extremal.json"),
        (EXTREMAL + ("--format", "csv"), "extremal.csv"),
        (("compare", "--comparator", "sason-chi2"), "compare_sason_chi2.csv"),
        (FUZZ, "fuzz_readme.json"),
        (FUZZ + ("--format", "csv"), "fuzz_readme.csv"),
        (("fuzz", "--div", "renyi:2", *CLASS, "--trials", "1000", "--seed", "7"),
         "fuzz_renyi2.json"),
        # crosses the sampler's 20 000-row chunk boundary
        (("fuzz", "--div", "chi2", *CLASS, "--trials", "25000", "--n", "12", "--seed", "3"),
         "fuzz_chunked.json"),
        (VERIFY, "verify.json"),
        (VERIFY + ("--format", "csv"), "verify.csv"),
    ])
    def test_stdout_bytes(self, args, golden, capsys):
        from revpinsker.cli import main

        assert main(list(args)) == 0
        assert capsys.readouterr().out == (self.GOLDEN / golden).read_text()

    def test_negative_value_as_own_argument(self, capsys):
        from revpinsker.cli import main

        # "--m -inf" reads as "--m=-inf"
        args = ["bound", "--div", "kl", "--formula", "cor2", "--delta", "0.3",
                "--m", "-inf", "--M", "inf"]
        assert main(args) == 0
        assert capsys.readouterr().out == (self.GOLDEN / "bound_cor2.json").read_text()

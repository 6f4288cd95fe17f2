"""Subcommand wiring, determinism, exit codes, and the config echo."""

import json
import os
import warnings

import pytest

from paleyzyg import (Ensemble, FrequencySet, best_ratios, extremals, geometric_lacunary,
                      torus)
from paleyzyg.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestPaleyCheck:
    def test_inverse_sqrt_sup(self, capsys):
        code, out = run_cli(capsys, "paley-check", "--k", "10", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["provenance"]["sup"] == pytest.approx(1.5)
        assert data["provenance"]["verdict"] == "bounded-up-to-horizon"
        # first block: 1 + 1/2 at N = 1
        assert data["rows"][0] == [0, 1, 1.5]

    def test_constant_flagged(self, capsys):
        code, out = run_cli(capsys, "paley-check", "--form", "constant", "--k", "12",
                            "--horizon", str(2 ** 13), "--format", "json")
        assert code == 0
        assert json.loads(out)["provenance"]["verdict"] == "diverging"

    def test_csv_columns_frozen(self, capsys):
        code, out = run_cli(capsys, "paley-check", "--k", "4", "--format", "csv")
        assert out.splitlines()[0] == "k,N,block_sum"


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        argv = ("lambda-p", "--p", "4,8", "--trials", "6", "--seed", "7",
                "--format", "json")
        _, a = run_cli(capsys, *argv)
        _, b = run_cli(capsys, *argv)
        assert a == b

    def test_config_echo_reproduces(self, capsys):
        argv = ("bonami", "--count", "6", "--k", "2", "--p", "4,8,16",
                "--trials", "4", "--seed", "3", "--format", "json")
        _, out = run_cli(capsys, *argv)
        data = json.loads(out)
        cfg = data["config"]
        argv2 = ("bonami", "--count", str(cfg["count"]), "--k", str(cfg["k"]),
                 "--p", cfg["p"], "--trials", str(cfg["trials"]),
                 "--seed", str(cfg["seed"]), "--format", "json")
        _, out2 = run_cli(capsys, *argv2)
        assert json.loads(out2)["rows"] == data["rows"]


def argv_from_config(subcommand, config):
    argv = [subcommand]
    for key, value in config.items():
        if value is None or value is False:
            continue
        argv.append("--" + key.replace("_", "-"))
        if value is not True:
            argv.append(str(value))
    return argv + ["--format", "json"]


@pytest.mark.parametrize("argv", [
    ("paley-check", "--k", "6", "--two-sided"),
    ("zygmund-ratio", "--vp", "4", "--corpus", "2", "--k-hi", "6"),
    ("sharpness", "--n-min", "4", "--n-max", "5", "--r", "0.25,0.5"),
    ("ingham", "--m-min", "8", "--m-max", "9", "--sum-limit", "1000"),
    ("lambda-p", "--count", "5", "--p", "4,8", "--trials", "3"),
    ("bonami", "--count", "5", "--k", "2", "--p", "4,8,16", "--trials", "3", "--cap", "256"),
    ("sidon-lb", "--count", "4", "--trials", "3", "--ensemble", "flat,phase-ascent"),
    ("rline-paley", "--corpus", "2", "--k-max", "3"),
    ("rline-zygmund", "--corpus", "2", "--measure", "atoms:3,1;40,0.5", "--gap", "1"),
], ids=lambda argv: argv[0])
def test_config_echo_is_the_rerun(capsys, argv):
    """Every flag is echoed: rebuilding argv from the echo gives the same report."""
    _, out = run_cli(capsys, *argv, "--format", "json")
    data = json.loads(out)
    _, out2 = run_cli(capsys, *argv_from_config(argv[0], data["config"]))
    again = json.loads(out2)
    assert again["config"] == data["config"]
    assert again["rows"] == data["rows"]
    assert again["provenance"] == data["provenance"]


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert main(["definitely-not-a-command"]) == 1

    def test_bad_flag_value(self, capsys):
        assert main(["lambda-p", "--p", "3"]) == 1  # odd p rejected

    def test_ingham_gamma_outside_window(self, capsys):
        assert main(["ingham", "--gamma", "1.5", "--m-min", "8", "--m-max", "9"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "gamma must lie in (0, 1)" in captured.err

    @pytest.mark.parametrize("argv", [("sidon-lb", "--p", "4"),
                                      ("zygmund-ratio", "--horizon", "8")])
    def test_removed_flags_rejected(self, capsys, argv):
        assert main(list(argv)) == 1

    def test_over_budget_exits_1_with_size(self, capsys, monkeypatch):
        monkeypatch.setattr(torus, "_MAX_GRID_POINTS", 1 << 10)
        assert main(["ingham", "--m-min", "8", "--m-max", "9"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "M = 256 needs 8192 points, over the budget of 1024" in captured.err

    @pytest.mark.parametrize("argv, message", [
        (("lambda-p", "--trials", "1000"), "1000 members of 8 terms needs 8000 points"),
        (("bonami", "--k", "3", "--count", "20", "--cap", "100000"),
         "signed 3-fold sums of 20 terms needs 9120 points"),
        (("bonami", "--trials", "100"), "100 members of 112 terms needs 11200 points"),
        (("rline-paley", "--corpus", "3"), "a corpus of 3 signals of 2048 samples needs 6144 points"),
        (("zygmund-ratio", "--corpus", "200"),
         "a corpus of 200 polynomials on blocks 1..12 needs 7200 points")])
    def test_count_flags_checked_against_the_budget(self, capsys, monkeypatch, argv, message):
        # each count is refused before anything of its size is drawn or
        # built; a budget of 4096 points keeps a missing check quick to fail
        monkeypatch.setattr(torus, "_MAX_GRID_POINTS", 1 << 12)
        assert main(list(argv)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {message}, over the budget of 4096" in captured.err

    def test_out_of_memory_exits_1_with_message(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(extremals, "vallee_poussin", exhausted)
        assert main(["zygmund-ratio", "--vp", "22"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: out of memory in zygmund-ratio" in captured.err

    def test_ingham_weight_sum_below_2_rejected(self, capsys):
        assert main(["ingham", "--m-min", "8", "--m-max", "9", "--sum-limit", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "M must be >= 2" in captured.err

    @pytest.mark.parametrize("cmd", ("rline-paley", "rline-zygmund"))
    def test_gap_with_inverse_abs_rejected(self, capsys, cmd):
        assert main([cmd, "--corpus", "1", "--gap", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--gap applies to atoms only" in captured.err

    @pytest.mark.parametrize("argv, message", [
        (("rline-zygmund", "--corpus", "-1"), "--corpus must be >= 1, got -1"),
        (("rline-paley", "--corpus", "0"), "--corpus must be >= 1, got 0")])
    def test_empty_corpus_rejected(self, capsys, argv, message):
        assert main(list(argv)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {message}" in captured.err

    @pytest.mark.parametrize("argv, message", [
        (("sharpness", "--n-min", "5", "--n-max", "5"),
         "a slope needs at least 2 distinct x values, got [5]"),
        (("sharpness", "--n-min", "6", "--n-max", "5"), "--n-max must be >= --n-min, got 6..5"),
        (("bonami", "--count", "5", "--p", "4,4,4", "--cap", "256"),
         "need at least 3 distinct p values for a slope fit, got (4, 4, 4)"),
        (("zygmund-ratio",), "nothing to read: give --vp or --corpus >= 1"),
        (("zygmund-ratio", "--vp", "3", "--corpus", "-3"), "--corpus must be >= 0, got -3"),
        (("ingham", "--m-min", "12", "--m-max", "10"), "--m-max must be >= --m-min, got 12..10"),
        (("ingham", "--m-min", "10", "--m-max", "10"),
         "need at least 2 values of k to compare tails, got 10..10"),
        (("rline-paley", "--k-min", "-1100", "--k-max", "2", "--corpus", "1"),
         "density blocks must lie in -1022..1022, got -1100..2"),
        (("rline-paley", "--measure", "atoms:3,1", "--k-min", "1100", "--k-max", "1200",
          "--corpus", "1"), "block 1100 lies outside the validity band")])
    def test_degenerate_or_empty_request_rejected(self, capsys, argv, message):
        # one N, no N, one distinct p, no polynomial, no M or one M: nothing to fit or report
        assert main(list(argv)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {message}" in captured.err

    @pytest.mark.parametrize("argv", [
        ("lambda-p", "--seed", "-1"),
        ("bonami", "--seed", "-1"),
        ("sidon-lb", "--seed", "-1"),
        ("zygmund-ratio", "--corpus", "1", "--seed", "-1"),
        ("rline-paley", "--corpus", "1", "--seed", "-1"),
        ("rline-zygmund", "--corpus", "1", "--seed", "-1")])
    def test_negative_seed_named(self, capsys, argv):
        # one check for the ensembles and both corpora, before any draw
        assert main(list(argv)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed must be a non-negative integer, got -1\n"

    def test_corpus_block_past_int64_named(self, capsys):
        assert main(["zygmund-ratio", "--corpus", "1", "--k-hi", "63"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: block 63 reaches frequency 18446744073709551614, "
                                "past int64: --k-hi must be <= 62\n")

    @pytest.mark.parametrize("argv, message", [
        (("paley-check", "--form", "bogus"), "unknown multiplier form 'bogus'"),
        (("sidon-lb", "--form", "bogus"), "unknown multiplier form 'bogus'"),
        (("rline-paley", "--measure", "bogus", "--corpus", "1"), "unknown measure 'bogus'")])
    def test_unknown_form_or_measure_named(self, capsys, argv, message):
        assert main(list(argv)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {message}" in captured.err

    @pytest.mark.parametrize("argv, message", [
        (("rline-zygmund", "--measure", "atoms:3,1", "--gap", "nan", "--corpus", "1"),
         "gap must be finite and >= 0"),
        (("rline-paley", "--measure", "atoms:3,nan", "--corpus", "1"), "is not finite"),
        (("sharpness", "--n-min", "2", "--n-max", "3", "--r", "nan"),
         "Orlicz exponent must be finite and >= 0")])
    def test_nan_values_rejected(self, capsys, argv, message):
        assert main(list(argv)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("argv, message", [
        (("paley-check", "--form", "indicator:99999999999999999999"),
         "frequencies do not fit in int64: 99999999999999999999"),
        (("sidon-lb", "--form", "indicator:99999999999999999999"),
         "frequencies do not fit in int64: 99999999999999999999"),
        (("paley-check", "--form", "indicator:1,2.5"), "invalid literal for int()"),
        (("paley-check", "--form", "indicator:"), "--form takes a comma list with no empty item"),
        (("lambda-p", "--p", "4,,8"), "--p takes a comma list with no empty item, got '4,,8'"),
        (("lambda-p", "--p", ""), "--p takes a comma list with no empty item, got ''"),
        (("bonami", "--p", "4,8,16,"), "--p takes a comma list with no empty item"),
        (("bonami", "--ensemble", "flat,,phase-ascent"), "--ensemble takes a comma list"),
        (("sidon-lb", "--ensemble", ","), "--ensemble takes a comma list"),
        (("lambda-p", "--ensemble", "flat,bogus"), "unknown ensemble kind 'bogus'"),
        (("sharpness", "--n-min", "4", "--n-max", "5", "--r", "0.25,,0.5"),
         "--r takes a comma list with no empty item"),
        (("rline-paley", "--measure", "atoms:1", "--corpus", "1"),
         "--measure atom '1' is not an xi,w pair"),
        (("rline-paley", "--measure", "atoms:3,1;4,1,2", "--corpus", "1"),
         "--measure atom '4,1,2' is not an xi,w pair"),
        (("rline-zygmund", "--measure", "atoms:3,1;", "--gap", "1", "--corpus", "1"),
         "--measure takes a comma list with no empty item"),
        (("zygmund-ratio", "--corpus", "1", "--k-lo", "5", "--k-hi", "3"),
         "empty block range 5..3"),
        (("rline-paley", "--measure", "atoms:3,1", "--k-min", "5", "--k-max", "3",
          "--corpus", "1"), "empty block range 5..3"),
        (("rline-zygmund", "--measure", "atoms:3,1", "--gap", "1", "--k-min", "5",
          "--k-max", "3", "--corpus", "1"), "empty block range 5..3"),
        (("rline-paley", "--k-min", "5", "--k-max", "3", "--corpus", "1"),
         "empty block range 5..3: --k-max must be >= --k-min"),
        (("rline-zygmund", "--k-min", "5", "--k-max", "3", "--corpus", "1"),
         "empty block range 5..3: --k-max must be >= --k-min"),
        (("paley-check", "--form", "indicator:1,2.5"),
         "--form: invalid literal for int() with base 10: '2.5'"),
        (("lambda-p", "--p", "4,x"), "--p: invalid literal for int() with base 10: 'x'"),
        (("sharpness", "--r", "0.5,abc"), "--r: could not convert string to float: 'abc'"),
        (("rline-paley", "--measure", "atoms:3,w", "--corpus", "1"),
         "--measure: could not convert string to float: 'w'")])
    def test_malformed_lists_and_empty_ranges_exit_1(self, capsys, argv, message):
        assert main(list(argv)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert message in captured.err

    def test_ingham_verdict_success(self, capsys):
        code, out = run_cli(capsys, "ingham", "--m-min", "8", "--m-max", "11",
                            "--sum-limit", "10000", "--format", "json")
        assert code == 0
        assert json.loads(out)["provenance"]["tails_strictly_decreasing"] is True


class TestReports:
    def test_rline_zygmund_atoms_follow_k_range(self, capsys):
        argv = ("rline-zygmund", "--measure", "atoms:3,1;10,0.5", "--gap", "1",
                "--corpus", "2", "--k-min", "0", "--format", "json")
        _, narrow = run_cli(capsys, *argv, "--k-max", "1")
        _, wide = run_cli(capsys, *argv, "--k-max", "3")
        lhs_narrow = [row[1] for row in json.loads(narrow)["rows"]]
        lhs_wide = [row[1] for row in json.loads(wide)["rows"]]
        # blocks 0..1 hold the atom at 3 only; blocks 0..3 add the one at 10
        assert all(a < b for a, b in zip(lhs_narrow, lhs_wide))

    def test_rline_paley_blocks_below_the_float_range(self, capsys):
        # the square function skips blocks whose window holds no dual-grid point
        argv = ("rline-paley", "--measure", "atoms:0.5,1;3,2", "--k-max", "2",
                "--corpus", "1", "--format", "json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, low = run_cli(capsys, *argv, "--k-min", "-1100")
        _, high = run_cli(capsys, *argv, "--k-min", "-10")
        assert json.loads(low)["rows"] == json.loads(high)["rows"]
        assert json.loads(low)["rows"][0][2] == 1.218465799045457

    def test_rline_paley_atoms_follow_k_range(self, capsys):
        argv = ("rline-paley", "--measure", "atoms:3,1;10,0.5", "--gap", "1",
                "--corpus", "2", "--k-min", "0", "--format", "csv")
        _, narrow = run_cli(capsys, *argv, "--k-max", "1")
        _, wide = run_cli(capsys, *argv, "--k-max", "3")
        assert narrow != wide

    def test_sharpness_report(self, capsys):
        code, out = run_cli(capsys, "sharpness", "--n-min", "4", "--n-max", "6",
                            "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["columns"][:2] == ["N", "L_N"]
        assert len(data["rows"]) == 3
        assert "lhs_slope" in data["provenance"]

    def test_rline_paley(self, capsys):
        code, out = run_cli(capsys, "rline-paley", "--corpus", "3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["provenance"]["paley_sup"] == pytest.approx(1.3862943611, abs=1e-8)
        assert data["provenance"]["max_ratio"] > 0

    def test_rline_zygmund(self, capsys):
        code, out = run_cli(capsys, "rline-zygmund", "--corpus", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["provenance"]["max_ratio"] > 0

    def test_lambda_p_reads_an_ensemble_list(self, capsys):
        code, out = run_cli(capsys, "lambda-p", "--count", "5", "--p", "4,8,16", "--trials", "3",
                            "--ensemble", "flat,phase-ascent,random-signs", "--format", "json")
        assert code == 0
        fs = FrequencySet(1, frozenset(geometric_lacunary(2, 5).terms))
        enss = [Ensemble(kind, seed=101, trials=3)
                for kind in ("flat", "phase-ascent", "random-signs")]
        want = best_ratios(fs, (4, 8, 16), enss)
        assert [row[1] for row in json.loads(out)["rows"]] == list(want)
        # the best over the list is the max of the bests over its members
        assert want == tuple(max(r) for r in zip(*(best_ratios(fs, (4, 8, 16), e) for e in enss)))

    def test_sidon_lb(self, capsys):
        code, out = run_cli(capsys, "sidon-lb", "--count", "4", "--trials", "4",
                            "--ensemble", "flat,phase-ascent", "--format", "json")
        assert code == 0
        assert json.loads(out)["rows"][0][0] >= 1.0 - 1e-9

    def test_zygmund_ratio_vp(self, capsys):
        code, out = run_cli(capsys, "zygmund-ratio", "--vp", "5", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[0][0] == "vp" and rows[0][4] > 0

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, _ = run_cli(capsys, "paley-check", "--k", "4", "-o", str(target))
        assert code == 0
        assert json.loads(target.read_text())["subcommand"] == "paley-check"


class TestSelftest:
    def test_runs_a_test_path(self, capsys):
        assert main(["selftest", "--tests-path", "tests/test_window.py"]) == 0

    def test_missing_path(self, capsys):
        assert main(["selftest", "--tests-path", "no/such/dir"]) == 1

    def test_default_path_from_another_directory(self, capsys, monkeypatch, tmp_path):
        ran = []
        monkeypatch.setattr(pytest, "main", lambda args: ran.append(args[0]) or 0)
        monkeypatch.chdir(tmp_path)
        assert main(["selftest"]) == 0
        assert os.path.basename(ran[0]) == "test_acceptance.py" and os.path.isfile(ran[0])

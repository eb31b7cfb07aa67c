"""End-to-end command-line tests driven through main(argv) in process."""

import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from pairloss import (
    DistanceSpec,
    FilterSpec,
    GeneratorSpec,
    LossConfig,
    PairBudget,
    descend_scores,
    descent_arguments,
    evaluate_loss,
    evaluate_with_gradient,
    generate_scores,
    gradcheck_arguments,
    read_score_file,
    simulate_training,
    write_score_file,
)
from pairloss import cli
from pairloss.cli import CONFIG_ENV_VAR, SETTINGS, build, build_parser, given_settings, main
from pairloss.scorefile import round_floats
from pairloss.types import ValidationError

from conftest import make_set

EQUAL_PAIR_LOSS = 0.05776226504666211
CE_ZERO_LAM8 = "0.0866433975699932"
CE_ZERO_LAM4 = "0.173286795139986"
CE_ZERO_LAM2 = "0.346573590279973"


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)


def score_file(tmp_path, scores, labels, name="scores.csv"):
    path = str(tmp_path / name)
    write_score_file(path, make_set(scores, labels))
    return path


def run_json(capsys, argv, expect=0):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == expect
    return json.loads(out)


@pytest.fixture
def equal_pair(tmp_path):
    return score_file(tmp_path, [0.5, 0.5], [1, 0])


@pytest.fixture
def mixed_file(tmp_path):
    return score_file(
        tmp_path, [0.9, 0.2, 0.55, 0.4, 0.1], [1, 1, 0, 0, 0], name="mixed.csv"
    )


class TestEval:
    def test_equal_pair_report(self, capsys, equal_pair):
        report = run_json(capsys, ["eval", equal_pair])
        assert report["command"] == "eval"
        assert report["total_loss"] == pytest.approx(EQUAL_PAIR_LOSS, rel=1e-12)
        assert report["truncated"] is False
        assert report["active_pairs"] == 1
        assert report["warnings"] == []
        assert report["gradient"] == pytest.approx([-1.0 / 3.0, 1.0 / 3.0], rel=1e-12)
        (row,) = report["per_anchor"]
        assert row["anchor"] == 0
        assert row["balance_constant"] == 1.5

    def test_step_distance_has_no_gradient(self, capsys, equal_pair):
        report = run_json(capsys, ["eval", equal_pair, "--distance", "step"])
        assert report["gradient"] is None
        assert report["total_loss"] == pytest.approx(0.5 / 1.5, rel=1e-12)

    def test_no_negatives_warns(self, capsys, tmp_path):
        path = score_file(tmp_path, [0.5, 0.6], [1, 1])
        report = run_json(capsys, ["eval", path])
        assert report["total_loss"] == 0.0
        assert any("no negatives" in w for w in report["warnings"])

    def test_no_positives_warns(self, capsys, tmp_path):
        path = score_file(tmp_path, [0.5, 0.6], [0, 0])
        report = run_json(capsys, ["eval", path])
        assert report["total_loss"] == 0.0
        assert any("no positive anchors" in w for w in report["warnings"])

    def test_budget_flag_marks_truncation(self, capsys, mixed_file):
        report = run_json(capsys, ["eval", mixed_file, "--q", "1"])
        assert report["truncated"] is True
        full = run_json(capsys, ["eval", mixed_file, "--q", "unlimited"])
        assert full["truncated"] is False

    def test_out_redirects_report(self, capsys, equal_pair, tmp_path):
        target = tmp_path / "report.json"
        code = main(["eval", equal_pair, "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        report = json.loads(target.read_text(encoding="utf-8"))
        assert report["total_loss"] == pytest.approx(EQUAL_PAIR_LOSS, rel=1e-12)

    @pytest.mark.parametrize("target", ["missing/report.json", "."], ids=["missing-directory", "directory"])
    def test_unwritable_out_is_validation_error(self, capsys, equal_pair, tmp_path, target):
        out = str(tmp_path / target)
        assert main(["eval", equal_pair, "--out", out]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        strerror = "No such file or directory" if target.startswith("missing") else "Is a directory"
        assert captured.err == f"validation error: cannot write --out {out}: {strerror}\n"

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["{dir}/missing.csv"], "cannot read {dir}/missing.csv: No such file or directory"),
            (["{dir}"], "cannot read {dir}: Is a directory"),
            (
                ["{dir}/scores.csv", "--config", "{dir}/missing.json"],
                "cannot read config {dir}/missing.json: No such file or directory",
            ),
        ],
        ids=["missing-score-file", "directory", "missing-config"],
    )
    def test_unreadable_file_is_validation_error(self, capsys, tmp_path, argv, message):
        score_file(tmp_path, [0.6, 0.4], [1, 0])
        assert main(["eval", *(a.format(dir=tmp_path) for a in argv)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"validation error: {message.format(dir=tmp_path)}\n"

    def test_non_utf8_score_file_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("index,score,label\n0,0.5,1\n1,0.4,0 \u00e9t\u00e9\n".encode("latin-1"))
        assert main(["eval", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"parse error: line 3, column 9: {path} is not UTF-8: byte 0xe9 (invalid continuation byte)\n"
        )

    def test_bad_header_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("score,index,label\n0,0.5,1\n", encoding="utf-8")
        assert main(["eval", str(path)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_nan_score_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("index,score,label\n0,nan,1\n1,0.5,0\n", encoding="utf-8")
        assert main(["eval", str(path)]) == 3
        assert "validation error" in capsys.readouterr().err

    def test_overflowing_pair_sum_is_validation_error(self, capsys, tmp_path):
        # a finite, valid file whose 100 pair errors of 2e306 sum past the largest double
        path = score_file(tmp_path, [1e306] * 100 + [-1e306], [0] * 100 + [1])
        assert main(["eval", path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("validation error: pair sum of anchor 100 overflows")
        assert "Traceback" not in err


    def test_overflowing_score_differences_exit_3_without_warnings(self, tmp_path):
        # finite scores whose difference overflows; numpy must not print a RuntimeWarning
        path = score_file(tmp_path, [-1e308, 1e308], [1, 0])
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        run = subprocess.run(
            [sys.executable, "-m", "pairloss.cli", "eval", path], capture_output=True, text=True, env=env
        )
        assert run.returncode == 3
        assert run.stderr == (
            "validation error: a score difference of anchor 0 overflows a double; score differences must be finite\n"
        )


class TestGradcheck:
    def test_passes_on_smooth_config(self, capsys, mixed_file):
        report = run_json(capsys, ["gradcheck", mixed_file])
        assert report["passed"] is True
        assert report["max_rel_error"] < 1e-5
        assert report["epsilon"] == 1e-6

    def test_unattainable_tolerance_fails_with_exit_1(self, capsys, mixed_file):
        report = run_json(capsys, ["gradcheck", mixed_file, "--tolerance", "1e-16"], expect=1)
        assert report["passed"] is False
        assert report["max_rel_error"] > 1e-16

    def test_epsilon_outside_safe_range_rejected(self, capsys, mixed_file):
        assert main(["gradcheck", mixed_file, "--epsilon", "1"]) == 3
        assert "validation error" in capsys.readouterr().err


class TestConfigLayering:
    def write_config(self, tmp_path, payload, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def curve_midpoint(self, capsys, argv):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        return out.splitlines()[1]

    def test_config_file_sets_lambda(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, {"lambda": 4.0})
        line = self.curve_midpoint(
            capsys, ["curve", "--function", "CE", "--samples", "3", "--config", cfg]
        )
        assert line == f"0 {CE_ZERO_LAM4}"

    def test_flag_overrides_config_file(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, {"lambda": 4.0})
        line = self.curve_midpoint(
            capsys,
            ["curve", "--function", "CE", "--samples", "3", "--config", cfg, "--lambda", "2"],
        )
        assert line == f"0 {CE_ZERO_LAM2}"

    def test_environment_variable_supplies_config(self, capsys, tmp_path, monkeypatch):
        cfg = self.write_config(tmp_path, {"lambda": 4.0})
        monkeypatch.setenv(CONFIG_ENV_VAR, cfg)
        line = self.curve_midpoint(capsys, ["curve", "--function", "CE", "--samples", "3"])
        assert line == f"0 {CE_ZERO_LAM4}"

    def test_unlimited_q_in_config_file(self, capsys, tmp_path, equal_pair):
        cfg = self.write_config(tmp_path, {"q": "unlimited"})
        report = run_json(capsys, ["eval", equal_pair, "--config", cfg])
        assert report["truncated"] is False

    def test_unknown_key_is_validation_error(self, capsys, tmp_path, equal_pair):
        cfg = self.write_config(tmp_path, {"lamda": 4.0})
        assert main(["eval", equal_pair, "--config", cfg]) == 3
        assert "unknown keys" in capsys.readouterr().err

    def test_malformed_json_is_parse_error(self, capsys, tmp_path, equal_pair):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["eval", equal_pair, "--config", str(path)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_non_utf8_config_is_parse_error(self, capsys, tmp_path, equal_pair):
        path = tmp_path / "latin1.json"
        path.write_bytes('{\n  "lambda": 4.0, "\u00df": 1\n}\n'.encode("latin-1"))
        assert main(["eval", equal_pair, "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"parse error: line 2, column 19: config {path} is not UTF-8: byte 0xdf (invalid continuation byte)\n"
        )


class TestSweep:
    FAST = ["--n-pos", "5", "--n-neg", "20", "--steps", "2"]

    def test_lambda_sweep_rows(self, capsys):
        report = run_json(
            capsys, ["sweep", "--parameter", "lambda", "--values", "2,4,8,16", *self.FAST]
        )
        assert report["parameter"] == "lambda"
        assert [row["value"] for row in report["rows"]] == [2, 4, 8, 16]
        for row in report["rows"]:
            assert row["initial_loss"] > 0.0
            assert row["final_loss"] > 0.0
            assert 0.0 <= row["final_ap"] <= 1.0

    def test_threshold_sweep_shrinks_active_pairs(self, capsys):
        report = run_json(
            capsys, ["sweep", "--parameter", "T", "--values", "0,0.1,0.3", *self.FAST]
        )
        counts = [row["initial_active_pairs"] for row in report["rows"]]
        assert counts == sorted(counts, reverse=True)

    def test_budget_sweep_saturates(self, capsys):
        report = run_json(
            capsys, ["sweep", "--parameter", "Q", "--values", "1000,unlimited", *self.FAST]
        )
        bounded, unlimited = report["rows"]
        assert bounded["value"] == 1000
        assert unlimited["value"] == "unlimited"
        assert bounded["initial_loss"] == unlimited["initial_loss"]
        assert bounded["final_loss"] == unlimited["final_loss"]

    def test_sweep_accepts_score_file(self, capsys, equal_pair):
        report = run_json(
            capsys,
            ["sweep", equal_pair, "--parameter", "lambda", "--values", "8", "--steps", "1", "--lr", "0"],
        )
        (row,) = report["rows"]
        assert row["initial_loss"] == pytest.approx(EQUAL_PAIR_LOSS, rel=1e-12)
        assert row["final_loss"] == row["initial_loss"]

    def test_overflow_after_an_update_is_a_run_failure(self, capsys, tmp_path):
        path = score_file(tmp_path, [1e308] * 20 + [1.01e308], [1] * 20 + [0])
        argv = ["sweep", path, "--parameter", "lambda", "--values", "8", "--lr", "1e308", "--steps", "3", "--reduction", "sum"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("run failed: loss evaluation failed at step 1: a score difference")
        assert captured.out == ""

    def test_every_value_is_built_before_the_scores_are_generated(self, capsys, monkeypatch):
        def spy(*args, **kwargs):
            raise AssertionError("no descent may start before every value is built")

        monkeypatch.setattr(cli, "generate_scores", spy)
        monkeypatch.setattr(cli, "descend_scores", spy)
        assert main(["sweep", "--parameter", "lambda", "--values=4,-1", *self.FAST]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "validation error: lambda must be > 0 for ce-sigmoid distance, got -1.0\n")

    @pytest.mark.parametrize(
        ("values", "message"),
        [(",", "sweep needs at least one value"), ("a", "sweep values for lambda must be numbers, got 'a'")],
    )
    def test_unusable_values_exit_3(self, capsys, values, message):
        assert main(["sweep", "--parameter", "lambda", "--values", values, *self.FAST]) == 3
        assert capsys.readouterr() == ("", f"validation error: {message}\n")

    def test_unknown_parameter_rejected(self, capsys):
        assert main(["sweep", "--parameter", "gamma", "--values", "1", *self.FAST]) == 3
        assert "unknown sweep parameter" in capsys.readouterr().err


class TestSweepMatchesTheLibrary:
    """Each sweep row is descend_scores on the config an ablation table builds by hand."""

    FAST = ["--n-pos", "10", "--n-neg", "60", "--steps", "3"]
    GRIDS = {
        "lambda": ([2.0, 4.0, 8.0, 16.0], lambda lam: LossConfig(distance=DistanceSpec(lam=lam))),
        "delta": ([1.0, 0.5, 0.25, 0.125], lambda d: LossConfig(distance=DistanceSpec(delta=d))),
        "T": ([0.0, 0.2, 0.25, 0.3, 0.5], lambda t: LossConfig(pair_filter=FilterSpec(mode="negcount", threshold=t))),
        "Q": ([10, 100, 1000, None], lambda q: LossConfig(budget=PairBudget(q))),
    }

    @pytest.mark.parametrize("parameter", GRIDS)
    def test_rows(self, capsys, parameter):
        values, make_config = self.GRIDS[parameter]
        listed = ",".join("unlimited" if v is None else str(v) for v in values)
        report = run_json(capsys, ["sweep", "--parameter", parameter, "--values", listed, *self.FAST])
        initial = generate_scores(GeneratorSpec(n_pos=10, n_neg=60))
        expected = []
        for value in values:
            records = descend_scores(initial, make_config(value), 3, 1.0).records
            first, last = records[0], records[-1]
            expected.append(
                {
                    "parameter": parameter,
                    "value": "unlimited" if value is None else value,
                    "initial_loss": first.total_loss,
                    "final_loss": last.total_loss,
                    "initial_ap": first.ranking_ap,
                    "final_ap": last.ranking_ap,
                    "initial_active_pairs": first.active_pairs,
                    "final_active_pairs": last.active_pairs,
                }
            )
        assert report["rows"] == round_floats(expected)

    def test_simulate(self, capsys):
        report = run_json(capsys, ["simulate", "--steps", "3"])
        trajectory = simulate_training(GeneratorSpec(), LossConfig(), 3, 1.0)
        assert report["records"] == round_floats([asdict(r) for r in trajectory.records])
        assert report["final_loss"] == round_floats(trajectory.final_loss)
        assert report["final_ap"] == round_floats(trajectory.final_ap)


class TestOneDelta:
    """--delta is the one ramp half-width: the step distance's and, under every distance, the smoothed ranks'."""

    @pytest.fixture
    def set_10_60(self, tmp_path):
        path = str(tmp_path / "g1060.csv")
        write_score_file(path, generate_scores(GeneratorSpec(n_pos=10, n_neg=60)))
        return path

    @pytest.mark.parametrize("delta", ["0.25", "1.0"])
    def test_eval_matches_the_first_row_of_the_delta_sweep(self, capsys, set_10_60, delta):
        report = run_json(capsys, ["eval", set_10_60, "--delta", delta])
        sweep = run_json(capsys, ["sweep", set_10_60, "--parameter", "delta", "--values", delta, "--steps", "1"])
        assert report["total_loss"] == sweep["rows"][0]["initial_loss"]
        assert report["total_loss"] != run_json(capsys, ["eval", set_10_60])["total_loss"]

    @pytest.mark.parametrize("delta", ["0.25", "1.0"])
    def test_step_eval_ranks_with_the_same_delta(self, capsys, set_10_60, delta):
        # descent needs a gradient, so a sweep cannot run the step distance; its ranks are the ce-sigmoid run's
        smooth = run_json(capsys, ["eval", set_10_60, "--delta", delta])
        step = run_json(capsys, ["eval", set_10_60, "--distance", "step", "--delta", delta])
        columns = ("rank_plus", "rank_minus", "balance_constant")
        assert [[row[c] for c in columns] for row in step["per_anchor"]] == [
            [row[c] for c in columns] for row in smooth["per_anchor"]
        ]
        config = LossConfig(distance=DistanceSpec(kind="step", delta=float(delta)))
        assert step["total_loss"] == round_floats(evaluate_loss(read_score_file(set_10_60), config).total_loss)

    def test_rank_delta_config_key_exits_3(self, capsys, tmp_path, equal_pair):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"rank_delta": 0.25}), encoding="utf-8")
        assert main(["eval", equal_pair, "--config", str(path)]) == 3
        assert "unknown keys ['rank_delta']" in capsys.readouterr().err

    def test_rank_delta_flag_exits_2(self, capsys, equal_pair):
        with pytest.raises(SystemExit) as exc:
            main(["eval", equal_pair, "--rank-delta", "0.25"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestCurve:
    def test_sigmoid_midpoint(self, capsys):
        code = main(["curve", "--function", "S", "--samples", "5"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert lines[2] == "0 0.5"

    def test_step_endpoints(self, capsys):
        code = main(["curve", "--function", "H", "--samples", "3"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "-1 0"
        assert lines[2] == "1 1"

    def test_ce_at_zero(self, capsys):
        code = main(["curve", "--function", "CE", "--samples", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[1] == f"0 {CE_ZERO_LAM8}"

    def test_single_sample_rejected(self, capsys):
        assert main(["curve", "--function", "S", "--samples", "1"]) == 3
        capsys.readouterr()

    def test_cross_entropy_that_overflows_exits_3(self, capsys):
        argv = ["curve", "--function", "CE", "--lambda", "1e-310", "--x-min", "-1", "--x-max", "1", "--samples", "3"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err == "validation error: lambda = 1e-310: the cross-entropy of x = -1.0 overflows a double\n"
        assert captured.out == ""

    def test_sample_count_beyond_memory_exits_3(self, capsys):
        # numpy refuses 10**15 doubles before allocating anything
        assert main(["curve", "--function", "S", "--samples", str(10**15)]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"validation error: samples = {10**15} points are too many to allocate\n"
        assert captured.out == ""

    def test_range_whose_width_overflows_exits_3(self, capsys):
        assert main(["curve", "--function", "S", "--x-min=-1.7e308", "--x-max=1.7e308"]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "validation error: need x_min < x_max with a finite width x_max - x_min, got [-1.7e+308, 1.7e+308]\n"
        )
        assert captured.out == ""

    def test_unknown_function_rejected(self, capsys):
        assert main(["curve", "--function", "tanh"]) == 3
        assert "unknown curve function" in capsys.readouterr().err


class TestSimulate:
    FAST = ["--n-pos", "5", "--n-neg", "20", "--steps", "3"]

    def test_record_count_and_determinism(self, capsys):
        first = main(["simulate", *self.FAST])
        out_a = capsys.readouterr().out
        second = main(["simulate", *self.FAST])
        out_b = capsys.readouterr().out
        assert first == second == 0
        assert out_a == out_b
        report = json.loads(out_a)
        assert len(report["records"]) == 4
        assert report["records"][0]["step"] == 0
        assert report["final_loss"] == report["records"][-1]["total_loss"]

    def test_zero_learning_rate_is_flat(self, capsys):
        report = run_json(capsys, ["simulate", *self.FAST, "--lr", "0"])
        losses = {r["total_loss"] for r in report["records"]}
        assert len(losses) == 1

    def test_gradient_forms_agree(self, capsys):
        a = run_json(capsys, ["simulate", *self.FAST, "--grad-form", "error-driven"])
        b = run_json(capsys, ["simulate", *self.FAST, "--grad-form", "autodiff-ce"])
        assert a["records"] == b["records"]

    def test_size_beyond_memory_exits_3(self, capsys):
        # numpy refuses 10**15 doubles before allocating anything
        assert main(["simulate", "--n-pos", str(10**15), "--steps", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: n_pos + n_neg = {10**15 + 500} ")
        assert "Traceback" not in err


class TestArgparseSurface:
    def test_unknown_flag_exits_2(self, equal_pair, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", equal_pair, "--bogus"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unparseable_q_exits_2(self, equal_pair, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", equal_pair, "--q", "lots"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("text", ["none", "Unlimited", "UNLIMITED"])
    def test_q_is_an_integer_or_unlimited_as_written(self, equal_pair, capsys, text):
        with pytest.raises(SystemExit) as exc:
            main(["eval", equal_pair, "--q", text])
        assert exc.value.code == 2
        capsys.readouterr()


# (config key, config-file value, flag arguments): every row of the settings table, each
# at a value other than its default, plus the alternative spellings a key accepts
SETTING_SAMPLES = [
    ("distance", "sigmoid", ["sigmoid"]),
    ("lambda", 4.0, ["4"]),
    ("lambda", 4, ["4"]),
    ("delta", 0.25, ["0.25"]),
    ("delta", 1, ["1"]),
    ("threshold", 0.1, ["0.1"]),
    ("filter_numerator", False, None),
    ("q", 7, ["7"]),
    ("q", "unlimited", ["unlimited"]),
    ("q", None, ["unlimited"]),
    ("mode", "negcount", ["negcount"]),
    ("grad_form", "autodiff-ce", ["autodiff-ce"]),
    ("reduction", "sum", ["sum"]),
    ("seed", 3, ["3"]),
    ("n_pos", 4, ["4"]),
    ("n_neg", 9, ["9"]),
    ("pos_mean", 0.7, ["0.7"]),
    ("pos_std", 0.2, ["0.2"]),
    ("neg_mean", 0.3, ["0.3"]),
    ("neg_std", 0.05, ["0.05"]),
    ("clamp", [0.1, 0.9], ["0.1", "0.9"]),
    ("steps", 5, ["5"]),
    ("lr", 0.5, ["0.5"]),
    ("epsilon", 1e-7, ["1e-7"]),
    ("tolerance", 1e-4, ["1e-4"]),
]


def built(argv):
    """Everything a run builds from its settings: the loss config, the generator and the run keywords."""
    return build(given_settings(build_parser().parse_args(argv)))


class TestSettingsTable:
    def test_samples_cover_every_row(self):
        assert {key for key, _, _ in SETTING_SAMPLES} == set(SETTINGS)

    @pytest.mark.parametrize(("key", "value", "flag_args"), SETTING_SAMPLES)
    def test_flag_and_config_key_build_the_same_run(self, tmp_path, key, value, flag_args):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({key: value}), encoding="utf-8")
        flag = "--" + key.replace("_", "-")
        if flag_args is None:  # a switch: the sample turns it off
            flag, flag_args = "--no-" + flag[2:], []
        from_file = built(["simulate", "--config", str(path)])
        from_flag = built(["simulate", flag, *flag_args])
        assert from_file == from_flag
        assert from_file != built(["simulate"])

    def test_no_settings_build_the_library_defaults(self):
        assert built(["simulate"]) == (LossConfig(), GeneratorSpec(), descent_arguments(), gradcheck_arguments())

    def test_eval_without_flags_matches_the_library_bit_for_bit(self, capsys, mixed_file, monkeypatch):
        seen = []

        def spy(score_set, config):
            seen.append((score_set, config))
            return evaluate_with_gradient(score_set, config)

        monkeypatch.setattr(cli, "evaluate_with_gradient", spy)
        report = run_json(capsys, ["eval", mixed_file])
        ((score_set, config),) = seen
        assert config == LossConfig()
        direct = evaluate_with_gradient(score_set, LossConfig())
        assert report["total_loss"] == round_floats(direct.total_loss)
        assert report["gradient"] == round_floats(direct.gradient)
        assert [row["loss"] for row in report["per_anchor"]] == round_floats(list(direct.per_anchor_loss.values()))

    @pytest.mark.parametrize("command", ["eval", "gradcheck", "sweep", "curve", "simulate"])
    def test_help_exits_0(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "--clamp LO HI" in capsys.readouterr().out


# (key, a value its rule refuses): every setting with a range
OUT_OF_RANGE = [
    ("lambda", -1.0),
    ("delta", 0.0),
    ("threshold", -1.0),
    ("q", 0),
    ("seed", -1),
    ("n_pos", -1),
    ("n_neg", -1),
    ("pos_mean", float("nan")),
    ("pos_std", -1.0),
    ("neg_mean", float("nan")),
    ("neg_std", -1.0),
    ("clamp", [1.0, 0.0]),
    ("steps", 0),
    ("lr", -1.0),
    ("epsilon", 1.0),
    ("tolerance", 0.0),
]
# per kind of flag: one config value of the wrong type; a choice gets ["x"]
WRONG_TYPED = [(cli.NUMBER, "4"), (cli.INTEGER, 1.5), (cli.SWITCH, "false"), (cli.BUDGET, "lots"), (cli.RANGE, [0, "1"])]
# (key, value, whether a flag can spell it): a wrong type cannot be spelled as a flag
BAD_SETTINGS = [(key, value, True) for key, value in OUT_OF_RANGE] + [
    (key, next((v for kind, v in WRONG_TYPED if kind is s.kind), ["x"]), False) for key, s in SETTINGS.items()
]
# every subcommand, with a score file that does not exist wherever one is read
MISSING = "no-such-scores.csv"
COMMANDS = {
    "eval": ["eval", MISSING],
    "gradcheck": ["gradcheck", MISSING],
    "sweep": ["sweep", MISSING, "--parameter", "lambda", "--values", "4"],
    "curve": ["curve", "--function", "CE"],
    "simulate": ["simulate"],
}


class TestWholeRuleBeforeInput:
    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize(("key", "value", "as_flag"), BAD_SETTINGS, ids=[f"{k}={v!r}" for k, v, _ in BAD_SETTINGS])
    def test_bad_setting_exits_3_before_any_input_is_read(self, capsys, tmp_path, command, key, value, as_flag):
        setting = SETTINGS[key]
        with pytest.raises(ValidationError) as library:  # the message of building the target directly
            setting.target(**{setting.field: value})
        field, _, rest = str(library.value).partition(" ")
        assert field == setting.field
        path = tmp_path / "config.json"
        path.write_text(json.dumps({key: value}), encoding="utf-8")
        runs = [[*COMMANDS[command], "--config", str(path)]]
        if as_flag:
            runs.append([*COMMANDS[command], "--" + key.replace("_", "-"), *map(str, value if key == "clamp" else [value])])
        for argv in runs:
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"validation error: {key} {rest}\n")


# a run of each subcommand on real inputs, with its exit code; {scores} is a score file
WRITTEN_RUNS = {
    "eval": (["eval", "{scores}", "--q", "1"], 0),
    "gradcheck": (["gradcheck", "{scores}"], 0),
    "gradcheck-failing": (["gradcheck", "{scores}", "--tolerance", "1e-30"], 1),
    "sweep": (["sweep", "{scores}", "--parameter", "Q", "--values", "1,unlimited", "--steps", "2"], 0),
    "curve": (["curve", "--function", "S", "--samples", "5"], 0),
    "simulate": (["simulate", "--n-pos", "3", "--n-neg", "9", "--steps", "2"], 0),
}


class TestOneWriter:
    @pytest.mark.parametrize(("argv", "code"), list(WRITTEN_RUNS.values()), ids=list(WRITTEN_RUNS))
    def test_out_holds_the_bytes_the_run_prints(self, capsys, mixed_file, tmp_path, argv, code):
        argv = [arg.format(scores=mixed_file) for arg in argv]
        assert main(argv) == code
        printed = capsys.readouterr()
        assert printed.out and printed.err == ""
        target = tmp_path / "report.out"
        assert main([*argv, "--out", str(target)]) == code
        assert tuple(capsys.readouterr()) == ("", "")
        assert target.read_bytes() == printed.out.encode("utf-8")


class TestConfigTypes:
    @pytest.mark.parametrize(
        ("payload", "named"),
        [
            ({"mode": "negcount", "filter_numerator": "false"}, "filter_numerator must be True or False, got 'false'"),
            ({"lambda": True}, "lambda must be a number"),
            ({"lambda": "4"}, "lambda must be a number"),
            ({"q": "lots"}, "q must be an integer, got 'lots'"),
            ({"q": 2.5}, "q must be an integer, got 2.5"),
            ({"seed": 1.5}, "seed must be an integer"),
            ({"clamp": [0, "1"]}, "clamp must be a number, got '1'"),
            ({"distance": "tanh"}, "distance must be one of"),
            ([{"lambda": 4.0}], "top level must be an object"),
        ],
    )
    def test_wrong_type_exits_3_naming_the_key(self, capsys, tmp_path, equal_pair, payload, named):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["eval", equal_pair, "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err

    def test_unparseable_sweep_budget_exits_3(self, capsys):
        argv = ["sweep", "--parameter", "Q", "--values", "10,lots", "--n-pos", "3", "--n-neg", "5", "--steps", "1"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("validation error: q must be an integer or 'unlimited', got 'lots'")
        assert "Traceback" not in err


    def test_integer_too_large_for_a_double_exits_3(self, capsys, tmp_path, equal_pair):
        path = tmp_path / "config.json"
        path.write_text('{"lambda": 1' + "0" * 400 + "}", encoding="utf-8")
        assert main(["eval", equal_pair, "--config", str(path)]) == 3
        assert capsys.readouterr().err == "validation error: lambda is too large for a double\n"

    @pytest.mark.parametrize(
        ("payload", "message"),
        [
            ({"lambda": 0}, "lambda must be > 0 for ce-sigmoid distance, got 0.0"),
            ({"lr": 10**400, "n_pos": 2, "n_neg": 3, "steps": 1}, "lr is too large for a double"),
            ({"delta": -1}, "delta must be > 0, got -1.0"),
        ],
    )
    def test_messages_name_the_setting(self, capsys, tmp_path, payload, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["simulate", "--config", str(path)]) == 3
        assert capsys.readouterr().err == f"validation error: {message}\n"

    @pytest.mark.parametrize("key", [s.key for s in SETTINGS.values() if s.kind is cli.NUMBER])
    def test_nan_names_every_number_setting(self, capsys, mixed_file, key):
        # the library's message names its field; the CLI must turn each field into this setting's key
        if SETTINGS[key].target is gradcheck_arguments:
            argv = ["gradcheck", mixed_file]
        else:
            argv = ["simulate", "--n-pos", "2", "--n-neg", "3", "--steps", "1"]
        assert main([*argv, "--" + key.replace("_", "-"), "nan"]) == 3
        assert capsys.readouterr().err.startswith(f"validation error: {key} ")


class TestLossDistance:
    @pytest.fixture
    def set_5_20(self, tmp_path):
        path = str(tmp_path / "g520.csv")
        write_score_file(path, generate_scores(GeneratorSpec(n_pos=5, n_neg=20)))
        return path, read_score_file(path)

    def test_smooth_eval_reports_the_cross_entropy_loss(self, capsys, set_5_20):
        path, score_set = set_5_20
        report = run_json(capsys, ["eval", path, "--distance", "sigmoid"])
        config = LossConfig(distance=DistanceSpec(kind="sigmoid"))
        assert report["loss_distance"] == "ce-sigmoid"
        assert report["total_loss"] == round_floats(evaluate_with_gradient(score_set, config).total_loss)
        assert report["total_loss"] != round_floats(evaluate_loss(score_set, config).total_loss)

    def test_step_eval_reports_the_step_loss(self, capsys, set_5_20):
        path, score_set = set_5_20
        report = run_json(capsys, ["eval", path, "--distance", "step"])
        config = LossConfig(distance=DistanceSpec(kind="step"))
        assert report["loss_distance"] == "step"
        assert report["total_loss"] == round_floats(evaluate_loss(score_set, config).total_loss)

    @pytest.mark.parametrize("command", [["sweep", "--parameter", "lambda", "--values", "4"], ["simulate"]])
    def test_descent_reports_the_cross_entropy_loss(self, capsys, command):
        report = run_json(capsys, [*command, "--distance", "sigmoid", "--n-pos", "3", "--n-neg", "5", "--steps", "1"])
        assert report["loss_distance"] == "ce-sigmoid"

    def test_gradient_commands_reject_the_step_distance(self, capsys, set_5_20):
        generated = ["--n-pos", "3", "--n-neg", "5", "--steps", "1"]
        sweep = ["sweep", "--parameter", "lambda", "--values", "4", *generated]
        for command in (sweep, ["simulate", *generated], ["gradcheck", set_5_20[0]]):
            assert main([*command, "--distance", "step"]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "validation error: gradients need a sigmoid or ce-sigmoid distance, got step\n"


IMPORTED_PACKAGES = """
import sys
before = set(sys.modules)
import pairloss.cli
print(sorted({name.partition(".")[0] for name in set(sys.modules) - before} - set(sys.stdlib_module_names)))
"""


def test_import_loads_no_dependency_but_numpy():
    # in a fresh interpreter, so no package another test imported can hide in sys.modules
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", IMPORTED_PACKAGES], capture_output=True, text=True, env=env, check=True)
    assert run.stdout == "['numpy', 'pairloss']\n"


WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from pairloss.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_eval_runs_with_scipy_blocked(mixed_file):
    # pyproject.toml and the README promise numpy as the only dependency; this holds it to that
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, "eval", mixed_file], capture_output=True, text=True, env=env)
    assert (run.returncode, run.stderr) == (0, "")
    assert json.loads(run.stdout)["total_loss"] == round_floats(evaluate_with_gradient(read_score_file(mixed_file), LossConfig()).total_loss)


def readme_commands() -> list[str]:
    """Every `pairloss ...` line of the README's sh blocks, without its comment."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    return [line.partition("#")[0] for block in blocks for line in block.splitlines() if line.startswith("pairloss ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 10
    parser = build_parser()
    for line in commands:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")

"""End-to-end tests of the command-line surface and its exit-code policy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from probcert import (
    OptimizationSettings,
    ScanReport,
    achieved_confidence,
    cli,
    estimate_from_batch,
    make_model,
    minimum_sample_size,
    optimize_probability,
    validate_spec,
)
from probcert.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def as_json(record):
    """What a --json payload holds for a record built in-process."""
    return json.loads(json.dumps(record.to_dict()))


class TestPlan:
    def test_human_output(self, capsys):
        code, out, _ = run_cli(capsys, "plan", "--eps-a", "0.05", "--eps-r", "0.2", "--delta", "0.05")
        assert code == 0
        assert "n = 577" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "plan", "--eps-a", "0.02", "--eps-r", "0.2", "--delta", "0.05", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 1755
        assert payload == as_json(minimum_sample_size(validate_spec(0.02, 0.2, 0.05)))

    @pytest.mark.parametrize("eps_a, eps_r, delta", [(2e-4, 0.02, 1e-6), (1e-5, 0.01, 1e-9), (1e-8, 0.5, 0.05)])
    def test_achieved_risk_is_printed_below_delta(self, capsys, eps_a, eps_r, delta):
        # printed to six digits, each of these risks read as delta itself
        code, out, _ = run_cli(capsys, "plan", "--eps-a", str(eps_a), "--eps-r", str(eps_r), "--delta", str(delta))
        assert code == 0
        risk = float(out.split("achieved risk = ")[1])
        n = minimum_sample_size(validate_spec(eps_a, eps_r, delta)).n
        assert risk < delta
        assert risk == achieved_confidence(n, eps_a, eps_r)

    def test_constraint_error_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "plan", "--eps-a", "0.3", "--eps-r", "0.5", "--delta", "0.1")
        assert code == 1
        assert "eps_a/eps_r" in err

    def test_delta_past_2_over_delta_overflow_plans_and_5e_324_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, "plan", "--eps-a", "0.05", "--eps-r", "0.2", "--delta", "1e-320")
        assert code == 0
        assert "n = 115212" in out
        code, _, err = run_cli(capsys, "plan", "--eps-a", "0.05", "--eps-r", "0.2", "--delta", "5e-324")
        assert code == 1
        assert "5e-324" in err

    def test_os_error_inside_a_command_exits_two(self, capsys, monkeypatch):
        def failing(spec):
            raise OSError("device lost")

        monkeypatch.setattr(cli, "minimum_sample_size", failing)
        code, out, err = run_cli(capsys, "plan", "--eps-a", "0.05", "--eps-r", "0.2", "--delta", "0.05")
        assert (code, out, err) == (2, "", "error: device lost\n")

    def test_plan_round_trip_via_file(self, capsys, tmp_path):
        out_path = tmp_path / "plan.json"
        code, _, _ = run_cli(
            capsys, "plan", "--eps-a", "0.05", "--eps-r", "0.2", "--delta", "0.05",
            "--output", str(out_path),
        )
        assert code == 0
        written = json.loads(out_path.read_text())
        assert written == as_json(minimum_sample_size(validate_spec(0.05, 0.2, 0.05)))


class TestConfidence:
    def test_reference_value(self, capsys):
        code, out, _ = run_cli(capsys, "confidence", "--n", "577", "--eps-a", "0.05", "--eps-r", "0.2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["delta_achieved"] == pytest.approx(0.0497625, abs=1e-6)
        assert payload["no_guarantee"] is False

    def test_risk_past_underflow_is_not_zero(self, capsys):
        code, out, _ = run_cli(capsys, "confidence", "--n", "100000000", "--eps-a", "0.05", "--eps-r", "0.2", "--json")
        assert code == 0
        assert json.loads(out)["delta_achieved"] == 5e-324

    def test_tiny_n_flags_no_guarantee(self, capsys):
        code, out, _ = run_cli(capsys, "confidence", "--n", "1", "--eps-a", "0.05", "--eps-r", "0.2")
        assert code == 0
        assert "no guarantee" in out

    def test_invalid_pair(self, capsys):
        code, _, err = run_cli(capsys, "confidence", "--n", "10", "--eps-a", "0.4", "--eps-r", "0.5")
        assert code == 1
        assert "eps_a" in err


class TestEstimate:
    def test_batch_file(self, capsys, tmp_path):
        path = tmp_path / "samples.txt"
        path.write_text("0.5\n" * 577)
        code, out, _ = run_cli(capsys, "estimate", "--input", str(path), "--eps-a", "0.05", "--eps-r", "0.2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload == as_json(estimate_from_batch([0.5] * 577, 0.05, 0.2))
        assert payload["mu_hat"] == 0.5
        assert payload["delta_achieved"] == pytest.approx(0.0497625, abs=1e-6)

    def test_file_of_zeros_prints_the_boundary_note(self, capsys, tmp_path):
        path = tmp_path / "zeros.txt"
        path.write_text("0\n" * 577)
        code, out, _ = run_cli(capsys, "estimate", "--input", str(path), "--eps-a", "0.05", "--eps-r", "0.2")
        note = estimate_from_batch([0.0] * 577, 0.05, 0.2).note
        assert code == 0 and note
        assert out.splitlines() == [
            "mu_hat = 0 from n = 577 samples; delta_achieved = 0.0497625",
            f"note: {note}",
        ]

    def test_tolerances_are_checked_before_the_file_is_read(self, capsys, monkeypatch, tmp_path):
        # the error line `confidence` prints for the pair, and no value is parsed
        def unread(blocks):
            raise AssertionError("the file was read")

        path = tmp_path / "samples.txt"
        path.write_text("0.5\n" * 577)
        _, _, expected = run_cli(capsys, "confidence", "--n", "577", "--eps-a", "0.6", "--eps-r", "0.2")
        monkeypatch.setattr(cli, "_row_sum", unread)
        code, out, err = run_cli(capsys, "estimate", "--input", str(path), "--eps-a", "0.6", "--eps-r", "0.2")
        assert (code, out, err) == (1, "", expected)
        assert err.startswith("error: eps_a/eps_r + eps_a must be <= 1/2")

    def test_empty_file(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        code, _, err = run_cli(capsys, "estimate", "--input", str(path), "--eps-a", "0.05", "--eps-r", "0.2")
        assert code == 1

    def test_out_of_range_line_reported(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.5\n0.25\n1.5\n")
        code, _, err = run_cli(capsys, "estimate", "--input", str(path), "--eps-a", "0.05", "--eps-r", "0.2")
        assert code == 1
        assert "line 3" in err

    def test_out_of_range_line_counts_blank_lines(self, capsys, tmp_path):
        path = tmp_path / "gaps.txt"
        path.write_text("0.5\n\n\n0.25\n  \n1.5\n0.5\n")
        code, _, err = run_cli(capsys, "estimate", "--input", str(path), "--eps-a", "0.05", "--eps-r", "0.2")
        assert code == 1
        assert "line 6: value 1.5 outside [0, 1]" in err

    def test_non_numeric_line_reported(self, capsys, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("0.5\npotato\n")
        code, _, err = run_cli(capsys, "estimate", "--input", str(path), "--eps-a", "0.05", "--eps-r", "0.2")
        assert code == 1
        assert "line 2" in err

    def test_blank_lines_and_crlf_inside_and_between_blocks(self, capsys, tmp_path):
        # the file is reduced in blocks of 16,384 nonblank lines: blanks and CRLF at
        # a block's edge neither shift a value nor split a block
        values = np.random.default_rng(4).random(2 * 16_384 + 9).tolist()
        lines = []
        for i, value in enumerate(values):
            if i % 1000 == 0 or i in (16_383, 16_384, 32_768):
                lines += ["", " \t "]
            lines.append(f"  {value!r}")
        path = tmp_path / "blocks.txt"
        path.write_text("\r\n".join(lines) + "\r\n \r\n", newline="")
        code, out, _ = run_cli(capsys, "estimate", "--input", str(path), "--eps-a", "0.05", "--eps-r", "0.2", "--json")
        assert code == 0
        assert json.loads(out) == as_json(estimate_from_batch(values, 0.05, 0.2))

    def test_a_valid_file_is_read_once(self, capsys, tmp_path, monkeypatch):
        values = np.random.default_rng(5).random(40_000).tolist()
        path = tmp_path / "once.txt"
        path.write_text("\n".join(map(repr, values)) + "\n")
        passes = []
        nonblank = cli._nonblank
        monkeypatch.setattr(cli, "_nonblank", lambda fh: passes.append(fh) or nonblank(fh))
        monkeypatch.setattr(cli, "_first_error", None)  # only an error reads the file again
        code, out, _ = run_cli(capsys, "estimate", "--input", str(path), "--eps-a", "0.05", "--eps-r", "0.2", "--json")
        assert code == 0 and len(passes) == 1
        assert json.loads(out) == as_json(estimate_from_batch(values, 0.05, 0.2))

    @pytest.mark.parametrize(
        "bad, message",
        [("0.5x", "not a decimal number: '0.5x'"), ("1.0000001", "value 1.0000001 outside [0, 1]"),
         ("nan", "value nan outside [0, 1]")],
        ids=["unparsable", "out_of_range", "nan"],
    )
    def test_bad_line_past_the_first_block_named(self, capsys, tmp_path, bad, message):
        lines = ["0.5"] * 20_000
        lines[3] = ""
        lines[17_000] = bad
        path = tmp_path / "late.txt"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "estimate", "--input", str(path), "--eps-a", "0.05", "--eps-r", "0.2")
        assert (code, out, err) == (1, "", f"error: line 17001: {message}\n")

    def test_unparsable_line_reported_before_an_earlier_value_out_of_range(self, capsys, tmp_path):
        # every line is parsed before a value is checked, as when the file was read whole
        path = tmp_path / "both.txt"
        path.write_text("0.5\n1.5\n" + "0.25\n" * 20_000 + "potato\n")
        code, _, err = run_cli(capsys, "estimate", "--input", str(path), "--eps-a", "0.05", "--eps-r", "0.2")
        assert (code, err) == (1, "error: line 20003: not a decimal number: 'potato'\n")

    def test_values_are_parsed_by_float_rules(self, capsys, tmp_path):
        # underscores, non-ASCII digits and Unicode spaces, exactly as float() reads them
        texts = ["0.2_5", "\u0660.\u0665", "\U0001d7ce.\U0001d7d3", "\u30000.75\u3000", "1_0e-1", "0.5\x1c", "1e-400"]
        path = tmp_path / "forms.txt"
        path.write_text("\n".join(texts) + "\n")
        code, out, _ = run_cli(capsys, "estimate", "--input", str(path), "--eps-a", "0.05", "--eps-r", "0.2", "--json")
        assert code == 0
        assert json.loads(out) == as_json(estimate_from_batch([float(t.strip()) for t in texts], 0.05, 0.2))
        path.write_text("0.5\n1_0\n")
        code, _, err = run_cli(capsys, "estimate", "--input", str(path), "--eps-a", "0.05", "--eps-r", "0.2")
        assert (code, err) == (1, "error: line 2: value 10.0 outside [0, 1]\n")

    def test_file_of_blank_lines_has_no_values(self, capsys, tmp_path):
        path = tmp_path / "blank.txt"
        path.write_text("\n  \n\t\r\n")
        code, out, err = run_cli(capsys, "estimate", "--input", str(path), "--eps-a", "0.05", "--eps-r", "0.2")
        assert (code, out, err) == (1, "", f"error: no sample values in {str(path)!r}\n")

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_is_read_whole(self, capsys):
        # a file is read again from its start to name an error's line; a pipe cannot be, so it is held
        read, write = os.pipe()
        os.write(write, b"0.5\n\n0.25\r\n")
        os.close(write)
        try:
            code, out, _ = run_cli(
                capsys, "estimate", "--input", f"/dev/fd/{read}", "--eps-a", "0.05", "--eps-r", "0.2", "--json"
            )
        finally:
            os.close(read)
        assert code == 0
        assert json.loads(out) == as_json(estimate_from_batch([0.5, 0.25], 0.05, 0.2))

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "estimate", "--input", str(tmp_path / "nope.txt"), "--eps-a", "0.05", "--eps-r", "0.2")
        assert code == 2

    def test_directory_input_is_io_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "estimate", "--input", str(tmp_path), "--eps-a", "0.05", "--eps-r", "0.2")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_utf8_file_names_its_line(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"\xff0.5\n0.25\n")
        code, out, err = run_cli(capsys, "estimate", "--input", str(path), "--eps-a", "0.05", "--eps-r", "0.2")
        assert (code, out) == (1, "")
        assert err == "error: line 1: not a decimal number: '\ufffd0.5'\n"


def write_config(tmp_path, **overrides):
    cfg = {
        "model": "quadratic_well",
        "model_params": {"sigma": 0.5},
        "n_scenarios": 1000,
        "seed": 12,
        "settings": {"theta0": [0.5], "max_iters": 300},
        "certify_spec": {"eps_a": 0.05, "eps_r": 0.2, "delta": 0.05},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestOptimize:
    def test_pipeline_outcome(self, capsys, tmp_path):
        path = write_config(tmp_path)
        out_path = tmp_path / "outcome.json"
        code, _, _ = run_cli(capsys, "optimize", "--config", str(path), "--output", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        settings = OptimizationSettings(theta0=(0.5,), max_iters=300)
        outcome = optimize_probability(
            make_model("quadratic_well", sigma=0.5), settings, seed=12, n_scenarios=1000,
            certify_spec=validate_spec(0.05, 0.2, 0.05),
        )
        assert payload["outcome"] == as_json(outcome)
        assert payload["run"]["settings"] == as_json(settings)
        assert abs(outcome.theta_star[0]) <= 0.15
        assert outcome.certificate is not None
        assert payload["run"]["n_scenarios"] == 1000
        assert list(payload["run"]) == [
            "model", "model_params", "seed", "n_scenarios", "certify_spec", "settings",
        ]

    def test_zero_iterations_echoes_start(self, capsys, tmp_path):
        path = write_config(
            tmp_path, settings={"theta0": [0.8], "max_iters": 0}, certify_spec=None
        )
        cfg = json.loads(path.read_text())
        del cfg["certify_spec"]
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, "optimize", "--config", str(path), "--json")
        assert code == 0
        outcome = json.loads(out)["outcome"]
        assert outcome["theta_star"] == [0.8]
        assert outcome["termination"] == "max_iters"

    def test_trace_csv(self, capsys, tmp_path):
        path = write_config(tmp_path)
        trace_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(capsys, "optimize", "--config", str(path), "--trace-csv", str(trace_path))
        assert code == 0
        lines = trace_path.read_text().splitlines()
        assert lines[0] == "iteration,objective"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_malformed_json_names_problem(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "optimize", "--config", str(path))
        assert code == 1
        assert "config" in err

    def test_missing_field_named(self, capsys, tmp_path):
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps({"model": "quadratic_well", "n_scenarios": 100, "settings": {}}))
        code, _, err = run_cli(capsys, "optimize", "--config", str(path))
        assert code == 1
        assert "settings.theta0" in err

    def test_unknown_settings_field_named(self, capsys, tmp_path):
        path = write_config(tmp_path, settings={"theta0": [0.5], "momentum": 0.9})
        code, _, err = run_cli(capsys, "optimize", "--config", str(path))
        assert code == 1
        assert "settings.momentum" in err

    @pytest.mark.parametrize("field", ["max_iters", "lambda_cap", "grad_tol"])
    def test_boolean_settings_field_rejected(self, capsys, tmp_path, field):
        path = write_config(tmp_path, settings={"theta0": [0.8], field: True})
        code, out, err = run_cli(capsys, "optimize", "--config", str(path), "--json")
        assert code == 1
        assert out == ""
        kind = "a nonnegative integer" if field == "max_iters" else "a number"
        assert f"{field} must be {kind}" in err

    def test_boolean_model_param_rejected(self, capsys, tmp_path):
        # float(True) is 1.0: without the check this ran with sigma = 1.0
        path = write_config(tmp_path, model_params={"sigma": True})
        code, out, err = run_cli(capsys, "optimize", "--config", str(path), "--json")
        assert code == 1
        assert out == ""
        assert "sigma must be a number" in err

    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"seed": -1}, "seed"),
            ({"model": "affine", "model_params": {"a": "x"}}, "model_params"),
            ({"settings": {"theta0": [0.5], "nu0": -800.0}}, "nu0"),
            # numbers are passed on as read; the library names the bad one
            ({"seed": "7"}, "seed"),
            ({"seed": None}, "seed"),
            ({"n_scenarios": 2.5}, "scenario count"),
            ({"settings": {"theta0": ["a"]}}, "theta0"),
            ({"settings": {"theta0": [0.5], "grad_tol": "1e-6"}}, "settings: grad_tol must be a number"),
            ({"settings": {"theta0": [0.5], "lambda_cap": None}}, "settings: lambda_cap must be a number"),
            ({"certify_spec": {"eps_a": "0.05", "eps_r": 0.2, "delta": 0.05}}, "certify_spec: eps_a"),
            ({"certify_spec": {"eps_a": 0.6, "eps_r": 0.2, "delta": 0.05}}, "certify_spec: eps_a/eps_r"),
            ({"certify_spec": {"eps_a": 0.05, "eps_r": 0.2}}, "certify_spec.delta"),
            ({"certify_spec": {"eps_a": 0.05, "eps_r": 0.2, "delta": True}}, "certify_spec: delta must be a number"),
            ({"model": "affine", "model_params": {"c": "3"}}, "model_params: c must be a number, got '3'"),
            ({"model": "affine", "model_params": {"a": [[1.0], [2.0]]}}, "model_params: a and b must be flat lists"),
            ({"model_params": {"sigma": 1e400}}, "model_params: sigma must lie in (0, inf), got inf"),
            # every top-level key is known: no plan sizes the scenarios, and no typo runs on a default
            ({"spec": {"eps_a": 0.05, "eps_r": 0.2, "delta": 0.05}}, "spec: unknown field"),
            ({"sede": 7}, "sede: unknown field"),
            # Y * Y must stay inside the exact sums' range, not end in an OverflowError
            ({"settings": {"theta0": [1e154]}}, "|Y| exceeds 2**450 at scenario 0"),
            ({"model": "affine", "model_params": {"c": 1.5e308}}, "|Y| exceeds 2**450 at scenario 0"),
            # so must every dY/dtheta, not end in an OverflowError either
            ({"model": "affine", "model_params": {"a": [1e308]}, "settings": {"theta0": [0.0]}},
             "|gradient| exceeds 2**450 at scenario 0"),
            # every block rejects a key it does not know
            ({"certify_spec": {"eps_a": 0.05, "eps_r": 0.2, "delta": 0.05, "dleta": 0.01}},
             "certify_spec.dleta: unknown field"),
            # a missing field is named before an unknown one
            ({"certify_spec": {"eps_a": 0.05, "eps_r": 0.2, "dleta": 0.05}},
             "certify_spec.delta: missing required field"),
            ({"settings": {"theta0": "0.5"}}, "settings: theta0 must be a sequence of reals, got '0.5'"),
            ({"settings": {"theta0": [0.5], "lambda_cap": 1e999}},
             "settings: lambda_cap must lie in (0, inf), got inf"),
            ({"settings": {"theta0": [0.5], "grad_tol": 1e999}},
             "settings: grad_tol must lie in (0, inf), got inf"),
            ({"settings": {"theta0": [1e999]}}, "settings: theta0 must lie in (-inf, inf), got inf"),
            ({"model": 3}, "model: expected str, got int"),
            # a model parameter the factory does not take, as every block reports its keys
            ({"model_params": {"mu": 1.0}}, "model_params.mu: unknown field"),
        ],
        ids=["negative_seed", "unconvertible_model_param", "nu0_exp_underflows",
             "string_seed", "null_seed", "float_n_scenarios", "string_theta0",
             "string_grad_tol", "null_lambda_cap", "string_certify_eps_a",
             "certify_spec_out_of_range", "certify_spec_missing_delta", "boolean_certify_delta",
             "string_model_param", "nested_affine_a", "infinite_sigma", "spec_block", "misspelt_seed",
             "huge_theta0", "huge_affine_c", "huge_affine_gradient", "unknown_certify_spec_field",
             "misspelt_certify_delta", "theta0_not_a_list",
             "infinite_lambda_cap", "infinite_grad_tol", "infinite_theta0", "integer_model", "unknown_model_param"],
    )
    def test_bad_config_value_exits_one(self, capsys, tmp_path, overrides, named):
        path = write_config(tmp_path, **overrides)
        code, out, err = run_cli(capsys, "optimize", "--config", str(path), "--json")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and named in err

    def test_readme_quick_start_runs(self, capsys):
        # the library quick start in README.md, exactly as written there
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Library quick start")[1].split("```python\n")[1].split("```")[0]
        names: dict = {}
        exec(block, names)
        capsys.readouterr()
        assert names["plan"].n == 577
        assert names["cert"].delta_achieved < 0.05 and names["batch_cert"].delta_achieved < 0.05
        assert names["outcome"].certificate.n == 577

    def test_readme_config_runs(self, capsys, tmp_path):
        # the run configuration documented in README.md, exactly as written there
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Optimize run configuration")[1].split("```json\n")[1].split("```")[0]
        path = tmp_path / "readme.json"
        path.write_text(block)
        code, out, _ = run_cli(capsys, "optimize", "--config", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["run"]["settings"] == json.loads(block)["settings"]
        assert payload["outcome"]["termination"] == "gradient_tol"

    def test_spec_sizing_rejected(self, capsys, tmp_path):
        # the mixed-criterion plan assumes [0, 1] summands, and exp(-lambda Y)
        # exceeds 1 wherever Y < 0: a "spec" block no longer sizes the scenarios
        cfg_path = write_config(tmp_path)
        cfg = json.loads(cfg_path.read_text())
        del cfg["n_scenarios"]
        cfg["spec"] = {"eps_a": 0.05, "eps_r": 0.2, "delta": 0.05}
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "optimize", "--config", str(cfg_path), "--json")
        assert (code, out, err) == (1, "", "error: spec: unknown field\n")
        del cfg["spec"]
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "optimize", "--config", str(cfg_path), "--json")
        assert (code, out, err) == (1, "", "error: n_scenarios: missing required field\n")

    def test_top_level_array_exits_one(self, capsys, tmp_path):
        path = tmp_path / "array.json"
        path.write_text(json.dumps([json.loads(write_config(tmp_path).read_text())]))
        code, out, err = run_cli(capsys, "optimize", "--config", str(path))
        assert (code, out, err) == (1, "", "error: config: top level must be a JSON object\n")

    def test_unwritable_output_is_io_error(self, capsys, tmp_path):
        path = write_config(tmp_path)
        code, _, _ = run_cli(
            capsys, "optimize", "--config", str(path),
            "--output", str(tmp_path / "missing_dir" / "x.json"),
        )
        assert code == 2

    def test_unwritable_trace_csv_is_io_error(self, capsys, tmp_path):
        path = write_config(tmp_path)
        code, out, err = run_cli(
            capsys, "optimize", "--config", str(path),
            "--trace-csv", str(tmp_path / "missing_dir" / "t.csv"),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "t.csv" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b'{"model": "quadratic_well"\xff}', "error: config: invalid JSON: "),
            (b'{"mod\xffel": "quadratic_well"}', "error: mod\ufffdel: unknown field\n"),
        ],
    )
    def test_non_utf8_config_exits_one(self, capsys, tmp_path, raw, message):
        path = tmp_path / "latin1.json"
        path.write_bytes(raw)
        code, out, err = run_cli(capsys, "optimize", "--config", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(message) and err.count("\n") == 1


class TestVerify:
    def test_lemmas_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "lemmas")
        assert code == 0
        assert "PASS" in out

    def test_lemma56_suite_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "lemma56", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert [r["lemma_id"] for r in payload["reports"]] == ["L5", "L6"]

    def test_coverage_suite_deterministic(self, capsys):
        args = ("verify", "--suite", "coverage", "--trials", "300", "--seed", "7", "--json")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_domination_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "domination", "--points", "10", "--seed", "3")
        assert code == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_every_suite_keeps_numpy_arithmetic_finite(self, capsys):
        # numpy's divide, invalid and overflow warnings are errors, in the coverage helper threads too
        assert run_cli(capsys, "verify", "--suite", "all", "--seed", "11")[0] == 0

    def test_negative_seed_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "coverage", "--seed", "-3")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "seed" in err

    def test_unknown_suite_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "nope")
        assert code == 1
        assert "invalid choice" in err

    def test_failing_report_exits_three(self, capsys, monkeypatch):
        import probcert.cli as cli_module

        def fake_scan(lemma_id, grid):
            return ScanReport(
                lemma_id="L2",
                grid_description="forced failure",
                violations=[((0.5,), {"value": 1.0})],
            )

        monkeypatch.setattr(cli_module, "lemma_scan", fake_scan)
        code, out, _ = run_cli(capsys, "verify", "--suite", "lemmas")
        assert code == 3
        assert "FAIL" in out


def run_fresh(*argv):
    """(exit code, stdout, stderr) of the CLI in a new interpreter."""
    import probcert

    env = {**os.environ, "PYTHONPATH": str(Path(probcert.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "probcert.cli", *argv], env=env, capture_output=True, text=True, timeout=120
    )
    return done.returncode, done.stdout, done.stderr


class TestUsage:
    def test_reused_parser_answers_as_a_fresh_one(self, capsys):
        # the parser is built once per process: values parsed by one call
        # must not become the defaults of the next
        code, _, _ = run_cli(capsys, "verify", "--suite", "all", "--trials", "100", "--points", "3")
        assert code == 0
        plain = ("verify", "--suite", "all", "--json")
        assert run_cli(capsys, *plain) == run_fresh(*plain)
        usage = ("verify", "--trials", "100")  # no --suite
        code, out, err = run_cli(capsys, *usage)
        assert (code, out, err) == run_fresh(*usage)
        assert code == 1 and err.startswith("error: ") and "--suite" in err

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, "plan", "--eps-a", "0.05", "--eps-r", "0.2")
        assert code == 1

    def test_bad_flag_type(self, capsys):
        code, _, err = run_cli(capsys, "plan", "--eps-a", "x", "--eps-r", "0.2", "--delta", "0.05")
        assert code == 1


class TestRecordFormat:
    def test_key_order_is_field_order(self):
        spec = validate_spec(0.05, 0.2, 0.05)
        settings = OptimizationSettings(theta0=(0.5,), max_iters=5)
        outcome = optimize_probability(
            make_model("quadratic_well"), settings, seed=3, n_scenarios=100, certify_spec=spec
        )
        report = ScanReport(lemma_id="L2", grid_description="g", violations=[((0.5,), {"value": 1.0})])
        keys = {
            "ErrorSpec": list(spec.to_dict()),
            "SamplePlan": list(minimum_sample_size(spec).to_dict()),
            "Certificate": list(outcome.certificate.to_dict()),
            "OptimizationSettings": list(settings.to_dict()),
            "OptimizationOutcome": list(outcome.to_dict()),
            "ScanReport": list(report.to_dict()),
        }
        assert keys == {
            "ErrorSpec": ["eps_a", "eps_r", "delta"],
            "SamplePlan": ["n", "spec", "worst_case_exponent"],
            "Certificate": [
                "mu_hat", "n", "eps_a", "eps_r", "delta_achieved", "kind", "no_guarantee", "note",
            ],
            "OptimizationSettings": [
                "theta0", "nu0", "max_iters", "grad_tol", "lambda_cap",
            ],
            "OptimizationOutcome": [
                "theta_star", "lambda_star", "objective_trace", "iterations",
                "termination", "certificate",
            ],
            "ScanReport": ["lemma_id", "grid_description", "violations", "passed"],
        }
        assert list(outcome.to_dict()["certificate"]) == keys["Certificate"]
        assert list(minimum_sample_size(spec).to_dict()["spec"]) == keys["ErrorSpec"]


def test_ci_runs_each_gate_in_one_step():
    # tier1.yml: Install, then `python tests/gates.py NAME` once per gate, then the tier-1 tests
    import gates

    text = (Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml").read_text()
    install, *steps, tier1 = [line.split("run:", 1)[1].strip() for line in text.splitlines() if "run:" in line]
    assert install == "pip install -e '.[test]'" and " -m pytest " in tier1
    names = [step.removeprefix("python tests/gates.py ") for step in steps]
    assert [f"python tests/gates.py {name}" for name in names] == steps
    assert len(set(names)) == len(names)
    assert set(names) == set(gates.GATES)

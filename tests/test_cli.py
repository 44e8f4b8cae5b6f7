"""End-to-end tests of the command-line surface and its exit-code policy."""

import json
from pathlib import Path

import pytest

from probcert import (
    OptimizationSettings,
    ScanReport,
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

    def test_constraint_error_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "plan", "--eps-a", "0.3", "--eps-r", "0.5", "--delta", "0.1")
        assert code == 1
        assert "eps_a/eps_r" in err

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

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "estimate", "--input", str(tmp_path / "nope.txt"), "--eps-a", "0.05", "--eps-r", "0.2")
        assert code == 2


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
        ],
        ids=["negative_seed", "unconvertible_model_param", "nu0_exp_underflows",
             "string_seed", "null_seed", "float_n_scenarios", "string_theta0",
             "string_grad_tol", "null_lambda_cap", "string_certify_eps_a",
             "certify_spec_out_of_range", "certify_spec_missing_delta", "boolean_certify_delta"],
    )
    def test_bad_config_value_exits_one(self, capsys, tmp_path, overrides, named):
        path = write_config(tmp_path, **overrides)
        code, out, err = run_cli(capsys, "optimize", "--config", str(path), "--json")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and named in err

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

    def test_spec_sizing_recorded(self, capsys, tmp_path):
        cfg_path = write_config(tmp_path)
        cfg = json.loads(cfg_path.read_text())
        del cfg["n_scenarios"]
        cfg["spec"] = {"eps_a": 0.05, "eps_r": 0.2, "delta": 0.05}
        cfg["settings"]["max_iters"] = 50
        cfg_path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, "optimize", "--config", str(cfg_path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["run"]["n_scenarios"] == 577

    def test_unwritable_output_is_io_error(self, capsys, tmp_path):
        path = write_config(tmp_path)
        code, _, _ = run_cli(
            capsys, "optimize", "--config", str(path),
            "--output", str(tmp_path / "missing_dir" / "x.json"),
        )
        assert code == 2


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

    def test_negative_seed_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "coverage", "--seed", "-3")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "seed" in err

    def test_unknown_suite_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "nope")
        assert code == 1
        assert "unknown suite" in err

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


class TestUsage:
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

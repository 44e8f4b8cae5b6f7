"""Command-line surface: plan, confidence, estimate, optimize, verify.

Exit codes: 0 success, 1 validation or domain error, 2 I/O error,
3 verification-suite failure.  Structured output is JSON (``--json`` to
stdout, ``--output PATH`` to a file); the default is human-readable text.
Seeds default to DEFAULT_SEED so repeated invocations reproduce bit-identical
results unless the caller opts out.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from typing import Optional

import numpy as np

from .chernoff_opt import OptimizationSettings, make_model, optimize_probability
from .errors import ConfigError, DomainError, ProbcertError, SampleValueError
from .estimator import _check_unit_interval, estimate_from_batch
from .tail_bounds import achieved_confidence, minimum_sample_size, validate_spec
from .verification import (
    GridSpec,
    coverage_experiment,
    domination_experiment,
    lemma56_check,
    lemma_scan,
)

DEFAULT_SEED = 1729

_VERIFY_SUITES = ("lemmas", "lemma56", "coverage", "domination", "all")


class _UsageError(ProbcertError, ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the exit-code policy."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="probcert", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_flags(p, with_delta=True):
        p.add_argument("--eps-a", type=float, required=True, help="absolute error tolerance in (0,1)")
        p.add_argument("--eps-r", type=float, required=True, help="relative error tolerance in (0,1)")
        if with_delta:
            p.add_argument("--delta", type=float, required=True, help="risk bound in (0,1)")

    def add_output_flags(p):
        p.add_argument("--json", action="store_true", help="print machine-readable JSON")
        p.add_argument("--output", type=str, default=None, help="also write the JSON payload to this path")

    p = sub.add_parser("plan", help="minimum sample size for a mixed-error spec")
    add_spec_flags(p)
    add_output_flags(p)

    p = sub.add_parser("confidence", help="smallest certified risk at a given sample count")
    p.add_argument("--n", type=int, required=True, help="sample count")
    add_spec_flags(p, with_delta=False)
    add_output_flags(p)

    p = sub.add_parser("estimate", help="certify a batch file (one value per line)")
    p.add_argument("--input", type=str, required=True, help="path to the sample file")
    add_spec_flags(p, with_delta=False)
    add_output_flags(p)

    p = sub.add_parser("optimize", help="run the scenario-based minimization pipeline")
    p.add_argument("--config", type=str, required=True, help="JSON run configuration")
    p.add_argument("--trace-csv", type=str, default=None, help="write the objective trace as CSV")
    add_output_flags(p)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", type=str, required=True, help=f"one of {_VERIFY_SUITES}")
    p.add_argument("--trials", type=int, default=2000, help="trials per mean for the coverage suite")
    p.add_argument("--points", type=int, default=20, help="random points for the domination suite")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="experiment seed")
    p.add_argument("--eps-a", type=float, default=0.05)
    p.add_argument("--eps-r", type=float, default=0.2)
    p.add_argument("--delta", type=float, default=0.05)
    add_output_flags(p)

    return parser


def _emit(args, payload: dict, human: str) -> None:
    if args.output is not None:
        try:
            with open(args.output, "w") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise _IOFailure(str(exc)) from exc
    print(json.dumps(payload, indent=2) if args.json else human)


class _IOFailure(Exception):
    pass


def _cmd_plan(args) -> int:
    spec = validate_spec(args.eps_a, args.eps_r, args.delta)
    plan = minimum_sample_size(spec)
    payload = plan.to_dict()
    human = (
        f"n = {plan.n} samples certify |mu_hat - mu| < {spec.eps_a} or "
        f"|mu_hat - mu| < {spec.eps_r} * mu with risk < {spec.delta}\n"
        f"worst-case exponent g = {plan.worst_case_exponent:.9g}, "
        f"achieved risk = {achieved_confidence(plan.n, spec.eps_a, spec.eps_r):.6g}"
    )
    _emit(args, payload, human)
    return 0


def _cmd_confidence(args) -> int:
    delta_hat = achieved_confidence(args.n, args.eps_a, args.eps_r)
    no_guarantee = delta_hat >= 1.0
    payload = {
        "n": args.n,
        "eps_a": args.eps_a,
        "eps_r": args.eps_r,
        "delta_achieved": delta_hat,
        "no_guarantee": no_guarantee,
    }
    human = f"delta_achieved = {delta_hat:.6g} at n = {args.n}"
    if no_guarantee:
        human += "  [no guarantee: sample too small to certify any risk below 1]"
    _emit(args, payload, human)
    return 0


def _read_sample_file(path: str) -> np.ndarray:
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise _IOFailure(str(exc)) from exc
    values, linenos = [], []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            values.append(float(text))
        except ValueError:
            raise DomainError(f"line {lineno}: not a decimal number: {text!r}") from None
        linenos.append(lineno)
    if not values:
        raise DomainError(f"no sample values in {path!r}")
    arr = np.array(values)
    try:
        _check_unit_interval(arr)
    except SampleValueError as exc:
        raise DomainError(f"line {linenos[exc.index]}: value {exc.value!r} outside [0, 1]") from None
    return arr


def _cmd_estimate(args) -> int:
    values = _read_sample_file(args.input)
    cert = estimate_from_batch(values, args.eps_a, args.eps_r)
    payload = cert.to_dict()
    human = (
        f"mu_hat = {cert.mu_hat:.12g} from n = {cert.n} samples; "
        f"delta_achieved = {cert.delta_achieved:.6g}"
    )
    if cert.no_guarantee:
        human += "  [no guarantee: sample too small to certify any risk below 1]"
    if cert.note:
        human += f"\nnote: {cert.note}"
    _emit(args, payload, human)
    return 0


def _require(cfg: dict, field: str, kind=object, where: str = ""):
    """cfg[field], present and of JSON type ``kind``; numbers are the library's to check."""
    label = f"{where}{field}"
    if field not in cfg:
        raise ConfigError(label, "missing required field")
    value = cfg[field]
    if not isinstance(value, kind):
        raise ConfigError(label, f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _parse_spec_block(block: dict, where: str):
    values = [_require(block, key, where=f"{where}.") for key in ("eps_a", "eps_r", "delta")]
    try:
        return validate_spec(*values)
    except ProbcertError as exc:
        raise ConfigError(where, str(exc)) from None


def _load_run_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as exc:
        raise _IOFailure(str(exc)) from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config", "top level must be a JSON object")
    return cfg


def _cmd_optimize(args) -> int:
    cfg = _load_run_config(args.config)

    model_name = _require(cfg, "model", str)
    model_params = _require(cfg, "model_params", dict) if "model_params" in cfg else {}
    model = make_model(model_name, **model_params)

    seed = cfg.get("seed", DEFAULT_SEED)

    if ("n_scenarios" in cfg) == ("spec" in cfg):
        raise ConfigError("n_scenarios", "exactly one of n_scenarios and spec is required")
    n_scenarios = cfg.get("n_scenarios")
    scenario_spec = None if "spec" not in cfg else _parse_spec_block(_require(cfg, "spec", dict), "spec")

    settings_cfg = _require(cfg, "settings", dict)
    theta0 = _require(settings_cfg, "theta0", list, where="settings.")
    unknown = set(settings_cfg) - {f.name for f in fields(OptimizationSettings)}
    if unknown:
        raise ConfigError(f"settings.{sorted(unknown)[0]}", "unknown field")
    try:
        settings = OptimizationSettings(**{**settings_cfg, "theta0": tuple(theta0)})
    except DomainError as exc:
        raise ConfigError("settings", str(exc)) from None

    certify_spec = None
    if "certify_spec" in cfg:
        certify_spec = _parse_spec_block(
            _require(cfg, "certify_spec", dict), "certify_spec"
        )

    outcome = optimize_probability(
        model,
        settings,
        seed=seed,
        n_scenarios=n_scenarios,
        scenario_spec=scenario_spec,
        certify_spec=certify_spec,
    )

    payload = {
        "run": {
            "model": model_name,
            "model_params": model_params,
            "seed": seed,
            "n_scenarios": n_scenarios if scenario_spec is None else minimum_sample_size(scenario_spec).n,
            "scenario_spec": None if scenario_spec is None else scenario_spec.to_dict(),
            "certify_spec": None if certify_spec is None else certify_spec.to_dict(),
            "settings": settings.to_dict(),
        },
        "outcome": outcome.to_dict(),
    }

    if args.trace_csv is not None:
        try:
            with open(args.trace_csv, "w") as fh:
                fh.write("iteration,objective\n")
                for i, value in enumerate(outcome.objective_trace):
                    fh.write(f"{i},{value!r}\n")
        except OSError as exc:
            raise _IOFailure(str(exc)) from exc

    human_lines = [
        f"theta_star = {list(outcome.theta_star)}",
        f"lambda_star = {outcome.lambda_star:.9g}",
        f"objective: {outcome.objective_trace[0]:.9g} -> {outcome.objective_trace[-1]:.9g} "
        f"in {outcome.iterations} iterations ({outcome.termination})",
    ]
    if outcome.certificate is not None:
        cert = outcome.certificate
        human_lines.append(
            f"certified p(theta_star): mu_hat = {cert.mu_hat:.6g} "
            f"(n = {cert.n}, delta_achieved = {cert.delta_achieved:.6g})"
        )
    _emit(args, payload, "\n".join(human_lines))
    return 0


def _cmd_verify(args) -> int:
    if args.suite not in _VERIFY_SUITES:
        raise _UsageError(
            f"probcert verify: unknown suite {args.suite!r}; choose from {_VERIFY_SUITES}"
        )
    spec = validate_spec(args.eps_a, args.eps_r, args.delta)
    reports = []

    if args.suite in ("lemmas", "all"):
        for eps in (0.05, 0.1, 0.2, 0.3):
            reports.append(lemma_scan("L2", GridSpec(eps=eps)))
            reports.append(lemma_scan("L3", GridSpec(eps=eps)))
        for eps in (0.1, 0.3, 0.5, 0.9):
            reports.append(lemma_scan("L4", GridSpec(eps=eps)))
    if args.suite in ("lemma56", "all"):
        n = minimum_sample_size(spec).n
        crossover = spec.worst_case_mean
        lower_grid = [crossover * (i + 1) / 10 for i in range(10)]
        upper_grid = [crossover + (1.0 - crossover) * (i + 1) / 11 for i in range(10)]
        reports.append(lemma56_check(spec, lower_grid, n))
        reports.append(lemma56_check(spec, upper_grid, n))
    if args.suite in ("coverage", "all"):
        mu_grid = (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95)
        reports.append(coverage_experiment(spec, mu_grid, args.trials, args.seed))
    if args.suite in ("domination", "all"):
        reports.append(
            domination_experiment("quadratic_well", spec, args.points, args.seed)
        )

    all_passed = all(r.passed for r in reports)
    payload = {
        "suite": args.suite,
        "passed": all_passed,
        "reports": [r.to_dict() for r in reports],
    }
    human = "\n".join(r.to_text() for r in reports)
    human += f"\nsuite {args.suite}: {'PASS' if all_passed else 'FAIL'}"
    _emit(args, payload, human)
    return 0 if all_passed else 3


_DISPATCH = {
    "plan": _cmd_plan,
    "confidence": _cmd_confidence,
    "estimate": _cmd_estimate,
    "optimize": _cmd_optimize,
    "verify": _cmd_verify,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except _IOFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ProbcertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

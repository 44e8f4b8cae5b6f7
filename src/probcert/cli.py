"""Command-line surface: plan, confidence, estimate, optimize, verify.

Exit codes, all set in ``main``: 0 success; 1 validation or domain error, an
input that is not valid text included (its check names the line); 2 a file that
cannot be opened, read or written (an input, ``--output`` or ``--trace-csv``);
3 verification-suite failure.  JSON goes to stdout with ``--json`` and to a file
with ``--output PATH``; stdout is text otherwise.  Seeds default to DEFAULT_SEED
so repeated invocations reproduce bit-identical results unless the caller opts out.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
from dataclasses import MISSING, fields
from itertools import islice
from typing import Iterator, Optional

import numpy as np

from .chernoff_opt import OptimizationSettings, make_model, optimize_probability
from .errors import ConfigError, DomainError, ProbcertError
from .estimator import _DRAW_CHUNK, _certificate, _row_sum
from .tail_bounds import ErrorSpec, _require_pair, achieved_confidence, minimum_sample_size, validate_spec
from .verification import (
    GridSpec,
    coverage_experiment,
    domination_experiment,
    lemma56_check,
    lemma_scan,
)

DEFAULT_SEED = 1729

_VERIFY_SUITES = ("lemmas", "lemma56", "coverage", "domination", "all")
_RUN_FIELDS = ("model", "model_params", "seed", "n_scenarios", "settings", "certify_spec")


class _UsageError(ProbcertError, ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the exit-code policy."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


@functools.cache  # built at the first call, not at import, and reused: parse_args leaves it as it was
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
    p.add_argument("--suite", required=True, choices=_VERIFY_SUITES, help="the suite to run")
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
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    print(json.dumps(payload, indent=2) if args.json else human)


def _cmd_plan(args) -> int:
    spec = validate_spec(args.eps_a, args.eps_r, args.delta)
    plan = minimum_sample_size(spec)
    payload = plan.to_dict()
    # the risk in full: six digits could round it up onto delta
    human = (
        f"n = {plan.n} samples certify |mu_hat - mu| < {spec.eps_a} or "
        f"|mu_hat - mu| < {spec.eps_r} * mu with risk < {spec.delta}\n"
        f"worst-case exponent g = {plan.worst_case_exponent:.9g}, "
        f"achieved risk = {achieved_confidence(plan.n, spec.eps_a, spec.eps_r)!r}"
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


def _nonblank(fh) -> Iterator[list[str]]:
    """fh's lines, stripped, blank ones left out, in lists of ``_DRAW_CHUNK``."""
    lines = filter(None, map(str.strip, fh))
    return iter(lambda: list(islice(lines, _DRAW_CHUNK)), [])


def _first_error(fh) -> Optional[DomainError]:
    """The error of fh's first line that is not a number, else of its first value outside [0, 1]."""
    fh.seek(0)
    outside = None
    for lineno, text in enumerate(map(str.strip, fh), start=1):
        if text:
            try:
                value = float(text)
            except ValueError:
                return DomainError(f"line {lineno}: not a decimal number: {text!r}")
            if outside is None and not 0.0 <= value <= 1.0:
                outside = DomainError(f"line {lineno}: value {value!r} outside [0, 1]")
    return outside


def _cmd_estimate(args) -> int:
    """One pass parses the values by ``float``'s rules and sums them; on an error a second names its line."""
    _require_pair(args.eps_a, args.eps_r)  # before the file is read
    with open(args.input, errors="replace") as fh:
        fh = fh if fh.seekable() else io.StringIO(fh.read())  # a pipe is read whole, to be read again on an error
        try:
            total, n = _row_sum(np.array(lines, dtype=float) for lines in _nonblank(fh))
        except ValueError as exc:  # numpy's, or a SampleValueError: name the line
            raise _first_error(fh) or exc from None
    if not n:
        raise DomainError(f"no sample values in {args.input!r}")
    cert = _certificate(total / n, n, args.eps_a, args.eps_r, "post_hoc")
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


def _require(cfg: dict, field: str, kind=object):
    """cfg[field], present and of JSON type ``kind``; numbers are the library's to check."""
    if field not in cfg:
        raise ConfigError(field, "missing required field")
    value = cfg[field]
    if not isinstance(value, kind):
        raise ConfigError(field, f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _check_fields(cfg: dict, known, where: str = "") -> None:
    """Reject the first key of cfg, in sorted order, that ``known`` lacks."""
    unknown = sorted(set(cfg) - set(known))
    if unknown:
        raise ConfigError(f"{where}{unknown[0]}", "unknown field")


def _build(cls, cfg: dict, key: str):
    """cls(**cfg[key]) from a JSON object of cls's fields: a missing field
    without a default is reported before an unknown one, and the library's
    error as ``key: message``.
    """
    block = _require(cfg, key, dict)
    for f in fields(cls):
        if f.default is MISSING and f.name not in block:
            raise ConfigError(f"{key}.{f.name}", "missing required field")
    _check_fields(block, [f.name for f in fields(cls)], f"{key}.")
    try:
        return cls(**block)
    except ProbcertError as exc:
        raise ConfigError(key, str(exc)) from None


def _load_run_config(path: str) -> dict:
    with open(path, errors="replace") as fh:
        raw = fh.read()
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config", "top level must be a JSON object")
    return cfg


def _cmd_optimize(args) -> int:
    cfg = _load_run_config(args.config)
    _check_fields(cfg, _RUN_FIELDS)

    model_name = _require(cfg, "model", str)
    model_params = _require(cfg, "model_params", dict) if "model_params" in cfg else {}
    model = make_model(model_name, **model_params)

    seed = cfg.get("seed", DEFAULT_SEED)
    n_scenarios = _require(cfg, "n_scenarios")

    settings = _build(OptimizationSettings, cfg, "settings")
    certify_spec = _build(ErrorSpec, cfg, "certify_spec") if "certify_spec" in cfg else None

    outcome = optimize_probability(
        model,
        settings,
        seed=seed,
        n_scenarios=n_scenarios,
        certify_spec=certify_spec,
    )

    payload = {
        "run": {
            "model": model_name,
            "model_params": model_params,
            "seed": seed,
            "n_scenarios": n_scenarios,
            "certify_spec": None if certify_spec is None else certify_spec.to_dict(),
            "settings": settings.to_dict(),
        },
        "outcome": outcome.to_dict(),
    }

    if args.trace_csv is not None:
        with open(args.trace_csv, "w") as fh:
            fh.write("iteration,objective\n")
            for i, value in enumerate(outcome.objective_trace):
                fh.write(f"{i},{value!r}\n")

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
        reports.append(domination_experiment("quadratic_well", spec, args.points, args.seed))

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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ProbcertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

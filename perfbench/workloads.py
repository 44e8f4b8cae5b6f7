"""Workloads of the probcert benchmark: inputs from a seed, jobs, output checks.

A workload turns the benchmark seed into a list of job inputs (``inputs``),
runs one job at a time (``run``) and checks each result against invariants
and analytic truth (``check``), never against values pinned from an earlier
commit, so that a legitimate change of summation order or random stream does
not read as a failure. ``fingerprint`` renders a result exactly; a same-seed
rerun must reproduce it bit for bit.

Jobs call the library through ``probcert`` module attributes at call time,
so the traced mode sees every call.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is recorded in NOTES.md beside this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import probcert as pc
from probcert import cli

# Job seeds are this far apart. verify_all uses the streams seed .. seed + 6
# (seven coverage means), so no job's stream is ever another job's stream.
JOB_SEED_STRIDE = 8
MAX_JOBS = 400


def job_seeds(seed: int, count: int) -> list[int]:
    base = int(np.random.default_rng(seed).integers(1, 2**30))
    return [base + JOB_SEED_STRIDE * i for i in range(count)]


def _non_increasing(trace) -> bool:
    return all(b <= a for a, b in zip(trace, trace[1:]))


def _mixed_criterion_met(mu_hat: float, mu: float, eps_a: float, eps_r: float) -> bool:
    return abs(mu_hat - mu) < eps_a or abs(mu_hat - mu) < eps_r * mu


def _phi(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _quadratic_well_failure_probability(theta: float, sigma: float) -> float:
    """p(theta) = Pr{1 - (theta - D)^2 <= 0} for D ~ Normal(0, sigma^2)."""
    return _phi((theta - 1.0) / sigma) + 1.0 - _phi((theta + 1.0) / sigma)


# -- optimize: the README pipeline --------------------------------------------

OPT_SIGMA = 0.5
OPT_CERTIFY = (0.05, 0.2, 0.05)


def _seed_inputs(seed, count):
    return [{"seed": s} for s in job_seeds(seed, count)]


def _optimize_run(job):
    model = pc.make_model("quadratic_well", sigma=OPT_SIGMA)
    settings = pc.OptimizationSettings(theta0=(0.8,), max_iters=1000)
    return pc.optimize_probability(
        model, settings, seed=job["seed"], n_scenarios=5000,
        certify_spec=pc.validate_spec(*OPT_CERTIFY),
    )


def _optimize_check(job, out):
    problems = []
    if out.termination != "gradient_tol":
        problems.append(f"termination {out.termination} after {out.iterations} iterations")
    if not abs(out.theta_star[0]) <= 0.15:
        problems.append(f"|theta*| = {abs(out.theta_star[0])!r} > 0.15")
    if not _non_increasing(out.objective_trace):
        problems.append("objective trace increases")
    cert = out.certificate
    if cert.n != 577 or not cert.delta_achieved < OPT_CERTIFY[2]:
        problems.append(f"certificate n={cert.n}, delta_achieved={cert.delta_achieved!r}")
    return problems


# -- optimize_at_cap: every scenario survives, lambda runs to its cap ---------

CAP_ROWS = 300
CAP_LAMBDA = 10.0


def _cap_inputs(seed, count):
    return [
        {"seed": s, "rows": np.random.default_rng(s).random((CAP_ROWS, 1))}
        for s in job_seeds(seed, count)
    ]


def _cap_run(job):
    # Y = 2 - delta with delta in (0, 1): no scenario fails
    model = pc.make_model("affine", a=[0.0], b=[-1.0], c=2.0)
    objective = pc.ChernoffObjective(model, pc.ScenarioSet.from_array(job["rows"], seed=job["seed"]))
    settings = pc.OptimizationSettings(theta0=(0.0,), lambda_cap=CAP_LAMBDA, max_iters=3000)
    return pc.minimize(objective, settings)


def _cap_check(job, out):
    problems = []
    if not out.lambda_star <= CAP_LAMBDA:
        problems.append(f"lambda* = {out.lambda_star!r} above the cap")
    if not _non_increasing(out.objective_trace):
        problems.append("objective trace increases")
    if not 0.0 < out.objective_trace[-1] <= 1.0:
        problems.append(f"final objective {out.objective_trace[-1]!r} outside (0, 1]")
    return problems


# -- certify_large: certification at large n, no descent ---------------------

LARGE_MEAN_SPEC = (2e-4, 0.02, 1e-6)  # n = 7,229,021
LARGE_MEAN_N = 7_229_021
LARGE_PROB_SPEC = (2e-3, 0.05, 1e-6)  # n = 282,977
LARGE_PROB_N = 282_977
LARGE_SIGMA = 0.5


def _large_inputs(seed, count):
    jobs = []
    for s in job_seeds(seed, count):
        rng = np.random.default_rng(s)
        jobs.append({"seed": s, "p": float(rng.uniform(0.005, 0.5)), "theta": float(rng.uniform(-0.5, 0.5))})
    return jobs


def _large_run(job):
    mean_cert = pc.estimate_with_plan(
        pc.BernoulliSource(job["p"], seed=job["seed"]), pc.validate_spec(*LARGE_MEAN_SPEC)
    )
    model = pc.make_model("quadratic_well", sigma=LARGE_SIGMA)
    prob_cert = pc.certify_probability(
        model, (job["theta"],), pc.validate_spec(*LARGE_PROB_SPEC),
        pc.ScenarioSource.from_model(model, job["seed"] + 1),
    )
    return mean_cert, prob_cert


def _large_check(job, out):
    problems = []
    truth = (job["p"], _quadratic_well_failure_probability(job["theta"], LARGE_SIGMA))
    planned = (LARGE_MEAN_N, LARGE_PROB_N)
    for cert, (eps_a, eps_r, delta), mu, n in zip(out, (LARGE_MEAN_SPEC, LARGE_PROB_SPEC), truth, planned):
        if cert.n != n:
            problems.append(f"planned n = {cert.n}, expected {n}")
        if not cert.delta_achieved < delta:
            problems.append(f"delta_achieved {cert.delta_achieved!r} >= {delta}")
        if not _mixed_criterion_met(cert.mu_hat, mu, eps_a, eps_r):
            problems.append(f"mu_hat {cert.mu_hat!r} misses the true mean {mu!r}")
    return problems


# -- verify_all: every verification suite through the CLI --------------------


def _verify_run(job):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--suite", "all", "--json", "--seed", str(job["seed"])])
    return code, out.getvalue()


def _verify_check(job, out):
    code, text = out
    problems = [] if code == 0 else [f"exit code {code}"]
    if json.loads(text).get("passed") is not True:
        problems.append("suite did not pass")
    return problems


def fingerprint(out) -> str:
    """A job result rendered exactly; a same-seed rerun must reproduce it."""
    if isinstance(out, pc.OptimizationOutcome):
        return json.dumps(out.to_dict())
    if isinstance(out, tuple) and isinstance(out[0], pc.Certificate):
        return json.dumps([cert.to_dict() for cert in out])
    return repr(out)


@dataclass(frozen=True)
class Workload:
    inputs: Callable  # (seed, count) -> list of job inputs
    run: Callable  # job -> result
    check: Callable  # (job, result) -> list of failed checks
    trace_jobs: int  # jobs a traced run replays; fixed so its counts repeat exactly


WORKLOADS = {
    "optimize": Workload(_seed_inputs, _optimize_run, _optimize_check, trace_jobs=6),
    "optimize_at_cap": Workload(_cap_inputs, _cap_run, _cap_check, trace_jobs=2),
    "certify_large": Workload(_large_inputs, _large_run, _large_check, trace_jobs=10),
    "verify_all": Workload(_seed_inputs, _verify_run, _verify_check, trace_jobs=8),
}

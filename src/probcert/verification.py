"""Executable checks of the package's probabilistic claims.

Four kinds of evidence, all reported as ScanReports:

* exact Bernoulli oracles: the tail-bound inequalities compared against
  exact binomial tail sums (no statistics, no slack);
* monotonicity/domination grid scans of the Hoeffding exponent (the
  structural facts the sample-size derivation rests on);
* uniform-bound checks: the worst-case exponent dominates exact Bernoulli
  tails across each claimed mean range;
* statistical experiments: planned-estimate coverage and the Chernoff
  kernel/moment domination, with fixed seeds and 3-sigma slack.

Grids stay at least 1e-3 away from interval endpoints: the claims are stated
on open intervals and the exponent's logarithms blow up at the boundary.
Strict inequalities are asserted with a 1e-12 margin, which the scanned
quantities clear by many orders of magnitude away from the endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chernoff_opt import (
    ChernoffObjective,
    ScenarioSet,
    ScenarioSource,
    empirical_moment,
    make_model,
    scenario_sample_size,
)
from .errors import DomainError
from .estimator import BernoulliSource, estimate_with_plan
from .tail_bounds import ErrorSpec, hoeffding_exponent, hoeffding_exponent_dmu

__all__ = [
    "GridSpec",
    "ScanReport",
    "binomial_tail_exact",
    "lemma_scan",
    "lemma56_check",
    "coverage_experiment",
    "domination_experiment",
]

_STRICT_MARGIN = 1e-12
_LEMMA_IDS = ("L2", "L3", "L4", "L5", "L6", "coverage", "domination")


@dataclass(frozen=True)
class GridSpec:
    """Scan grid: exponent offset eps, step size, and endpoint margin."""

    eps: float
    step: float = 1e-3
    margin: float = 1e-3

    def __post_init__(self):
        if not self.step > 0.0:
            raise DomainError(f"grid step must be positive, got {self.step!r}")
        if not self.margin >= 1e-3:
            raise DomainError(f"grid margin must be >= 1e-3, got {self.margin!r}")


@dataclass(frozen=True)
class ScanReport:
    """Outcome of one check: passed iff the violation list is empty."""

    lemma_id: str
    grid_description: str
    violations: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.lemma_id not in _LEMMA_IDS:
            raise DomainError(f"unknown lemma id {self.lemma_id!r}")
        object.__setattr__(self, "violations", tuple(self.violations))

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "lemma_id": self.lemma_id,
            "grid_description": self.grid_description,
            "violations": [list(v) for v in self.violations],
            "passed": self.passed,
        }

    def to_text(self) -> str:
        status = "PASS" if self.passed else f"FAIL ({len(self.violations)} violations)"
        lines = [f"[{self.lemma_id}] {status}: {self.grid_description}"]
        for point, values in self.violations[:20]:
            lines.append(f"    at {point}: {values}")
        if len(self.violations) > 20:
            lines.append(f"    ... and {len(self.violations) - 20} more")
        return "\n".join(lines)


def binomial_tail_exact(n: int, mu: float, k: int) -> float:
    """Pr{S <= k} for S ~ Binomial(n, mu), summed term by term in ascending j.

    Terms are formed in log space (lgamma) so large n stays in range; the
    ascending-order sum is accumulated exactly and rounded once.
    """
    if not (isinstance(n, int) and not isinstance(n, bool) and n >= 1):
        raise DomainError(f"n must be a positive integer, got {n!r}")
    if not 0.0 < mu < 1.0:
        raise DomainError(f"mu must lie in (0, 1), got {mu!r}")
    if not (isinstance(k, (int, np.integer)) and 0 <= k <= n):
        raise DomainError(f"k must be an integer in [0, n], got {k!r}")
    log_mu = math.log(mu)
    log_q = math.log1p(-mu)
    log_n_fact = math.lgamma(n + 1)
    terms = (
        math.exp(
            log_n_fact
            - math.lgamma(j + 1)
            - math.lgamma(n - j + 1)
            + j * log_mu
            + (n - j) * log_q
        )
        for j in range(int(k) + 1)
    )
    return min(math.fsum(terms), 1.0)


def _binomial_upper_tail(n: int, mu: float, k: int) -> float:
    """Pr{S >= k}; reuses the lower-tail sum through the S -> n - S symmetry."""
    if k > n:
        return 0.0
    if k <= 0:
        return 1.0
    return binomial_tail_exact(n, 1.0 - mu, n - k)


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    if hi <= lo:
        return np.empty(0)
    return np.arange(lo, hi + step * 1e-9, step)


def _check_strict(claims, violations):
    """claims: iterable of (point, value, sign) with sign +1 for 'value > 0'."""
    for point, value, sign in claims:
        if not sign * value > _STRICT_MARGIN:
            violations.append((point, {"value": value, "expected_sign": sign}))


def _scan_l2(grid: GridSpec) -> ScanReport:
    eps, step, m = grid.eps, grid.step, grid.margin
    if not 0.0 < eps < 0.5:
        raise DomainError(f"L2 requires eps in (0, 1/2), got {eps!r}")
    violations: list = []
    intervals = [
        # (eps sign, lo, hi, monotone direction: +1 increasing, -1 decreasing)
        (eps, m, 0.5 - eps - m, +1),
        (eps, 0.5 + m, 1.0 - eps - m, -1),
        (-eps, eps + m, 0.5 - m, +1),
        (-eps, 0.5 + eps + m, 1.0 - m, -1),
    ]
    for eps_signed, lo, hi, direction in intervals:
        mus = _grid(lo, hi, step)
        _check_strict(
            (
                (("dmu", eps_signed, float(mu)), hoeffding_exponent_dmu(eps_signed, mu), direction)
                for mu in mus
            ),
            violations,
        )
        values = [hoeffding_exponent(eps_signed, mu) for mu in mus]
        _check_strict(
            (
                (("diff", eps_signed, float(mus[i + 1])), values[i + 1] - values[i], direction)
                for i in range(len(values) - 1)
            ),
            violations,
        )
    return ScanReport(
        lemma_id="L2",
        grid_description=f"eps={eps}, step={step}, margin={m}: monotone on four mu-intervals",
        violations=violations,
    )


def _scan_l3(grid: GridSpec) -> ScanReport:
    eps, step, m = grid.eps, grid.step, grid.margin
    if not 0.0 < eps < 0.5:
        raise DomainError(f"L3 requires eps in (0, 1/2), got {eps!r}")
    violations: list = []
    # upper-tail exponent dominates below 1/2, is dominated above; equality
    # holds exactly at mu = 1/2 (symmetry), so both grids exclude it.
    for lo, hi, sign in ((eps + m, 0.5 - m, +1), (0.5 + m, 1.0 - eps - m, -1)):
        _check_strict(
            (
                (
                    (float(mu),),
                    hoeffding_exponent(eps, mu) - hoeffding_exponent(-eps, mu),
                    sign,
                )
                for mu in _grid(lo, hi, step)
            ),
            violations,
        )
    return ScanReport(
        lemma_id="L3",
        grid_description=(
            f"eps={eps}, step={step}, margin={m}: g(eps,.) vs g(-eps,.) on both sides of 1/2"
        ),
        violations=violations,
    )


def _scan_l4(grid: GridSpec) -> ScanReport:
    eps, step, m = grid.eps, grid.step, grid.margin
    if not 0.0 < eps < 1.0:
        raise DomainError(f"L4 requires eps in (0, 1), got {eps!r}")
    violations: list = []
    curves = [
        ("g(eps*mu, mu)", +1.0, m, 1.0 / (1.0 + eps) - m),
        ("g(-eps*mu, mu)", -1.0, m, 1.0 - m),
    ]
    for label, eps_sign, lo, hi in curves:
        mus = _grid(lo, hi, step)
        values = [hoeffding_exponent(eps_sign * eps * mu, mu) for mu in mus]
        _check_strict(
            (
                ((label, float(mus[i + 1])), values[i] - values[i + 1], +1)
                for i in range(len(values) - 1)
            ),
            violations,
        )
    return ScanReport(
        lemma_id="L4",
        grid_description=(
            f"eps={eps}, step={step}, margin={m}: proportional-offset curves decrease in mu"
        ),
        violations=violations,
    )


def lemma_scan(lemma_id: str, grid: GridSpec) -> ScanReport:
    """Grid-scan one of the exponent's structural claims (L2, L3, L4)."""
    scanners = {"L2": _scan_l2, "L3": _scan_l3, "L4": _scan_l4}
    if lemma_id not in scanners:
        raise DomainError(f"lemma_scan supports L2/L3/L4, got {lemma_id!r}")
    return scanners[lemma_id](grid)


def lemma56_check(spec: ErrorSpec, mu_grid, n: int) -> ScanReport:
    """Exact Bernoulli tails against the worst-case uniform bounds.

    For mu <= eps_a/eps_r the lower tail Pr{mean <= mu - eps_a} must stay
    below exp(n g(-eps_a, eps_a/eps_r)); for mu above the crossover the upper
    tail Pr{mean >= (1+eps_r) mu} must stay below exp(n g(eps_a, eps_a/eps_r)).
    The grid must lie entirely in one of the two ranges.
    """
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"n must be a positive integer, got {n!r}")
    mus = [float(mu) for mu in mu_grid]
    if not mus:
        raise DomainError("mu grid is empty")
    crossover = spec.worst_case_mean
    if not all(0.0 < mu < 1.0 for mu in mus):
        raise DomainError("mu grid must lie inside (0, 1)")
    in_lower = all(mu <= crossover for mu in mus)
    in_upper = all(mu > crossover for mu in mus)
    if not (in_lower or in_upper):
        raise DomainError(
            f"mu grid must lie entirely in (0, {crossover}] or ({crossover}, 1)"
        )

    violations: list = []
    if in_lower:
        bound = math.exp(n * hoeffding_exponent(-spec.eps_a, crossover))
        for mu in mus:
            cutoff = mu - spec.eps_a
            tail = 0.0 if cutoff < 0.0 else binomial_tail_exact(n, mu, int(math.floor(n * cutoff)))
            if tail > bound:
                violations.append(((mu,), {"exact_tail": tail, "bound": bound}))
        lemma_id, desc = "L5", f"lower tails at {len(mus)} mu-points in (0, {crossover}], n={n}"
    else:
        bound = math.exp(n * hoeffding_exponent(spec.eps_a, crossover))
        for mu in mus:
            k = int(math.ceil(n * (1.0 + spec.eps_r) * mu))
            tail = _binomial_upper_tail(n, mu, k)
            if tail > bound:
                violations.append(((mu,), {"exact_tail": tail, "bound": bound}))
        lemma_id, desc = "L6", f"upper tails at {len(mus)} mu-points in ({crossover}, 1), n={n}"
    return ScanReport(lemma_id=lemma_id, grid_description=desc, violations=violations)


def coverage_experiment(
    spec: ErrorSpec, mu_grid, trials: int, seed: int
) -> ScanReport:
    """Planned-estimate coverage on Bernoulli sources.

    For each mu, runs `trials` independent planned estimates and counts
    failures of the mixed criterion (both disjuncts evaluated separately).
    Passes when every empirical failure rate is within three binomial
    standard errors above delta.  Use trials >= 1000 for meaningful slack.
    """
    if not (isinstance(trials, int) and trials >= 1):
        raise DomainError(f"trials must be a positive integer, got {trials!r}")
    mus = [float(mu) for mu in mu_grid]
    if not all(0.0 < mu < 1.0 for mu in mus):
        raise DomainError("mu grid must lie inside (0, 1)")
    threshold = spec.delta + 3.0 * math.sqrt(spec.delta * (1.0 - spec.delta) / trials)
    violations: list = []
    for index, mu in enumerate(mus):
        source = BernoulliSource(mu, seed=seed + index)
        failures = 0
        for _ in range(trials):
            cert = estimate_with_plan(source, spec)
            abs_ok = abs(cert.mu_hat - mu) < spec.eps_a
            rel_ok = abs(cert.mu_hat - mu) < spec.eps_r * mu
            if not (abs_ok or rel_ok):
                failures += 1
        rate = failures / trials
        if rate > threshold:
            violations.append(((mu,), {"failure_rate": rate, "threshold": threshold}))
    return ScanReport(
        lemma_id="coverage",
        grid_description=(
            f"{len(mus)} mu-points, {trials} trials each, seed={seed}, "
            f"threshold={threshold:.6f}"
        ),
        violations=violations,
    )


def domination_experiment(
    model_id: str, spec: ErrorSpec, points: int, seed: int
) -> ScanReport:
    """Chernoff domination on a registry model at random (lambda, theta).

    Per point: every summand exp(-lambda Y) must dominate the failure
    indicator exactly (no tolerance), and the surrogate must stay above a
    fresh-sample failure-rate estimate minus three binomial standard errors.
    """
    if not (isinstance(points, int) and points >= 1):
        raise DomainError(f"points must be a positive integer, got {points!r}")
    model = make_model(model_id)
    n = scenario_sample_size(spec)
    objective = ChernoffObjective(model, ScenarioSet.from_model(model, n, seed))
    fresh = ScenarioSource.from_model(model, seed + 1)
    rng = np.random.default_rng(seed + 2)

    violations: list = []
    for _ in range(points):
        lam = float(10.0 ** rng.uniform(-3.0, 1.0))
        theta = rng.uniform(-2.0, 2.0, model.dim_theta)
        point = (lam, tuple(float(t) for t in theta))

        ys = objective.performance_values(theta)
        kernel = np.exp(-lam * ys)
        indicator = (ys <= 0.0).astype(float)
        if not np.all(kernel >= indicator):
            bad = int(np.flatnonzero(kernel < indicator)[0])
            violations.append(
                (point, {"kernel": float(kernel[bad]), "scenario": bad})
            )
            continue

        moment = empirical_moment(objective, lam, theta)
        fresh_rows = fresh.draw(n)
        fails = int(np.count_nonzero(model.evaluate(theta, fresh_rows) <= 0.0))
        p_hat = fails / n
        slack = 3.0 * math.sqrt(p_hat * (1.0 - p_hat) / n)
        if moment < p_hat - slack:
            violations.append(
                (point, {"moment": moment, "p_hat": p_hat, "slack": slack})
            )
    return ScanReport(
        lemma_id="domination",
        grid_description=(
            f"model={model_id}, {points} random (lambda, theta) points, "
            f"n={n}, seed={seed}"
        ),
        violations=violations,
    )

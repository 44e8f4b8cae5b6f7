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
The scans check whole grids at once: one table (``_CLAIMS``) gives each
lemma's claim values as arrays from the one exponent formula of
``tail_bounds``, with numpy's log1p.  Strict inequalities are asserted with
a 1e-12 margin, which the scanned quantities clear by many orders of
magnitude away from the endpoints, and which covers the last-bit gap
between numpy's log1p and the math module's.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .chernoff_opt import ChernoffObjective, ScenarioSet, ScenarioSource, _evaluate, _exp, _moments, make_model
from .errors import DomainError
from .estimator import _COVERAGE, _POINTS, BernoulliSource, _row_sums, _stream
from .tail_bounds import ErrorSpec, _dg, _g, _require_int, _require_real, hoeffding_exponent, minimum_sample_size

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
# a scan grid holds at most this many points (8 MB a float64 array); every
# grid the CLI and the acceptance tests scan has about 1,000
_MAX_GRID_POINTS = 1_000_000
_LEMMA_IDS = ("L2", "L3", "L4", "L5", "L6", "coverage", "domination")


@dataclass(frozen=True)
class GridSpec:
    """Scan grid: exponent offset eps, step size, and endpoint margin."""

    eps: float
    step: float = 1e-3
    margin: float = 1e-3

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _require_real(getattr(self, f.name), f.name))
        if not 0.0 < self.step < math.inf:
            raise DomainError(f"grid step must be positive and finite, got {self.step!r}")
        if not 1e-3 <= self.margin < math.inf:
            raise DomainError(f"grid margin must be >= 1e-3 and finite, got {self.margin!r}")


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
        return {**asdict(self), "passed": self.passed}

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
    n = _require_int(n, "n", 1)
    if not 0.0 < mu < 1.0:
        raise DomainError(f"mu must lie in (0, 1), got {mu!r}")
    k = _require_int(k, "k", 0)
    if k > n:
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
        for j in range(k + 1)
    )
    return min(math.fsum(terms), 1.0)


def _binomial_upper_tail(n: int, mu: float, k: int) -> float:
    """Pr{S >= k}; reuses the lower-tail sum through the S -> n - S symmetry."""
    if k > n:
        return 0.0
    if k <= 0:
        return 1.0
    return binomial_tail_exact(n, 1.0 - mu, n - k)


def _mu_grid(mu_grid) -> list[float]:
    """The means of a check as floats: a nonempty list of numbers inside (0, 1)."""
    mus = [_require_real(mu, "mu grid entry") for mu in mu_grid]
    if not mus:
        raise DomainError("mu grid is empty")
    if not all(0.0 < mu < 1.0 for mu in mus):
        raise DomainError("mu grid must lie inside (0, 1)")
    return mus


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    # counted before np.arange, which would try to allocate the whole grid
    if hi > lo and (hi - lo) / step >= _MAX_GRID_POINTS:
        raise DomainError(
            f"scan grid [{lo}, {hi}] with step {step} has more than {_MAX_GRID_POINTS:,} points"
        )
    mus = np.arange(lo, hi + step * 1e-9, step) if hi > lo else np.empty(0)
    if mus.size < 2:
        raise DomainError(f"scan grid [{lo}, {hi}] with step {step} has fewer than two points")
    return mus


def _inside(eps, mus: np.ndarray) -> np.ndarray:
    """mus, once every mu and mu + eps lie strictly inside (0, 1)."""
    ends = mus + eps
    if not np.all((0.0 < mus) & (mus < 1.0) & (0.0 < ends) & (ends < 1.0)):
        raise DomainError("scan grid must keep mu and mu + eps inside (0, 1)")
    return mus


def _l2_claims(eps: float, step: float, m: float):
    """Signs of dg/dmu, and of successive differences of g, on four intervals."""
    for eps_signed, lo, hi, direction in (
        # (eps sign, lo, hi, monotone direction: +1 increasing, -1 decreasing)
        (eps, m, 0.5 - eps - m, +1),
        (eps, 0.5 + m, 1.0 - eps - m, -1),
        (-eps, eps + m, 0.5 - m, +1),
        (-eps, 0.5 + eps + m, 1.0 - m, -1),
    ):
        mus = _inside(eps_signed, _grid(lo, hi, step))
        yield ("dmu", eps_signed), mus, _dg(eps_signed, mus, np.log1p), direction
        values = _g(eps_signed, mus, np.log1p)
        yield ("diff", eps_signed), mus[1:], np.diff(values), direction


def _l3_claims(eps: float, step: float, m: float):
    """g(eps, mu) - g(-eps, mu): positive below 1/2, negative above."""
    # equality holds exactly at mu = 1/2 (symmetry), so both grids exclude it
    for lo, hi, sign in ((eps + m, 0.5 - m, +1), (0.5 + m, 1.0 - eps - m, -1)):
        mus = _inside(-eps, _inside(eps, _grid(lo, hi, step)))
        yield (), mus, _g(eps, mus, np.log1p) - _g(-eps, mus, np.log1p), sign


def _l4_claims(eps: float, step: float, m: float):
    """Successive decreases of g(eps*mu, mu) and g(-eps*mu, mu)."""
    for label, eps_sign, lo, hi in (
        ("g(eps*mu, mu)", +1.0, m, 1.0 / (1.0 + eps) - m),
        ("g(-eps*mu, mu)", -1.0, m, 1.0 - m),
    ):
        mus = _grid(lo, hi, step)
        offsets = eps_sign * eps * mus
        values = _g(offsets, _inside(offsets, mus), np.log1p)
        yield (label,), mus[1:], -np.diff(values), +1


# lemma id -> (eps upper bound, as worded, what the scan shows, claims on a grid)
_CLAIMS = {
    "L2": (0.5, "1/2", "monotone on four mu-intervals", _l2_claims),
    "L3": (0.5, "1/2", "g(eps,.) vs g(-eps,.) on both sides of 1/2", _l3_claims),
    "L4": (1.0, "1", "proportional-offset curves decrease in mu", _l4_claims),
}


def _strict(prefix: tuple, mus: np.ndarray, values: np.ndarray, sign: int) -> list:
    """Violations of sign * value > margin; the point of values[i] is (*prefix, mus[i])."""
    failing = np.flatnonzero(~(sign * values > _STRICT_MARGIN))
    return [
        ((*prefix, float(mus[i])), {"value": float(values[i]), "expected_sign": sign})
        for i in failing
    ]


def lemma_scan(lemma_id: str, grid: GridSpec) -> ScanReport:
    """Grid-scan one of the exponent's structural claims (L2, L3, L4)."""
    if lemma_id not in _CLAIMS:
        raise DomainError(f"lemma_scan supports L2/L3/L4, got {lemma_id!r}")
    eps_max, eps_max_text, shows, claims = _CLAIMS[lemma_id]
    eps, step, m = grid.eps, grid.step, grid.margin
    if not 0.0 < eps < eps_max:
        raise DomainError(f"{lemma_id} requires eps in (0, {eps_max_text}), got {eps!r}")
    violations: list = []
    for prefix, mus, values, sign in claims(eps, step, m):
        violations += _strict(prefix, mus, values, sign)
    return ScanReport(
        lemma_id=lemma_id,
        grid_description=f"eps={eps}, step={step}, margin={m}: {shows}",
        violations=violations,
    )


def lemma56_check(spec: ErrorSpec, mu_grid, n: int) -> ScanReport:
    """Exact Bernoulli tails against the worst-case uniform bounds.

    For mu <= eps_a/eps_r the lower tail Pr{mean <= mu - eps_a} must stay
    below exp(n g(-eps_a, eps_a/eps_r)); for mu above the crossover the upper
    tail Pr{mean >= (1+eps_r) mu} must stay below exp(n g(eps_a, eps_a/eps_r)).
    The grid must lie entirely in one of the two ranges.
    """
    _require_int(n, "n", 1)
    mus = _mu_grid(mu_grid)
    crossover = spec.worst_case_mean
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
    The trials of mu number i are drawn in blocks from coverage child i of
    ``seed``, consumed in the same order as `trials` sequential
    ``estimate_with_plan`` calls on a source of that stream, so each trial's
    estimate is bit-identical to theirs.  Passes when every empirical
    failure rate is within three binomial standard errors above delta.  Use
    trials >= 1000 for meaningful slack.
    """
    trials = _require_int(trials, "trials", 1)
    mus = _mu_grid(mu_grid)
    streams = [_stream(seed, _COVERAGE, index) for index in range(len(mus))]  # checks the seed
    threshold = spec.delta + 3.0 * math.sqrt(spec.delta * (1.0 - spec.delta) / trials)
    n = minimum_sample_size(spec).n
    violations: list = []
    for mu, stream in zip(mus, streams):
        source = BernoulliSource(mu, seed)
        source._rng = stream  # mean i's own child of the seed
        errors = np.abs(np.array(_row_sums(source.draw, trials, n)) / n - mu)
        failures = int(np.count_nonzero(~((errors < spec.eps_a) | (errors < spec.eps_r * mu))))
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
    The frozen scenarios, the fresh draws and the random points come from the
    scenario, certification and points children of ``seed``.
    """
    _require_int(points, "points", 1)
    model = make_model(model_id)
    n = minimum_sample_size(spec).n
    objective = ChernoffObjective(model, ScenarioSet.from_model(model, n, seed))
    fresh = ScenarioSource.from_model(model, seed)
    rng = _stream(seed, _POINTS)

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

        moment = _exp(_moments(ys, lam)[0])  # empirical_moment, from the ys above
        fails = int(np.count_nonzero(_evaluate(model, theta, fresh.draw(n)) <= 0.0))
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

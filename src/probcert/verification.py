"""Executable checks of the package's probabilistic claims.

Four kinds of evidence, all reported as ScanReports:

* Bernoulli oracles: the tail-bound inequalities against binomial tails,
  exact sums of lgamma-formed terms whose error grows with n (no slack);
* structural checks of the Hoeffding exponent (L2-L4) on closed
  mu-intervals, each settled by its value at an interval end (below);
* uniform-bound checks (L5, L6): Bernoulli tails against the worst-case
  bound at the grid's means only (the CLI's: 10 per range), not between them;
* Monte Carlo experiments: planned-estimate coverage and the Chernoff
  kernel/moment domination, with fixed seeds and 3-sigma slack.

The lemma checks sample no grid.  Each claim is the sign of a quantity built
from ``tail_bounds``' g and its partials on a closed interval kept 1e-3
inside the open one it is stated on.  A convexity fact, proved in its
``_l*_claims`` docstring, puts the quantity's extreme over the interval at
one end, so one value there decides it.  That value must clear a 1e-12
margin, far above its rounding error: at every end the CLI checks it is
within 1e-15 of a 50-digit evaluation, and above 1e-6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chernoff_opt import ScenarioSet, ScenarioSource, _evaluate, _exp, _log_moment, certify_probability, make_model
from .errors import DomainError
from .estimator import _COVERAGE, _DRAW_CHUNK, _POINTS, BernoulliSource, _stream
from .tail_bounds import (ErrorSpec, _Record, _dg, _dg_eps, _g, _require_int, _require_real, _require_type,
                          lower_tail_bound, minimum_sample_size, upper_tail_bound)

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
    """Lemma check: exponent offset eps, and the margin that keeps each closed
    interval inside the open one its claim is stated on.  ``step`` is
    validated but read by no check: each claim is settled at an interval end."""

    eps: float
    step: float = 1e-3
    margin: float = 1e-3

    def __post_init__(self):
        for name, low in (("eps", None), ("step", 0), ("margin", None)):
            object.__setattr__(self, name, _require_real(getattr(self, name), name, low))
        if not 1e-3 <= self.margin < math.inf:
            raise DomainError(f"grid margin must be >= 1e-3 and finite, got {self.margin!r}")


@dataclass(frozen=True)
class ScanReport(_Record):
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
        return {**super().to_dict(), "passed": self.passed}

    def to_text(self) -> str:
        status = "PASS" if self.passed else f"FAIL ({len(self.violations)} violations)"
        lines = [f"[{self.lemma_id}] {status}: {self.grid_description}"]
        for point, values in self.violations[:20]:
            lines.append(f"    at {point}: {values}")
        if len(self.violations) > 20:
            lines.append(f"    ... and {len(self.violations) - 20} more")
        return "\n".join(lines)


def binomial_tail_exact(n: int, mu: float, k: int) -> float:
    """Pr{S <= k} for S ~ Binomial(n, mu), n < 2**53, summed term by term in ascending j.

    Each term is exp of lgamma differences, so large n stays in range, and the
    sum of the computed terms is exact and rounded once.  The differences cancel:
    the relative error against a 40-digit sum is 1.4e-16 at n = 577, 1.7e-10 at
    282,977, 1.6e-8 at 7,229,021 and 2.2e-7 at 429,322,469.  The lgamma values are
    tabulated once, 16 B per term (``_binomial_tails``): memory grows with k, not n.
    """
    n, mu, k = _require_int(n, "n", 1), _require_real(mu, "mu", 0, 1), _require_int(k, "k", 0)
    if k > n:
        raise DomainError(f"k must be an integer in [0, n], got {k!r}")
    return _binomial_tails(n, [(mu, k)])[0]


def _binomial_tails(n: int, pairs) -> list[float]:
    """``binomial_tail_exact(n, mu, k)`` for each (mu, k) pair, bit for bit,
    and 0.0 where k < 0; mu is valid by the caller's checks, n < 2**53 by this one.

    lgamma(j + 1) and lgamma(n - j + 1) are tabulated once for j up to the
    largest k, 16 B per term, and shared by every pair.  Each term's exponent
    lgamma(n + 1) - lgamma(j + 1) - lgamma(n - j + 1) + j log mu + (n - j) log(1 - mu)
    is built with numpy in that order, a block of ``_DRAW_CHUNK`` at a time, from
    the scalar one's IEEE operations (j and n - j are exact doubles), and cancels,
    so its error grows with n.  One generator per pair yields ``math.exp`` of
    each into one ``math.fsum``: the computed terms' exact sum, rounded once.
    """
    if n >= 2**53:  # j and n - j would not all be exact doubles
        raise DomainError(f"n must be below 2**53, got {n!r}")
    top = max(0, *(k + 1 for _, k in pairs))
    log_j_fact = np.fromiter(map(math.lgamma, range(1, top + 1)), float, top)
    log_rest_fact = np.fromiter(map(math.lgamma, range(n + 1, n + 1 - top, -1)), float, top)
    log_n_fact = math.lgamma(n + 1)

    def terms(mu: float, k: int):
        log_mu, log_q = math.log(mu), math.log1p(-mu)
        for start in range(0, k + 1, _DRAW_CHUNK):
            stop = min(start + _DRAW_CHUNK, k + 1)
            j = np.arange(start, stop, dtype=float)
            e = log_n_fact - log_j_fact[start:stop]
            e -= log_rest_fact[start:stop]
            e += j * log_mu
            e += (n - j) * log_q
            yield from map(math.exp, e.tolist())

    return [min(math.fsum(terms(mu, k)), 1.0) for mu, k in pairs]


def _mu_grid(mu_grid) -> list[float]:
    """The means of a check as floats: a nonempty list of numbers inside (0, 1)."""
    try:
        entries = iter(mu_grid)
    except TypeError:  # a number, None, a 0-d array
        raise DomainError(f"mu grid must be an iterable of numbers, got {mu_grid!r}") from None
    mus = [_require_real(mu, "mu grid entry", 0, 1) for mu in entries]
    if not mus:
        raise DomainError("mu grid is empty")
    return mus


def _end(lo: float, hi: float, sign: int) -> float:
    """hi for sign +1, lo for -1, of a closed interval [lo, hi] with more than one point."""
    if not lo < hi:
        raise DomainError(f"scan interval [{lo}, {hi}] has fewer than two points")
    return hi if sign > 0 else lo


def _l2_claims(eps: float, m: float):
    """g(+-eps, .) is monotone on four intervals: dg/dmu decreases, as
    d2g/dmu2 = -eps^2 [1/(mu^2 (mu + eps)) + 1/((1 - mu)^2 (1 - mu - eps))] < 0
    for either sign of eps, so its sign is decided at hi if +, at lo if -."""
    for e, lo, hi, sign in (
        # (signed eps, lo, hi, monotone direction: +1 increasing, -1 decreasing)
        (eps, m, 0.5 - eps - m, +1),
        (eps, 0.5 + m, 1.0 - eps - m, -1),
        (-eps, eps + m, 0.5 - m, +1),
        (-eps, 0.5 + eps + m, 1.0 - m, -1),
    ):
        mu = _end(lo, hi, sign)
        yield ("dg/dmu", e, mu), _dg(e, mu), sign


def _l3_claims(eps: float, m: float):
    """D = g(eps, .) - g(-eps, .) is positive below 1/2 and negative above.

    g(eps, mu) = g(-eps, 1 - mu) makes D odd about 1/2, and below 1/2
    D'' = 2 eps^3 [1/(mu^2 (mu^2 - eps^2)) - 1/((1 - mu)^2 ((1 - mu)^2 - eps^2))] > 0,
    so D is convex there and concave above.  So D' < 0 at the end nearer 1/2
    makes D decrease on the whole interval, with its extreme at that end.
    """
    for lo, hi, sign in ((eps + m, 0.5 - m, +1), (0.5 + m, 1.0 - eps - m, -1)):
        mu = _end(lo, hi, sign)
        yield ("D", mu), _g(eps, mu) - _g(-eps, mu), sign
        yield ("dD/dmu", mu), _dg(eps, mu) - _dg(-eps, mu), -1


def _l4_claims(eps: float, m: float):
    """f(mu) = g(c mu, mu) decreases for c = +-eps: f' = c dg/deps + dg/dmu at
    (c mu, mu) is negative at lo and decreases, as with a = 1 + c and
    r = (1 - a mu)/(1 - mu), f' = a (1 + ln(r/a)) - r and f'' = r' (a/r - 1)
    < 0: r' = (1 - a)/(1 - mu)^2 and a/r - 1 have opposite signs."""
    for label, c, hi in (
        ("d/dmu g(eps*mu, mu)", eps, 1.0 / (1.0 + eps) - m),
        ("d/dmu g(-eps*mu, mu)", -eps, 1.0 - m),
    ):
        mu = _end(m, hi, -1)
        yield (label, mu), c * _dg_eps(c * mu, mu) + _dg(c * mu, mu), -1


# lemma id -> (eps upper bound, what a pass shows, claims at interval ends)
_CLAIMS = {
    "L2": (0.5, "monotone on four mu-intervals", _l2_claims),
    "L3": (0.5, "g(eps,.) vs g(-eps,.) on both sides of 1/2", _l3_claims),
    "L4": (1.0, "proportional-offset curves decrease in mu", _l4_claims),
}


def lemma_scan(lemma_id: str, grid: GridSpec) -> ScanReport:
    """Check one of the exponent's structural claims (L2, L3, L4) on closed
    mu-intervals; a pass holds at every mu of each (see ``_l*_claims``).  A
    violation's point is the quantity, the signed eps for L2, and the mu.
    """
    if lemma_id not in _CLAIMS:
        raise DomainError(f"lemma_scan supports L2/L3/L4, got {lemma_id!r}")
    _require_type(grid, GridSpec, "lemma_scan")
    eps_max, shows, claims = _CLAIMS[lemma_id]
    eps, m = _require_real(grid.eps, f"{lemma_id} eps", 0, eps_max), grid.margin
    violations = [
        (point, {"value": value, "expected_sign": sign})
        for point, value, sign in claims(eps, m)
        if not sign * value > _STRICT_MARGIN
    ]
    return ScanReport(
        lemma_id=lemma_id,
        grid_description=f"eps={eps}, margin={m}: {shows}, at every mu of each closed interval",
        violations=violations,
    )


def lemma56_check(spec: ErrorSpec, mu_grid, n: int) -> ScanReport:
    """Exact Bernoulli tails against the worst-case uniform bounds.

    For mu <= eps_a/eps_r the lower tail Pr{mean <= mu - eps_a} must stay
    below exp(n g(-eps_a, eps_a/eps_r)); for mu above the crossover the upper
    tail Pr{mean >= (1+eps_r) mu} must stay below exp(n g(eps_a, eps_a/eps_r)).
    The grid must lie entirely in one of the two ranges.
    """
    _require_type(spec, ErrorSpec, "lemma56_check")
    _require_int(n, "n", 1)
    mus = _mu_grid(mu_grid)
    crossover = spec.worst_case_mean
    # (p, k) of each tail as Pr{Binomial(n, p) <= k}, which is 0 for k < 0
    if all(mu <= crossover for mu in mus):  # Pr{S <= n (mu - eps_a)}
        lemma_id, tail_bound, desc = "L5", lower_tail_bound, f"lower tails at {len(mus)} mu-points in (0, {crossover}]"
        pairs = [(mu, math.floor(n * (mu - spec.eps_a))) for mu in mus]
    elif all(mu > crossover for mu in mus):  # Pr{S >= k} = Pr{n - S <= n - k}, n - S ~ Binomial(n, 1 - mu)
        lemma_id, tail_bound, desc = "L6", upper_tail_bound, f"upper tails at {len(mus)} mu-points in ({crossover}, 1)"
        pairs = [(1.0 - mu, n - math.ceil(n * (1.0 + spec.eps_r) * mu)) for mu in mus]  # k = ceil(n (1 + eps_r) mu)
    else:
        raise DomainError(f"mu grid must lie entirely in (0, {crossover}] or ({crossover}, 1)")
    bound = tail_bound(n, spec.eps_a, crossover)
    tails = zip(mus, _binomial_tails(n, pairs))
    violations = [((mu,), {"exact_tail": tail, "bound": bound}) for mu, tail in tails if tail > bound]
    return ScanReport(lemma_id=lemma_id, grid_description=f"{desc}, n={n}", violations=violations)


def coverage_experiment(
    spec: ErrorSpec, mu_grid, trials: int, seed: int
) -> ScanReport:
    """Planned-estimate coverage on Bernoulli sources.

    For each mu, runs `trials` independent planned estimates and counts
    failures of the mixed criterion (both disjuncts evaluated separately).
    The trials of mu number i come from a Bernoulli source on coverage child
    i of ``seed`` (its ties on that child's tie child), in the order of
    `trials` sequential ``estimate_with_plan`` calls on that source, so each
    trial's estimate is bit-identical to theirs.  ``BernoulliSource._row_counts``
    counts them: trials that share a block are summed from its booleans, and a
    trial that shares no block with another is reduced from the source's
    ``_row``, counted from its byte lanes as a planned estimate is.  Passes when
    every empirical failure rate is within three binomial standard errors
    above delta.  Use trials >= 1000 for meaningful slack.
    """
    _require_type(spec, ErrorSpec, "coverage_experiment")
    trials = _require_int(trials, "trials", 1)
    mus = _mu_grid(mu_grid)
    _require_int(seed, "seed", 0)
    n = minimum_sample_size(spec).n
    threshold = spec.delta + 3.0 * math.sqrt(spec.delta * (1.0 - spec.delta) / trials)
    violations: list = []
    for index, mu in enumerate(mus):
        source = BernoulliSource(mu, seed, _key=(_COVERAGE, index))
        errors = np.abs(source._row_counts(trials, n) / n - mu)
        failures = int(np.count_nonzero(~((errors < spec.eps_a) | (errors < spec.eps_r * mu))))
        rate = failures / trials
        if rate > threshold:
            violations.append(((mu,), {"failure_rate": rate, "threshold": threshold}))
    desc = f"{len(mus)} mu-points, {trials} trials each, seed={seed}, threshold={threshold:.6f}"
    return ScanReport(lemma_id="coverage", grid_description=desc, violations=violations)


def domination_experiment(model_id: str, spec: ErrorSpec, points: int, seed: int) -> ScanReport:
    """Chernoff domination on a registry model at random (lambda, theta).

    Per point: every summand exp(-lambda Y) must dominate the failure
    indicator exactly (no tolerance), and the surrogate must stay above the
    fresh failure rate, ``certify_probability``'s planned mu_hat, minus three
    binomial standard errors.  The frozen scenarios, the fresh rows (one
    source, certified on by each point in turn) and the random points come
    from the scenario, certification and points children of ``seed``.
    Each point is checked in its own scope, which its Y leaves with it: beside
    the frozen rows, a point holds its Y and one n-length work array at a
    time, the kernel, formed in place, then the moment's weights.
    """
    _require_type(spec, ErrorSpec, "domination_experiment")
    _require_int(points, "points", 1)
    model = make_model(model_id)
    n = minimum_sample_size(spec).n
    scenarios = ScenarioSet.from_model(model, n, seed).scenarios
    fresh = ScenarioSource.from_model(model, seed)
    rng = _stream(seed, _POINTS)

    def violation(lam: float, theta: np.ndarray):  # the point's violation values, or None
        ys = _evaluate(model, theta, scenarios)
        kernel = -lam * ys
        below = np.exp(kernel, out=kernel) < (ys <= 0.0)
        if below.any():
            bad = int(np.argmax(below))
            return {"kernel": float(kernel[bad]), "scenario": bad}
        del kernel, below  # the moment's weights take their place
        moment = _exp(_log_moment(ys, lam))  # empirical_moment, from the ys above
        p_hat = certify_probability(model, theta, spec, fresh).mu_hat
        slack = 3.0 * math.sqrt(p_hat * (1.0 - p_hat) / n)
        return {"moment": moment, "p_hat": p_hat, "slack": slack} if moment < p_hat - slack else None

    violations: list = []
    for _ in range(points):
        lam = float(10.0 ** rng.uniform(-3.0, 1.0))
        theta = rng.uniform(-2.0, 2.0, model.dim_theta)
        values = violation(lam, theta)
        if values is not None:
            violations.append(((lam, tuple(float(t) for t in theta)), values))
    desc = f"model={model_id}, {points} random (lambda, theta) points, n={n}, seed={seed}"
    return ScanReport(lemma_id="domination", grid_description=desc, violations=violations)

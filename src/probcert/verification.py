"""Executable checks of the package's probabilistic claims.

Four kinds of evidence, all reported as ScanReports:

* Bernoulli oracles: the tail-bound inequalities against binomial tails summed
  from Loader's terms, to 1e-12 relative and in memory constant in n (no slack);
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
from .estimator import _COVERAGE, _DRAW_CHUNK, _POINTS, BernoulliSource, _extract, _stream
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
    """Pr{S <= k} for S ~ Binomial(n, mu), n < 2**53, from Loader's saddle-point terms
    (``_binomial_tails``), in memory constant in n and k.  Against a 40-digit sum its
    relative error is below 1e-12 for n up to 1e9 wherever the tail is at least 1e-300,
    and ``np.exp`` and ``np.log`` may move it by an ulp across numpy's CPU dispatch."""
    n, mu, k = _require_int(n, "n", 1), _require_real(mu, "mu", 0, 1), _require_int(k, "k", 0)
    if k > n:
        raise DomainError(f"k must be an integer in [0, n], got {k!r}")
    return _binomial_tails(n, [(mu, k)])[0]


# Loader's stirlerr(x) = ln x! - (x + 1/2) ln x + x - ln(2 pi)/2 to x = 15 (x = 0 reads 0), and bd0's series in v^2
_STIRLERR = np.array([0.0, *(math.lgamma(x + 1.0) - (x + 0.5) * math.log(x) + x - 0.5 * math.log(2.0 * math.pi)
                             for x in range(1, 16))])
_BD0_SERIES = [2.0 / i for i in range(25, 2, -2)]  # 2/25, ..., 2/3


def _stirlerr(x: np.ndarray) -> np.ndarray:
    """stirlerr of whole x >= 0: the table to 15, then Stirling's series to x^-9, whose rest is below 2e-16."""
    big = np.maximum(x, 16.0)
    w = 1.0 / (big * big)
    series = (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w * (1 / 1680 - w / 1188)))) / big
    return np.where(x < 16.0, _STIRLERR.take(x.astype(np.intp), mode="clip"), series)


def _bd0(x: np.ndarray, m: np.ndarray, d: np.ndarray) -> np.ndarray:
    """x ln(x/m) + m - x >= 0 for d = x - m (x = 0 reads m); where |v| < 1/4, v = d/(x + m), Loader's series
    v (d + x (2 v^2/3 + 2 v^4/5 + ...)) to v^24, whose rest is below 2^-54 of it: no rounding of a log cancels."""
    v = d / (x + m)
    w = v * v
    s = _BD0_SERIES[0] * w
    for c in _BD0_SERIES[1:]:
        s += c
        s *= w
    return np.where(w < 0.0625, v * (d + x * s), x * np.log(np.maximum(x, 1.0) / m) - d)


def _binomial_tails(n: int, pairs) -> list[float]:
    """``binomial_tail_exact(n, mu, k)`` for each (mu, k) pair, and 0.0 where k < 0; mu is valid by the
    caller's checks, n < 2**53 by this one, so that every count is an exact double.  Below the mean n mu,
    Pr{S <= k} is summed down from k; at or above it Pr{n - S <= n - k - 1} is, and the tail is 1 minus it.
    For the summed count's probability p, term j is exp of Loader's (2000) stirlerr(n) - stirlerr(j)
    - stirlerr(n - j) - ln(2 pi j (n - j) / n) / 2 - bd0(j, n p) - bd0(n - j, n (1 - p)) (term 0 keeps
    the bd0 alone), each count less its mean taken from n mu's exact product.  The windows advance
    together, at most ``_DRAW_CHUNK`` terms at a time (96, 192, ... wide): memory is constant in n and k.
    One ends at j = 0 or where the bound term(j) r / (1 - r) on the rest, r = j (1 - p) / ((n - j + 1) p)
    the largest ratio of terms below j, is at most 2^-60 of its sum.  The terms' exact sum (``_extract``)
    plus that bound is rounded once, so a tail below the mean never reads low; every step is elementwise
    or along a row, so a pair's tail does not depend, by a bit, on the pairs that share its call.
    """
    if n >= 2**53:  # j and n - j would not all be exact doubles
        raise DomainError(f"n must be below 2**53, got {n!r}")
    mu, k = np.array(pairs, dtype=float).reshape(-1, 2).T
    nf, c = float(n), 134217729.0  # 2^27 + 1: Veltkamp's halves of n and mu, and Dekker's product of them
    (n1, n2), (m1, m2) = ((h, y - h) for y in (nf, mu) for h in [c * y - (c * y - y)])
    p, q = nf * mu, nf - nf * mu
    p_lo = ((n1 * m1 - p) + n1 * m2 + n2 * m1) + n2 * m2  # n mu = p + p_lo exactly
    q_lo = ((nf - q) - p) - p_lo  # n (1 - mu) = q + q_lo, to about 2^-106 of it
    upper = k >= p
    top = np.where(upper, nf - k - 1.0, k)
    hi, lo = np.where(upper, [[q, p], [q_lo, p_lo]], [[p, q], [p_lo, q_lo]])  # the summed count's mean, the other's
    means = np.maximum(hi + lo, 2.0**-900)  # x / m finite in _bd0: raises only upper tails' n mu, which read 1
    stir_n = _stirlerr(np.array(nf))
    parts, rest = [[] for _ in range(mu.size)], np.zeros(mu.size)  # exact partials; rounded sum, then rest's bound
    active, start, width = np.flatnonzero(top >= 0), 0, 96
    while active.size:
        width = max(1, min(width, _DRAW_CHUNK // active.size))
        j = np.maximum(top[active, None] - np.arange(start, start + width), 0.0)
        x = np.stack([j, nf - j])  # the two counts, and then each less its mean, rounded once
        d = (x - hi[:, active, None]) - lo[:, active, None]
        m = means[:, active, None]
        bd0, st = _bd0(x, m, d), _stirlerr(x)
        half_log = 0.5 * np.log(2.0 * math.pi * np.maximum(j, 1.0) * (x[1] / nf))
        terms = np.exp(np.where(j > 0, stir_n - st[0] - st[1] - half_log, 0.0) - bd0[0] - bd0[1])
        ratio = j * m[1] / ((x[1] + 1.0) * m[0])  # term(j - 1) / term(j), which falls as j does
        partial = np.cumsum(np.concatenate([rest[active, None], terms], axis=1), axis=1)[:, 1:]  # whatever the widths
        stop = terms * ratio <= 2.0**-60 * partial * (1.0 - ratio)  # at j = 0 too, where ratio is 0
        last, done = np.argmax(stop, axis=1), stop.any(axis=1)
        terms[np.arange(width) > np.where(done, last, width)[:, None]] = 0.0  # past each window's end
        _extract(terms, [parts[i] for i in active])
        rest[active] = partial[:, -1]
        r = ratio[done, last[done]]
        rest[active[done]] = terms[done, last[done]] * r / (1.0 - r)
        active, start, width = active[~done], start + width, 2 * width
    tails = (math.fsum([*part, bound]) for part, bound in zip(parts, rest.tolist()))
    return [1.0 - tail if up else tail for tail, up in zip(tails, upper.tolist())]


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

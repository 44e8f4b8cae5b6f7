"""Hoeffding tail exponents and mixed-criterion sample sizing.

The central object is the exponent

    g(eps, mu) = (mu + eps) ln(mu / (mu + eps))
               + (1 - mu - eps) ln((1 - mu) / (1 - mu - eps))

which controls the exponential decay rate of deviation probabilities for
means of [0, 1]-bounded i.i.d. samples:  Pr{mean >= mu + eps} <= exp(n g(eps, mu))
and Pr{mean <= mu - eps} <= exp(n g(-eps, mu)).

On top of it sits the mixed absolute/relative error criterion: an estimate
mu_hat is acceptable when |mu_hat - mu| < eps_a OR |mu_hat - mu| < eps_r * mu.
``minimum_sample_size`` returns the smallest n for which the acceptance event
has probability > 1 - delta, uniformly over the unknown mean; the worst case
sits at mu = eps_a / eps_r, where the two tolerances coincide.

All functions here are pure and reentrant.  The only shared state is the
thread-safe memo of ``minimum_sample_size``, which holds immutable plans.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import DomainError, InvalidSpecError

__all__ = [
    "ErrorSpec",
    "SamplePlan",
    "hoeffding_exponent",
    "hoeffding_exponent_dmu",
    "upper_tail_bound",
    "lower_tail_bound",
    "minimum_sample_size",
    "achieved_confidence",
    "validate_spec",
]


def _pair_violations(eps_a: float, eps_r: float) -> list[str]:
    violations = []
    if not 0.0 < eps_a < 1.0:
        violations.append(f"eps_a must lie in (0, 1), got {eps_a!r}")
    if not 0.0 < eps_r < 1.0:
        violations.append(f"eps_r must lie in (0, 1), got {eps_r!r}")
    if 0.0 < eps_a and 0.0 < eps_r < 1.0:
        ratio = eps_a / eps_r + eps_a
        if ratio > 0.5:
            violations.append(
                f"eps_a/eps_r + eps_a must be <= 1/2, got {ratio!r} "
                f"(eps_a={eps_a!r}, eps_r={eps_r!r})"
            )
    return violations


def _spec_violations(eps_a: float, eps_r: float, delta: float) -> list[str]:
    violations = _pair_violations(eps_a, eps_r)
    if not 0.0 < delta < 1.0:
        violations.append(f"delta must lie in (0, 1), got {delta!r}")
    return violations


@dataclass(frozen=True)
class ErrorSpec:
    """Parameters of the mixed error criterion.

    eps_a: absolute error tolerance, in (0, 1).
    eps_r: relative error tolerance, in (0, 1).
    delta: risk bound, in (0, 1).

    Construction enforces eps_a/eps_r + eps_a <= 1/2, which implies
    eps_a < eps_r and eps_a/eps_r <= 1/2.
    """

    eps_a: float
    eps_r: float
    delta: float

    def __post_init__(self):
        violations = _spec_violations(self.eps_a, self.eps_r, self.delta)
        if violations:
            raise InvalidSpecError(violations)

    @property
    def worst_case_mean(self) -> float:
        """The mean at which absolute and relative tolerances coincide."""
        return self.eps_a / self.eps_r

    def to_dict(self) -> dict:
        return {"eps_a": self.eps_a, "eps_r": self.eps_r, "delta": self.delta}

    @classmethod
    def from_dict(cls, d: dict) -> "ErrorSpec":
        return cls(eps_a=d["eps_a"], eps_r=d["eps_r"], delta=d["delta"])


def validate_spec(eps_a: float, eps_r: float, delta: float) -> ErrorSpec:
    """Construct an ErrorSpec, reporting every violated constraint at once."""
    return ErrorSpec(eps_a=eps_a, eps_r=eps_r, delta=delta)


@dataclass(frozen=True)
class SamplePlan:
    """A validated sample count together with its worst-case exponent.

    n is the smallest integer with 2 exp(n * worst_case_exponent) < delta,
    where worst_case_exponent = g(eps_a, eps_a/eps_r) < 0.
    """

    n: int
    spec: ErrorSpec
    worst_case_exponent: float

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "spec": self.spec.to_dict(),
            "worst_case_exponent": self.worst_case_exponent,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SamplePlan":
        return cls(
            n=d["n"],
            spec=ErrorSpec.from_dict(d["spec"]),
            worst_case_exponent=d["worst_case_exponent"],
        )


def hoeffding_exponent(eps: float, mu: float) -> float:
    """Evaluate g(eps, mu) for signed eps.

    Requires mu in (0, 1) and mu + eps in (0, 1).  Returns 0 at eps = 0
    (continuous extension) and a strictly negative value otherwise.

    The log-of-ratio terms are evaluated as -log1p(eps/mu) and
    -log1p(-eps/(1-mu)); the naive ratios lose all precision for small |eps|.
    """
    if not 0.0 < mu < 1.0:
        raise DomainError(f"mu must lie in (0, 1), got {mu!r}")
    if not 0.0 < mu + eps < 1.0:
        raise DomainError(f"mu + eps must lie in (0, 1), got {mu + eps!r}")
    if eps == 0.0:
        return 0.0
    return -(mu + eps) * math.log1p(eps / mu) - (1.0 - mu - eps) * math.log1p(
        -eps / (1.0 - mu)
    )


def hoeffding_exponent_dmu(eps: float, mu: float) -> float:
    """Partial derivative of g with respect to mu, for signed eps.

    d g(eps, mu) / d mu = ln[mu (1-mu-eps) / ((mu+eps)(1-mu))] + eps/mu + eps/(1-mu).

    Substituting eps -> -eps reproduces the matching formula for g(-eps, mu),
    so a single signed-eps implementation covers both branches.
    """
    if not 0.0 < mu < 1.0:
        raise DomainError(f"mu must lie in (0, 1), got {mu!r}")
    if not 0.0 < mu + eps < 1.0:
        raise DomainError(f"mu + eps must lie in (0, 1), got {mu + eps!r}")
    log_term = -math.log1p(eps / mu) + math.log1p(-eps / (1.0 - mu))
    return log_term + eps / mu + eps / (1.0 - mu)


def _require_count(n: int) -> int:
    if not isinstance(n, (int,)) or isinstance(n, bool) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    return n


def upper_tail_bound(n: int, eps: float, mu: float) -> float:
    """Bound on Pr{mean >= mu + eps}: exp(n g(eps, mu)), for 0 < eps < 1 - mu."""
    _require_count(n)
    if not (0.0 < eps and 0.0 < mu < 1.0 and eps < 1.0 - mu):
        raise DomainError(
            f"need 0 < eps < 1 - mu < 1, got eps={eps!r}, mu={mu!r}"
        )
    return math.exp(n * hoeffding_exponent(eps, mu))


def lower_tail_bound(n: int, eps: float, mu: float) -> float:
    """Bound on Pr{mean <= mu - eps}: exp(n g(-eps, mu)), for 0 < eps < mu."""
    _require_count(n)
    if not (0.0 < eps < mu < 1.0):
        raise DomainError(f"need 0 < eps < mu < 1, got eps={eps!r}, mu={mu!r}")
    return math.exp(n * hoeffding_exponent(-eps, mu))


def minimum_sample_size(spec: ErrorSpec) -> SamplePlan:
    """Smallest n whose worst-case tail risk is below delta.

    n must strictly exceed

        eps_r ln(2/delta) / [ (eps_a + eps_a eps_r) ln(1 + eps_r)
                              + (eps_r - eps_a - eps_a eps_r)
                                ln(1 - eps_a eps_r / (eps_r - eps_a)) ]

    whose denominator equals -eps_r * g(eps_a, eps_a/eps_r); the threshold is
    therefore equivalent to 2 exp(n g(eps_a, eps_a/eps_r)) < delta.  The
    candidate floor(rhs) + 1 is corrected against the exponential form so the
    returned n satisfies the strict inequality exactly even when double
    rounding of the ratio would flip the floor.

    Plans are memoised per spec: the verification suites re-plan the same
    spec for every coverage trial.
    """
    return _plan(spec)


# A frozen ErrorSpec is hashable and a SamplePlan is immutable, so one cached
# plan can be handed to every caller.  The memo sits behind the public
# function, which stays a plain function that perfbench's tracer can count.
@functools.lru_cache(maxsize=1024)
def _plan(spec: ErrorSpec) -> SamplePlan:
    eps_a, eps_r, delta = spec.eps_a, spec.eps_r, spec.delta
    exponent = hoeffding_exponent(eps_a, spec.worst_case_mean)

    numerator = eps_r * math.log(2.0 / delta)
    denominator = (eps_a + eps_a * eps_r) * math.log1p(eps_r) + (
        eps_r - eps_a - eps_a * eps_r
    ) * math.log1p(-eps_a * eps_r / (eps_r - eps_a))
    if not denominator > 0.0:
        raise DomainError(
            f"sample-size denominator must be positive, got {denominator!r}"
        )
    rhs = numerator / denominator

    n = int(math.floor(rhs)) + 1
    half = delta / 2.0

    def satisfies(m: int) -> bool:
        return math.exp(m * exponent) < half

    while n > 1 and satisfies(n - 1):
        n -= 1
    while not satisfies(n):
        n += 1

    return SamplePlan(n=n, spec=spec, worst_case_exponent=exponent)


def achieved_confidence(n: int, eps_a: float, eps_r: float) -> float:
    """Smallest risk certified at sample count n: 2 exp(n g(eps_a, eps_a/eps_r)).

    Values >= 1 are reported as 1.0; such a result carries no guarantee
    (callers flag it).  Decreases monotonically to 0 as n grows.
    """
    _require_count(n)
    violations = _pair_violations(eps_a, eps_r)
    if violations:
        raise InvalidSpecError(violations)
    raw = 2.0 * math.exp(n * hoeffding_exponent(eps_a, eps_a / eps_r))
    return min(raw, 1.0)

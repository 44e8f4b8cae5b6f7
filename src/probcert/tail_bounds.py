"""Hoeffding tail exponents and mixed-criterion sample sizing.

The central object is the exponent

    g(eps, mu) = (mu + eps) ln(mu / (mu + eps))
               + (1 - mu - eps) ln((1 - mu) / (1 - mu - eps))

which controls the exponential decay rate of deviation probabilities for
means of [0, 1]-bounded i.i.d. samples:  Pr{mean >= mu + eps} <= exp(n g(eps, mu))
and Pr{mean <= mu - eps} <= exp(n g(-eps, mu)).

g and its mu-derivative are written once (``_g``, ``_dg``), with the log1p
they use as an argument.  Plans call them with ``math.log1p`` behind the
validated scalar functions, because acceptance pins the exact n and numpy's
log1p differs from it in the last bit at some points.  The lemma scans in
``verification`` call them with ``np.log1p`` on whole grids, whose strict
checks carry a 1e-12 margin.

On top of it sits the mixed absolute/relative error criterion: an estimate
mu_hat is acceptable when |mu_hat - mu| < eps_a OR |mu_hat - mu| < eps_r * mu.
``minimum_sample_size`` returns the smallest n for which the acceptance event
has probability > 1 - delta, uniformly over the unknown mean; the worst case
sits at mu = eps_a / eps_r, where the two tolerances coincide.

All functions here are pure and reentrant.  ``_require_int`` and
``_require_real`` are the package's one check of an integer and of a number.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields

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


def _require_int(value, name: str, low: int) -> int:
    """value as an int if it is an integer >= low, 0 or 1 (numpy's too, not a bool)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < low:
        kind = "positive" if low else "nonnegative"
        raise DomainError(f"{name} must be a {kind} integer, got {value!r}")
    return int(value)


def _require_real(value, name: str) -> float:
    """value as a float if it is a real number, NaN included (numpy's too, not a bool)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise DomainError(f"{name} must be a number, got {value!r}")
    return float(value)


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
        for f in fields(self):
            object.__setattr__(self, f.name, _require_real(getattr(self, f.name), f.name))
        violations = _spec_violations(self.eps_a, self.eps_r, self.delta)
        if violations:
            raise InvalidSpecError(violations)

    @property
    def worst_case_mean(self) -> float:
        """The mean at which absolute and relative tolerances coincide."""
        return self.eps_a / self.eps_r

    def to_dict(self) -> dict:
        return asdict(self)


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
        return asdict(self)


def _g(eps, mu, log1p):
    """g(eps, mu) with the given log1p, on floats or on numpy arrays alike.

    The log-of-ratio terms are evaluated as -log1p(eps/mu) and
    -log1p(-eps/(1-mu)); the naive ratios lose all precision for small |eps|.
    """
    return -(mu + eps) * log1p(eps / mu) - (1.0 - mu - eps) * log1p(-eps / (1.0 - mu))


def _dg(eps, mu, log1p):
    """d g(eps, mu) / d mu with the given log1p, on floats or numpy arrays."""
    return -log1p(eps / mu) + log1p(-eps / (1.0 - mu)) + eps / mu + eps / (1.0 - mu)


def _check_exponent_domain(eps: float, mu: float) -> None:
    if not 0.0 < mu < 1.0:
        raise DomainError(f"mu must lie in (0, 1), got {mu!r}")
    if not 0.0 < mu + eps < 1.0:
        raise DomainError(f"mu + eps must lie in (0, 1), got {mu + eps!r}")


def hoeffding_exponent(eps: float, mu: float) -> float:
    """Evaluate g(eps, mu) for signed eps.

    Requires mu in (0, 1) and mu + eps in (0, 1).  Returns 0 at eps = 0
    (continuous extension) and a strictly negative value otherwise.
    """
    _check_exponent_domain(eps, mu)
    if eps == 0.0:
        return 0.0
    return _g(eps, mu, math.log1p)


def hoeffding_exponent_dmu(eps: float, mu: float) -> float:
    """Partial derivative of g with respect to mu, for signed eps.

    d g(eps, mu) / d mu = ln[mu (1-mu-eps) / ((mu+eps)(1-mu))] + eps/mu + eps/(1-mu).

    Substituting eps -> -eps reproduces the matching formula for g(-eps, mu),
    so a single signed-eps implementation covers both branches.
    """
    _check_exponent_domain(eps, mu)
    return _dg(eps, mu, math.log1p)


def upper_tail_bound(n: int, eps: float, mu: float) -> float:
    """Bound on Pr{mean >= mu + eps}: exp(n g(eps, mu)), for 0 < eps < 1 - mu."""
    _require_int(n, "n", 1)
    if not (0.0 < eps and 0.0 < mu < 1.0 and eps < 1.0 - mu):
        raise DomainError(
            f"need 0 < eps < 1 - mu < 1, got eps={eps!r}, mu={mu!r}"
        )
    return math.exp(n * hoeffding_exponent(eps, mu))


def lower_tail_bound(n: int, eps: float, mu: float) -> float:
    """Bound on Pr{mean <= mu - eps}: exp(n g(-eps, mu)), for 0 < eps < mu."""
    _require_int(n, "n", 1)
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
    """
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
    _require_int(n, "n", 1)
    eps_a, eps_r = _require_real(eps_a, "eps_a"), _require_real(eps_r, "eps_r")
    violations = _pair_violations(eps_a, eps_r)
    if violations:
        raise InvalidSpecError(violations)
    raw = 2.0 * math.exp(n * hoeffding_exponent(eps_a, eps_a / eps_r))
    return min(raw, 1.0)

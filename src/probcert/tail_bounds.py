"""Hoeffding tail exponents and mixed-criterion sample sizing.

The central object is the exponent

    g(eps, mu) = (mu + eps) ln(mu / (mu + eps))
               + (1 - mu - eps) ln((1 - mu) / (1 - mu - eps))

which controls the exponential decay rate of deviation probabilities for
means of [0, 1]-bounded i.i.d. samples:  Pr{mean >= mu + eps} <= exp(n g(eps, mu))
and Pr{mean <= mu - eps} <= exp(n g(-eps, mu)).

g and its two partial derivatives are written once, on floats with
``math.log1p`` (``_g``, ``_dg_eps`` and ``_dg``, the mu-derivative).  Plans
call ``_g`` behind the validated scalar functions; the lemma checks in
``verification`` read all three at the ends of their intervals and have
no other source for them.

On top of it sits the mixed absolute/relative error criterion: an estimate
mu_hat is acceptable when |mu_hat - mu| < eps_a OR |mu_hat - mu| < eps_r * mu.
``minimum_sample_size`` returns the smallest n at which the Hoeffding bound on
the risk is below delta, uniformly over the unknown mean; the worst case
sits at mu = eps_a / eps_r, where the two tolerances coincide.

All functions here are pure and reentrant.  ``_require_int`` and
``_require_real`` are the package's one check of an integer and of a number,
the latter with an optional open range: every "number in (low, high)" test of
the package is a call of it, with one message form.  ``_require_type`` is its
one check of an argument's type, and ``_Record`` its results' one ``to_dict``.
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
    "upper_tail_bound",
    "lower_tail_bound",
    "minimum_sample_size",
    "achieved_confidence",
    "validate_spec",
]


def _require_int(value, name: str, low: int) -> int:
    """value as an int if it is an integer >= low, 0 or 1 (numpy's too, not a bool)."""
    if type(value) is not int and (not isinstance(value, numbers.Integral) or isinstance(value, bool)) or value < low:
        kind = "positive" if low else "nonnegative"
        raise DomainError(f"{name} must be a {kind} integer, got {value!r}")
    return int(value)


def _require_real(value, name: str, low=None, high=math.inf) -> float:
    """value as a float if it is a real number (numpy's too, not a bool), NaN
    included unless low is given: then it must lie in the open (low, high)."""
    if type(value) is not float and (not isinstance(value, numbers.Real) or isinstance(value, bool)):
        raise DomainError(f"{name} must be a number, got {value!r}")
    if low is not None and not low < value < high:  # false for nan too
        raise DomainError(f"{name} must lie in ({low!r}, {high!r}), got {value!r}")
    return float(value)


def _require_type(value, cls: type, caller: str) -> None:
    """DomainError "<caller> takes a/an <cls>, got <type>" unless value is a cls: the one type check of an argument."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise DomainError(f"{caller} takes {article} {cls.__name__}, got {type(value).__name__}")


def _require_pair(eps_a, eps_r) -> tuple[float, float]:
    """eps_a and eps_r as floats if they are numbers that form a valid tolerance pair."""
    eps_a, eps_r = _require_real(eps_a, "eps_a"), _require_real(eps_r, "eps_r")
    violations = _pair_violations(eps_a, eps_r)
    if violations:
        raise InvalidSpecError(violations)
    return eps_a, eps_r


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


class _Record:
    """Base of the package's result dataclasses: their one ``to_dict``, the fields as nested dicts."""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ErrorSpec(_Record):
    """Parameters of the mixed error criterion.

    eps_a: absolute error tolerance, in (0, 1).
    eps_r: relative error tolerance, in (0, 1).
    delta: risk bound, in (0, 1) and above 5e-324, the least risk a bound reads.

    Construction enforces eps_a/eps_r + eps_a <= 1/2, which implies
    eps_a < eps_r and eps_a/eps_r <= 1/2.
    """

    eps_a: float
    eps_r: float
    delta: float

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _require_real(getattr(self, f.name), f.name))
        violations = _pair_violations(self.eps_a, self.eps_r)
        if not 0.0 < self.delta < 1.0:
            violations.append(f"delta must lie in (0, 1), got {self.delta!r}")
        elif self.delta == math.ulp(0.0):  # a plan would certify a risk of 5e-324, not below it
            violations.append("delta must exceed 5e-324, the least risk a bound reads")
        if violations:
            raise InvalidSpecError(violations)

    @property
    def worst_case_mean(self) -> float:
        """The mean at which absolute and relative tolerances coincide."""
        return self.eps_a / self.eps_r


def validate_spec(eps_a: float, eps_r: float, delta: float) -> ErrorSpec:
    """Construct an ErrorSpec, reporting every violated constraint at once."""
    return ErrorSpec(eps_a=eps_a, eps_r=eps_r, delta=delta)


@dataclass(frozen=True)
class SamplePlan(_Record):
    """A validated sample count together with its worst-case exponent.

    n is the smallest integer with 2 exp(n * worst_case_exponent) < delta,
    where worst_case_exponent = g(eps_a, eps_a/eps_r) < 0.
    """

    n: int
    spec: ErrorSpec
    worst_case_exponent: float


def _g(eps: float, mu: float) -> float:
    """g(eps, mu), its log-ratios as log1p(eps/mu) and log1p(-eps/(1-mu)), which stay precise for small |eps|."""
    return -(mu + eps) * math.log1p(eps / mu) - (1.0 - mu - eps) * math.log1p(-eps / (1.0 - mu))


def _dg_eps(eps: float, mu: float) -> float:
    """d g(eps, mu) / d eps = ln(mu / (mu + eps)) - ln((1 - mu) / (1 - mu - eps))."""
    return -math.log1p(eps / mu) + math.log1p(-eps / (1.0 - mu))


def _dg(eps: float, mu: float) -> float:
    """d g(eps, mu) / d mu = d g / d eps + eps/mu + eps/(1 - mu)."""
    return _dg_eps(eps, mu) + eps / mu + eps / (1.0 - mu)


def hoeffding_exponent(eps: float, mu: float) -> float:
    """Evaluate g(eps, mu) for signed eps.

    Requires mu in (0, 1) and mu + eps in (0, 1).  Returns 0 at eps = 0
    (continuous extension) and a strictly negative value otherwise.
    """
    eps, mu = _require_real(eps, "eps"), _require_real(mu, "mu", 0, 1)
    _require_real(mu + eps, "mu + eps", 0, 1)
    return _g(eps, mu)


def _bound(risk: float) -> float:
    return max(risk, math.ulp(0.0))  # a risk bound that underflowed to 0 reads 5e-324: never 0, never rounded down


def upper_tail_bound(n: int, eps: float, mu: float) -> float:
    """Bound on Pr{mean >= mu + eps}: exp(n g(eps, mu)), for 0 < eps < 1 - mu."""
    _require_int(n, "n", 1)
    _require_real(eps, "eps", 0, 1.0 - _require_real(mu, "mu", 0, 1))
    return _bound(math.exp(n * hoeffding_exponent(eps, mu)))


def lower_tail_bound(n: int, eps: float, mu: float) -> float:
    """Bound on Pr{mean <= mu - eps}: exp(n g(-eps, mu)), for 0 < eps < mu."""
    _require_int(n, "n", 1)
    _require_real(eps, "eps", 0, _require_real(mu, "mu", 0, 1))
    return _bound(math.exp(n * hoeffding_exponent(-eps, mu)))


def minimum_sample_size(spec: ErrorSpec) -> SamplePlan:
    """Smallest n whose worst-case tail risk is below delta.

    n must strictly exceed

        eps_r ln(2/delta) / [ (eps_a + eps_a eps_r) ln(1 + eps_r)
                              + (eps_r - eps_a - eps_a eps_r)
                                ln(1 - eps_a eps_r / (eps_r - eps_a)) ]

    whose denominator equals -eps_r * g(eps_a, eps_a/eps_r); the threshold is
    therefore equivalent to 2 exp(n g(eps_a, eps_a/eps_r)) < delta, and n is
    computed from g directly: floor((ln 2 - ln delta) / -g) + 1, corrected
    against the exponential form so the returned n satisfies the strict
    inequality exactly even when double rounding of the ratio would flip the
    floor.  An exponent that rounds to 0 or a ratio of 2**53 or more, where
    m * g no longer tells neighbouring counts m apart, is a DomainError.
    """
    _require_type(spec, ErrorSpec, "minimum_sample_size")
    exponent = hoeffding_exponent(spec.eps_a, spec.worst_case_mean)
    # ln 2 - ln delta: 2 / delta overflows for delta below about 1.1e-308
    rhs = (math.log(2.0) - math.log(spec.delta)) / -exponent if exponent < 0.0 else math.inf
    if not rhs < 2.0**53:
        raise DomainError(
            f"sample size must be below 2**53, got ln(2/delta) / -g = {rhs!r} "
            f"for the worst-case exponent g = {exponent!r}"
        )

    n = int(math.floor(rhs)) + 1

    def satisfies(m: int) -> bool:
        return 2.0 * math.exp(m * exponent) < spec.delta  # 2 exp() is exact; delta / 2 can round

    while n > 1 and satisfies(n - 1):
        n -= 1
    while not satisfies(n):
        n += 1

    return SamplePlan(n=n, spec=spec, worst_case_exponent=exponent)


def achieved_confidence(n: int, eps_a: float, eps_r: float) -> float:
    """Smallest risk certified at sample count n: 2 exp(n g(eps_a, eps_a/eps_r)).

    Values >= 1 are reported as 1.0; such a result carries no guarantee
    (callers flag it).  Decreases monotonically as n grows, to 5e-324, never 0.
    """
    _require_int(n, "n", 1)
    eps_a, eps_r = _require_pair(eps_a, eps_r)
    return min(_bound(2.0 * math.exp(n * hoeffding_exponent(eps_a, eps_a / eps_r))), 1.0)

"""Probability minimization through an empirical Chernoff surrogate.

The failure probability p(theta) = Pr{Y(theta, Delta) <= 0} is bounded by
E[exp(-lambda Y)] for every lambda > 0, because exp(-lambda y) >= 1{y <= 0}
pointwise.  Freezing n i.i.d. scenarios Delta_1..Delta_n turns the bound into
the smooth deterministic objective

    g(lambda, theta) = (1/n) sum_i exp(-lambda Y(theta, Delta_i)),

which is minimized jointly over (lambda, theta) by gradient descent with a
backtracking (Armijo) line search.  lambda stays positive by construction:
descent runs in nu = ln(lambda), capped above because the empirical objective
can push lambda to infinity when every scenario survives (a vacuous direction
of the bound).  The optimized theta is then certified on fresh scenarios,
never the ones optimized over, via the estimator module.

Models are evaluated on a whole batch of scenario rows per call, never row
by row.  Scenario sets are immutable after construction and safe to share;
objective and gradient sums are exact and rounded once (the estimator's
vectorised error-free summation, bit-identical to ``math.fsum``), so results
do not depend on summation order or evaluation scheduling.  Certification
draws fresh scenarios in the estimator's fixed-size chunks, so its memory
does not grow with the planned sample size.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    GradientUnavailableError,
    MomentOverflowError,
    ProbcertError,
)
from .estimator import Certificate, SampleSource, _exact_sum, estimate_with_plan, stable_mean
from .tail_bounds import ErrorSpec, minimum_sample_size

__all__ = [
    "ScenarioSet",
    "ScenarioSource",
    "PerformanceModel",
    "ChernoffObjective",
    "OptimizationSettings",
    "OptimizationOutcome",
    "MODEL_REGISTRY",
    "make_model",
    "empirical_moment",
    "empirical_moment_gradient",
    "scenario_sample_size",
    "minimize",
    "certify_probability",
    "chernoff_upper_bound",
    "optimize_probability",
]

# nu = ln(lambda) is clamped to this range so lambda = exp(nu) is a positive,
# finite double at every iterate.
_NU_FLOOR = -690.0
_STEP_FLOOR = 1e-20


@dataclass(frozen=True)
class PerformanceModel:
    """A performance function Y(theta, delta) with optional analytic gradient.

    Both callables are batched: they take theta, shape (dim_theta,), and a
    block of scenario rows, shape (n, dim_delta), and answer for every row at
    once.  ``evaluate(theta, rows)`` returns Y for each row, shape (n,);
    ``gradient_theta(theta, rows)`` returns dY/dtheta for each row, shape
    (n, dim_theta).  Row i of the output must depend on row i of the input
    only.  ``evaluate`` must be piecewise continuous in theta for fixed delta.
    ``sample_scenarios(rng, k)`` draws k scenario rows from the distribution
    of Delta; registry models ship one, custom models may omit it and supply
    scenario arrays directly.
    """

    name: str
    dim_theta: int
    dim_delta: int
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    gradient_theta: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    sample_scenarios: Optional[Callable[[np.random.Generator, int], np.ndarray]] = None


def _make_affine(a: Sequence[float] = (1.0,), b: Sequence[float] = (-1.0,), c: float = 0.0) -> PerformanceModel:
    """Y = a . theta + b . delta + c, with standard normal delta components."""
    a_vec = np.asarray(a, dtype=float)
    b_vec = np.asarray(b, dtype=float)
    c_val = float(c)

    def evaluate(theta: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return a_vec @ theta + rows @ b_vec + c_val

    def gradient(theta: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return np.tile(a_vec, (rows.shape[0], 1))

    def sample(rng: np.random.Generator, k: int) -> np.ndarray:
        return rng.standard_normal((k, b_vec.size))

    return PerformanceModel("affine", a_vec.size, b_vec.size, evaluate, gradient, sample)


def _make_quadratic_well(sigma: float = 0.5) -> PerformanceModel:
    """Y = 1 - (theta_1 - delta_1)^2, with delta ~ Normal(0, sigma^2)."""
    if not sigma > 0:
        raise ConfigError("model_params.sigma", f"must be positive, got {sigma!r}")
    s = float(sigma)

    def evaluate(theta: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # float_power calls C pow per element, like a scalar ** 2; an array
        # ** 2 is x * x, which differs from pow in the last bit on ~0.1% of
        # inputs and would shift optimised theta by an ulp
        return 1.0 - np.float_power(theta[0] - rows[:, 0], 2.0)

    def gradient(theta: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return -2.0 * (theta[0] - rows[:, :1])

    def sample(rng: np.random.Generator, k: int) -> np.ndarray:
        return s * rng.standard_normal((k, 1))

    return PerformanceModel("quadratic_well", 1, 1, evaluate, gradient, sample)


def _make_uniform_gap() -> PerformanceModel:
    """Y = theta_1 - delta_1, with delta ~ Uniform(0, 1)."""

    def evaluate(theta: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return theta[0] - rows[:, 0]

    def gradient(theta: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return np.ones((rows.shape[0], 1))

    def sample(rng: np.random.Generator, k: int) -> np.ndarray:
        return rng.random((k, 1))

    return PerformanceModel("uniform_gap", 1, 1, evaluate, gradient, sample)


MODEL_REGISTRY: dict[str, Callable[..., PerformanceModel]] = {
    "affine": _make_affine,
    "quadratic_well": _make_quadratic_well,
    "uniform_gap": _make_uniform_gap,
}


def make_model(name: str, **params) -> PerformanceModel:
    """Instantiate a registry model by name."""
    try:
        factory = MODEL_REGISTRY[name]
    except KeyError:
        raise ConfigError(
            "model",
            f"unknown model {name!r}; available: {sorted(MODEL_REGISTRY)}",
        ) from None
    try:
        return factory(**params)
    except TypeError as exc:
        raise ConfigError("model_params", str(exc)) from None


@dataclass(frozen=True, eq=False)
class ScenarioSet:
    """Frozen i.i.d. draws of Delta, one row per scenario."""

    scenarios: np.ndarray
    n: int
    seed: int

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.scenarios, dtype=float))
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise DomainError(f"scenario array must be (n, d) with n >= 1, got shape {arr.shape}")
        if self.n != arr.shape[0]:
            raise DomainError(f"declared n={self.n} but array has {arr.shape[0]} rows")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "scenarios", arr)

    @property
    def dim_delta(self) -> int:
        return self.scenarios.shape[1]

    @classmethod
    def from_model(cls, model: PerformanceModel, n: int, seed: int) -> "ScenarioSet":
        """Draw n scenarios from the model's Delta distribution; same seed, same rows."""
        if model.sample_scenarios is None:
            raise DomainError(f"model {model.name!r} has no scenario sampler")
        if n < 1:
            raise DomainError(f"scenario count must be positive, got {n!r}")
        rng = np.random.default_rng(seed)
        rows = np.asarray(model.sample_scenarios(rng, n), dtype=float)
        return cls(scenarios=rows, n=n, seed=int(seed))

    @classmethod
    def from_array(cls, rows: np.ndarray, seed: int = 0) -> "ScenarioSet":
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        return cls(scenarios=rows, n=rows.shape[0], seed=int(seed))

    @classmethod
    def from_csv(cls, path, seed: int = 0) -> "ScenarioSet":
        """Load scenarios from a headerless CSV file, one row per draw."""
        try:
            with warnings.catch_warnings():
                # an empty file is reported as a DomainError below, not a warning
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
        except ValueError as exc:
            raise DomainError(f"malformed scenario CSV {path!r}: {exc}") from None
        if rows.size == 0:
            raise DomainError(f"scenario CSV {path!r} contains no rows")
        return cls(scenarios=rows, n=rows.shape[0], seed=int(seed))


class ScenarioSource:
    """Seeded stream of fresh scenario rows, for certification draws."""

    def __init__(
        self,
        sampler: Callable[[np.random.Generator, int], np.ndarray],
        dim_delta: int,
        seed: int,
    ):
        self.seed = int(seed)
        self.dim_delta = int(dim_delta)
        self.draws_made = 0
        self._sampler = sampler
        self._rng = np.random.default_rng(seed)

    @classmethod
    def from_model(cls, model: PerformanceModel, seed: int) -> "ScenarioSource":
        if model.sample_scenarios is None:
            raise DomainError(f"model {model.name!r} has no scenario sampler")
        return cls(model.sample_scenarios, model.dim_delta, seed)

    def draw(self, k: int) -> np.ndarray:
        rows = np.asarray(self._sampler(self._rng, k), dtype=float)
        if rows.shape != (k, self.dim_delta):
            raise DomainError(
                f"scenario sampler returned shape {rows.shape}, expected {(k, self.dim_delta)}"
            )
        self.draws_made += k
        return rows


@dataclass(frozen=True, eq=False)
class ChernoffObjective:
    """The empirical surrogate g(lambda, theta) over a fixed scenario set."""

    model: PerformanceModel
    scenarios: ScenarioSet

    def __post_init__(self):
        if self.scenarios.dim_delta != self.model.dim_delta:
            raise DomainError(
                f"scenario dimension {self.scenarios.dim_delta} does not match "
                f"model dim_delta {self.model.dim_delta}"
            )

    def performance_values(self, theta: np.ndarray) -> np.ndarray:
        """Y(theta, Delta_i) for every scenario, in scenario order."""
        theta = _check_theta(theta, self.model.dim_theta)
        rows = self.scenarios.scenarios
        values = np.asarray(self.model.evaluate(theta, rows), dtype=float)
        if values.shape != (rows.shape[0],):
            raise DomainError(
                f"model {self.model.name!r} returned shape {values.shape} "
                f"for {rows.shape[0]} scenarios"
            )
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            i = int(bad[0])
            raise DomainError(f"Y is not finite at scenario {i}: {values[i]!r}")
        return values


def _check_theta(theta, dim_theta: int) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(theta, dtype=float))
    if arr.shape != (dim_theta,):
        raise DomainError(f"theta must have shape ({dim_theta},), got {arr.shape}")
    return arr


def _checked_exp(exponents: np.ndarray) -> np.ndarray:
    """exp() that aborts with the offending scenario index instead of returning inf."""
    with np.errstate(over="ignore"):
        out = np.exp(exponents)
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        i = int(bad[0])
        raise MomentOverflowError(i, float(exponents[i]))
    return out


def empirical_moment(obj: ChernoffObjective, lam: float, theta) -> float:
    """g(lambda, theta) = (1/n) sum_i exp(-lambda Y_i), exactly summed."""
    if not lam > 0.0:
        raise DomainError(f"lambda must be positive, got {lam!r}")
    ys = obj.performance_values(theta)
    weights = _checked_exp(-lam * ys)
    return stable_mean(weights)


def empirical_moment_gradient(
    obj: ChernoffObjective, lam: float, theta, fd_fallback: bool = True
) -> tuple[float, np.ndarray]:
    """Partials of the surrogate:

        dg/dlambda  = -(1/n) sum_i Y_i exp(-lambda Y_i)
        dg/dtheta_j = -(lambda/n) sum_i dY/dtheta_j exp(-lambda Y_i)

    Models without an analytic gradient fall back to central differences of
    the surrogate itself, step 1e-6 * (1 + |theta_j|) per component; pass
    fd_fallback=False to make a missing gradient an error instead.
    """
    if not lam > 0.0:
        raise DomainError(f"lambda must be positive, got {lam!r}")
    theta = _check_theta(theta, obj.model.dim_theta)
    ys = obj.performance_values(theta)
    weights = _checked_exp(-lam * ys)
    n = ys.size

    terms = ys * weights
    bad = np.flatnonzero(~np.isfinite(terms))
    if bad.size:
        i = int(bad[0])
        raise MomentOverflowError(i, float(-lam * ys[i]))
    d_lambda = -stable_mean(terms)

    if obj.model.gradient_theta is not None:
        rows = obj.scenarios.scenarios
        grads = np.asarray(obj.model.gradient_theta(theta, rows), dtype=float)
        if grads.shape != (n, obj.model.dim_theta):
            raise DomainError(
                f"model {obj.model.name!r} returned gradient shape {grads.shape}, "
                f"expected {(n, obj.model.dim_theta)}"
            )
        d_theta = np.empty(obj.model.dim_theta)
        for j in range(obj.model.dim_theta):
            d_theta[j] = -(lam / n) * _exact_sum(grads[:, j] * weights)
    elif fd_fallback:
        d_theta = np.empty(obj.model.dim_theta)
        for j in range(obj.model.dim_theta):
            h = 1e-6 * (1.0 + abs(theta[j]))
            bump = np.zeros_like(theta)
            bump[j] = h
            d_theta[j] = (
                empirical_moment(obj, lam, theta + bump)
                - empirical_moment(obj, lam, theta - bump)
            ) / (2.0 * h)
    else:
        raise GradientUnavailableError(
            f"model {obj.model.name!r} provides no gradient and fd_fallback is disabled"
        )
    return float(d_lambda), d_theta


def scenario_sample_size(spec: ErrorSpec) -> int:
    """Scenario count making the surrogate track its expectation to spec accuracy.

    Each summand exp(-lambda Y) lies in (0, 1] for Y >= 0 and is bounded on
    the optimization region, so the mixed-criterion plan applies; delegation
    keeps the count auditable against the estimation guarantee.
    """
    return minimum_sample_size(spec).n


@dataclass(frozen=True)
class OptimizationSettings:
    """Descent configuration.  theta0 is the starting point; nu0 = ln(lambda0)."""

    theta0: tuple[float, ...]
    nu0: float = 0.0
    max_iters: int = 500
    grad_tol: float = 1e-6
    backtrack_shrink: float = 0.5
    armijo_c: float = 1e-4
    initial_step: float = 1.0
    lambda_cap: float = 50.0

    def __post_init__(self):
        if isinstance(self.theta0, (str, bytes)):
            raise DomainError("theta0 must be a sequence of reals, not a string")
        object.__setattr__(self, "theta0", tuple(float(t) for t in self.theta0))
        if len(self.theta0) < 1:
            raise DomainError("theta0 must be nonempty")
        if not all(math.isfinite(t) for t in self.theta0):
            raise DomainError(f"theta0 must be finite, got {self.theta0}")
        if not math.isfinite(self.nu0):
            raise DomainError(f"nu0 must be finite, got {self.nu0!r}")
        if not (isinstance(self.max_iters, int) and self.max_iters >= 0):
            raise DomainError(f"max_iters must be a nonnegative integer, got {self.max_iters!r}")
        if not self.grad_tol > 0.0:
            raise DomainError(f"grad_tol must be positive, got {self.grad_tol!r}")
        if not 0.0 < self.backtrack_shrink < 1.0:
            raise DomainError(
                f"backtrack_shrink must lie in (0, 1), got {self.backtrack_shrink!r}"
            )
        if not 0.0 < self.armijo_c < 1.0:
            raise DomainError(f"armijo_c must lie in (0, 1), got {self.armijo_c!r}")
        if not self.initial_step > 0.0:
            raise DomainError(f"initial_step must be positive, got {self.initial_step!r}")
        if not self.lambda_cap > 0.0:
            raise DomainError(f"lambda_cap must be positive, got {self.lambda_cap!r}")

    def to_dict(self) -> dict:
        return {
            "theta0": list(self.theta0),
            "nu0": self.nu0,
            "max_iters": self.max_iters,
            "grad_tol": self.grad_tol,
            "backtrack_shrink": self.backtrack_shrink,
            "armijo_c": self.armijo_c,
            "initial_step": self.initial_step,
            "lambda_cap": self.lambda_cap,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "OptimizationSettings":
        return cls(**{**d, "theta0": tuple(d["theta0"])})


@dataclass(frozen=True)
class OptimizationOutcome:
    """Result of a descent run, with an optional fresh-sample certificate."""

    theta_star: tuple[float, ...]
    lambda_star: float
    objective_trace: tuple[float, ...]
    iterations: int
    termination: str  # gradient_tol | max_iters | step_underflow
    certificate: Optional[Certificate] = None

    def to_dict(self) -> dict:
        return {
            "theta_star": list(self.theta_star),
            "lambda_star": self.lambda_star,
            "objective_trace": list(self.objective_trace),
            "iterations": self.iterations,
            "termination": self.termination,
            "certificate": None if self.certificate is None else self.certificate.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "OptimizationOutcome":
        cert = d.get("certificate")
        return cls(
            theta_star=tuple(d["theta_star"]),
            lambda_star=d["lambda_star"],
            objective_trace=tuple(d["objective_trace"]),
            iterations=d["iterations"],
            termination=d["termination"],
            certificate=None if cert is None else Certificate.from_dict(cert),
        )


def minimize(obj: ChernoffObjective, settings: OptimizationSettings) -> OptimizationOutcome:
    """Projected gradient descent on (nu, theta) with Armijo backtracking.

    nu is clamped to [ln-floor, ln(lambda_cap)]; at a clamp boundary the
    outward gradient component is projected to zero so theta progress
    continues.  Accepted steps satisfy the sufficient-decrease condition, so
    the objective trace is non-increasing.  Termination: projected gradient
    norm <= grad_tol, iteration cap, or line-search step underflow.
    """
    if obj.model.dim_theta != len(settings.theta0):
        raise DomainError(
            f"theta0 has {len(settings.theta0)} components, model needs {obj.model.dim_theta}"
        )
    nu_cap = math.log(settings.lambda_cap)

    def clamp_nu(nu: float) -> float:
        return min(max(nu, _NU_FLOOR), nu_cap)

    def lam_of(nu: float) -> float:
        # exp(log(cap)) can overshoot cap by an ulp; keep lambda <= cap exactly
        return min(math.exp(nu), settings.lambda_cap)

    def objective(x: np.ndarray) -> float:
        return empirical_moment(obj, lam_of(x[0]), x[1:])

    def gradient(x: np.ndarray) -> np.ndarray:
        lam = lam_of(x[0])
        d_lam, d_theta = empirical_moment_gradient(obj, lam, x[1:])
        return np.concatenate(([lam * d_lam], d_theta))

    x = np.concatenate(([clamp_nu(settings.nu0)], settings.theta0))
    f = objective(x)  # non-finite start propagates as an overflow error
    trace = [f]
    iterations = 0
    termination = "max_iters"

    for _ in range(settings.max_iters):
        grad = gradient(x)
        projected = grad.copy()
        if x[0] >= nu_cap and grad[0] < 0.0:
            projected[0] = 0.0
        if x[0] <= _NU_FLOOR and grad[0] > 0.0:
            projected[0] = 0.0
        grad_norm = float(np.linalg.norm(projected))
        if grad_norm <= settings.grad_tol:
            termination = "gradient_tol"
            break

        slope = -grad_norm * grad_norm  # directional derivative along -projected
        step = settings.initial_step
        accepted = False
        saw_finite_trial = False
        overflow: MomentOverflowError | None = None
        while step >= _STEP_FLOOR:
            trial = x - step * projected
            trial[0] = clamp_nu(trial[0])
            try:
                f_trial = objective(trial)
            except MomentOverflowError as exc:
                overflow = exc
                step *= settings.backtrack_shrink
                continue
            saw_finite_trial = True
            if f_trial <= f + settings.armijo_c * step * slope:
                x, f = trial, f_trial
                accepted = True
                break
            step *= settings.backtrack_shrink

        if not accepted:
            if not saw_finite_trial:
                raise ProbcertError(
                    f"objective overflowed at every backtracking step from "
                    f"lambda={math.exp(x[0])!r}, theta={tuple(x[1:])!r}"
                ) from overflow
            termination = "step_underflow"
            break
        iterations += 1
        trace.append(f)

    return OptimizationOutcome(
        theta_star=tuple(float(t) for t in x[1:]),
        lambda_star=lam_of(float(x[0])),
        objective_trace=tuple(trace),
        iterations=iterations,
        termination=termination,
    )


class _IndicatorSource(SampleSource):
    """Adapts a scenario stream into the failure indicators 1{Y <= 0}."""

    def __init__(self, model: PerformanceModel, theta: np.ndarray, scenarios: ScenarioSource):
        super().__init__(scenarios.seed)
        self._model = model
        self._theta = theta
        self._scenarios = scenarios

    def _generate(self, k: int) -> np.ndarray:
        rows = self._scenarios.draw(k)
        return (self._model.evaluate(self._theta, rows) <= 0.0).astype(float)


def certify_probability(
    model: PerformanceModel, theta, spec: ErrorSpec, source: ScenarioSource
) -> Certificate:
    """Certified estimate of p(theta) = Pr{Y(theta, Delta) <= 0} on fresh draws.

    The scenario source must be independent of any scenarios the candidate
    theta was optimized over; certifying on optimized-over draws would bias
    the estimate optimistically.
    """
    theta = _check_theta(theta, model.dim_theta)
    return estimate_with_plan(_IndicatorSource(model, theta, source), spec)


def chernoff_upper_bound(obj: ChernoffObjective, theta, lambda_grid) -> float:
    """Best surrogate value over a lambda grid: an empirical stand-in for
    inf over lambda > 0 of the moment bound on p(theta)."""
    grid = [float(lam) for lam in lambda_grid]
    if not grid:
        raise DomainError("lambda grid is empty")
    for lam in grid:
        if not lam > 0.0:
            raise DomainError(f"lambda grid values must be positive, got {lam!r}")
    return min(empirical_moment(obj, lam, theta) for lam in grid)


def optimize_probability(
    model: PerformanceModel,
    settings: OptimizationSettings,
    *,
    seed: int,
    n_scenarios: Optional[int] = None,
    scenario_spec: Optional[ErrorSpec] = None,
    certify_spec: Optional[ErrorSpec] = None,
) -> OptimizationOutcome:
    """End-to-end pipeline: freeze scenarios, minimize, certify on fresh draws.

    Exactly one of n_scenarios / scenario_spec selects the scenario count.
    Certification (when requested) draws from seed + 1 so its stream is
    distinct from the optimization scenarios.
    """
    if (n_scenarios is None) == (scenario_spec is None):
        raise DomainError("exactly one of n_scenarios and scenario_spec is required")
    n = n_scenarios if n_scenarios is not None else scenario_sample_size(scenario_spec)
    scenario_set = ScenarioSet.from_model(model, n, seed)
    outcome = minimize(ChernoffObjective(model, scenario_set), settings)
    if certify_spec is not None:
        source = ScenarioSource.from_model(model, seed + 1)
        certificate = certify_probability(model, outcome.theta_star, certify_spec, source)
        outcome = replace(outcome, certificate=certificate)
    return outcome

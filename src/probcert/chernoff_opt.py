"""Probability minimization through an empirical Chernoff surrogate.

The failure probability p(theta) = Pr{Y(theta, Delta) <= 0} is bounded by
E[exp(-lambda Y)] for every lambda > 0, because exp(-lambda y) >= 1{y <= 0}
pointwise.  Freezing n i.i.d. scenarios Delta_1..Delta_n turns the bound into
the smooth deterministic objective

    g(lambda, theta) = (1/n) sum_i exp(-lambda Y(theta, Delta_i)).

The optimizer works on log g, which has the same minimizer and cannot
overflow: log g = top + log((1/n) sum_i w_i), with top = max_i(-lambda Y_i)
and shifted weights w_i = exp(-lambda Y_i - top) in [0, 1].  For fixed theta,
log g is convex in lambda, with slope -E_w[Y] and curvature Var_w(Y)
(Nemirovski & Shapiro, SIAM J. Optim. 17(4), 2006).  So lambda is profiled
out by a Newton solve on the Y values already computed, and only theta is
descended, on F(theta) = min over lambda of log g, by BFGS with Armijo
backtracking (Nocedal & Wright, "Numerical Optimization", ch. 6), whose
gradient is the theta partial of log g at the optimal lambda.  The optimized
theta is then certified on fresh scenarios, never the ones optimized over,
via the estimator module.

Models are evaluated on a whole batch of scenario rows per call, never row
by row.  Scenario sets are immutable after construction and safe to share;
sums are exact and rounded once (the estimator's vectorised error-free
summation, bit-identical to ``math.fsum``), so results do not depend on
summation order or evaluation scheduling.  Certification draws fresh
scenarios in the estimator's fixed-size chunks and counts their failure
indicators, so its memory does not grow with the planned sample size.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DomainError
from .estimator import Certificate, SampleSource, _exact_sums, estimate_with_plan, stable_mean
from .estimator import _CERTIFICATION, _SCENARIOS, _stream
from .tail_bounds import ErrorSpec, _require_int, _require_real, minimum_sample_size

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
    "minimize",
    "certify_probability",
    "optimize_probability",
]

_STEP_FLOOR = 1e-20  # the line search halves a unit first step down to this
_ARMIJO_C = 1e-4
_LAMBDA_RTOL = 1e-12  # the lambda solve ends at a step this small relative to lambda
_LAMBDA_STEPS = 200
# largest x with math.exp(x) finite
_LOG_MAX = math.log(np.finfo(float).max)
# smallest nu0 whose exp is not 0: the log of the smallest subnormal double
_NU0_MIN = math.log(np.finfo(float).smallest_subnormal)


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
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    s = float(sigma)

    def evaluate(theta: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return 1.0 - np.square(theta[0] - rows[:, 0])

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
    for key, value in params.items():
        # float(True) is 1.0, so a boolean would pass for a number
        if any(isinstance(v, bool) for v in np.asarray(value, dtype=object).ravel()):
            raise ConfigError("model_params", f"{key} must be a number, got {value!r}")
    try:
        return factory(**params)
    except (TypeError, ValueError) as exc:
        raise ConfigError("model_params", str(exc)) from None


@dataclass(frozen=True, eq=False)
class ScenarioSet:
    """Frozen i.i.d. draws of Delta, one row per scenario."""

    scenarios: np.ndarray
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "seed", _require_int(self.seed, "seed", 0))
        arr = np.atleast_2d(np.asarray(self.scenarios, dtype=float))
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise DomainError(f"scenario array must be (n, d) with n >= 1, got shape {arr.shape}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "scenarios", arr)

    @property
    def n(self) -> int:
        return self.scenarios.shape[0]

    @property
    def dim_delta(self) -> int:
        return self.scenarios.shape[1]

    @classmethod
    def from_model(cls, model: PerformanceModel, n: int, seed: int) -> "ScenarioSet":
        """n rows of the model's Delta, from the scenario child of ``seed``."""
        n = _require_int(n, "scenario count", 1)
        rows = _draw_rows(_scenario_sampler(model), model.dim_delta, _stream(seed, _SCENARIOS), n)
        return cls(scenarios=rows, seed=seed)

    @classmethod
    def from_array(cls, rows: np.ndarray, seed: int = 0) -> "ScenarioSet":
        return cls(scenarios=rows, seed=seed)

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
        return cls(scenarios=rows, seed=seed)


def _scenario_sampler(model: PerformanceModel):
    if model.sample_scenarios is None:
        raise DomainError(f"model {model.name!r} has no scenario sampler")
    return model.sample_scenarios


def _draw_rows(sampler, dim_delta: int, rng: np.random.Generator, k: int) -> np.ndarray:
    rows = np.asarray(sampler(rng, k), dtype=float)
    if rows.shape != (k, dim_delta):
        raise DomainError(f"scenario sampler returned shape {rows.shape}, expected {(k, dim_delta)}")
    return rows


class ScenarioSource:
    """Fresh scenario rows for certification, from the certification child of
    ``seed``: never rows that ``ScenarioSet.from_model`` freezes for any seed.
    """

    def __init__(
        self,
        sampler: Callable[[np.random.Generator, int], np.ndarray],
        dim_delta: int,
        seed: int,
    ):
        self.seed = _require_int(seed, "seed", 0)
        self._rng = _stream(self.seed, _CERTIFICATION)
        self.dim_delta = int(dim_delta)
        self.draws_made = 0
        self._sampler = sampler

    @classmethod
    def from_model(cls, model: PerformanceModel, seed: int) -> "ScenarioSource":
        return cls(_scenario_sampler(model), model.dim_delta, seed)

    def draw(self, k: int) -> np.ndarray:
        k = _require_int(k, "draw count", 0)
        rows = _draw_rows(self._sampler, self.dim_delta, self._rng, k)
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
        return _evaluate(self.model, theta, self.scenarios.scenarios)


def _evaluate(model: PerformanceModel, theta: np.ndarray, rows: np.ndarray, offset: int = 0) -> np.ndarray:
    """Y(theta, row) for each scenario row, checked to be one finite value
    per row.  ``offset`` is added to the reported scenario index.
    """
    values = np.asarray(model.evaluate(theta, rows), dtype=float)
    if values.shape != (rows.shape[0],):
        raise DomainError(
            f"model {model.name!r} returned shape {values.shape} for {rows.shape[0]} scenarios"
        )
    if not np.isfinite(values).all():
        i = int(np.flatnonzero(~np.isfinite(values))[0])
        raise DomainError(f"Y is not finite at scenario {offset + i}: {float(values[i])!r}")
    return values


def _check_theta(theta, dim_theta: int) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(theta, dtype=float))
    if arr.shape != (dim_theta,):
        raise DomainError(f"theta must have shape ({dim_theta},), got {arr.shape}")
    return arr


def _check_lambda(lam: float) -> None:
    if not lam > 0.0:
        raise DomainError(f"lambda must be positive, got {lam!r}")


def _exp(log_value: float) -> float:
    """exp() of a log surrogate value: inf past the double range, never an error."""
    return math.exp(log_value) if log_value <= _LOG_MAX else math.inf


def _moments(ys: np.ndarray, lam: float) -> tuple[float, float, float, np.ndarray]:
    """(h, h', h'', w): h = log g at lambda from the Y values, h' = -E_w[Y] and
    h'' = Var_w(Y) under the shifted weights w, from exact sums in one pass.
    The largest weight is exactly 1, so log of their mean is finite.
    """
    with np.errstate(over="ignore"):
        exponents = -lam * ys
    top = float(exponents.max())  # infinite when lambda * Y is beyond the double range
    weights = (exponents == top).astype(float) if math.isinf(top) else np.exp(exponents - top)
    s0, s1, s2 = _exact_sums(np.vstack((weights, ys * weights, ys * ys * weights)))
    mean = s1 / s0
    return top + math.log(s0 / ys.size), -mean, s2 / s0 - mean * mean, weights


def _theta_gradient(
    obj: ChernoffObjective, lam: float, theta: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """d log g / d theta_j = -lambda sum(dY/dtheta_j w) / sum(w), from exact
    sums in one pass.

    Models without an analytic gradient get central differences of log g at
    fixed lambda, step 1e-6 * (1 + |theta_j|) per component.
    """
    model = obj.model
    if model.gradient_theta is not None:
        grads = np.asarray(model.gradient_theta(theta, obj.scenarios.scenarios), dtype=float)
        if grads.shape != (weights.size, model.dim_theta):
            raise DomainError(
                f"model {model.name!r} returned gradient shape {grads.shape}, "
                f"expected {(weights.size, model.dim_theta)}"
            )
        sums = _exact_sums(np.vstack((weights, grads.T * weights)))
        return -lam * np.array(sums[1:]) / sums[0]
    d_theta = np.empty(model.dim_theta)
    for j, bump in enumerate(np.diag(1e-6 * (1.0 + np.abs(theta)))):
        up, down = (_moments(obj.performance_values(t), lam)[0] for t in (theta + bump, theta - bump))
        d_theta[j] = (up - down) / (2.0 * bump[j])
    return d_theta


def empirical_moment(obj: ChernoffObjective, lam: float, theta) -> float:
    """g(lambda, theta) = (1/n) sum_i exp(-lambda Y_i), as exp(log g).

    Beyond the double range the result is inf.
    """
    _check_lambda(lam)
    return _exp(_moments(obj.performance_values(theta), lam)[0])


def empirical_moment_gradient(obj: ChernoffObjective, lam: float, theta) -> tuple[float, np.ndarray]:
    """Partials of the surrogate, g times the partials of log g:

        dg/dlambda  = -(1/n) sum_i Y_i exp(-lambda Y_i)
        dg/dtheta_j = -(lambda/n) sum_i dY/dtheta_j exp(-lambda Y_i)

    Models without an analytic gradient get central differences of log g in
    theta.  Beyond the double range the partials are infinite.
    """
    _check_lambda(lam)
    theta = _check_theta(theta, obj.model.dim_theta)
    log_g, d_lambda, _, weights = _moments(obj.performance_values(theta), lam)
    g = _exp(log_g)
    return float(g * d_lambda), g * _theta_gradient(obj, lam, theta, weights)


@dataclass(frozen=True)
class OptimizationSettings:
    """Descent configuration.  theta0 is the starting point; exp(nu0) is the
    first warm start of the lambda solve, whose range is (0, lambda_cap].
    """

    theta0: tuple[float, ...]
    nu0: float = 0.0
    max_iters: int = 500
    grad_tol: float = 1e-6
    lambda_cap: float = 50.0

    def __post_init__(self):
        if isinstance(self.theta0, (str, bytes)):
            raise DomainError("theta0 must be a sequence of reals, not a string")
        object.__setattr__(self, "theta0", tuple(_require_real(t, "theta0") for t in self.theta0))
        # checked, not converted: the settings are echoed as given
        for name in ("nu0", "grad_tol", "lambda_cap"):
            _require_real(getattr(self, name), name)
        object.__setattr__(self, "max_iters", _require_int(self.max_iters, "max_iters", 0))
        if len(self.theta0) < 1:
            raise DomainError("theta0 must be nonempty")
        if not all(math.isfinite(t) for t in self.theta0):
            raise DomainError(f"theta0 must be finite, got {self.theta0}")
        if not _NU0_MIN <= self.nu0 < math.inf:  # false for nan too
            raise DomainError(f"nu0 must be finite and >= {_NU0_MIN:.6g} (exp(nu0) > 0), got {self.nu0!r}")
        if not self.grad_tol > 0.0:
            raise DomainError(f"grad_tol must be positive, got {self.grad_tol!r}")
        if not self.lambda_cap > 0.0:
            raise DomainError(f"lambda_cap must be positive, got {self.lambda_cap!r}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class OptimizationOutcome:
    """Result of a descent run, with an optional fresh-sample certificate."""

    theta_star: tuple[float, ...]
    lambda_star: float
    objective_trace: tuple[float, ...]
    iterations: int
    termination: str  # gradient_tol | max_iters | step_underflow | lambda_cap | trivial_bound
    certificate: Optional[Certificate] = None

    def to_dict(self) -> dict:
        return asdict(self)


def _profile(ys: np.ndarray, lam: float, cap: float) -> tuple[float, float, np.ndarray]:
    """(lambda*, log g, weights there) for the Y values at one theta.

    lambda* minimizes the convex h = log g over (0, cap]: the cap when every
    Y > 0.  When mean Y <= 0, h' >= 0 from 0 on, so lam is kept and theta
    still gets a gradient.  Otherwise Newton steps from lam find the root of
    h', or the cap if h' < 0 there; a step out of the bracket, or zero
    curvature (all the weight on one scenario), bisects instead.
    """
    if ys.min() > 0.0:
        lam = cap
    elif stable_mean(ys) > 0.0:
        lo, hi = 0.0, math.inf  # h' < 0 at lo, h' > 0 at hi
        for _ in range(_LAMBDA_STEPS):
            f, d1, d2, weights = _moments(ys, lam)
            if d1 == 0.0 or (d1 < 0.0 and lam == cap):
                return lam, f, weights
            lo, hi = (lam, hi) if d1 < 0.0 else (lo, lam)
            nxt = lam - d1 / d2 if d2 > 0.0 else math.nan
            if not lo < nxt < hi:
                nxt = 0.5 * (lo + hi) if hi < math.inf else cap
            nxt = min(nxt, cap)
            if abs(nxt - lam) <= _LAMBDA_RTOL * lam:
                return lam, f, weights
            lam = nxt
    f, _, _, weights = _moments(ys, lam)
    return lam, f, weights


def minimize(obj: ChernoffObjective, settings: OptimizationSettings) -> OptimizationOutcome:
    """BFGS descent on F(theta) = min over lambda in (0, lambda_cap] of log g.

    A trial costs one model evaluation; its lambda* is warm-started from the
    last one (first from exp(nu0)).  Steps start at unit length and halve
    until the Armijo condition holds, so the trace of g is non-increasing.
    The loop ends at gradient norm <= grad_tol, max_iters or step underflow,
    but a vacuous end point reports ``lambda_cap`` (every Y > 0) or
    ``trivial_bound`` (mean Y <= 0) instead.
    """
    if obj.model.dim_theta != len(settings.theta0):
        raise DomainError(
            f"theta0 has {len(settings.theta0)} components, model needs {obj.model.dim_theta}"
        )
    cap = settings.lambda_cap
    theta = np.array(settings.theta0)
    ys = obj.performance_values(theta)
    # exp(log(cap)) can overshoot cap by an ulp; keep lambda <= cap exactly
    lam, f, weights = _profile(ys, min(math.exp(min(settings.nu0, math.log(cap))), cap), cap)
    grad = _theta_gradient(obj, lam, theta, weights)
    inverse_hessian = np.eye(theta.size)
    trace = [f]
    iterations = 0
    termination = "max_iters"

    for _ in range(settings.max_iters):
        if float(np.linalg.norm(grad)) <= settings.grad_tol:
            termination = "gradient_tol"
            break
        direction = -inverse_hessian @ grad
        slope = float(grad @ direction)
        if not slope < 0.0:  # rounding broke positive definiteness: restart
            inverse_hessian = np.eye(theta.size)
            direction, slope = -grad, -float(grad @ grad)
        step = 1.0
        while step >= _STEP_FLOOR:
            trial = theta + step * direction
            ys_trial = obj.performance_values(trial)
            lam_trial, f_trial, weights_trial = _profile(ys_trial, lam, cap)
            if f_trial <= f + _ARMIJO_C * step * slope:
                break
            step *= 0.5
        else:
            termination = "step_underflow"
            break
        grad_trial = _theta_gradient(obj, lam_trial, trial, weights_trial)
        s, y = trial - theta, grad_trial - grad
        sy = float(s @ y)
        if sy > 0.0:  # the curvature condition; otherwise keep the approximation
            if iterations == 0:  # scale the first approximation (N&W eq. 6.20)
                inverse_hessian *= sy / float(y @ y)
            v = np.eye(theta.size) - np.outer(s, y) / sy
            inverse_hessian = v @ inverse_hessian @ v.T + np.outer(s, s) / sy
        theta, lam, f, ys, grad = trial, lam_trial, f_trial, ys_trial, grad_trial
        iterations += 1
        trace.append(f)

    if ys.min() > 0.0:
        termination = "lambda_cap"
    elif stable_mean(ys) <= 0.0:
        termination = "trivial_bound"
    return OptimizationOutcome(
        theta_star=tuple(float(t) for t in theta),
        lambda_star=float(lam),
        objective_trace=tuple(_exp(v) for v in trace),
        iterations=iterations,
        termination=termination,
    )


class _IndicatorSource(SampleSource):
    """Adapts a scenario stream into the failure indicators 1{Y <= 0}, as
    booleans that the estimator counts.  A Y that is not finite is an error,
    never a survival.
    """

    def __init__(self, model: PerformanceModel, theta: np.ndarray, scenarios: ScenarioSource):
        super().__init__(scenarios.seed)
        self._model = model
        self._theta = theta
        self._scenarios = scenarios

    def _generate(self, k: int) -> np.ndarray:
        rows = self._scenarios.draw(k)
        return _evaluate(self._model, self._theta, rows, self.draws_made) <= 0.0


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
    ``minimum_sample_size(scenario_spec).n`` is a sizing heuristic only: the
    plan assumes [0, 1] summands, and exp(-lambda Y) > 1 wherever Y < 0.  The
    guarantee on theta comes from certification on the certification child of
    ``seed``, a stream distinct from every seed's scenario child.
    """
    if (n_scenarios is None) == (scenario_spec is None):
        raise DomainError("exactly one of n_scenarios and scenario_spec is required")
    n = n_scenarios if n_scenarios is not None else minimum_sample_size(scenario_spec).n
    scenario_set = ScenarioSet.from_model(model, n, seed)
    outcome = minimize(ChernoffObjective(model, scenario_set), settings)
    if certify_spec is not None:
        source = ScenarioSource.from_model(model, seed)
        certificate = certify_probability(model, outcome.theta_star, certify_spec, source)
        outcome = replace(outcome, certificate=certificate)
    return outcome

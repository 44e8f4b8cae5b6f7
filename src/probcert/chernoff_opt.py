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

Models are called on blocks of at most 16,384 scenario rows, and each pass
over the frozen scenarios reads Y a block at a time, with no temporary of
their length.  Scenario sets are immutable after construction and safe to
share; sums are exact and rounded once (the estimator's error-free summation,
bit-identical to ``math.fsum``), so results do not depend on summation order
or block size.  Certification draws fresh scenarios in the estimator's fixed-size chunks and counts their failure
indicators, so its memory does not grow with the planned sample size.
"""

from __future__ import annotations

import inspect
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DomainError, SourceExhaustedError
from . import estimator
from .estimator import Certificate, _certificate, _extract, _require_block, _row_sum
from .estimator import _CERTIFICATION, _SCENARIOS, _stream
from .tail_bounds import ErrorSpec, _Record, _require_int, _require_real, _require_type, minimum_sample_size

__all__ = [
    "ScenarioSet",
    "ScenarioSource",
    "PerformanceModel",
    "ChernoffObjective",
    "OptimizationSettings",
    "OptimizationOutcome",
    "make_model",
    "empirical_moment",
    "empirical_moment_gradient",
    "minimize",
    "certify_probability",
    "optimize_probability",
]

_Y_BOUND = 2.0**450  # for Y and its gradient: Y * Y stays inside the exact kernel's 2^900 range
_STEP_FLOOR = 1e-20  # the line search halves a unit first step down to this
_ARMIJO_C = 1e-4
_LAMBDA_RTOL = 1e-12  # the lambda solve ends at a clipped Newton step this small relative to lambda
_LAMBDA_STEPS = 200
# largest x with math.exp(x) finite
_LOG_MAX = math.log(np.finfo(float).max)
# smallest nu0 whose exp is not 0: the log of the smallest subnormal double
_NU0_MIN = math.log(np.finfo(float).smallest_subnormal)


@dataclass(frozen=True)
class PerformanceModel:
    """A performance function Y(theta, delta) with optional analytic gradient.

    Both callables are batched: they take theta, shape (dim_theta,), and a
    block of at most 16,384 scenario rows, shape (k, dim_delta), and answer
    for every row at once.  ``evaluate(theta, rows)`` returns Y for each row,
    shape (k,); ``gradient_theta(theta, rows)`` returns dY/dtheta for each
    row, shape (k, dim_theta).  Row i of the output must depend on row i only.  Both outputs must have their shape and every value finite with
    |v| <= 2^450; otherwise a DomainError names the first bad scenario.
    ``evaluate`` must be piecewise continuous in theta for fixed delta.
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

    def __post_init__(self):
        for name in ("dim_theta", "dim_delta"):
            object.__setattr__(self, name, _require_int(getattr(self, name), name, 1))


def _make_affine(a: Sequence[float] = (1.0,), b: Sequence[float] = (-1.0,), c: float = 0.0) -> PerformanceModel:
    """Y = a . theta + b . delta + c, with standard normal delta components."""
    a_vec = np.asarray(a, dtype=float)
    b_vec = np.asarray(b, dtype=float)
    if a_vec.ndim != 1 or b_vec.ndim != 1:
        raise ValueError(f"a and b must be flat lists of numbers, got {a!r} and {b!r}")
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
    s = _require_real(sigma, "sigma", 0)

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
    except (KeyError, TypeError):  # an unhashable name is no registry key either
        raise ConfigError("model", f"unknown model {name!r}; available: {sorted(MODEL_REGISTRY)}") from None
    unknown = sorted(set(params) - set(inspect.signature(factory).parameters))  # as the CLI's blocks report theirs
    if unknown:
        raise ConfigError(f"model_params.{unknown[0]}", "unknown field")
    try:
        for key, value in params.items():
            # float(True) is 1.0 and float("3") is 3.0: neither may pass for a number
            for v in np.asarray(value, dtype=object).ravel():
                _require_real(v, key)
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
        arr = _require_block(self.scenarios, None, "scenario", "iuf")
        arr = np.atleast_2d(arr).astype(float, order="C")  # a copy, which only this set holds
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise DomainError(f"scenario array must be (n, d) with n >= 1, got shape {arr.shape}")
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
        return cls(ScenarioSource(model, seed, _role=_SCENARIOS).draw(n), seed)

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


class ScenarioSource:
    """Fresh rows of a model's Delta from one child of ``seed``, through the
    model's sampler; ``draws_made`` counts them.  The default is the
    certification child, never rows that ``ScenarioSet.from_model`` freezes
    (the scenario child, the private ``_role``) for any seed.  Rows of Delta
    are not [0, 1] values, so this is not a ``SampleSource``.
    """

    def __init__(self, model: PerformanceModel, seed: int, *, _role: int = _CERTIFICATION):
        _require_type(model, PerformanceModel, "ScenarioSource")
        self.seed = _require_int(seed, "seed", 0)
        if model.sample_scenarios is None:
            raise DomainError(f"model {model.name!r} has no scenario sampler")
        self._rng = _stream(self.seed, _role)
        self._model = model
        self.draws_made = 0

    @classmethod
    def from_model(cls, model: PerformanceModel, seed: int) -> "ScenarioSource":
        return cls(model, seed)

    def draw(self, k: int) -> np.ndarray:
        k = _require_int(k, "draw count", 0)
        rows = self._model.sample_scenarios(self._rng, k)
        rows = _require_block(rows, (k, self._model.dim_delta), "scenario sampler", "iuf").astype(float, copy=False)
        self.draws_made += k
        return rows


@dataclass(frozen=True, eq=False)
class ChernoffObjective:
    """The empirical surrogate g(lambda, theta) over a fixed scenario set."""

    model: PerformanceModel
    scenarios: ScenarioSet

    def __post_init__(self):
        _require_type(self.model, PerformanceModel, "ChernoffObjective")
        _require_type(self.scenarios, ScenarioSet, "ChernoffObjective")
        if self.scenarios.dim_delta != self.model.dim_delta:
            raise DomainError(
                f"scenario dimension {self.scenarios.dim_delta} does not match "
                f"model dim_delta {self.model.dim_delta}"
            )

    def performance_values(self, theta: np.ndarray) -> np.ndarray:
        """Y(theta, Delta_i) for every scenario, in scenario order."""
        theta = _check_theta(theta, self.model.dim_theta)
        return _evaluate(self.model, theta, self.scenarios.scenarios)


def _model_output(model: PerformanceModel, values, shape: tuple, what: str, offset: int = 0) -> np.ndarray:
    """A model's output as floats, checked to have ``shape`` and every value
    finite with |v| <= 2^450.  ``what`` names the output ("Y" or "gradient"),
    and ``offset`` is added to the reported scenario index (the first axis).
    """
    values = _require_block(values, None, f"model {model.name!r} {what}", "iuf").astype(float, copy=False)
    if values.shape != shape:
        raise DomainError(f"model {model.name!r} returned {what} shape {values.shape}, expected {shape}")
    if not (values.max() <= _Y_BOUND and values.min() >= -_Y_BOUND):  # also false for nan
        bad = tuple(np.argwhere(~(np.abs(values) <= _Y_BOUND))[0])
        problem = f"|{what}| exceeds 2**450" if math.isfinite(values[bad]) else f"{what} is not finite"
        raise DomainError(f"{problem} at scenario {offset + int(bad[0])}: {float(values[bad])!r}")
    return values


def _evaluate(model: PerformanceModel, theta: np.ndarray, rows: np.ndarray, offset: int = 0) -> np.ndarray:
    """Y(theta, row) for each scenario row, one value per row with |Y| <= 2^450, from one model
    call per block of ``_DRAW_CHUNK`` rows: one block's output as it is, more blocks' in one array."""
    n, chunk = rows.shape[0], estimator._DRAW_CHUNK
    if n <= chunk:
        return _model_output(model, model.evaluate(theta, rows), (n,), "Y", offset)
    ys = np.empty(n)
    for start in range(0, n, chunk):
        ys[start : start + chunk] = _evaluate(model, theta, rows[start : start + chunk], offset + start)
    return ys


def _check_theta(theta, dim_theta: int) -> np.ndarray:
    """theta as floats of shape (dim_theta,), each entry a finite number, as theta0's are."""
    arr = np.atleast_1d(np.asarray(theta, dtype=object))
    if arr.shape != (dim_theta,):
        raise DomainError(f"theta must have shape ({dim_theta},), got {arr.shape}")
    return np.array([_require_real(t, "theta", -math.inf) for t in arr])


def _exp(log_value: float) -> float:
    """exp() of a log surrogate value: inf past the double range, never an error."""
    return math.exp(log_value) if log_value <= _LOG_MAX else math.inf


def _weighted_sums(ys: np.ndarray, lam: float, factors=lambda y, start: ()) -> tuple[float, list[float]]:
    """(top, sums): top = max_i(-lambda Y_i), and the exact sums, each rounded
    once, of the shifted weights w_i = exp(-lambda Y_i - top) and of w times
    each row of ``factors(y, start)`` for the block y of Y from scenario
    ``start``.  Y is read, unchanged, in blocks of ``_DRAW_CHUNK``.  The
    largest weight is exactly 1, so log of their mean is finite."""
    # max(-lambda Y) bit for bit, as rounding is monotone; past the double range each weight is 1 or 0
    top = -lam * float(ys.min())
    chunk, parts = estimator._DRAW_CHUNK, []
    with np.errstate(over="ignore"):
        for start in range(0, ys.size, chunk):
            y = ys[start : start + chunk]
            rows = factors(y, start)
            block = np.empty((1 + len(rows), y.size))
            w = np.multiply(y, -lam, out=block[0])
            if math.isinf(top):
                np.equal(w, top, out=w)
            else:
                np.exp(np.subtract(w, top, out=w), out=w)
            for row, factor in zip(block[1:], rows):
                np.multiply(factor, w, out=row)
            parts = parts or [[] for _ in block]
            _extract(block, parts)
    return top, [math.fsum(row) for row in parts]


def _log_moment(ys: np.ndarray, lam: float) -> float:
    """h = log g at lambda from the Y values, ``_moments(ys, lam)[0]`` bit for
    bit: the weights' exact sum is the same with or without the other rows."""
    top, (s0,) = _weighted_sums(ys, lam)
    return top + math.log(s0 / ys.size)


def _moments(ys: np.ndarray, lam: float) -> tuple[float, float, float]:
    """(h, h', h''): h = log g at lambda from the Y values, h' = -E_w[Y] and
    h'' = Var_w(Y) under the shifted weights w, from exact sums in one pass."""
    top, (s0, s1, s2) = _weighted_sums(ys, lam, lambda y, start: (y, y * y))  # |Y| <= 2^450: Y * Y * w is in range
    mean = s1 / s0
    return top + math.log(s0 / ys.size), -mean, s2 / s0 - mean * mean


def _theta_gradient(obj: ChernoffObjective, lam: float, theta: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """d log g / d theta_j = -lambda sum(dY/dtheta_j w) / sum(w) at the Y values
    of theta, from exact sums in one pass that takes dY/dtheta a block at a time.

    Models without an analytic gradient get central differences of log g at
    fixed lambda, step 1e-6 * (1 + |theta_j|) per component.
    """
    model = obj.model
    if model.gradient_theta is not None:
        def gradient_rows(y: np.ndarray, start: int) -> np.ndarray:
            grads = model.gradient_theta(theta, obj.scenarios.scenarios[start : start + y.size])
            return _model_output(model, grads, (y.size, model.dim_theta), "gradient", start).T

        _, (s0, *sums) = _weighted_sums(ys, lam, gradient_rows)
        return -lam * np.array(sums) / s0
    d_theta = np.empty(model.dim_theta)
    for j, bump in enumerate(np.diag(1e-6 * (1.0 + np.abs(theta)))):
        up, down = (_log_moment(obj.performance_values(t), lam) for t in (theta + bump, theta - bump))
        d_theta[j] = (up - down) / (2.0 * bump[j])
    return d_theta


def empirical_moment(obj: ChernoffObjective, lam: float, theta) -> float:
    """g(lambda, theta) = (1/n) sum_i exp(-lambda Y_i), as exp(log g).

    Beyond the double range the result is inf.
    """
    _require_type(obj, ChernoffObjective, "empirical_moment")
    lam = _require_real(lam, "lambda", 0)
    return _exp(_log_moment(obj.performance_values(theta), lam))


def empirical_moment_gradient(obj: ChernoffObjective, lam: float, theta) -> tuple[float, np.ndarray]:
    """Partials of the surrogate, g times the partials of log g:

        dg/dlambda  = -(1/n) sum_i Y_i exp(-lambda Y_i)
        dg/dtheta_j = -(lambda/n) sum_i dY/dtheta_j exp(-lambda Y_i)

    Models without an analytic gradient get central differences of log g in
    theta.  Beyond the double range the partials are infinite.
    """
    _require_type(obj, ChernoffObjective, "empirical_moment_gradient")
    lam = _require_real(lam, "lambda", 0)
    theta = _check_theta(theta, obj.model.dim_theta)
    ys = obj.performance_values(theta)
    log_g, d_lambda, _ = _moments(ys, lam)
    g = _exp(log_g)
    return float(g * d_lambda), g * _theta_gradient(obj, lam, theta, ys)


@dataclass(frozen=True)
class OptimizationSettings(_Record):
    """Descent configuration.  theta0 is the starting point; exp(nu0) is the
    first warm start of the lambda solve, whose range is (0, lambda_cap].
    """

    theta0: tuple[float, ...]
    nu0: float = 0.0
    max_iters: int = 500
    grad_tol: float = 1e-6
    lambda_cap: float = 50.0

    def __post_init__(self):
        if isinstance(self.theta0, (str, bytes)) or not hasattr(self.theta0, "__iter__"):
            raise DomainError(f"theta0 must be a sequence of reals, got {self.theta0!r}")
        object.__setattr__(self, "theta0", tuple(_require_real(t, "theta0", -math.inf) for t in self.theta0))
        # checked, not converted: the settings are echoed as given
        for name, low in (("nu0", None), ("grad_tol", 0), ("lambda_cap", 0)):
            _require_real(getattr(self, name), name, low)
        object.__setattr__(self, "max_iters", _require_int(self.max_iters, "max_iters", 0))
        if len(self.theta0) < 1:
            raise DomainError("theta0 must be nonempty")
        if not _NU0_MIN <= self.nu0 < math.inf:  # false for nan too
            raise DomainError(f"nu0 must be finite and >= {_NU0_MIN:.6g} (exp(nu0) > 0), got {self.nu0!r}")


@dataclass(frozen=True)
class OptimizationOutcome(_Record):
    """Result of a descent run, with an optional fresh-sample certificate."""

    theta_star: tuple[float, ...]
    lambda_star: float
    objective_trace: tuple[float, ...]
    iterations: int
    termination: str  # gradient_tol | max_iters | step_underflow | lambda_cap | trivial_bound
    certificate: Optional[Certificate] = None


def _profile(ys: np.ndarray, lam: float, cap: float) -> tuple[float, float, Optional[str]]:
    """(lambda*, log g there, why the bound is vacuous) for the Y values at one
    theta.  lambda* minimizes the convex h = log g over (0, cap]: the cap when
    every Y > 0 ("lambda_cap").  When the sum of Y, the weights' at lambda = 0,
    is <= 0 ("trivial_bound"), h' >= 0 from 0 on, so lam is kept and theta
    still gets a gradient.  Otherwise (None) Newton steps from lam, clipped to
    the cap, run until one is within _LAMBDA_RTOL of lambda; zero curvature is
    an infinite step toward the root, and a longer step out of the bracket bisects.
    """
    if ys.min() > 0.0:
        lam, vacuous = cap, "lambda_cap"
    else:
        vacuous = None if _weighted_sums(ys, 0.0, lambda y, start: (y,))[1][1] > 0.0 else "trivial_bound"
    if vacuous is None:
        lo, hi = 0.0, math.inf  # h' < 0 at lo, h' > 0 at hi
        for _ in range(_LAMBDA_STEPS):
            f, d1, d2 = _moments(ys, lam)
            step = -d1 / d2 if d2 > 0.0 else math.copysign(math.inf, -d1) if d1 else 0.0
            nxt = min(lam + step, cap)
            if abs(nxt - lam) <= _LAMBDA_RTOL * lam:
                return lam, f, None
            lo, hi = (lam, hi) if d1 < 0.0 else (lo, lam)
            lam = nxt if lo < nxt < hi else 0.5 * (lo + hi) if hi < math.inf else cap
    return lam, _moments(ys, lam)[0], vacuous


def minimize(obj: ChernoffObjective, settings: OptimizationSettings) -> OptimizationOutcome:
    """BFGS descent on F(theta) = min over lambda in (0, lambda_cap] of log g.

    A trial costs one model evaluation; its lambda* is warm-started from the
    last one (first from exp(nu0)), and its Y replaces the last one's.  Steps
    start at unit length and halve until the Armijo condition holds, so the
    trace of g is non-increasing.
    The loop ends at gradient norm <= grad_tol, max_iters or step underflow
    (a step below _STEP_FLOOR, or too short to move theta), but a vacuous
    end point reports ``lambda_cap`` (every Y > 0) or ``trivial_bound``
    (mean Y <= 0) instead, as ``_profile`` decided it for that point.
    """
    _require_type(obj, ChernoffObjective, "minimize")
    _require_type(settings, OptimizationSettings, "minimize")
    if obj.model.dim_theta != len(settings.theta0):
        raise DomainError(
            f"theta0 has {len(settings.theta0)} components, model needs {obj.model.dim_theta}"
        )
    cap = settings.lambda_cap
    theta = np.array(settings.theta0)
    # exp(log(cap)) can overshoot cap by an ulp; keep lambda <= cap exactly
    warm = min(math.exp(min(settings.nu0, math.log(cap))), cap)
    lam, f, vacuous = _profile(ys := obj.performance_values(theta), warm, cap)
    grad = _theta_gradient(obj, lam, theta, ys)
    inverse_hessian = np.eye(theta.size)
    trace = [f]
    iterations = 0
    termination = "max_iters"

    for _ in range(settings.max_iters):
        if math.hypot(*grad) <= settings.grad_tol:  # no squares: a tiny gradient keeps its norm
            termination = "gradient_tol"
            break
        direction = -inverse_hessian @ grad
        slope = float(grad @ direction)
        if not slope < 0.0:  # rounding broke positive definiteness: restart
            inverse_hessian = np.eye(theta.size)
            direction, slope = -grad, -float(grad @ grad)
        step = 1.0
        while step >= _STEP_FLOOR and not np.array_equal(trial := theta + step * direction, theta):
            lam_trial, f_trial, vacuous_trial = _profile(ys := obj.performance_values(trial), lam, cap)
            if f_trial < f + _ARMIJO_C * step * slope:
                break
            step *= 0.5
        else:
            termination = "step_underflow"
            break
        grad_trial = _theta_gradient(obj, lam_trial, trial, ys)
        s, y = trial - theta, grad_trial - grad
        sy = float(s @ y)
        if sy > 0.0:  # the curvature condition; otherwise keep the approximation
            if iterations == 0:  # scale the first approximation (N&W eq. 6.20)
                inverse_hessian *= sy / float(y @ y)
            v = np.eye(theta.size) - np.outer(s, y) / sy
            inverse_hessian = v @ inverse_hessian @ v.T + np.outer(s, s) / sy
        theta, lam, f, vacuous, grad = trial, lam_trial, f_trial, vacuous_trial, grad_trial
        iterations += 1
        trace.append(f)

    return OptimizationOutcome(
        theta_star=tuple(float(t) for t in theta),
        lambda_star=float(lam),
        objective_trace=tuple(_exp(v) for v in trace),
        iterations=iterations,
        termination=vacuous or termination,
    )


def certify_probability(
    model: PerformanceModel, theta, spec: ErrorSpec, source: ScenarioSource
) -> Certificate:
    """Certified estimate of p(theta) = Pr{Y(theta, Delta) <= 0} on fresh draws.

    The scenario source must be independent of any scenarios the candidate
    theta was optimized over; certifying on optimized-over draws would bias
    the estimate optimistically.  The failure indicators 1{Y <= 0} of each
    block of rows are counted.  A Y that ``_evaluate`` rejects (not finite,
    or past 2^450) is an error, never a survival, reported at its index
    among this certification's rows.
    """
    _require_type(model, PerformanceModel, "certify_probability")
    _require_type(source, ScenarioSource, "certify_probability")
    _require_type(spec, ErrorSpec, "certify_probability")
    theta = _check_theta(theta, model.dim_theta)
    n, chunk = minimum_sample_size(spec).n, estimator._DRAW_CHUNK
    failures = (
        _evaluate(model, theta, source.draw(min(chunk, n - start)), start) <= 0.0 for start in range(0, n, chunk)
    )
    total, drawn = _row_sum(failures)
    if drawn != n:  # only a ``draw`` override can return other than the rows asked for
        error = SourceExhaustedError if drawn < n else DomainError
        raise error(f"scenario source produced {drawn} of {n} planned rows")
    return _certificate(total / n, n, spec.eps_a, spec.eps_r, "planned")


def optimize_probability(
    model: PerformanceModel,
    settings: OptimizationSettings,
    *,
    seed: int,
    n_scenarios: int,
    certify_spec: Optional[ErrorSpec] = None,
) -> OptimizationOutcome:
    """End-to-end pipeline: freeze ``n_scenarios`` scenarios, minimize,
    certify on fresh draws.

    The guarantee on theta comes from certification on the certification
    child of ``seed``, a stream distinct from every seed's scenario child.
    """
    _require_type(model, PerformanceModel, "optimize_probability")
    _require_type(settings, OptimizationSettings, "optimize_probability")
    if certify_spec is not None:
        _require_type(certify_spec, ErrorSpec, "optimize_probability")
    scenario_set = ScenarioSet.from_model(model, n_scenarios, seed)
    outcome = minimize(ChernoffObjective(model, scenario_set), settings)
    if certify_spec is not None:
        source = ScenarioSource.from_model(model, seed)
        certificate = certify_probability(model, outcome.theta_star, certify_spec, source)
        outcome = replace(outcome, certificate=certificate)
    return outcome

"""Certified probability estimation and Chernoff-surrogate optimization.

The package answers two questions about a [0, 1]-bounded random quantity:

* how many i.i.d. samples certify its mean to within an absolute tolerance
  eps_a OR a relative tolerance eps_r, with risk below delta; and
* how to pick decision parameters that make a failure probability small,
  by descending a smooth empirical Chernoff surrogate and certifying the
  result on fresh samples.

See ``probcert.verification`` for the executable evidence behind the bounds
and ``probcert.cli`` for the command-line surface.
"""

from .errors import (
    ConfigError,
    DomainError,
    InvalidSpecError,
    ProbcertError,
    SampleValueError,
    SourceExhaustedError,
)
from .tail_bounds import (
    ErrorSpec,
    SamplePlan,
    achieved_confidence,
    hoeffding_exponent,
    lower_tail_bound,
    minimum_sample_size,
    upper_tail_bound,
    validate_spec,
)
from .estimator import (
    BernoulliSource,
    Certificate,
    SampleSource,
    estimate_from_batch,
    estimate_with_plan,
)
from .chernoff_opt import (
    ChernoffObjective,
    OptimizationOutcome,
    OptimizationSettings,
    PerformanceModel,
    ScenarioSet,
    ScenarioSource,
    certify_probability,
    empirical_moment,
    empirical_moment_gradient,
    make_model,
    minimize,
    optimize_probability,
)
from .verification import (
    GridSpec,
    ScanReport,
    binomial_tail_exact,
    coverage_experiment,
    domination_experiment,
    lemma56_check,
    lemma_scan,
)

__version__ = "0.1.0"

__all__ = [
    "ProbcertError",
    "DomainError",
    "InvalidSpecError",
    "SampleValueError",
    "SourceExhaustedError",
    "ConfigError",
    "ErrorSpec",
    "SamplePlan",
    "hoeffding_exponent",
    "upper_tail_bound",
    "lower_tail_bound",
    "minimum_sample_size",
    "achieved_confidence",
    "validate_spec",
    "SampleSource",
    "BernoulliSource",
    "Certificate",
    "estimate_with_plan",
    "estimate_from_batch",
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
    "GridSpec",
    "ScanReport",
    "binomial_tail_exact",
    "lemma_scan",
    "lemma56_check",
    "coverage_experiment",
    "domination_experiment",
    "__version__",
]

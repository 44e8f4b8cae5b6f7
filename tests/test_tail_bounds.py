"""Tests for the Hoeffding exponent and mixed-criterion sample sizing.

Frozen constants were computed with a 50-digit mpmath evaluation of the
defining formulas; each is a plain re-evaluation, independent of the
log1p-based implementation under test.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from probcert import (
    ChernoffObjective,
    DomainError,
    ErrorSpec,
    GridSpec,
    InvalidSpecError,
    OptimizationSettings,
    ScenarioSet,
    ScenarioSource,
    achieved_confidence,
    binomial_tail_exact,
    certify_probability,
    chernoff_opt,
    coverage_experiment,
    domination_experiment,
    empirical_moment,
    empirical_moment_gradient,
    estimate_with_plan,
    hoeffding_exponent,
    lemma56_check,
    lemma_scan,
    lower_tail_bound,
    make_model,
    minimize,
    minimum_sample_size,
    optimize_probability,
    upper_tail_bound,
    validate_spec,
)
from probcert.tail_bounds import _dg as dg  # d g / d mu as the lemma checks compute it
from support import ConstantSource, random_valid_specs

# 50-digit oracle values (mpmath, direct evaluation of the two-term formula)
G_01_05 = -0.0201355135506888734205127789688
G_02_05 = -0.0822828785050518463915611582608
G_005_025 = -0.0064014569973203718321216138732
DG_01_05 = -0.00546510810816438197801311546435
DG_01_04 = 0.0112015585585022846886535512023
UPPER_100_01_05 = 0.133513677251316603791597911618
LOWER_10_02_05 = 0.439187528538054254379935006205
ACH_577 = 0.0497625041681963602055784651914
ACH_576 = 0.0500820784779992552553308155978


class TestHoeffdingExponent:
    def test_reference_value(self):
        assert hoeffding_exponent(0.1, 0.5) == pytest.approx(G_01_05, abs=1e-6)
        # the implementation should be far tighter than the stated tolerance
        assert hoeffding_exponent(0.1, 0.5) == pytest.approx(G_01_05, rel=1e-14)

    def test_vanishes_at_zero_offset(self):
        assert hoeffding_exponent(0.0, 0.3) == 0.0
        assert abs(hoeffding_exponent(1e-5, 0.3)) < 1e-8

    @pytest.mark.parametrize("mu", [5e-324, 1e-300, 1e-9, 0.3, 0.5, 0.7, 1.0 - 2.0**-53])
    def test_zero_offset_is_positive_zero(self, mu):
        # g is evaluated at eps = 0 too, with no special case: both zeros give +0.0
        for eps in (0.0, -0.0):
            value = hoeffding_exponent(eps, mu)
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_negative_offset_symmetry_at_half(self):
        assert hoeffding_exponent(-0.2, 0.5) == pytest.approx(G_02_05, abs=1e-6)
        assert hoeffding_exponent(0.2, 0.5) == pytest.approx(
            hoeffding_exponent(-0.2, 0.5), rel=1e-14
        )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            hoeffding_exponent(0.6, 0.5)  # mu + eps = 1.1
        with pytest.raises(DomainError):
            hoeffding_exponent(0.1, 0.0)
        with pytest.raises(DomainError):
            hoeffding_exponent(0.1, 1.0)
        with pytest.raises(DomainError):
            hoeffding_exponent(-0.5, 0.5)  # mu + eps = 0

    def test_nonpositive_on_grid(self):
        for eps in np.concatenate([np.linspace(1e-3, 0.4, 40), -np.linspace(1e-3, 0.4, 40)]):
            for mu in np.linspace(0.05, 0.95, 37):
                if not 0.0 < mu + eps < 1.0:
                    continue
                assert hoeffding_exponent(float(eps), float(mu)) < 0.0

    def test_symmetry_identity_on_grid(self):
        # g(-eps, mu) = g(eps, 1 - mu), an algebraic identity of the formula
        for eps in np.linspace(1e-3, 0.4, 40):
            for mu in np.linspace(0.05, 0.95, 37):
                eps, mu = float(eps), float(mu)
                if not (0.0 < mu - eps and mu + eps < 1.0):
                    continue
                lhs = hoeffding_exponent(-eps, mu)
                rhs = hoeffding_exponent(eps, 1.0 - mu)
                assert lhs == pytest.approx(rhs, abs=1e-12)

    @given(
        eps=st.floats(1e-3, 0.4),
        mu=st.floats(0.05, 0.95),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    @settings(max_examples=200)
    def test_nonpositivity_property(self, eps, mu, sign):
        eps = sign * eps
        assume(0.0 < mu + eps < 1.0)
        assert hoeffding_exponent(eps, mu) < 0.0


class TestExponentDerivative:
    def test_closed_form_value(self):
        # ln(0.8/1.2) + 0.2 + 0.2 at (0.1, 0.5)
        assert dg(0.1, 0.5) == pytest.approx(DG_01_05, abs=1e-6)

    def test_sign_flip_at_half(self):
        assert dg(-0.1, 0.5) == pytest.approx(-DG_01_05, abs=1e-6)

    def test_matches_finite_difference(self):
        h = 1e-6
        fd = (hoeffding_exponent(0.1, 0.4 + h) - hoeffding_exponent(0.1, 0.4 - h)) / (2 * h)
        assert dg(0.1, 0.4) == pytest.approx(fd, rel=1e-6)
        assert dg(0.1, 0.4) == pytest.approx(DG_01_04, rel=1e-12)

    def test_finite_difference_grid(self):
        h = 1e-6
        for eps in (-0.2, -0.05, 0.05, 0.2):
            for mu in (0.3, 0.45, 0.6):
                if not 0.0 < mu + eps < 1.0:
                    continue
                fd = (
                    hoeffding_exponent(eps, mu + h) - hoeffding_exponent(eps, mu - h)
                ) / (2 * h)
                assert dg(eps, mu) == pytest.approx(fd, rel=1e-6)


class TestTailBounds:
    def test_upper_bound_value(self):
        assert upper_tail_bound(100, 0.1, 0.5) == pytest.approx(UPPER_100_01_05, abs=1e-4)

    def test_lower_bound_value(self):
        assert lower_tail_bound(10, 0.2, 0.5) == pytest.approx(LOWER_10_02_05, abs=1e-4)

    def test_limits_to_one(self):
        assert 1.0 - 1e-12 < upper_tail_bound(1, 1e-9, 0.5) <= 1.0
        assert 1.0 - 1e-12 < lower_tail_bound(1, 1e-9, 0.3) <= 1.0

    def test_count_and_domain_errors(self):
        with pytest.raises(DomainError):
            upper_tail_bound(0, 0.1, 0.5)
        with pytest.raises(DomainError):
            lower_tail_bound(10, 0.6, 0.5)  # eps >= mu
        with pytest.raises(DomainError):
            upper_tail_bound(10, 0.5, 0.5)  # eps >= 1 - mu

    def test_bounds_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            mu = rng.uniform(0.05, 0.95)
            n = int(rng.integers(1, 500))
            eps_up = rng.uniform(0.01, 0.99) * (1.0 - mu)
            eps_lo = rng.uniform(0.01, 0.99) * mu
            up = upper_tail_bound(n, eps_up, mu)
            lo = lower_tail_bound(n, eps_lo, mu)
            assert 0.0 < up <= 1.0
            assert 0.0 < lo <= 1.0

    def test_underflow_reads_smallest_subnormal(self):
        # n g(+-0.3, 0.5) is about -1.9e5, far below ln(5e-324): exp(n g) is 0.0,
        # and a 0 would claim the tail impossible
        assert 10**6 * hoeffding_exponent(0.3, 0.5) < -1e5
        assert upper_tail_bound(10**6, 0.3, 0.5) == math.ulp(0.0)
        assert lower_tail_bound(10**6, 0.3, 0.5) == math.ulp(0.0)


class TestValidateSpec:
    def test_valid(self):
        spec = validate_spec(0.02, 0.2, 0.05)
        assert (spec.eps_a, spec.eps_r, spec.delta) == (0.02, 0.2, 0.05)

    def test_ratio_violation(self):
        with pytest.raises(InvalidSpecError, match="eps_a/eps_r"):
            validate_spec(0.05, 0.05, 0.1)

    def test_delta_violation(self):
        with pytest.raises(InvalidSpecError, match="delta"):
            validate_spec(0.01, 0.1, 1.0)

    def test_all_violations_reported(self):
        with pytest.raises(InvalidSpecError) as exc_info:
            validate_spec(-0.1, 2.0, 0.0)
        assert len(exc_info.value.violations) == 3

    def test_dataclass_construction_validates(self):
        with pytest.raises(InvalidSpecError):
            ErrorSpec(eps_a=0.3, eps_r=0.5, delta=0.1)

    def test_boundary_equality_allowed(self):
        # eps_a/eps_r + eps_a = 0.125/0.5 + 0.125 = 0.375 <= 0.5; push to equality
        validate_spec(0.25 / 1.5, 0.5, 0.1)  # ratio + eps_a = 0.5 exactly


class TestMinimumSampleSize:
    def test_reference_plans(self):
        plan = minimum_sample_size(validate_spec(0.05, 0.2, 0.05))
        assert plan.n == 577
        assert plan.worst_case_exponent == pytest.approx(G_005_025, rel=1e-13)
        assert minimum_sample_size(validate_spec(0.02, 0.2, 0.05)).n == 1755

    def test_plan_invariants(self):
        plan = minimum_sample_size(validate_spec(0.05, 0.2, 0.05))
        half = plan.spec.delta / 2.0
        assert math.exp(plan.n * plan.worst_case_exponent) < half
        assert math.exp((plan.n - 1) * plan.worst_case_exponent) >= half
        assert plan.worst_case_exponent < 0.0

    def test_invalid_spec_rejected(self):
        with pytest.raises(InvalidSpecError, match="eps_a/eps_r"):
            validate_spec(0.3, 0.5, 0.1)

    @pytest.mark.parametrize(
        "eps_a, eps_r, exponent",
        [(5e-324, 0.5, r"0\.0"), (1e-12, 1e-10, "-5"), (1e-300, 1e-10, "-5")],
        ids=["exponent_rounds_to_zero", "past_2_53", "ratio_overflows"],
    )
    def test_plan_of_2_53_or_more_rejected(self, eps_a, eps_r, exponent):
        # past 2**53 a unit step in n need not move n * g, so the correction
        # against the exponential form could run for ~1e6 steps or never end
        with pytest.raises(DomainError, match=rf"below 2\*\*53.* exponent g = {exponent}"):
            minimum_sample_size(validate_spec(eps_a, eps_r, 0.1))

    def test_largest_plans_below_2_53(self):
        # n just below 2**53 is still returned, and is still the smallest
        spec = validate_spec(2e-8, 1e-7, 2e-4)
        plan = minimum_sample_size(spec)
        assert 2**52 < plan.n < 2**53
        assert math.exp(plan.n * plan.worst_case_exponent) < spec.delta / 2.0
        assert math.exp((plan.n - 1) * plan.worst_case_exponent) >= spec.delta / 2.0

    def test_delta_below_the_smallest_normal_plans(self):
        # 2 / delta overflows at delta = 1e-320; ln 2 - ln delta does not
        plan = minimum_sample_size(validate_spec(0.05, 0.2, 1e-320))
        assert plan.n == 115_212
        assert achieved_confidence(plan.n, 0.05, 0.2) < 1e-320 <= achieved_confidence(plan.n - 1, 0.05, 0.2)

    def test_delta_at_the_smallest_normal_plans_as_before(self):
        assert minimum_sample_size(validate_spec(0.05, 0.2, 2.2250738585072014e-308)).n == 110_771

    def test_delta_of_5e_324_has_no_plan(self):
        # a risk bound never reads below 5e-324, so no plan could certify a risk below it
        with pytest.raises(InvalidSpecError, match="5e-324"):
            validate_spec(0.05, 0.2, 5e-324)

    def test_tightness_random_specs(self):
        for spec in random_valid_specs(100, seed=91):
            plan = minimum_sample_size(spec)
            assert achieved_confidence(plan.n, spec.eps_a, spec.eps_r) < spec.delta
            if plan.n > 1:
                assert (
                    achieved_confidence(plan.n - 1, spec.eps_a, spec.eps_r) >= spec.delta
                )

    def test_two_algebraic_forms_agree(self):
        # the printed ratio formula equals ln(2/delta) / (-g) identically
        for spec in random_valid_specs(100, seed=17):
            ea, er, d = spec.eps_a, spec.eps_r, spec.delta
            printed = (er * math.log(2.0 / d)) / (
                (ea + ea * er) * math.log1p(er)
                + (er - ea - ea * er) * math.log1p(-ea * er / (er - ea))
            )
            via_exponent = math.log(2.0 / d) / -hoeffding_exponent(ea, ea / er)
            assert printed == pytest.approx(via_exponent, rel=1e-10)


class TestAchievedConfidence:
    def test_reference_values(self):
        assert achieved_confidence(577, 0.05, 0.2) == pytest.approx(ACH_577, rel=1e-12)
        assert achieved_confidence(577, 0.05, 0.2) < 0.05
        assert achieved_confidence(576, 0.05, 0.2) == pytest.approx(ACH_576, rel=1e-12)
        assert achieved_confidence(576, 0.05, 0.2) >= 0.05

    def test_monotone_decreasing(self):
        values = [achieved_confidence(n, 0.05, 0.2) for n in (1, 10, 100, 1000, 5000)]
        assert values[0] == 1.0  # capped
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-10

    def test_cap_at_one(self):
        assert achieved_confidence(1, 0.02, 0.2) == 1.0

    def test_underflow_reads_smallest_subnormal(self):
        # 2 exp(1e8 g) underflows to 0, and a certificate at 0 risk claims
        # its criterion holds with probability > 1
        assert 2.0 * math.exp(10**8 * hoeffding_exponent(0.05, 0.25)) == 0.0
        assert achieved_confidence(10**8, 0.05, 0.2) == math.ulp(0.0)

    def test_constraint_errors(self):
        with pytest.raises(InvalidSpecError):
            achieved_confidence(100, 0.3, 0.5)
        with pytest.raises(DomainError):
            achieved_confidence(0, 0.05, 0.2)


MODEL = make_model("uniform_gap")
OBJECTIVE = ChernoffObjective(MODEL, ScenarioSet.from_model(MODEL, 5, 1))
SPEC = validate_spec(0.05, 0.2, 0.05)
# a bool is never a number here, nor a string or None; -1 and NaN are out of range
INTS = (True, 2.5, "3", None, -1, math.nan)
REALS = (True, "3", None)

# entry point -> (call with the bad value, parameter the error names, bad values);
# estimator's own tables cover _stream's seed, SampleSource.draw and BernoulliSource's p
BAD_INPUTS = {
    # seeds
    "SampleSource": (lambda v: ConstantSource(0.5, seed=v), "seed", INTS),
    "ScenarioSource": (lambda v: ScenarioSource.from_model(MODEL, v), "seed", INTS),
    "ScenarioSet": (lambda v: ScenarioSet(np.zeros((2, 1)), seed=v), "seed", INTS),
    "ScenarioSet.from_array": (lambda v: ScenarioSet.from_array(np.zeros((2, 1)), seed=v), "seed", INTS),
    "ScenarioSet.from_model.seed": (lambda v: ScenarioSet.from_model(MODEL, 3, v), "seed", INTS),
    # counts
    "ScenarioSource.draw": (lambda v: ScenarioSource.from_model(MODEL, 1).draw(v), "draw count", INTS),
    "binomial_tail_exact.k": (lambda v: binomial_tail_exact(5, 0.5, v), "k", INTS),
    # from 2**53 on, j and n - j are no longer exact doubles: (2**53, 1e-16, 3) read 0.406
    "binomial_tail_exact.n": (lambda v: binomial_tail_exact(v, 0.5, 0), "n", INTS + (0, 2**53)),
    "upper_tail_bound.n": (lambda v: upper_tail_bound(v, 0.1, 0.5), "n", INTS + (0,)),
    "lower_tail_bound.n": (lambda v: lower_tail_bound(v, 0.1, 0.5), "n", INTS + (0,)),
    "achieved_confidence.n": (lambda v: achieved_confidence(v, 0.05, 0.2), "n", INTS + (0,)),
    "lemma56_check.n": (lambda v: lemma56_check(SPEC, [0.1], v), "n", INTS + (0,)),
    "ScenarioSet.from_model.n": (lambda v: ScenarioSet.from_model(MODEL, v, 1), "scenario count", INTS + (0,)),
    "OptimizationSettings.max_iters": (
        lambda v: OptimizationSettings(theta0=(0.5,), max_iters=v), "max_iters", INTS),
    "coverage_experiment.trials": (lambda v: coverage_experiment(SPEC, [0.5], v, 3), "trials", INTS + (0,)),
    "domination_experiment.points": (
        lambda v: domination_experiment("quadratic_well", SPEC, v, 3), "points", INTS + (0,)),
    # numbers
    "OptimizationSettings.theta0": (lambda v: OptimizationSettings(theta0=(v,)), "theta0", REALS + (math.nan,)),
    "OptimizationSettings.nu0": (
        lambda v: OptimizationSettings(theta0=(0.5,), nu0=v), "nu0", REALS + (math.nan,)),
    "OptimizationSettings.grad_tol": (
        lambda v: OptimizationSettings(theta0=(0.5,), grad_tol=v), "grad_tol", REALS + (-1, math.nan)),
    "OptimizationSettings.lambda_cap": (
        lambda v: OptimizationSettings(theta0=(0.5,), lambda_cap=v), "lambda_cap", REALS + (-1, math.nan)),
    "ErrorSpec.eps_a": (lambda v: ErrorSpec(v, 0.2, 0.05), "eps_a", REALS + (-1, math.nan)),
    "ErrorSpec.eps_r": (lambda v: ErrorSpec(0.05, v, 0.05), "eps_r", REALS + (-1, math.nan)),
    "validate_spec.delta": (lambda v: validate_spec(0.05, 0.2, v), "delta", REALS + (-1, math.nan)),
    "achieved_confidence.eps_a": (lambda v: achieved_confidence(10, v, 0.2), "eps_a", REALS + (-1, math.nan)),
    "achieved_confidence.eps_r": (lambda v: achieved_confidence(10, 0.05, v), "eps_r", REALS + (-1, math.nan)),
    "GridSpec.eps": (lambda v: GridSpec(eps=v), "eps", REALS),
    "GridSpec.step": (lambda v: GridSpec(eps=0.1, step=v), "step", REALS + (-1, math.nan)),
    "GridSpec.margin": (lambda v: GridSpec(eps=0.1, margin=v), "margin", REALS + (-1, math.nan)),
    "lemma56_check.mu_grid": (lambda v: lemma56_check(SPEC, [0.1, v], 10), "mu grid", REALS + (-1, math.nan)),
    "coverage_experiment.mu_grid": (
        lambda v: coverage_experiment(SPEC, [0.1, v], 10, 3), "mu grid", REALS + (-1, math.nan)),
    # open ranges: mu in (0, 1), eps in (0, 1 - mu) above and (0, mu) below, mu + eps in (0, 1)
    "hoeffding_exponent.eps": (lambda v: hoeffding_exponent(v, 0.5), "eps", REALS + (-0.5, 0.5, math.nan)),
    "hoeffding_exponent.mu": (lambda v: hoeffding_exponent(0.1, v), "mu", REALS + (0, 1, math.nan)),
    "upper_tail_bound.eps": (lambda v: upper_tail_bound(10, v, 0.6), "eps", REALS + (0, 0.4, math.nan)),
    "upper_tail_bound.mu": (lambda v: upper_tail_bound(10, 0.1, v), "mu", REALS + (0, 1, math.nan)),
    "lower_tail_bound.eps": (lambda v: lower_tail_bound(10, v, 0.4), "eps", REALS + (0, 0.4, math.nan)),
    "lower_tail_bound.mu": (lambda v: lower_tail_bound(10, 0.1, v), "mu", REALS + (0, 1, math.nan)),
    "binomial_tail_exact.mu": (lambda v: binomial_tail_exact(5, v, 2), "mu", REALS + (0, 1, math.nan)),
    # lambda in (0, inf), and every entry of theta finite
    "empirical_moment.lambda": (
        lambda v: empirical_moment(OBJECTIVE, v, (0.5,)), "lambda", REALS + (0, math.inf, math.nan)),
    "empirical_moment_gradient.lambda": (
        lambda v: empirical_moment_gradient(OBJECTIVE, v, (0.5,)), "lambda", REALS + (0, math.inf, math.nan)),
    "empirical_moment.theta": (
        lambda v: empirical_moment(OBJECTIVE, 1.0, (v,)), "theta", REALS + (math.inf, math.nan)),
}

# entry point -> call with a spec (and a sample source where it takes one)
SPEC_TAKERS = {
    "minimum_sample_size": lambda spec, source: minimum_sample_size(spec),
    "estimate_with_plan": lambda spec, source: estimate_with_plan(source, spec),
    "certify_probability": lambda spec, source: certify_probability(
        MODEL, (0.5,), spec, ScenarioSource.from_model(MODEL, 3)),
    "lemma56_check": lambda spec, source: lemma56_check(spec, [0.1], 10),
    "coverage_experiment": lambda spec, source: coverage_experiment(spec, [0.1], 10, 3),
    "domination_experiment": lambda spec, source: domination_experiment("quadratic_well", spec, 1, 3),
    "optimize_probability": lambda spec, source: optimize_probability(
        MODEL, OptimizationSettings(theta0=(0.5,)), seed=3, n_scenarios=100, certify_spec=spec),
}

SETTINGS = OptimizationSettings(theta0=(0.5,))
# entry point's argument -> (call with the bad value, "<entry point> takes a/an <type>")
TYPE_TAKERS = {
    "minimize.obj": (lambda v: minimize(v, SETTINGS), "minimize takes a ChernoffObjective"),
    "minimize.settings": (lambda v: minimize(OBJECTIVE, v), "minimize takes an OptimizationSettings"),
    "optimize_probability.model": (
        lambda v: optimize_probability(v, SETTINGS, seed=3, n_scenarios=100, certify_spec=SPEC),
        "optimize_probability takes a PerformanceModel"),
    "optimize_probability.settings": (
        lambda v: optimize_probability(MODEL, v, seed=3, n_scenarios=100, certify_spec=SPEC),
        "optimize_probability takes an OptimizationSettings"),
    "certify_probability.model": (
        lambda v: certify_probability(v, (0.5,), SPEC, ScenarioSource.from_model(MODEL, 3)),
        "certify_probability takes a PerformanceModel"),
    "ChernoffObjective.model": (
        lambda v: ChernoffObjective(v, OBJECTIVE.scenarios), "ChernoffObjective takes a PerformanceModel"),
    "ChernoffObjective.scenarios": (lambda v: ChernoffObjective(MODEL, v), "ChernoffObjective takes a ScenarioSet"),
    "ScenarioSource": (lambda v: ScenarioSource(v, 3), "ScenarioSource takes a PerformanceModel"),
    "ScenarioSource.from_model": (lambda v: ScenarioSource.from_model(v, 3), "ScenarioSource takes a PerformanceModel"),
    "lemma_scan": (lambda v: lemma_scan("L2", v), "lemma_scan takes a GridSpec"),
    "empirical_moment": (lambda v: empirical_moment(v, 1.0, (0.5,)), "empirical_moment takes a ChernoffObjective"),
    "empirical_moment_gradient": (
        lambda v: empirical_moment_gradient(v, 1.0, (0.5,)), "empirical_moment_gradient takes a ChernoffObjective"),
}


class TestInputPolicy:
    """Every count, seed and number the library receives goes through
    ``_require_int`` or ``_require_real``, a number's open range (a tail
    bound's mu and eps, lambda, each entry of theta) too: a bad one is a
    DomainError or an InvalidSpecError naming the parameter, never a
    TypeError, a bare ValueError from deeper down, or a bool taken as 0 or 1.
    """

    @pytest.mark.parametrize(
        "entry, value",
        [(entry, value) for entry, (_, _, values) in BAD_INPUTS.items() for value in values],
        ids=lambda x: repr(x) if not isinstance(x, str) or x in REALS else x,
    )
    def test_bad_input_rejected(self, entry, value):
        call, name, _ = BAD_INPUTS[entry]
        with pytest.raises((DomainError, InvalidSpecError), match=re.escape(name)):
            call(value)

    @pytest.mark.parametrize(
        "entry, spec",
        # optimize_probability's certify_spec=None asks for no certificate
        [(entry, spec) for entry in SPEC_TAKERS for spec in [(0.05, 0.2, 0.05), None]
         if (entry, spec) != ("optimize_probability", None)],
        ids=lambda v: v if isinstance(v, str) else type(v).__name__,
    )
    def test_a_spec_that_is_no_error_spec_is_a_domain_error(self, entry, spec):
        # raised by the entry point itself, naming it, before a draw is made
        source = ConstantSource(0.5, seed=3)
        with pytest.raises(DomainError, match=f"^{entry} takes an ErrorSpec, got {type(spec).__name__}$"):
            SPEC_TAKERS[entry](spec, source)
        assert source.draws_made == 0

    def test_optimize_checks_its_certify_spec_before_the_descent(self, monkeypatch):
        def no_descent(*args):
            raise AssertionError("minimize ran")

        monkeypatch.setattr(chernoff_opt, "minimize", no_descent)
        with pytest.raises(DomainError, match="^optimize_probability takes an ErrorSpec, got tuple$"):
            SPEC_TAKERS["optimize_probability"]((0.05, 0.2, 0.05), None)

    @pytest.mark.parametrize("value", ["x", None], ids=["str", "None"])
    @pytest.mark.parametrize("entry", TYPE_TAKERS)
    def test_an_argument_of_no_library_type_is_a_domain_error(self, monkeypatch, entry, value):
        # each raised an AttributeError from deeper down; optimize_probability's settings=None
        # only once every scenario row had been drawn.  Now the entry point names itself first.
        def no_work(*args, **kwargs):
            raise AssertionError("a draw or descent ran")

        monkeypatch.setattr(chernoff_opt, "minimize", no_work)
        monkeypatch.setattr(ScenarioSet, "from_model", no_work)
        monkeypatch.setattr(ScenarioSource, "draw", no_work)
        call, message = TYPE_TAKERS[entry]
        with pytest.raises(DomainError, match=f"^{message}, got {type(value).__name__}$"):
            call(value)

    def test_numpy_integer_max_iters(self):
        objective = ChernoffObjective(MODEL, ScenarioSet.from_model(MODEL, 200, 4))
        settings = OptimizationSettings(theta0=(0.3,), max_iters=np.int64(1000))
        assert settings == OptimizationSettings(theta0=(0.3,), max_iters=1000)
        assert type(settings.max_iters) is int
        assert minimize(objective, settings) == minimize(
            objective, OptimizationSettings(theta0=(0.3,), max_iters=1000)
        )

    def test_numpy_integer_draw_count(self):
        rows = ScenarioSource.from_model(MODEL, 6).draw(np.int64(5))
        np.testing.assert_array_equal(rows, ScenarioSource.from_model(MODEL, 6).draw(5))

    def test_numpy_float_spec_stored_as_float(self):
        spec = ErrorSpec(np.float64(0.05), np.float64(0.2), np.float64(0.05))
        assert [type(v) for v in spec.to_dict().values()] == [float, float, float]
        assert spec == validate_spec(0.05, 0.2, 0.05)
        assert minimum_sample_size(spec).n == 577

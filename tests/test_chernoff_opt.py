"""Tests for the empirical Chernoff objective, descent, and certification."""

import dataclasses
import math

import numpy as np
import pytest

from probcert import (
    ChernoffObjective,
    ConfigError,
    DomainError,
    GradientUnavailableError,
    MomentOverflowError,
    OptimizationOutcome,
    OptimizationSettings,
    ScenarioSet,
    ScenarioSource,
    certify_probability,
    chernoff_upper_bound,
    empirical_moment,
    empirical_moment_gradient,
    make_model,
    minimize,
    optimize_probability,
    scenario_sample_size,
    validate_spec,
)

# closed-form E[exp(-lambda (theta - U))] at lambda=1, theta=0.5, U ~ Uniform(0,1):
# exp(-lambda theta) (exp(lambda) - 1) / lambda, to 30 digits
MOMENT_UNIFORM_ORACLE = 1.04219061098749472324485125282
SPEC = validate_spec(0.05, 0.2, 0.05)


def plus_minus_one_objective():
    """Y values {1, -1}: uniform_gap at theta=0 over scenario rows {-1, +1}."""
    model = make_model("uniform_gap")
    return ChernoffObjective(model, ScenarioSet.from_array([[-1.0], [1.0]]))


def fd_moment_gradient(obj, lam, theta):
    """Central finite differences of the surrogate, in lambda and every theta_j."""
    theta = np.asarray(theta, dtype=float)
    h_lam = 1e-6 * (1.0 + abs(lam))
    d_lam = (
        empirical_moment(obj, lam + h_lam, theta)
        - empirical_moment(obj, lam - h_lam, theta)
    ) / (2.0 * h_lam)
    d_theta = np.empty(theta.size)
    for j in range(theta.size):
        h = 1e-6 * (1.0 + abs(theta[j]))
        bump = np.zeros_like(theta)
        bump[j] = h
        d_theta[j] = (
            empirical_moment(obj, lam, theta + bump)
            - empirical_moment(obj, lam, theta - bump)
        ) / (2.0 * h)
    return d_lam, d_theta


class TestScenarioSet:
    def test_seed_reproducibility(self):
        model = make_model("quadratic_well")
        a = ScenarioSet.from_model(model, 100, seed=5)
        b = ScenarioSet.from_model(model, 100, seed=5)
        np.testing.assert_array_equal(a.scenarios, b.scenarios)
        assert a.n == 100 and a.seed == 5

    def test_rows_frozen(self):
        scen = ScenarioSet.from_array([[1.0], [2.0]])
        with pytest.raises(ValueError):
            scen.scenarios[0, 0] = 9.9

    def test_count_mismatch(self):
        with pytest.raises(DomainError):
            ScenarioSet(scenarios=np.zeros((3, 1)), n=2, seed=0)

    def test_from_csv(self, tmp_path):
        path = tmp_path / "scenarios.csv"
        path.write_text("0.5,1.0\n-0.25,0.75\n0.0,0.125\n")
        scen = ScenarioSet.from_csv(path)
        assert scen.n == 3 and scen.dim_delta == 2
        np.testing.assert_array_equal(
            scen.scenarios, [[0.5, 1.0], [-0.25, 0.75], [0.0, 0.125]]
        )
        model = make_model("affine", a=[1.0], b=[0.5, -0.5], c=0.0)
        obj = ChernoffObjective(model, scen)
        assert math.isfinite(empirical_moment(obj, 1.0, [0.3]))

    def test_from_csv_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,1.0\noops,0.75\n")
        with pytest.raises(DomainError, match="malformed"):
            ScenarioSet.from_csv(path)

    def test_from_csv_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DomainError):
            ScenarioSet.from_csv(path)


class TestModelRegistry:
    def test_registry_names(self):
        assert {"affine", "quadratic_well", "uniform_gap"} <= set(
            __import__("probcert").MODEL_REGISTRY
        )

    def test_unknown_model(self):
        with pytest.raises(ConfigError, match="unknown model"):
            make_model("mystery")

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            make_model("quadratic_well", gamma=2.0)

    def test_scenario_dimensions(self):
        model = make_model("affine", a=[1.0, -1.0], b=[0.5, 0.5, 0.5], c=0.0)
        assert model.dim_theta == 2 and model.dim_delta == 3
        rows = model.sample_scenarios(np.random.default_rng(0), 7)
        assert rows.shape == (7, 3)

    def test_per_row_model_rejected(self):
        # a model written for one row at a time answers a batch in the wrong shape
        base = make_model("uniform_gap")
        per_row = dataclasses.replace(
            base,
            evaluate=lambda theta, delta: theta[0] - delta[0],
            gradient_theta=lambda theta, delta: np.array([1.0]),
        )
        obj = ChernoffObjective(per_row, ScenarioSet.from_array([[0.1], [0.2]]))
        with pytest.raises(DomainError, match="shape"):
            obj.performance_values([0.5])
        batched_y = dataclasses.replace(per_row, evaluate=base.evaluate)
        obj = ChernoffObjective(batched_y, ScenarioSet.from_array([[0.1], [0.2]]))
        with pytest.raises(DomainError, match="gradient shape"):
            empirical_moment_gradient(obj, 1.0, [0.5])

    def test_model_gradients_match_evaluate(self):
        # analytic dY/dtheta vs central differences of Y, away from kinks,
        # each call on a batch of scenario rows
        rng = np.random.default_rng(12)
        for name, params in [
            ("affine", {"a": [0.7, -1.3], "b": [0.4], "c": 0.2}),
            ("quadratic_well", {}),
            ("uniform_gap", {}),
        ]:
            model = make_model(name, **params)
            for _ in range(10):
                theta = rng.uniform(-1.5, 1.5, model.dim_theta)
                rows = rng.uniform(-1.5, 1.5, (8, model.dim_delta))
                grads = model.gradient_theta(theta, rows)
                assert grads.shape == (8, model.dim_theta)
                for j in range(model.dim_theta):
                    h = 1e-6 * (1.0 + abs(theta[j]))
                    bump = np.zeros(model.dim_theta)
                    bump[j] = h
                    fd = (
                        model.evaluate(theta + bump, rows)
                        - model.evaluate(theta - bump, rows)
                    ) / (2.0 * h)
                    assert grads[:, j] == pytest.approx(fd, rel=1e-5, abs=1e-9)


class TestEmpiricalMoment:
    def test_y_zero_gives_one(self):
        model = make_model("uniform_gap")
        obj = ChernoffObjective(model, ScenarioSet.from_array([[0.0]]))
        for lam in (0.1, 1.0, 17.0):
            assert empirical_moment(obj, lam, [0.0]) == 1.0

    def test_plus_minus_one_closed_form(self):
        obj = plus_minus_one_objective()
        assert empirical_moment(obj, math.log(2.0), [0.0]) == pytest.approx(
            1.25, rel=1e-15
        )

    def test_uniform_matches_population_moment(self):
        model = make_model("uniform_gap")
        scen = ScenarioSet.from_model(model, 100_000, seed=31)
        obj = ChernoffObjective(model, scen)
        value = empirical_moment(obj, 1.0, [0.5])
        weights = np.exp(-(0.5 - scen.scenarios[:, 0]))
        mc_se = float(np.std(weights) / math.sqrt(scen.n))
        assert abs(value - MOMENT_UNIFORM_ORACLE) < 3.0 * mc_se

    def test_overflow_reports_scenario_index(self):
        model = make_model("uniform_gap")
        obj = ChernoffObjective(model, ScenarioSet.from_array([[0.0], [1.0]]))
        with pytest.raises(MomentOverflowError) as exc_info:
            empirical_moment(obj, 800.0, [0.0])  # -800 * (0 - 1) = +800
        assert exc_info.value.scenario_index == 1

    def test_nonpositive_lambda(self):
        obj = plus_minus_one_objective()
        with pytest.raises(DomainError):
            empirical_moment(obj, 0.0, [0.0])

    def test_theta_shape_checked(self):
        obj = plus_minus_one_objective()
        with pytest.raises(DomainError):
            empirical_moment(obj, 1.0, [0.0, 1.0])

    def test_markov_kernel_dominates_indicator(self):
        # exp(-lambda y) >= 1{y <= 0} pointwise, exactly
        model = make_model("quadratic_well")
        scen = ScenarioSet.from_model(model, 500, seed=3)
        obj = ChernoffObjective(model, scen)
        rng = np.random.default_rng(4)
        for _ in range(5):
            lam = 10.0 ** rng.uniform(-3, 1)
            theta = rng.uniform(-2, 2, 1)
            ys = obj.performance_values(theta)
            assert np.all(np.exp(-lam * ys) >= (ys <= 0.0))


class TestMomentGradient:
    def test_plus_minus_one_d_lambda(self):
        obj = plus_minus_one_objective()
        d_lam, d_theta = empirical_moment_gradient(obj, math.log(2.0), [0.0])
        assert d_lam == pytest.approx(0.75, rel=1e-15)
        # -(lambda/n) sum dY/dtheta e^{-lambda Y}, dY/dtheta = 1
        expected = -(math.log(2.0) / 2.0) * (0.5 + 2.0)
        assert d_theta[0] == pytest.approx(expected, rel=1e-14)

    def test_y_zero_gradients_vanish(self):
        model = make_model("uniform_gap")
        obj = ChernoffObjective(model, ScenarioSet.from_array([[0.0]]))
        d_lam, d_theta = empirical_moment_gradient(obj, 2.0, [0.0])
        assert d_lam == 0.0
        # dY/dtheta = 1 but the gradient is -(lambda/n) e^0 = -2, not zero;
        # "Y constant in theta" needs a theta-free model instead:
        model0 = make_model("affine", a=[0.0], b=[1.0], c=0.0)
        obj0 = ChernoffObjective(model0, ScenarioSet.from_array([[0.0]]))
        d_lam0, d_theta0 = empirical_moment_gradient(obj0, 2.0, [0.3])
        assert d_lam0 == 0.0 and d_theta0[0] == 0.0

    def test_analytic_matches_finite_differences(self):
        model = make_model("affine", a=[0.8, -0.5], b=[1.0, 0.3], c=-0.1)
        scen = ScenarioSet.from_model(model, 400, seed=9)
        obj = ChernoffObjective(model, scen)
        rng = np.random.default_rng(10)
        for _ in range(10):
            lam = rng.uniform(0.2, 2.0)
            theta = rng.uniform(-1.0, 1.0, 2)
            d_lam, d_theta = empirical_moment_gradient(obj, lam, theta)
            fd_lam, fd_theta = fd_moment_gradient(obj, lam, theta)
            assert d_lam == pytest.approx(fd_lam, rel=1e-5)
            np.testing.assert_allclose(d_theta, fd_theta, rtol=1e-5)

    def test_fd_fallback_for_gradient_free_model(self):
        base = make_model("quadratic_well")
        stripped = dataclasses.replace(base, gradient_theta=None)
        scen = ScenarioSet.from_model(base, 300, seed=21)
        obj_base = ChernoffObjective(base, scen)
        obj_fd = ChernoffObjective(stripped, scen)
        _, analytic = empirical_moment_gradient(obj_base, 1.3, [0.4])
        _, fallback = empirical_moment_gradient(obj_fd, 1.3, [0.4])
        np.testing.assert_allclose(fallback, analytic, rtol=1e-5)

    def test_fallback_disabled_raises(self):
        stripped = dataclasses.replace(make_model("quadratic_well"), gradient_theta=None)
        obj = ChernoffObjective(stripped, ScenarioSet.from_array([[0.1]]))
        with pytest.raises(GradientUnavailableError):
            empirical_moment_gradient(obj, 1.0, [0.0], fd_fallback=False)


class TestScenarioSampleSize:
    def test_delegates_to_plan(self):
        assert scenario_sample_size(SPEC) == 577
        assert scenario_sample_size(validate_spec(0.02, 0.2, 0.05)) == 1755

    def test_invalid_spec(self):
        from probcert import InvalidSpecError

        with pytest.raises(InvalidSpecError):
            validate_spec(0.4, 0.5, 0.05)


class TestMinimize:
    def test_quadratic_well_reaches_population_optimum(self):
        settings = OptimizationSettings(theta0=(0.8,), max_iters=1000)
        out = optimize_probability(
            make_model("quadratic_well"), settings, seed=7, n_scenarios=5000
        )
        assert out.termination == "gradient_tol"
        assert abs(out.theta_star[0]) <= 0.15
        trace = out.objective_trace
        assert all(a >= b for a, b in zip(trace, trace[1:]))
        assert 0.0 < out.lambda_star <= settings.lambda_cap

    def test_theta_frozen_when_objective_ignores_it(self):
        model = make_model("affine", a=[0.0], b=[-1.0], c=0.5)
        scen = ScenarioSet.from_model(model, 200, seed=13)
        settings = OptimizationSettings(theta0=(0.37,), max_iters=200)
        out = minimize(ChernoffObjective(model, scen), settings)
        assert out.theta_star == (0.37,)
        assert out.lambda_star != 1.0  # lambda did move

    def test_zero_iterations_echoes_start(self):
        obj = plus_minus_one_objective()
        settings = OptimizationSettings(theta0=(0.2,), nu0=0.0, max_iters=0)
        out = minimize(obj, settings)
        assert out.termination == "max_iters"
        assert out.theta_star == (0.2,)
        assert out.lambda_star == 1.0
        assert out.iterations == 0
        assert len(out.objective_trace) == 1

    def test_lambda_cap_respected_when_all_y_positive(self):
        # theta fixed far from failures: every Y > 0, lambda runs to the cap
        model = make_model("affine", a=[0.0], b=[-1.0], c=2.0)
        scen = ScenarioSet.from_array(np.random.default_rng(2).random((300, 1)))
        settings = OptimizationSettings(theta0=(0.0,), max_iters=3000, lambda_cap=10.0)
        out = minimize(ChernoffObjective(model, scen), settings)
        assert 0.0 < out.lambda_star <= 10.0
        trace = out.objective_trace
        assert all(a >= b for a, b in zip(trace, trace[1:]))
        # all Y >= 0 keeps the objective in (0, 1]
        assert 0.0 < trace[-1] <= 1.0

    def test_reproducibility(self):
        settings = OptimizationSettings(theta0=(0.5,), max_iters=300)
        runs = [
            optimize_probability(
                make_model("quadratic_well"),
                settings,
                seed=12,
                n_scenarios=1000,
                certify_spec=SPEC,
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_settings_validation(self):
        with pytest.raises(DomainError):
            OptimizationSettings(theta0=(), max_iters=10)
        with pytest.raises(DomainError):
            OptimizationSettings(theta0=(0.0,), backtrack_shrink=1.0)
        with pytest.raises(DomainError):
            OptimizationSettings(theta0=(0.0,), max_iters=-1)
        with pytest.raises(DomainError):
            OptimizationSettings(theta0=(0.0,), lambda_cap=0.0)

    def test_dimension_mismatch(self):
        obj = plus_minus_one_objective()
        with pytest.raises(DomainError):
            minimize(obj, OptimizationSettings(theta0=(0.0, 0.0)))

    def test_outcome_round_trip(self):
        settings = OptimizationSettings(theta0=(0.4,), max_iters=50)
        out = optimize_probability(
            make_model("quadratic_well"), settings, seed=5, n_scenarios=500,
            certify_spec=SPEC,
        )
        assert OptimizationOutcome.from_dict(out.to_dict()) == out


class TestCertifyProbability:
    def test_never_fails(self):
        model = make_model("affine", a=[0.0], b=[0.0], c=1.0)  # Y = 1 always
        cert = certify_probability(model, [0.0], SPEC, ScenarioSource.from_model(model, 3))
        assert cert.mu_hat == 0.0
        assert cert.n == 577

    def test_always_fails(self):
        model = make_model("affine", a=[0.0], b=[0.0], c=-1.0)  # Y = -1 always
        cert = certify_probability(model, [0.0], SPEC, ScenarioSource.from_model(model, 3))
        assert cert.mu_hat == 1.0

    def test_quadratic_well_matches_normal_cdf_oracle(self):
        # population failure probability at theta=0 is 2 Phi(-2)
        p_true = 2.0 * 0.5 * (1.0 + math.erf(-2.0 / math.sqrt(2.0)))
        model = make_model("quadratic_well")
        cert = certify_probability(model, [0.0], SPEC, ScenarioSource.from_model(model, 44))
        abs_ok = abs(cert.mu_hat - p_true) < SPEC.eps_a
        rel_ok = abs(cert.mu_hat - p_true) < SPEC.eps_r * p_true
        assert abs_ok or rel_ok

    def test_source_advances(self):
        model = make_model("quadratic_well")
        source = ScenarioSource.from_model(model, 8)
        certify_probability(model, [0.0], SPEC, source)
        assert source.draws_made == 577


class TestChernoffUpperBound:
    def test_singleton_grid_equals_moment(self):
        obj = plus_minus_one_objective()
        assert chernoff_upper_bound(obj, [0.0], [1.0]) == empirical_moment(obj, 1.0, [0.0])

    def test_y_zero_returns_one(self):
        model = make_model("uniform_gap")
        obj = ChernoffObjective(model, ScenarioSet.from_array([[0.0]]))
        assert chernoff_upper_bound(obj, [0.0], [0.5, 1.0, 2.0]) == 1.0

    def test_dominates_fresh_failure_rate(self):
        model = make_model("quadratic_well")
        obj = ChernoffObjective(model, ScenarioSet.from_model(model, 2000, seed=6))
        grid = np.arange(0.1, 2.0, 0.2)
        bound = chernoff_upper_bound(obj, [0.0], grid)
        fresh = ScenarioSource.from_model(model, 60).draw(2000)
        fails = int(np.count_nonzero(model.evaluate(np.array([0.0]), fresh) <= 0.0))
        p_hat = fails / 2000
        assert bound >= p_hat - 3.0 * math.sqrt(p_hat * (1.0 - p_hat) / 2000)

    def test_grid_validation(self):
        obj = plus_minus_one_objective()
        with pytest.raises(DomainError):
            chernoff_upper_bound(obj, [0.0], [])
        with pytest.raises(DomainError):
            chernoff_upper_bound(obj, [0.0], [1.0, -0.5])

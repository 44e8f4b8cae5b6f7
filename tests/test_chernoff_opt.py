"""Tests for the empirical Chernoff objective, descent, and certification."""

import dataclasses
import json
import math
import re
from fractions import Fraction

import hypothesis
import mpmath as mp
import numpy as np
import pytest
from hypothesis import strategies as st

from probcert import (
    BernoulliSource,
    Certificate,
    ChernoffObjective,
    ConfigError,
    DomainError,
    OptimizationOutcome,
    OptimizationSettings,
    PerformanceModel,
    ScenarioSet,
    ScenarioSource,
    SourceExhaustedError,
    certify_probability,
    chernoff_opt,
    empirical_moment,
    empirical_moment_gradient,
    estimator,
    make_model,
    minimize,
    optimize_probability,
    validate_spec,
)
from support import CHUNKS, peak_bytes

# closed-form E[exp(-lambda (theta - U))] at lambda=1, theta=0.5, U ~ Uniform(0,1):
# exp(-lambda theta) (exp(lambda) - 1) / lambda, to 30 digits
MOMENT_UNIFORM_ORACLE = 1.04219061098749472324485125282
SPEC = validate_spec(0.05, 0.2, 0.05)


def rows_of_default_rng(model, n, seed):
    """The model's scenarios drawn from ``default_rng(seed)``: the data sets the
    regression cases below were found on, kept whatever stream a seed names.
    """
    return ScenarioSet.from_array(model.sample_scenarios(np.random.default_rng(seed), n), seed=seed)


def plus_minus_one_objective():
    """Y values {1, -1}: uniform_gap at theta=0 over scenario rows {-1, +1}."""
    model = make_model("uniform_gap")
    return ChernoffObjective(model, ScenarioSet.from_array([[-1.0], [1.0]]))


def count_passes(monkeypatch):
    """A list that gets one entry per lambda solve (``_profile`` call): the
    number of ``_moments`` passes that solve made.
    """
    counts = []
    moments, profile = chernoff_opt._moments, chernoff_opt._profile

    def counted_moments(*args):
        counts[-1] += 1
        return moments(*args)

    def counted_profile(*args):
        counts.append(0)
        return profile(*args)

    monkeypatch.setattr(chernoff_opt, "_moments", counted_moments)
    monkeypatch.setattr(chernoff_opt, "_profile", counted_profile)
    return counts


def root_of_slope(ys):
    """lambda* > 0 with sum_i Y_i exp(-lambda Y_i) = 0, the root of h', by
    bisection in 40-digit mpmath: independent of the Newton solve under test.
    """
    with mp.workdps(40):
        ys = [mp.mpf(y) for y in ys]

        def s(lam):  # sum_i Y_i exp(-lambda Y_i): > 0 below the root, < 0 above
            return mp.fsum(y * mp.exp(-lam * y) for y in ys)

        hi = mp.mpf(1)
        while s(hi) > 0:
            hi *= 2
        lo = mp.mpf(0)
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if s(mid) > 0 else (lo, mid)
        return float((lo + hi) / 2)


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

    @pytest.mark.parametrize(
        "rows", [[["x"]], [["0.5"]], [[b"0.5"]], [[0.5], [0.5, 0.5]], [np.zeros(2), np.zeros((2, 3))], [[True], [False]]],
        ids=["word", "numeric_string", "bytes", "ragged", "ragged_arrays", "booleans"],
    )
    def test_rows_that_are_not_numbers_rejected(self, rows):
        # once parsed as floats, or numpy's bare ValueError
        with pytest.raises(DomainError, match="scenario values must be numbers"):
            ScenarioSet.from_array(rows)

    @pytest.mark.parametrize("shape", [(0, 2), (2, 2, 2)], ids=["no_rows", "three_axes"])
    def test_array_that_is_not_n_by_d_rejected(self, shape):
        with pytest.raises(DomainError, match=re.escape(f"must be (n, d) with n >= 1, got shape {shape}")):
            ScenarioSet.from_array(np.zeros(shape))

    def test_rows_copied_as_c_ordered_floats(self):
        given = np.asfortranarray(np.arange(6.0).reshape(3, 2))
        scen = ScenarioSet.from_array(given)
        np.testing.assert_array_equal(scen.scenarios, given)
        assert scen.scenarios.flags.c_contiguous and not np.shares_memory(scen.scenarios, given)
        assert ScenarioSet.from_array([[1], [2]]).scenarios.dtype == float

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

    def test_from_model_checks_sampler_shape(self):
        # a sampler answering (n,) for dim_delta = 1 must not become one n-wide row
        flat = dataclasses.replace(
            make_model("uniform_gap"), sample_scenarios=lambda rng, k: rng.random(k)
        )
        with pytest.raises(DomainError, match="shape"):
            ScenarioSet.from_model(flat, 5, seed=1)
        with pytest.raises(DomainError, match=r"returned shape \(5,\), expected \(5, 1\)"):
            ScenarioSource.from_model(flat, 1).draw(5)

    @pytest.mark.parametrize(
        "make_rows, dtype",
        [(lambda k: [["0.25"]] * k, "<U4"), (lambda k: np.ones((k, 1), bool), "bool"),
         (lambda k: [[None]] * k, "object")],
        ids=["numeric_string", "bool", "none"],
    )
    def test_sampler_rows_that_are_not_numbers_rejected(self, make_rows, dtype):
        # as ScenarioSet.from_array rejects them: no string is parsed, nor a flag taken for a number
        model = dataclasses.replace(make_model("uniform_gap"), sample_scenarios=lambda rng, k: make_rows(k))
        message = f"scenario sampler values must be numbers, got dtype {dtype}"
        with pytest.raises(DomainError, match=message):
            ScenarioSet.from_model(model, 5, seed=1)
        with pytest.raises(DomainError, match=message):
            ScenarioSource.from_model(model, 1).draw(5)

    def test_short_sampler_is_exhaustion(self):
        # as a short sample source is, and through either stream
        short = dataclasses.replace(make_model("uniform_gap"), sample_scenarios=lambda rng, k: rng.random((k - 1, 1)))
        source = ScenarioSource.from_model(short, 1)
        with pytest.raises(SourceExhaustedError, match="scenario sampler produced 4 of 5 requested values"):
            source.draw(5)
        assert source.draws_made == 0
        with pytest.raises(SourceExhaustedError, match="scenario sampler produced 4 of 5 requested values"):
            ScenarioSet.from_model(short, 5, seed=1)
        with pytest.raises(SourceExhaustedError, match="scenario sampler produced 576 of 577 requested values"):
            certify_probability(short, [0.5], SPEC, ScenarioSource.from_model(short, 1))

    def test_model_without_sampler_rejected(self):
        # frozen and certification rows come from one stream type with one check
        bare = dataclasses.replace(make_model("uniform_gap"), sample_scenarios=None)
        messages = set()
        for make in (lambda: ScenarioSet.from_model(bare, 5, seed=1), lambda: ScenarioSource.from_model(bare, 1)):
            with pytest.raises(DomainError, match="no scenario sampler") as info:
                make()
            messages.add(str(info.value))
        assert messages == {"model 'uniform_gap' has no scenario sampler"}

    def test_from_model_and_scenario_source_draw_distinct_children(self):
        # frozen scenarios and certification draws of one seed are different
        # children of it, both drawn through the model's sampler
        model = make_model("quadratic_well")
        rows = ScenarioSet.from_model(model, 50, seed=9).scenarios
        fresh = ScenarioSource.from_model(model, 9).draw(50)
        for got, role in ((rows, estimator._SCENARIOS), (fresh, estimator._CERTIFICATION)):
            np.testing.assert_array_equal(got, model.sample_scenarios(estimator._stream(9, role), 50))
        assert not np.any(rows == fresh)


class TestModelRegistry:
    def test_registry_names(self):
        assert {"affine", "quadratic_well", "uniform_gap"} <= set(
            chernoff_opt.MODEL_REGISTRY
        )

    def test_unknown_model(self):
        with pytest.raises(ConfigError, match="unknown model"):
            make_model("mystery")

    def test_an_unhashable_name_is_an_unknown_model(self):
        with pytest.raises(ConfigError, match=r"^model: unknown model \[\]; available: \['affine'"):
            make_model([])

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            make_model("quadratic_well", gamma=2.0)

    def test_an_unknown_parameter_is_an_unknown_field(self):
        # was "model_params: _make_quadratic_well() got an unexpected keyword argument 'mu'";
        # the keys are compared before any value is read, and the first in sorted order is named
        with pytest.raises(ConfigError, match=r"^model_params\.mu: unknown field$") as info:
            make_model("quadratic_well", sigma="x", zeta=1.0, mu=1.0)
        assert info.value.field == "model_params.mu"

    def test_scenario_dimensions(self):
        model = make_model("affine", a=[1.0, -1.0], b=[0.5, 0.5, 0.5], c=0.0)
        assert model.dim_theta == 2 and model.dim_delta == 3
        rows = model.sample_scenarios(np.random.default_rng(0), 7)
        assert rows.shape == (7, 3)

    @pytest.mark.parametrize("field", ["dim_theta", "dim_delta"])
    @pytest.mark.parametrize("bad", [True, 1.5, 0, "1"])
    def test_model_dimensions_must_be_positive_integers(self, field, bad):
        # a dim_delta of 1.5 was once truncated and certified on 1-column rows
        dims = {"dim_theta": 1, "dim_delta": 1, field: bad}
        with pytest.raises(DomainError, match=field):
            PerformanceModel("m", evaluate=lambda theta, rows: rows[:, 0], **dims)

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

    @pytest.mark.parametrize(
        "bad, problem",
        [(math.nan, "gradient is not finite"), (math.inf, "gradient is not finite"),
         (-math.inf, "gradient is not finite"), (2.0**451, "|gradient| exceeds 2**450")],
        ids=["nan", "inf", "-inf", "past_2_450"],
    )
    def test_gradient_past_y_range_rejected(self, bad, problem):
        # a NaN gradient once moved theta to NaN, and was reported as a Y that is not finite
        def gradient(theta, rows):
            grads = np.ones((rows.shape[0], 1))
            grads[1, 0] = bad
            return grads

        model = dataclasses.replace(make_model("uniform_gap"), gradient_theta=gradient)
        obj = ChernoffObjective(model, ScenarioSet.from_array([[0.1], [0.2], [0.3]]))
        message = re.escape(f"{problem} at scenario 1: {bad!r}")
        with pytest.raises(DomainError, match=message):
            empirical_moment_gradient(obj, 1.0, [0.5])
        with pytest.raises(DomainError, match=message):
            minimize(obj, OptimizationSettings(theta0=(0.5,)))

    def test_quadratic_well_square_is_correctly_rounded(self):
        # Y = 1 - x^2 with x^2 rounded once; C pow misses that square on ~0.1% of inputs
        model = make_model("quadratic_well")
        rows = model.sample_scenarios(np.random.default_rng(3), 20_000)
        x = 0.3 - rows[:, 0]
        squares = np.array([float(Fraction(v) ** 2) for v in x.tolist()])
        np.testing.assert_array_equal(model.evaluate(np.array([0.3]), rows), 1.0 - squares)

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

    def test_overflow_returns_inf(self):
        model = make_model("uniform_gap")
        obj = ChernoffObjective(model, ScenarioSet.from_array([[0.0], [1.0]]))
        # -800 * (0 - 1) = +800: g is past the double range, log g is not
        assert empirical_moment(obj, 800.0, [0.0]) == math.inf
        d_lam, _ = empirical_moment_gradient(obj, 800.0, [0.0])
        assert d_lam == math.inf
        # lambda * Y itself past the double range
        far = ChernoffObjective(model, ScenarioSet.from_array([[10.0]]))
        assert empirical_moment(far, 1e308, [0.0]) == math.inf

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


class TestLogMoment:
    def test_matches_moments_bit_for_bit(self):
        rng = np.random.default_rng(21)
        infinite_tops = 0
        for _ in range(300):
            n = int(rng.integers(1, 2000))
            ys = rng.standard_normal(n) * 2.0 ** rng.uniform(-20.0, 452.0)
            ys = np.clip(ys, -(2.0**450), 2.0**450)
            if rng.random() < 0.2:  # ties at the top
                ys[rng.integers(0, n, 3)] = ys.min()
            lam = float(10.0 ** rng.uniform(-6.0, 300.0))
            expected = chernoff_opt._moments(ys, lam)[0]
            assert chernoff_opt._log_moment(ys, lam).hex() == expected.hex()
            infinite_tops += -float(np.min(ys)) * lam == math.inf
        assert infinite_tops > 20

    @pytest.mark.parametrize("lam", [0.5, 1e300], ids=["finite_top", "infinite_top"])
    def test_the_y_values_are_left_unchanged(self, lam):
        # the weights are formed in place in an array of their own, never in ys
        ys = np.random.default_rng(22).standard_normal(1000)
        ys[7] = -(2.0**450)  # at lambda = 1e300, -lambda Y passes the double range
        before = ys.copy()
        chernoff_opt._moments(ys, lam)
        chernoff_opt._log_moment(ys, lam)
        assert np.array_equal(ys, before)


def whole_array_sums(ys, lam, rows=()):
    """top = max(-lambda Y), and ``math.fsum`` of the weights
    w = exp(-lambda Y - top) and of w times each row, from whole-array numpy operations."""
    with np.errstate(over="ignore"):
        exponents = -lam * ys
        top = float(exponents.max())
        weights = (exponents == top).astype(float) if math.isinf(top) else np.exp(exponents - top)
    return top, [math.fsum(weights)] + [math.fsum(row * weights) for row in rows]


class TestBlockedPasses:
    """Each pass over the frozen scenarios reads Y, and asks the model for Y
    or its gradient, one block of ``_DRAW_CHUNK`` rows at a time."""

    @staticmethod
    def objective(tied, nan_in=None, n=40_000):
        """Y = delta_1 + theta . (delta_2, delta_3) over n standard normal rows,
        smallest and tied at the rows (tied, 1, 0) of scenarios 3, 20,000 and
        n - 1.  ``nan_in`` names the output, "evaluate" or "gradient_theta",
        that is NaN at scenario 20,000 alone."""
        rows = np.random.default_rng(31).standard_normal((n, 3))
        rows[[3, 20_000, n - 1]] = tied, 1.0, 0.0
        outputs = {
            "evaluate": lambda theta, rows: rows[:, 0] + rows[:, 1:] @ theta,
            "gradient_theta": lambda theta, rows: rows[:, 1:].copy(),
        }
        if nan_in is not None:
            rows[20_000, 2] = 7.0
            clean = outputs[nan_in]

            def with_nan(theta, rows):
                values = clean(theta, rows)
                values[rows[:, 2] == 7.0] = math.nan
                return values

            outputs[nan_in] = with_nan
        return ChernoffObjective(PerformanceModel("tilted", 2, 3, **outputs), ScenarioSet.from_array(rows))

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("lam, tied", [(0.5, -6.0), (1e300, -(2.0**450))], ids=["finite_top", "infinite_top"])
    def test_blocking_never_moves_a_bit(self, monkeypatch, chunk, lam, tied):
        # at lambda = 1e300, -lambda Y = 1e300 * 2^450 passes the double range
        obj, theta = self.objective(tied), np.array([0.3, -0.2])
        ys = obj.performance_values(theta)
        assert np.flatnonzero(ys == ys.min()).tolist() == [3, 20_000, 39_999]
        before = ys.copy()
        top, (s0,) = whole_array_sums(ys, lam)
        log_moment = top + math.log(s0 / ys.size)
        _, (_, s1, s2) = whole_array_sums(ys, lam, (ys, ys * ys))
        mean = s1 / s0
        grads = obj.model.gradient_theta(theta, obj.scenarios.scenarios)
        _, (_, *sums) = whole_array_sums(ys, lam, grads.T)
        expected = [log_moment, log_moment, -mean, s2 / s0 - mean * mean, *(-lam * np.array(sums) / s0)]
        assert math.isinf(top) == (lam == 1e300)
        monkeypatch.setattr(estimator, "_DRAW_CHUNK", chunk)
        got = [
            chernoff_opt._log_moment(ys, lam),
            *chernoff_opt._moments(ys, lam),
            *chernoff_opt._theta_gradient(obj, lam, theta, ys),
        ]
        assert [float(v).hex() for v in got] == [float(v).hex() for v in expected]
        np.testing.assert_array_equal(ys, before)

    def test_a_y_that_is_not_finite_is_named_at_its_scenario(self):
        obj = self.objective(-6.0, nan_in="evaluate")
        with pytest.raises(DomainError, match="Y is not finite at scenario 20000: nan"):
            obj.performance_values([0.3, -0.2])

    def test_a_gradient_that_is_not_finite_is_named_at_its_scenario(self):
        obj = self.objective(-6.0, nan_in="gradient_theta")
        with pytest.raises(DomainError, match="gradient is not finite at scenario 20000: nan"):
            empirical_moment_gradient(obj, 0.5, [0.3, -0.2])

    def test_moments_of_a_million_values_peak_below_two_mib(self):
        # the weights and their products exist a block at a time: the parent's
        # whole-array passes peaked at 30.8 MiB here
        ys = np.random.default_rng(32).standard_normal(1_000_000)
        chernoff_opt._moments(ys[:10], 0.5)  # imports made on first use are not counted
        _, peak = peak_bytes(lambda: chernoff_opt._moments(ys, 0.5))
        assert peak < 2 * 2**20, peak / 2**20

    def test_minimize_holds_two_y_arrays_beside_the_frozen_set(self):
        # each trial's Y, filled a block at a time, replaces the last one, so
        # two Y arrays exist only while one is formed; the parent held Y, the
        # weights and their products for the accepted point and for a trial
        model = make_model("quadratic_well", sigma=0.5)
        settings = OptimizationSettings(theta0=(0.8,), max_iters=1000)
        obj = ChernoffObjective(model, ScenarioSet.from_model(model, 200_000, 7))
        minimize(ChernoffObjective(model, ScenarioSet.from_model(model, 10, 7)), settings)
        out, peak = peak_bytes(lambda: minimize(obj, settings))
        assert out.termination == "gradient_tol"
        assert peak <= 2.5 * 8 * obj.scenarios.n, peak / (8 * obj.scenarios.n)


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


class TestScenarioSampleSize:
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

    @pytest.mark.parametrize(
        "seed",
        [
            833800806, 962022703, 323639837, 38557709, 410894514, 1049530411, 95832482,
            38557765, 541447221, 715461414, 67588861, 411450298, 716025286, 992708823,
        ],
    )
    def test_converges_where_descent_on_g_stalled(self, seed):
        # joint descent over (lambda, theta) stalled on these scenario sets: on
        # the lambda -> 0 plateau, or ill-conditioned inside the basin
        model = make_model("quadratic_well", sigma=0.5)
        settings = OptimizationSettings(theta0=(0.8,), max_iters=1000)
        out = minimize(ChernoffObjective(model, rows_of_default_rng(model, 5000, seed)), settings)
        assert out.termination == "gradient_tol"
        assert abs(out.theta_star[0]) <= 0.15

    @pytest.mark.parametrize(
        "seed, n, theta0, nu0, step",
        [
            (24, 35, -3.498256619433854, 3.0448902856284237, 0.4550185120183626),
            (624, 34, -3.7830232438034264, 3.776601785182441, 0.13226101722760247),
            (2175, 11, -3.5020687554176693, 3.663214620076425, 0.20925880547025996),
        ],
    )
    def test_extreme_start_completes(self, seed, n, theta0, nu0, step):
        # from these starts, with first steps of length `step`, descent on g
        # overflowed or reached Y = -inf; every line search now starts at 1
        model = make_model("quadratic_well")
        obj = ChernoffObjective(model, rows_of_default_rng(model, n, seed))
        settings = OptimizationSettings(theta0=(theta0,), nu0=nu0, max_iters=30)
        trace = minimize(obj, settings).objective_trace
        assert all(a >= b for a, b in zip(trace, trace[1:]))

    @pytest.mark.parametrize("theta0", [-5.0, 3.0])
    def test_start_on_trivial_bound_region_converges(self, theta0):
        # mean Y <= 0 at these starts: g = 1 as lambda -> 0, a trivial bound
        # that joint descent reported as converged
        model = make_model("quadratic_well")
        obj = ChernoffObjective(model, ScenarioSet.from_model(model, 5000, seed=11))
        out = minimize(obj, OptimizationSettings(theta0=(theta0,), max_iters=1000))
        assert out.termination == "gradient_tol"
        assert abs(out.theta_star[0]) <= 0.15
        trace = out.objective_trace
        assert all(a >= b for a, b in zip(trace, trace[1:]))

    def test_all_fail_ends_trivial_bound(self):
        # Y = -1 - delta^2 < 0 for every scenario, whatever theta
        model = make_model("affine", a=[0.0], b=[0.0], c=-1.0)
        scen = ScenarioSet.from_model(model, 100, seed=4)
        out = minimize(ChernoffObjective(model, scen), OptimizationSettings(theta0=(0.3,)))
        assert out.termination == "trivial_bound"
        assert out.theta_star == (0.3,)
        assert out.objective_trace[-1] >= 1.0

    def test_unbounded_problem_stays_finite(self):
        # Y grows without bound along a, and no step bound is imposed: theta
        # runs far out, but every iterate and objective value stays finite
        model = make_model("affine", a=[0.8, -0.5], b=[1.0, 0.3], c=-0.1)
        scen = ScenarioSet.from_model(model, 400, seed=9)
        out = minimize(ChernoffObjective(model, scen), OptimizationSettings(theta0=(0.0, 0.0)))
        assert all(math.isfinite(t) for t in out.theta_star)
        trace = out.objective_trace
        assert all(math.isfinite(v) for v in trace)
        assert all(a >= b for a, b in zip(trace, trace[1:]))
        assert out.termination == "lambda_cap"

    def test_theta_frozen_when_objective_ignores_it(self):
        model = make_model("affine", a=[0.0], b=[-1.0], c=0.5)
        scen = ScenarioSet.from_model(model, 200, seed=13)
        settings = OptimizationSettings(theta0=(0.37,), max_iters=200)
        out = minimize(ChernoffObjective(model, scen), settings)
        assert out.theta_star == (0.37,)
        assert out.lambda_star != 1.0  # lambda did move

    def test_wrong_sign_gradient_ends_in_step_underflow(self):
        # no step along +gradient descends: once halving leaves theta as it is,
        # f_trial == f, and an Armijo test met with equality spun to max_iters
        base = make_model("quadratic_well")
        evaluations = []

        def evaluate(theta, rows):
            evaluations.append(theta)
            return base.evaluate(theta, rows)

        def uphill(theta, rows):
            return -base.gradient_theta(theta, rows)

        model = dataclasses.replace(base, evaluate=evaluate, gradient_theta=uphill)
        obj = ChernoffObjective(model, ScenarioSet.from_model(base, 500, seed=11))
        out = minimize(obj, OptimizationSettings(theta0=(0.8,), max_iters=50))
        assert (out.termination, out.iterations, out.theta_star) == ("step_underflow", 0, (0.8,))
        # the search ends once a step leaves theta as it is, and theta0 is evaluated once
        assert len(evaluations) <= 53
        assert sum(np.array_equal(theta, [0.8]) for theta in evaluations) == 1

    def test_a_gradient_whose_square_underflows_keeps_its_norm(self, monkeypatch):
        # |grad| is about 6.9e-171, so a norm through its square read 0 and
        # stopped at gradient_tol; grad . direction underflows to -0.0, which
        # takes the BFGS restart (the second identity made), and no step descends
        model = make_model("affine", a=[1e-170], b=[-1.0], c=0.5)
        obj = ChernoffObjective(model, ScenarioSet.from_model(model, 200, seed=3))
        identities = []
        eye = np.eye

        def recorded(n):
            identities.append(n)
            return eye(n)

        monkeypatch.setattr(chernoff_opt.np, "eye", recorded)
        out = minimize(obj, OptimizationSettings(theta0=(0.0,), grad_tol=1e-300))
        assert (out.termination, out.iterations) == ("step_underflow", 0)
        assert identities == [1, 1]

    def test_zero_iterations_echoes_start(self):
        obj = plus_minus_one_objective()
        settings = OptimizationSettings(theta0=(0.2,), nu0=0.0, max_iters=0)
        out = minimize(obj, settings)
        assert out.termination == "max_iters"
        assert out.theta_star == (0.2,)
        # lambda*(0.2) for Y = {1.2, -0.8}: 1.2 exp(-1.2 lambda) = 0.8 exp(0.8 lambda)
        assert out.lambda_star == pytest.approx(0.5 * math.log(1.5), rel=1e-12)
        assert out.iterations == 0
        assert len(out.objective_trace) == 1

    def test_newton_falls_back_when_weights_sit_on_one_scenario(self):
        # Y = {-1, 100}: at the warm start lambda = 50 the weight of Y = 100
        # underflows to 0, so Var_w(Y) is exactly 0 and Newton cannot step
        obj = ChernoffObjective(make_model("uniform_gap"), ScenarioSet.from_array([[1.0], [-100.0]]))
        settings = OptimizationSettings(theta0=(0.0,), nu0=math.log(50.0), max_iters=0)
        out = minimize(obj, settings)
        # E_w[Y] = 0 where exp(lambda) = 100 exp(-100 lambda): lambda* = ln(100) / 101
        assert out.lambda_star == pytest.approx(math.log(100.0) / 101.0, rel=1e-9)

    def test_lambda_cap_respected_when_all_y_positive(self):
        # theta fixed far from failures: every Y > 0, lambda runs to the cap
        model = make_model("affine", a=[0.0], b=[-1.0], c=2.0)
        scen = ScenarioSet.from_array(np.random.default_rng(2).random((300, 1)))
        settings = OptimizationSettings(theta0=(0.0,), max_iters=3000, lambda_cap=10.0)
        out = minimize(ChernoffObjective(model, scen), settings)
        assert out.lambda_star == 10.0
        assert out.iterations == 0
        assert out.termination == "lambda_cap"
        trace = out.objective_trace
        assert all(a >= b for a, b in zip(trace, trace[1:]))
        # all Y >= 0 keeps the objective in (0, 1]
        assert 0.0 < trace[-1] <= 1.0

    def test_scenario_count_is_given(self):
        # no plan sizes the scenario set: it assumes [0, 1] summands, and
        # exp(-lambda Y) exceeds 1 wherever Y < 0
        model, settings = make_model("quadratic_well"), OptimizationSettings(theta0=(0.5,))
        with pytest.raises(TypeError, match="n_scenarios"):
            optimize_probability(model, settings, seed=1)
        with pytest.raises(TypeError, match="scenario_spec"):
            optimize_probability(model, settings, seed=1, n_scenarios=10, scenario_spec=SPEC)

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
            OptimizationSettings(theta0=(0.0,), grad_tol=0.0)
        with pytest.raises(TypeError):  # the line search's constants are not settings
            OptimizationSettings(theta0=(0.0,), backtrack_shrink=0.5)
        with pytest.raises(DomainError):
            OptimizationSettings(theta0=(0.0,), max_iters=-1)
        with pytest.raises(DomainError):
            OptimizationSettings(theta0=(0.0,), lambda_cap=0.0)
        with pytest.raises(DomainError, match="theta0"):  # a scalar, not a sequence
            OptimizationSettings(theta0=0.5)

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(OptimizationSettings)][1:]
    )
    def test_settings_reject_booleans(self, field):
        with pytest.raises(DomainError, match=field):
            OptimizationSettings(theta0=(0.0,), **{field: True})

    def test_settings_reject_boolean_theta0(self):
        with pytest.raises(DomainError, match="theta0"):
            OptimizationSettings(theta0=(0.0, False))

    def test_nu0_whose_exp_underflows_rejected(self):
        # exp(-800) is 0.0: the lambda solve started at 0 and ended there
        with pytest.raises(DomainError, match=r"nu0 must be finite and >= -744\.44"):
            OptimizationSettings(theta0=(-5.0,), nu0=-800.0)
        model = make_model("quadratic_well")
        lowest = math.log(np.finfo(float).smallest_subnormal)
        settings = OptimizationSettings(theta0=(-5.0,), nu0=lowest)
        out = minimize(ChernoffObjective(model, rows_of_default_rng(model, 500, 11)), settings)
        assert 0.0 < out.lambda_star <= settings.lambda_cap

    @pytest.mark.parametrize("seed", [-1, True, 1.5])
    def test_bad_seed_rejected(self, seed):
        model = make_model("quadratic_well")
        with pytest.raises(DomainError, match="seed"):
            optimize_probability(model, OptimizationSettings(theta0=(0.5,)), seed=seed, n_scenarios=10)
        with pytest.raises(DomainError, match="seed"):
            ScenarioSource.from_model(model, seed)

    def test_dimension_mismatch(self):
        obj = plus_minus_one_objective()
        with pytest.raises(DomainError):
            minimize(obj, OptimizationSettings(theta0=(0.0, 0.0)))

    def test_scenario_dimension_mismatch(self):
        with pytest.raises(DomainError, match="scenario dimension 2 does not match model dim_delta 1"):
            ChernoffObjective(make_model("quadratic_well"), ScenarioSet.from_array(np.zeros((3, 2))))

    def test_outcome_round_trip(self):
        settings = OptimizationSettings(theta0=(0.4,), max_iters=50)
        out = optimize_probability(
            make_model("quadratic_well"), settings, seed=5, n_scenarios=500,
            certify_spec=SPEC,
        )
        # the JSON record is the constructor's keyword arguments, exactly
        record = json.loads(json.dumps(out.to_dict()))
        certificate = Certificate(**record.pop("certificate"))
        rebuilt = OptimizationOutcome(
            **{k: tuple(v) if isinstance(v, list) else v for k, v in record.items()},
            certificate=certificate,
        )
        assert rebuilt == out


class TestLambdaSolve:
    """``_profile``, the lambda solve, counted in ``_moments`` passes."""

    @pytest.mark.parametrize("seed", [7, 11, 1729])
    def test_readme_config_solves_in_few_passes(self, monkeypatch, seed):
        # a Newton step that rounds onto the bracket's end has converged:
        # bisecting it instead costs about 40 more passes
        counts = count_passes(monkeypatch)
        model = make_model("quadratic_well", sigma=0.5)
        settings = OptimizationSettings(theta0=(0.8,), nu0=0.0, max_iters=1000, grad_tol=1e-6, lambda_cap=50.0)
        out = optimize_probability(model, settings, seed=seed, n_scenarios=5000)
        assert out.termination == "gradient_tol"
        assert len(counts) > out.iterations
        assert max(counts) <= 12

    def test_every_y_positive_gives_the_cap_in_one_pass(self, monkeypatch):
        counts = count_passes(monkeypatch)
        ys = np.array([0.5, 1.0, 2.0])
        lam, f, vacuous = chernoff_opt._profile(ys, 1.0, 10.0)
        assert (lam, counts, vacuous) == (10.0, [1], "lambda_cap")
        assert f == chernoff_opt._moments(ys, 10.0)[0]

    def test_mean_y_nonpositive_keeps_the_warm_start(self, monkeypatch):
        counts = count_passes(monkeypatch)
        lam, _, vacuous = chernoff_opt._profile(np.array([-1.0, 0.5]), 0.3, 50.0)
        assert (lam, counts, vacuous) == (0.3, [1], "trivial_bound")

    @pytest.mark.parametrize("warm", [1e-6, 0.05, 0.1])
    def test_root_beyond_the_cap_gives_the_cap(self, warm):
        # Y = {-1, 3}: h' = 0 at exp(4 lambda) = 3, lambda = 0.2747, past the cap 0.1
        ys = np.array([-1.0, 3.0])
        lam, _, vacuous = chernoff_opt._profile(ys, warm, 0.1)
        assert (lam, vacuous) == (0.1, None)
        assert chernoff_opt._moments(ys, lam)[1] < 0.0

    def test_zero_curvature_still_ends(self, monkeypatch):
        counts = count_passes(monkeypatch)
        # Y = {-1, 100}: at lambda = 50 the weight of Y = 100 underflows, so
        # h'' = 0 and h' = 1 > 0, an infinite step down to the root ln(100) / 101
        lam, _, _ = chernoff_opt._profile(np.array([-1.0, 100.0]), 50.0, 50.0)
        assert lam == pytest.approx(math.log(100.0) / 101.0, rel=1e-11)
        # Y = {0, 1e10}: the weight of 1e10 underflows at lambda = 1, so h' = 0
        # and h'' = 0, a zero step
        lam, _, _ = chernoff_opt._profile(np.array([0.0, 1e10]), 1.0, 50.0)
        assert lam == 1.0
        assert counts[-1] == 1 and counts[0] < chernoff_opt._LAMBDA_STEPS

    @hypothesis.given(
        st.lists(st.floats(0.01, 10.0), min_size=1, max_size=20),
        st.lists(st.floats(-10.0, -0.01), min_size=1, max_size=20),
    )
    @hypothesis.settings(max_examples=60, deadline=None)
    def test_interior_root_from_far_warm_starts(self, positive, negative):
        ys = np.array(positive + negative)
        # a mean near 0 puts the root near 0, where its relative error grows
        hypothesis.assume(ys.mean() >= 0.05 * np.abs(ys).max())
        root = root_of_slope(ys)
        for warm in (1e-3 * root, 1e3 * root):
            lam, _, vacuous = chernoff_opt._profile(ys, warm, 1e9)
            assert lam == pytest.approx(root, rel=1e-11)
            assert vacuous is None


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_y_rejected(self, monkeypatch, bad):
        # Y = theta - delta, not finite for delta > 0.9; a NaN once counted as a survival
        base = make_model("uniform_gap")
        model = dataclasses.replace(
            base, evaluate=lambda theta, rows: np.where(rows[:, 0] > 0.9, bad, base.evaluate(theta, rows))
        )
        first = int(np.flatnonzero(ScenarioSource.from_model(model, 3).draw(577)[:, 0] > 0.9)[0])
        monkeypatch.setattr(estimator, "_DRAW_CHUNK", 7)  # the index counts across chunks
        with pytest.raises(DomainError, match=f"Y is not finite at scenario {first}: {bad!r}"):
            certify_probability(model, [0.5], SPEC, ScenarioSource.from_model(model, 3))
        obj = ChernoffObjective(model, ScenarioSet.from_array([[0.1], [0.95]]))
        with pytest.raises(DomainError, match="Y is not finite at scenario 1"):
            obj.performance_values([0.5])

    def test_y_past_2_450_rejected(self):
        # Y * Y would leave the exact kernel's 2^900 range, and the mean Y
        # that picks the first lambda would overflow in fsum
        model = make_model("quadratic_well")
        obj = ChernoffObjective(model, ScenarioSet.from_model(model, 50, seed=3))
        with pytest.raises(DomainError, match=r"\|Y\| exceeds 2\*\*450 at scenario 0: -1e\+308"):
            minimize(obj, OptimizationSettings(theta0=(1e154,)))
        with pytest.raises(DomainError, match=r"\|Y\| exceeds 2\*\*450 at scenario 0: -1e\+308"):
            certify_probability(model, [1e154], SPEC, ScenarioSource.from_model(model, 3))

    def test_y_bound_is_inclusive(self):
        rows = ScenarioSet.from_array([[0.0], [0.0]])
        for c in (2.0**450, -(2.0**450)):
            obj = ChernoffObjective(make_model("affine", a=[0.0], b=[0.0], c=c), rows)
            assert obj.performance_values([0.0]).tolist() == [c, c]
        past = math.nextafter(2.0**450, math.inf)
        obj = ChernoffObjective(make_model("affine", a=[0.0], b=[0.0], c=past), rows)
        with pytest.raises(DomainError, match=re.escape(f"|Y| exceeds 2**450 at scenario 0: {past!r}")):
            obj.performance_values([0.0])

    @pytest.mark.parametrize(
        "output, dtype", [(lambda n: ["0.5"] * n, "<U3"), (lambda n: np.zeros(n, bool), "bool")], ids=["string", "bool"]
    )
    def test_y_that_is_not_numbers_rejected(self, output, dtype):
        # a string Y was parsed, a boolean one read as 0/1
        model = dataclasses.replace(make_model("uniform_gap"), evaluate=lambda theta, rows: output(rows.shape[0]))
        message = f"model 'uniform_gap' Y values must be numbers, got dtype {dtype}"
        with pytest.raises(DomainError, match=message):
            certify_probability(model, [0.5], SPEC, ScenarioSource.from_model(model, 3))
        obj = ChernoffObjective(model, ScenarioSet.from_array([[0.1], [0.2]]))
        with pytest.raises(DomainError, match=message):
            obj.performance_values([0.5])
        gradient = dataclasses.replace(make_model("uniform_gap"), gradient_theta=lambda theta, rows: np.c_[output(2)])
        with pytest.raises(DomainError, match=f"model 'uniform_gap' gradient values must be numbers, got dtype {dtype}"):
            empirical_moment_gradient(ChernoffObjective(gradient, obj.scenarios), 1.0, [0.5])

    def test_ragged_output_rejected(self):
        # numpy's bare ValueError ("inhomogeneous shape") escaped before
        ragged = lambda theta, rows: [[0.5]] * (rows.shape[0] - 1) + [[0.5, 0.5]]
        model = dataclasses.replace(make_model("uniform_gap"), evaluate=ragged)
        message = "model 'uniform_gap' Y values must be numbers, got a ragged sequence"
        with pytest.raises(DomainError, match=re.escape(message)):
            ChernoffObjective(model, ScenarioSet.from_array([[0.1], [0.2]])).performance_values([0.5])
        with pytest.raises(DomainError, match=re.escape(message)):
            certify_probability(model, [0.5], SPEC, ScenarioSource.from_model(model, 3))

    def test_wrong_output_shape_rejected(self):
        base = make_model("uniform_gap")
        model = dataclasses.replace(base, evaluate=lambda theta, rows: theta[0] - rows)
        with pytest.raises(DomainError, match=re.escape("model 'uniform_gap' returned Y shape (577, 1), expected (577,)")):
            certify_probability(model, [0.5], SPEC, ScenarioSource.from_model(model, 3))

    @pytest.mark.parametrize("error, cut", [(SourceExhaustedError, -1), (DomainError, 1)], ids=["short", "long"])
    def test_draw_override_of_the_wrong_length_rejected(self, error, cut):
        # a block one row short or long would otherwise be certified as the planned n rows
        class Miscut(ScenarioSource):
            def draw(self, k):
                return super().draw(k + cut)

        model = make_model("quadratic_well")
        with pytest.raises(error, match=f"scenario source produced {577 + cut} of 577 planned rows"):
            certify_probability(model, [0.3], SPEC, Miscut.from_model(model, 44))

    def test_source_advances(self):
        model = make_model("quadratic_well")
        source = ScenarioSource.from_model(model, 8)
        certify_probability(model, [0.0], SPEC, source)
        assert source.draws_made == 577

    def test_a_source_of_values_is_not_a_scenario_source(self):
        # a BernoulliSource's 1-D draws raised an IndexError inside the model
        model = make_model("quadratic_well")
        with pytest.raises(DomainError, match="certify_probability takes a ScenarioSource, got BernoulliSource"):
            certify_probability(model, [0.0], SPEC, BernoulliSource(0.3, seed=8))

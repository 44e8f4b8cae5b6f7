"""Tests for the exact binomial oracle, lemma scans, and experiments."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from probcert import (
    DomainError,
    GridSpec,
    ScanReport,
    ScenarioSet,
    binomial_tail_exact,
    chernoff_opt,
    cli,
    coverage_experiment,
    domination_experiment,
    estimator,
    lemma56_check,
    lemma_scan,
    lower_tail_bound,
    make_model,
    tail_bounds,
    upper_tail_bound,
    validate_spec,
    verification,
)

SPEC = validate_spec(0.05, 0.2, 0.05)


def binomial_tail_fraction(n: int, mu: float, k: int) -> Fraction:
    """Exact rational lower tail for the double value of mu."""
    p = Fraction(mu)
    q = 1 - p
    return sum(
        Fraction(math.comb(n, j)) * p**j * q ** (n - j) for j in range(k + 1)
    )


class TestBinomialTailExact:
    def test_reference_value(self):
        assert binomial_tail_exact(10, 0.5, 3) == pytest.approx(
            176 / 1024, rel=1e-12
        )

    def test_full_support_is_one(self):
        assert binomial_tail_exact(5, 0.5, 5) == 1.0

    def test_single_term(self):
        assert binomial_tail_exact(5, 0.3, 0) == pytest.approx(0.7**5, rel=1e-12)

    def test_k_out_of_range(self):
        with pytest.raises(DomainError):
            binomial_tail_exact(5, 0.5, 6)
        with pytest.raises(DomainError):
            binomial_tail_exact(5, 0.5, -1)

    def test_mu_domain(self):
        with pytest.raises(DomainError):
            binomial_tail_exact(5, 0.0, 2)

    def test_exhaustive_against_rational_arithmetic(self):
        # every (n, k) for n <= 30 across assorted mu, vs fractions.Fraction
        rng = np.random.default_rng(8)
        mus = [0.5, 0.3, 0.05, 0.95] + list(rng.uniform(0.01, 0.99, 4))
        for mu in mus:
            for n in range(1, 31):
                for k in range(n + 1):
                    exact = float(binomial_tail_fraction(n, mu, k))
                    assert binomial_tail_exact(n, float(mu), k) == pytest.approx(
                        exact, rel=5e-13, abs=1e-300
                    )

    def test_large_n_stays_in_range(self):
        value = binomial_tail_exact(577, 0.05, 10)
        assert 0.0 < value < 1.0


class TestLemmaScans:
    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2, 0.3])
    def test_l2_monotonicity(self, eps):
        report = lemma_scan("L2", GridSpec(eps=eps))
        assert report.passed, report.to_text()

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2, 0.3])
    def test_l3_domination(self, eps):
        report = lemma_scan("L3", GridSpec(eps=eps))
        assert report.passed, report.to_text()

    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.5, 0.9])
    def test_l4_proportional_offsets(self, eps):
        report = lemma_scan("L4", GridSpec(eps=eps))
        assert report.passed, report.to_text()

    def test_unknown_lemma(self):
        with pytest.raises(DomainError):
            lemma_scan("L7", GridSpec(eps=0.1))

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            GridSpec(eps=0.1, step=0.0)
        with pytest.raises(DomainError):
            GridSpec(eps=0.1, margin=1e-4)
        with pytest.raises(DomainError):
            lemma_scan("L2", GridSpec(eps=0.6))  # L2 needs eps < 1/2

    @pytest.mark.parametrize("kwargs", [{"step": math.inf}, {"margin": math.inf}])
    def test_non_finite_grid_rejected(self, kwargs):
        with pytest.raises(DomainError, match="finite"):
            GridSpec(eps=0.1, **kwargs)

    @pytest.mark.parametrize(
        "lemma_id, grid",
        [
            ("L4", GridSpec(eps=0.1, margin=0.7)),  # 1/(1+eps) - margin < margin
            ("L2", GridSpec(eps=0.3, margin=0.2)),  # first interval is empty
            ("L3", GridSpec(eps=0.1, step=0.5)),  # one point per side of 1/2
        ],
    )
    def test_vacuous_grid_rejected(self, lemma_id, grid):
        with pytest.raises(DomainError, match="fewer than two points"):
            lemma_scan(lemma_id, grid)

    def test_grid_point_count_capped(self):
        # counted before numpy is asked for the 3e14-point array
        with pytest.raises(DomainError, match="more than 1,000,000 points"):
            lemma_scan("L3", GridSpec(eps=0.1, step=1e-15))

    def test_grid_must_keep_exponent_domain(self):
        with pytest.raises(DomainError, match="inside"):
            verification._inside(0.1, np.array([0.5, 0.95]))
        with pytest.raises(DomainError, match="inside"):
            verification._inside(-0.1, np.array([0.05, 0.5]))

    def test_broken_exponent_fails_every_claim(self, monkeypatch):
        # the scans read g and dg/dmu through these two names; negating them
        # reverses every monotonicity and domination claim
        monkeypatch.setattr(verification, "_g", lambda e, m, f: -tail_bounds._g(e, m, f))
        monkeypatch.setattr(verification, "_dg", lambda e, m, f: -tail_bounds._dg(e, m, f))
        eps = 0.1
        formats = {
            "L2": lambda p: p[0] in ("dmu", "diff") and p[1] in (eps, -eps) and len(p) == 3,
            "L3": lambda p: len(p) == 1,
            "L4": lambda p: p[0] in ("g(eps*mu, mu)", "g(-eps*mu, mu)") and len(p) == 2,
        }
        for lemma_id, shaped in formats.items():
            report = lemma_scan(lemma_id, GridSpec(eps=eps))
            assert not report.passed
            assert "FAIL" in report.to_text()
            for point, values in report.violations:
                assert shaped(point), point
                assert type(point[-1]) is float and 0.0 < point[-1] < 1.0
                assert set(values) == {"value", "expected_sign"}
                assert values["expected_sign"] in (+1, -1)
        l2 = lemma_scan("L2", GridSpec(eps=eps))
        assert {(p[0], p[1]) for p, _ in l2.violations} == {
            (kind, e) for kind in ("dmu", "diff") for e in (eps, -eps)
        }
        l4 = lemma_scan("L4", GridSpec(eps=eps))
        assert {p[0] for p, _ in l4.violations} == {"g(eps*mu, mu)", "g(-eps*mu, mu)"}

    def test_array_formulas_match_scalar_on_cli_grids(self, monkeypatch, capsys):
        seen = {"g": [], "dg": []}

        def recording(name, formula):
            def wrapper(eps, mus, log1p):
                values = formula(eps, mus, log1p)
                seen[name].append((np.broadcast_to(eps, mus.shape), mus, values))
                return values
            return wrapper

        monkeypatch.setattr(verification, "_g", recording("g", verification._g))
        monkeypatch.setattr(verification, "_dg", recording("dg", verification._dg))
        assert cli.main(["verify", "--suite", "lemmas"]) == 0
        capsys.readouterr()
        for name, scalar, tolerance in (
            ("g", tail_bounds.hoeffding_exponent, {"rtol": 1e-13, "atol": 0.0}),
            ("dg", tail_bounds.hoeffding_exponent_dmu, {"rtol": 0.0, "atol": 1e-14}),
        ):
            assert seen[name]
            for eps, mus, values in seen[name]:
                expected = [scalar(float(e), float(mu)) for e, mu in zip(eps, mus)]
                np.testing.assert_allclose(values, expected, **tolerance)
        assert sum(mus.size for _, mus, _ in seen["g"] + seen["dg"]) > 20_000

    def test_scans_make_no_scalar_exponent_calls(self, monkeypatch):
        calls = []

        def counting(fn):
            def wrapper(*args):
                calls.append(args)
                return fn(*args)
            return wrapper

        for name in ("hoeffding_exponent", "hoeffding_exponent_dmu"):
            original = getattr(tail_bounds, name)
            monkeypatch.setattr(tail_bounds, name, counting(original))
            monkeypatch.setattr(verification, name, counting(original), raising=False)
        for lemma_id in ("L2", "L3", "L4"):
            assert lemma_scan(lemma_id, GridSpec(eps=0.1)).passed
        assert calls == []

    def test_report_shape(self):
        report = lemma_scan("L2", GridSpec(eps=0.1))
        assert report.lemma_id == "L2"
        assert report.passed == (not report.violations)
        d = report.to_dict()
        assert set(d) == {"lemma_id", "grid_description", "violations", "passed"}

    @pytest.mark.parametrize(
        "call, accepted",
        [
            (lambda: upper_tail_bound(True, 0.1, 0.5), False),
            (lambda: binomial_tail_exact(True, 0.5, 0), False),
            (lambda: lemma56_check(SPEC, [0.1], True), False),
            (lambda: coverage_experiment(SPEC, [0.5], True, 3), False),
            (lambda: domination_experiment("quadratic_well", SPEC, True, 3), False),
            (lambda: ScenarioSet.from_model(make_model("uniform_gap"), True, 1), False),
            (lambda: ScenarioSet.from_model(make_model("uniform_gap"), 2.5, 1), False),
            # numpy integers are counts
            (lambda: coverage_experiment(SPEC, [0.5], np.int64(10), 3), True),
            (lambda: ScenarioSet.from_model(make_model("uniform_gap"), np.int64(3), 1), True),
        ],
        ids=["upper_tail_bound", "binomial_tail_exact", "lemma56_check",
             "coverage_experiment", "domination_experiment",
             "scenario_set_bool", "scenario_set_float",
             "coverage_experiment_numpy_int", "scenario_set_numpy_int"],
    )
    def test_counts_reject_booleans(self, call, accepted):
        if accepted:
            call()
            return
        with pytest.raises(DomainError, match="must be a positive integer"):
            call()


class TestHoeffdingBoundVsExactBinomial:
    def test_bound_dominates_exact_tails(self):
        # Lemma-1 inequalities against exact binomial tails, no slack
        rng = np.random.default_rng(19)
        for _ in range(200):
            n = int(rng.integers(1, 201))
            mu = float(rng.uniform(0.05, 0.95))
            frac = float(rng.uniform(0.05, 0.95))
            eps_up = frac * (1.0 - mu)
            eps_lo = frac * mu
            k_up = int(math.ceil(n * (mu + eps_up)))
            upper_exact = (
                0.0 if k_up > n else binomial_tail_exact(n, 1.0 - mu, n - k_up)
            )
            assert upper_tail_bound(n, eps_up, mu) >= upper_exact
            k_lo = int(math.floor(n * (mu - eps_lo)))
            lower_exact = 0.0 if k_lo < 0 else binomial_tail_exact(n, mu, k_lo)
            assert lower_tail_bound(n, eps_lo, mu) >= lower_exact

    def test_reference_domination_case(self):
        # n=10, mu=0.5, eps=0.2: bound 0.4392 vs exact tails 176/1024
        bound = lower_tail_bound(10, 0.2, 0.5)
        assert bound == pytest.approx(0.4392, abs=1e-4)
        assert bound >= 176 / 1024
        assert upper_tail_bound(10, 0.2, 0.5) >= 176 / 1024


class TestLemma56Check:
    def test_lower_range_reference(self):
        report = lemma56_check(SPEC, [0.05, 0.1, 0.15, 0.2, 0.25], 577)
        assert report.lemma_id == "L5"
        assert report.passed, report.to_text()

    def test_upper_range_reference(self):
        report = lemma56_check(SPEC, [0.3, 0.45, 0.6, 0.75, 0.9], 577)
        assert report.lemma_id == "L6"
        assert report.passed, report.to_text()

    def test_tiny_mu_tail_is_zero(self):
        # mu < eps_a: the lower-deviation event is impossible
        report = lemma56_check(SPEC, [0.01, 0.04], 100)
        assert report.passed

    def test_mu_above_relative_ceiling(self):
        # mu > 1/(1+eps_r): the upper-deviation event is impossible
        report = lemma56_check(SPEC, [0.85, 0.9, 0.99], 100)
        assert report.passed

    def test_mixed_grid_rejected(self):
        with pytest.raises(DomainError):
            lemma56_check(SPEC, [0.1, 0.5], 100)

    def test_grid_range_validation(self):
        with pytest.raises(DomainError):
            lemma56_check(SPEC, [0.0, 0.1], 100)
        with pytest.raises(DomainError):
            lemma56_check(SPEC, [], 100)


class TestCoverageExperiment:
    def test_small_run_passes(self):
        report = coverage_experiment(SPEC, [0.5], trials=300, seed=23)
        assert report.lemma_id == "coverage"
        assert report.passed, report.to_text()

    def test_weak_guarantee_passes_trivially(self):
        weak = validate_spec(0.05, 0.2, 0.5)
        report = coverage_experiment(weak, [0.3, 0.7], trials=200, seed=29)
        assert report.passed

    def test_zero_trials_rejected(self):
        with pytest.raises(DomainError):
            coverage_experiment(SPEC, [0.5], trials=0, seed=1)

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError, match="empty"):
            coverage_experiment(SPEC, [], trials=10, seed=1)

    def test_seed_checked_before_any_work(self, monkeypatch):
        def no_plan(spec):
            raise AssertionError("planned before the seed was checked")

        monkeypatch.setattr(verification, "minimum_sample_size", no_plan)
        with pytest.raises(DomainError, match="seed"):
            coverage_experiment(SPEC, [0.5], trials=10, seed=-1)

    def test_deterministic(self):
        a = coverage_experiment(SPEC, [0.25, 0.5], trials=200, seed=37)
        b = coverage_experiment(SPEC, [0.25, 0.5], trials=200, seed=37)
        assert a == b


class TestDominationExperiment:
    def test_quadratic_well_passes(self):
        report = domination_experiment("quadratic_well", SPEC, points=20, seed=41)
        assert report.lemma_id == "domination"
        assert report.passed, report.to_text()

    def test_affine_and_uniform_models(self):
        for model_id in ("affine", "uniform_gap"):
            report = domination_experiment(model_id, SPEC, points=10, seed=43)
            assert report.passed, report.to_text()

    def test_zero_points_rejected(self):
        with pytest.raises(DomainError):
            domination_experiment("quadratic_well", SPEC, points=0, seed=1)

    def test_unknown_model(self):
        from probcert import ConfigError

        with pytest.raises(ConfigError):
            domination_experiment("mystery", SPEC, points=5, seed=1)

    def test_draws_from_three_children_of_the_seed(self, monkeypatch):
        # frozen scenarios, fresh draws and random points: one role each
        keys = []

        def recording(seed, role, index=0):
            keys.append((seed, role, index))
            return estimator._stream(seed, role, index)

        monkeypatch.setattr(chernoff_opt, "_stream", recording)
        monkeypatch.setattr(verification, "_stream", recording)
        domination_experiment("quadratic_well", SPEC, points=2, seed=47)
        assert sorted(keys) == [
            (47, estimator._SCENARIOS, 0),
            (47, estimator._CERTIFICATION, 0),
            (47, estimator._POINTS, 0),
        ]

    @pytest.mark.parametrize("seed", [-1, True, 1.5])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(DomainError, match="seed"):
            domination_experiment("quadratic_well", SPEC, points=2, seed=seed)
        with pytest.raises(DomainError, match="seed"):
            coverage_experiment(SPEC, [0.5], trials=10, seed=seed)

    @staticmethod
    def counting_model(monkeypatch, calls, fresh_value=None):
        """quadratic_well recording each evaluate call's row count; on fresh
        rows (writable, unlike the frozen scenarios) Y is ``fresh_value`` if given.
        """
        model = make_model("quadratic_well")

        def evaluate(theta, rows):
            calls.append(rows.shape[0])
            ys = model.evaluate(theta, rows)
            return ys if fresh_value is None or not rows.flags.writeable else np.full_like(ys, fresh_value)

        counting = dataclasses.replace(model, evaluate=evaluate)
        monkeypatch.setattr(verification, "make_model", lambda name: counting)

    def test_one_model_evaluation_per_point_and_draw(self, monkeypatch):
        expected = domination_experiment("quadratic_well", SPEC, points=4, seed=47)
        calls = []
        self.counting_model(monkeypatch, calls)
        assert domination_experiment("quadratic_well", SPEC, points=4, seed=47) == expected
        # the frozen scenarios' Y, whose moment is taken from them, then the fresh draw
        assert calls == [577] * 8

    def test_non_finite_fresh_y_rejected(self, monkeypatch):
        self.counting_model(monkeypatch, [], fresh_value=math.nan)
        with pytest.raises(DomainError, match="Y is not finite at scenario 0"):
            domination_experiment("quadratic_well", SPEC, points=2, seed=47)

    def test_deterministic(self):
        a = domination_experiment("quadratic_well", SPEC, points=10, seed=47)
        b = domination_experiment("quadratic_well", SPEC, points=10, seed=47)
        assert a == b


class TestScanReport:
    def test_passed_iff_no_violations(self):
        clean = ScanReport(lemma_id="L2", grid_description="test")
        assert clean.passed
        dirty = ScanReport(
            lemma_id="L2", grid_description="test", violations=[((0.5,), {"v": 1.0})]
        )
        assert not dirty.passed

    def test_text_rendering(self):
        report = ScanReport(lemma_id="coverage", grid_description="2 points")
        assert "PASS" in report.to_text()

    def test_bad_lemma_id(self):
        with pytest.raises(DomainError):
            ScanReport(lemma_id="L9", grid_description="x")

"""Tests for the exact binomial oracle, lemma scans, and experiments."""

import dataclasses
import math
import multiprocessing
import os
import subprocess
import sys
from fractions import Fraction

import mpmath
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
    minimum_sample_size,
    tail_bounds,
    upper_tail_bound,
    validate_spec,
    verification,
)
from support import CHUNKS, peak_bytes

SPEC = validate_spec(0.05, 0.2, 0.05)
SPEC_LARGE = validate_spec(0.001, 0.2, 0.05)  # n = 39,064: two certification blocks and the rest


def binomial_tail_fraction(n: int, mu: float, k: int) -> Fraction:
    """Exact rational lower tail for the double value of mu."""
    p = Fraction(mu)
    q = 1 - p
    return sum(
        Fraction(math.comb(n, j)) * p**j * q ** (n - j) for j in range(k + 1)
    )


def binomial_tail_40(n: int, mu: float, k: int):
    """Pr{Binomial(n, mu) <= k} for the double mu, a 40-digit sum: below the
    mean downward from k, and above it 1 minus the upper tail, summed so from
    n - k - 1 for n - S ~ Binomial(n, 1 - mu)."""
    with mpmath.workdps(40):
        p = mpmath.mpf(mu)
        if k >= n * p:
            return 1 - binomial_tail_40(n, 1 - p, n - k - 1) if k < n else mpmath.mpf(1)
        if k < 0:
            return mpmath.mpf(0)
        term = mpmath.exp(mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1) - mpmath.loggamma(n - k + 1)
                          + k * mpmath.log(p) + (n - k) * mpmath.log1p(-p))
        total, odds, tiny = term, (1 - p) / p, mpmath.mpf(10) ** -42
        for j in range(k, 0, -1):  # term(j - 1) = term(j) j (1 - mu) / ((n - j + 1) mu)
            term *= odds * j / (n - j + 1)
            total += term
            if term < total * tiny:
                break
        return total


def cli_grid_pairs(spec):
    """n and the (mu, k) of each tail ``lemma56_check`` sums on the CLI's two grids at spec."""
    n, crossover = minimum_sample_size(spec).n, spec.worst_case_mean
    lower = [crossover * (i + 1) / 10 for i in range(10)]
    upper = [crossover + (1.0 - crossover) * (i + 1) / 11 for i in range(10)]
    return n, [(mu, math.floor(n * (mu - spec.eps_a))) for mu in lower] + [
        (1.0 - mu, n - math.ceil(n * (1.0 + spec.eps_r) * mu)) for mu in upper]


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

    @pytest.mark.parametrize("n, mu, k", [(282_977, 0.04, 10_187), (7_229_021, 0.01, 70_844),
                                          (429_322_469, 0.001, 425_029)])
    def test_relative_error_against_a_40_digit_sum(self, n, mu, k):
        # lower tails at three plan sizes; the last two are lemma56's boundaries at the worst-case mean
        exact = binomial_tail_40(n, mu, k)
        assert abs(binomial_tail_exact(n, mu, k) - exact) / exact < 1e-12

    def test_largest_n_is_accurate(self):
        # the lgamma-formed terms read 1.0 here, 1.4 % off
        exact = binomial_tail_40(2**53 - 1, 1e-16, 3)
        assert abs(binomial_tail_exact(2**53 - 1, 1e-16, 3) - exact) / exact < 1e-12
        assert mpmath.almosteq(exact, mpmath.mpf("0.98650568645"), 1e-11)

    def test_large_n_stays_in_range(self):
        value = binomial_tail_exact(577, 0.05, 10)
        assert 0.0 < value < 1.0

    def test_relative_error_against_a_40_digit_sum_at_random_n(self):
        # n log-uniform up to 1e9, the mean n min(mu, 1 - mu) log-uniform up to
        # 1e4 (so that the oracle sums at most a few thousand terms), and k below
        # the mode, at it and above it, by up to 30 standard deviations; then
        # lemma56's boundaries on the CLI grids at two plan sizes
        rng = np.random.default_rng(36)
        cases = []
        for _ in range(40):
            n = int(np.exp(rng.uniform(0.0, math.log(1e9)))) + 1
            mean = np.exp(rng.uniform(math.log(1e-2), math.log(max(1e-2, min(n / 2, 1e4)))))
            mu = float(mean / n if rng.random() < 0.5 else 1.0 - mean / n)
            mode, sd = math.floor((n + 1) * mu), math.sqrt(n * mu * (1.0 - mu))
            for z in (-rng.uniform(1.0, 30.0), 0.0, rng.uniform(1.0, 30.0)):
                cases.append((n, mu, min(max(mode + round(z * sd), 0), n)))
        for spec in (validate_spec(0.05, 0.2, 0.05), validate_spec(2e-4, 0.02, 1e-6)):
            n, pairs = cli_grid_pairs(spec)
            cases += [(n, mu, k) for mu, k in pairs if k >= 0]
        compared = 0
        for n, mu, k in cases:
            exact = binomial_tail_40(n, mu, k)
            if exact >= 1e-300:
                compared += 1
                assert abs(binomial_tail_exact(n, mu, k) - exact) / exact < 1e-12, (n, mu, k)
        assert compared > 100

    @pytest.mark.parametrize("n, pairs", [
        (577, [(0.3, 150), (0.05, 10), (0.7, 500), (0.5, -1), (0.5, 577)]),
        (282_977, [(0.04, 10_187), (0.5, 141_000)]),  # a window of about 2,400 terms near the mode
    ])
    def test_tails_do_not_depend_on_the_block_widths(self, monkeypatch, n, pairs):
        # windows cut into blocks of one to five terms give the same tails, bit for bit
        expected = verification._binomial_tails(n, pairs)
        monkeypatch.setattr(verification, "_DRAW_CHUNK", 5)
        assert verification._binomial_tails(n, pairs) == expected


def g50(eps, mu):
    """g(eps, mu) from its defining formula, at the working mpmath precision."""
    eps, mu = mpmath.mpf(eps), mpmath.mpf(mu)
    return (mu + eps) * mpmath.log(mu / (mu + eps)) + (1 - mu - eps) * mpmath.log((1 - mu) / (1 - mu - eps))


def inside(rng, lo, hi):
    """A random float strictly inside (lo, hi), away from the ends by 1e-3 of its width."""
    return float(lo + (hi - lo) * rng.uniform(1e-3, 1.0 - 1e-3))


class TestLemmaPremises:
    """The convexity facts behind ``lemma_scan``'s endpoint checks, by
    50-digit second derivatives of g's defining formula at 1,000 random
    (eps, mu) each."""

    @pytest.fixture(autouse=True)
    def fifty_digits(self):
        with mpmath.workdps(50):
            yield

    def test_l2_g_is_concave_in_mu(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            eps = inside(rng, -0.5, 0.5)
            mu = inside(rng, max(0.0, -eps), min(1.0, 1.0 - eps))
            assert mpmath.diff(lambda x: g50(eps, x), mu, 2) < 0, (eps, mu)

    def test_l3_difference_is_odd_about_half_and_convex_below_it(self):
        rng = np.random.default_rng(3)

        def d(eps, x):
            return g50(eps, x) - g50(-eps, x)

        for _ in range(1000):
            eps = inside(rng, 0.0, 0.5)
            mu = inside(rng, eps, 0.5)
            assert abs(d(eps, mu) + d(eps, 1 - mpmath.mpf(mu))) < 1e-45, (eps, mu)
            assert mpmath.diff(lambda x: d(eps, x), mu, 2) > 0, (eps, mu)

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_l4_offset_curves_are_concave(self, sign):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            c = sign * inside(rng, 0.0, 1.0)
            mu = inside(rng, 0.0, min(1.0, 1.0 / (1.0 + c)))
            assert mpmath.diff(lambda x: g50(mpmath.mpf(c) * x, x), mu, 2) < 0, (c, mu)


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
        # step lies in the open (0, inf), margin in [1e-3, inf)
        with pytest.raises(DomainError, match=r"step must lie in \(0, inf\), got inf|margin must be >= 1e-3 and finite"):
            GridSpec(eps=0.1, **kwargs)

    @pytest.mark.parametrize(
        "lemma_id, grid",
        [
            ("L4", GridSpec(eps=0.1, margin=0.7)),  # 1/(1+eps) - margin < margin
            ("L2", GridSpec(eps=0.3, margin=0.2)),  # first interval is empty
        ],
    )
    def test_vacuous_grid_rejected(self, lemma_id, grid):
        with pytest.raises(DomainError, match=r"scan interval \[.*\] has fewer than two points"):
            lemma_scan(lemma_id, grid)

    def test_broken_exponent_fails_every_claim(self, monkeypatch):
        # the checks read g and its two partials through these three names;
        # negating them reverses every monotonicity and domination claim
        monkeypatch.setattr(verification, "_g", lambda e, m: -tail_bounds._g(e, m))
        monkeypatch.setattr(verification, "_dg", lambda e, m: -tail_bounds._dg(e, m))
        monkeypatch.setattr(verification, "_dg_eps", lambda e, m: -tail_bounds._dg_eps(e, m))
        eps = 0.1
        expected = {
            "L2": {("dg/dmu", e, mu) for e, mu in ((eps, 0.399), (eps, 0.501), (-eps, 0.499), (-eps, 0.601))},
            "L3": {(q, mu) for q in ("D", "dD/dmu") for mu in (0.499, 0.501)},
            "L4": {("d/dmu g(eps*mu, mu)", 0.001), ("d/dmu g(-eps*mu, mu)", 0.001)},
        }
        for lemma_id, points in expected.items():
            report = lemma_scan(lemma_id, GridSpec(eps=eps))
            assert "FAIL" in report.to_text()
            # every interval fails, each at its deciding end
            assert {p[:-1] + (round(p[-1], 12),) for p, _ in report.violations} == points
            for point, values in report.violations:
                assert type(point[-1]) is float
                assert set(values) == {"value", "expected_sign"}
                assert type(values["value"]) is float
                assert values["expected_sign"] in (+1, -1)

    def test_endpoint_values_match_fifty_digits(self, monkeypatch, capsys):
        # every value the CLI and criterion 5 compare with the margin, against
        # 50-digit numerical derivatives of g's defining formula
        seen = []

        def recording(lemma_id, claims):
            def wrapper(eps, m):
                for point, value, sign in claims(eps, m):
                    seen.append((lemma_id, eps, point, value))
                    yield point, value, sign
            return wrapper

        claims = {k: v[:-1] + (recording(k, v[-1]),) for k, v in verification._CLAIMS.items()}
        monkeypatch.setattr(verification, "_CLAIMS", claims)
        assert cli.main(["verify", "--suite", "lemmas"]) == 0
        capsys.readouterr()
        for lemma_id, eps_values in (("L2", (0.05, 0.1, 0.2, 0.3)), ("L3", (0.05, 0.1, 0.2, 0.3)),
                                     ("L4", (0.1, 0.3, 0.5, 0.9))):
            for eps in eps_values:
                assert lemma_scan(lemma_id, GridSpec(eps=eps, step=1e-3, margin=1e-3)).passed
        assert len(seen) == 2 * (4 * 4 + 4 * 4 + 4 * 2)
        with mpmath.workdps(50):
            for lemma_id, eps, point, value in seen:
                mu = point[-1]
                if lemma_id == "L2":
                    exact = mpmath.diff(lambda x: g50(point[1], x), mu)
                elif point[0] == "D":
                    exact = g50(eps, mu) - g50(-eps, mu)
                elif point[0] == "dD/dmu":
                    exact = mpmath.diff(lambda x: g50(eps, x) - g50(-eps, x), mu)
                else:
                    c = eps if point[0] == "d/dmu g(eps*mu, mu)" else -eps
                    exact = mpmath.diff(lambda x: g50(mpmath.mpf(c) * x, x), mu)
                assert abs(value - exact) <= 1e-15, (lemma_id, eps, point, value)

    def test_scans_make_no_scalar_exponent_calls(self, monkeypatch):
        calls = []

        def counting(fn):
            def wrapper(*args):
                calls.append(args)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(tail_bounds, "hoeffding_exponent", counting(tail_bounds.hoeffding_exponent))
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

    def test_tails_at_cli_grids_match_per_mean_loop(self, monkeypatch, capsys):
        grids, tails = [], []

        def recording_check(spec, mu_grid, n):
            grids.append((spec, mu_grid, n))
            return lemma56_check(spec, mu_grid, n)

        def recording_tails(n, pairs):
            tails.append(shared(n, pairs))
            return tails[-1]

        shared = verification._binomial_tails
        monkeypatch.setattr(cli, "lemma56_check", recording_check)
        monkeypatch.setattr(verification, "_binomial_tails", recording_tails)
        assert cli.main(["verify", "--suite", "lemma56"]) == 0
        capsys.readouterr()
        lower, upper = grids
        assert len(tails) == 2  # one shared-table call per check
        spec, mus, n = lower
        ks = [math.floor(n * (mu - spec.eps_a)) for mu in mus]
        expected = [binomial_tail_exact(n, mu, k) if k >= 0 else 0.0 for mu, k in zip(mus, ks)]
        assert tails[0] == expected and any(expected)
        spec, mus, n = upper
        ks = [math.ceil(n * (1.0 + spec.eps_r) * mu) for mu in mus]
        expected = [binomial_tail_exact(n, 1.0 - mu, n - k) if k <= n else 0.0 for mu, k in zip(mus, ks)]
        assert tails[1] == expected and any(expected)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cli_grids_at_the_north_star_pass_in_constant_memory(self, capsys):
        # n = 429,322,469: the windows of the 20 tails, not their k terms each, are summed
        argv = ["verify", "--suite", "lemma56", "--eps-a", "1e-5", "--eps-r", "0.01", "--delta", "1e-9"]
        code, peak = peak_bytes(lambda: cli.main(argv))
        out = capsys.readouterr().out
        assert code == 0 and out.count("PASS") == 3 and out.count("n=429322469") == 2, out
        assert peak <= 8 * 2**20

    @pytest.mark.parametrize(
        "name, mus", [("lower_tail_bound", [0.1, 0.2]), ("upper_tail_bound", [0.3, 0.6])]
    )
    def test_bound_is_the_library_tail_bound(self, monkeypatch, name, mus):
        # L5 and L6 take their bound from the functions users call, once, at
        # (n, eps_a, eps_a/eps_r): a bound of 0 fails every nonzero tail
        calls = []

        def zero(n, eps, mu):
            calls.append((n, eps, mu))
            return 0.0

        monkeypatch.setattr(verification, name, zero)
        report = lemma56_check(SPEC, mus, 577)
        assert calls == [(577, SPEC.eps_a, SPEC.worst_case_mean)]
        assert [point for point, _ in report.violations] == [(mu,) for mu in mus]
        assert all(values["bound"] == 0.0 for _, values in report.violations)

    @pytest.mark.parametrize(
        "lemma_id, mus, desc, bound",
        [
            ("L5", [0.1, 0.25], "lower tails at 2 mu-points in (0, 0.25], n=577", lower_tail_bound),
            ("L6", [0.3, 0.6, 0.9], "upper tails at 3 mu-points in (0.25, 1), n=577", upper_tail_bound),
        ],
    )
    def test_report_names_its_range_and_each_tail_above_the_bound(self, monkeypatch, lemma_id, mus, desc, bound):
        # every tail read as 1: each mean is a violation, with its tail and the range's bound
        monkeypatch.setattr(verification, "_binomial_tails", lambda n, pairs: [1.0] * len(pairs))
        values = {"exact_tail": 1.0, "bound": bound(577, SPEC.eps_a, SPEC.worst_case_mean)}
        assert lemma56_check(SPEC, mus, 577) == ScanReport(lemma_id, desc, [((mu,), values) for mu in mus])

    def test_grid_range_validation(self):
        with pytest.raises(DomainError):
            lemma56_check(SPEC, [0.0, 0.1], 100)
        with pytest.raises(DomainError):
            lemma56_check(SPEC, [], 100)

    @pytest.mark.parametrize(
        "call",
        [lambda grid: lemma56_check(SPEC, grid, 577), lambda grid: coverage_experiment(SPEC, grid, 10, 3)],
        ids=["lemma56_check", "coverage_experiment"],
    )
    @pytest.mark.parametrize("grid", [0.5, None, np.array(0.5)], ids=repr)
    def test_a_grid_that_is_not_iterable_names_the_mu_grid(self, call, grid):
        with pytest.raises(DomainError, match="^mu grid must be an iterable of numbers, got "):
            call(grid)


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

    def test_an_undersized_plan_fails_at_every_mean(self, monkeypatch):
        # 40 draws where the spec plans 577: the error criterion fails far more often than delta
        plan = verification.minimum_sample_size(SPEC)
        monkeypatch.setattr(verification, "minimum_sample_size", lambda spec: dataclasses.replace(plan, n=40))
        report = coverage_experiment(SPEC, [0.05, 0.1, 0.25, 0.5], trials=2000, seed=5)
        assert [point for point, _ in report.violations] == [(0.05,), (0.1,), (0.25,), (0.5,)]
        values = report.violations[0][1]
        assert values["threshold"] == 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / 2000)
        assert values["failure_rate"] > 4 * values["threshold"]
        assert not report.passed
        assert report.to_text().startswith("[coverage] FAIL (4 violations)")

    def test_deterministic(self):
        a = coverage_experiment(SPEC, [0.25, 0.5], trials=200, seed=37)
        b = coverage_experiment(SPEC, [0.25, 0.5], trials=200, seed=37)
        assert a == b

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_the_report_does_not_depend_on_the_helper_count(self, monkeypatch, chunk):
        # 40 draws where the spec plans 577: every mean fails, so the report holds each one's failure rate
        plan = verification.minimum_sample_size(SPEC)
        monkeypatch.setattr(verification, "minimum_sample_size", lambda spec: dataclasses.replace(plan, n=40))
        monkeypatch.setattr(estimator, "_DRAW_CHUNK", chunk)
        reports, interval = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads switch often, so a mean counted twice or lost would show
        try:
            for helpers in range(4):
                monkeypatch.setattr(verification, "_helpers", lambda: helpers)
                reports.append(coverage_experiment(SPEC, COVERAGE_MUS, trials=200, seed=5).to_dict())
        finally:
            sys.setswitchinterval(interval)
        assert len(reports[0]["violations"]) == len(COVERAGE_MUS)
        assert all(report == reports[0] for report in reports)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
    def test_one_usable_cpu_starts_no_thread_and_prints_the_same_bytes(self):
        import probcert

        script = ("import sys, threading; from probcert import cli; code = cli.main(sys.argv[1:]); "
                  "print(threading.active_count(), file=sys.stderr); sys.exit(code)")
        env = {**os.environ, "PYTHONPATH": str(os.path.dirname(os.path.dirname(probcert.__file__)))}

        def run(preexec_fn=None):
            done = subprocess.run([sys.executable, "-c", script, "verify", "--suite", "coverage", "--json"],
                                  env=env, capture_output=True, timeout=120, preexec_fn=preexec_fn)
            assert done.returncode == 0, done.stderr
            return done.stdout, int(done.stderr)

        def pin():  # runs in the child only, between its fork and exec
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

        (unpinned, _), (pinned, threads) = run(), run(pin)
        assert pinned == unpinned
        assert threads == 1

    def test_a_forked_child_counts_on_helpers_of_its_own(self, monkeypatch):
        # the parent's pool has a helper thread, which a fork does not copy: the child must make its own
        monkeypatch.setattr(verification, "_helpers", lambda: 1)
        expected = coverage_in_a_child()
        with multiprocessing.get_context("fork").Pool(1) as child:
            assert child.apply_async(coverage_in_a_child).get(timeout=60) == expected


COVERAGE_MUS = (0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4)  # as many means as the CLI checks; 40 draws fail at each


def coverage_in_a_child() -> ScanReport:
    return coverage_experiment(SPEC, COVERAGE_MUS, trials=200, seed=11)


class TestDominationExperiment:
    def test_quadratic_well_passes(self):
        report = domination_experiment("quadratic_well", SPEC, points=20, seed=41)
        assert report.lemma_id == "domination"
        assert report.passed, report.to_text()

    def test_affine_and_uniform_models(self):
        for model_id in ("affine", "uniform_gap"):
            report = domination_experiment(model_id, SPEC, points=10, seed=43)
            assert report.passed, report.to_text()

    def test_a_moment_below_the_failure_rate_fails_at_every_point(self, monkeypatch):
        # a surrogate of exp(-1000) cannot bound a failure rate estimated above its slack
        monkeypatch.setattr(verification, "_log_moment", lambda ys, lam: -1000.0)
        report = domination_experiment("quadratic_well", SPEC, points=25, seed=5)
        assert len(report.violations) == 25
        assert all(values["moment"] < values["p_hat"] - values["slack"] for _, values in report.violations)
        assert not report.passed
        lines = report.to_text().splitlines()
        assert lines[0].startswith("[domination] FAIL (25 violations)")
        assert len(lines) == 22 and lines[-1] == "    ... and 5 more"

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

    def test_fresh_rows_are_drawn_in_certification_blocks(self, monkeypatch):
        # the frozen scenarios in one request, then each point's planned
        # certification rows in blocks of 16,384 and the rest
        requests = []
        draw = chernoff_opt.ScenarioSource.draw

        def recording(self, k):
            requests.append(k)
            return draw(self, k)

        monkeypatch.setattr(chernoff_opt.ScenarioSource, "draw", recording)
        report = domination_experiment("quadratic_well", SPEC_LARGE, points=2, seed=47)
        assert report.passed, report.to_text()
        assert requests == [39_064, 16_384, 16_384, 6_296, 16_384, 16_384, 6_296]

    @pytest.mark.parametrize("spec", [SPEC, SPEC_LARGE], ids=["n577", "n39064"])
    def test_p_hat_is_the_certified_failure_rate(self, monkeypatch, spec):
        # points certify on one fresh source in turn, so a second source from
        # the same seed, certified point by point, gives each p_hat bit for bit
        monkeypatch.setattr(verification, "_log_moment", lambda ys, lam: -1000.0)
        report = domination_experiment("quadratic_well", spec, points=5, seed=11)
        model = make_model("quadratic_well")
        other = chernoff_opt.ScenarioSource.from_model(model, 11)
        assert len(report.violations) == 5
        for (_, theta), values in report.violations:
            assert values["p_hat"] == chernoff_opt.certify_probability(model, theta, spec, other).mu_hat

    @pytest.mark.parametrize("chunk", [7, 16_384])
    def test_a_kernel_below_the_indicator_names_the_first_scenario_with_y_nonpositive(self, monkeypatch, chunk):
        # an exp that returns its argument negated, lambda Y, is below the
        # indicator 1 at every Y <= 0: the first such row in scenario order is
        # reported with the kernel value the check saw, and no moment is taken,
        # whichever block of the check holds that row
        moments = []
        monkeypatch.setattr(verification, "_DRAW_CHUNK", chunk)
        monkeypatch.setattr(np, "exp", lambda x, out=None: np.negative(x, out=out))
        monkeypatch.setattr(verification, "_log_moment", lambda ys, lam: moments.append(lam))
        report = domination_experiment("quadratic_well", SPEC, points=3, seed=47)
        monkeypatch.undo()
        model = make_model("quadratic_well")
        scenarios = ScenarioSet.from_model(model, 577, 47).scenarios
        assert len(report.violations) == 3 and moments == []
        for (lam, theta), values in report.violations:
            ys = model.evaluate(np.array(theta), scenarios)
            bad = int(np.flatnonzero(ys <= 0.0)[0])
            assert values == {"kernel": float(lam * ys[bad]), "scenario": bad}
            assert values["kernel"] <= 0.0

    def test_a_plan_sized_run_holds_the_rows_their_y_and_one_work_array(self):
        # n = 282,977: beside the frozen rows, one point's Y and the work
        # arrays of one block of it at a time; a point's Y goes with its scope,
        # so the next point's model call forms its Y beside the frozen rows
        # alone.  The peak, about 2.2 * 8n bytes, is the rows, a Y and the
        # moment's work arrays for one block
        spec = validate_spec(2e-3, 0.05, 1e-6)
        n = minimum_sample_size(spec).n
        domination_experiment("quadratic_well", SPEC, points=1, seed=11)  # imports made on first use are not counted
        report, peak = peak_bytes(lambda: domination_experiment("quadratic_well", spec, 3, 11))
        assert (n, report.passed) == (282_977, True)
        assert peak <= 2.5 * 8 * n, peak / (8 * n)

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

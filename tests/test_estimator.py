"""Tests for sample sources, compensated means, and certificates."""

import json
import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from probcert import (
    BernoulliSource,
    chernoff_opt,
    DomainError,
    InvalidSpecError,
    SampleSource,
    SampleValueError,
    ScenarioSet,
    ScenarioSource,
    SourceExhaustedError,
    certify_probability,
    estimate_from_batch,
    estimate_with_plan,
    estimator,
    hoeffding_exponent,
    make_model,
    minimum_sample_size,
    stable_mean,
    validate_spec,
    verification,
)
from support import ConstantSource, SequenceSource

# 50-digit oracle for the mean of 500000 copies each of float(1e-8) and 1.0
ALT_MEAN_ORACLE = 0.500000005000000000000000104613
ACH_577 = 0.0497625041681963602055784651914

SPEC = validate_spec(0.05, 0.2, 0.05)
SPEC_1755 = validate_spec(0.02, 0.2, 0.05)  # n = 1755: 577-draw chunks leave a remainder
CHUNKS = (1, 7, 577, 16_384, 65_536)

# finite doubles whose error-free extraction cannot overflow
EXTRACTABLE = st.floats(
    min_value=-(2.0**900), max_value=2.0**900, allow_nan=False, allow_infinity=False
)
SPECIAL = st.sampled_from(
    [math.nan, math.inf, -math.inf, 1.7e308, -1.7e308, 1.5 * 2.0**900, 5e-324]
)
EXACTNESS = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def fsum_outcome(mean, values):
    """The bits of a mean, "nan" for any NaN, or the type of the exception."""
    try:
        x = mean(values)
    except (OverflowError, ValueError) as exc:
        return type(exc)
    return "nan" if math.isnan(x) else struct.pack("<d", x)


def fsum_mean(values):
    return math.fsum(values) / len(values)


@st.composite
def spread_arrays(draw):
    """1 to 3,000 doubles with mixed signs and binary exponents anywhere
    between those of 1e-300 and 1e300, optionally with exact cancellation
    and subnormals mixed in."""
    m = draw(st.integers(1, 3000))
    lo = draw(st.integers(-997, 996))
    hi = draw(st.integers(lo, 996))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.ldexp(rng.random(m) + 0.5, rng.integers(lo, hi + 1, m))
    values *= rng.choice([-1.0, 1.0], m)
    if draw(st.booleans()):
        values = np.concatenate([values, -values[: m // 2]])
        rng.shuffle(values)
    if draw(st.booleans()):
        values[rng.integers(0, values.size, 3)] = 5e-324 * rng.integers(1, 2**20, 3)
    return values.tolist()


class TestStableMean:
    def test_constant_tenth(self):
        assert stable_mean([0.1] * 10) == pytest.approx(0.1, abs=1e-15)

    def test_zero_one_exact(self):
        assert stable_mean([0.0, 1.0]) == 0.5

    def test_alternating_against_high_precision_oracle(self):
        values = [1e-8, 1.0] * 500_000
        assert stable_mean(values) == pytest.approx(ALT_MEAN_ORACLE, rel=1e-12)

    def test_empty_error(self):
        with pytest.raises(DomainError):
            stable_mean([])

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=200))
    @settings(max_examples=200)
    def test_matches_exact_rational_mean(self, values):
        exact = Fraction(0)
        for v in values:
            exact += Fraction(v)
        exact = float(exact / len(values))
        assert stable_mean(values) == pytest.approx(exact, abs=1e-15)

    @given(st.lists(EXTRACTABLE, min_size=1, max_size=3000))
    @EXACTNESS
    def test_bit_identical_to_fsum(self, values):
        assert fsum_outcome(stable_mean, values) == fsum_outcome(fsum_mean, values)

    @given(spread_arrays())
    @EXACTNESS
    def test_bit_identical_to_fsum_across_exponents(self, values):
        assert fsum_outcome(stable_mean, values) == fsum_outcome(fsum_mean, values)

    @given(st.lists(st.one_of(EXTRACTABLE, SPECIAL), min_size=1, max_size=50))
    @EXACTNESS
    def test_nan_inf_and_overflow_match_fsum(self, values):
        assert fsum_outcome(stable_mean, values) == fsum_outcome(fsum_mean, values)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_chunked_input_matches_fsum_and_is_left_unchanged(self, monkeypatch, chunk):
        monkeypatch.setattr(estimator, "_DRAW_CHUNK", chunk)
        values = np.random.default_rng(21).random(2000) - 0.25
        before = values.copy()
        assert fsum_outcome(stable_mean, values) == fsum_outcome(fsum_mean, values.tolist())
        np.testing.assert_array_equal(values, before)
        # a value the extraction cannot take, late in the input, falls back to fsum
        for special in (math.nan, math.inf, 1.5 * 2.0**950):
            values[1500] = special
            assert fsum_outcome(stable_mean, values) == fsum_outcome(fsum_mean, values.tolist())


class TestSampleSources:
    def test_same_seed_same_sequence(self):
        a = BernoulliSource(0.5, seed=11)
        b = BernoulliSource(0.5, seed=11)
        np.testing.assert_array_equal(a.draw(100), b.draw(100))

    def test_next_and_draw_share_the_stream(self):
        a = BernoulliSource(0.4, seed=5)
        b = BernoulliSource(0.4, seed=5)
        first = [a.draw(1)[0] for _ in range(16)]
        np.testing.assert_array_equal(first, b.draw(16))

    def test_draws_made_counter(self):
        src = BernoulliSource(0.5, seed=0)
        src.draw(7)
        src.draw(1)
        assert src.draws_made == 8

    def test_bernoulli_values_binary(self):
        values = BernoulliSource(0.3, seed=2).draw(500)
        assert set(np.unique(values)) <= {0.0, 1.0}

    def test_out_of_range_rejected_with_index(self):
        src = ConstantSource(1.2)
        src.draw(0)
        with pytest.raises(SampleValueError) as exc_info:
            src.draw(3)
        assert exc_info.value.index == 0
        assert exc_info.value.value == 1.2

    def test_nan_rejected_with_index(self):
        with pytest.raises(SampleValueError) as exc_info:
            SequenceSource([0.2, math.nan, 0.3]).draw(3)
        assert exc_info.value.index == 1
        assert math.isnan(exc_info.value.value)

    def test_sequence_source_keeps_its_values_after_an_estimate(self):
        values = np.random.default_rng(6).random(577)
        source = SequenceSource(values)
        estimate_with_plan(source, SPEC)
        source.draw(0)
        np.testing.assert_array_equal(source._values, values)

    def test_sequence_source_exhaustion(self):
        src = SequenceSource([0.1, 0.2, 0.3])
        src.draw(2)
        with pytest.raises(SourceExhaustedError):
            src.draw(2)

    def test_bad_p(self):
        with pytest.raises(DomainError):
            BernoulliSource(1.5)
        # float(True) is 1.0 and "0.3" < 1.0 is a TypeError: neither is a probability
        for p in (True, False, np.bool_(True), "0.3", None, math.nan, -1):
            with pytest.raises(DomainError, match="p must be a number"):
                BernoulliSource(p)

    def test_bad_draw_count(self):
        source = BernoulliSource(0.3, seed=2)
        for k in (-1, True, False, 2.5, "3", None, math.nan):
            with pytest.raises(DomainError, match="draw count"):
                source.draw(k)
        assert source.draws_made == 0
        assert source.draw(0).shape == (0,)
        assert source.draw(np.int64(3)).shape == (3,)


class TestEstimateWithPlan:
    def test_constant_source(self):
        cert = estimate_with_plan(ConstantSource(0.7), SPEC)
        assert cert.mu_hat == 0.7
        assert cert.n == 577
        assert cert.kind == "planned"
        assert cert.delta_achieved == pytest.approx(ACH_577, rel=1e-12)
        assert cert.delta_achieved < SPEC.delta
        assert not cert.no_guarantee

    def test_deterministic_across_runs(self):
        c1 = estimate_with_plan(BernoulliSource(0.5, seed=99), SPEC)
        c2 = estimate_with_plan(BernoulliSource(0.5, seed=99), SPEC)
        assert c1 == c2

    def test_consumes_exactly_n(self):
        src = BernoulliSource(0.5, seed=1)
        estimate_with_plan(src, SPEC)
        assert src.draws_made == 577

    def test_exhaustion_propagates(self):
        with pytest.raises(SourceExhaustedError):
            estimate_with_plan(SequenceSource([0.5] * 100), SPEC)

    def test_out_of_range_aborts(self):
        with pytest.raises(SampleValueError):
            estimate_with_plan(ConstantSource(-0.1), SPEC)

    def test_boundary_mean_notes_open_interval(self):
        cert = estimate_with_plan(ConstantSource(0.0), SPEC)
        assert cert.mu_hat == 0.0
        assert cert.note != ""


class UniformSource(SampleSource):
    """Uniform(0, 1) draws: full mantissas, so summing takes several passes."""

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self._rng = np.random.default_rng(seed)

    def _generate(self, k: int) -> np.ndarray:
        return self._rng.random(k)


class RecordingSource(BernoulliSource):
    """A Bernoulli source that records the size of every request."""

    def __init__(self, p: float, seed: int = 0):
        super().__init__(p, seed)
        self.requests = []

    def _generate(self, k: int) -> np.ndarray:
        self.requests.append(k)
        return super()._generate(k)


class TestChunkedDraws:
    """The draw chunk size is invisible in every certificate."""

    def across_chunks(self, monkeypatch, run):
        results = []
        for chunk in CHUNKS:
            monkeypatch.setattr(estimator, "_DRAW_CHUNK", chunk)
            results.append(run())
        return results

    @pytest.mark.parametrize(
        "make_source",
        [lambda: BernoulliSource(0.3, seed=4), lambda: UniformSource(seed=5)],
        ids=["bernoulli", "uniform"],
    )
    def test_estimate_with_plan_is_chunk_invariant(self, monkeypatch, make_source):
        def run():
            source = make_source()
            return estimate_with_plan(source, SPEC_1755), source.draws_made

        results = self.across_chunks(monkeypatch, run)
        assert results[0][1] == 1755
        assert all(result == results[0] for result in results)

    def test_certify_probability_is_chunk_invariant(self, monkeypatch):
        model = make_model("quadratic_well")

        def run():
            source = ScenarioSource.from_model(model, 44)
            return certify_probability(model, [0.3], SPEC_1755, source), source.draws_made

        results = self.across_chunks(monkeypatch, run)
        assert results[0][1] == 1755
        assert all(result == results[0] for result in results)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_late_out_of_range_value_keeps_its_global_index(self, monkeypatch, chunk):
        monkeypatch.setattr(estimator, "_DRAW_CHUNK", chunk)
        source = SequenceSource([0.5] * 1000 + [1.5] + [0.5] * 800)
        with pytest.raises(SampleValueError) as exc_info:
            estimate_with_plan(source, SPEC_1755)
        assert exc_info.value.index == 1000
        assert exc_info.value.value == 1.5

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_short_sequence_still_exhausts(self, monkeypatch, chunk):
        monkeypatch.setattr(estimator, "_DRAW_CHUNK", chunk)
        with pytest.raises(SourceExhaustedError):
            estimate_with_plan(SequenceSource([0.5] * 100), SPEC)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_no_request_exceeds_the_chunk(self, monkeypatch, chunk):
        monkeypatch.setattr(estimator, "_DRAW_CHUNK", chunk)
        source = RecordingSource(0.3, seed=4)
        estimate_with_plan(source, SPEC_1755)
        assert max(source.requests) <= chunk
        assert sum(source.requests) == 1755


class TestBatchedTrials:
    """Trials drawn in blocks equal sequential planned estimates, bit for bit."""

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("spec", [SPEC, SPEC_1755], ids=["n577", "n1755"])
    def test_trial_means_match_sequential_estimates(self, monkeypatch, chunk, spec):
        monkeypatch.setattr(estimator, "_DRAW_CHUNK", chunk)
        n, trials = minimum_sample_size(spec).n, 12
        batched = BernoulliSource(0.3, seed=8)
        sequential = BernoulliSource(0.3, seed=8)
        means = [total / n for total in estimator._row_sums(batched.draw, trials, n)]
        expected = [estimate_with_plan(sequential, spec).mu_hat for _ in range(trials)]
        assert means == expected
        assert batched.draws_made == sequential.draws_made == trials * n

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_rows_of_different_scales_sum_exactly(self, monkeypatch, chunk):
        # the block's largest row sets sigma; a row 2^-900 smaller still sums exactly
        monkeypatch.setattr(estimator, "_DRAW_CHUNK", chunk)
        rng = np.random.default_rng(9)
        rows = rng.random((9, 700)) * np.ldexp(1.0, -rng.integers(0, 900, (9, 1)))
        stream = rows.ravel()
        taken = 0

        def take(k):
            nonlocal taken
            taken += k
            return stream[taken - k : taken].copy()

        assert estimator._row_sums(take, 9, 700) == [math.fsum(row) for row in rows]
        assert taken == stream.size

    def test_coverage_draws_trials_times_n_from_each_source(self, monkeypatch):
        sources = []

        class Recorded(BernoulliSource):
            def __init__(self, p, seed=0):
                super().__init__(p, seed)
                sources.append(self)

        monkeypatch.setattr(verification, "BernoulliSource", Recorded)
        verification.coverage_experiment(SPEC_1755, [0.2, 0.6], trials=30, seed=5)
        assert [(s.seed, s.draws_made) for s in sources] == [(5, 30 * 1755)] * 2
        # mean i draws from coverage child i of the seed
        children = [s._rng.bit_generator.seed_seq for s in sources]
        assert [(c.entropy, c.spawn_key) for c in children] == [
            (5, (estimator._COVERAGE, 0)),
            (5, (estimator._COVERAGE, 1)),
        ]


class FloatBernoulliSource(BernoulliSource):
    """The same draws as 0.0/1.0 floats, which the extraction kernel sums."""

    def _generate(self, k: int) -> np.ndarray:
        return super()._generate(k).astype(float)


class FloatIndicatorSource(chernoff_opt._IndicatorSource):
    """The same failure indicators as 0.0/1.0 floats."""

    def _generate(self, k: int) -> np.ndarray:
        return super()._generate(k).astype(float)


SPEC_LARGE = validate_spec(0.001, 0.2, 0.05)  # n = 39,064: three default chunks


def specs_for(chunk):
    """SPEC and SPEC_1755, and SPEC_LARGE where it takes at most ~100 requests."""
    return (SPEC, SPEC_1755) + ((SPEC_LARGE,) if chunk >= 577 else ())


class TestCountedDraws:
    """Boolean blocks are counted, with the certificates of the same 0/1
    values summed as floats, whatever the chunk size."""

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_bernoulli_matches_float_twin(self, monkeypatch, chunk):
        monkeypatch.setattr(estimator, "_DRAW_CHUNK", chunk)
        for p in (0.0, 0.3, 1.0):
            for spec in specs_for(chunk):
                counted, twin = BernoulliSource(p, seed=4), FloatBernoulliSource(p, seed=4)
                assert estimate_with_plan(counted, spec) == estimate_with_plan(twin, spec)
                assert counted.draws_made == twin.draws_made == minimum_sample_size(spec).n

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_row_sums_of_many_rows_match_float_twin(self, monkeypatch, chunk):
        monkeypatch.setattr(estimator, "_DRAW_CHUNK", chunk)
        counted, twin = BernoulliSource(0.3, seed=8), FloatBernoulliSource(0.3, seed=8)
        sums = estimator._row_sums(counted.draw, 40, 577)
        assert sums == estimator._row_sums(twin.draw, 40, 577)
        assert all(isinstance(total, float) for total in sums)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_certify_probability_matches_float_twin(self, monkeypatch, chunk):
        monkeypatch.setattr(estimator, "_DRAW_CHUNK", chunk)
        model = make_model("quadratic_well")
        theta = np.array([0.3])
        for spec in specs_for(chunk):
            counted = certify_probability(model, theta, spec, ScenarioSource.from_model(model, 44))
            twin = FloatIndicatorSource(model, theta, ScenarioSource.from_model(model, 44))
            assert counted == estimate_with_plan(twin, spec)

    def test_short_boolean_block_exhausts(self):
        class Short(SampleSource):
            def _generate(self, k):
                return np.ones(k - 1, dtype=bool)

        with pytest.raises(SourceExhaustedError):
            Short().draw(5)
        with pytest.raises(SourceExhaustedError):
            estimate_with_plan(Short(), SPEC)

    def test_integer_block_is_summed_as_float(self):
        class Integers(SampleSource):
            def __init__(self, values):
                super().__init__()
                self._values = np.asarray(values)

            def _generate(self, k):
                out, self._values = self._values[:k].copy(), self._values[k:]
                return out

        values = np.random.default_rng(3).integers(0, 2, 1755)
        assert Integers(values).draw(10).dtype == np.float64
        cert = estimate_with_plan(Integers(values), SPEC_1755)
        assert cert.mu_hat == math.fsum(values.tolist()) / 1755
        with pytest.raises(SampleValueError) as exc_info:
            Integers([0, 2, 1]).draw(3)
        assert exc_info.value.index == 1


ROLES = (
    estimator._SCENARIOS,
    estimator._CERTIFICATION,
    estimator._BERNOULLI,
    estimator._COVERAGE,
    estimator._POINTS,
)


class TestStreams:
    """Every random stream is a named child of its seed, shared with no other."""

    def test_no_two_seeds_or_roles_share_a_stream(self):
        # seeds 0..63, every role, and the seven coverage means of the CLI grid
        keys = [
            (seed, role, index)
            for seed in range(64)
            for role in ROLES
            for index in (range(7) if role == estimator._COVERAGE else (0,))
        ]
        raw = [estimator._stream(*key).bit_generator.random_raw(8) for key in keys]
        assert len({int(x) for head in raw for x in head}) == 8 * len(keys)

    def test_scenarios_of_one_seed_are_not_certification_draws_of_another(self):
        # under seed + 1 offsets, seed s certified on the scenarios of seed s + 1
        model = make_model("quadratic_well")
        for seed in range(64):
            frozen = ScenarioSet.from_model(model, 5, seed + 1).scenarios
            fresh = ScenarioSource.from_model(model, seed).draw(5)
            assert not np.any(frozen == fresh)

    def test_bernoulli_source_draws_from_its_role(self):
        child = BernoulliSource(0.3, seed=4)._rng.bit_generator.seed_seq
        assert (child.entropy, child.spawn_key) == (4, (estimator._BERNOULLI, 0))

    @pytest.mark.parametrize("seed", [-1, True, False, 2.5, "3", None, np.int64(-2), math.nan])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(DomainError, match="seed"):
            estimator._stream(seed, estimator._BERNOULLI)
        with pytest.raises(DomainError, match="seed"):
            BernoulliSource(0.3, seed=seed)

    def test_numpy_and_large_integer_seeds_accepted(self):
        a = estimator._stream(np.int64(7), estimator._POINTS).random(3)
        np.testing.assert_array_equal(a, estimator._stream(7, estimator._POINTS).random(3))
        estimator._stream(2**100, estimator._POINTS)


class TestEstimateFromBatch:
    def test_small_batch_no_guarantee(self):
        cert = estimate_from_batch([0, 1, 1, 0, 1], 0.02, 0.2)
        assert cert.mu_hat == 0.6
        assert cert.n == 5
        assert cert.kind == "post_hoc"
        assert cert.delta_achieved == 1.0
        assert cert.no_guarantee
        # the uncapped risk really is above 1
        assert 2.0 * math.exp(5 * hoeffding_exponent(0.02, 0.1)) > 1.0

    def test_planned_size_batch_matches_plan_confidence(self):
        cert = estimate_from_batch([0.5] * 577, 0.05, 0.2)
        assert cert.delta_achieved == pytest.approx(ACH_577, rel=1e-12)
        assert not cert.no_guarantee

    def test_out_of_range_reports_index(self):
        with pytest.raises(SampleValueError) as exc_info:
            estimate_from_batch([0.5, 0.5, 1.2, 0.5], 0.05, 0.2)
        assert exc_info.value.index == 2
        with pytest.raises(SampleValueError) as exc_info:
            estimate_from_batch(np.array([0.5, 0.25, math.nan, 2.0]), 0.05, 0.2)
        assert exc_info.value.index == 2 and math.isnan(exc_info.value.value)

    def test_ndarray_batch_matches_list(self):
        values = np.random.default_rng(17).random(3001)
        assert estimate_from_batch(values, 0.02, 0.2) == estimate_from_batch(
            values.tolist(), 0.02, 0.2
        )

    def test_empty_batch(self):
        with pytest.raises(DomainError):
            estimate_from_batch([], 0.05, 0.2)

    def test_invalid_tolerance_pair(self):
        with pytest.raises(InvalidSpecError):
            estimate_from_batch([0.5] * 10, 0.3, 0.5)

    def test_boundary_batches_still_certified(self):
        for value in (0.0, 1.0):
            cert = estimate_from_batch([value] * 700, 0.05, 0.2)
            assert cert.mu_hat == value
            assert cert.note != ""
            assert cert.delta_achieved < 1.0


class TestStatisticalCoverage:
    def test_bernoulli_coverage_within_three_sigma(self):
        # 2000 planned estimates on Bernoulli(0.3): the mixed-criterion event
        # must fail at a rate within three binomial standard errors of delta
        from probcert import coverage_experiment

        report = coverage_experiment(SPEC, [0.3], trials=2000, seed=811)
        assert report.passed, report.to_text()


class TestCertificateConsistency:
    def test_delta_equals_confidence_formula(self):
        # delta_achieved = min(2 exp(n g(eps_a, eps_a/eps_r)), 1) for every certificate
        certificates = [
            estimate_with_plan(BernoulliSource(0.3, seed=4), SPEC),
            estimate_from_batch([0.5] * 200, 0.05, 0.2),
            estimate_from_batch([0.2] * 20, 0.02, 0.2),
        ]
        for cert in certificates:
            raw = 2.0 * math.exp(
                cert.n * hoeffding_exponent(cert.eps_a, cert.eps_a / cert.eps_r)
            )
            assert cert.delta_achieved == pytest.approx(min(raw, 1.0), rel=1e-12)

    def test_round_trip(self):
        cert = estimate_with_plan(BernoulliSource(0.3, seed=4), SPEC)
        from probcert import Certificate

        assert Certificate(**json.loads(json.dumps(cert.to_dict()))) == cert

    def test_mixed_criterion_disjuncts(self):
        # both disjuncts evaluated independently: relative-only pass at large mu
        mu, mu_hat = 0.8, 0.72
        assert not abs(mu_hat - mu) < 0.05
        assert abs(mu_hat - mu) < 0.2 * mu
        # absolute-only pass at small mu
        mu, mu_hat = 0.05, 0.09
        assert abs(mu_hat - mu) < 0.05
        assert not abs(mu_hat - mu) < 0.2 * mu

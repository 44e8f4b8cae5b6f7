"""Tests for sample sources, exact means, and certificates."""

import json
import math
import re
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from probcert import (
    BernoulliSource,
    Certificate,
    DomainError,
    InvalidSpecError,
    SampleSource,
    SampleValueError,
    ScenarioSet,
    ScenarioSource,
    SourceExhaustedError,
    achieved_confidence,
    certify_probability,
    estimate_from_batch,
    estimate_with_plan,
    estimator,
    hoeffding_exponent,
    make_model,
    minimum_sample_size,
    validate_spec,
    verification,
)
from support import CHUNKS, ConstantSource, SequenceSource, peak_bytes

# 50-digit oracle for the mean of 500000 copies each of float(1e-8) and 1.0
ALT_MEAN_ORACLE = 0.500000005000000000000000104613
ACH_577 = 0.0497625041681963602055784651914

SPEC = validate_spec(0.05, 0.2, 0.05)
SPEC_1755 = validate_spec(0.02, 0.2, 0.05)  # n = 1755: 577-draw chunks leave a remainder
SPEC_LARGE = validate_spec(0.001, 0.2, 0.05)  # n = 39,064: three default chunks

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


def bits(x):
    """The bits of a float, so that -0.0 and 0.0 differ."""
    return struct.pack("<d", x)


@st.composite
def spread_arrays(draw):
    """1 to 3,000 doubles with mixed signs and binary exponents anywhere
    between those of 1e-300 and 2^899, inside the extraction's range, optionally
    with exact cancellation and subnormals mixed in."""
    m = draw(st.integers(1, 3000))
    lo = draw(st.integers(-997, 899))
    hi = draw(st.integers(lo, 899))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.ldexp(rng.random(m) + 0.5, rng.integers(lo, hi + 1, m))
    values *= rng.choice([-1.0, 1.0], m)
    if draw(st.booleans()):
        values = np.concatenate([values, -values[: m // 2]])
        rng.shuffle(values)
    if draw(st.booleans()):
        values[rng.integers(0, values.size, 3)] = 5e-324 * rng.integers(1, 2**20, 3)
    return values.tolist()


class TestBatchMean:
    """The mean of a [0, 1] batch, reduced in blocks as a planned estimate is."""

    @staticmethod
    def mean(values):
        return estimate_from_batch(values, 0.05, 0.2).mu_hat

    def test_constant_tenth(self):
        assert self.mean([0.1] * 10) == pytest.approx(0.1, abs=1e-15)

    def test_zero_one_exact(self):
        assert self.mean([0.0, 1.0]) == 0.5

    def test_alternating_against_high_precision_oracle(self):
        values = [1e-8, 1.0] * 500_000
        assert self.mean(values) == pytest.approx(ALT_MEAN_ORACLE, rel=1e-12)

    def test_empty_error(self):
        with pytest.raises(DomainError):
            self.mean([])

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=200))
    @settings(max_examples=200)
    def test_matches_exact_rational_mean(self, values):
        exact = Fraction(0)
        for v in values:
            exact += Fraction(v)
        exact = float(exact / len(values))
        assert self.mean(values) == pytest.approx(exact, abs=1e-15)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_chunked_batch_matches_fsum_and_is_left_unchanged(self, monkeypatch, chunk):
        monkeypatch.setattr(estimator, "_DRAW_CHUNK", chunk)
        # the second 1,000 values 2^-900 below the first
        values = np.ldexp(np.random.default_rng(21).random(2000), -900 * (np.arange(2000) // 1000))
        before = values.copy()
        assert self.mean(values) == math.fsum(before.tolist()) / values.size
        np.testing.assert_array_equal(values, before)

    @pytest.mark.parametrize("shape", [(5 * 16_384,), (5, 16_384)], ids=["flat", "rows"])
    def test_first_bad_value_in_the_third_block_is_reported_at_its_index(self, shape):
        # the blocks before it are reduced, then its block's check names it by its flat index
        values = np.full(5 * 16_384, 0.5)
        values[2 * 16_384 + 5], values[4 * 16_384] = 1.5, math.nan
        with pytest.raises(SampleValueError) as info:
            estimate_from_batch(values.reshape(shape), 0.05, 0.2)
        assert (info.value.index, info.value.value) == (2 * 16_384 + 5, 1.5)

    def test_boolean_batch_is_counted_below_one_mib(self):
        # no float copy of a million flags (7.6 MiB): each block is counted
        flags = np.random.default_rng(9).random(1_000_000) < 0.3
        cert, peak = peak_bytes(lambda: estimate_from_batch(flags, 0.05, 0.2))
        assert cert.mu_hat == np.count_nonzero(flags) / flags.size
        assert peak < 2**20

    def test_float_batch_of_a_million_values_peaks_below_one_mib(self):
        # the batch is only read: one block's two extraction temporaries (256 KiB) are all that is allocated
        values = np.random.default_rng(6).random(1_000_000)
        cert, peak = peak_bytes(lambda: estimate_from_batch(values, 0.05, 0.2))
        assert cert.mu_hat == math.fsum(values.tolist()) / values.size
        assert peak < 2**20

    def test_integer_batch_is_converted_a_block_at_a_time(self):
        # a float64 copy of the whole batch took 7.6 MiB; one block's copy takes 128 KiB
        values = np.random.default_rng(8).integers(0, 2, 1_000_000, dtype=np.uint8)
        cert, peak = peak_bytes(lambda: estimate_from_batch(values, 0.05, 0.2))
        assert bits(cert.mu_hat) == bits(estimate_from_batch(values.astype(float), 0.05, 0.2).mu_hat)
        assert peak <= 2**19


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

    def test_base_source_has_no_stream(self):
        with pytest.raises(NotImplementedError):
            SampleSource().draw(1)
        with pytest.raises(NotImplementedError):
            estimate_with_plan(SampleSource(), SPEC)

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

    @pytest.mark.parametrize(
        "make_block, shape",
        [(lambda k: np.full((k, 1), 0.5), "(577, 1)"), (lambda k: np.full(k + 3, 0.5), "(580,)"),
         (lambda k: np.float64(0.5), "()")],
        ids=["column", "long", "scalar"],
    )
    def test_wrong_shaped_block_is_a_domain_error(self, make_block, shape):
        class Misshapen(SampleSource):
            def _generate(self, k):
                return make_block(k)

        source = Misshapen()
        with pytest.raises(DomainError, match=rf"source returned shape {re.escape(shape)}, expected \(577,\)"):
            source.draw(577)
        assert source.draws_made == 0

    def test_ragged_block_rejected(self):
        # numpy's bare ValueError ("inhomogeneous shape") escaped before
        class Ragged(SampleSource):
            def _generate(self, k):
                return [[0.5]] * (k - 1) + [[0.5, 0.5]]

        message = "source values must be numbers or booleans, got a ragged sequence"
        with pytest.raises(DomainError, match=re.escape(message)):
            Ragged().draw(3)
        with pytest.raises(DomainError, match=re.escape(message)):
            estimate_with_plan(Ragged(), SPEC)

    def test_short_block_is_exhaustion(self):
        class Short(SampleSource):
            def _generate(self, k):
                return np.full(k - 3, 0.5)

        with pytest.raises(SourceExhaustedError, match="source produced 574 of 577 requested values"):
            Short().draw(577)

    @pytest.mark.parametrize(
        "value, dtype", [("0.5", "<U3"), (b"1", "|S1"), (None, "object"), (0.5 + 0j, "complex128")],
        ids=["numeric_string", "bytes", "none", "complex"],
    )
    def test_block_of_values_that_are_not_numbers_rejected(self, value, dtype):
        # a string block was parsed as floats, a None one read as NaN
        class Words(SampleSource):
            def _generate(self, k):
                return [value] * k

        source = Words()
        message = f"source values must be numbers or booleans, got dtype {dtype}"
        with pytest.raises(DomainError, match=re.escape(message)):
            source.draw(3)
        assert source.draws_made == 0
        with pytest.raises(DomainError, match=re.escape(message)):
            estimate_with_plan(Words(), SPEC)


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

    @pytest.mark.parametrize("bad", [2.0, math.nan], ids=["two", "nan"])
    def test_a_draw_override_cannot_certify_values_outside_the_unit_interval(self, bad):
        class Unchecked(SampleSource):
            def draw(self, k):  # skips draw's own check
                return np.full(k, bad)

        with pytest.raises(SampleValueError) as exc_info:
            estimate_with_plan(Unchecked(), SPEC)
        assert exc_info.value.index == 0

    @pytest.mark.parametrize(
        "make_block, error, message",
        [(lambda k: np.full(k - 1, 0.5), SourceExhaustedError, "source produced 576 of 577 requested values"),
         (lambda k: np.full((k, 1), 0.5), DomainError, r"source returned shape \(577, 1\), expected \(577,\)")],
        ids=["short", "column"],
    )
    def test_a_draw_override_with_a_misshapen_block_fails_as_draw_does(self, make_block, error, message):
        class Misshapen(SampleSource):
            def draw(self, k):  # skips draw's own check
                return make_block(k)

        with pytest.raises(error, match=message):
            estimate_with_plan(Misshapen(), SPEC)

    def test_a_bad_value_in_a_later_block_is_reported_at_its_index_in_the_row(self):
        class LateBad(SampleSource):
            def draw(self, k):
                values = np.full(k, 0.5)
                if self.draws_made <= 35_000 < self.draws_made + k:
                    values[35_000 - self.draws_made] = -0.25
                self.draws_made += k
                return values

        # n = 39,064 in three blocks of at most 16,384: the offender is in the third
        with pytest.raises(SampleValueError) as exc_info:
            estimate_with_plan(LateBad(), SPEC_LARGE)
        assert (exc_info.value.value, exc_info.value.index) == (-0.25, 35_000)

    def test_boolean_blocks_skip_the_range_check(self, monkeypatch):
        # a boolean cannot leave [0, 1]: only float blocks are range-checked
        expected = estimate_with_plan(BernoulliSource(0.3, seed=4), SPEC)

        def refuse(values, offset=0):
            raise AssertionError(f"range check on a {values.dtype} block")

        monkeypatch.setattr(estimator, "_check_unit_interval", refuse)
        assert estimate_with_plan(BernoulliSource(0.3, seed=4), SPEC) == expected
        with pytest.raises(AssertionError, match="float64 block"):
            estimate_with_plan(ConstantSource(0.3), SPEC)

    def test_a_float_block_is_range_checked_once_where_it_is_reduced(self, monkeypatch):
        # n = 39,064 in three blocks of at most 16,384, each checked where _row_sum reduces it
        offsets = []
        check = estimator._check_unit_interval

        def recorded(values, offset=0):
            offsets.append(offset)
            check(values, offset)

        monkeypatch.setattr(estimator, "_check_unit_interval", recorded)
        assert estimate_with_plan(ConstantSource(0.25), SPEC_LARGE).mu_hat == 0.25
        assert offsets == [0, 16_384, 32_768]

    @pytest.mark.parametrize(
        "make_source, name",
        [(lambda: ScenarioSource.from_model(make_model("quadratic_well"), 3), "ScenarioSource"),
         (lambda: [0.5] * 577, "list"), (lambda: None, "NoneType"),
         (lambda: SampleSource, "type"), (lambda: BernoulliSource, "type")],
        ids=["scenarios", "list", "none", "source_class", "bernoulli_class"],
    )
    def test_anything_but_a_sample_source_is_a_domain_error(self, make_source, name):
        # each raised an AttributeError for '_generate'; a source class, a TypeError from its unbound _row
        with pytest.raises(DomainError, match=f"estimate_with_plan takes a SampleSource, got {name}$"):
            estimate_with_plan(make_source(), SPEC)

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
    """A Bernoulli source that records the size of every request for lanes,
    which counting and drawing both make."""

    def __init__(self, p: float, seed: int = 0):
        super().__init__(p, seed)
        self.requests = []

    def _lanes(self, k: int) -> np.ndarray:
        self.requests.append(k)
        return super()._lanes(k)


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
        # the chunk sets a Bernoulli source's block, eight chunks; every request but the last fills one
        monkeypatch.setattr(estimator, "_DRAW_CHUNK", chunk)
        source = RecordingSource(0.3, seed=4)
        estimate_with_plan(source, SPEC_1755)
        block = source._block
        assert block == 8 * chunk
        assert max(source.requests) <= block
        full, rest = divmod(1755, block)
        assert source.requests == [block] * full + ([rest] if rest else [])
        assert sum(source.requests) == 1755

    def test_float_and_indicator_sources_keep_the_chunk(self):
        requests = []

        class Recorded(SequenceSource):
            def _generate(self, k):
                requests.append(k)
                return super()._generate(k)

        class RecordedRows(ScenarioSource):
            def draw(self, k):
                requests.append(k)
                return super().draw(k)

        n = minimum_sample_size(SPEC_LARGE).n
        estimate_with_plan(Recorded(np.full(n, 0.5)), SPEC_LARGE)
        model = make_model("quadratic_well")
        certify_probability(model, [0.3], SPEC_LARGE, RecordedRows.from_model(model, 44))
        assert requests == [16_384, 16_384, n - 32_768] * 2

    def test_plan_of_7_229_021_draws_makes_56_requests(self):
        spec = validate_spec(2e-4, 0.02, 1e-6)
        source = RecordingSource(0.01, seed=4)
        cert = estimate_with_plan(source, spec)
        block = source._block
        assert cert.n == source.draws_made == 7_229_021
        assert len(source.requests) == -(-7_229_021 // block) == 56
        assert source.requests == [block] * 55 + [7_229_021 - 55 * block] == [block] * 55 + [20_061]


class DrawnBernoulliSource(BernoulliSource):
    """The same source, reduced from its boolean draws: it overrides ``_generate``."""

    def _generate(self, k: int) -> np.ndarray:
        return super()._generate(k)


COUNT_PS = (0.0, 1.0, 77 / 256, 0.3, 7 / 256 + 1e-9, 1 - 2.0**-53)  # 77/256 has frac 0: ties are 0s


def same_streams(a, b):
    """Both sources consumed the same words and ties and keep the same spare lanes."""
    for mine, theirs in ((a._rng, b._rng), (a._ties, b._ties)):
        assert mine.bit_generator.state == theirs.bit_generator.state
    np.testing.assert_array_equal(a._spare, b._spare)
    assert a.draws_made == b.draws_made


def record_counts(monkeypatch) -> list:
    """The size of every ``BernoulliSource._count`` request from now on."""
    counts = []
    count = BernoulliSource._count

    def recorded(self, k):
        counts.append(k)
        return count(self, k)

    monkeypatch.setattr(BernoulliSource, "_count", recorded)
    return counts


def drawn_row(source, n: int) -> float:
    """The sum of the source's next n values, drawn through ``draw`` (not counted from lanes) in blocks of its ``_block``."""
    return estimator._row_sum(map(source.draw, estimator._widths(n, source._block)))[0]


class TestLaneCounts:
    """A one-row estimate counts a BernoulliSource's lanes; the count is the
    count of its draws, from the same streams, bit for bit."""

    @pytest.mark.parametrize("lead", [0, 3], ids=["aligned", "3-draw lead"])
    @pytest.mark.parametrize("k", [0, 1, 7, 65_535, 65_536, 65_537])
    @pytest.mark.parametrize("p", COUNT_PS)
    def test_count_is_the_count_of_the_draws(self, p, k, lead):
        counted, drawn = BernoulliSource(p, seed=6), BernoulliSource(p, seed=6)
        # a 3-draw lead leaves 5 spare lanes for the request to start on
        np.testing.assert_array_equal(counted.draw(lead), drawn.draw(lead))
        count = counted._count(k)
        assert type(count) is int
        assert count == np.count_nonzero(drawn.draw(k))
        same_streams(counted, drawn)
        # and the draws after it are the same
        np.testing.assert_array_equal(counted.draw(11), drawn.draw(11))

    @pytest.mark.parametrize("p", COUNT_PS)
    def test_counts_and_draws_mix_freely(self, p):
        sizes = [3, 65_536, 1, 7, 65_537, 577, 0, 65_535, 13]
        mixed, whole = BernoulliSource(p, seed=9), BernoulliSource(p, seed=9)
        values = whole.draw(sum(sizes))
        start = 0
        for i, k in enumerate(sizes):
            part = values[start : start + k]
            if i % 2:
                assert mixed._count(k) == np.count_nonzero(part)
            else:
                np.testing.assert_array_equal(mixed.draw(k), part)
            start += k
        same_streams(mixed, whole)

    @pytest.mark.parametrize("p", [0.3, 7 / 256 + 1e-9, 77 / 256])
    @pytest.mark.parametrize(
        "spec", [SPEC_1755, validate_spec(2e-4, 0.02, 1e-6)], ids=["n1755", "n7229021"]
    )
    def test_estimate_with_plan_equals_the_boolean_path(self, spec, p):
        counted, drawn = BernoulliSource(p, seed=4), DrawnBernoulliSource(p, seed=4)
        assert estimate_with_plan(counted, spec) == estimate_with_plan(drawn, spec)
        assert counted.draws_made == drawn.draws_made == minimum_sample_size(spec).n
        same_streams(counted, drawn)

    @pytest.mark.parametrize(
        "spec", [SPEC, SPEC_LARGE, validate_spec(4e-4, 0.2, 0.01)], ids=["n577", "n39064", "n140719"]
    )
    def test_a_planned_row_counts_every_block_and_draws_none(self, monkeypatch, spec):
        counted, twin = RecordingSource(0.3, seed=8), FloatBernoulliSource(0.3, seed=8)
        counts = record_counts(monkeypatch)
        certs = [estimate_with_plan(counted, spec) for _ in range(3)]
        assert certs == [estimate_with_plan(twin, spec) for _ in range(3)]
        n = minimum_sample_size(spec).n
        assert sum(counted.requests) == counted.draws_made == twin.draws_made == 3 * n
        # no block is drawn: a row of 140,719 is a full block and the rest
        block = counted._block
        assert counts == ([block] * (n // block) + [n % block]) * 3

    @pytest.mark.parametrize("n", [70_000, 140_000])
    def test_a_trial_too_long_to_share_a_block_counts_every_block_and_draws_none(self, monkeypatch, n):
        counted, twin = RecordingSource(0.3, seed=8), FloatBernoulliSource(0.3, seed=8)
        counts = record_counts(monkeypatch)
        sums = counted._row_counts(3, n).tolist()
        assert sums == [drawn_row(twin, n) for _ in range(3)]
        assert sum(counted.requests) == counted.draws_made == twin.draws_made == 3 * n
        block = counted._block
        assert 2 * n >= block  # no two trials share a block; 70,000 fills part of one, 140,000 one and part of the next
        assert counts == ([block] * (n // block) + [n % block]) * 3

    def test_a_lone_coverage_trial_is_counted_and_draws_none(self, monkeypatch):
        # one trial of 577 shares its block with no other, so it is counted as a planned row is
        expected = verification.coverage_experiment(SPEC, [0.2, 0.6], trials=1, seed=5)
        counts = record_counts(monkeypatch)

        def refuse(self, k):
            raise AssertionError("drew a block")

        monkeypatch.setattr(SampleSource, "draw", refuse)
        assert verification.coverage_experiment(SPEC, [0.2, 0.6], trials=1, seed=5) == expected
        assert counts == [577, 577]

    def test_a_plain_source_is_counted_not_drawn(self, monkeypatch):
        expected = estimate_with_plan(DrawnBernoulliSource(0.3, seed=4), SPEC_1755)

        def refuse(self, k):
            raise AssertionError("drew a block")

        monkeypatch.setattr(SampleSource, "draw", refuse)
        source = BernoulliSource(0.3, seed=4)
        assert estimate_with_plan(source, SPEC_1755) == expected
        assert source.draws_made == 1755

    @pytest.mark.parametrize("method", ["_generate", "draw"])
    def test_a_subclass_that_draws_its_own_way_is_reduced_through_it(self, method):
        calls = []

        class Own(BernoulliSource):
            def _count(self, k):
                raise AssertionError("counted a source that draws its own way")

        def record(self, k):
            calls.append(k)
            return getattr(super(Own, self), method)(k)

        setattr(Own, method, record)
        cert = estimate_with_plan(Own(0.3, seed=4), SPEC_1755)
        assert cert == estimate_with_plan(BernoulliSource(0.3, seed=4), SPEC_1755)
        assert sum(calls) == 1755

    def test_coverage_reduces_boolean_blocks_drawn_through_draw(self, monkeypatch):
        expected = verification.coverage_experiment(SPEC, [0.2, 0.6], trials=40, seed=5)
        blocks = []
        draw = SampleSource.draw

        def recorded(self, k):
            values = draw(self, k)
            blocks.append((values.dtype, k))
            return values

        def refuse(self, k):
            raise AssertionError("counted a coverage block")

        monkeypatch.setattr(SampleSource, "draw", recorded)
        monkeypatch.setattr(BernoulliSource, "_count", refuse)
        assert verification.coverage_experiment(SPEC, [0.2, 0.6], trials=40, seed=5) == expected
        # each block holds many 577-draw trials
        assert blocks and all(dtype == bool and k % 577 == 0 and k > 577 for dtype, k in blocks)
        assert sum(k for _, k in blocks) == 2 * 40 * 577


class TestBatchedTrials:
    """Trials drawn in blocks equal sequential planned estimates, bit for bit."""

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("spec", [SPEC, SPEC_1755], ids=["n577", "n1755"])
    def test_trial_means_match_sequential_estimates(self, monkeypatch, chunk, spec):
        monkeypatch.setattr(estimator, "_DRAW_CHUNK", chunk)
        n, trials = minimum_sample_size(spec).n, 12
        batched = BernoulliSource(0.3, seed=8)
        sequential = BernoulliSource(0.3, seed=8)
        means = (batched._row_counts(trials, n) / n).tolist()
        expected = [estimate_with_plan(sequential, spec).mu_hat for _ in range(trials)]
        assert means == expected
        assert batched.draws_made == sequential.draws_made == trials * n

    @pytest.mark.parametrize("p", [0.3, 7 / 256 + 1e-9])
    @pytest.mark.parametrize(
        "spec, trials",
        [(SPEC, 300), (SPEC_1755, 80), (validate_spec(0.0011909, 0.2, 0.05), 4),
         (validate_spec(2e-3, 0.05, 1e-6), 3)],
        ids=["n577", "n1755", "n32769", "n282977"],
    )
    def test_both_coverage_branches_are_sequential_estimates(self, spec, trials, p):
        # rows of 577 and 1,755 share blocks and are summed in uint16;
        # rows of 32,769 and 282,977 fill a block or more and are counted
        n = minimum_sample_size(spec).n
        batched, sequential = (BernoulliSource(p, seed=8, _key=(estimator._COVERAGE, 1)) for _ in range(2))
        counts = batched._row_counts(trials, n)
        assert counts.dtype == np.float64
        assert (counts / n).tolist() == [estimate_with_plan(sequential, spec).mu_hat for _ in range(trials)]
        same_streams(batched, sequential)

    def test_coverage_draws_trials_times_n_from_each_source(self, monkeypatch):
        sources = []

        class Recorded(BernoulliSource):
            def __init__(self, p, seed=0, **key):
                super().__init__(p, seed, **key)
                sources.append(self)

        monkeypatch.setattr(verification, "BernoulliSource", Recorded)
        verification.coverage_experiment(SPEC_1755, [0.2, 0.6, 0.9], trials=30, seed=5)
        assert [(s.seed, s.draws_made) for s in sources] == [(5, 30 * 1755)] * 3
        # mean i takes its lanes from coverage child i of the seed, its ties from that child's child 1
        streams = [(s._rng, s._ties) for s in sources]
        assert [
            [(g.bit_generator.seed_seq.entropy, g.bit_generator.seed_seq.spawn_key) for g in pair]
            for pair in streams
        ] == [[(5, (estimator._COVERAGE, i)), (5, (estimator._COVERAGE, i, 1))] for i in range(3)]
        # no two means, and no mean and the seed's own Bernoulli source, share a stream
        own = BernoulliSource(0.2, seed=5)
        seqs = [g.bit_generator.seed_seq for pair in streams + [(own._rng, own._ties)] for g in pair]
        heads = [np.random.default_rng(seq).bit_generator.random_raw(8) for seq in seqs]
        assert len({int(x) for head in heads for x in head}) == 8 * len(seqs)


def exact_sums(rows):
    """``math.fsum`` of each row of a 2-D float array, from ``_extract`` on column
    blocks of at most ``_DRAW_CHUNK`` values (or one column) in all."""
    b, n = rows.shape
    width = max(1, min(n, estimator._DRAW_CHUNK // b))
    parts = [[] for _ in range(b)]
    for start in range(0, n, width):
        estimator._extract(rows[:, start : start + width], parts)
    return [math.fsum(row) for row in parts]


class TestExactSums:
    """The extraction reads a float block and never writes it: the caller's
    array, or a stream's views, are left as they were."""

    @staticmethod
    def scaled_rows(rows, n, seed):
        # mixed signs, and every other row 2^-900 below its neighbours
        rng = np.random.default_rng(seed)
        return np.ldexp(rng.random((rows, n)) - 0.25, -900 * (np.arange(rows)[:, None] % 2))

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("shape", [(40, 577), (3, 40_000), (1, 2000)], ids=["40x577", "3x40000", "1x2000"])
    def test_each_row_is_fsum_and_the_input_is_left_unchanged(self, monkeypatch, chunk, shape):
        monkeypatch.setattr(estimator, "_DRAW_CHUNK", chunk)
        rows = self.scaled_rows(*shape, seed=chunk)
        before = rows.copy()
        assert exact_sums(rows) == [math.fsum(row) for row in before.tolist()]
        np.testing.assert_array_equal(rows, before)

    @given(st.lists(EXTRACTABLE, min_size=1, max_size=3000))
    @EXACTNESS
    def test_bit_identical_to_fsum(self, values):
        assert bits(exact_sums(np.array([values]))[0]) == bits(math.fsum(values))

    @given(spread_arrays())
    @EXACTNESS
    def test_bit_identical_to_fsum_across_exponents(self, values):
        assert bits(exact_sums(np.array([values]))[0]) == bits(math.fsum(values))

    @given(st.lists(st.one_of(EXTRACTABLE, SPECIAL), min_size=1, max_size=50))
    @EXACTNESS
    def test_values_past_2_to_the_900_raise_and_leave_the_input(self, values):
        rows = np.array([values])
        if all(abs(v) <= 2.0**900 for v in values):  # false for nan
            assert bits(exact_sums(rows)[0]) == bits(math.fsum(values))
        else:
            with pytest.raises(DomainError, match=r"up to 2\*\*900"):
                exact_sums(rows)
        np.testing.assert_array_equal(rows, np.array([values]))

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("special", [math.nan, math.inf, 1.5 * 2.0**950], ids=["nan", "inf", "past_2_900"])
    def test_a_late_value_it_cannot_take_raises_and_leaves_the_input(self, monkeypatch, chunk, special):
        monkeypatch.setattr(estimator, "_DRAW_CHUNK", chunk)
        rows = self.scaled_rows(*((40, 577) if chunk < 577 else (3, 40_000)), seed=1)
        rows[1, -1] = special  # in the last of several column blocks, after the others are extracted
        before = rows.copy()
        with pytest.raises(DomainError, match=r"up to 2\*\*900"):
            exact_sums(rows)
        np.testing.assert_array_equal(rows, before)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_row_sum_leaves_the_stream_its_views_come_from(self, chunk):
        # one row of 6,300 values in [0, 1), every 700 of them 2^-900 below their neighbours
        stream = np.abs(self.scaled_rows(9, 700, seed=2)).ravel()
        before = stream.copy()
        taken = 0

        def views():  # of the stream, not copies
            nonlocal taken
            for k in estimator._widths(stream.size, chunk):
                taken += k
                yield stream[taken - k : taken]

        assert estimator._row_sum(views()) == (math.fsum(before.tolist()), 6300)
        assert taken == stream.size
        np.testing.assert_array_equal(stream, before)


class FloatBernoulliSource(BernoulliSource):
    """The same draws as 0.0/1.0 floats, which the extraction kernel sums."""

    def _generate(self, k: int) -> np.ndarray:
        return super()._generate(k).astype(float)


class FloatIndicatorSource(SampleSource):
    """The failure indicators 1{Y <= 0} of a scenario stream as 0.0/1.0 floats."""

    def __init__(self, model, theta, scenarios: ScenarioSource):
        super().__init__(scenarios.seed)
        self._model, self._theta, self._scenarios = model, theta, scenarios

    def _generate(self, k: int) -> np.ndarray:
        return (self._model.evaluate(self._theta, self._scenarios.draw(k)) <= 0.0).astype(float)


def specs_for(chunk):
    """SPEC and SPEC_1755, and SPEC_LARGE where it takes at most ~100 requests."""
    return (SPEC, SPEC_1755) + ((SPEC_LARGE,) if chunk >= 577 else ())


class TestCountedDraws:
    """Boolean blocks are counted, with the certificates of the same 0/1
    values summed as floats, whatever the chunk size."""

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_bernoulli_matches_float_twin(self, monkeypatch, chunk):
        monkeypatch.setattr(estimator, "_DRAW_CHUNK", chunk)
        for p in (0.0, 2.0**-9, 0.3, 0.5, 1.0):
            for spec in specs_for(chunk):
                counted, twin = BernoulliSource(p, seed=4), FloatBernoulliSource(p, seed=4)
                assert estimate_with_plan(counted, spec) == estimate_with_plan(twin, spec)
                assert counted.draws_made == twin.draws_made == minimum_sample_size(spec).n

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_trial_counts_match_float_twin(self, monkeypatch, chunk):
        monkeypatch.setattr(estimator, "_DRAW_CHUNK", chunk)
        counted, twin = BernoulliSource(0.3, seed=8), FloatBernoulliSource(0.3, seed=8)
        sums = counted._row_counts(40, 577).tolist()
        assert sums == [drawn_row(twin, 577) for _ in range(40)]
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

    def test_certify_probability_draws_no_sample_source(self, monkeypatch):
        # the failure indicators are counted where they are made, never redrawn and rechecked as samples
        def refuse(self, k):
            raise AssertionError("SampleSource.draw called")

        monkeypatch.setattr(SampleSource, "draw", refuse)
        model = make_model("quadratic_well")
        for spec, failures, n in ((SPEC, 53, 577), (SPEC_LARGE, 3_300, 39_064)):
            cert = certify_probability(model, [0.3], spec, ScenarioSource.from_model(model, 44))
            delta = achieved_confidence(n, spec.eps_a, spec.eps_r)
            assert cert == Certificate(failures / n, n, spec.eps_a, spec.eps_r, delta, "planned")

    @pytest.mark.parametrize("chunk", (7, 577))
    def test_row_of_boolean_and_float_blocks_sums_exactly(self, monkeypatch, chunk):
        # a row of 1,755 spans several blocks here, so it has both a count and partial sums
        monkeypatch.setattr(estimator, "_DRAW_CHUNK", chunk)
        rng = np.random.default_rng(5)
        taken = []

        def blocks():  # boolean and float blocks by turns
            for k in estimator._widths(1755, chunk):
                block = rng.random(k) < 0.5 if len(taken) % 2 else rng.random(k)
                taken.append(block.astype(float))
                yield block

        total = estimator._row_sum(blocks())
        assert total == (math.fsum(np.concatenate(taken).tolist()), 1755)

    @pytest.mark.parametrize("wider", [0, 1], ids=["shared", "alone"])
    def test_the_widest_trials_count_every_draw(self, monkeypatch, wider):
        # the widest trials two of which share a block count to 2^16 - 1 in uint16; one draw
        # wider, no two share one and each is counted from its lanes, not summed in uint16
        source = BernoulliSource(1.0, seed=2)
        n = source._block // 2 - 1 + wider
        assert n == 65_535 + wider
        counts = record_counts(monkeypatch)
        assert source._row_counts(3, n).tolist() == [float(n)] * 3
        assert counts == ([n] * 3 if wider else [])

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


class TestLaneSampler:
    """BernoulliSource reads eight draws from each 64-bit word: a byte lane
    below cut = floor(256 p) is a 1, above it a 0, and a lane equal to cut is
    a 1 when its tie stream's next ``random()`` is below 256 p - cut."""

    @pytest.mark.parametrize("p", [0.0, 2.0**-9, 3 / 256, 0.3, 1 - 2.0**-53, 1.0])
    def test_probability_of_a_one_exceeds_p_by_less_than_2_to_the_minus_61(self, p):
        source = BernoulliSource(p)
        cut, tie_cut = source._cut, Fraction(source._tie_cut)
        assert cut + tie_cut / 2**53 == 256 * Fraction(p)  # both exact
        # a lane is uniform on 0..255 and a tie's top 53 bits on 0..2^53 - 1
        law = (cut + Fraction(math.ceil(tie_cut), 2**53)) / 256
        assert 0 <= law - Fraction(p) < Fraction(1, 2**61)
        if p in (0.0, 1.0):
            assert law == p

    @pytest.mark.parametrize("frac", [2.0**-60, 2.0**-53, 1e-9, 0.3, 0.5, 1 - 2.0**-53])
    def test_ties_from_raw_words_are_random_below_frac_bit_for_bit(self, frac):
        # numpy fixes only a bit generator's raw stream; random() is its top 53 bits times 2^-53
        for seed in range(40):
            raw, floats = (estimator._stream(seed, estimator._BERNOULLI, 0, 1) for _ in range(2))
            np.testing.assert_array_equal(
                (raw.bit_generator.random_raw(50_000) >> 11) < math.ldexp(frac, 53), floats.random(50_000) < frac
            )
            assert raw.bit_generator.state == floats.bit_generator.state

    @pytest.mark.parametrize("p", [3 / 256, 0.3, 0.5])
    def test_any_split_gives_the_same_draws(self, p):
        def pieces(size, total):
            return [min(size, total - start) for start in range(0, total, size)]

        total, sizes = 20_000, (1, 7, 577, 3, 16_384)
        splits = [sizes + (total - sum(sizes),)]
        splits += [pieces(chunk, total) for chunk in CHUNKS]
        # around a 65,536-draw block, and 3 draws first, so that every block after starts on 5 spare lanes
        wide = 2 * 65_536 + 11
        splits += [pieces(size, wide) for size in (65_535, 65_536, 65_537)] + [[3] + pieces(65_536, wide - 3)]
        for split in splits:
            whole_source = BernoulliSource(p, seed=7)
            whole = whole_source.draw(sum(split))
            source = BernoulliSource(p, seed=7)
            np.testing.assert_array_equal(np.concatenate([source.draw(k) for k in split]), whole)
            # the same words and the same ties were consumed
            for mine, theirs in ((source._rng, whole_source._rng), (source._ties, whole_source._ties)):
                assert mine.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("n", [1, 8, 577, 16_385])
    @pytest.mark.parametrize("p", [2.0**-9, 3 / 256, 0.3])
    def test_n_draws_read_the_lanes_of_ceil_n_over_8_words(self, n, p):
        source = BernoulliSource(p, seed=3)
        ones = source.draw(n)
        words = estimator._stream(3, estimator._BERNOULLI)
        lanes = words.bit_generator.random_raw(-(-n // 8)).astype("<u8").view(np.uint8)[:n]
        assert source._rng.bit_generator.state == words.bit_generator.state
        cut = math.floor(256 * p)
        frac = 256 * p - cut
        np.testing.assert_array_equal(ones[lanes != cut], lanes[lanes != cut] < cut)
        # ties take the tie stream in draw order; when frac is 0 they are 0s and take nothing
        ties = estimator._stream(3, estimator._BERNOULLI, 0, 1)
        tied = ones[lanes == cut]
        np.testing.assert_array_equal(tied, ties.random(tied.size) < frac if frac else False)
        assert source._ties.bit_generator.state == ties.bit_generator.state

    @pytest.mark.parametrize("p", [1e-6, 0.3, 0.999])
    def test_count_of_ones_within_five_sigma(self, p):
        n = 20_000_000
        source = BernoulliSource(p, seed=12)
        count = drawn_row(source, n)
        assert abs(count - n * p) < 5.0 * math.sqrt(n * p * (1.0 - p))


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
        source = BernoulliSource(0.3, seed=4)
        lanes, ties = (g.bit_generator.seed_seq for g in (source._rng, source._ties))
        assert (lanes.entropy, lanes.spawn_key) == (4, (estimator._BERNOULLI, 0))
        assert (ties.entropy, ties.spawn_key) == (4, (estimator._BERNOULLI, 0, 1))

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

    def test_large_batch_risk_never_zero(self):
        # 2 exp(400,000 g(0.05, 0.25)) underflows: the risk reads 5e-324, not 0
        cert = estimate_from_batch([0.5] * 400_000, 0.05, 0.2)
        assert cert.delta_achieved == math.ulp(0.0)
        assert not cert.no_guarantee

    def test_tolerances_are_checked_before_the_batch_is_read(self, monkeypatch):
        # the error achieved_confidence reports, raised before a value is summed
        def unread(blocks):
            raise AssertionError("the batch was read")

        with pytest.raises(InvalidSpecError) as expected:
            achieved_confidence(5, 0.6, 0.2)
        monkeypatch.setattr(estimator, "_row_sum", unread)
        with pytest.raises(InvalidSpecError) as exc_info:
            estimate_from_batch([0.5, 2.0], 0.6, 0.2)
        assert str(exc_info.value) == str(expected.value)

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

    @pytest.mark.parametrize(
        "values", [["x"], ["0.5"], [b"0.5"], [[0.5], [0.5, 0.5]], [np.zeros(2), np.zeros((2, 3))], [0.5, None]],
        ids=["word", "numeric_string", "bytes", "ragged", "ragged_arrays", "none"],
    )
    def test_values_that_are_not_numbers_rejected(self, values):
        # once parsed as floats (None as NaN), or numpy's bare ValueError
        with pytest.raises(DomainError, match="batch values must be numbers or booleans"):
            estimate_from_batch(values, 0.05, 0.2)

    def test_indicator_batch_matches_floats(self):
        # 0/1 indicators are samples: booleans and integers certify as their floats do
        flags = np.random.default_rng(5).random(700) < 0.3
        expected = estimate_from_batch(flags.astype(float), 0.05, 0.2)
        assert estimate_from_batch(flags, 0.05, 0.2) == expected
        assert estimate_from_batch(flags.tolist(), 0.05, 0.2) == expected
        assert estimate_from_batch(flags.astype(np.uint8), 0.05, 0.2) == expected

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

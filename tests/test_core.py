"""Core distribution primitives: entropy, surprisal, normalize, temperature, sampling."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SEVEN_ENTROPY, SEVEN_PROBS, SEVEN_TOKENS
from decodekit import core
from decodekit.core import (
    MIN_TEMPERATURE,
    SEED_CHUNK,
    DistributionError,
    Rng,
    TokenDistribution,
    Vocabulary,
    default_vocabulary,
    entropy,
    normalize,
    sample,
    seeded_generators,
    surprisal,
    temperature_scale,
    tempered_weights,
)


def make_dist(weights):
    w = np.asarray(weights, dtype=np.float64)
    vocab = Vocabulary.from_tokens(f"t{i}" for i in range(w.size))
    return TokenDistribution(vocab, w / w.sum())


# Raw positive weights; normalization happens inside make_dist.
weight_lists = st.lists(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=32,
)


class TestVocabulary:
    def test_index_roundtrip(self):
        vocab = Vocabulary.from_tokens(SEVEN_TOKENS)
        for i, tok in enumerate(SEVEN_TOKENS):
            assert vocab.index[tok] == i
            assert vocab.tokens[i] == tok

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            Vocabulary.from_tokens(("a", "a"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary.from_tokens(())

    def test_default_vocabulary_names(self):
        vocab = default_vocabulary(300)
        assert len(vocab) == 300
        assert vocab.tokens[0] == "tok000"
        assert vocab.tokens[299] == "tok299"

    @pytest.mark.parametrize("n", [1, 999, 1000, 1001, 4096])
    def test_default_vocabulary_equals_per_token_names(self, n):
        assert default_vocabulary(n).tokens == tuple(f"tok{i:03d}" for i in range(n))

    def test_default_vocabulary_is_one_instance_per_size(self):
        assert default_vocabulary(48) is default_vocabulary(48)
        small, large = default_vocabulary(48), default_vocabulary(1200)
        assert small is not large
        assert small.tokens == tuple(f"tok{i:03d}" for i in range(48))
        assert large.tokens == tuple(f"tok{i:03d}" for i in range(1200))
        assert large.index["tok1199"] == 1199

    def test_default_vocabulary_cache_is_bounded(self):
        maxsize = default_vocabulary.cache_parameters()["maxsize"]
        for n in range(2, maxsize + 5):
            default_vocabulary(n)
        assert default_vocabulary.cache_info().currsize <= maxsize


class TestTokenDistribution:
    def test_validates_sum(self, seven_vocab):
        with pytest.raises(DistributionError, match="sum"):
            TokenDistribution(seven_vocab, np.full(7, 0.15))

    def test_rejects_negative(self, seven_vocab):
        probs = np.array([1.2, -0.2, 0, 0, 0, 0, 0])
        with pytest.raises(DistributionError, match="nonnegative"):
            TokenDistribution(seven_vocab, probs)

    def test_rejects_nan(self, seven_vocab):
        probs = np.array([1.0, np.nan, 0, 0, 0, 0, 0])
        with pytest.raises(DistributionError, match="finite"):
            TokenDistribution(seven_vocab, probs)

    def test_rejects_wrong_shape(self, seven_vocab):
        with pytest.raises(DistributionError, match="shape"):
            TokenDistribution(seven_vocab, np.array([0.5, 0.5]))

    def test_probs_are_read_only(self, seven_dist):
        with pytest.raises(ValueError):
            seven_dist.probs[0] = 0.5

    def test_input_array_not_aliased(self, seven_vocab):
        src = np.array(SEVEN_PROBS)
        dist = TokenDistribution(seven_vocab, src)
        src[0] = 0.99
        assert dist.prob(0) == 0.175

    def test_support_skips_zeros(self):
        dist = make_dist([0.5, 0.0, 0.5])
        assert dist.support().tolist() == [0, 2]


class TestEntropy:
    def test_seven_token_fixture(self, seven_dist):
        h = entropy(seven_dist)
        assert h == pytest.approx(1.92, abs=0.005)
        assert h == pytest.approx(SEVEN_ENTROPY, abs=1e-12)

    def test_uniform_four(self):
        assert entropy(make_dist([1, 1, 1, 1])) == pytest.approx(math.log(4), abs=1e-12)

    def test_one_hot_is_zero(self):
        assert entropy(make_dist([0, 1, 0])) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 17, 256, 1024])
    def test_uniform_n_is_ln_n(self, n):
        # The full 2..1024 range runs in the acceptance suite.
        assert entropy(make_dist([1.0] * n)) == pytest.approx(math.log(n), abs=1e-12)

    @given(weight_lists)
    def test_bounded_by_ln_n(self, weights):
        dist = make_dist(weights)
        h = entropy(dist)
        assert -1e-9 <= h <= math.log(len(dist)) + 1e-9


class TestSurprisal:
    def test_fixture_head_token(self, seven_dist):
        s = surprisal(seven_dist, 0)
        assert s == pytest.approx(1.74, abs=0.005)
        assert s == pytest.approx(1.742969305058623, abs=1e-12)

    def test_certainty(self):
        assert surprisal(make_dist([0, 1]), 1) == 0.0

    def test_half(self):
        assert surprisal(make_dist([1, 1]), 0) == pytest.approx(math.log(2), abs=1e-12)

    def test_zero_probability_token_errors(self):
        dist = make_dist([0.0, 1.0])
        with pytest.raises(ValueError, match="t0"):
            surprisal(dist, 0)


class TestNormalize:
    def test_adjusted_weights_fixture(self):
        vocab = Vocabulary.from_tokens(("analyze", "optimize", "function", "tasks"))
        dist = normalize(vocab, [0.45, 0.42, 0.39, 0.37])
        expected = (0.27607361963190186, 0.25766871165644173, 0.23926380368098163, 0.22699386503067487)
        assert dist.probs == pytest.approx(expected, abs=0.001)
        # which rounds to (0.28, 0.26, 0.24, 0.23)-ish mass ordering
        assert dist.probs[0] > dist.probs[1] > dist.probs[2] > dist.probs[3]

    def test_identity_on_normalized_input(self, seven_vocab):
        dist = normalize(seven_vocab, SEVEN_PROBS)
        assert dist.probs == pytest.approx(SEVEN_PROBS, abs=1e-12)

    def test_all_zero_weights_error(self, seven_vocab):
        with pytest.raises(DistributionError):
            normalize(seven_vocab, np.zeros(7))

    def test_negative_weight_error(self, seven_vocab):
        with pytest.raises(DistributionError):
            normalize(seven_vocab, [-1, 1, 1, 1, 1, 1, 1])

    def test_support_restriction(self, seven_vocab):
        dist = normalize(seven_vocab, np.ones(7), support=[2, 5])
        assert dist.support().tolist() == [2, 5]
        assert dist.prob(2) == pytest.approx(0.5)

    def test_support_out_of_range(self, seven_vocab):
        with pytest.raises(IndexError):
            normalize(seven_vocab, np.ones(7), support=[-1])
        with pytest.raises(IndexError):
            normalize(seven_vocab, np.ones(7), support=[7])

    @pytest.mark.parametrize(
        "support",
        [[5, 2, 5], frozenset({2, 5}), np.array([5, 2]), np.array([2, 5], dtype=np.uint8),
         np.array([False, False, True, False, False, True, False]),
         [False, False, True, False, False, True, False]],
    )
    def test_support_forms_agree(self, seven_vocab, support):
        dist = normalize(seven_vocab, SEVEN_PROBS, support=support)
        assert dist.probs.tolist() == normalize(seven_vocab, SEVEN_PROBS, support=[2, 5]).probs.tolist()

    def test_support_array_and_mask_checked(self, seven_vocab):
        with pytest.raises(IndexError):
            normalize(seven_vocab, np.ones(7), support=np.array([0, 7]))
        with pytest.raises(IndexError):
            normalize(seven_vocab, np.ones(7), support=np.array([-1, 2]))
        with pytest.raises(IndexError):
            normalize(seven_vocab, np.ones(7), support=np.ones(6, dtype=bool))
        with pytest.raises(IndexError, match="integer token ids"):
            normalize(seven_vocab, np.ones(7), support=[2.9])

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_total_rejected(self, seven_vocab):
        with pytest.raises(DistributionError, match="overflows"):
            normalize(seven_vocab, np.full(7, 1e308))

    @given(weight_lists)
    def test_result_equals_checked_construction(self, weights):
        # normalize skips the constructor's second check, not its result.
        vocab = Vocabulary.from_tokens(f"t{i}" for i in range(len(weights)))
        dist = normalize(vocab, weights)
        w = np.asarray(weights, dtype=np.float64)
        checked = TokenDistribution(vocab, w / w.sum())
        assert dist.probs.tolist() == checked.probs.tolist()
        assert not dist.probs.flags.writeable
        assert entropy(dist) == entropy(checked) == entropy(dist)

    @given(weight_lists)
    def test_idempotent(self, weights):
        vocab = Vocabulary.from_tokens(f"t{i}" for i in range(len(weights)))
        once = normalize(vocab, weights)
        twice = normalize(vocab, once.probs)
        assert np.allclose(once.probs, twice.probs, atol=1e-12)

    @given(weight_lists, st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariant(self, weights, c):
        vocab = Vocabulary.from_tokens(f"t{i}" for i in range(len(weights)))
        base = normalize(vocab, weights)
        scaled = normalize(vocab, np.asarray(weights) * c)
        assert np.allclose(base.probs, scaled.probs, atol=1e-9)


class TestTemperedWeights:
    def test_proportional_to_the_power(self):
        q = np.array([0.1, 0.2, 0.7])
        w = tempered_weights(q.copy(), 0.5)
        assert w.max() == 1.0
        assert w == pytest.approx(q**2 / 0.7**2, abs=1e-12)

    @given(weight_lists, st.floats(min_value=1e-3, max_value=1e3), st.floats(min_value=0.05, max_value=20.0))
    def test_scale_invariant(self, weights, c, t):
        # Scaling q shifts log q, which the subtracted maximum cancels.
        q = np.asarray(weights)
        assert np.allclose(tempered_weights(q, t), tempered_weights(q * c, t), atol=1e-9)

    def test_extreme_temperatures_stay_finite(self):
        q = np.array([0.0, 1e-300, 0.25, 0.25 - 1e-16, 0.5])
        for t in (MIN_TEMPERATURE, 1e-3, 1e6, 1e300):
            w = tempered_weights(q.copy(), t)
            assert np.all(np.isfinite(w)) and w.max() == 1.0
            assert w[0] == 0.0


class TestTemperedExp:
    @given(st.integers(1, 6), st.integers(1, 40), st.data())
    def test_matrix_rows_equal_one_row_calls(self, n_rows, size, data):
        """A matrix with one temperature per row gives each row's 1-D bytes; a row whose max is -inf raises."""
        score = st.one_of(st.floats(-745.0, 745.0), st.just(-math.inf))
        rows = st.lists(st.lists(score, min_size=size, max_size=size), min_size=n_rows, max_size=n_rows)
        z = np.array(data.draw(rows), dtype=np.float64).reshape(n_rows, size)
        temperatures = np.array(data.draw(st.lists(
            st.floats(MIN_TEMPERATURE / 4, 1e6), min_size=n_rows, max_size=n_rows
        )))
        massless = data.draw(st.one_of(st.none(), st.integers(0, n_rows - 1)))
        if massless is not None:
            z[massless] = -math.inf
        if np.any(z.max(axis=1) == -math.inf):
            with pytest.raises(DistributionError, match="no probability mass"):
                core.tempered_exp(z, temperatures)
            return
        want = np.array([core.tempered_exp(row.copy(), float(t)) for row, t in zip(z, temperatures)])
        assert core.tempered_exp(z, temperatures).tobytes() == want.tobytes()


class TestTemperatureScale:
    def test_identity_at_one(self, seven_dist):
        out = temperature_scale(seven_dist, 1.0)
        assert out.probs == pytest.approx(seven_dist.probs, abs=1e-12)

    def test_half_temperature_fixture(self):
        dist = make_dist([0.28, 0.26, 0.24, 0.22])
        out = temperature_scale(dist, 0.5)
        expected = (0.31111111111111117, 0.2682539682539683, 0.22857142857142856, 0.19206349206349205)
        assert out.probs == pytest.approx(expected, abs=0.001)

    def test_near_zero_concentrates_on_argmax(self, seven_dist):
        out = temperature_scale(seven_dist, 1e-4)
        assert out.prob(0) >= 0.999

    def test_nonpositive_temperature_errors(self, seven_dist):
        with pytest.raises(ValueError):
            temperature_scale(seven_dist, 0.0)
        with pytest.raises(ValueError):
            temperature_scale(seven_dist, -1.0)

    @pytest.mark.parametrize("t", [1e-310, 5e-324, 9.99e-301])
    def test_subnormal_temperature_errors_without_warning(self, t):
        # Below MIN_TEMPERATURE, ln(q) / T overflows and the result would be NaN.
        dist = make_dist([0.3, 0.7])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="temperature must be >= 1e-300"):
                temperature_scale(dist, t)

    def test_zero_probability_ids_stay_zero_without_warning(self):
        dist = make_dist([0.5, 0.0, 0.5, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = temperature_scale(dist, 0.5, support=[0, 1, 2])
            with pytest.raises(DistributionError, match="no probability mass"):
                temperature_scale(dist, 0.5, support=[1, 3])
        assert out.probs.tolist() == [0.5, 0.0, 0.5, 0.0]

    def test_support_restriction_drops_other_mass(self, seven_dist):
        out = temperature_scale(seven_dist, 1.0, support=[0, 1])
        assert out.support().tolist() == [0, 1]

    @given(weight_lists, st.floats(min_value=0.05, max_value=20.0))
    def test_rank_preserved_for_positive_t(self, weights, t):
        # Strict orderings must survive scaling; ties may resolve either way.
        dist = make_dist(weights)
        out = temperature_scale(dist, t)
        for a in range(len(dist)):
            for b in range(a + 1, len(dist)):
                if not math.isclose(dist.prob(a), dist.prob(b), rel_tol=1e-9):
                    assert (dist.prob(a) > dist.prob(b)) == (out.prob(a) > out.prob(b))

    @given(weight_lists, st.floats(min_value=0.05, max_value=20.0))
    def test_output_is_valid_distribution(self, weights, t):
        out = temperature_scale(make_dist(weights), t)
        assert abs(float(out.probs.sum()) - 1.0) <= 1e-9


class TestRng:
    def test_uniform_in_unit_interval(self):
        rng = Rng(123)
        draws = [rng.uniform() for _ in range(1000)]
        assert all(0.0 <= u < 1.0 for u in draws)

    def test_same_seed_same_stream(self):
        a, b = Rng(7), Rng(7)
        assert [a.uniform() for _ in range(20)] == [b.uniform() for _ in range(20)]

    def test_different_seeds_differ(self):
        a, b = Rng(7), Rng(8)
        assert [a.uniform() for _ in range(20)] != [b.uniform() for _ in range(20)]


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


class TestSeededGenerators:
    """``seeded_generators`` against ``np.random.PCG64(seed)``, the constructor it restates."""

    @staticmethod
    def states(seeds):
        return [gen.bit_generator.state for gen in seeded_generators(seeds)]

    def test_edge_seeds_start_where_pcg64_does(self):
        assert self.states(EDGE_SEEDS) == [np.random.PCG64(s).state for s in EDGE_SEEDS]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), max_size=20))
    def test_drawn_seeds_start_where_pcg64_does(self, seeds):
        assert self.states(seeds) == [np.random.PCG64(s).state for s in seeds]

    def test_states_hold_across_chunks(self):
        seeds = [int(s) for s in np.random.default_rng(3).integers(0, 2**64 - 1, 2 * SEED_CHUNK + 3, dtype=np.uint64)]
        assert self.states(seeds) == [np.random.PCG64(s).state for s in seeds]

    def test_first_draws_match_a_fresh_generator(self):
        for seed, gen in zip(EDGE_SEEDS, seeded_generators(EDGE_SEEDS)):
            want = np.random.Generator(np.random.PCG64(seed)).standard_normal(7)
            assert gen.standard_normal(7).tobytes() == want.tobytes()

    def test_yields_one_generator_per_seed(self):
        gens = list(seeded_generators(range(5)))
        assert len(gens) == 5 and all(g is gens[0] for g in gens)
        assert list(seeded_generators([])) == []

    def test_a_wrong_restatement_fails_its_first_call(self, monkeypatch):
        monkeypatch.setattr(core, "_MIX_MULT_L", core._MIX_MULT_L ^ 1)
        core._check_seeding.cache_clear()
        with pytest.raises(RuntimeError, match=re.escape(f"numpy {np.__version__} ")):
            next(seeded_generators([1]))


class TestSample:
    def test_one_hot_any_seed(self):
        dist = make_dist([0, 0, 1, 0])
        for seed in range(25):
            assert sample(dist, Rng(seed)) == 2

    def test_replay_equality(self, seven_dist):
        rng1, rng2 = Rng(5), Rng(5)
        seq1 = [sample(seven_dist, rng1) for _ in range(200)]
        seq2 = [sample(seven_dist, rng2) for _ in range(200)]
        assert seq1 == seq2

    def test_never_draws_zero_probability(self):
        dist = make_dist([0.5, 0.0, 0.5])
        rng = Rng(0)
        draws = {sample(dist, rng) for _ in range(500)}
        assert 1 not in draws

    def test_rough_frequencies(self):
        # Tight 100k-draw check lives in the acceptance suite.
        dist = make_dist([0.28, 0.26, 0.24, 0.22])
        rng = Rng(99)
        counts = np.zeros(4)
        n = 20_000
        for _ in range(n):
            counts[sample(dist, rng)] += 1
        assert counts / n == pytest.approx(dist.probs, abs=0.02)

    @given(weight_lists, st.integers(min_value=0, max_value=2**32 - 1))
    def test_sample_lands_in_support(self, weights, seed):
        dist = make_dist(weights)
        assert sample(dist, Rng(seed)) in set(dist.support().tolist())

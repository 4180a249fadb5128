"""ASTS scoring ops, providers, and the five-stage pipeline step."""

import math
import sys
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SEVEN_ENTROPY, SEVEN_PROBS, SEVEN_TOKENS
from decodekit.asts import (
    ADJUST_FORMS,
    AstsConfig,
    ConstantScores,
    EmbeddingAlignment,
    GenerationContext,
    KeywordRelevance,
    MappedScores,
    ProviderError,
    asts_step,
    dynamic_thresholds,
    sigma_entropy,
)
from decodekit.core import Rng, TokenDistribution, Vocabulary, default_vocabulary, sample, surprisal
from decodekit.embed import EmbeddingTable, context_embedding, cosine, load_table, synthetic_table
from oracles import (
    adjust_weight,
    adjust_weight_reward_only,
    candidate_to_json_dict,
    coherence_score,
    composite_score,
    diversity_score,
    freq_of,
    repetition_penalty,
    reward,
)

# Hand-computed reference tables for the seven-token fixture, over the four
# band members (analyze, optimize, function, tasks).
SA_TABLE = {"analyze": 0.90, "optimize": 0.88, "function": 0.75, "tasks": 0.80}
DIV_TABLE = {"analyze": 1.00, "optimize": 0.80, "function": 1.00, "tasks": 0.85}
RELV_TABLE = {"analyze": 0.80, "optimize": 0.85, "function": 0.70, "tasks": 0.65}
REP_TABLE = {"analyze": 0.10, "optimize": 0.15, "function": 0.05, "tasks": 0.20}
COMPOSITE_TABLE = {"analyze": 0.89, "optimize": 0.85, "function": 0.84, "tasks": 0.84}
REWARD_TABLE = {"analyze": 0.83, "optimize": 0.81, "function": 0.74, "tasks": 0.70}

# Oracle outputs (independent script, natural log throughout).
EXPECTED_COHERENCE = (0.824330, 0.841622, 0.853318, 0.883171)
EXPECTED_COMPOSITE = (0.889732, 0.848649, 0.841327, 0.843268)
EXPECTED_REWARD = (0.67, 0.665, 0.575, 0.555)
EXPECTED_FINAL_INJECTED = (0.281082, 0.260175, 0.237379, 0.221364)
EXPECTED_FINAL_FORMULA = (0.279134, 0.261992, 0.234932, 0.223942)

FIXTURE_CFG = AstsConfig()  # defaults are the fixture parameters


def make_dist(weights):
    w = np.asarray(weights, dtype=np.float64)
    vocab = Vocabulary.from_tokens(f"t{i}" for i in range(w.size))
    return TokenDistribution(vocab, w / w.sum())


def mapped(vocab, table):
    return MappedScores(vocab, table)


def run_fixture_step(seven_dist, inject_tables, cfg=FIXTURE_CFG):
    """One pipeline step on the seven-token fixture with reference scores."""
    vocab = seven_dist.vocab
    kwargs = dict(
        alignment=mapped(vocab, SA_TABLE),
        relevance=mapped(vocab, RELV_TABLE),
        diversity_fn=mapped(vocab, DIV_TABLE),
        repetition_fn=mapped(vocab, REP_TABLE),
    )
    if inject_tables:
        kwargs["composite_fn"] = mapped(vocab, COMPOSITE_TABLE)
        kwargs["reward_fn"] = mapped(vocab, REWARD_TABLE)
    ctx = GenerationContext(window_w=cfg.window_w)
    return asts_step(seven_dist, ctx, cfg, **kwargs), ctx


class TestOps:
    def test_sigma_entropy_window(self):
        assert sigma_entropy([1.0, 2.0, 3.0], 0.6) == pytest.approx(math.sqrt(2 / 3), abs=1e-12)

    def test_sigma_entropy_prior_below_two_entries(self):
        assert sigma_entropy([], 0.6) == 0.6
        assert sigma_entropy([1.92], 0.6) == 0.6

    def test_sigma_entropy_constant_window(self):
        assert sigma_entropy([2.0, 2.0, 2.0], 0.6) == 0.0

    def test_thresholds_fixture(self):
        alpha, beta = dynamic_thresholds(1.92, 0.6, 0.3, 0.3)
        assert alpha == pytest.approx(1.74, abs=1e-12)
        assert beta == pytest.approx(2.10, abs=1e-12)

    def test_thresholds_zero_sigma_collapses(self):
        assert dynamic_thresholds(2.0, 0.0, 0.3, 0.3) == (2.0, 2.0)

    def test_thresholds_asymmetric(self):
        assert dynamic_thresholds(2.0, 1.0, 0.5, 0.1) == pytest.approx((1.5, 2.1))

    def test_coherence_reference_points(self):
        assert coherence_score(1.74, 1.92) == pytest.approx(0.82, abs=1e-12)
        assert coherence_score(1.80, 1.92) == pytest.approx(0.88, abs=1e-12)
        assert coherence_score(1.92, 1.92) == 1.0

    def test_diversity_schedule(self):
        assert diversity_score(0, 1.0) == 1.0
        assert diversity_score(1, 1.0) == 0.5
        assert diversity_score(9, 1.0) == pytest.approx(0.1)

    def test_diversity_rejects_negative_freq(self):
        with pytest.raises(ValueError):
            diversity_score(-1, 1.0)

    def test_composite_reference_rows(self):
        cfg = FIXTURE_CFG
        assert composite_score(0.82, 0.90, 1.00, cfg) == pytest.approx(0.888, abs=1e-12)
        assert composite_score(0.84, 0.88, 0.80, cfg) == pytest.approx(0.848, abs=1e-12)

    def test_composite_convex_combination(self):
        cfg = AstsConfig(lambda1=0.3, lambda2=0.3, lambda3=0.4)
        assert composite_score(1.0, 1.0, 1.0, cfg) == pytest.approx(1.0, abs=1e-12)

    def test_repetition_penalty_values(self):
        assert repetition_penalty(2, 10) == pytest.approx(0.2)
        assert repetition_penalty(0, 10) == 0.0
        assert repetition_penalty(0, 0) == 0.0  # empty context

    def test_reward_reference_row(self):
        assert reward(0.90, 0.80, 0.10, FIXTURE_CFG) == pytest.approx(0.67, abs=1e-12)
        assert reward(0.0, 0.0, 0.0, FIXTURE_CFG) == 0.0
        cfg = AstsConfig(mu1=1.0, mu2=0.0, mu3=0.0)
        assert reward(0.75, 0.3, 0.9, cfg) == pytest.approx(0.75)

    def test_adjust_weight_reference_points(self):
        assert adjust_weight(0.175, 0.89, 0.83) == pytest.approx(0.9774, abs=5e-4)
        assert adjust_weight(0.165, 0.84, 0.70) == pytest.approx(0.7697, abs=5e-4)
        assert adjust_weight(0.3, 0.5, -0.5) == pytest.approx(0.3, abs=1e-12)

    def test_adjust_weight_reward_only_form(self):
        assert adjust_weight_reward_only(0.2, 0.7) == pytest.approx(0.2 * math.exp(0.5), abs=1e-12)

    def test_adjust_weight_requires_positive_p(self):
        with pytest.raises(ValueError):
            adjust_weight(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            adjust_weight_reward_only(0.0, 1.0)


class TestConfig:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("k1", -0.1),
            ("lambda2", float("nan")),
            ("mu3", -1.0),
            ("temperature", 0.0),
            ("temperature", 1e-310),
            ("window_w", 0),
            ("eps_div", 0.0),
            ("eps_div", 1e-310),
            ("sigma_prior", -0.5),
        ],
    )
    def test_invalid_fields_name_the_key(self, field, value):
        with pytest.raises(ValueError, match=f"asts.{field}"):
            AstsConfig(**{field: value})

    def test_smallest_temperature_and_eps_div_accepted(self):
        AstsConfig(temperature=1e-300, eps_div=sys.float_info.min)

    def test_adjust_form_whitelist(self):
        with pytest.raises(ValueError, match="adjust_form"):
            AstsConfig(adjust_form="extra")
        AstsConfig(adjust_form="eq13")  # accepted alternative


class TestGenerationContext:
    def test_append_tracks_frequency(self):
        ctx = GenerationContext()
        for t in (3, 3, 5):
            ctx.append(t)
        assert len(ctx) == 3
        assert freq_of(ctx, 3) == 2
        assert freq_of(ctx, 5) == 1
        assert freq_of(ctx, 99) == 0

    def test_entropy_window_is_bounded(self):
        ctx = GenerationContext(window_w=4)
        for i in range(10):
            ctx.push_entropy(float(i))
        assert list(ctx.entropy_window) == [6.0, 7.0, 8.0, 9.0]

    def test_seed_history_initialises_freq(self):
        ctx = GenerationContext(history=[1, 1, 2])
        assert freq_of(ctx, 1) == 2
        assert freq_of(ctx, 2) == 1

    @given(st.lists(st.integers(0, 30), max_size=200))
    def test_freq_equals_brute_force_recount(self, tokens):
        ctx = GenerationContext()
        for t in tokens:
            ctx.append(t)
        assert ctx.freq == Counter(tokens)


class TestProviders:
    def test_constant_scores(self):
        vals = ConstantScores(0.25)(GenerationContext(), [0, 3, 5])
        assert vals.tolist() == [0.25, 0.25, 0.25]

    def test_mapped_scores_lookup_and_default(self, seven_vocab):
        provider = MappedScores(seven_vocab, {"analyze": 0.9}, default=0.1)
        vals = provider(GenerationContext(), [0, 1])
        assert vals.tolist() == [0.9, 0.1]

    def test_mapped_scores_missing_token_without_default(self, seven_vocab):
        provider = MappedScores(seven_vocab, {"analyze": 0.9})
        with pytest.raises(KeyError, match="optimize"):
            provider(GenerationContext(), [0, 1])

    def test_keyword_relevance_fraction(self, seven_vocab):
        provider = KeywordRelevance(seven_vocab, ("func", "task"))
        vals = provider(GenerationContext(), [seven_vocab.index["function"], seven_vocab.index["data"]])
        assert vals.tolist() == [0.5, 0.0]

    def test_embedding_alignment_empty_history_is_neutral(self, seven_vocab):
        table = synthetic_table(seven_vocab, dim=8, seed=3)
        provider = EmbeddingAlignment(table, seven_vocab)
        vals = provider(GenerationContext(), [0, 1, 2])
        assert vals.tolist() == [0.0, 0.0, 0.0]

    def test_embedding_alignment_matches_direct_cosine(self, seven_vocab):
        table = synthetic_table(seven_vocab, dim=8, seed=3)
        provider = EmbeddingAlignment(table, seven_vocab)
        ctx = GenerationContext()
        for tok in ("data", "errors"):
            ctx.append(seven_vocab.index[tok])
        vals = provider(ctx, [0, 1])
        ctx_vec = context_embedding(ctx.history, table, seven_vocab)
        assert vals[0] == pytest.approx(cosine(table.vector("analyze"), ctx_vec), abs=1e-12)
        assert vals[1] == pytest.approx(cosine(table.vector("optimize"), ctx_vec), abs=1e-12)

    def test_embedding_alignment_releases_a_reordered_table(self, seven_vocab):
        in_order = synthetic_table(seven_vocab, dim=8, seed=3)
        reversed_vocab = Vocabulary.from_tokens(seven_vocab.tokens[::-1])
        table = EmbeddingTable(reversed_vocab, in_order.matrix[::-1].copy())
        matrix = weakref.ref(table.matrix)
        provider = EmbeddingAlignment(table, seven_vocab)
        del table
        assert matrix() is None  # only the reordered copy is kept
        ctx = GenerationContext()
        ctx.append(seven_vocab.index["data"])
        expected = EmbeddingAlignment(in_order, seven_vocab)(ctx, [0, 1, 2])
        assert provider(ctx, [0, 1, 2]).tolist() == expected.tolist()


class TestPipelineFixture:
    def test_stage_one_thresholds(self, seven_dist):
        (_, bd), _ = run_fixture_step(seven_dist, inject_tables=False)
        assert bd.entropy == pytest.approx(SEVEN_ENTROPY, abs=1e-12)
        assert bd.sigma == 0.6  # prior: the entropy window is empty
        assert bd.alpha == pytest.approx(SEVEN_ENTROPY - 0.18, abs=1e-9)
        assert bd.beta == pytest.approx(SEVEN_ENTROPY + 0.18, abs=1e-9)

    def test_stage_two_candidates(self, seven_dist, seven_vocab):
        (_, bd), _ = run_fixture_step(seven_dist, inject_tables=False)
        names = [c.token for c in bd.candidates]
        assert names == ["analyze", "optimize", "function", "tasks"]

    def test_stage_three_scores(self, seven_dist):
        (_, bd), _ = run_fixture_step(seven_dist, inject_tables=False)
        coh = [c.coherence for c in bd.candidates]
        comp = [c.composite for c in bd.candidates]
        rew = [c.reward for c in bd.candidates]
        assert coh == pytest.approx(EXPECTED_COHERENCE, abs=1e-6)
        assert comp == pytest.approx(EXPECTED_COMPOSITE, abs=1e-6)
        assert rew == pytest.approx(EXPECTED_REWARD, abs=1e-6)

    def test_final_probabilities_formula_path(self, seven_dist):
        (_, bd), _ = run_fixture_step(seven_dist, inject_tables=False)
        final = [c.final_probability for c in bd.candidates]
        assert final == pytest.approx(EXPECTED_FINAL_FORMULA, abs=1e-6)
        assert final == pytest.approx((0.28, 0.26, 0.24, 0.22), abs=0.015)

    def test_final_probabilities_injected_path(self, seven_dist):
        (_, bd), _ = run_fixture_step(seven_dist, inject_tables=True)
        final = [c.final_probability for c in bd.candidates]
        assert final == pytest.approx(EXPECTED_FINAL_INJECTED, abs=1e-6)
        assert final == pytest.approx((0.28, 0.26, 0.24, 0.22), abs=0.01)

    def test_adjusted_weights_recorded_unnormalised(self, seven_dist):
        (_, bd), _ = run_fixture_step(seven_dist, inject_tables=True)
        weights = {c.token: c.adjusted_weight for c in bd.candidates}
        assert weights["analyze"] == pytest.approx(0.175 * math.exp(1.72), abs=1e-9)
        assert weights["tasks"] == pytest.approx(0.165 * math.exp(1.54), abs=1e-9)

    def test_step_leaves_the_context_unchanged(self, seven_dist):
        # simlm.drive appends the token and pushes the entropy for every sampler.
        _, ctx = run_fixture_step(seven_dist, inject_tables=False)
        assert ctx.history == []
        assert not ctx.freq
        assert list(ctx.entropy_window) == []

    def test_temperature_half_squares_the_final_distribution(self, seven_dist):
        cfg = AstsConfig(temperature=0.5)
        (_, bd), _ = run_fixture_step(seven_dist, inject_tables=True, cfg=cfg)
        base = np.asarray(EXPECTED_FINAL_INJECTED)
        expected = base**2 / np.sum(base**2)
        final = [c.final_probability for c in bd.candidates]
        assert final == pytest.approx(expected, abs=1e-5)

    def test_breakdown_json_roundtrip(self, seven_dist):
        (final, bd), _ = run_fixture_step(seven_dist, inject_tables=False)
        tok = sample(final, Rng(0))
        d = bd.to_json_dict(tok)
        assert d["chosen_id"] == tok
        assert len(d["candidates"]) == 4
        assert d["candidates"][0]["token"] == "analyze"

    def test_deterministic_replay(self, seven_dist):
        (final_a, bd_a), _ = run_fixture_step(seven_dist, inject_tables=False)
        (final_b, bd_b), _ = run_fixture_step(seven_dist, inject_tables=False)
        tok_a, tok_b = sample(final_a, Rng(17)), sample(final_b, Rng(17))
        assert tok_a == tok_b
        assert bd_a.to_json_dict(tok_a) == bd_b.to_json_dict(tok_b)

    def test_eq13_form_matches_inline_computation(self, seven_dist):
        cfg = AstsConfig(adjust_form="eq13")
        (_, bd), _ = run_fixture_step(seven_dist, inject_tables=True, cfg=cfg)
        p_in = np.array([0.175, 0.172, 0.170, 0.165])
        r = np.array([0.83, 0.81, 0.74, 0.70])
        expected = p_in * np.exp(r - p_in)
        expected /= expected.sum()
        final = [c.final_probability for c in bd.candidates]
        assert final == pytest.approx(expected, abs=1e-9)


class TestPipelineBehaviour:
    def test_all_adjustments_off_reduces_to_plain_sampling(self):
        # Wide band + zero weights: the step must reproduce core.sample.
        dist = make_dist([0.3, 0.3, 0.2, 0.2])
        cfg = AstsConfig(k1=1000.0, k2=1000.0, lambda1=0, lambda2=0, lambda3=0, mu1=0, mu2=0, mu3=0)
        for seed in range(20):
            direct = sample(dist, Rng(seed))
            final, bd = asts_step(dist, GenerationContext(), cfg, ConstantScores(), ConstantScores())
            assert sample(final, Rng(seed)) == direct
            finals = {c.token_id: c.final_probability for c in bd.candidates}
            for tid, p in finals.items():
                assert p == pytest.approx(dist.prob(tid), abs=1e-12)

    def test_zero_probability_tokens_never_candidates(self):
        dist = make_dist([0.5, 0.0, 0.5])
        cfg = AstsConfig(k1=1000.0, k2=1000.0)
        _, bd = asts_step(dist, GenerationContext(), cfg, ConstantScores(), ConstantScores())
        assert {c.token_id for c in bd.candidates} == {0, 2}

    def test_sigma_tracks_window_after_warmup(self, seven_dist):
        ctx = GenerationContext(window_w=8)
        ctx.push_entropy(1.0)
        ctx.push_entropy(2.0)
        ctx.push_entropy(3.0)
        _, bd = asts_step(seven_dist, ctx, FIXTURE_CFG, ConstantScores(), ConstantScores())
        assert bd.sigma == pytest.approx(math.sqrt(2 / 3), abs=1e-12)

    def test_higher_frequency_strictly_lowers_adjusted_weight(self):
        # Tokens 0 and 1 are identical except for context frequency.
        dist = make_dist([1.0] * 16)
        ctx = GenerationContext()
        for _ in range(5):
            ctx.append(0)
        ctx.append(1)
        cfg = AstsConfig(mu3=0.5)
        _, bd = asts_step(dist, ctx, cfg, ConstantScores(0.5), ConstantScores(0.5))
        weights = {c.token_id: c.adjusted_weight for c in bd.candidates}
        assert weights[1] > weights[0]
        assert weights[2] > weights[1]  # unseen beats seen-once

    def test_provider_wrong_shape_raises(self, seven_dist):
        def bad(ctx, ids):
            return np.zeros(len(ids) + 1)

        with pytest.raises(ProviderError, match="alignment"):
            asts_step(seven_dist, GenerationContext(), FIXTURE_CFG, bad, ConstantScores())

    def test_provider_nan_names_the_token(self, seven_dist):
        def bad(ctx, ids):
            out = np.zeros(len(ids))
            out[0] = np.nan
            return out

        with pytest.raises(ProviderError, match="analyze"):
            asts_step(seven_dist, GenerationContext(), FIXTURE_CFG, bad, ConstantScores())

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 10**400, "high"])
    def test_unusable_constant_provider_is_checked_like_any_other(self, seven_dist, value):
        # Only a finite float constant skips the checks; every other value keeps their message.
        with pytest.raises(ProviderError, match="alignment provider (failed|returned a non-finite score)"):
            asts_step(seven_dist, GenerationContext(), FIXTURE_CFG, ConstantScores(value), ConstantScores())

    def test_provider_exception_wrapped(self, seven_dist):
        def bad(ctx, ids):
            raise RuntimeError("backend unavailable")

        with pytest.raises(ProviderError, match="relevance provider failed"):
            asts_step(seven_dist, GenerationContext(), FIXTURE_CFG, ConstantScores(), bad)

    def test_missing_embedding_token_surfaces_as_provider_error(self, seven_vocab):
        # Rejected when the alignment is built, before any step runs.
        small = Vocabulary.from_tokens(("analyze", "optimize"))
        table = synthetic_table(small, dim=8, seed=0)
        with pytest.raises(ProviderError, match="5 vocabulary tokens lack embeddings"):
            EmbeddingAlignment(table, seven_vocab)

    @given(
        st.lists(st.floats(min_value=1e-4, max_value=1e4), min_size=2, max_size=16),
        st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_exp_shift_invariance(self, weights, c):
        # Adding a constant to every reward must not move the final probabilities.
        dist = make_dist(weights)

        def rew_base(ctx, ids):
            return np.sin(np.asarray(ids, dtype=np.float64) + 1.0)

        def rew_shifted(ctx, ids):
            return rew_base(ctx, ids) + c

        cfg = AstsConfig(k1=50.0, k2=50.0)
        _, bd_a = asts_step(
            dist, GenerationContext(), cfg, ConstantScores(), ConstantScores(), reward_fn=rew_base
        )
        _, bd_b = asts_step(
            dist, GenerationContext(), cfg, ConstantScores(), ConstantScores(), reward_fn=rew_shifted
        )
        fin_a = [cand.final_probability for cand in bd_a.candidates]
        fin_b = [cand.final_probability for cand in bd_b.candidates]
        assert fin_a == pytest.approx(fin_b, abs=1e-9)

    @given(
        st.lists(st.floats(min_value=1e-4, max_value=1e4), min_size=2, max_size=16),
        st.integers(0, 2**31 - 1),
    )
    def test_final_distribution_always_normalised(self, weights, seed):
        dist = make_dist(weights)
        final, bd = asts_step(dist, GenerationContext(), AstsConfig(), ConstantScores(), ConstantScores())
        total = sum(c.final_probability for c in bd.candidates)
        assert total == pytest.approx(1.0, abs=1e-9)
        assert sample(final, Rng(seed)) in {c.token_id for c in bd.candidates}


def _random_table_file(tmp_path, vocab, dim, seed):
    """A text embedding file of gaussian vectors, read back through load_table."""
    gen = np.random.default_rng(seed)
    path = tmp_path / f"emb{dim}.txt"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(vocab)} {dim}\n")
        for token in vocab.tokens:
            fh.write(token + " " + " ".join(repr(float(v)) for v in gen.standard_normal(dim)) + "\n")
    return load_table(path)


class TestArrayProvidersEqualScalarLoops:
    """The array providers give bit for bit the per-candidate scalar values."""

    @pytest.mark.parametrize("source", ["synthetic", "file"])
    @pytest.mark.parametrize("pooling", ["mean", "decay"])
    @pytest.mark.parametrize("dim", [3, 16, 64])
    @pytest.mark.parametrize("context_window", [0, 5])
    def test_embedding_alignment_equals_cosine(self, tmp_path, source, pooling, dim, context_window):
        vocab = default_vocabulary(120)
        if source == "synthetic":
            table = synthetic_table(vocab, dim=dim, seed=dim)
        else:
            table = _random_table_file(tmp_path, vocab, dim, seed=dim)
        provider = EmbeddingAlignment(table, vocab, pooling=pooling, decay=0.7, context_window=context_window)
        gen = np.random.default_rng(dim + context_window)
        for _ in range(30):
            ctx = GenerationContext(history=[int(t) for t in gen.integers(0, len(vocab), gen.integers(1, 40))])
            ids = sorted(set(gen.integers(0, len(vocab), gen.integers(1, 118)).tolist()))
            ctx_vec = context_embedding(
                ctx.history, table, vocab, pooling=pooling, decay=0.7, context_window=context_window
            )
            expected = [cosine(table.vector(vocab.tokens[i]), ctx_vec) for i in ids]
            assert provider(ctx, ids).tolist() == expected

    def test_embedding_alignment_errors_name_the_token(self, seven_vocab):
        # A partial or zero-norm table is rejected when the alignment is built,
        # naming the first such token in vocabulary order.
        tokens = [t for t in SEVEN_TOKENS if t != "data"]
        rows = np.ones((len(tokens), 2))
        rows[tokens.index("solve")] = 0.0
        partial = EmbeddingTable(Vocabulary.from_tokens(tokens), rows)
        with pytest.raises(ProviderError, match=r"1 vocabulary tokens lack embeddings \(first missing: 'data'\)"):
            EmbeddingAlignment(partial, seven_vocab)
        full = EmbeddingTable(Vocabulary.from_tokens([*tokens, "data"]), np.vstack([rows, np.ones((1, 2))]))
        with pytest.raises(ProviderError, match="'solve' has a zero-norm embedding"):
            EmbeddingAlignment(full, seven_vocab)
        in_order = np.ones((len(SEVEN_TOKENS), 2))
        in_order[[SEVEN_TOKENS.index("tasks"), SEVEN_TOKENS.index("solve")]] = 0.0
        with pytest.raises(ProviderError, match="'tasks' has a zero-norm embedding"):
            EmbeddingAlignment(EmbeddingTable(seven_vocab, in_order), seven_vocab)

    @pytest.mark.parametrize("source", ["synthetic", "file"])
    def test_table_in_vocabulary_order_is_used_without_a_copy(self, tmp_path, source):
        vocab = default_vocabulary(64)
        if source == "synthetic":
            table = synthetic_table(vocab, dim=8, seed=2)
        else:
            table = _random_table_file(tmp_path, vocab, 8, seed=2)
        assert np.shares_memory(EmbeddingAlignment(table, vocab)._rows, table.matrix)

    def test_table_in_another_order_is_copied_into_vocabulary_order(self, tmp_path):
        vocab = default_vocabulary(64)
        ordered = synthetic_table(vocab, dim=8, seed=2)
        tokens = ("extra", *reversed(vocab.tokens))
        matrix = np.vstack([np.ones((1, 8)), ordered.matrix[::-1]])
        reordered = EmbeddingTable(Vocabulary.from_tokens(tokens), matrix)
        rows = EmbeddingAlignment(reordered, vocab)._rows
        assert not np.shares_memory(rows, matrix)
        assert rows.tobytes() == ordered.matrix.tobytes()
        ctx = GenerationContext(history=[3, 9, 3, 40])
        ids = list(range(0, 64, 3))
        assert (
            EmbeddingAlignment(reordered, vocab, pooling="decay")(ctx, ids).tolist()
            == EmbeddingAlignment(ordered, vocab, pooling="decay")(ctx, ids).tolist()
        )

    def test_keyword_relevance_equals_token_loop(self):
        vocab = default_vocabulary(300)
        keywords = ("tok0", "1", "99", "tok2")
        provider = KeywordRelevance(vocab, keywords)
        ids = list(range(0, 300, 7))
        expected = [sum(1 for k in keywords if k in vocab.tokens[i]) / len(keywords) for i in ids]
        assert provider(GenerationContext(), ids).tolist() == expected


class TestStepColumnsEqualScalarFormulas:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(min_value=1e-4, max_value=1e4), min_size=2, max_size=40),
        st.lists(st.integers(0, 39), max_size=30),
        st.floats(min_value=0.0, max_value=3.0),
        st.sampled_from(ADJUST_FORMS),
    )
    def test_columns_equal_scalar_scores(self, weights, history, k, adjust_form):
        dist = make_dist(weights)
        vocab = dist.vocab
        history = [t % len(vocab) for t in history]
        cfg = AstsConfig(k1=k, k2=k, eps_div=0.5, adjust_form=adjust_form)
        alignment = EmbeddingAlignment(synthetic_table(vocab, dim=8, seed=1), vocab, pooling="decay")
        relevance = KeywordRelevance(vocab, ("t1", "2"))
        ctx = GenerationContext(history=list(history))
        before = GenerationContext(history=list(history))
        _, bd = asts_step(dist, ctx, cfg, alignment, relevance)

        h = bd.entropy
        for c in bd.candidates:
            freq = freq_of(before, c.token_id)
            assert c.probability_in == dist.prob(c.token_id)
            assert c.surprisal == surprisal(dist, c.token_id)
            assert c.coherence == coherence_score(c.surprisal, h)
            assert c.diversity == diversity_score(freq, cfg.eps_div)
            assert c.repetition_penalty == repetition_penalty(freq, len(before))
            assert c.composite == composite_score(c.coherence, c.semantic_alignment, c.diversity, cfg)
            assert c.reward == reward(c.semantic_alignment, c.relevance, c.repetition_penalty, cfg)
        assert bd.to_json_dict(bd.token_ids[0])["candidates"] == [candidate_to_json_dict(c) for c in bd.candidates]

"""Synthetic LM profiles and the shared decode loop."""

import copy
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from decodekit.asts import AstsConfig, ConstantScores, GenerationContext, asts_step
from decodekit.baselines import MirostatState, greedy_restrict, nucleus_restrict, topk_restrict
from decodekit.core import Rng, default_vocabulary, entropy, sample
from decodekit.harness import DEFAULTS, build_sampler
from decodekit.lts import LtsConfig, lts_restrict
from decodekit.samplers import SAMPLER_NAMES, AstsSampler, MirostatSampler, TruncationSampler
from decodekit.simlm import KINDS, LmProfile, drive, next_distribution

VOCAB = default_vocabulary(32)
GREEDY = TruncationSampler(greedy_restrict)


def model(profile, vocab=VOCAB):
    """``drive``'s ``next_fn`` for a synthetic profile."""
    return lambda history, step: next_distribution(profile, history, vocab)


class TestProfile:
    def test_kind_whitelist(self):
        with pytest.raises(ValueError, match="kind"):
            LmProfile(kind="chaotic")

    def test_gamma_below_one_rejected(self):
        with pytest.raises(ValueError, match="loop_gamma"):
            LmProfile(kind="loop_prone", loop_gamma=0.5)

    def test_temperature_positive(self):
        with pytest.raises(ValueError, match="base_temperature"):
            LmProfile(base_temperature=0.0)

    def test_seed_range(self):
        with pytest.raises(ValueError, match="seed"):
            LmProfile(seed=-1)
        with pytest.raises(ValueError, match="seed"):
            LmProfile(seed=2**64)


class TestNextDistribution:
    def test_output_is_valid_distribution(self):
        for kind in KINDS:
            dist = next_distribution(LmProfile(kind=kind), [1, 2, 3], VOCAB)
            assert abs(float(dist.probs.sum()) - 1.0) <= 1e-9
            assert np.all(dist.probs >= 0)

    def test_deterministic_for_same_history(self):
        profile = LmProfile(kind="mixed", seed=5)
        a = next_distribution(profile, [4, 9, 2], VOCAB)
        b = next_distribution(profile, [4, 9, 2], VOCAB)
        assert a.probs.tolist() == b.probs.tolist()

    def test_different_histories_differ(self):
        profile = LmProfile(kind="mixed", seed=5)
        a = next_distribution(profile, [4, 9, 2], VOCAB)
        b = next_distribution(profile, [4, 9, 3], VOCAB)
        assert a.probs.tolist() != b.probs.tolist()

    def test_history_outside_recency_window_ignored(self):
        profile = LmProfile(kind="mixed", recency_window=4, seed=5)
        a = next_distribution(profile, [1, 2, 3, 4, 5, 6], VOCAB)
        b = next_distribution(profile, [9, 9, 3, 4, 5, 6], VOCAB)
        assert a.probs.tolist() == b.probs.tolist()

    def test_flat_has_higher_entropy_than_peaked(self):
        flat = LmProfile(kind="flat", base_temperature=10.0, seed=1)
        peaked = LmProfile(kind="peaked", base_temperature=0.3, seed=1)
        history = [3, 1, 4]
        assert entropy(next_distribution(flat, history, VOCAB)) > entropy(
            next_distribution(peaked, history, VOCAB)
        )

    def test_loop_gamma_boosts_recent_token(self):
        # After emitting token a, gamma=3 must strictly raise P(a).
        history = [7]
        base = LmProfile(kind="loop_prone", loop_gamma=1.0, seed=2)
        boosted = LmProfile(kind="loop_prone", loop_gamma=3.0, seed=2)
        p_base = next_distribution(base, history, VOCAB).prob(7)
        p_boost = next_distribution(boosted, history, VOCAB).prob(7)
        assert p_boost > p_base

    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(0, 31), max_size=12))
    def test_loop_gamma_boost_holds_for_any_seed(self, seed, history):
        base = LmProfile(kind="loop_prone", loop_gamma=1.0, seed=seed)
        boosted = LmProfile(kind="loop_prone", loop_gamma=3.0, seed=seed)
        for tok in set(history[-4:]):
            p0 = next_distribution(base, history, VOCAB).prob(tok)
            p1 = next_distribution(boosted, history, VOCAB).prob(tok)
            assert p1 > p0

    def test_empty_history_supported(self):
        dist = next_distribution(LmProfile(kind="peaked"), [], VOCAB)
        assert abs(float(dist.probs.sum()) - 1.0) <= 1e-9


class TestGenerate:
    def test_max_tokens_one(self):
        tokens, trace = drive(model(LmProfile()), GREEDY, seed=0, max_tokens=1)
        assert len(tokens) == 1
        assert len(trace) == 1

    def test_greedy_is_run_invariant(self):
        profile = LmProfile(kind="peaked", seed=3)
        runs = [drive(model(profile), GREEDY, seed=9, max_tokens=25) for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]

    def test_full_run_determinism_across_samplers(self):
        profile = LmProfile(kind="mixed", seed=3)
        samplers = [
            GREEDY,
            TruncationSampler(partial(topk_restrict, k=5)),
            TruncationSampler(partial(nucleus_restrict, p=0.9)),
            MirostatSampler(MirostatState.initial(target_tau=3.0, eta=0.1)),
            TruncationSampler(partial(lts_restrict, cfg=LtsConfig())),
            AstsSampler(AstsConfig(), ConstantScores(), ConstantScores()),
        ]
        for make in samplers:
            a = drive(model(profile), _fresh(make), seed=11, max_tokens=20)
            b = drive(model(profile), _fresh(make), seed=11, max_tokens=20)
            assert a == b, type(make).__name__

    def test_different_seeds_differ(self):
        profile = LmProfile(kind="flat", base_temperature=10.0, seed=3)
        nucleus = TruncationSampler(partial(nucleus_restrict, p=0.95))
        a, _ = drive(model(profile), nucleus, seed=1, max_tokens=30)
        b, _ = drive(model(profile), nucleus, seed=2, max_tokens=30)
        assert a != b

    def test_prompt_seeds_context_but_not_output(self):
        profile = LmProfile(kind="peaked", seed=3)
        tokens, _ = drive(model(profile), GREEDY, seed=0, max_tokens=5, prompt=(1, 2, 3))
        assert len(tokens) == 5
        # a different prompt steers the conditional distributions
        other, _ = drive(model(profile), GREEDY, seed=0, max_tokens=5, prompt=(4, 5, 6))
        assert tokens != other

    def test_entropy_trace_matches_replayed_distributions(self):
        profile = LmProfile(kind="mixed", seed=8)
        tokens, trace = drive(model(profile), GREEDY, seed=0, max_tokens=15)
        history = []
        for tok, h in zip(tokens, trace):
            dist = next_distribution(profile, history, VOCAB)
            assert h == pytest.approx(entropy(dist), abs=1e-12)
            history.append(tok)

    def test_asts_sampler_collects_breakdowns(self):
        sampler = AstsSampler(AstsConfig(), ConstantScores(), ConstantScores())
        tokens, _ = drive(model(LmProfile(seed=1)), sampler, seed=4, max_tokens=8)
        assert len(sampler.breakdowns) == 8
        assert all(t in b.token_ids for b, t in zip(sampler.breakdowns, tokens))


@pytest.mark.parametrize("name", SAMPLER_NAMES)
def test_drive_keeps_the_context_for_every_sampler(name):
    cfg = copy.deepcopy(DEFAULTS)
    cfg["sampler"] = name
    cfg["asts"]["window_w"] = 5
    sampler = build_sampler(cfg, VOCAB)
    profile = LmProfile(kind="mixed", seed=5)
    prompt = (3, 1, 4)
    seen = []  # (caller, history, its length) for every next_fn and restrict call

    def next_fn(history, step):
        seen.append(("next", history, len(history)))
        return next_distribution(profile, history, VOCAB)

    restrict = sampler.restrict

    def recording_restrict(dist, history):
        seen.append(("restrict", history, len(history)))
        return restrict(dist, history)

    sampler.restrict = recording_restrict
    tokens, trace = drive(next_fn, sampler, seed=2, max_tokens=12, prompt=prompt)
    history = seen[0][1]
    assert all(h is history for _, h, _ in seen)
    assert [(who, n) for who, _, n in seen] == [
        (who, len(prompt) + step) for step in range(12) for who in ("next", "restrict")
    ]
    assert history == [*prompt, *tokens]
    if name == "asts":
        ctx = sampler.ctx
        assert ctx.history == history
        assert ctx.freq == Counter(history)
        assert list(ctx.entropy_window) == trace[-sampler.cfg.window_w :]


def test_asts_sampler_sizes_its_window_from_its_config():
    """The entropy window is ``AstsConfig.window_w``: drive equals a hand loop over asts_step."""
    cfg = AstsConfig(window_w=2)
    vocab = default_vocabulary(64)
    profile = LmProfile(kind="mixed", seed=3)
    sampler = AstsSampler(cfg, ConstantScores(), ConstantScores())
    tokens, trace = drive(model(profile, vocab), sampler, seed=3, max_tokens=60)

    rng = Rng(3)
    ctx = GenerationContext(window_w=2)
    want_tokens, want_trace = [], []
    for _ in range(60):
        dist = next_distribution(profile, ctx.history, vocab)
        final, _ = asts_step(dist, ctx, cfg, ConstantScores(), ConstantScores())
        token = sample(final, rng)
        ctx.append(token)
        ctx.push_entropy(entropy(dist))
        want_tokens.append(token)
        want_trace.append(entropy(dist))
    assert (tokens, trace) == (want_tokens, want_trace)


def _fresh(sampler):
    """Stateful samplers cannot be reused across runs; rebuild them."""
    if isinstance(sampler, MirostatSampler):
        return MirostatSampler(MirostatState.initial(target_tau=3.0, eta=0.1))
    if isinstance(sampler, AstsSampler):
        return AstsSampler(AstsConfig(), ConstantScores(), ConstantScores())
    return sampler

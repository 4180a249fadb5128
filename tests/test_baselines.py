"""Baseline samplers: greedy, top-k, nucleus, mirostat controller."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decodekit.baselines import greedy_restrict, mirostat_step, nucleus_restrict, topk_restrict
from decodekit.core import Rng, TokenDistribution, Vocabulary, default_vocabulary, sample, surprisal
from decodekit.harness import DEFAULTS, build_sampler
from decodekit.samplers import MirostatSampler


def greedy_token(dist):
    """The token the greedy rule keeps."""
    (token,) = greedy_restrict(dist).support().tolist()
    return token


def mirostat_draw(dist, sampler, rng):
    """One Mirostat step as ``simlm.drive`` takes it: cut at mu, draw, then update mu."""
    token = sample(mirostat_step(dist, sampler.mu), rng)
    sampler.observe(token, dist)
    return token


def make_dist(weights):
    w = np.asarray(weights, dtype=np.float64)
    vocab = Vocabulary.from_tokens(f"t{i}" for i in range(w.size))
    return TokenDistribution(vocab, w / w.sum())


weight_lists = st.lists(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=64,
)


class TestGreedy:
    def test_fixture_argmax(self, seven_dist, seven_vocab):
        assert seven_vocab.tokens[greedy_token(seven_dist)] == "analyze"

    def test_one_hot(self):
        assert greedy_token(make_dist([0, 0, 1])) == 2

    def test_tie_takes_lower_id(self):
        assert greedy_token(make_dist([0.2, 0.4, 0.4])) == 1

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4096),
        st.lists(st.sampled_from([0.0, 0.0, 1e-300, 0.5, 1.0, 3.0]), min_size=1, max_size=4),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, float(np.nextafter(1.0, 0.0))]),
    )
    def test_draw_is_the_argmax_at_either_end_of_the_uniform(self, size, levels, seed, u):
        # Few weight levels over many tokens: ties everywhere, zeros included.
        weights = np.random.default_rng(seed).choice(levels, size=size)
        if not weights.any():
            weights[-1] = 1.0
        dist = make_dist(weights)
        rng = Rng(0)
        rng.uniform = lambda: u
        assert sample(greedy_restrict(dist), rng) == int(np.argmax(dist.probs))


class TestTopK:
    def test_k_one_is_greedy(self, seven_dist):
        for seed in range(20):
            assert sample(topk_restrict(seven_dist, 1), Rng(seed)) == greedy_token(seven_dist)

    def test_fixture_k_two(self, seven_dist):
        out = topk_restrict(seven_dist, 2)
        assert out.support().tolist() == [0, 1]
        assert out.prob(0) == pytest.approx(0.504, abs=0.001)
        assert out.prob(1) == pytest.approx(0.496, abs=0.001)

    def test_full_k_matches_core_sample(self, seven_dist):
        assert topk_restrict(seven_dist, 7).probs == pytest.approx(seven_dist.probs, abs=1e-12)
        for seed in range(20):
            assert sample(topk_restrict(seven_dist, 7), Rng(seed)) == sample(seven_dist, Rng(seed))

    def test_k_clamped_to_support(self):
        out = topk_restrict(make_dist([0.6, 0.4, 0.0]), 10)
        assert out.support().tolist() == [0, 1]

    def test_k_below_one_rejected(self, seven_dist):
        with pytest.raises(ValueError):
            topk_restrict(seven_dist, 0)

    def test_tie_at_the_boundary_takes_lower_id(self):
        out = topk_restrict(make_dist([0.25, 0.25, 0.25, 0.25]), 2)
        assert out.support().tolist() == [0, 1]

    @given(weight_lists, st.integers(1, 64))
    def test_restricted_support_has_at_most_k(self, weights, k):
        out = topk_restrict(make_dist(weights), k)
        assert len(out.support()) <= k

    @given(weight_lists, st.integers(1, 64), st.integers(0, 2**31 - 1))
    def test_step_lands_in_truncated_support(self, weights, k, seed):
        dist = make_dist(weights)
        restricted = topk_restrict(dist, k)
        assert sample(restricted, Rng(seed)) in set(restricted.support().tolist())


class TestNucleus:
    def test_p_one_keeps_everything(self, seven_dist):
        out = nucleus_restrict(seven_dist, 1.0)
        assert out.probs == pytest.approx(seven_dist.probs, abs=1e-12)

    def test_fixture_p_035(self, seven_dist, seven_vocab):
        # 0.175 + 0.172 = 0.347 < 0.35, so a third token is needed (0.517).
        out = nucleus_restrict(seven_dist, 0.35)
        names = {seven_vocab.tokens[i] for i in out.support()}
        assert names == {"analyze", "optimize", "function"}

    def test_one_hot_any_p(self):
        dist = make_dist([0, 1, 0])
        for p in (0.01, 0.5, 1.0):
            assert nucleus_restrict(dist, p).support().tolist() == [1]

    @given(weight_lists, st.floats(0.01, 1.0))
    def test_prefix_minimal(self, weights, p):
        # Dropping the least probable member must fall below p.
        dist = make_dist(weights)
        out = nucleus_restrict(dist, p)
        kept = sorted(out.support().tolist(), key=lambda i: (-dist.prob(i), i))
        mass = sum(dist.prob(i) for i in kept)
        assert mass >= p - 1e-12
        if len(kept) > 1:
            assert mass - dist.prob(kept[-1]) < p

    @given(weight_lists, st.floats(0.01, 1.0), st.integers(0, 2**31 - 1))
    def test_step_lands_in_truncated_support(self, weights, p, seed):
        dist = make_dist(weights)
        restricted = nucleus_restrict(dist, p)
        assert sample(restricted, Rng(seed)) in set(restricted.support().tolist())


def mirostat_config(**section):
    cfg = copy.deepcopy(DEFAULTS)
    cfg["sampler"] = "mirostat"
    cfg["mirostat"].update(section)
    return cfg


class TestMirostat:
    def test_initial_state_defaults(self):
        vocab = default_vocabulary(8)
        sampler = build_sampler(mirostat_config(), vocab)()
        assert (sampler.mu, sampler.target_tau, sampler.eta) == (6.0, 3.0, 0.1)  # mu0 null = 2 * tau
        assert build_sampler(mirostat_config(tau=2.5, mu0=None), vocab)().mu == 5.0
        assert build_sampler(mirostat_config(mu0=4.5), vocab)().mu == 4.5

    def test_one_hot_raises_mu(self):
        # s = 0 < tau, so the budget grows by eta * tau.
        dist = make_dist([0, 1])
        sampler = MirostatSampler(target_tau=3.0, eta=0.1, mu=6.0)
        tok = mirostat_draw(dist, sampler, Rng(0))
        assert tok == 1
        assert sampler.mu == pytest.approx(6.0 + 0.1 * 3.0, abs=1e-12)

    def test_eta_zero_freezes_mu(self, seven_dist):
        sampler = MirostatSampler(target_tau=3.0, eta=0.0, mu=6.0)
        rng = Rng(3)
        for _ in range(10):
            mirostat_draw(seven_dist, sampler, rng)
        assert sampler.mu == 6.0

    def test_uniform_twenty_long_run_average(self):
        # Every draw from uniform-20 has surprisal ln 20 ~= 2.996.
        dist = make_dist([1.0] * 20)
        sampler = MirostatSampler(target_tau=3.0, eta=0.1, mu=6.0)
        rng = Rng(1234)
        total = 0.0
        n = 5000
        for _ in range(n):
            tok = mirostat_draw(dist, sampler, rng)
            total += surprisal(dist, tok)
        assert total / n == pytest.approx(min(3.0, math.log(20)), abs=0.3)

    def test_low_budget_cuts_high_surprisal_tokens(self, seven_dist):
        # mu below every fixture surprisal (min 1.743): argmax fallback.
        for seed in range(10):
            assert sample(mirostat_step(seven_dist, 1.0), Rng(seed)) == 0

    def test_budget_between_members_truncates(self, seven_dist, seven_vocab):
        # Fixture surprisals: 1.743, 1.760, 1.772, 1.802, 2.120, 2.303, 2.323.
        restricted = mirostat_step(seven_dist, 1.9)
        seen = set()
        rng = Rng(7)
        for _ in range(300):
            seen.add(seven_vocab.tokens[sample(restricted, rng)])
        assert seen == {"analyze", "optimize", "function", "tasks"}

    def test_invalid_state_rejected(self):
        with pytest.raises(ValueError, match="mirostat mu must be finite, got nan"):
            MirostatSampler(target_tau=3.0, eta=0.1, mu=float("nan"))
        # s = 0 on a one-hot, so the update adds eta * tau = inf.
        sampler = MirostatSampler(target_tau=3.0, eta=1e308, mu=6.0)
        with pytest.raises(ValueError, match="mirostat mu must be finite, got inf"):
            sampler.observe(1, make_dist([0, 1]))
        assert sampler.mu == 6.0

    @given(
        st.lists(weight_lists, min_size=1, max_size=20),
        st.integers(0, 2**31 - 1),
        st.floats(0.0, 1.0),
        st.floats(0.5, 5.0),
    )
    def test_mu_update_is_exactly_affine(self, all_weights, seed, eta, tau):
        # Replay the trajectory and re-derive every mu from the update rule.
        rng = Rng(seed)
        sampler = MirostatSampler(target_tau=tau, eta=eta, mu=2.0 * tau)
        for weights in all_weights:
            dist = make_dist(weights)
            before = sampler.mu
            tok = mirostat_draw(dist, sampler, rng)
            s = surprisal(dist, tok)
            assert sampler.mu == pytest.approx(before - eta * (s - tau), abs=1e-12)

"""Locally typical sampling: band and mass typical-set construction."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import SEVEN_ENTROPY, SEVEN_PROBS
from decodekit.core import Rng, TokenDistribution, Vocabulary, sample
from decodekit.lts import LtsConfig, _deviations, lts_restrict, typical_set_band, typical_set_mass


def members(dist):
    return set(dist.support().tolist())


def deviation(dist, token_id):
    """|surprisal - entropy| of ``token_id``, as the typical-set rules rank it."""
    ids, surp, h = _deviations(dist)
    return float(np.abs(surp - h)[ids.tolist().index(token_id)])


def make_dist(weights):
    w = np.asarray(weights, dtype=np.float64)
    vocab = Vocabulary.from_tokens(f"t{i}" for i in range(w.size))
    return TokenDistribution(vocab, w / w.sum())


weight_lists = st.lists(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=32,
)

# Deviations of the seven-token fixture, hand-sorted ascending:
# tasks 0.1168, function 0.1467, optimize 0.1584, analyze 0.1757,
# data 0.2016, errors 0.3839, solve 0.4041.
FIXTURE_DEVIATION_ORDER = ["tasks", "function", "optimize", "analyze", "data", "errors", "solve"]


class TestConfig:
    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            LtsConfig(mode="typical")

    def test_negative_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            LtsConfig(mode="band", epsilon=-0.1)

    def test_tau_bounds(self):
        with pytest.raises(ValueError, match="tau"):
            LtsConfig(tau_mass=0.0)
        with pytest.raises(ValueError, match="tau"):
            LtsConfig(tau_mass=1.5)
        LtsConfig(tau_mass=1.0)  # closed upper end is legal


class TestDeviation:
    def test_fixture_head_token(self, seven_dist):
        # surprisal 1.7430 vs entropy 1.9186
        assert deviation(seven_dist, 0) == pytest.approx(0.18, abs=0.005)

    def test_exact_typicality_is_zero(self):
        # p = e^-H for every token of a uniform distribution
        dist = make_dist([1, 1, 1, 1])
        for i in range(4):
            assert deviation(dist, i) == pytest.approx(0.0, abs=1e-12)

    def test_zero_probability_token_is_never_ranked(self):
        ids, _, _ = _deviations(make_dist([0, 1]))
        assert ids.tolist() == [1]


class TestBand:
    def test_fixture_band(self, seven_dist, seven_vocab):
        d = typical_set_band(seven_dist, 1.74, 2.10)
        names = {seven_vocab.tokens[i] for i in members(d)}
        assert names == {"analyze", "optimize", "function", "tasks"}

    def test_full_band_is_identity(self, seven_dist):
        d = typical_set_band(seven_dist, 0.0, np.inf)
        assert members(d) == set(range(7))
        assert d.probs == pytest.approx(seven_dist.probs, abs=1e-12)

    def test_empty_band_falls_back_to_min_deviation(self, seven_dist, seven_vocab):
        d = typical_set_band(seven_dist, 100.0, 100.0)
        assert {seven_vocab.tokens[i] for i in members(d)} == {"tasks"}
        assert d.prob(seven_vocab.id_of("tasks")) == pytest.approx(1.0)

    def test_fallback_tie_takes_lowest_id(self):
        # Uniform: every deviation is exactly 0, so the tie spans all ids.
        d = typical_set_band(make_dist([1, 1, 1]), 100.0, 100.0)
        assert members(d) == {0}

    @given(weight_lists, st.floats(0, 3), st.floats(0, 3), st.floats(0, 2), st.floats(0, 2))
    def test_band_monotone(self, weights, lo, width, grow_lo, grow_hi):
        # [a1, b1] inside [a2, b2] implies members(1) subset of members(2).
        dist = make_dist(weights)
        a1, b1 = lo, lo + width
        a2, b2 = lo - grow_lo, lo + width + grow_hi
        inner = typical_set_band(dist, a1, b1)
        outer = typical_set_band(dist, a2, b2)
        # The fallback singleton breaks set containment by design: skip when
        # the inner band came up empty but the outer did not.
        inner_raw = {int(i) for i in dist.support() if a1 <= -np.log(dist.prob(int(i))) <= b1}
        if inner_raw:
            assert members(inner) <= members(outer)


class TestMass:
    def test_tau_one_keeps_entire_support(self, seven_dist):
        d = typical_set_mass(seven_dist, 1.0)
        assert members(d) == set(range(7))

    def test_fixture_tau_point_two(self, seven_dist, seven_vocab):
        # prefix {tasks} has mass 0.165 < 0.2, so function joins: mass 0.335
        renorm = typical_set_mass(seven_dist, 0.2)
        names = {seven_vocab.tokens[i] for i in members(renorm)}
        assert names == {"tasks", "function"}
        assert renorm.prob(seven_vocab.id_of("tasks")) == pytest.approx(0.165 / 0.335, abs=1e-9)
        assert renorm.prob(seven_vocab.id_of("function")) == pytest.approx(0.170 / 0.335, abs=1e-9)

    def test_fixture_deviation_ranking(self, seven_dist, seven_vocab):
        # Growing tau must admit tokens in hand-computed deviation order.
        seen = []
        for tau in (0.16, 0.33, 0.5, 0.67, 0.8, 0.9, 1.0):
            d = typical_set_mass(seven_dist, tau)
            names = [seven_vocab.tokens[i] for i in members(d)]
            assert set(names) == set(FIXTURE_DEVIATION_ORDER[: len(names)])
            seen.append(len(names))
        assert seen == [1, 2, 3, 4, 5, 6, 7]

    def test_one_hot_any_tau(self):
        dist = make_dist([0, 1, 0])
        for tau in (0.01, 0.5, 1.0):
            assert members(typical_set_mass(dist, tau)) == {1}

    def test_tie_broken_by_ascending_id(self):
        # All four deviations are zero; tau 0.3 needs two quarter-mass tokens.
        d = typical_set_mass(make_dist([1, 1, 1, 1]), 0.3)
        assert members(d) == {0, 1}

    @given(weight_lists, st.floats(0.01, 1.0), st.floats(0.01, 1.0))
    def test_mass_monotone(self, weights, tau_a, tau_b):
        dist = make_dist(weights)
        lo, hi = sorted((tau_a, tau_b))
        assert members(typical_set_mass(dist, lo)) <= members(typical_set_mass(dist, hi))

    @given(weight_lists, st.floats(0.01, 1.0))
    def test_renormalized_proportional_to_original(self, weights, tau):
        # Brute-force proportionality check per member.
        dist = make_dist(weights)
        d = typical_set_mass(dist, tau)
        total = sum(dist.prob(i) for i in members(d))
        for i in members(d):
            assert d.prob(i) == pytest.approx(dist.prob(i) / total, abs=1e-9)


class TestStep:
    def test_band_full_range_matches_core_sample(self, seven_dist):
        cfg = LtsConfig(mode="band", epsilon=100.0)
        for seed in range(30):
            direct = sample(seven_dist, Rng(seed))
            d = lts_restrict(seven_dist, cfg)
            assert sample(d, Rng(seed)) == direct
            assert members(d) == set(range(7))

    def test_mass_mode_draws_only_members(self, seven_dist, seven_vocab):
        cfg = LtsConfig(mode="mass", tau_mass=0.2)
        rng = Rng(11)
        allowed = {seven_vocab.id_of("tasks"), seven_vocab.id_of("function")}
        counts = {i: 0 for i in allowed}
        for _ in range(5000):
            d = lts_restrict(seven_dist, cfg)
            tok = sample(d, rng)
            assert members(d) == allowed
            assert tok in allowed
            counts[tok] += 1
        # loose frequency check; the 100k-draw version is in the acceptance suite
        assert counts[seven_vocab.id_of("tasks")] / 5000 == pytest.approx(0.165 / 0.335, abs=0.03)

    def test_one_hot(self):
        dist = make_dist([0, 0, 1])
        d = lts_restrict(dist, LtsConfig())
        assert sample(d, Rng(0)) == 2
        assert members(d) == {2}

    @given(weight_lists, st.integers(0, 2**32 - 1), st.floats(0.05, 1.0))
    def test_sampled_token_is_member(self, weights, seed, tau):
        dist = make_dist(weights)
        d = lts_restrict(dist, LtsConfig(mode="mass", tau_mass=tau))
        assert sample(d, Rng(seed)) in members(d)

"""The synthetic LM's one kernel against the implementation it replaced.

``oracle_next_distribution`` is the earlier ``simlm.next_distribution``:
the same digest -> PCG64 -> gaussian scores -> softmax, finished by the
checked ``TokenDistribution`` constructor. ``oracle_scorer`` is the earlier
``harness._model_scorer``: one ``model.next(ctx, step).prob(t)`` per
position from a fresh context. ``next_distribution``, ``token_probabilities``
and every model's ``score`` must give the same bytes.
"""

import functools
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decodekit.asts import GenerationContext
from decodekit.core import DistributionError, TokenDistribution, default_vocabulary
from decodekit.harness import ReplayModel, SyntheticModel
from decodekit.simlm import KINDS, LmProfile, next_distribution, token_probabilities

_MIXED_FACTORS = (0.25, 1.0, 4.0)


def oracle_next_distribution(profile, ctx, vocab):
    history = list(getattr(ctx, "history", ctx))
    suffix = tuple(history[-profile.recency_window :])
    payload = str(profile.seed).encode() + b"|" + b",".join(str(t).encode() for t in suffix)
    digest = hashlib.blake2b(payload, digest_size=16).digest()
    gen = np.random.Generator(np.random.PCG64(int.from_bytes(digest[:8], "little")))
    scores = gen.standard_normal(len(vocab))

    temperature = profile.base_temperature
    if profile.kind == "mixed":
        temperature *= _MIXED_FACTORS[digest[8] % len(_MIXED_FACTORS)]
    if profile.kind == "loop_prone" and suffix:
        recent = np.array(sorted(set(suffix)), dtype=np.int64)
        scores = scores.copy()
        scores[recent] += math.log(profile.loop_gamma)

    z = scores / temperature
    w = np.exp(z - z.max())
    return TokenDistribution(vocab, w / w.sum())


def oracle_scorer(model, seq):
    ctx = GenerationContext(window_w=8)
    out = []
    for step, t in enumerate(seq):
        out.append(model.next(ctx, step).prob(int(t)))
        ctx.append(int(t))
    return out


_vocabulary = functools.cache(default_vocabulary)


@st.composite
def profiles(draw):
    return LmProfile(
        kind=draw(st.sampled_from(KINDS)),
        base_temperature=draw(st.one_of(st.floats(0.01, 50.0), st.sampled_from([1e-200, 1e-3, 1e6]))),
        loop_gamma=draw(st.one_of(st.floats(1.0, 20.0), st.sampled_from([1.0, 1e300]))),
        recency_window=draw(st.integers(1, 20)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


@st.composite
def model_and_sequence(draw):
    """A profile, a vocabulary size of 1 to 4096 and a token sequence of length 0, 1 or more."""
    profile = draw(profiles())
    size = draw(st.one_of(st.integers(1, 8), st.integers(9, 300), st.integers(301, 4096)))
    # Few distinct ids make repeats, and so the loop_prone boost, common.
    ids = st.integers(0, min(size, draw(st.sampled_from([3, 4096]))) - 1)
    seq = draw(st.one_of(st.lists(ids, max_size=1), st.lists(ids, min_size=2, max_size=30)))
    return profile, size, seq


@settings(max_examples=200, deadline=None)
@given(model_and_sequence())
def test_next_distribution_equals_checked_oracle(case):
    profile, size, seq = case
    vocab = _vocabulary(size)
    for i in range(len(seq) + 1):
        live = next_distribution(profile, seq[:i], vocab).probs
        assert live.tobytes() == oracle_next_distribution(profile, seq[:i], vocab).probs.tobytes()
        assert not live.flags.writeable


@settings(max_examples=200, deadline=None)
@given(model_and_sequence())
def test_token_probabilities_equal_per_step_distributions(case):
    profile, size, seq = case
    vocab = _vocabulary(size)
    want = [next_distribution(profile, seq[:i], vocab).prob(t) for i, t in enumerate(seq)]
    got = token_probabilities(profile, seq, size)
    assert all(type(p) is float for p in got)
    assert np.array(got).tobytes() == np.array(want, dtype=np.float64).tobytes()


@settings(max_examples=100, deadline=None)
@given(model_and_sequence())
def test_synthetic_model_score_equals_oracle_scorer(case):
    profile, size, seq = case
    model = SyntheticModel(profile, _vocabulary(size))
    assert np.array(model.score(seq)).tobytes() == np.array(oracle_scorer(model, seq), dtype=np.float64).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 64), st.integers(1, 12), st.integers(0, 2**32 - 1), st.data())
def test_replay_model_score_equals_oracle_scorer(size, n_rows, row_seed, data):
    gen = np.random.default_rng(row_seed)
    rows = gen.random((n_rows, size))
    rows[gen.random((n_rows, size)) < 0.3] = 0.0
    rows[:, 0] += 1.0  # every row keeps positive mass
    model = ReplayModel(default_vocabulary(size), rows / rows.sum(axis=1, keepdims=True))
    seq = data.draw(st.lists(st.integers(0, size - 1), max_size=40))
    assert np.array(model.score(seq)).tobytes() == np.array(oracle_scorer(model, seq), dtype=np.float64).tobytes()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("base_temperature", [1e-310, 5e-324])
@pytest.mark.parametrize("history", [[1, 2], [7]])
def test_overflowing_scores_fail_like_the_checked_constructor(kind, base_temperature, history):
    # For "mixed", history [7] draws the 0.25 factor, so 5e-324 scales to 0.
    profile = LmProfile(kind=kind, base_temperature=base_temperature, loop_gamma=2.0)
    vocab = _vocabulary(16)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        with pytest.raises(DistributionError):
            oracle_next_distribution(profile, history, vocab)
        with pytest.raises(DistributionError, match="base_temperature"):
            next_distribution(profile, history, vocab)
        with pytest.raises(DistributionError, match="base_temperature"):
            token_probabilities(profile, [*history, 3], 16)

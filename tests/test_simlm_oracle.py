"""The synthetic LM's one kernel against the implementation it replaced.

``oracle_next_distribution`` is the earlier ``simlm.next_distribution``:
the same digest -> PCG64 -> gaussian scores -> softmax, finished by the
checked ``TokenDistribution`` constructor. ``oracle_scorer`` is the earlier
``harness._model_scorer``: one ``model.next(history, step).prob(t)`` per
position, from an empty history. ``next_distribution``, ``token_probabilities``
and every model's ``score`` must give the same bytes.
"""

import functools
import hashlib
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decodekit.core import MIN_TEMPERATURE, SEED_CHUNK, TokenDistribution, default_vocabulary
from decodekit.harness import ReplayModel, SyntheticModel
from decodekit.simlm import (
    BLOCK_ELEMENTS,
    KINDS,
    MIN_BLOCK_ROWS,
    LmProfile,
    next_distribution,
    token_probabilities,
)

_MIXED_FACTORS = (0.25, 1.0, 4.0)


def oracle_next_distribution(profile, history, vocab):
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
    history = []
    out = []
    for step, t in enumerate(seq):
        out.append(model.next(history, step).prob(int(t)))
        history.append(int(t))
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


def _block_rows(size):
    """Positions a ``token_probabilities`` block holds at vocabulary size ``size``; 1 where it scores one at a time."""
    rows = min(SEED_CHUNK, BLOCK_ELEMENTS // size)
    return rows if rows >= MIN_BLOCK_ROWS else 1


def _chunk_and_block_edges():
    # The hypothesis cases stop at 30 tokens, inside the first chunk of seeds and the first block.
    for length in (0, 1, SEED_CHUNK - 1, SEED_CHUNK, SEED_CHUNK + 1, 601):
        yield pytest.param(48, length, id=f"V48-{length}")
    # One position at a time (too wide for a block, and just so), the smallest block,
    # rows that do not divide SEED_CHUNK, and one token. The last length ends past a
    # block edge and past SEED_CHUNK, on neither.
    for size in (4096, 1025, 1024, 257, 1):
        rows = _block_rows(size)
        for length in sorted({rows - 1, rows, rows + 1, max(rows, SEED_CHUNK) + rows + 3}):
            yield pytest.param(size, length, id=f"V{size}-{length}")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("size, length", _chunk_and_block_edges())
def test_token_probabilities_across_seed_chunks(kind, size, length):
    assert [_block_rows(v) for v in (4096, 1025, 1024, 257, 48, 1)] == [1, 1, MIN_BLOCK_ROWS, 15, 85, SEED_CHUNK]
    profile = LmProfile(kind=kind, base_temperature=0.7, loop_gamma=3.0, recency_window=3, seed=2**64 - 5)
    vocab = _vocabulary(size)
    seq = np.random.default_rng(length).integers(0, min(size, 6), length).tolist()
    want = [next_distribution(profile, seq[:i], vocab).prob(t) for i, t in enumerate(seq)]
    assert np.array(token_probabilities(profile, seq, size)).tobytes() == np.array(want, dtype=np.float64).tobytes()


def test_token_probabilities_memory_does_not_grow_with_length():
    """Scoring holds one chunk of seeds at a time: its peak beyond the returned list is the same at 2,000 and 40,000."""
    profile = LmProfile(kind="loop_prone", loop_gamma=2.0)
    token_probabilities(profile, (1, 2), 64)  # first-call costs (the seeding check) outside the measurement

    def transient(n):
        seq = tuple(np.random.default_rng(n).integers(0, 64, n).tolist())
        tracemalloc.start()
        try:
            out = token_probabilities(profile, seq, 64)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(out) == n
        return peak - current

    short, long = transient(2_000), transient(40_000)
    assert long < short + 16_384, (short, long)


@pytest.mark.parametrize("size", [256, 2**14])
def test_token_probabilities_memory_stays_within_one_block(size):
    """A 600-token sequence peaks at one block of scores (one row where V is too wide for a block) and a seed chunk.

    An (n, V) matrix of every position's scores would take 1.2 MB at V = 256 and 78 MB at V = 2**14.
    """
    profile = LmProfile(kind="loop_prone", loop_gamma=2.0)
    token_probabilities(profile, (1, 2), size)
    seq = tuple(np.random.default_rng(3).integers(0, 64, 600).tolist())
    tracemalloc.start()
    try:
        out = token_probabilities(profile, seq, size)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out) == 600
    # The margin holds a chunk of SEED_CHUNK derived states and the contexts that wait for them.
    assert peak - current < max(BLOCK_ELEMENTS, size) * 8 + 192 * 1024, peak - current


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
@pytest.mark.parametrize("base_temperature", [MIN_TEMPERATURE, math.nextafter(MIN_TEMPERATURE, math.inf)])
@pytest.mark.parametrize("history", [[1, 2], [7]])
def test_lowest_base_temperature_equals_oracle_without_warning(kind, base_temperature, history):
    """At the floor and the next float above it, with the largest boost, every score divided by t and every difference of two stays finite."""
    # For "mixed", history [7] draws the 0.25 factor: t = 2.5e-301 at the floor.
    profile = LmProfile(kind=kind, base_temperature=base_temperature, loop_gamma=sys.float_info.max)
    vocab = _vocabulary(16)
    seq = [*history, 3]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = [oracle_next_distribution(profile, seq[:i], vocab).probs for i in range(len(seq))]
        for i, probs in enumerate(want):
            assert next_distribution(profile, seq[:i], vocab).probs.tobytes() == probs.tobytes()
        got = token_probabilities(profile, seq, 16)
    assert np.array(got).tobytes() == np.array([probs[t] for probs, t in zip(want, seq)]).tobytes()


@pytest.mark.parametrize("base_temperature", [0.0, 1e-310, 5e-324, math.nextafter(MIN_TEMPERATURE, 0)])
def test_base_temperature_below_the_floor_is_rejected(base_temperature):
    with pytest.raises(ValueError, match="base_temperature: must be >= 1e-300"):
        LmProfile(base_temperature=base_temperature)

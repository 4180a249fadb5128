"""Top-k, nucleus and LTS mass against the stable-sort rules they replace.

The rules in ``baselines`` and ``lts`` rank without a full stable sort
(``np.partition`` for top-k and nucleus, an unstable ``argsort`` with a
tie fallback for LTS mass) and renormalise with ``core.restrict``. The
oracles below rank the positive support with ``np.lexsort`` (descending
probability or ascending deviation, ties by ascending id) and renormalise
with the checked ``normalize``; every rule must give the same bytes.

Every rule, greedy, Mirostat and LTS band included, is also compared with
its copy in ``oracles`` that keeps a boolean mask over the vocabulary.
"""

import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from decodekit import harness, lts
from decodekit.baselines import greedy_restrict, mirostat_step, nucleus_restrict, topk_restrict
from decodekit.core import default_vocabulary, entropy, normalize
from decodekit.lts import typical_set_mass


def _by_probability(dist):
    ids = dist.support()
    return ids[np.lexsort((ids, -dist.probs[ids]))]


def _by_deviation(dist):
    ids = dist.support()
    dev = np.abs(-np.log(dist.probs[ids]) - entropy(dist))
    return ids[np.lexsort((ids, dev))]


def _prefix(dist, ranked, mass):
    cum = np.cumsum(dist.probs[ranked])
    return ranked[: int(np.searchsorted(cum, mass, side="left")) + 1]


def oracle_topk(dist, k):
    return normalize(dist.vocab, dist.probs, support=_by_probability(dist)[:k])


def oracle_nucleus(dist, p):
    return normalize(dist.vocab, dist.probs, support=_prefix(dist, _by_probability(dist), p))


def oracle_mass(dist, tau):
    return normalize(dist.vocab, dist.probs, support=_prefix(dist, _by_deviation(dist), tau))


_vocabulary = functools.cache(default_vocabulary)


@st.composite
def tie_heavy(draw):
    """A distribution of integer weights 0..levels: few levels give many ties, zeros are common."""
    size = draw(st.one_of(st.integers(1, 16), st.integers(17, 4096)))
    levels = draw(st.sampled_from([1, 2, 3, 5, 1000, 2**20]))
    zero_share = draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = gen.integers(1, levels + 1, size).astype(np.float64)
    weights[gen.random(size) < zero_share] = 0.0
    weights[gen.integers(size)] = float(levels)  # at least one positive weight
    return normalize(_vocabulary(size), weights)


def _masses(data, dist, ranked):
    """p or tau in (0, 1]: any float, or exactly one of the ranked cumulative sums."""
    cum = np.cumsum(dist.probs[ranked])
    edges = [float(c) for c in cum if 0.0 < c <= 1.0] + [1.0]
    return data.draw(st.one_of(st.floats(0.0, 1.0, exclude_min=True), st.sampled_from(edges)))


@settings(max_examples=300, deadline=None)
@given(tie_heavy(), st.data())
def test_topk_equals_lexsort_oracle(dist, data):
    k = data.draw(st.integers(1, len(dist) + 5))
    assert topk_restrict(dist, k).probs.tobytes() == oracle_topk(dist, k).probs.tobytes()


@settings(max_examples=300, deadline=None)
@given(tie_heavy(), st.data())
def test_nucleus_equals_lexsort_oracle(dist, data):
    p = _masses(data, dist, _by_probability(dist))
    assert nucleus_restrict(dist, p).probs.tobytes() == oracle_nucleus(dist, p).probs.tobytes()


@settings(max_examples=300, deadline=None)
@given(tie_heavy(), st.data())
def test_lts_mass_equals_lexsort_oracle(dist, data):
    tau = _masses(data, dist, _by_deviation(dist))
    assert typical_set_mass(dist, tau).probs.tobytes() == oracle_mass(dist, tau).probs.tobytes()


def _surprisal_levels(dist):
    """The distinct surprisals of the support, ascending."""
    return np.unique(-np.log(dist.probs[dist.support()])).tolist()


def _band_edges(data, dist):
    """(alpha, beta): exact surprisals, points between them and beyond them, so empty bands occur."""
    levels = _surprisal_levels(dist)
    between = [(a + b) / 2 for a, b in zip(levels, levels[1:])]
    edges = levels + between + [levels[0] - 1.0, levels[-1] + 1.0, entropy(dist)]
    alpha, beta = sorted(data.draw(st.lists(st.sampled_from(edges), min_size=2, max_size=2)))
    return alpha, beta


def _mirostat_budget(data, dist):
    """A budget from below the smallest surprisal (the argmax rescue) to above the largest."""
    levels = _surprisal_levels(dist)
    low, high = levels[0] - 1.0, levels[-1] + 1.0
    return (data.draw(st.one_of(st.sampled_from([low, *levels, high]), st.floats(low, high))),)


# rule -> (live rule, mask oracle, draw of the arguments after dist)
MASK_RULES = {
    "greedy": (greedy_restrict, oracles.greedy_restrict, lambda data, dist: ()),
    "topk": (
        topk_restrict,
        oracles.topk_restrict,
        lambda data, dist: (data.draw(st.integers(1, len(dist) + 5)),),
    ),
    "nucleus": (
        nucleus_restrict,
        oracles.nucleus_restrict,
        lambda data, dist: (_masses(data, dist, _by_probability(dist)),),
    ),
    "mirostat": (mirostat_step, oracles.mirostat_step, _mirostat_budget),
    "lts_band": (lts.typical_set_band, oracles.typical_set_band, _band_edges),
    "lts_mass": (
        typical_set_mass,
        oracles.typical_set_mass,
        lambda data, dist: (_masses(data, dist, _by_deviation(dist)),),
    ),
}


@pytest.mark.parametrize("rule", sorted(MASK_RULES))
@settings(max_examples=200, deadline=None)
@given(tie_heavy(), st.data())
def test_rule_equals_mask_oracle(rule, dist, data):
    live, oracle, draw_args = MASK_RULES[rule]
    args = draw_args(data, dist)
    assert live(dist, *args).probs.tobytes() == oracle(dist, *args).probs.tobytes()


# One tie-heavy replay run per rule: the rule in the pipeline against its oracle.
REPLAY_RUNS = {
    "topk": ({"sampler": "topk", "topk": {"k": 7}}, harness, "topk_restrict", oracle_topk),
    "nucleus": ({"sampler": "nucleus", "nucleus": {"p": 0.8}}, harness, "nucleus_restrict", oracle_nucleus),
    "lts_mass": (
        {"sampler": "lts", "lts": {"mode": "mass", "tau_mass": 0.7}},
        lts,
        "typical_set_mass",
        oracle_mass,
    ),
}


def _replay_corpus(tmp_path, name, section):
    gen = np.random.default_rng(5)
    weights = gen.integers(0, 4, (12, 48))
    weights[:, 0] = 3  # every row keeps positive mass
    replay = tmp_path / "replay.json"
    replay.write_text(
        json.dumps({"tokens": [f"w{i}" for i in range(48)], "steps": weights.tolist()}), encoding="utf-8"
    )
    corpus = tmp_path / f"{name}.jsonl"
    cfg = {
        "seed": 2,
        "max_tokens": 30,
        "num_sequences": 3,
        "model": {"selector": f"file:{replay}"},
        "output": {"corpus": str(corpus)},
        **section,
    }
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    harness.cmd_generate(cfg_path)
    return corpus.read_bytes()


@pytest.mark.parametrize("name", sorted(REPLAY_RUNS))
def test_replay_run_equals_its_oracle_run(tmp_path, monkeypatch, name):
    monkeypatch.delenv("DECODE_SEED", raising=False)
    section, module, attr, oracle = REPLAY_RUNS[name]
    live = _replay_corpus(tmp_path, name, section)
    monkeypatch.setattr(module, attr, oracle)
    assert _replay_corpus(tmp_path, name, section) == live

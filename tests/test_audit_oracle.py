"""ASTS audit lines against the dict-building writer they replace.

``ScoreBreakdown.to_json_line`` formats an audit line straight from the
score columns. The oracle below builds the old object (one dict per
candidate) and serialises it with ``json.dumps(..., ensure_ascii=False)``;
every line must be the same text, non-finite scores and awkward tokens
included.
"""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from decodekit import harness
from decodekit.asts import (
    SCORE_COLUMNS,
    AstsConfig,
    ConstantScores,
    EmbeddingAlignment,
    GenerationContext,
    KeywordRelevance,
    ScoreBreakdown,
    asts_step,
)
from decodekit.core import TokenDistribution, Vocabulary
from decodekit.embed import synthetic_table


def oracle_to_json_dict(bd: ScoreBreakdown, chosen_id: int) -> dict:
    names = ("token_id", "token", *SCORE_COLUMNS)
    tokens = bd.vocab.tokens
    cols = [bd.token_ids, [tokens[t] for t in bd.token_ids]]
    cols += [bd.columns[name].tolist() for name in SCORE_COLUMNS]
    return {
        "entropy": bd.entropy,
        "sigma": bd.sigma,
        "alpha": bd.alpha,
        "beta": bd.beta,
        "chosen_id": chosen_id,
        "candidates": [dict(zip(names, row)) for row in zip(*cols)],
    }


def oracle_line(bd: ScoreBreakdown, sequence: int, step: int, chosen_id: int) -> str:
    obj = {"sequence": sequence, "step": step, **oracle_to_json_dict(bd, chosen_id)}
    return json.dumps(obj, ensure_ascii=False)


SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, 0.1, 1.0)
scores = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
# Quotes, backslashes, control characters, non-ASCII and surrogate-free text.
tokens = st.text(
    alphabet=st.one_of(st.sampled_from('"\\\n\t\x00\x1f\x7f/é€😀 '), st.characters(blacklist_categories=("Cs",))),
    max_size=6,
)


@st.composite
def breakdowns(draw):
    vocab = Vocabulary.from_tokens(draw(st.lists(tokens, min_size=1, max_size=30, unique=True)))
    ids = draw(st.lists(st.integers(0, len(vocab) - 1), min_size=1, max_size=len(vocab), unique=True))
    n = len(ids)
    columns = {name: np.array(draw(st.lists(scores, min_size=n, max_size=n))) for name in SCORE_COLUMNS[:-1]}
    weights = np.array(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)), dtype=np.float64)
    weights[0] += 1.0
    columns["final_probability"] = weights / weights.sum()
    entropy, sigma, alpha, beta = draw(st.lists(scores, min_size=4, max_size=4))
    return ScoreBreakdown(entropy, sigma, alpha, beta, vocab, ids, columns)


@settings(max_examples=300, deadline=None)
@given(breakdowns(), st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
def test_line_equals_the_oracle(bd, sequence, step, chosen_id):
    assert bd.to_json_line(sequence, step, chosen_id) == oracle_line(bd, sequence, step, chosen_id)
    view = json.dumps(bd.to_json_dict(chosen_id), ensure_ascii=False)
    assert view == json.dumps(oracle_to_json_dict(bd, chosen_id), ensure_ascii=False)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-4, max_value=1e4), min_size=2, max_size=40),
    st.lists(st.integers(0, 39), max_size=30),
    st.floats(min_value=0.0, max_value=3.0),
    st.booleans(),
)
def test_step_line_equals_the_oracle(weights, history, k, zero_providers):
    """Lines of real steps, from an empty history or not, with live or zero providers."""
    w = np.asarray(weights, dtype=np.float64)
    vocab = Vocabulary.from_tokens(f"t{i}" for i in range(w.size))
    dist = TokenDistribution(vocab, w / w.sum())
    if zero_providers:
        alignment = relevance = ConstantScores(0.0)
    else:
        alignment = EmbeddingAlignment(synthetic_table(vocab, dim=8, seed=1), vocab, pooling="decay")
        relevance = KeywordRelevance(vocab, ("t1", "2"))
    ctx = GenerationContext(history=[t % w.size for t in history])
    _, bd = asts_step(dist, ctx, AstsConfig(k1=k, k2=k), alignment, relevance)
    chosen = bd.token_ids[-1]
    assert bd.to_json_line(3, len(history), chosen) == oracle_line(bd, 3, len(history), chosen)
    assert bd.to_json_dict(chosen) == oracle_to_json_dict(bd, chosen)


def test_audit_with_infinite_weights_equals_the_oracle_writer(tmp_path, monkeypatch):
    # eps_div 1e-300 makes the diversity of an unseen token 1e300, so its
    # adjusted weight p * exp(composite + reward) overflows to Infinity.
    monkeypatch.delenv("DECODE_SEED", raising=False)
    cfg = {
        "seed": 3,
        "max_tokens": 8,
        "num_sequences": 2,
        "sampler": "asts",
        "model": {"selector": "synthetic:mixed", "synthetic": {"vocab_size": 32}},
        "asts": {"eps_div": 1e-300},
        "output": {"corpus": str(tmp_path / "out.jsonl")},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    harness.cmd_generate(cfg_path, tmp_path / "audit.jsonl")
    monkeypatch.setattr(ScoreBreakdown, "to_json_line", oracle_line)
    harness.cmd_generate(cfg_path, tmp_path / "oracle.jsonl")
    audit = (tmp_path / "audit.jsonl").read_bytes()
    assert b'"adjusted_weight": Infinity' in audit
    assert audit == (tmp_path / "oracle.jsonl").read_bytes()

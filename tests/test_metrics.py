"""Evaluation metrics against brute-force oracles and hand-frozen values."""

import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from decodekit.core import Vocabulary, default_vocabulary
from decodekit.metrics import (
    SequenceCorpus,
    UniformScorer,
    ngram_diversity,
    perplexity,
    rep_l,
    report,
    zipf_coefficient,
)


def corpus_of(*seqs, vocab_size=None):
    size = vocab_size or (max((max(s) for s in seqs if s), default=0) + 1)
    return SequenceCorpus(tuple(tuple(s) for s in seqs), default_vocabulary(size))


def ids(text):
    """Map a space-separated letter sequence to integer ids (a=0, b=1, ...)."""
    return [ord(ch) - ord("a") for ch in text.split()]


# -- independent oracles -----------------------------------------------------


def oracle_rep(seq, l):
    positions = 0
    hits = 0
    for t in range(1, len(seq)):
        positions += 1
        window = seq[max(0, t - l) : t]
        if seq[t] in window:
            hits += 1
    return hits / positions


def oracle_diversity(seq):
    total = 0.0
    for n in (1, 2, 3, 4):
        grams = [tuple(seq[i : i + n]) for i in range(len(seq) - n + 1)]
        total += len(set(grams)) / len(grams)
    return total / 4.0


def oracle_zipf_slope(freqs):
    """Plain least-squares fit of ln f on ln rank, no numpy."""
    pts = [(math.log(r + 1), math.log(f)) for r, f in enumerate(sorted(freqs, reverse=True))]
    n = len(pts)
    mx = sum(x for x, _ in pts) / n
    my = sum(y for _, y in pts) / n
    num = sum((x - mx) * (y - my) for x, y in pts)
    den = sum((x - mx) ** 2 for x, _ in pts)
    return -(num / den)


sequences = st.lists(st.integers(0, 9), min_size=4, max_size=64)


class TestCorpus:
    def test_rejects_out_of_range_ids(self):
        vocab = Vocabulary.from_tokens(("a", "b"))
        with pytest.raises(ValueError, match="sequence 0"):
            SequenceCorpus(((0, 5),), vocab)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SequenceCorpus((), Vocabulary.from_tokens(("a",)))

    def test_token_count(self):
        assert corpus_of([0, 1], [1, 1, 1]).token_count == 5


class TestPerplexity:
    def test_uniform_fifty(self):
        corpus = corpus_of(list(range(10)), vocab_size=50)
        assert perplexity(corpus, UniformScorer(50)) == pytest.approx(50.0, abs=1e-9)

    def test_geometric_mean_example(self):
        corpus = corpus_of([0, 1, 2])
        scorer = lambda seq: [0.1, 0.2, 0.4]
        assert perplexity(corpus, scorer) == pytest.approx(5.0, abs=1e-9)

    def test_certain_scorer_gives_one(self):
        corpus = corpus_of([0, 1, 2, 3])
        assert perplexity(corpus, lambda seq: [1.0] * len(seq)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_likelihood_rejected(self):
        corpus = corpus_of([0, 1])
        with pytest.raises(ValueError, match="zero likelihood"):
            perplexity(corpus, lambda seq: [0.5, 0.0])

    def test_probability_above_one_rejected(self):
        corpus = corpus_of([0, 1])
        with pytest.raises(ValueError, match="> 1"):
            perplexity(corpus, lambda seq: [0.5, 1.5])

    def test_scorer_length_mismatch(self):
        corpus = corpus_of([0, 1, 2])
        with pytest.raises(ValueError, match="scorer returned"):
            perplexity(corpus, lambda seq: [0.5])

    def test_concatenation_over_sequences(self):
        # 2 tokens at p=0.5 and 2 at p=0.125: exp(mean nll) over all 4.
        corpus = corpus_of([0, 1], [2, 3])
        probs = {0: 0.5, 1: 0.5, 2: 0.125, 3: 0.125}
        scorer = lambda seq: [probs[t] for t in seq]
        expected = math.exp((2 * math.log(2) + 2 * math.log(8)) / 4)
        assert perplexity(corpus, scorer) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 7, 64, 1024])
    def test_uniform_n_identity_spot_checks(self, n):
        corpus = corpus_of(list(range(4)), vocab_size=max(n, 4))
        assert perplexity(corpus, UniformScorer(n)) == pytest.approx(n, abs=1e-9 * n)


class TestRepL:
    def test_alternating_pair_window_two(self):
        assert rep_l(ids("a b a b a b"), 2) == pytest.approx(0.8)

    def test_all_distinct_is_zero(self):
        assert rep_l([0, 1, 2, 3, 4], 4) == 0.0

    def test_double_token_is_one(self):
        assert rep_l(ids("a a"), 1) == 1.0
        assert rep_l(ids("a a"), 128) == 1.0

    def test_window_too_small_to_see_repeat(self):
        # 'a ? a' with window 1 never looks back far enough.
        assert rep_l(ids("a b a b"), 1) == 0.0

    def test_short_sequence_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            rep_l([0], 16)

    @given(sequences, st.integers(1, 64))
    def test_matches_brute_force(self, seq, l):
        assert rep_l(seq, l) == oracle_rep(seq, l)

    @given(sequences, st.sampled_from(["zero", "one", "len", "beyond"]))
    def test_matches_brute_force_at_window_edges(self, seq, window):
        # 0 sees nothing, 1 only the previous token, len(seq) and more the whole prefix.
        l = {"zero": 0, "one": 1, "len": len(seq), "beyond": len(seq) + 7}[window]
        assert rep_l(seq, l) == oracle_rep(seq, l)

    @given(sequences)
    def test_monotone_in_window(self, seq):
        values = [rep_l(seq, l) for l in (1, 2, 4, 8, 16, 32, 64)]
        assert values == sorted(values)


class TestZipf:
    def test_harmonic_corpus_near_one(self):
        # freq(r) = round(10000 / r) over ranks 1..100
        seq = []
        for r in range(1, 101):
            seq.extend([r - 1] * round(10000 / r))
        corpus = corpus_of(seq, vocab_size=100)
        assert zipf_coefficient(corpus) == pytest.approx(1.0, abs=0.02)

    def test_square_law_near_two(self):
        seq = []
        for r in range(1, 51):
            seq.extend([r - 1] * round(100000 / r**2))
        corpus = corpus_of(seq, vocab_size=50)
        assert zipf_coefficient(corpus) == pytest.approx(2.0, abs=0.05)

    def test_flat_frequencies_are_zero(self):
        corpus = corpus_of([0, 1, 2, 3] * 10)
        assert zipf_coefficient(corpus) == pytest.approx(0.0, abs=1e-9)

    def test_single_distinct_token_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            zipf_coefficient(corpus_of([0, 0, 0, 0]))

    def test_rank_truncation(self):
        # freqs 8, 4, 2, 1 with min_rank=2 fits ranks 2..4 at their original
        # rank values (the x axis is not re-ranked after truncation).
        seq = [0] * 8 + [1] * 4 + [2] * 2 + [3]
        corpus = corpus_of(seq)
        full = zipf_coefficient(corpus)
        tail = zipf_coefficient(corpus, min_rank=2)
        pts = [(math.log(r), math.log(f)) for r, f in [(2, 4), (3, 2), (4, 1)]]
        mx = sum(x for x, _ in pts) / 3
        my = sum(y for _, y in pts) / 3
        expected_tail = -sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)
        assert tail == pytest.approx(expected_tail, abs=1e-9)
        assert tail != pytest.approx(full, abs=1e-6)

    def test_invalid_bounds(self):
        corpus = corpus_of([0, 1, 1])
        with pytest.raises(ValueError):
            zipf_coefficient(corpus, min_rank=0)
        with pytest.raises(ValueError):
            zipf_coefficient(corpus, min_rank=3, max_rank=2)

    @given(st.lists(st.integers(1, 200), min_size=2, max_size=20, unique=True), st.integers(2, 10))
    def test_scale_invariance(self, freqs, c):
        # Multiplying every frequency by c adds a constant in log space.
        base = oracle_zipf_slope(freqs)
        seq_a, seq_b = [], []
        for tok, f in enumerate(freqs):
            seq_a.extend([tok] * f)
            seq_b.extend([tok] * (f * c))
        za = zipf_coefficient(corpus_of(seq_a, vocab_size=len(freqs)))
        zb = zipf_coefficient(corpus_of(seq_b, vocab_size=len(freqs)))
        assert za == pytest.approx(base, abs=1e-9)
        assert zb == pytest.approx(za, abs=1e-9)


class TestDiversity:
    def test_all_distinct(self):
        assert ngram_diversity([0, 1, 2, 3, 4]) == 1.0

    def test_constant_run(self):
        assert ngram_diversity(ids("a a a a")) == pytest.approx(25 / 48, abs=1e-12)

    def test_alternating_pair(self):
        # fractions 2/6, 2/5, 2/4, 2/3
        assert ngram_diversity(ids("a b a b a b")) == pytest.approx(0.475, abs=1e-12)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            ngram_diversity([0, 1, 2])

    @given(sequences)
    def test_matches_brute_force(self, seq):
        assert ngram_diversity(seq) == oracle_diversity(seq)

    @given(sequences)
    def test_bounded(self, seq):
        assert 0.0 < ngram_diversity(seq) <= 1.0


class TestReport:
    def test_self_reference_has_zero_deltas(self):
        corpus = corpus_of([0, 1, 2, 3, 0, 1], [1, 2, 3, 4])
        rep = report(corpus, UniformScorer(5), reference=corpus)
        assert rep.ppl_delta == 0.0
        assert rep.zipf_delta == 0.0

    def test_no_reference_omits_deltas(self):
        corpus = corpus_of([0, 1, 2, 3, 0, 1])
        rep = report(corpus, UniformScorer(4))
        assert rep.ppl_delta is None
        d = rep.to_json_dict()
        assert "ppl_delta" not in d and "zipf_delta" not in d

    def test_json_key_order_is_stable(self):
        corpus = corpus_of([0, 1, 2, 3, 0, 1])
        rep = report(corpus, UniformScorer(4), reference=corpus)
        keys = list(rep.to_json_dict().keys())
        assert keys == [
            "ppl", "ppl_delta", "rep16", "rep32", "rep128", "zipf",
            "zipf_delta", "diversity", "diversity_sum", "sequence_count", "token_count",
        ]

    def test_rep_and_diversity_are_per_sequence_means(self):
        a, b = ids("a a a a"), ids("a b c d")
        rep = report(corpus_of(a, b), UniformScorer(4))
        assert rep.rep16 == pytest.approx((oracle_rep(a, 16) + oracle_rep(b, 16)) / 2)
        assert rep.diversity == pytest.approx((oracle_diversity(a) + oracle_diversity(b)) / 2)
        assert rep.diversity_sum == pytest.approx(rep.diversity * 4.0)

    def test_counts(self):
        rep = report(corpus_of([0, 1, 2, 3], [0, 1, 0, 1, 2]), UniformScorer(4))
        assert rep.sequence_count == 2
        assert rep.token_count == 9

    def test_byte_identical_reports(self):
        corpus = corpus_of([0, 1, 2, 3, 2, 1, 0, 1])
        a = report(corpus, UniformScorer(4)).to_json()
        b = report(corpus, UniformScorer(4)).to_json()
        assert a == b
        json.loads(a)  # valid JSON

    def test_csv_shape(self):
        corpus = corpus_of([0, 1, 2, 3, 2, 1])
        text = report(corpus, UniformScorer(4)).to_csv()
        header, row, trailer = text.split("\n")
        assert trailer == ""
        assert len(header.split(",")) == len(row.split(","))
        assert header.split(",")[0] == "ppl"

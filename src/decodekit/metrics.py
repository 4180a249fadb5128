"""Evaluation metrics: perplexity, REP/l, Zipf coefficient, n-gram diversity.

A scorer (for perplexity) is a callable ``scorer(seq) -> per-position
probabilities``, one value per token of ``seq``. Uniform and synthetic-LM
scorers ship with the package; anything matching the callable contract
works, which is also the hook for plugging in an external model.

``METRICS`` defines each reported metric once, by name; ``report`` and the
sweep command both read it.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from decodekit.core import Vocabulary

REP_WINDOWS = (16, 32, 128)


@dataclass(frozen=True)
class SequenceCorpus:
    sequences: tuple[tuple[int, ...], ...]
    vocab: Vocabulary

    def __post_init__(self) -> None:
        if not self.sequences:
            raise ValueError("corpus must contain at least one sequence")
        seqs = tuple(tuple(int(t) for t in s) for s in self.sequences)
        n = len(self.vocab)
        for i, seq in enumerate(seqs):
            for t in seq:
                if not 0 <= t < n:
                    raise ValueError(f"sequence {i}: token id {t} outside vocabulary of {n}")
        object.__setattr__(self, "sequences", seqs)

    @property
    def token_count(self) -> int:
        return sum(len(s) for s in self.sequences)


class UniformScorer:
    """Assigns 1/n to every position; the degenerate reference scorer."""

    def __init__(self, n: int):
        self.n = n

    def __call__(self, seq):
        return [1.0 / self.n] * len(seq)


def perplexity(corpus: SequenceCorpus, scorer) -> float:
    """exp of the average negative log-likelihood, sequences concatenated."""
    total_logp = 0.0
    total_tokens = 0
    for i, seq in enumerate(corpus.sequences):
        if not seq:
            continue
        probs = list(scorer(seq))
        if len(probs) != len(seq):
            raise ValueError(
                f"scorer returned {len(probs)} probabilities for sequence {i} of length {len(seq)}"
            )
        for pos, p in enumerate(probs):
            if p <= 0.0:
                raise ValueError(f"zero likelihood at sequence {i}, position {pos}")
            if p > 1.0:
                raise ValueError(f"probability {p!r} > 1 at sequence {i}, position {pos}")
        total_logp += float(np.sum(np.log(probs)))
        total_tokens += len(seq)
    if total_tokens == 0:
        raise ValueError("perplexity undefined for an empty corpus")
    return float(np.exp(-total_logp / total_tokens))


def rep_l(seq, l: int) -> float:
    """Fraction of positions whose token already occurs in the trailing window.

    Position 0 has no predecessors and is excluded from the denominator;
    position t looks back at the preceding min(l, t) tokens.
    """
    seq = list(seq)
    if len(seq) < 2:
        raise ValueError(f"sequence too short for rep_l: length {len(seq)} < 2")
    # One pass: a token occurs in the window iff its last position does; a
    # token not seen yet gets a last position that no window reaches.
    last: dict = {}
    unseen = -l - 1
    repeats = 0
    for t, token in enumerate(seq):
        if t - last.get(token, unseen) <= l:
            repeats += 1
        last[token] = t
    return repeats / (len(seq) - 1)


def zipf_coefficient(corpus: SequenceCorpus, min_rank: int = 1, max_rank: int | None = None) -> float:
    """Negated OLS slope of ln(frequency) against ln(rank).

    Rank 1 is the most frequent token. No truncation by default; the
    optional rank bounds clip the fitted range at both ends.
    """
    counts = Counter()
    for seq in corpus.sequences:
        counts.update(seq)
    freqs = np.array(sorted(counts.values(), reverse=True), dtype=np.float64)
    if freqs.size < 2:
        raise ValueError("degenerate frequency table: fewer than 2 distinct tokens")
    ranks = np.arange(1, freqs.size + 1, dtype=np.float64)
    lo = min_rank - 1
    hi = freqs.size if max_rank is None else min(max_rank, freqs.size)
    x = np.log(ranks[lo:hi])
    y = np.log(freqs[lo:hi])
    if x.size < 2:
        raise ValueError("degenerate frequency table: fewer than 2 ranks after truncation")
    xc = x - x.mean()
    denom = float(np.dot(xc, xc))
    if denom == 0.0:
        raise ValueError("degenerate frequency table: zero rank variance")
    slope = float(np.dot(xc, y - y.mean())) / denom
    return -slope


def ngram_diversity(seq) -> float:
    """Mean over n in 1..4 of (unique n-grams / total n-grams)."""
    seq = tuple(seq)
    if len(seq) < 4:
        raise ValueError(f"sequence too short for n-gram diversity: length {len(seq)} < 4")
    fractions = []
    for n in range(1, 5):
        grams = [seq[i : i + n] for i in range(len(seq) - n + 1)]
        fractions.append(len(set(grams)) / len(grams))
    return sum(fractions) / 4.0


@dataclass(frozen=True, kw_only=True)
class MetricsReport:
    """A corpus's metrics in report order; the deltas are None without a reference."""

    ppl: float
    ppl_delta: float | None = None
    rep16: float
    rep32: float
    rep128: float
    zipf: float
    zipf_delta: float | None = None
    diversity: float
    diversity_sum: float
    sequence_count: int
    token_count: int

    def to_json_dict(self) -> dict:
        return {name: value for name, value in asdict(self).items() if value is not None}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def to_csv(self) -> str:
        d = self.to_json_dict()
        return ",".join(d.keys()) + "\n" + ",".join(map(csv_cell, d.values())) + "\n"


def csv_cell(value) -> str:
    """A CSV cell: ``repr`` for a float, so that it reads back bit for bit."""
    return repr(value) if isinstance(value, float) else str(value)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


class CorpusMetrics(dict):
    """The metrics of one corpus under one scorer: ``self[name]`` runs
    ``METRICS[name]`` on first lookup and keeps the value, so ``diversity_sum``
    reuses ``diversity``. A metric outside its domain raises ``ValueError``.
    """

    def __init__(self, corpus: SequenceCorpus, scorer, zipf_min_rank: int, zipf_max_rank: int | None):
        super().__init__()
        self.corpus = corpus
        self.scorer = scorer
        self.zipf_ranks = (zipf_min_rank, zipf_max_rank)

    def __missing__(self, name: str) -> float:
        self[name] = value = METRICS[name](self)
        return value


# The metric table, in report order: name -> metric(CorpusMetrics). Each entry
# looks perplexity, rep_l and ngram_diversity up when it runs, so a caller
# that rebinds them (a tracer) sees every call. diversity_sum sums the four
# n-gram fractions instead of averaging them (scaling by 4 is exact).
METRICS = {
    "ppl": lambda m: perplexity(m.corpus, m.scorer),
    **{f"rep{l}": lambda m, l=l: _mean(rep_l(s, l) for s in m.corpus.sequences) for l in REP_WINDOWS},
    "zipf": lambda m: zipf_coefficient(m.corpus, *m.zipf_ranks),
    "diversity": lambda m: _mean(ngram_diversity(s) for s in m.corpus.sequences),
    "diversity_sum": lambda m: m["diversity"] * 4.0,
}


def report(
    generated: SequenceCorpus,
    scorer,
    reference: SequenceCorpus | None = None,
    zipf_min_rank: int = 1,
    zipf_max_rank: int | None = None,
) -> MetricsReport:
    """Compute the full metric set; deltas are included when a reference is given.

    The reference corpus is scored with the same scorer, so ppl_delta
    measures the gap between generated and reference likelihoods under one
    model, matching how deviation-from-reference is usually reported.
    """
    values = CorpusMetrics(generated, scorer, zipf_min_rank, zipf_max_rank)
    table = {name: values[name] for name in METRICS}
    ppl_delta = zipf_delta = None
    if reference is not None:
        ref = CorpusMetrics(reference, scorer, zipf_min_rank, zipf_max_rank)
        ppl_delta = abs(table["ppl"] - ref["ppl"])
        zipf_delta = abs(table["zipf"] - ref["zipf"])
    return MetricsReport(
        **table,
        sequence_count=len(generated.sequences),
        token_count=generated.token_count,
        ppl_delta=ppl_delta,
        zipf_delta=zipf_delta,
    )

"""Adaptive semantic-aware typicality sampling (ASTS).

One decoding step runs five stages: (1) an entropy band whose width tracks
the recent entropy volatility selects candidates, (2) each candidate gets a
composite score from coherence, semantic alignment and diversity, (3) a
reward built from alignment, relevance and a repetition penalty multiplies
the candidate probabilities via exp(), (4) the weights are renormalised,
(5) temperature scaling is applied and one token is drawn.

Semantic alignment and relevance come from pluggable providers: callables
``provider(ctx, candidate_ids) -> sequence of floats``. Built-ins cover the
embedding-cosine alignment, a constant-zero ablation and keyword overlap.

A step works on whole candidate arrays, and each array operation is chosen
to give bit for bit the float that the scalar formula below it gives, so
vectorising moves no output digest. Dot products and norms use
``np.vecdot``, which matches ``np.dot``/``np.linalg.norm`` row by row; a
matrix product (``M @ v``), ``einsum`` or ``(M * v).sum(1)`` rounds
differently and must not replace it. Logarithms of single probabilities
use ``math.log``, because ``np.log`` differs from it in the last bit on a
few inputs.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from decodekit.core import (
    Rng,
    TokenDistribution,
    Vocabulary,
    entropy,
    normalize,
    sample,
    temperature_scale,
)
from decodekit.embed import EmbeddingTable, pool_rows
from decodekit.lts import band_ids

ADJUST_FORMS = ("example", "eq13")


class ProviderError(RuntimeError):
    """A score provider failed or produced an unusable value."""


@dataclass
class GenerationContext:
    """Mutable per-sequence state: history, token counts, entropy window."""

    window_w: int = 8
    history: list[int] = field(default_factory=list)
    freq: Counter = field(default_factory=Counter)
    entropy_window: deque = field(init=False)

    def __post_init__(self) -> None:
        if self.window_w < 1:
            raise ValueError(f"window_w must be >= 1, got {self.window_w}")
        self.entropy_window = deque(maxlen=self.window_w)
        if self.history and not self.freq:
            self.freq = Counter(self.history)

    def append(self, token_id: int) -> None:
        self.history.append(int(token_id))
        self.freq[int(token_id)] += 1

    def push_entropy(self, h: float) -> None:
        self.entropy_window.append(float(h))

    def freq_of(self, token_id: int) -> int:
        return self.freq.get(int(token_id), 0)

    def __len__(self) -> int:
        return len(self.history)


@dataclass(frozen=True)
class AstsConfig:
    k1: float = 0.3
    k2: float = 0.3
    lambda1: float = 0.4
    lambda2: float = 0.4
    lambda3: float = 0.2
    mu1: float = 0.5
    mu2: float = 0.3
    mu3: float = 0.2
    temperature: float = 1.0
    window_w: int = 8
    eps_div: float = 1.0
    sigma_prior: float = 0.6
    adjust_form: str = "example"

    def __post_init__(self) -> None:
        for name in ("k1", "k2", "lambda1", "lambda2", "lambda3", "mu1", "mu2", "mu3"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"asts.{name} must be finite and >= 0, got {v!r}")
        if not (math.isfinite(self.temperature) and self.temperature > 0.0):
            raise ValueError(f"asts.temperature must be positive, got {self.temperature!r}")
        if self.window_w < 1:
            raise ValueError(f"asts.window_w must be >= 1, got {self.window_w}")
        if not self.eps_div > 0.0:
            raise ValueError(f"asts.eps_div must be > 0, got {self.eps_div!r}")
        if not (math.isfinite(self.sigma_prior) and self.sigma_prior >= 0.0):
            raise ValueError(f"asts.sigma_prior must be finite and >= 0, got {self.sigma_prior!r}")
        if self.adjust_form not in ADJUST_FORMS:
            raise ValueError(
                f"asts.adjust_form must be one of {ADJUST_FORMS}, got {self.adjust_form!r}"
            )


@dataclass(frozen=True)
class CandidateScore:
    """Audit record for one candidate token at one step."""

    token_id: int
    token: str
    probability_in: float
    surprisal: float
    coherence: float
    semantic_alignment: float
    diversity: float
    composite: float
    relevance: float
    repetition_penalty: float
    reward: float
    adjusted_weight: float
    final_probability: float

    def to_json_dict(self) -> dict:
        return {
            "token_id": self.token_id,
            "token": self.token,
            "probability_in": self.probability_in,
            "surprisal": self.surprisal,
            "coherence": self.coherence,
            "semantic_alignment": self.semantic_alignment,
            "diversity": self.diversity,
            "composite": self.composite,
            "relevance": self.relevance,
            "repetition_penalty": self.repetition_penalty,
            "reward": self.reward,
            "adjusted_weight": self.adjusted_weight,
            "final_probability": self.final_probability,
        }


# The per-candidate score fields of CandidateScore, in record order.
SCORE_COLUMNS = tuple(f.name for f in fields(CandidateScore))[2:]


@dataclass(frozen=True, eq=False)
class ScoreBreakdown:
    """Full audit trail of one ASTS step.

    Scores are kept as columns: ``columns[name]`` is a float array aligned
    with ``token_ids`` for each name in ``SCORE_COLUMNS``. The
    ``CandidateScore`` records are built only when ``candidates`` is read.
    """

    entropy: float
    sigma: float
    alpha: float
    beta: float
    vocab: Vocabulary
    token_ids: list[int]
    columns: dict[str, np.ndarray]
    chosen_id: int

    def __post_init__(self) -> None:
        total = sum(self.columns["final_probability"].tolist())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"candidate probabilities sum to {total!r}, expected 1")

    @cached_property
    def candidates(self) -> tuple[CandidateScore, ...]:
        tokens = self.vocab.tokens
        cols = [self.columns[name].tolist() for name in SCORE_COLUMNS]
        return tuple(CandidateScore(tid, tokens[tid], *row) for tid, *row in zip(self.token_ids, *cols))

    def final_probability_of(self, token_id: int) -> float:
        if token_id in self.token_ids:
            return float(self.columns["final_probability"][self.token_ids.index(token_id)])
        raise KeyError(f"token id {token_id} not among candidates")

    def to_json_dict(self) -> dict:
        names = ("token_id", "token", *SCORE_COLUMNS)
        tokens = self.vocab.tokens
        cols = [self.token_ids, [tokens[t] for t in self.token_ids]]
        cols += [self.columns[name].tolist() for name in SCORE_COLUMNS]
        return {
            "entropy": self.entropy,
            "sigma": self.sigma,
            "alpha": self.alpha,
            "beta": self.beta,
            "chosen_id": self.chosen_id,
            "candidates": [dict(zip(names, row)) for row in zip(*cols)],
        }


def sigma_entropy(entropy_window, sigma_prior: float) -> float:
    """Population std of the recent step entropies; prior before 2 entries."""
    window = list(entropy_window)
    if len(window) < 2:
        return float(sigma_prior)
    return float(np.std(np.asarray(window, dtype=np.float64)))


def dynamic_thresholds(h_t: float, sigma_h: float, k1: float, k2: float) -> tuple[float, float]:
    """Entropy band (h - k1*sigma, h + k2*sigma); k1, k2 must be >= 0."""
    if k1 < 0 or k2 < 0:
        raise ValueError(f"threshold scale factors must be >= 0, got k1={k1}, k2={k2}")
    return h_t - k1 * sigma_h, h_t + k2 * sigma_h


def coherence_score(surprisal_x: float, h_t: float) -> float:
    """1 - |surprisal - entropy|; unclamped, so far-off tokens go negative."""
    return 1.0 - abs(surprisal_x - h_t)


def diversity_score(freq_x: int, eps_div: float) -> float:
    if freq_x < 0:
        raise ValueError(f"frequency must be >= 0, got {freq_x}")
    if not eps_div > 0.0:
        raise ValueError(f"eps_div must be > 0, got {eps_div}")
    return 1.0 / (freq_x + eps_div)


def composite_score(coherence: float, sa: float, diversity: float, cfg: AstsConfig) -> float:
    return cfg.lambda1 * coherence + cfg.lambda2 * sa + cfg.lambda3 * diversity


def repetition_penalty(freq_x: int, context_len: int) -> float:
    """Share of the context occupied by the token; 0 for an empty context."""
    if context_len < 0:
        raise ValueError(f"context length must be >= 0, got {context_len}")
    if context_len == 0:
        return 0.0
    return freq_x / context_len


def reward(sa: float, relevance: float, rep: float, cfg: AstsConfig) -> float:
    return cfg.mu1 * sa + cfg.mu2 * relevance - cfg.mu3 * rep


def adjust_weight(p: float, s: float, r: float) -> float:
    """Reweight a probability by exp(composite + reward)."""
    if not p > 0.0:
        raise ValueError(f"adjust_weight requires p > 0, got {p!r}")
    return p * math.exp(s + r)


def adjust_weight_reward_only(p: float, r: float) -> float:
    """Alternative reweighting exp(reward - p); see AstsConfig.adjust_form."""
    if not p > 0.0:
        raise ValueError(f"adjust_weight requires p > 0, got {p!r}")
    return p * math.exp(r - p)


# --------------------------------------------------------------------------
# Score providers. Each is a callable (ctx, candidate_ids) -> array of floats.


@dataclass(frozen=True)
class ConstantScores:
    """Returns the same value for every candidate; the zero ablation default."""

    value: float = 0.0

    def __call__(self, ctx: GenerationContext, candidate_ids) -> np.ndarray:
        return np.full(len(candidate_ids), self.value, dtype=np.float64)


@dataclass(frozen=True)
class MappedScores:
    """Fixed per-token scores, used to replay hand-computed reference tables."""

    vocab: Vocabulary
    values: dict[str, float]
    default: float | None = None

    def __call__(self, ctx: GenerationContext, candidate_ids) -> np.ndarray:
        out = np.empty(len(candidate_ids), dtype=np.float64)
        for j, tid in enumerate(candidate_ids):
            token = self.vocab.tokens[tid]
            if token in self.values:
                out[j] = self.values[token]
            elif self.default is not None:
                out[j] = self.default
            else:
                raise KeyError(f"no score mapped for token {token!r}")
        return out


@dataclass(frozen=True)
class EmbeddingAlignment:
    """Cosine between each candidate's embedding and the pooled context.

    At construction the table becomes a vocabulary-ordered ``(V, dim)``
    matrix with its row norms, so a step pools matrix rows and takes one
    ``np.vecdot`` over the candidates. With an empty history (or a
    degenerate zero-norm context vector) there is nothing to align
    against, so every candidate scores a neutral 0.
    """

    table: EmbeddingTable
    vocab: Vocabulary
    pooling: str = "mean"
    decay: float = 0.8
    context_window: int = 0
    _rows: np.ndarray = field(init=False, repr=False, compare=False)
    _norms: np.ndarray = field(init=False, repr=False, compare=False)
    _present: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        vectors = self.table.vectors
        absent = np.zeros(self.table.dim, dtype=np.float64)
        rows = np.stack([vectors.get(t, absent) for t in self.vocab.tokens])
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_norms", np.sqrt(np.vecdot(rows, rows)))
        object.__setattr__(self, "_present", np.array([t in vectors for t in self.vocab.tokens]))

    def __call__(self, ctx: GenerationContext, candidate_ids) -> np.ndarray:
        if not ctx.history:
            return np.zeros(len(candidate_ids), dtype=np.float64)
        history = ctx.history[-self.context_window :] if self.context_window > 0 else ctx.history
        absent = ~self._present[history]
        if absent.any():
            raise KeyError(f"token {self.vocab.tokens[history[int(np.argmax(absent))]]!r} has no embedding")
        ctx_vec = pool_rows(self._rows[history], self.pooling, self.decay)
        ctx_norm = float(np.linalg.norm(ctx_vec))
        if ctx_norm < 1e-12:
            return np.zeros(len(candidate_ids), dtype=np.float64)
        ids = np.asarray(candidate_ids, dtype=np.intp)
        norms = self._norms[ids]
        bad = ~self._present[ids] | (norms == 0.0)
        if bad.any():
            tid = int(ids[int(np.argmax(bad))])
            token = self.vocab.tokens[tid]
            if not self._present[tid]:
                raise KeyError(f"token {token!r} has no embedding")
            raise ProviderError(f"token {token!r} has a zero-norm embedding")
        return np.vecdot(self._rows[ids], ctx_vec) / (norms * ctx_norm)


@dataclass(frozen=True)
class KeywordRelevance:
    """Fraction of the keyword set that occurs inside the candidate token."""

    vocab: Vocabulary
    keywords: tuple[str, ...]
    _scores: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.keywords:
            raise ValueError("keyword relevance requires at least one keyword")
        n = len(self.keywords)
        scores = [sum(k in token for k in self.keywords) / n for token in self.vocab.tokens]
        object.__setattr__(self, "_scores", np.array(scores, dtype=np.float64))

    def __call__(self, ctx: GenerationContext, candidate_ids) -> np.ndarray:
        return self._scores[np.asarray(candidate_ids, dtype=np.intp)]


def _provider_values(name: str, provider, ctx, candidate_ids, vocab: Vocabulary) -> np.ndarray:
    try:
        vals = np.asarray(provider(ctx, candidate_ids), dtype=np.float64)
    except ProviderError:
        raise
    except Exception as exc:
        raise ProviderError(f"{name} provider failed: {exc}") from exc
    if vals.shape != (len(candidate_ids),):
        raise ProviderError(
            f"{name} provider returned shape {vals.shape}, expected ({len(candidate_ids)},)"
        )
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        token = vocab.tokens[candidate_ids[int(bad[0])]]
        raise ProviderError(f"{name} provider returned a non-finite score for token {token!r}")
    return vals


def asts_step(
    dist: TokenDistribution,
    ctx: GenerationContext,
    cfg: AstsConfig,
    alignment,
    relevance,
    rng: Rng,
    diversity_fn=None,
    repetition_fn=None,
    composite_fn=None,
    reward_fn=None,
) -> tuple[int, ScoreBreakdown]:
    """Run one full ASTS decoding step and advance ``ctx``.

    ``alignment`` and ``relevance`` are score providers as described in the
    module docstring. The four ``*_fn`` hooks optionally replace the
    computed diversity / repetition / composite / reward values with
    provider outputs of the same shape; they exist so audit tooling and the
    built-in reference check can replay externally supplied score tables
    through the live pipeline. Returns (token id, ScoreBreakdown).
    """
    vocab = dist.vocab
    h = entropy(dist)
    sigma = sigma_entropy(ctx.entropy_window, cfg.sigma_prior)
    alpha, beta = dynamic_thresholds(h, sigma, cfg.k1, cfg.k2)
    ids = band_ids(dist, alpha, beta)
    candidate_ids = ids.tolist()

    p_in = dist.probs[ids]
    surp = np.array([-math.log(p) for p in p_in.tolist()])
    coh = 1.0 - np.abs(surp - h)
    sa = _provider_values("alignment", alignment, ctx, candidate_ids, vocab)
    freq = np.array([ctx.freq.get(i, 0) for i in candidate_ids], dtype=np.float64)
    if diversity_fn is None:
        div = 1.0 / (freq + cfg.eps_div)
    else:
        div = _provider_values("diversity", diversity_fn, ctx, candidate_ids, vocab)
    if composite_fn is None:
        comp = cfg.lambda1 * coh + cfg.lambda2 * sa + cfg.lambda3 * div
    else:
        comp = _provider_values("composite", composite_fn, ctx, candidate_ids, vocab)

    relv = _provider_values("relevance", relevance, ctx, candidate_ids, vocab)
    if repetition_fn is None:
        rep = freq / len(ctx) if len(ctx) else np.zeros(len(candidate_ids))
    else:
        rep = _provider_values("repetition", repetition_fn, ctx, candidate_ids, vocab)
    if reward_fn is None:
        rew = cfg.mu1 * sa + cfg.mu2 * relv - cfg.mu3 * rep
    else:
        rew = _provider_values("reward", reward_fn, ctx, candidate_ids, vocab)

    if cfg.adjust_form == "example":
        exponent = comp + rew
    else:  # "eq13": reward-only exponent, shifted by the input probability
        exponent = rew - p_in
    # The audit trail records the literal adjusted weights; normalisation
    # subtracts the max exponent first so extreme scores cannot overflow.
    adjusted = p_in * np.exp(exponent)
    stable = np.zeros(len(vocab), dtype=np.float64)
    stable[ids] = p_in * np.exp(exponent - exponent.max())
    normalized = normalize(vocab, stable, support=ids)
    final = temperature_scale(normalized, cfg.temperature, support=ids)
    token = sample(final, rng)

    ctx.append(token)
    ctx.push_entropy(h)

    columns = dict(
        zip(
            SCORE_COLUMNS,
            (p_in, surp, coh, sa, div, comp, relv, rep, rew, adjusted, final.probs[ids]),
        )
    )
    breakdown = ScoreBreakdown(
        entropy=h, sigma=sigma, alpha=alpha, beta=beta, vocab=vocab,
        token_ids=candidate_ids, columns=columns, chosen_id=token,
    )
    return token, breakdown

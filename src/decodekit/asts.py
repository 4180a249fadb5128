"""Adaptive semantic-aware typicality sampling (ASTS).

One decoding step runs five stages: (1) an entropy band whose width tracks
the recent entropy volatility selects candidates, (2) each candidate gets a
composite score from coherence, semantic alignment and diversity, (3) a
reward built from alignment, relevance and a repetition penalty multiplies
the candidate probabilities via exp(), (4) the weights are renormalised,
(5) temperature scaling is applied. ``asts_step`` returns that final
distribution with its score breakdown; ``simlm.drive`` draws the token.

Semantic alignment and relevance come from pluggable providers: callables
``provider(ctx, candidate_ids) -> sequence of floats``. Built-ins cover the
embedding-cosine alignment, a constant-zero ablation and keyword overlap.

A step works on whole candidate arrays, renormalisation and temperature
included, and each array operation is chosen to give bit for bit the float
that the scalar formula below it gives, so vectorising moves no output
digest. Both renormalising totals come from ``core.scatter``, so the final
distribution equals the one a size-V computation gives. Dot products and
norms use ``np.vecdot``, which matches ``np.dot``/``np.linalg.norm`` row by
row; a matrix product (``M @ v``), ``einsum`` or ``(M * v).sum(1)`` rounds
differently and must not replace it. Logarithms of single probabilities use
``math.log``, because ``np.log`` differs from it in the last bit on a few
inputs.
"""

from __future__ import annotations

import json
import math
from collections import Counter, deque
from dataclasses import InitVar, dataclass, field, fields
from functools import cached_property
from json.encoder import encode_basestring

import numpy as np

from decodekit.core import (
    MAX_SCALE,
    MIN_TEMPERATURE,
    DistributionError,
    TokenDistribution,
    Vocabulary,
    check_fields,
    entropy,
    leaf,
    scatter,
    scattered,
    tempered_weights,
)
from decodekit.embed import EmbeddingTable, pool_rows
from decodekit.lts import band_ids

ADJUST_FORMS = ("example", "eq13")


class ProviderError(RuntimeError):
    """A score provider failed or produced an unusable value."""


# These bounds keep every step finite with the built-in scores: |coherence| <= 746 (a surprisal is
# at most 745 nats), diversity <= 1 / eps_div <= 1e300 and every other score lies in [-1, 1], so with
# each weight <= MAX_SCALE |exponent| < 1.1e306. Mirostat's tau, eta and mu0 share MAX_SCALE
# (harness.SCHEMA), so its budget moves by at most about 1e12 a step.
@dataclass(frozen=True)
class AstsConfig:
    k1: float = leaf(0.3, lo=0.0)
    k2: float = leaf(0.3, lo=0.0)
    lambda1: float = leaf(0.4, lo=0.0, hi=MAX_SCALE)
    lambda2: float = leaf(0.4, lo=0.0, hi=MAX_SCALE)
    lambda3: float = leaf(0.2, lo=0.0, hi=MAX_SCALE)
    mu1: float = leaf(0.5, lo=0.0, hi=MAX_SCALE)
    mu2: float = leaf(0.3, lo=0.0, hi=MAX_SCALE)
    mu3: float = leaf(0.2, lo=0.0, hi=MAX_SCALE)
    temperature: float = leaf(1.0, lo=MIN_TEMPERATURE)
    window_w: int = leaf(8, lo=1)
    eps_div: float = leaf(1.0, lo=1e-300)
    sigma_prior: float = leaf(0.6, lo=0.0)
    adjust_form: str = leaf("example", choices=ADJUST_FORMS)

    def __post_init__(self) -> None:
        check_fields(self, "asts")


@dataclass
class GenerationContext:
    """Mutable per-sequence state: history, token counts, entropy window."""

    window_w: int = AstsConfig.window_w
    history: list[int] = field(default_factory=list)
    freq: Counter = field(default_factory=Counter)
    entropy_window: deque = field(init=False)

    def __post_init__(self) -> None:
        self.entropy_window = deque(maxlen=self.window_w)
        if self.history and not self.freq:
            self.freq = Counter(self.history)

    def append(self, token_id: int) -> None:
        self.history.append(int(token_id))
        self.freq[int(token_id)] += 1

    def push_entropy(self, h: float) -> None:
        self.entropy_window.append(float(h))

    def __len__(self) -> int:
        return len(self.history)


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

    def __post_init__(self) -> None:
        total = sum(self.columns["final_probability"].tolist())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"candidate probabilities sum to {total!r}, expected 1")

    @cached_property
    def candidates(self) -> tuple[CandidateScore, ...]:
        tokens = self.vocab.tokens
        cols = [self.columns[name].tolist() for name in SCORE_COLUMNS]
        return tuple(CandidateScore(tid, tokens[tid], *row) for tid, *row in zip(self.token_ids, *cols))

    def to_json_line(self, sequence: int, step: int, chosen_id: int) -> str:
        """The audit line of step ``step`` of ``sequence``, with ``chosen_id`` the token drawn.

        The text is what ``json.dumps(obj, ensure_ascii=False)`` writes for
        the object with keys sequence, step, entropy, sigma, alpha, beta,
        chosen_id and candidates (one object per candidate, keys
        ``token_id``, ``token`` and ``SCORE_COLUMNS``), built column by
        column without the objects.
        """
        tokens = map(self.vocab.tokens.__getitem__, self.token_ids)
        cols = [self.token_ids, map(encode_basestring, tokens)]
        cols += [_json_floats(self.columns[name].tolist()) for name in SCORE_COLUMNS]
        # float.__repr__, since a {} field would write a numpy header value's own text.
        head = [self.entropy, self.sigma, self.alpha, self.beta]
        entropy, sigma, alpha, beta = map(float.__repr__ if math.isfinite(sum(head)) else json.dumps, head)
        return (
            f'{{"sequence": {sequence}, "step": {step}, "entropy": {entropy}, "sigma": {sigma}, '
            f'"alpha": {alpha}, "beta": {beta}, "chosen_id": {chosen_id}, "candidates": ['
            + ", ".join(map(_CANDIDATE_TEMPLATE.__mod__, zip(*cols)))
            + "]}"
        )

    def to_json_dict(self, chosen_id: int) -> dict:
        """The audit line of this step as an object, without sequence and step."""
        line = json.loads(self.to_json_line(0, 0, chosen_id))
        del line["sequence"], line["step"]
        return line


# One candidate object of an audit line; each %s takes JSON text, an int id or a finite float.
_CANDIDATE_TEMPLATE = "{" + ", ".join(f'"{name}": %s' for name in ("token_id", "token", *SCORE_COLUMNS)) + "}"


def _json_floats(values: list[float]):
    """The values for ``%s`` fields, each printing as ``json.dumps`` writes it, ``NaN``/``Infinity`` included."""
    # A finite sum means every value is finite, since inf and nan propagate;
    # a sum that overflows only sends finite values down the exact slow path.
    # A finite float's %s text is its repr, which is what json.dumps writes.
    if math.isfinite(sum(values)):
        return values
    return map(json.dumps, values)


def sigma_entropy(entropy_window, sigma_prior: float) -> float:
    """Population std of the recent step entropies; prior before 2 entries."""
    n = len(entropy_window)
    if n < 2:
        return float(sigma_prior)
    # The steps of np.std (mean, squared deviations, mean), without its
    # overhead; math.sqrt rounds correctly as np.sqrt does, so the value is
    # bit-equal.
    a = np.array(entropy_window, dtype=np.float64)
    d = a - a.sum() / n
    return math.sqrt((d * d).sum() / n)


def dynamic_thresholds(h_t: float, sigma_h: float, k1: float, k2: float) -> tuple[float, float]:
    """Entropy band (h - k1*sigma, h + k2*sigma); k1, k2 must be >= 0."""
    return h_t - k1 * sigma_h, h_t + k2 * sigma_h


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

    At construction the table's matrix becomes the rows, with their norms,
    copied into vocabulary order only when the table's order differs; a
    table that lacks a vocabulary token, or has a zero-norm row for one, is
    a ProviderError naming the first. A step pools rows and takes one
    ``np.vecdot`` over the candidates. With an empty history (or a
    degenerate zero-norm context vector) there is nothing to align
    against, so every candidate scores a neutral 0.
    """

    table: InitVar[EmbeddingTable]  # only its rows are kept
    vocab: Vocabulary
    pooling: str = "mean"
    decay: float = 0.8
    context_window: int = 0
    _rows: np.ndarray = field(init=False, repr=False, compare=False)
    _norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, table: EmbeddingTable) -> None:
        tokens = self.vocab.tokens
        rows = table.matrix
        if table.vocab.tokens != tokens:
            missing = table.covers(self.vocab)
            if missing:
                raise ProviderError(
                    f"{len(missing)} vocabulary tokens lack embeddings (first missing: {missing[0]!r})"
                )
            rows = rows[[table.vocab.index[t] for t in tokens]]
        norms = np.sqrt(np.vecdot(rows, rows))
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            raise ProviderError(f"token {tokens[zero[0]]!r} has a zero-norm embedding")
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_norms", norms)

    def __call__(self, ctx: GenerationContext, candidate_ids) -> np.ndarray:
        if not ctx.history:
            return np.zeros(len(candidate_ids), dtype=np.float64)
        history = ctx.history[-self.context_window :] if self.context_window > 0 else ctx.history
        ctx_vec = pool_rows(self._rows[history], self.pooling, self.decay)
        ctx_norm = float(np.linalg.norm(ctx_vec))
        if ctx_norm < 1e-12:
            return np.zeros(len(candidate_ids), dtype=np.float64)
        ids = np.asarray(candidate_ids, dtype=np.intp)
        return np.vecdot(self._rows[ids], ctx_vec) / (self._norms[ids] * ctx_norm)


@dataclass(frozen=True)
class KeywordRelevance:
    """Fraction of the keyword set that occurs inside the candidate token."""

    vocab: Vocabulary
    keywords: tuple[str, ...]
    _scores: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.keywords)
        scores = [sum(k in token for k in self.keywords) / n for token in self.vocab.tokens]
        object.__setattr__(self, "_scores", np.array(scores, dtype=np.float64))

    def __call__(self, ctx: GenerationContext, candidate_ids) -> np.ndarray:
        return self._scores[np.asarray(candidate_ids, dtype=np.intp)]


def _provider_values(name: str, provider, ctx, candidate_ids, vocab: Vocabulary) -> np.ndarray:
    if type(provider) is ConstantScores and type(provider.value) is float and math.isfinite(provider.value):
        return provider(ctx, candidate_ids)  # the right shape and finite, by construction
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
    # A finite sum means every value is finite (see _json_floats).
    if not math.isfinite(vals.sum()):
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
    diversity_fn=None,
    repetition_fn=None,
    composite_fn=None,
    reward_fn=None,
) -> tuple[TokenDistribution, ScoreBreakdown]:
    """Run one full ASTS decoding step up to the draw; ``ctx`` is read, not changed.

    ``alignment`` and ``relevance`` are score providers as described in the
    module docstring. The four ``*_fn`` hooks optionally replace the
    computed diversity / repetition / composite / reward values with
    provider outputs of the same shape; they exist so audit tooling and the
    built-in reference check can replay externally supplied score tables
    through the live pipeline. Returns (final distribution, ScoreBreakdown).
    """
    final, breakdown = asts_step_deferred(
        dist, ctx, cfg, alignment, relevance, diversity_fn, repetition_fn, composite_fn, reward_fn
    )
    return final, breakdown()


def asts_step_deferred(
    dist: TokenDistribution,
    ctx: GenerationContext,
    cfg: AstsConfig,
    alignment,
    relevance,
    diversity_fn=None,
    repetition_fn=None,
    composite_fn=None,
    reward_fn=None,
):
    """``asts_step`` with its breakdown deferred: (final distribution, a function that builds the ScoreBreakdown).

    The work only a breakdown reads (the literal adjusted weights, the score
    columns and their sum check) runs when that function is called, so a
    caller that keeps no audit skips it.
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
    # Normalisation subtracts the max exponent first so extreme scores
    # cannot overflow. p_in is positive, so every shifted weight is finite
    # and nonnegative exactly when the max exponent is finite.
    top = exponent.max()
    if not math.isfinite(top):
        raise DistributionError("weights must be finite")
    w = p_in * np.exp(exponent - top)
    q = w / scatter(len(vocab), ids, w)[1]
    final = scattered(vocab, ids, tempered_weights(q, cfg.temperature))

    def breakdown() -> ScoreBreakdown:
        # The audit records the literal adjusted weights, inf where exp overflows.
        with np.errstate(over="ignore"):
            adjusted = p_in * np.exp(exponent)
        columns = (p_in, surp, coh, sa, div, comp, relv, rep, rew, adjusted, final.probs[ids])
        return ScoreBreakdown(
            entropy=h,
            sigma=sigma,
            alpha=alpha,
            beta=beta,
            vocab=vocab,
            token_ids=candidate_ids,
            columns=dict(zip(SCORE_COLUMNS, columns)),
        )

    return final, breakdown

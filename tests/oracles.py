"""Reference implementations that the tests compare the live code with.

``asts.asts_step`` computes every score on whole candidate arrays. The
scalar formulas below are the same scores one candidate at a time, kept
here so the tests can check each column against them with an exact ``==``.
The second part keeps the dense-vector ASTS step and its helpers, and the
third the truncation rules that kept a boolean mask over the vocabulary.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict

import numpy as np

from decodekit.asts import (
    SCORE_COLUMNS,
    AstsConfig,
    CandidateScore,
    GenerationContext,
    ProviderError,
    ScoreBreakdown,
    dynamic_thresholds,
)
from decodekit.core import DistributionError, TokenDistribution, Vocabulary, entropy, mass_count
from decodekit.lts import _deviations

# exp(x) is finite for every x <= log(float max).
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


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


def freq_of(ctx: GenerationContext, token_id: int) -> int:
    """How often ``token_id`` occurs in the context's history."""
    return ctx.freq.get(int(token_id), 0)


def candidate_to_json_dict(candidate: CandidateScore) -> dict:
    """One candidate object of an audit line."""
    return asdict(candidate)


# --------------------------------------------------------------------------
# The ASTS step as it was before its renormalisation moved onto the
# candidate arrays: ``asts_step`` built a size-V weight vector, renormalised
# it with the dense ``normalize`` and ``temperature_scale`` over the boolean
# band mask, and took ``np.std`` of the entropy window. The live step must
# give the same bytes and raise the same errors.


def sigma_entropy(entropy_window, sigma_prior: float) -> float:
    """Population std of the recent step entropies; prior before 2 entries."""
    window = list(entropy_window)
    if len(window) < 2:
        return float(sigma_prior)
    return float(np.std(np.asarray(window, dtype=np.float64)))


def band_mask(dist: TokenDistribution, alpha: float, beta: float) -> np.ndarray:
    """Mask of the tokens with surprisal in [alpha, beta].

    An empty band falls back to the singleton of minimal typicality
    deviation (ties broken by lowest token id) so downstream samplers
    always have at least one candidate.
    """
    ids, surp, h = _deviations(dist)
    inside = (surp >= alpha) & (surp <= beta)
    keep = np.zeros(len(dist), dtype=bool)
    if inside.any():
        keep[ids] = inside
    else:
        keep[ids[np.argmin(np.abs(surp - h))]] = True  # argmin returns the lowest id on ties
    return keep


def _support_mask(size: int, support) -> np.ndarray:
    """Boolean mask of ``support``: a boolean mask, an integer id array or any iterable of ids."""
    if isinstance(support, np.ndarray) and support.ndim == 1 and support.dtype.kind in "biu":
        if support.dtype.kind == "b":
            if support.shape[0] != size:
                raise IndexError(f"support mask has {support.shape[0]} entries, expected {size}")
            return support
        # Large supports (thousands of ids) stay in numpy; min/max find stray ids.
        ids = support
        outside = ids.size and (ids.min() < 0 or ids.max() >= size)
    else:
        ids = sorted(set(int(i) for i in support))
        outside = ids and (ids[0] < 0 or ids[-1] >= size)
    if outside:
        raise IndexError("support contains token ids outside the vocabulary")
    mask = np.zeros(size, dtype=bool)
    mask[ids] = True
    return mask


def normalize(vocab: Vocabulary, weights, support=None) -> TokenDistribution:
    """Normalise nonnegative weights into a distribution restricted to ``support``.

    Tokens outside ``support`` receive probability zero regardless of their
    weight. ``support`` is an iterable of token ids, an integer id array or a
    boolean mask over the vocabulary; None means all tokens.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.shape[0] != len(vocab):
        raise DistributionError(f"weight vector has shape {w.shape}, expected ({len(vocab)},)")
    if not np.all(np.isfinite(w)):
        raise DistributionError("weights must be finite")
    if np.any(w < 0.0):
        raise DistributionError("weights must be nonnegative")
    if support is not None:
        w = np.where(_support_mask(len(vocab), support), w, 0.0)
    total = w.sum()
    if total <= 0.0:
        raise DistributionError("cannot normalise: total weight over support is zero")
    if not np.isfinite(total):
        raise DistributionError("cannot normalise: total weight overflows")
    return TokenDistribution._checked_by_caller(vocab, w / total)


def temperature_scale(dist: TokenDistribution, temperature: float, support=None) -> TokenDistribution:
    """Sharpen or flatten ``dist`` by exponent 1/T over ``support``.

    Computed in log space so extreme temperatures neither underflow nor
    overflow; T = 1 with full support reproduces the input distribution.
    Rank order within the support is preserved for every T > 0.
    """
    if not (temperature > 0.0 and math.isfinite(temperature)):
        raise ValueError(f"temperature must be positive and finite, got {temperature!r}")
    p = dist.probs
    if support is not None:
        p = np.where(_support_mask(len(dist), support), p, 0.0)
    pos = p > 0.0
    if not np.any(pos):
        raise DistributionError("temperature_scale: support carries no probability mass")
    # log is taken only where p > 0; every other entry stays -inf.
    logp = np.log(p, where=pos, out=np.full_like(p, -np.inf))
    scaled = logp / temperature
    scaled -= scaled[pos].max()
    w = np.exp(scaled, where=np.isfinite(scaled), out=np.zeros_like(scaled))
    return TokenDistribution._checked_by_caller(dist.vocab, w / w.sum())


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
    diversity_fn=None,
    repetition_fn=None,
    composite_fn=None,
    reward_fn=None,
) -> tuple[TokenDistribution, ScoreBreakdown]:
    """Run one full ASTS decoding step up to the draw; ``ctx`` is read, not changed."""
    vocab = dist.vocab
    h = entropy(dist)
    sigma = sigma_entropy(ctx.entropy_window, cfg.sigma_prior)
    alpha, beta = dynamic_thresholds(h, sigma, cfg.k1, cfg.k2)
    band = band_mask(dist, alpha, beta)
    ids = np.flatnonzero(band)
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
    # The audit trail records the literal adjusted weights, inf where exp
    # overflows; normalisation subtracts the max exponent first so extreme
    # scores cannot overflow.
    top = exponent.max()
    if top > _LOG_FLOAT_MAX:
        with np.errstate(over="ignore"):
            adjusted = p_in * np.exp(exponent)
    else:
        adjusted = p_in * np.exp(exponent)
    stable = np.zeros(len(vocab), dtype=np.float64)
    stable[ids] = p_in * np.exp(exponent - top)
    normalized = normalize(vocab, stable, support=band)
    final = temperature_scale(normalized, cfg.temperature, support=band)

    columns = dict(
        zip(
            SCORE_COLUMNS,
            (p_in, surp, coh, sa, div, comp, relv, rep, rew, adjusted, final.probs[ids]),
        )
    )
    breakdown = ScoreBreakdown(
        entropy=h, sigma=sigma, alpha=alpha, beta=beta, vocab=vocab, token_ids=candidate_ids, columns=columns
    )
    return final, breakdown


# --------------------------------------------------------------------------
# The truncation rules as they were when each one kept a boolean mask over
# the vocabulary and renormalised it through ``np.where``. The live rules
# keep token ids and must give the same bytes.


def restrict(dist: TokenDistribution, keep: np.ndarray) -> TokenDistribution:
    """``dist`` renormalised over the tokens the boolean mask ``keep`` selects."""
    w = np.where(keep, dist.probs, 0.0)
    return TokenDistribution._checked_by_caller(dist.vocab, w / w.sum())


def top_mask(dist: TokenDistribution, n: int) -> np.ndarray:
    """Mask of the ``n >= 1`` most probable tokens, ties to the lowest id.

    Fewer than ``n`` tokens of positive probability are all kept.
    """
    p = dist.probs
    pos = p.size - min(n, p.size)
    cut = np.partition(p, pos)[pos]
    if cut <= 0.0:
        return p > 0.0
    keep = p > cut
    keep[np.flatnonzero(p == cut)[: n - np.count_nonzero(keep)]] = True
    return keep


def greedy_restrict(dist: TokenDistribution) -> TokenDistribution:
    keep = np.zeros(len(dist), dtype=bool)
    keep[np.argmax(dist.probs)] = True  # argmax returns the lowest id on ties
    return restrict(dist, keep)


def topk_restrict(dist: TokenDistribution, k: int) -> TokenDistribution:
    return restrict(dist, top_mask(dist, k))


def nucleus_restrict(dist: TokenDistribution, p: float) -> TokenDistribution:
    descending = np.sort(dist.probs)[::-1]
    return restrict(dist, top_mask(dist, mass_count(descending, p)))


def mirostat_step(dist: TokenDistribution, mu: float) -> TokenDistribution:
    ids = dist.support()
    keep = np.zeros(len(dist), dtype=bool)
    keep[ids] = -np.log(dist.probs[ids]) <= mu
    if not keep.any():
        return greedy_restrict(dist)
    return restrict(dist, keep)


def typical_set_band(dist: TokenDistribution, alpha: float, beta: float) -> TokenDistribution:
    return restrict(dist, band_mask(dist, alpha, beta))


def typical_set_mass(dist: TokenDistribution, tau: float) -> TokenDistribution:
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    ids, surp, h = _deviations(dist)
    dev = np.abs(surp - h)
    order = np.argsort(dev)
    ranked = dev[order]
    if np.any(ranked[1:] == ranked[:-1]):
        order = np.argsort(dev, kind="stable")  # ids ascend, so ties keep id order
    ranked_ids = ids[order]
    keep = np.zeros(len(dist), dtype=bool)
    keep[ranked_ids[: mass_count(dist.probs[ranked_ids], tau)]] = True
    return restrict(dist, keep)

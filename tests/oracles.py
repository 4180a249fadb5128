"""Scalar ASTS score formulas: the reference that ``asts_step``'s columns are compared with.

``asts.asts_step`` computes every score on whole candidate arrays. These
are the same formulas one candidate at a time, kept here so the tests can
check each column against them with an exact ``==``.
"""

from __future__ import annotations

import math
from dataclasses import asdict

from decodekit.asts import AstsConfig, CandidateScore, GenerationContext


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

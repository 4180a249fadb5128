"""Sampler adapters: every sampler is a rule, and the drive loop draws.

An adapter exposes ``restrict(dist, history) -> TokenDistribution``, the
renormalised distribution its rule keeps, and ``observe(token, dist)``,
which sees the drawn token with the unrestricted step distribution.
``simlm.drive`` makes the one draw per step from the restricted
distribution; ``history`` is its list of token ids (prompt, then drawn
tokens), which adapters read without changing.
``TruncationSampler`` serves every stateless rule (greedy, top-k, nucleus,
LTS band or mass). Mirostat and ASTS keep per-sequence state (the surprise
budget; the ASTS context and audit trail), so each sequence gets a fresh
adapter from the factory ``harness.build_sampler`` returns, which holds
what the run's sequences share.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

from decodekit.asts import AstsConfig, GenerationContext, ScoreBreakdown, asts_step, asts_step_deferred
from decodekit.baselines import mirostat_step
from decodekit.core import TokenDistribution, entropy, surprisal

SAMPLER_NAMES = ("greedy", "topk", "nucleus", "mirostat", "lts", "asts")


@dataclass
class TruncationSampler:
    """A stateless truncation rule ``dist -> renormalised dist``."""

    rule: Callable[[TokenDistribution], TokenDistribution]

    def restrict(self, dist: TokenDistribution, history) -> TokenDistribution:
        return self.rule(dist)

    def observe(self, token: int, dist: TokenDistribution) -> None:
        pass


def _finite_mu(mu: float) -> float:
    if not math.isfinite(mu):
        raise ValueError(f"mirostat mu must be finite, got {mu!r}")
    return mu


@dataclass
class MirostatSampler:
    """Mirostat's surprise-feedback controller; ``mu`` is the sequence's surprise budget in nats."""

    target_tau: float
    eta: float
    mu: float

    def __post_init__(self) -> None:
        _finite_mu(self.mu)

    def restrict(self, dist: TokenDistribution, history) -> TokenDistribution:
        return mirostat_step(dist, self.mu)

    def observe(self, token: int, dist: TokenDistribution) -> None:
        """Move the budget to mu - eta*(s - target_tau), s the drawn token's surprisal under ``dist``."""
        self.mu = _finite_mu(self.mu - self.eta * (surprisal(dist, token) - self.target_tau))


@dataclass
class AstsSampler:
    """ASTS adapter; owns the sequence's GenerationContext, with an entropy
    window of ``cfg.window_w``, and collects one ScoreBreakdown per step for
    the audit log. With ``breakdowns`` None it keeps none, and each step
    skips the work only a breakdown reads.
    """

    cfg: AstsConfig
    alignment: object
    relevance: object
    breakdowns: list[ScoreBreakdown] | None = field(default_factory=list)
    ctx: GenerationContext = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.ctx = GenerationContext(window_w=self.cfg.window_w)

    def restrict(self, dist: TokenDistribution, history) -> TokenDistribution:
        ctx = self.ctx
        for tid in history[len(ctx) :]:  # the prompt, at the first step
            ctx.append(tid)
        if self.breakdowns is None:
            return asts_step_deferred(dist, ctx, self.cfg, self.alignment, self.relevance)[0]
        final, breakdown = asts_step(dist, ctx, self.cfg, self.alignment, self.relevance)
        self.breakdowns.append(breakdown)
        return final

    def observe(self, token: int, dist: TokenDistribution) -> None:
        self.ctx.append(token)
        self.ctx.push_entropy(entropy(dist))

"""Sampler adapters: every sampler is a rule, and the drive loop draws.

An adapter exposes ``restrict(dist, history) -> TokenDistribution``, the
renormalised distribution its rule keeps, and ``observe(token, dist)``,
which sees the drawn token with the unrestricted step distribution.
``simlm.drive`` makes the one draw per step from the restricted
distribution; ``history`` is its list of token ids (prompt, then drawn
tokens), which adapters read without changing.
``TruncationSampler`` serves every stateless rule (greedy, top-k, nucleus,
LTS band or mass). Mirostat and ASTS keep per-sequence state (the
controller; the ASTS context and audit trail), so the harness builds a
fresh adapter per sequence.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from decodekit.asts import AstsConfig, GenerationContext, ScoreBreakdown, asts_step, asts_step_deferred
from decodekit.baselines import MirostatState, mirostat_step
from decodekit.core import TokenDistribution, entropy

SAMPLER_NAMES = ("greedy", "topk", "nucleus", "mirostat", "lts", "asts")


@dataclass
class TruncationSampler:
    """A stateless truncation rule ``dist -> renormalised dist``."""

    rule: Callable[[TokenDistribution], TokenDistribution]

    def restrict(self, dist: TokenDistribution, history) -> TokenDistribution:
        return self.rule(dist)

    def observe(self, token: int, dist: TokenDistribution) -> None:
        pass


@dataclass
class MirostatSampler:
    state: MirostatState

    def restrict(self, dist: TokenDistribution, history) -> TokenDistribution:
        return mirostat_step(dist, self.state)

    def observe(self, token: int, dist: TokenDistribution) -> None:
        self.state = self.state.update(dist, token)


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

"""Sampler adapters: every sampler is a rule, and the drive loop draws.

An adapter exposes ``restrict(dist, ctx) -> TokenDistribution``, the
renormalised distribution its rule keeps, and ``observe(token, dist)``,
which sees the drawn token with the unrestricted step distribution.
``simlm.drive`` makes the one draw per step from the restricted
distribution; adapters read ``ctx`` without changing it.
``TruncationSampler`` serves every stateless rule (greedy, top-k, nucleus,
LTS band or mass). Mirostat and ASTS keep per-sequence state (the
controller, the audit trail), so the harness builds a fresh adapter per
sequence.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from decodekit.asts import AstsConfig, ScoreBreakdown, asts_step, asts_step_deferred
from decodekit.baselines import MirostatState, mirostat_step
from decodekit.core import TokenDistribution

SAMPLER_NAMES = ("greedy", "topk", "nucleus", "mirostat", "lts", "asts")


@dataclass
class TruncationSampler:
    """A stateless truncation rule ``dist -> renormalised dist``."""

    rule: Callable[[TokenDistribution], TokenDistribution]

    def restrict(self, dist: TokenDistribution, ctx) -> TokenDistribution:
        return self.rule(dist)

    def observe(self, token: int, dist: TokenDistribution) -> None:
        pass


@dataclass
class MirostatSampler:
    state: MirostatState

    def restrict(self, dist: TokenDistribution, ctx) -> TokenDistribution:
        return mirostat_step(dist, self.state)

    def observe(self, token: int, dist: TokenDistribution) -> None:
        self.state = self.state.update(dist, token)


@dataclass
class AstsSampler:
    """ASTS adapter; collects one ScoreBreakdown per step for the audit log.

    With ``breakdowns`` None it keeps none, and each step skips the work
    only a breakdown reads.
    """

    cfg: AstsConfig
    alignment: object
    relevance: object
    breakdowns: list[ScoreBreakdown] | None = field(default_factory=list)

    def restrict(self, dist: TokenDistribution, ctx) -> TokenDistribution:
        if self.breakdowns is None:
            return asts_step_deferred(dist, ctx, self.cfg, self.alignment, self.relevance)[0]
        final, breakdown = asts_step(dist, ctx, self.cfg, self.alignment, self.relevance)
        self.breakdowns.append(breakdown)
        return final

    def observe(self, token: int, dist: TokenDistribution) -> None:
        pass

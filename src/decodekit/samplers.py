"""Step adapters giving every sampler the same drive-loop interface.

An adapter exposes ``step(dist, ctx, rng) -> token id`` and reads ``ctx``
without changing it; the drive loop appends each token and its step
entropy. ``TruncationSampler`` draws from any truncation rule
``dist -> renormalised dist`` (top-k, nucleus, LTS band or mass). Greedy
takes no draw, and Mirostat and ASTS keep per-sequence state (the
controller, the audit trail), so the harness builds a fresh adapter per
sequence.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from decodekit.asts import AstsConfig, ScoreBreakdown, asts_step
from decodekit.baselines import MirostatState, greedy_step, mirostat_step
from decodekit.core import Rng, TokenDistribution, sample

SAMPLER_NAMES = ("greedy", "topk", "nucleus", "mirostat", "lts", "asts")


class GreedySampler:
    def step(self, dist: TokenDistribution, ctx, rng: Rng) -> int:
        return greedy_step(dist)


@dataclass
class TruncationSampler:
    """Draws one token from ``restrict(dist)``."""

    restrict: Callable[[TokenDistribution], TokenDistribution]

    def step(self, dist: TokenDistribution, ctx, rng: Rng) -> int:
        return sample(self.restrict(dist), rng)


@dataclass
class MirostatSampler:
    state: MirostatState

    def step(self, dist: TokenDistribution, ctx, rng: Rng) -> int:
        token, self.state = mirostat_step(dist, self.state, rng)
        return token


@dataclass
class AstsSampler:
    """ASTS adapter; collects one ScoreBreakdown per step for the audit log."""

    cfg: AstsConfig
    alignment: object
    relevance: object
    breakdowns: list[ScoreBreakdown] = field(default_factory=list)

    def step(self, dist: TokenDistribution, ctx, rng: Rng) -> int:
        token, breakdown = asts_step(dist, ctx, self.cfg, self.alignment, self.relevance, rng)
        self.breakdowns.append(breakdown)
        return token

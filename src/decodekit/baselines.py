"""Reference samplers: greedy, top-k, nucleus (top-p) and a Mirostat-style
surprise-feedback controller.

Each is a truncation rule that maps a distribution to its renormalised
truncation; ``simlm.drive`` draws from the result. Greedy keeps the one-hot
on the argmax. Mirostat's cut depends on its controller state:
``mirostat_step`` is the cut, and ``MirostatState.update`` moves the budget
once the token is drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from decodekit.core import TokenDistribution, mass_count, restrict, surprisal, top_ids


def greedy_restrict(dist: TokenDistribution) -> TokenDistribution:
    """The one-hot on the most probable token (ties to the lowest id); every draw returns it."""
    return restrict(dist, [np.argmax(dist.probs)])  # argmax returns the lowest id on ties


def topk_restrict(dist: TokenDistribution, k: int) -> TokenDistribution:
    """Renormalise over the k most probable tokens (clamped to the support), ties to the lowest id."""
    return restrict(dist, top_ids(dist, k))


def nucleus_restrict(dist: TokenDistribution, p: float) -> TokenDistribution:
    """Smallest probability-descending prefix with cumulative mass >= p, ties to the lowest id.

    Tied probabilities give the same cumulative sums in any order, so the
    prefix length comes from the sorted values alone; zeros sort last and
    add nothing to the sums.
    """
    descending = np.sort(dist.probs)[::-1]
    return restrict(dist, top_ids(dist, mass_count(descending, p)))


@dataclass(frozen=True)
class MirostatState:
    """Controller state; mu is the current surprise budget in nats."""

    mu: float
    target_tau: float = 3.0
    eta: float = 0.1

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise ValueError(f"mirostat mu must be finite, got {self.mu!r}")

    @classmethod
    def initial(cls, target_tau: float = 3.0, eta: float = 0.1, mu0: float | None = None):
        """Fresh state; mu0 defaults to 2*target_tau, the usual warm start."""
        return cls(mu=2.0 * target_tau if mu0 is None else mu0, target_tau=target_tau, eta=eta)

    def update(self, dist: TokenDistribution, token: int) -> "MirostatState":
        """The budget after drawing ``token``: mu - eta*(s - target_tau), s its surprisal under ``dist``."""
        return replace(self, mu=self.mu - self.eta * (surprisal(dist, token) - self.target_tau))


def mirostat_step(dist: TokenDistribution, state: MirostatState) -> TokenDistribution:
    """The tokens within the current surprise budget, renormalised.

    Tokens with surprisal above ``state.mu`` are cut; when nothing survives
    the argmax alone is kept.
    """
    ids = dist.support()
    kept = ids[-np.log(dist.probs[ids]) <= state.mu]
    if not kept.size:
        return greedy_restrict(dist)
    return restrict(dist, kept)

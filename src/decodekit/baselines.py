"""Reference samplers: greedy, top-k, nucleus (top-p) and a Mirostat-style
surprise-feedback controller.

Top-k and nucleus are truncation rules: ``topk_restrict`` and
``nucleus_restrict`` map a distribution to its renormalised truncation,
which ``samplers.TruncationSampler`` then draws from. Greedy takes no draw,
and Mirostat's cut depends on its controller state, so both are steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from decodekit.core import Rng, TokenDistribution, mass_count, restrict, sample, surprisal, top_mask


def greedy_step(dist: TokenDistribution) -> int:
    """Most probable token; argmax ties resolve to the lowest id."""
    return int(np.argmax(dist.probs))


def topk_restrict(dist: TokenDistribution, k: int) -> TokenDistribution:
    """Renormalise over the k most probable tokens (clamped to the support), ties to the lowest id."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return restrict(dist, top_mask(dist, k))


def nucleus_restrict(dist: TokenDistribution, p: float) -> TokenDistribution:
    """Smallest probability-descending prefix with cumulative mass >= p, ties to the lowest id.

    Tied probabilities give the same cumulative sums in any order, so the
    prefix length comes from the sorted values alone; zeros sort last and
    add nothing to the sums.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"nucleus p must lie in (0, 1], got {p}")
    descending = np.sort(dist.probs)[::-1]
    return restrict(dist, top_mask(dist, mass_count(descending, p)))


@dataclass(frozen=True)
class MirostatState:
    """Controller state; mu is the current surprise budget in nats."""

    mu: float
    target_tau: float = 3.0
    eta: float = 0.1

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise ValueError(f"mirostat mu must be finite, got {self.mu!r}")
        if not self.eta >= 0.0:
            raise ValueError(f"mirostat eta must be >= 0, got {self.eta!r}")

    @classmethod
    def initial(cls, target_tau: float = 3.0, eta: float = 0.1, mu0: float | None = None):
        """Fresh state; mu0 defaults to 2*target_tau, the usual warm start."""
        return cls(mu=2.0 * target_tau if mu0 is None else mu0, target_tau=target_tau, eta=eta)


def mirostat_step(dist: TokenDistribution, state: MirostatState, rng: Rng) -> tuple[int, MirostatState]:
    """Sample under the current surprise budget, then move the budget.

    Tokens with surprisal above ``state.mu`` are cut (falling back to the
    argmax when nothing survives). The emitted token's surprisal under the
    original distribution feeds the update mu <- mu - eta*(s - target_tau).
    """
    ids = dist.support()
    keep = np.zeros(len(dist), dtype=bool)
    keep[ids] = -np.log(dist.probs[ids]) <= state.mu
    if not keep.any():
        keep[greedy_step(dist)] = True
    token = sample(restrict(dist, keep), rng)
    s = surprisal(dist, token)
    new_state = replace(state, mu=state.mu - state.eta * (s - state.target_tau))
    return token, new_state

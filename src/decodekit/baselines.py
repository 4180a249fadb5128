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

from decodekit.core import Rng, TokenDistribution, mass_prefix, normalize, sample, surprisal


def greedy_step(dist: TokenDistribution) -> int:
    """Most probable token; argmax ties resolve to the lowest id."""
    return int(np.argmax(dist.probs))


def _by_probability(dist: TokenDistribution) -> np.ndarray:
    """Positive-support ids ordered by descending probability, ties by id."""
    ids = dist.support()
    order = np.lexsort((ids, -dist.probs[ids]))
    return ids[order]


def topk_restrict(dist: TokenDistribution, k: int) -> TokenDistribution:
    """Renormalise over the k most probable tokens (clamped to the support)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return normalize(dist.vocab, dist.probs, support=_by_probability(dist)[:k])


def nucleus_restrict(dist: TokenDistribution, p: float) -> TokenDistribution:
    """Smallest probability-descending prefix with cumulative mass >= p."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"nucleus p must lie in (0, 1], got {p}")
    keep = mass_prefix(dist, _by_probability(dist), p)
    return normalize(dist.vocab, dist.probs, support=keep)


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
    surp = -np.log(dist.probs[ids])
    keep = ids[surp <= state.mu]
    if keep.size == 0:
        keep = np.array([greedy_step(dist)])
    token = sample(normalize(dist.vocab, dist.probs, support=keep), rng)
    s = surprisal(dist, token)
    new_state = replace(state, mu=state.mu - state.eta * (s - state.target_tau))
    return token, new_state

"""Reference samplers: greedy, top-k, nucleus (top-p) and Mirostat's cut.

Each is a truncation rule that maps a distribution to its renormalised
truncation; ``simlm.drive`` draws from the result. Greedy keeps the one-hot
on the argmax. ``mirostat_step`` cuts at a surprise budget; the controller
that moves the budget after each draw is ``samplers.MirostatSampler``.
"""

from __future__ import annotations

import numpy as np

from decodekit.core import TokenDistribution, mass_count, restrict, top_ids


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


def mirostat_step(dist: TokenDistribution, mu: float) -> TokenDistribution:
    """The tokens within the surprise budget ``mu`` (nats), renormalised.

    Tokens with surprisal above ``mu`` are cut; when nothing survives the
    argmax alone is kept.
    """
    ids = dist.support()
    kept = ids[-np.log(dist.probs[ids]) <= mu]
    if not kept.size:
        return greedy_restrict(dist)
    return restrict(dist, kept)

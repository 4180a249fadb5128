"""Locally typical sampling: restrict decoding to tokens whose surprisal
sits close to the entropy of the step distribution.

Two constructions of the typical set are supported. The band variant keeps
tokens whose surprisal lies in an explicit interval [alpha, beta]; the mass
variant ranks tokens by typicality deviation |surprisal - entropy| and
keeps the smallest prefix whose cumulative probability reaches tau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from decodekit.core import Rng, TokenDistribution, entropy, normalize, sample


@dataclass(frozen=True)
class LtsConfig:
    mode: str = "mass"  # "band" or "mass"
    epsilon: float = 0.5  # band half-width around the entropy, nats
    tau_mass: float = 0.95  # mass threshold for the mass variant

    def __post_init__(self) -> None:
        if self.mode not in ("band", "mass"):
            raise ValueError(f"lts.mode must be 'band' or 'mass', got {self.mode!r}")
        if not self.epsilon >= 0.0:
            raise ValueError(f"lts.epsilon must be >= 0, got {self.epsilon}")
        if not 0.0 < self.tau_mass <= 1.0:
            raise ValueError(f"lts.tau_mass must lie in (0, 1], got {self.tau_mass}")


@dataclass(frozen=True)
class TypicalSet:
    """A nonempty candidate set plus the renormalised distribution over it."""

    member_ids: frozenset[int]
    renormalized: TokenDistribution

    def __post_init__(self) -> None:
        if not self.member_ids:
            raise ValueError("typical set must be nonempty")


def typicality_deviation(dist: TokenDistribution, token_id: int) -> float:
    """|surprisal(token) - entropy(dist)|; zero-probability tokens are rejected."""
    p = dist.prob(token_id)
    if p <= 0.0:
        raise ValueError(
            f"typicality deviation undefined for zero-probability token "
            f"{dist.vocab.tokens[token_id]!r}"
        )
    return float(abs(-np.log(p) - entropy(dist)))


def _deviations(dist: TokenDistribution) -> tuple[np.ndarray, np.ndarray, float]:
    """Positive-support ids, their surprisals, and the distribution entropy."""
    ids = dist.support()
    if ids.size == 0:
        raise ValueError("distribution has empty support")
    surp = -np.log(dist.probs[ids])
    return ids, surp, entropy(dist)


def band_ids(dist: TokenDistribution, alpha: float, beta: float) -> np.ndarray:
    """Ascending ids of the tokens with surprisal in [alpha, beta].

    An empty band falls back to the singleton of minimal typicality
    deviation (ties broken by lowest token id) so downstream samplers
    always have at least one candidate.
    """
    if alpha > beta:
        raise ValueError(f"band bounds out of order: alpha={alpha} > beta={beta}")
    ids, surp, h = _deviations(dist)
    inside = ids[(surp >= alpha) & (surp <= beta)]
    if inside.size == 0:
        dev = np.abs(surp - h)
        inside = ids[np.argmin(dev)][None]  # argmin returns the lowest id on ties
    return inside


def typical_set_band(dist: TokenDistribution, alpha: float, beta: float) -> TypicalSet:
    """The ``band_ids`` set, renormalised."""
    inside = band_ids(dist, alpha, beta)
    return TypicalSet(frozenset(inside.tolist()), normalize(dist.vocab, dist.probs, support=inside))


def typical_set_mass(dist: TokenDistribution, tau: float) -> TypicalSet:
    """Smallest deviation-ranked prefix reaching cumulative probability tau.

    Ranking is by ascending |surprisal - entropy| with ties broken by
    ascending token id, so the construction is deterministic.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    ids, surp, h = _deviations(dist)
    dev = np.abs(surp - h)
    order = np.lexsort((ids, dev))  # primary key deviation, secondary token id
    ranked = ids[order]
    cum = np.cumsum(dist.probs[ranked])
    k = int(np.searchsorted(cum, tau, side="left")) + 1
    keep = ranked[: min(k, ranked.size)]
    return TypicalSet(frozenset(keep.tolist()), normalize(dist.vocab, dist.probs, support=keep))


def lts_step(dist: TokenDistribution, cfg: LtsConfig, rng: Rng) -> tuple[int, TypicalSet]:
    """Draw one token via locally typical sampling; returns (token, set)."""
    if cfg.mode == "band":
        h = entropy(dist)
        ts = typical_set_band(dist, h - cfg.epsilon, h + cfg.epsilon)
    else:
        ts = typical_set_mass(dist, cfg.tau_mass)
    return sample(ts.renormalized, rng), ts

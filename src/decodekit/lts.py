"""Locally typical sampling: restrict decoding to tokens whose surprisal
sits close to the entropy of the step distribution.

Two constructions of the typical set are supported, each a truncation rule
that returns the distribution renormalised over its set. The band variant
keeps tokens whose surprisal lies in an explicit interval [alpha, beta];
the mass variant ranks tokens by typicality deviation |surprisal - entropy|
and keeps the smallest prefix whose cumulative probability reaches tau.
``lts_restrict`` picks one from an ``LtsConfig``, and
``simlm.drive`` draws from its result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from decodekit.core import TokenDistribution, check_fields, entropy, leaf, mass_count, restrict

MODES = ("band", "mass")


@dataclass(frozen=True)
class LtsConfig:
    mode: str = leaf("mass", choices=MODES)
    epsilon: float = leaf(0.5, lo=0.0)  # band half-width around the entropy, nats
    tau_mass: float = leaf(0.95, above=0.0, hi=1.0)  # mass threshold for the mass variant

    def __post_init__(self) -> None:
        check_fields(self, "lts")


def _deviations(dist: TokenDistribution) -> tuple[np.ndarray, np.ndarray, float]:
    """Positive-support ids, their surprisals, and the distribution entropy."""
    ids = dist.support()
    surp = -np.log(dist.probs[ids])
    return ids, surp, entropy(dist)


def band_ids(dist: TokenDistribution, alpha: float, beta: float) -> np.ndarray:
    """Ascending ids of the tokens with surprisal in [alpha, beta].

    An empty band falls back to the singleton of minimal typicality
    deviation (ties broken by lowest token id) so downstream samplers
    always have at least one candidate.
    """
    ids, surp, h = _deviations(dist)
    kept = ids[(surp >= alpha) & (surp <= beta)]
    if kept.size:
        return kept
    best = int(np.argmin(np.abs(surp - h)))  # argmin returns the lowest id on ties
    return ids[best : best + 1]


def typical_set_band(dist: TokenDistribution, alpha: float, beta: float) -> TokenDistribution:
    """The ``band_ids`` set, renormalised."""
    return restrict(dist, band_ids(dist, alpha, beta))


def typical_set_mass(dist: TokenDistribution, tau: float) -> TokenDistribution:
    """Smallest deviation-ranked prefix reaching cumulative probability tau, renormalised.

    Ranking is by ascending |surprisal - entropy| with ties broken by
    ascending token id, so the construction is deterministic. The ranking
    uses an unstable sort unless two deviations are equal, and then a stable
    one: tied tokens can carry different probabilities (h - d and h + d), and
    their order decides both the cumulative sums and which of them make the
    cut.
    """
    ids, surp, h = _deviations(dist)
    dev = np.abs(surp - h)
    order = dev.argsort()
    ranked = dev[order]
    if (ranked[1:] == ranked[:-1]).any():
        order = dev.argsort(kind="stable")  # ids ascend, so ties keep id order
    ranked_ids = ids[order]
    return restrict(dist, ranked_ids[: mass_count(dist.probs[ranked_ids], tau)])


def lts_restrict(dist: TokenDistribution, cfg: LtsConfig) -> TokenDistribution:
    """The typical set ``cfg`` selects, renormalised: band h +/- epsilon or mass tau."""
    if cfg.mode == "band":
        h = entropy(dist)
        return typical_set_band(dist, h - cfg.epsilon, h + cfg.epsilon)
    return typical_set_mass(dist, cfg.tau_mass)

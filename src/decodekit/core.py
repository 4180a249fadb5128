"""Probability primitives shared by every sampler in the package.

All information quantities use natural logarithms (nats). Probabilities
below ``ENTROPY_FLOOR`` are treated as exact zeros inside entropy sums so
that renormalised tail noise cannot inject spurious -p*log(p) terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Probabilities below this floor contribute nothing to entropy terms.
ENTROPY_FLOOR = 1e-12

# A distribution must sum to 1 within this tolerance to be accepted.
SUM_TOLERANCE = 1e-9


class DistributionError(ValueError):
    """Raised when an array fails the TokenDistribution invariants."""


@dataclass(frozen=True)
class Vocabulary:
    """Immutable token inventory; token ids are positions in ``tokens``."""

    tokens: tuple[str, ...]
    index: dict[str, int] = field(repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.tokens) == 0:
            raise ValueError("vocabulary must contain at least one token")
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("vocabulary tokens must be unique")
        object.__setattr__(self, "index", {t: i for i, t in enumerate(self.tokens)})

    @classmethod
    def from_tokens(cls, tokens) -> "Vocabulary":
        return cls(tokens=tuple(tokens))

    def __len__(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        try:
            return self.index[token]
        except KeyError:
            raise KeyError(f"token {token!r} not in vocabulary") from None


def default_vocabulary(size: int = 256) -> Vocabulary:
    """Synthetic vocabulary ``tok000 .. tokNNN`` used by desk-scale runs."""
    if size < 1:
        raise ValueError(f"vocabulary size must be >= 1, got {size}")
    return Vocabulary.from_tokens(f"tok{i:03d}" for i in range(size))


@dataclass(frozen=True)
class TokenDistribution:
    """A validated probability distribution over a vocabulary.

    Instances are immutable after construction: the probability array is
    copied on ingestion and marked read-only, so distributions are safe to
    share between samplers and audit logs.
    """

    vocab: Vocabulary
    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.probs, dtype=np.float64).copy()
        if arr.ndim != 1 or arr.shape[0] != len(self.vocab):
            raise DistributionError(
                f"probability vector has shape {arr.shape}, expected ({len(self.vocab)},)"
            )
        if not np.all(np.isfinite(arr)):
            raise DistributionError("probabilities must be finite")
        if np.any(arr < 0.0):
            raise DistributionError("probabilities must be nonnegative")
        total = float(arr.sum())
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise DistributionError(f"probabilities sum to {total!r}, expected 1 within {SUM_TOLERANCE}")
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @classmethod
    def _checked_by_caller(cls, vocab: Vocabulary, probs: np.ndarray) -> "TokenDistribution":
        """Wrap a fresh array whose invariants the caller has already checked.

        Internal renormalisations validate their weights once; this skips
        the second copy-and-check that the constructor would make.
        """
        probs.flags.writeable = False
        dist = object.__new__(cls)
        object.__setattr__(dist, "vocab", vocab)
        object.__setattr__(dist, "probs", probs)
        return dist

    def __len__(self) -> int:
        return len(self.vocab)

    def prob(self, token_id: int) -> float:
        return float(self.probs[token_id])

    def support(self) -> np.ndarray:
        """Ids of tokens carrying positive probability."""
        return np.flatnonzero(self.probs > 0.0)


def softmax(vocab: Vocabulary, logits) -> TokenDistribution:
    """Convert raw logits to a TokenDistribution (max-shifted for stability)."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1 or z.shape[0] != len(vocab):
        raise DistributionError(f"logit vector has shape {z.shape}, expected ({len(vocab)},)")
    if not np.all(np.isfinite(z)):
        raise DistributionError("logits must be finite")
    w = np.exp(z - z.max())
    return TokenDistribution(vocab, w / w.sum())


def entropy(dist: TokenDistribution) -> float:
    """Shannon entropy of ``dist`` in nats.

    Entries below ``ENTROPY_FLOOR`` are treated as zero, so degenerate
    one-hot distributions report exactly 0.0. Distributions are immutable,
    so the value is computed once and cached on ``dist``.
    """
    h = dist.__dict__.get("_entropy")
    if h is None:
        p = dist.probs[dist.probs >= ENTROPY_FLOOR]
        h = float(-np.sum(p * np.log(p))) if p.size else 0.0
        object.__setattr__(dist, "_entropy", h)
    return h


def surprisal(dist: TokenDistribution, token_id: int) -> float:
    """Negative log probability ``-ln p(token)`` in nats."""
    if not 0 <= token_id < len(dist):
        raise IndexError(f"token id {token_id} out of range for vocabulary of {len(dist)}")
    p = dist.prob(token_id)
    if p <= 0.0:
        raise ValueError(
            f"surprisal undefined for zero-probability token {dist.vocab.tokens[token_id]!r}"
        )
    return float(-math.log(p))


def _support_mask(size: int, support) -> np.ndarray:
    """Boolean mask of ``support``: a boolean mask, an integer id array or any iterable of ids."""
    if isinstance(support, np.ndarray) and support.ndim == 1 and support.dtype.kind in "biu":
        if support.dtype.kind == "b":
            if support.shape[0] != size:
                raise IndexError(f"support mask has {support.shape[0]} entries, expected {size}")
            return support
        # Large supports (thousands of ids) stay in numpy; min/max find stray ids.
        ids = support
        outside = ids.size and (ids.min() < 0 or ids.max() >= size)
    else:
        ids = sorted(set(int(i) for i in support))
        outside = ids and (ids[0] < 0 or ids[-1] >= size)
    if outside:
        raise IndexError("support contains token ids outside the vocabulary")
    mask = np.zeros(size, dtype=bool)
    mask[ids] = True
    return mask


def normalize(vocab: Vocabulary, weights, support=None) -> TokenDistribution:
    """Normalise nonnegative weights into a distribution restricted to ``support``.

    Tokens outside ``support`` receive probability zero regardless of their
    weight. ``support`` is an iterable of token ids, an integer id array or a
    boolean mask over the vocabulary; None means all tokens.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.shape[0] != len(vocab):
        raise DistributionError(f"weight vector has shape {w.shape}, expected ({len(vocab)},)")
    if not np.all(np.isfinite(w)):
        raise DistributionError("weights must be finite")
    if np.any(w < 0.0):
        raise DistributionError("weights must be nonnegative")
    if support is not None:
        w = np.where(_support_mask(len(vocab), support), w, 0.0)
    total = w.sum()
    if total <= 0.0:
        raise DistributionError("cannot normalise: total weight over support is zero")
    if not np.isfinite(total):
        raise DistributionError("cannot normalise: total weight overflows")
    return TokenDistribution._checked_by_caller(vocab, w / total)


def temperature_scale(dist: TokenDistribution, temperature: float, support=None) -> TokenDistribution:
    """Sharpen or flatten ``dist`` by exponent 1/T over ``support``.

    Computed in log space so extreme temperatures neither underflow nor
    overflow; T = 1 with full support reproduces the input distribution.
    Rank order within the support is preserved for every T > 0.
    """
    if not (temperature > 0.0 and math.isfinite(temperature)):
        raise ValueError(f"temperature must be positive and finite, got {temperature!r}")
    p = dist.probs
    if support is not None:
        p = np.where(_support_mask(len(dist), support), p, 0.0)
    pos = p > 0.0
    if not np.any(pos):
        raise DistributionError("temperature_scale: support carries no probability mass")
    # log is taken only where p > 0; every other entry stays -inf.
    logp = np.log(p, where=pos, out=np.full_like(p, -np.inf))
    scaled = logp / temperature
    scaled -= scaled[pos].max()
    w = np.exp(scaled, where=np.isfinite(scaled), out=np.zeros_like(scaled))
    return TokenDistribution._checked_by_caller(dist.vocab, w / w.sum())


@dataclass
class Rng:
    """Seedable random source for all sampling in the package.

    Wraps numpy's PCG64 generator: the algorithm is fixed and its stream is
    stable across platforms for a given seed, which is what makes runs byte
    reproducible. Do not swap the underlying bit generator silently; every
    frozen test expectation depends on it.
    """

    seed: int

    def __post_init__(self) -> None:
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self) -> float:
        """One double in [0, 1); advances the stream by exactly one draw."""
        return float(self._gen.random())


def sample(dist: TokenDistribution, rng: Rng) -> int:
    """Draw one token id from ``dist`` by inverse-CDF over the vocabulary.

    Consumes exactly one uniform variate, so callers can reason about rng
    stream positions. Zero-probability tokens are never returned.
    """
    u = rng.uniform()
    cum = np.cumsum(dist.probs)
    idx = int(np.searchsorted(cum, u * cum[-1], side="right"))
    if idx >= len(dist):
        idx = len(dist) - 1
    # Guard against landing on a zero-probability tail entry when u ~ 1.
    while idx > 0 and dist.probs[idx] <= 0.0:
        idx -= 1
    return idx

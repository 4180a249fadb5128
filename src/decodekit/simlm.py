"""Deterministic synthetic language model for desk-scale experiments.

Each next-token distribution is a pure function of (profile, trailing
history): a blake2b hash of the seed and the recent token ids seeds a
PCG64 stream that yields one gaussian score per vocabulary token, and the
distribution is the softmax of those scores at the profile temperature.
Because the hash only sees a bounded suffix, the model is a small-order
stochastic source: cheap, reproducible, and expressive enough to exhibit
the entropy and repetition dynamics the samplers are built to handle.

Profile kinds:

* ``peaked`` / ``flat``: plain hash-softmax; the two names exist so config
  files read clearly (peaked runs use a low base_temperature, flat a high
  one; defaults 0.3 and 10.0 in the harness).
* ``mixed``: the hash additionally picks a per-step temperature multiplier
  from {0.25, 1.0, 4.0}, so entropy swings regime to regime.
* ``loop_prone``: tokens seen in the trailing ``recency_window`` get their
  scores multiplied by ``loop_gamma`` (>= 1) before the softmax, biasing
  the source toward degenerate repetition loops.

Generation and scoring share one step, ``_weights``, which ends in
``core.tempered_exp`` (``w = exp(z / t - max(z / t))`` of the drawn scores),
and divide by ``w.sum()``. They differ only in how they seed the scores'
PCG64 stream. Generation knows one context at a time and constructs
``PCG64(seed)`` per step. Scoring knows every context of the sequence before
its first step, so ``core.seeded_generators`` derives the same states a
chunk at a time, at about a quarter of the cost.

The output needs no check of its own, because ``LmProfile`` bounds
``base_temperature`` below by ``core.MIN_TEMPERATURE`` (1e-300):

* every step's t is at least 2.5e-301 (the 0.25 factor of ``mixed``);
* every |z| is at most 724, since numpy's standard normal draws stay below
  14 and ln(``loop_gamma``) is at most 710;
* so every z / t, and every difference of two, is below 6e303 and finite.

Every ``w`` then lies in [0, 1] with one entry exactly 1, so ``w / w.sum()``
is finite, nonnegative and sums to 1 within about V ulps.

``drive``, the decode loop every model shares, keeps only the token history;
per-sequence state such as the ASTS context lives in the sampler.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from decodekit.core import (
    MIN_TEMPERATURE,
    Rng,
    TokenDistribution,
    Vocabulary,
    check_fields,
    entropy,
    leaf,
    sample,
    seeded_generators,
    tempered_exp,
)

KINDS = ("peaked", "flat", "mixed", "loop_prone")

_MIXED_FACTORS = (0.25, 1.0, 4.0)


@dataclass(frozen=True)
class LmProfile:
    kind: str = leaf("mixed", choices=KINDS)
    base_temperature: float = leaf(1.0, lo=MIN_TEMPERATURE)
    loop_gamma: float = leaf(1.0, lo=1.0)
    recency_window: int = leaf(4, lo=1)
    seed: int = leaf(0, lo=0, hi=2**64 - 1)

    def __post_init__(self) -> None:
        check_fields(self, "model.synthetic")


def _context_digest(profile: LmProfile, suffix: tuple[int, ...]) -> bytes:
    payload = f"{profile.seed}|{','.join(map(str, suffix))}".encode()
    return hashlib.blake2b(payload, digest_size=16).digest()


def _seed(digest: bytes) -> int:
    """The PCG64 seed of a context: the digest's first 8 bytes, little-endian."""
    return int.from_bytes(digest[:8], "little")


def _weights(profile: LmProfile, digest: bytes, suffix: tuple[int, ...], scores: np.ndarray) -> np.ndarray:
    """Unnormalised softmax weights ``exp(z / t - max(z / t))`` of the step after ``suffix``, computed in ``scores``.

    ``scores`` are the gaussian scores drawn from the PCG64 stream seeded by
    ``_seed(digest)``, one per vocabulary token; ``core.tempered_exp`` does the rest.
    """
    temperature = profile.base_temperature
    if profile.kind == "mixed":
        temperature *= _MIXED_FACTORS[digest[8] % len(_MIXED_FACTORS)]
    if profile.kind == "loop_prone" and suffix:
        # Recency boost: multiplying a (positive) exp-score by gamma is the
        # same as adding ln(gamma) to the raw score.
        scores[list(set(suffix))] += math.log(profile.loop_gamma)
    return tempered_exp(scores, temperature)


def next_distribution(profile: LmProfile, history, vocab: Vocabulary) -> TokenDistribution:
    """Next-token distribution after ``history``, a sliceable sequence of token ids."""
    suffix = tuple(history[-profile.recency_window :])
    digest = _context_digest(profile, suffix)
    gen = np.random.Generator(np.random.PCG64(_seed(digest)))
    w = _weights(profile, digest, suffix, gen.standard_normal(len(vocab)))
    w /= w.sum()
    return TokenDistribution._checked_by_caller(vocab, w)


def token_probabilities(profile: LmProfile, seq, size: int) -> list[float]:
    """``next_distribution(profile, seq[:i], vocab).prob(seq[i])`` for every i, bit for bit."""
    seq, r = tuple(seq), profile.recency_window
    suffixes = (seq[max(0, i - r) : i] for i in range(len(seq)))
    # Every context is known up front, so every seed is: seeded_generators
    # derives them a chunk ahead, and tee holds at most that chunk.
    contexts, ahead = itertools.tee((s, _context_digest(profile, s)) for s in suffixes)
    gens = seeded_generators(_seed(digest) for _, digest in ahead)
    out = []
    for t, (suffix, digest), gen in zip(seq, contexts, gens):
        w = _weights(profile, digest, suffix, gen.standard_normal(size))
        out.append(float(w[t] / w.sum()))
    return out


def drive(next_fn, sampler, seed: int, max_tokens: int, prompt=(), on_step=None):
    """Generic decode loop shared by synthetic and replayed models.

    ``history`` holds the prompt's token ids, then each drawn token.
    ``next_fn(history, step)`` supplies each step's TokenDistribution and
    ``sampler.restrict(dist, history)`` the distribution its rule keeps. The
    loop makes the step's one draw from it, shows the token and ``dist`` to
    ``sampler.observe``, then calls ``on_step(step, token)`` if given.
    Returns (token ids after the prompt, per-step entropy trace).
    """
    rng = Rng(seed)
    history = [int(tid) for tid in prompt]
    trace: list[float] = []
    for step in range(max_tokens):
        dist = next_fn(history, step)
        token = sample(sampler.restrict(dist, history), rng)
        sampler.observe(token, dist)
        if on_step is not None:
            on_step(step, token)
        history.append(token)
        trace.append(entropy(dist))
    return history[len(prompt) :], trace

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

Generation and scoring share one definition of a step, ``_step``: its
temperature and the tokens its loop boost raises. Both add the boost to the
drawn scores, run ``core.tempered_exp`` (``w = exp(z / t - max(z / t))``)
and divide by the sum of ``w``. They differ in how they seed the scores'
PCG64 stream and in how many steps one kernel call serves. Generation knows
one context at a time, constructs ``PCG64(seed)`` per step and runs the
kernel on one row of V scores. Scoring knows every context of the sequence
before its first step, so ``core.seeded_generators`` derives the same
states a chunk at a time, at about a quarter of the cost, and one kernel
call serves a block of positions, one row each (``BLOCK_ELEMENTS // V``
rows, 32 KB), where V is at most 1024.

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
    SEED_CHUNK,
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

# Scoring fills a block of positions' scores at a time: BLOCK_ELEMENTS // V
# rows of V float64 (32 KB, so a block stays in L1), at most SEED_CHUNK. A
# block's shared calls cost about 8 us, so below MIN_BLOCK_ROWS rows (V > 1024)
# each position makes generation's 1-D kernel call instead. Measured against
# one position at a time on a 2-vCPU Xeon: 16-row blocks at V = 256 take 0.75
# of the time, 4 rows at V = 1024 0.98, 3 and 2 rows 1.04-1.12; 400-512 KB
# blocks ran V = 4096 scoring 9% slower in separate processes.
BLOCK_ELEMENTS = 2**12
MIN_BLOCK_ROWS = 4


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


def _step(profile: LmProfile, digest: bytes, suffix: tuple[int, ...]) -> tuple[float, list[int]]:
    """The temperature of the step after ``suffix`` and the token ids whose scores its loop boost raises.

    The boost adds ``ln(loop_gamma)`` to a raw score, which is the same as
    multiplying the (positive) exp-score by ``loop_gamma``.
    """
    temperature = profile.base_temperature
    if profile.kind == "mixed":
        temperature *= _MIXED_FACTORS[digest[8] % len(_MIXED_FACTORS)]
    boosted = list(set(suffix)) if profile.kind == "loop_prone" else []
    return temperature, boosted


def _weights(profile: LmProfile, digest: bytes, suffix: tuple[int, ...], scores: np.ndarray) -> np.ndarray:
    """Unnormalised softmax weights of the step after ``suffix``, computed in ``scores``, its drawn gaussian scores."""
    temperature, boosted = _step(profile, digest, suffix)
    if boosted:
        scores[boosted] += math.log(profile.loop_gamma)
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
    """``next_distribution(profile, seq[:i], vocab).prob(seq[i])`` for every i, bit for bit.

    Positions are scored a block of rows at a time: each row is one
    position's scores, and one ``tempered_exp`` call serves the block. Where
    fewer than ``MIN_BLOCK_ROWS`` rows fit the budget, each position makes the
    1-D call generation makes.
    """
    seq, r = tuple(seq), profile.recency_window
    suffixes = (seq[max(0, i - r) : i] for i in range(len(seq)))
    # Every context is known up front, so every seed is: seeded_generators
    # derives them a chunk ahead, and tee holds at most that chunk.
    contexts, ahead = itertools.tee((s, _context_digest(profile, s)) for s in suffixes)
    gens = seeded_generators(_seed(digest) for _, digest in ahead)
    out: list[float] = []
    height = min(len(seq), SEED_CHUNK, BLOCK_ELEMENTS // size)
    if height < MIN_BLOCK_ROWS:
        scores = np.empty(size)
        for t, (suffix, digest), gen in zip(seq, contexts, gens):
            w = _weights(profile, digest, suffix, gen.standard_normal(out=scores))
            out.append(float(w[t] / w.sum()))
        return out
    z = np.empty((height, size))
    rows = np.arange(height)
    log_gamma = math.log(profile.loop_gamma)
    for start in range(0, len(seq), height):
        temperatures, boosted_rows, boosted = [], [], []
        for row, (suffix, digest), gen in zip(z, contexts, gens):  # z first: a full block takes no context
            gen.standard_normal(out=row)
            temperature, ids = _step(profile, digest, suffix)
            boosted_rows += [len(temperatures)] * len(ids)
            boosted += ids
            temperatures.append(temperature)
        n = len(temperatures)
        if boosted:
            z[boosted_rows, boosted] += log_gamma
        w = tempered_exp(z[:n], np.array(temperatures))
        drawn = w[rows[:n], seq[start : start + n]]
        out += (drawn / w.sum(axis=1)).tolist()
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

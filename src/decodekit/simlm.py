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

Generation and scoring share one kernel, ``_weights`` (``w = exp(z - max z)``),
and divide by ``w.sum()``. Its one O(1) check, a finite ``max z``, is all the
validation the output needs: every ``w`` then lies in [0, 1] with one entry
exactly 1, so ``w / w.sum()`` is finite, nonnegative and sums to 1 within
about V ulps. NaN, +inf and all -inf fail it, as they fail the checked
``TokenDistribution`` constructor.

``drive``, the decode loop every model shares, keeps only the token history;
per-sequence state such as the ASTS context lives in the sampler.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from decodekit.core import DistributionError, Rng, TokenDistribution, Vocabulary, check_fields, entropy, leaf, sample

KINDS = ("peaked", "flat", "mixed", "loop_prone")

_MIXED_FACTORS = (0.25, 1.0, 4.0)


@dataclass(frozen=True)
class LmProfile:
    kind: str = leaf("mixed", choices=KINDS)
    base_temperature: float = leaf(1.0, above=0.0)
    loop_gamma: float = leaf(1.0, lo=1.0)
    recency_window: int = leaf(4, lo=1)
    seed: int = leaf(0, lo=0, hi=2**64 - 1)

    def __post_init__(self) -> None:
        check_fields(self, "model.synthetic")


def _context_digest(profile: LmProfile, suffix: tuple[int, ...]) -> bytes:
    payload = f"{profile.seed}|{','.join(map(str, suffix))}".encode()
    return hashlib.blake2b(payload, digest_size=16).digest()


def _weights(profile: LmProfile, suffix: tuple[int, ...], size: int) -> np.ndarray:
    """Unnormalised softmax weights ``exp(z - max z)`` of the step after ``suffix``."""
    digest = _context_digest(profile, suffix)
    gen = np.random.Generator(np.random.PCG64(int.from_bytes(digest[:8], "little")))
    scores = gen.standard_normal(size)

    temperature = profile.base_temperature
    if profile.kind == "mixed":
        temperature *= _MIXED_FACTORS[digest[8] % len(_MIXED_FACTORS)]
    if profile.kind == "loop_prone" and suffix:
        # Recency boost: multiplying a (positive) exp-score by gamma is the
        # same as adding ln(gamma) to the raw score.
        scores[list(set(suffix))] += math.log(profile.loop_gamma)

    # max(scores / t) is max(scores) / t bit for bit, since t > 0; taking it
    # as a Python float first rejects an overflow before numpy divides (and
    # warns). A subnormal base_temperature times 0.25 can round to t = 0.
    top = float(scores.max()) / temperature if temperature else math.inf
    if not math.isfinite(top):
        raise DistributionError(f"scores overflow at base_temperature {profile.base_temperature!r}")
    # The lowest score can still overflow to -inf (a weight of 0) in the
    # divide or the subtract, and numpy would warn. Above t = 1e-300 that
    # takes a score beyond 8e7 in magnitude, while standard normal draws
    # (numpy's stay below 14) plus log(loop_gamma) <= 710 never get there.
    # Below it, Python floats overflow without a warning, so the lowest
    # score tells exactly when to silence numpy.
    if temperature >= 1e-300 or math.isfinite(float(scores.min()) / temperature - top):
        return _shifted_exp(scores, temperature, top)
    with np.errstate(over="ignore"):
        return _shifted_exp(scores, temperature, top)


def _shifted_exp(scores: np.ndarray, temperature: float, top: float) -> np.ndarray:
    """``np.exp(scores / temperature - top)``, computed in place in ``scores``."""
    scores /= temperature
    scores -= top
    return np.exp(scores, out=scores)


def next_distribution(profile: LmProfile, history, vocab: Vocabulary) -> TokenDistribution:
    """Next-token distribution after ``history``, a sliceable sequence of token ids."""
    w = _weights(profile, tuple(history[-profile.recency_window :]), len(vocab))
    w /= w.sum()
    return TokenDistribution._checked_by_caller(vocab, w)


def token_probabilities(profile: LmProfile, seq, size: int) -> list[float]:
    """``next_distribution(profile, seq[:i], vocab).prob(seq[i])`` for every i, bit for bit."""
    seq, r = tuple(seq), profile.recency_window
    out = []
    for i, t in enumerate(seq):
        w = _weights(profile, seq[max(0, i - r) : i], size)
        out.append(float(w[t] / w.sum()))
    return out


def drive(next_fn, sampler, seed: int, max_tokens: int, prompt=()):
    """Generic decode loop shared by synthetic and replayed models.

    ``history`` holds the prompt's token ids, then each drawn token.
    ``next_fn(history, step)`` supplies each step's TokenDistribution and
    ``sampler.restrict(dist, history)`` the distribution its rule keeps. The
    loop makes the step's one draw from it and shows the token and ``dist``
    to ``sampler.observe``. Returns (token ids after the prompt, per-step
    entropy trace).
    """
    rng = Rng(seed)
    history = [int(tid) for tid in prompt]
    trace: list[float] = []
    for step in range(max_tokens):
        dist = next_fn(history, step)
        token = sample(sampler.restrict(dist, history), rng)
        sampler.observe(token, dist)
        history.append(token)
        trace.append(entropy(dist))
    return history[len(prompt) :], trace

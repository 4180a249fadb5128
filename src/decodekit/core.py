"""Probability primitives shared by every sampler in the package, and the
``leaf`` row that declares a config field with its accepted range.

All information quantities use natural logarithms (nats). Probabilities
below ``ENTROPY_FLOOR`` are treated as exact zeros inside entropy sums so
that renormalised tail noise cannot inject spurious -p*log(p) terms.

Every kept set is an array of token ids: a truncation rule picks ids and
``restrict`` renormalises ``dist`` over them. ``scatter`` is the one place a
renormalising total is taken, and two rules keep every output bit-identical
to ranking the whole support with a stable sort:

- The total is always taken dense: ``scatter`` puts the kept values into a
  zero vector of size V, then takes its ``.sum()``. Never ``values.sum()``
  over the kept ids alone: numpy sums pairwise, so a total over a shorter
  array groups the values differently and can differ in the last bit.
- Ties go to the lowest token id. ``top_ids`` finds the n-th largest
  probability with ``np.partition`` and fills its remaining places from the
  tokens equal to it in ascending id order; a rank by any other key (LTS
  mass) uses an unstable sort and falls back to a stable one only when two
  adjacent sorted keys are equal.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import Field, dataclass, field, fields

import numpy as np

# Probabilities below this floor contribute nothing to entropy terms.
ENTROPY_FLOOR = 1e-12

# A distribution must sum to 1 within this tolerance to be accepted.
SUM_TOLERANCE = 1e-9

# The floor of every temperature in the package. Every positive double q has
# |ln q| <= 745, so at T >= this bound ln(q) / T stays finite and so does
# every tempered weight.
MIN_TEMPERATURE = 1e-300
# The ceiling of every ASTS and Mirostat scale; AstsConfig says why no step can then overflow.
MAX_SCALE = 1e6


def leaf(default, *, lo=None, hi=None, above=None, choices=None, kind=None) -> Field:
    """A config field declared once: its default and the values it accepts.

    ``lo`` and ``hi`` are inclusive bounds, ``above`` an exclusive lower
    bound and ``choices`` the accepted values. ``kind`` is the leaf's type,
    the type of ``default`` unless that is null. ``check_leaf`` reads these.
    """
    rules = {"kind": kind or type(default), "lo": lo, "hi": hi, "above": above, "choices": choices}
    return field(default=default, metadata={k: v for k, v in rules.items() if v is not None})


_BOUNDS = (("lo", operator.ge, ">="), ("above", operator.gt, ">"), ("hi", operator.le, "<="))


def check_leaf(path: str, spec: Field, value) -> None:
    """Raise ValueError naming ``path`` unless ``value`` is one the leaf ``spec`` accepts.

    A float leaf must also be finite. The value's type is the caller's to check.
    """
    rules = spec.metadata
    if "choices" in rules:
        if value not in rules["choices"]:
            raise ValueError(f"{path}: must be one of {rules['choices']}, got {value!r}")
        return
    if rules["kind"] is float and not math.isfinite(value):
        raise ValueError(f"{path}: must be finite, got {value!r}")
    for key, within, sign in _BOUNDS:
        if key in rules and not within(value, rules[key]):
            raise ValueError(f"{path}: must be {sign} {rules[key]!r}, got {value!r}")


def check_fields(obj, prefix: str) -> None:
    """``check_leaf`` on every field of the dataclass ``obj``, each named ``<prefix>.<field>``."""
    for spec in fields(obj):
        check_leaf(f"{prefix}.{spec.name}", spec, getattr(obj, spec.name))


def utf8_error(path) -> str:
    """The message for a file ``path`` that failed to decode: the line of its first byte that is not UTF-8.

    Text files decode in blocks, so the error's own offset is the block's;
    this reads the file again, on that error path only.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        return f"{path}: line {lineno}: not UTF-8 text"
    return f"{path}: not UTF-8 text"


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
        index = dict(zip(self.tokens, range(len(self.tokens))))
        if len(index) != len(self.tokens):
            # index keeps each token's last position, so the first token
            # whose position differs is the first that repeats.
            repeated = next(t for i, t in enumerate(self.tokens) if index[t] != i)
            raise ValueError(f"vocabulary tokens must be unique, {repeated!r} repeats")
        object.__setattr__(self, "index", index)

    @classmethod
    def from_tokens(cls, tokens) -> "Vocabulary":
        return cls(tokens=tuple(tokens))

    def __len__(self) -> int:
        return len(self.tokens)


@functools.lru_cache(maxsize=4)
def default_vocabulary(size: int = 256) -> Vocabulary:
    """Synthetic vocabulary ``tok000 .. tokNNN`` used by desk-scale runs.

    One shared instance per size: the last few sizes asked for are kept, so
    every model, sweep value and report in a process reads the same
    immutable vocabulary. At the largest ``vocab_size`` (2**18) one holds
    about 32 MiB.
    """
    # One %-format over the whole range builds the names several times
    # faster than an f-string per token.
    return Vocabulary.from_tokens((("tok%03d " * size) % tuple(range(size))).split())


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
        return (self.probs > 0.0).nonzero()[0]


def entropy(dist: TokenDistribution) -> float:
    """Shannon entropy of ``dist`` in nats.

    Entries below ``ENTROPY_FLOOR`` are treated as zero, so degenerate
    one-hot distributions report exactly 0.0. Distributions are immutable,
    so the value is computed once and cached on ``dist``.
    """
    h = dist.__dict__.get("_entropy")
    if h is None:
        p = dist.probs[dist.probs >= ENTROPY_FLOOR]
        h = float(-(p * np.log(p)).sum()) if p.size else 0.0
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


def _support_ids(size: int, support) -> np.ndarray:
    """Ids of ``support``: a boolean mask, or integer ids in any order and with repeats; every id when None."""
    if support is None:
        return np.arange(size)
    ids = support if isinstance(support, np.ndarray) else np.asarray(list(support))
    if ids.dtype.kind == "b":
        if ids.shape != (size,):
            raise IndexError(f"support mask has shape {ids.shape}, expected ({size},)")
        return np.flatnonzero(ids)
    if not ids.size:
        return np.empty(0, dtype=np.intp)
    if ids.ndim != 1 or ids.dtype.kind not in "iu":
        raise IndexError(f"support must be a boolean mask or integer token ids, got {ids.dtype} {ids.shape}")
    # min/max find stray ids without a Python loop over large supports.
    if ids.min() < 0 or ids.max() >= size:
        raise IndexError("support contains token ids outside the vocabulary")
    return ids.astype(np.intp, copy=False)


def scatter(size: int, ids: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.float64]:
    """The weights ``w`` of the tokens ``ids`` in a zero vector of size ``size``, and its dense sum.

    This is the only renormalising total in the package. It must be
    positive and finite.
    """
    dense = np.zeros(size, dtype=np.float64)
    dense[ids] = w
    total = dense.sum()
    if total <= 0.0:
        raise DistributionError("cannot normalise: total weight over support is zero")
    if not math.isfinite(total):  # np.isfinite costs ten times as much on one float
        raise DistributionError("cannot normalise: total weight overflows")
    return dense, total


def scattered(vocab: Vocabulary, ids: np.ndarray, w: np.ndarray) -> TokenDistribution:
    """The distribution proportional to the weights ``w`` of the tokens ``ids``, zero elsewhere."""
    dense, total = scatter(len(vocab), ids, w)
    dense /= total
    return TokenDistribution._checked_by_caller(vocab, dense)


def tempered_exp(z: np.ndarray, temperature) -> np.ndarray:
    """Unnormalised softmax weights ``exp(z / T - max(z / T))``, computed in place in ``z``.

    The package's one tempered softmax: the largest weight is exactly 1 and
    a ``z`` of -inf weighs 0. ``z`` is one row of scores with a float ``T``,
    or a matrix of rows with an array ``T`` of one temperature per row, and
    each row's weights are the bytes the row alone would give. Callers keep
    each finite ``|z / T|`` below 9e307 (``|z| <= 745`` and
    ``T >= MIN_TEMPERATURE / 4``), so neither a quotient nor a difference of
    two overflows.
    """
    # max(z / T) is max(z) / T bit for bit (T > 0, division correctly rounded);
    # taking it before the divide measured about 1% faster at V = 4096.
    if z.ndim == 1:  # one row: the axis-keeping calls below would cost it about 3 us
        top = float(z.max()) / temperature
        massless = top == -math.inf
    else:
        temperature = temperature[:, None]
        top = z.max(axis=1, keepdims=True) / temperature
        massless = float(top.min()) == -math.inf
    if massless:
        raise DistributionError("temperature_scale: support carries no probability mass")
    z /= temperature
    z -= top
    return np.exp(z, out=z)


def tempered_weights(q: np.ndarray, temperature: float) -> np.ndarray:
    """Unnormalised ``q ** (1/T)``: ``tempered_exp(log q, T)``, 0 where ``q`` is 0."""
    with np.errstate(divide="ignore"):
        scaled = np.log(q)  # -inf where q is 0, and exp(-inf - top) is 0
    return tempered_exp(scaled, temperature)


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
    ids = _support_ids(len(vocab), support)
    return scattered(vocab, ids, w[ids])


def restrict(dist: TokenDistribution, ids) -> TokenDistribution:
    """``dist`` renormalised over the tokens ``ids``.

    ``dist`` is already validated, so unlike ``normalize`` this makes no
    finiteness or sign check. ``ids`` must include a token of positive
    probability.
    """
    return scattered(dist.vocab, ids, dist.probs[ids])


def top_ids(dist: TokenDistribution, n: int) -> np.ndarray:
    """Ids of the ``n >= 1`` most probable tokens, ties to the lowest id.

    Fewer than ``n`` tokens of positive probability are all kept.
    """
    p = dist.probs
    pos = p.size - min(n, p.size)
    cut = np.partition(p, pos)[pos]
    if cut <= 0.0:
        return dist.support()
    above = np.flatnonzero(p > cut)
    return np.concatenate((above, np.flatnonzero(p == cut)[: n - above.size]))


def mass_count(ranked: np.ndarray, mass: float) -> int:
    """Length of the shortest prefix of the probabilities ``ranked`` whose sum reaches ``mass``.

    Never less than 1; one more than ``ranked.size`` when the whole sum falls
    short of ``mass``.
    """
    return int(ranked.cumsum().searchsorted(mass, side="left")) + 1


def temperature_scale(dist: TokenDistribution, temperature: float, support=None) -> TokenDistribution:
    """Sharpen or flatten ``dist`` by exponent 1/T over ``support``.

    Computed in log space (``tempered_weights``); T = 1 with full support
    reproduces the input distribution. Rank order within the support is
    preserved for every T > 0.
    """
    if not (temperature > 0.0 and math.isfinite(temperature)):
        raise ValueError(f"temperature must be positive and finite, got {temperature!r}")
    if temperature < MIN_TEMPERATURE:
        raise ValueError(f"temperature must be >= {MIN_TEMPERATURE!r}, got {temperature!r}")
    ids = _support_ids(len(dist), support)
    return scattered(dist.vocab, ids, tempered_weights(dist.probs[ids], temperature))


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


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier (O'Neill 2014, PCG_DEFAULT_MULTIPLIER_128).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

# Seeds that seeded_generators derives in one vectorised pass; its memory
# grows with this, not with the number of seeds.
SEED_CHUNK = 256


def _hash_constants(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiplier of each of ``n`` successive hashmix calls on a hash constant starting at ``init``."""
    xors, mults = [], []
    for _ in range(n):
        xors.append(init)
        init = init * mult & 0xFFFFFFFF
        mults.append(init)
    return np.array(xors, dtype=np.uint32), np.array(mults, dtype=np.uint32)


def _hashmix(value: np.ndarray, xor, mult) -> np.ndarray:
    value = (value ^ xor) * mult  # uint32 arrays wrap, as SeedSequence's arithmetic does
    return value ^ (value >> 16)


def _pcg64_states(seeds) -> list[tuple[int, int]]:
    """The (state, inc) that ``np.random.PCG64(seed)`` starts in, for each 64-bit seed.

    numpy's seeding, vectorised over the seeds:

    - ``SeedSequence(seed)`` hashes the seed's 32-bit words into a pool of
      four and mixes every pool word into every other. A seed has at most
      two words, and the pool pads with zero words, so a seed below 2**32,
      one word, mixes exactly as the two words (seed, 0) do.
    - ``generate_state(4, uint64)`` hashes the pool, cycled, out into eight
      32-bit words: four uint64s, low word first.
    - PCG64's ``srandom`` takes the first two uint64s as the high and low
      halves of the initial state and the last two as those of the stream,
      then makes two LCG steps from state 0.

    The 128-bit steps run on Python ints, which the ``state`` setter takes.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    xor_a, mult_a = _hash_constants(_INIT_A, _MULT_A, 16)
    entropy_words = np.zeros((seeds.size, 4), dtype=np.uint32)
    entropy_words[:, 0] = seeds & 0xFFFFFFFF
    entropy_words[:, 1] = seeds >> 32
    pool = _hashmix(entropy_words, xor_a[:4], mult_a[:4])
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        k = 4 + 3 * src
        mixed = _hashmix(pool[:, src, None], xor_a[k : k + 3], mult_a[k : k + 3])
        mixed = pool[:, dst] * np.uint32(_MIX_MULT_L) - mixed * np.uint32(_MIX_MULT_R)
        pool[:, dst] = mixed ^ (mixed >> 16)
    words = _hashmix(pool[:, [0, 1, 2, 3, 0, 1, 2, 3]], *_hash_constants(_INIT_B, _MULT_B, 8)).astype(np.uint64)
    states = []
    for init_hi, init_lo, seq_hi, seq_lo in (words[:, 0::2] | words[:, 1::2] << 32).tolist():
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        states.append((((inc + (init_hi << 64 | init_lo)) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


@functools.cache
def _check_seeding() -> None:
    """Raise RuntimeError unless ``_pcg64_states`` matches this numpy's PCG64 seeding; passes are cached."""
    seed = 0x9E3779B97F4A7C15
    state, inc = _pcg64_states([seed])[0]
    if np.random.PCG64(seed).state["state"] != {"state": state, "inc": inc}:
        raise RuntimeError(
            f"numpy {np.__version__} seeds PCG64 differently from decodekit's restatement of its seeding; "
            "scoring would not match generation"
        )


def seeded_generators(seeds):
    """One ``np.random.Generator`` per 64-bit seed, in the state ``Generator(PCG64(seed))`` starts in.

    The same generator is yielded every time, set through the public
    ``BitGenerator.state`` setter, so use it before taking the next. The
    states are derived ``SEED_CHUNK`` seeds at a time, and a seed costs
    about a quarter of a ``PCG64(seed)``, most of it in the setter. That
    pays only where many seeds are known before the first draw: scoring a
    known sequence, not generation. The first call in a process checks the
    derivation against ``PCG64`` itself.
    """
    _check_seeding()
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    inner = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": inner, "has_uint32": 0, "uinteger": 0}
    seeds = iter(seeds)
    while chunk := list(itertools.islice(seeds, SEED_CHUNK)):
        for inner["state"], inner["inc"] in _pcg64_states(chunk):  # the setter copies them
            bitgen.state = state
            yield gen


def sample(dist: TokenDistribution, rng: Rng) -> int:
    """Draw one token id from ``dist`` by inverse-CDF over the vocabulary.

    Consumes exactly one uniform variate, so callers can reason about rng
    stream positions. Zero-probability tokens are never returned.
    """
    u = rng.uniform()
    cum = dist.probs.cumsum()
    idx = int(cum.searchsorted(u * cum[-1], side="right"))
    if idx >= cum.size:
        idx = cum.size - 1
    # Guard against landing on a zero-probability tail entry when u ~ 1.
    while idx > 0 and dist.probs[idx] <= 0.0:
        idx -= 1
    return idx

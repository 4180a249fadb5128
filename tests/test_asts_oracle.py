"""The ASTS step and its renormalisation helpers against the dense-vector code in ``oracles``.

Each test runs the live function and its copy in ``oracles`` on the same
input and requires the same bytes: the final probability vector, the audit
line of the step, or the exception type and message when either raises.
"""

import functools
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from decodekit import asts, core, lts
from decodekit.asts import AstsConfig, ConstantScores, GenerationContext, KeywordRelevance, MappedScores
from decodekit.core import TokenDistribution, default_vocabulary

_vocabulary = functools.cache(default_vocabulary)

TEMPERATURES = (1e-300, 1e-3, 0.1, 1.0, 50.0)
EPS_DIVS = (1e-300, 1e-6, 1e-3, 0.5, 1.0, 100.0)
SCALES = (0.0, 0.3, 1.0, 4.0, 1e3, 1e300)


def _outcome(fn, *args):
    """``fn(*args)``, or the type and message of what it raised; numpy's warnings silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return fn(*args)
        except Exception as exc:  # the comparison covers every error either side raises
            return type(exc), str(exc)


@st.composite
def distributions(draw):
    """V in 1..300: flat, peaked or spread down to subnormal probabilities, some zeros."""
    size = draw(st.integers(1, 300))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["flat", "peaked", "tiny"]))
    if kind == "flat":
        weights = gen.random(size) + 0.5
    elif kind == "peaked":
        weights = np.exp(gen.normal(0.0, draw(st.sampled_from([1.0, 5.0, 20.0])), size) - 30.0)
    else:
        weights = 10.0 ** gen.uniform(-320.0, 0.0, size)
    weights[gen.random(size) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    weights[gen.integers(size)] = 1.0
    return TokenDistribution(_vocabulary(size), weights / weights.sum())


@st.composite
def providers(draw, vocab):
    """A zero, keyword or mapped provider; mapped scores may be missing or non-finite."""
    kind = draw(st.sampled_from(["zero", "keyword", "mapped"]))
    if kind == "zero":
        return ConstantScores()
    if kind == "keyword":
        return KeywordRelevance(vocab, tuple(draw(st.lists(st.sampled_from("0123tok"), min_size=1, max_size=3))))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 10.0, 1e3]))
    values = dict(zip(vocab.tokens, (scale * gen.standard_normal(len(vocab))).tolist()))
    for token in draw(st.lists(st.sampled_from(vocab.tokens), max_size=2)):
        values[token] = draw(st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308]))
    for token in draw(st.lists(st.sampled_from(vocab.tokens), max_size=2)):
        values.pop(token, None)
    return MappedScores(vocab, values, draw(st.sampled_from([None, 0.0, -2.5])))


@st.composite
def steps(draw):
    dist = draw(distributions())
    size = len(dist)
    cfg = AstsConfig(
        **{name: draw(st.sampled_from(SCALES)) for name in ("k1", "k2", "lambda1", "lambda2", "lambda3")},
        **{name: draw(st.sampled_from(SCALES)) for name in ("mu1", "mu2", "mu3")},
        temperature=draw(st.sampled_from(TEMPERATURES)),
        eps_div=draw(st.sampled_from(EPS_DIVS)),
        sigma_prior=draw(st.sampled_from([0.0, 0.6, 5.0, 500.0])),
        adjust_form=draw(st.sampled_from(asts.ADJUST_FORMS)),
    )
    window = draw(st.lists(st.floats(0.0, draw(st.sampled_from([1.0, 10.0, 800.0]))), max_size=40))
    history = draw(st.lists(st.integers(0, size - 1), max_size=60))
    ctx = GenerationContext(window_w=max(1, len(window)), history=history)
    for h in window:
        ctx.push_entropy(h)
    return dist, ctx, cfg, draw(providers(dist.vocab)), draw(providers(dist.vocab))


def _step_bytes(step, dist, ctx, cfg, alignment, relevance):
    out = _outcome(step, dist, ctx, cfg, alignment, relevance)
    if isinstance(out[0], type):
        return out
    final, breakdown = out
    return final.probs.tobytes(), breakdown.to_json_line(3, 7, breakdown.token_ids[-1])


@settings(max_examples=600, deadline=None)
@given(steps())
def test_asts_step_equals_dense_oracle(step):
    assert _step_bytes(asts.asts_step, *step) == _step_bytes(oracles.asts_step, *step)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 300), st.integers(0, 2**32 - 1), st.data())
def test_normalize_and_temperature_scale_equal_dense_oracle(size, seed, data):
    gen = np.random.default_rng(seed)
    vocab = _vocabulary(size)
    weights = gen.random(size) * data.draw(st.sampled_from([1.0, 1e-320, 1e300]))
    weights[gen.random(size) < data.draw(st.sampled_from([0.0, 0.5, 1.0]))] = 0.0
    if data.draw(st.booleans()):
        weights[gen.integers(size)] = data.draw(st.sampled_from([-1.0, -0.0, np.nan, np.inf]))
    support = data.draw(
        st.sampled_from(
            [
                None,
                gen.random(size) < 0.3,
                np.flatnonzero(gen.random(size) < 0.5),
                gen.integers(0, size + 1, 3).tolist(),
            ]
        )
    )
    new = _outcome(core.normalize, vocab, weights, support)
    old = _outcome(oracles.normalize, vocab, weights, support)
    if isinstance(new, TokenDistribution):
        assert new.probs.tobytes() == old.probs.tobytes()
    else:
        assert new == old
    if not isinstance(new, TokenDistribution):
        return
    dist = new
    t = data.draw(st.sampled_from([1e-310, *TEMPERATURES, 0.0]))
    new = _outcome(core.temperature_scale, dist, t, support)
    if 0.0 < t < core.MIN_TEMPERATURE:
        # The dense oracle returns NaN here; the live function refuses T.
        assert new == (ValueError, f"temperature must be >= 1e-300, got {t!r}")
        return
    old = _outcome(oracles.temperature_scale, dist, t, support)
    if isinstance(new, TokenDistribution):
        assert new.probs.tobytes() == old.probs.tobytes()
    else:
        assert new == old


@settings(max_examples=300, deadline=None)
@given(distributions(), st.floats(-5.0, 800.0), st.floats(-5.0, 800.0))
def test_band_ids_equal_dense_mask(dist, alpha, beta):
    new = _outcome(lts.band_ids, dist, alpha, beta)
    old = _outcome(oracles.band_mask, dist, alpha, beta)
    if isinstance(old, np.ndarray):
        assert new.tolist() == np.flatnonzero(old).tolist()
    else:
        assert new == old


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.lists(st.floats(0.0, 12.0), min_size=2, max_size=200),
        st.lists(st.floats(-1e150, 1e150), min_size=2, max_size=200),
    )
)
def test_sigma_entropy_equals_np_std(window):
    assert asts.sigma_entropy(window, 0.6) == oracles.sigma_entropy(window, 0.6)

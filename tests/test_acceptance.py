"""Acceptance gate: five criteria, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines; each
criterion also enforces its runtime budget. Randomized suites use their
own seeded generators so reruns are bit-identical.
"""

import json
import math
import time
from collections import Counter

import numpy as np
import pytest

from decodekit.asts import (
    AstsConfig,
    ConstantScores,
    GenerationContext,
    MappedScores,
    asts_step,
)
from decodekit.core import (
    Rng,
    TokenDistribution,
    Vocabulary,
    default_vocabulary,
    normalize,
    sample,
    temperature_scale,
)
from decodekit.golden import run_golden_checks
from decodekit.harness import cmd_sweep, load_config, run_generation
from decodekit.lts import LtsConfig, lts_restrict, typical_set_band, typical_set_mass
from decodekit.metrics import SequenceCorpus, UniformScorer, ngram_diversity, perplexity, rep_l, zipf_coefficient

SEVEN_TOKENS = ("analyze", "optimize", "function", "tasks", "data", "errors", "solve")
SEVEN_PROBS = (0.175, 0.172, 0.170, 0.165, 0.120, 0.100, 0.098)
FINAL_TOKENS = ("analyze", "optimize", "function", "tasks")
FINAL_PROBS = (0.28, 0.26, 0.24, 0.22)


def _report(num: int, label: str, problems: list, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    if elapsed > budget:
        problems.append(f"runtime {elapsed:.2f}s exceeds {budget:.0f}s budget")
    status = "PASS" if not problems else "FAIL"
    print(f"{status} criterion {num}: {label} ({elapsed:.2f}s)")
    assert not problems, f"criterion {num}: " + "; ".join(problems)


def random_distribution(gen: np.random.Generator, size: int) -> TokenDistribution:
    vocab = Vocabulary.from_tokens(tuple(f"t{i}" for i in range(size)))
    w = gen.random(size) + 1e-3
    return TokenDistribution(vocab, w / w.sum())


def test_criterion_1_golden_fixture():
    started = time.perf_counter()
    problems = []
    checks = run_golden_checks()
    if len(checks) != 20:
        problems.append(f"expected 20 checks, got {len(checks)}")
    problems.extend(c.line() for c in checks if not c.passed)
    _report(1, "golden worked-example fixture", problems, started, budget=1.0)


def test_criterion_2_sampler_statistics():
    started = time.perf_counter()
    problems = []

    final = TokenDistribution(Vocabulary.from_tokens(FINAL_TOKENS), FINAL_PROBS)
    rng = Rng(20240817)
    counts = Counter(sample(final, rng) for _ in range(100_000))
    for i, expected in enumerate(FINAL_PROBS):
        got = counts[i] / 100_000
        if abs(got - expected) > 0.01:
            problems.append(f"mass of {FINAL_TOKENS[i]}: {got:.4f} vs {expected} ± 0.01")

    seven = TokenDistribution(Vocabulary.from_tokens(SEVEN_TOKENS), SEVEN_PROBS)
    cfg = LtsConfig(mode="mass", tau_mass=0.2)
    rng = Rng(77)
    draws = Counter()
    n_lts = 50_000
    for _ in range(n_lts):
        token_id = sample(lts_restrict(seven, cfg), rng)
        draws[token_id] += 1
    allowed = {SEVEN_TOKENS.index("tasks"), SEVEN_TOKENS.index("function")}
    if set(draws) != allowed:
        problems.append(f"tau=0.2 drew tokens outside {{tasks, function}}: {sorted(draws)}")
    for token, p in (("tasks", 0.165 / 0.335), ("function", 0.170 / 0.335)):
        got = draws[SEVEN_TOKENS.index(token)] / n_lts
        if abs(got - p) > 0.01:
            problems.append(f"tau=0.2 frequency of {token}: {got:.4f} vs {p:.4f} ± 0.01")

    _report(2, "seeded sampler statistics", problems, started, budget=5.0)


def test_criterion_3_metric_oracles():
    started = time.perf_counter()
    problems = []

    # brute-force oracles, written independently of the library code
    def oracle_rep(seq, l):
        hits = sum(1 for t in range(1, len(seq)) if seq[t] in seq[max(0, t - l) : t])
        return hits / (len(seq) - 1)

    def oracle_diversity(seq):
        total = 0.0
        for n in (1, 2, 3, 4):
            grams = [tuple(seq[i : i + n]) for i in range(len(seq) - n + 1)]
            total += len(set(grams)) / len(grams)
        return total / 4.0

    gen = np.random.default_rng(3)
    for case in range(1000):
        length = int(gen.integers(4, 65))
        alphabet = int(gen.integers(2, 21))
        seq = [int(x) for x in gen.integers(0, alphabet, size=length)]
        if ngram_diversity(seq) != oracle_diversity(seq):
            problems.append(f"ngram_diversity mismatch on case {case}")
            break
        if any(rep_l(seq, l) != oracle_rep(seq, l) for l in (2, 8, 32)):
            problems.append(f"rep_l mismatch on case {case}")
            break

    for n in range(2, 1025):
        corpus = SequenceCorpus(([0] * 8,), default_vocabulary(n))
        got = perplexity(corpus, UniformScorer(n))
        if abs(got - n) > 1e-9:
            problems.append(f"uniform-{n} perplexity {got!r}")
            break

    harmonic = []
    for r in range(1, 101):
        harmonic.extend([r - 1] * round(10_000 / r))
    slope = zipf_coefficient(SequenceCorpus((harmonic,), default_vocabulary(100)))
    if abs(slope - 1.0) > 0.02:
        problems.append(f"zipf on 1/r corpus: {slope:.4f} vs 1.0 ± 0.02")

    square = []
    for r in range(1, 51):
        square.extend([r - 1] * round(100_000 / r**2))
    slope = zipf_coefficient(SequenceCorpus((square,), default_vocabulary(50)))
    if abs(slope - 2.0) > 0.05:
        problems.append(f"zipf on 1/r^2 corpus: {slope:.4f} vs 2.0 ± 0.05")

    _report(3, "metric oracle equivalence", problems, started, budget=30.0)


def test_criterion_4_property_suites(tmp_path):
    started = time.perf_counter()
    problems = []
    zero = ConstantScores(0.0)

    # 1. normalization after every pipeline stage
    gen = np.random.default_rng(41)
    for case in range(1000):
        dist = random_distribution(gen, int(gen.integers(2, 41)))
        stages = {
            "normalize": normalize(dist.vocab, dist.probs * 3.7).probs.sum(),
            "temperature": temperature_scale(dist, float(gen.uniform(0.1, 5.0))).probs.sum(),
            "mass renorm": typical_set_mass(dist, float(gen.uniform(0.05, 1.0))).probs.sum(),
        }
        ctx = GenerationContext(window_w=8)
        _, breakdown = asts_step(dist, ctx, AstsConfig(), zero, zero)
        stages["asts final"] = sum(c.final_probability for c in breakdown.candidates)
        bad = [f"{name} sums to {s!r}" for name, s in stages.items() if abs(s - 1.0) > 1e-9]
        if bad:
            problems.append(f"normalization case {case}: " + ", ".join(bad))
            break

    # 2. temperature identity at T=1 and rank preservation for T>0
    gen = np.random.default_rng(42)
    for case in range(1000):
        dist = random_distribution(gen, int(gen.integers(2, 41)))
        if np.max(np.abs(temperature_scale(dist, 1.0).probs - dist.probs)) > 1e-12:
            problems.append(f"temperature identity broken on case {case}")
            break
        t = float(gen.uniform(0.05, 10.0))
        if not np.array_equal(np.argsort(temperature_scale(dist, t).probs), np.argsort(dist.probs)):
            problems.append(f"rank order changed at T={t} on case {case}")
            break

    # 3. band and mass set monotonicity
    gen = np.random.default_rng(43)
    for case in range(1000):
        dist = random_distribution(gen, int(gen.integers(2, 41)))
        h = -float(np.sum(dist.probs * np.log(dist.probs)))
        e1, e2 = sorted(gen.uniform(0.01, 2.0, size=2))
        narrow = set(typical_set_band(dist, h - e1, h + e1).support().tolist())
        wide = set(typical_set_band(dist, h - e2, h + e2).support().tolist())
        t1, t2 = sorted(gen.uniform(0.05, 1.0, size=2))
        small = set(typical_set_mass(dist, t1).support().tolist())
        big = set(typical_set_mass(dist, t2).support().tolist())
        if not narrow <= wide:
            problems.append(f"band monotonicity broken on case {case}")
            break
        if not small <= big:
            problems.append(f"mass monotonicity broken on case {case}")
            break

    # 4. exp-shift invariance of the post-normalization ASTS distribution
    gen = np.random.default_rng(44)
    wide_cfg = AstsConfig(k1=50.0, k2=50.0)
    for case in range(1000):
        dist = random_distribution(gen, int(gen.integers(2, 13)))
        rewards = {t: float(r) for t, r in zip(dist.vocab.tokens, gen.normal(0, 1, len(dist.vocab)))}
        shift = float(gen.uniform(-30.0, 30.0))
        shifted = {t: r + shift for t, r in rewards.items()}
        outs = []
        for table in (rewards, shifted):
            _, breakdown = asts_step(
                dist, GenerationContext(window_w=8), wide_cfg, zero, zero,
                reward_fn=MappedScores(dist.vocab, table),
            )
            outs.append({c.token: c.final_probability for c in breakdown.candidates})
        if set(outs[0]) != set(outs[1]) or any(abs(outs[0][t] - outs[1][t]) > 1e-9 for t in outs[0]):
            problems.append(f"exp-shift invariance broken on case {case}")
            break

    # 5. repetition-frequency monotonicity of adjusted weights
    gen = np.random.default_rng(45)
    uniform16 = TokenDistribution(
        Vocabulary.from_tokens(tuple(f"t{i}" for i in range(16))), np.full(16, 1 / 16)
    )
    for case in range(1000):
        length = 12
        f1 = int(gen.integers(0, length - 1))
        f2 = int(gen.integers(f1 + 1, length + 1))
        weights = []
        for f in (f1, f2):
            history = [0] * f + list(range(1, length - f + 1))
            ctx = GenerationContext(window_w=8, history=history)
            _, breakdown = asts_step(uniform16, ctx, AstsConfig(), zero, zero)
            weights.append(next(c.adjusted_weight for c in breakdown.candidates if c.token_id == 0))
        if not weights[1] < weights[0]:
            problems.append(f"adjusted weight not decreasing in frequency on case {case} ({f1} -> {f2})")
            break

    # 6. full-run determinism: serial vs parallel byte-identical
    cfg_path = tmp_path / "determinism.json"
    cfg_path.write_text(json.dumps({
        "seed": 99, "max_tokens": 8, "num_sequences": 1000, "sampler": "lts",
        "model": {"selector": "synthetic:mixed", "synthetic": {"vocab_size": 64, "seed": 3}},
    }), encoding="utf-8")
    cfg = load_config(cfg_path)
    cfg["workers"] = 1
    serial = [json.dumps(r) for r in run_generation(cfg)]
    cfg["workers"] = 3
    parallel = [json.dumps(r) for r in run_generation(cfg)]
    mismatches = sum(1 for a, b in zip(serial, parallel) if a != b)
    if len(serial) != 1000 or mismatches:
        problems.append(f"serial vs parallel: {mismatches} of {len(serial)} sequences differ")

    _report(4, "randomized property suites (6 x 1000 cases)", problems, started, budget=60.0)


MECHANISM_MODEL = {
    "selector": "synthetic:loop_prone",
    "synthetic": {
        "vocab_size": 256,
        "loop_gamma": 3.0,
        "seed": 7,
        "base_temperature": 0.3,
        "recency_window": 16,
    },
}
MECHANISM_ASTS = {
    "alignment": "zero",
    "relevance": "zero",
    "lambda1": 0.0, "lambda2": 0.0, "lambda3": 0.0,
    "mu1": 0.0, "mu2": 0.0, "mu3": 0.5,
    "k1": 2.0, "k2": 2.0,
    "temperature": 0.1,
}


def mechanism_config(tmp_path, name: str, **overrides) -> dict:
    cfg = {
        "seed": 7, "max_tokens": 200, "num_sequences": 50, "sampler": "asts",
        "model": MECHANISM_MODEL, "asts": dict(MECHANISM_ASTS),
        "output": {"corpus": str(tmp_path / f"{name}.jsonl")},
    }
    for key, value in overrides.items():
        cfg[key] = value
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return load_config(path)


def mean_rep32(records) -> float:
    return float(np.mean([rep_l(r["token_ids"], 32) for r in records]))


def test_criterion_5_mechanism_experiment(tmp_path):
    started = time.perf_counter()
    problems = []

    penalty_cfg = mechanism_config(tmp_path, "penalty")
    ablation_cfg = mechanism_config(tmp_path, "ablation")
    ablation_cfg["asts"]["mu3"] = 0.0
    with_penalty = mean_rep32(run_generation(penalty_cfg))
    without = mean_rep32(run_generation(ablation_cfg))
    if not with_penalty < without:
        problems.append(f"mu3=0.5 rep32 {with_penalty:.4f} not strictly below ablation {without:.4f}")

    # hyperparameter-sensitivity sweep: logged, not gated
    taus = [round(0.1 * i, 1) for i in range(1, 11)]
    asts_csv = tmp_path / "asts_sweep.csv"
    asts_cfg_path = tmp_path / "penalty.json"
    cmd_sweep(asts_cfg_path, "asts.k1,asts.k2", taus, "rep32", 1, asts_csv)

    lts_overrides = {"sampler": "lts", "lts": {"mode": "mass", "tau_mass": 0.95}}
    lts_cfg = {
        "seed": 7, "max_tokens": 200, "num_sequences": 50,
        "model": MECHANISM_MODEL, "output": {"corpus": str(tmp_path / "lts.jsonl")},
        **lts_overrides,
    }
    lts_cfg_path = tmp_path / "lts.json"
    lts_cfg_path.write_text(json.dumps(lts_cfg), encoding="utf-8")
    lts_csv = tmp_path / "lts_sweep.csv"
    cmd_sweep(lts_cfg_path, "lts.tau_mass", taus, "rep32", 1, lts_csv)

    def sweep_sigma(path):
        rows = path.read_text(encoding="utf-8").splitlines()[1:]
        means = [float(line.split(",")[1]) for line in rows]
        return float(np.std(means)), len(means)

    asts_sigma, asts_rows = sweep_sigma(asts_csv)
    lts_sigma, lts_rows = sweep_sigma(lts_csv)
    if asts_rows != 10 or lts_rows != 10:
        problems.append(f"sweep CSVs incomplete: {asts_rows} asts rows, {lts_rows} lts rows")

    detail = (
        f"rep32 {with_penalty:.4f} < {without:.4f}; "
        f"sensitivity sigma asts={asts_sigma:.4f} lts={lts_sigma:.4f} "
        f"({'asts less sensitive' if asts_sigma < lts_sigma else 'lts less sensitive'}, logged)"
    )
    elapsed = time.perf_counter() - started
    if elapsed > 300.0:
        problems.append(f"runtime {elapsed:.2f}s exceeds 300s budget")
    status = "PASS" if not problems else "FAIL"
    print(f"{status} criterion 5: mechanism experiment, {detail} ({elapsed:.2f}s)")
    assert not problems, "criterion 5: " + "; ".join(problems)

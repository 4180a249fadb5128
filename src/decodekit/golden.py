"""Built-in reference check for the ASTS pipeline.

The fixture is a compact hand-computed scenario: a seven-token
distribution whose entropy, dynamic band, candidate set, per-candidate
scores and final probabilities are all known in advance. ``decodekit
golden`` replays it through the live ``asts_step`` twice — once with the
composite and reward scores injected verbatim, once recomputing the reward
from its inputs — and compares every stage against the expected values.

The alignment/diversity inputs of the fixture are stipulated constants
(they come with the scenario, not from an embedding table), which is
exactly what the score-provider hooks on ``asts_step`` exist for.
"""

from __future__ import annotations

from dataclasses import dataclass

from decodekit.asts import AstsConfig, GenerationContext, MappedScores, asts_step
from decodekit.core import TokenDistribution, Vocabulary

FIXTURE_TOKENS = ("analyze", "optimize", "function", "tasks", "data", "errors", "solve")
FIXTURE_PROBS = (0.175, 0.172, 0.170, 0.165, 0.120, 0.100, 0.098)

EXPECTED_ENTROPY = 1.92
EXPECTED_ALPHA = 1.74
EXPECTED_BETA = 2.10
EXPECTED_SET = ("analyze", "optimize", "function", "tasks")

# Stipulated per-candidate inputs and expected stage outputs.
ALIGNMENT = {"analyze": 0.90, "optimize": 0.88, "function": 0.75, "tasks": 0.80}
DIVERSITY = {"analyze": 1.00, "optimize": 0.80, "function": 1.00, "tasks": 0.85}
RELEVANCE = {"analyze": 0.80, "optimize": 0.85, "function": 0.70, "tasks": 0.65}
REPETITION = {"analyze": 0.10, "optimize": 0.15, "function": 0.05, "tasks": 0.20}
EXPECTED_COHERENCE = {"analyze": 0.82, "optimize": 0.84, "function": 0.85, "tasks": 0.88}
EXPECTED_COMPOSITE = {"analyze": 0.89, "optimize": 0.85, "function": 0.84, "tasks": 0.84}
REFERENCE_REWARD = {"analyze": 0.83, "optimize": 0.81, "function": 0.74, "tasks": 0.70}
EXPECTED_FINAL = {"analyze": 0.28, "optimize": 0.26, "function": 0.24, "tasks": 0.22}

TOL_ENTROPY = 0.005
TOL_THRESHOLDS = 0.005
TOL_SCORES = 0.005
TOL_FINAL_INJECTED = 0.01
TOL_FINAL_FORMULA = 0.015

FIXTURE_CONFIG = AstsConfig(
    k1=0.3,
    k2=0.3,
    lambda1=0.4,
    lambda2=0.4,
    lambda3=0.2,
    mu1=0.5,
    mu2=0.3,
    mu3=0.2,
    temperature=1.0,
    window_w=8,
    eps_div=1.0,
    sigma_prior=0.6,
)


@dataclass(frozen=True)
class GoldenCheck:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: {self.detail}"


def fixture_distribution() -> TokenDistribution:
    return TokenDistribution(Vocabulary.from_tokens(FIXTURE_TOKENS), FIXTURE_PROBS)


def _approx(name: str, got: float, expected: float, tol: float) -> GoldenCheck:
    ok = abs(got - expected) <= tol
    return GoldenCheck(name, ok, f"{got:.4f} (expected {expected} ± {tol})")


def _run_step(cfg: AstsConfig, *, inject_totals: bool):
    """One asts_step over the fixture; optionally inject composite/reward."""
    dist = fixture_distribution()
    vocab = dist.vocab
    ctx = GenerationContext()
    # default=0.0 so a drifted band that admits out-of-fixture tokens is
    # reported by the set check below instead of crashing the step.
    kwargs = dict(
        diversity_fn=MappedScores(vocab, DIVERSITY, default=0.0),
        repetition_fn=MappedScores(vocab, REPETITION, default=0.0),
    )
    if inject_totals:
        kwargs["composite_fn"] = MappedScores(vocab, EXPECTED_COMPOSITE, default=0.0)
        kwargs["reward_fn"] = MappedScores(vocab, REFERENCE_REWARD, default=0.0)
    _, breakdown = asts_step(
        dist,
        ctx,
        cfg,
        MappedScores(vocab, ALIGNMENT, default=0.0),
        MappedScores(vocab, RELEVANCE, default=0.0),
        **kwargs,
    )
    return breakdown


def run_golden_checks(cfg: AstsConfig = FIXTURE_CONFIG) -> list[GoldenCheck]:
    """All fixture checks against the live pipeline; order is stable."""
    checks: list[GoldenCheck] = []
    try:
        injected = _run_step(cfg, inject_totals=True)
        computed = _run_step(cfg, inject_totals=False)
    except Exception as exc:  # surface pipeline crashes as a failed check
        return [GoldenCheck("pipeline", False, f"asts_step raised: {exc}")]

    checks.append(_approx("entropy", computed.entropy, EXPECTED_ENTROPY, TOL_ENTROPY))
    checks.append(_approx("alpha", computed.alpha, EXPECTED_ALPHA, TOL_THRESHOLDS))
    checks.append(_approx("beta", computed.beta, EXPECTED_BETA, TOL_THRESHOLDS))

    got_set = tuple(c.token for c in computed.candidates)
    set_ok = sorted(got_set) == sorted(EXPECTED_SET)
    checks.append(
        GoldenCheck("typical set", set_ok, f"{{{', '.join(got_set)}}} (expected {{{', '.join(EXPECTED_SET)}}})")
    )
    if not set_ok:
        return checks  # per-token comparisons below would be misaligned

    by_token = {c.token: c for c in computed.candidates}
    for token, expected in EXPECTED_COHERENCE.items():
        checks.append(_approx(f"coherence[{token}]", by_token[token].coherence, expected, TOL_SCORES))
    for token, expected in EXPECTED_COMPOSITE.items():
        checks.append(_approx(f"composite[{token}]", by_token[token].composite, expected, TOL_SCORES))

    injected_by_token = {c.token: c for c in injected.candidates}
    for token, expected in EXPECTED_FINAL.items():
        checks.append(
            _approx(
                f"final[{token}] (injected scores)",
                injected_by_token[token].final_probability,
                expected,
                TOL_FINAL_INJECTED,
            )
        )
    for token, expected in EXPECTED_FINAL.items():
        checks.append(
            _approx(
                f"final[{token}] (formula scores)",
                by_token[token].final_probability,
                expected,
                TOL_FINAL_FORMULA,
            )
        )
    return checks

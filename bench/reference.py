"""Independent checker for decodekit outputs.

Nothing here imports decodekit. The synthetic LM is re-derived from its
definition (blake2b of the seed and the trailing history -> PCG64 gaussian
scores -> softmax at the profile temperature), each truncation rule is
restated as a membership test on the reference distribution, and the
corpus metrics are recounted directly. Every test allows ``TOL`` of slack
at a rule's boundary, so a token that sits on the edge within rounding is
accepted either way; anything clearly outside its rule is rejected.

``check_job`` checks one generate + metrics job and returns a ``Verdict``:
one operation per expected token (entropy, sampler-set membership and, for
ASTS with an audit, the audited band and probabilities), one for the audit
length when there is an audit, one for the model-scored perplexity and one
for the REP/l + diversity recount.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

TOL = 1e-9

MIXED_FACTORS = (0.25, 1.0, 4.0)
KIND_TEMPERATURES = {"peaked": 0.3, "flat": 10.0, "mixed": 1.0, "loop_prone": 1.0}
ENTROPY_FLOOR = 1e-12
REP_WINDOWS = (16, 32, 128)


def vocabulary(size: int) -> list[str]:
    return [f"tok{i:03d}" for i in range(size)]


class ReferenceLM:
    """The synthetic LM, restated from its definition."""

    def __init__(self, synthetic: dict, kind: str):
        self.kind = kind
        self.size = synthetic["vocab_size"]
        self.seed = synthetic["seed"]
        self.window = synthetic["recency_window"]
        self.gamma = synthetic["loop_gamma"]
        t = synthetic["base_temperature"]
        self.temperature = KIND_TEMPERATURES[kind] if t is None else t

    def probs(self, history) -> np.ndarray:
        suffix = list(history)[-self.window :]
        payload = f"{self.seed}|{','.join(str(t) for t in suffix)}".encode()
        digest = hashlib.blake2b(payload, digest_size=16).digest()
        gen = np.random.Generator(np.random.PCG64(int.from_bytes(digest[:8], "little")))
        scores = gen.standard_normal(self.size)
        t = self.temperature
        if self.kind == "mixed":
            t *= MIXED_FACTORS[digest[8] % len(MIXED_FACTORS)]
        if self.kind == "loop_prone" and suffix:
            scores[sorted(set(suffix))] += math.log(self.gamma)
        z = scores / t
        w = np.exp(z - z.max())
        return w / w.sum()


def entropy(p: np.ndarray) -> float:
    q = p[p >= ENTROPY_FLOOR]
    return float(-np.sum(q * np.log(q)))


def surprisals(p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return -np.log(p)


# --------------------------------------------------------------------------
# Truncation rules as membership tests. Each returns True when ``tok`` may
# have been drawn from the rule's set on distribution ``p``.


def in_greedy(p, tok) -> bool:
    return p[tok] >= p.max() - TOL


def in_topk(p, tok, k) -> bool:
    return int(np.count_nonzero(p > p[tok] + TOL)) < k


def in_nucleus(p, tok, top_p) -> bool:
    # tok is in the smallest probability-ranked prefix reaching top_p iff the
    # mass ranked strictly above it falls short of top_p.
    return float(p[p > p[tok] + TOL].sum()) < top_p + TOL


def in_lts_mass(p, tok, tau) -> bool:
    if p[tok] <= 0.0:
        return False
    pos = p > 0.0
    dev = np.abs(surprisals(p) - entropy(p))
    ahead = pos & (dev < dev[tok] - TOL)
    return float(p[ahead].sum()) < tau + TOL


def in_band(p, tok, lo, hi, h) -> bool:
    """Surprisal in [lo, hi]; an empty band falls back to the least-deviant token."""
    if p[tok] <= 0.0:
        return False
    pos = p > 0.0
    s = surprisals(p)
    if lo - TOL <= s[tok] <= hi + TOL:
        return True
    if np.any(pos & (s >= lo + TOL) & (s <= hi - TOL)):
        return False  # the band clearly had members and tok is outside it
    dev = np.abs(s - h)
    return bool(dev[tok] <= dev[pos].min() + TOL)


def band_members(p, lo, hi) -> tuple[set[int], set[int]]:
    """(ids clearly inside [lo, hi], ids within TOL of an edge)."""
    s = surprisals(p)
    pos = p > 0.0
    inside = pos & (s >= lo + TOL) & (s <= hi - TOL)
    edge = pos & ~inside & (s >= lo - TOL) & (s <= hi + TOL)
    return set(np.flatnonzero(inside).tolist()), set(np.flatnonzero(edge).tolist())


class MirostatTracker:
    """Tracks the surprise budget mu from the emitted tokens alone."""

    def __init__(self, tau: float, eta: float, mu0):
        self.tau, self.eta = tau, eta
        self.mu = 2.0 * tau if mu0 is None else mu0

    def allows(self, p, tok) -> bool:
        s = surprisals(p)
        ok = s[tok] <= self.mu + TOL or (not np.any(s <= self.mu - TOL) and in_greedy(p, tok))
        self.mu -= self.eta * (float(s[tok]) - self.tau)
        return bool(ok)


# --------------------------------------------------------------------------
# Metric recounts.


def rep_l(seq, l: int) -> float:
    repeats = sum(1 for t in range(1, len(seq)) if seq[t] in seq[max(0, t - l) : t])
    return repeats / (len(seq) - 1)


def ngram_diversity(seq) -> float:
    seq = tuple(seq)
    total = 0.0
    for n in range(1, 5):
        grams = [seq[i : i + n] for i in range(len(seq) - n + 1)]
        total += len(set(grams)) / len(grams)
    return total / 4.0


def fresh_context_ppl(lm: ReferenceLM, sequences) -> float:
    """Perplexity as ``metrics`` defines it: every sequence scored from an empty context."""
    nll = 0.0
    count = 0
    for seq in sequences:
        for pos, tok in enumerate(seq):
            nll -= math.log(lm.probs(seq[:pos])[tok])
        count += len(seq)
    return math.exp(nll / count)


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return math.isfinite(a) and abs(a - b) <= rel * max(1.0, abs(b))


# --------------------------------------------------------------------------
# One job: a config, its corpus, its audit and its metrics report.


@dataclass
class Verdict:
    operations: int = 0
    failures: list[str] = field(default_factory=list)
    asts_steps: int = 0
    asts_candidates: int = 0

    def record(self, ok: bool, what: str) -> None:
        self.operations += 1
        if not ok:
            self.failures.append(what)


def _token_rule(cfg: dict):
    """Per-sequence membership test ``rule(p, tok, h) -> bool`` (h: entropy of p)."""
    name = cfg["sampler"]
    if name == "greedy":
        return lambda p, tok, h: in_greedy(p, tok)
    if name == "topk":
        return lambda p, tok, h: in_topk(p, tok, cfg["topk"]["k"])
    if name == "nucleus":
        return lambda p, tok, h: in_nucleus(p, tok, cfg["nucleus"]["p"])
    if name == "mirostat":
        m = cfg["mirostat"]
        tracker = MirostatTracker(m["tau"], m["eta"], m["mu0"])
        return lambda p, tok, h: tracker.allows(p, tok)
    if name == "lts":
        lts = cfg["lts"]
        if lts["mode"] == "mass":
            return lambda p, tok, h: in_lts_mass(p, tok, lts["tau_mass"])
        eps = lts["epsilon"]
        return lambda p, tok, h: in_band(p, tok, h - eps, h + eps, h)
    raise ValueError(f"no reference rule for sampler {name!r}")


def asts_band(cfg: dict, h: float, window: list[float]) -> tuple[float, float]:
    a = cfg["asts"]
    sigma = float(np.std(window)) if len(window) >= 2 else float(a["sigma_prior"])
    return h - a["k1"] * sigma, h + a["k2"] * sigma


def _check_audit_step(line: dict, p, tok, h, alpha, beta) -> str | None:
    """Return why an ASTS audit step disagrees with the reference, or None."""
    if line.get("chosen_id") != tok:
        return f"audit chosen_id {line.get('chosen_id')} != emitted {tok}"
    if not (close(line["entropy"], h) and close(line["alpha"], alpha) and close(line["beta"], beta)):
        return "audit entropy/alpha/beta differ from the reference"
    ids = [c["token_id"] for c in line["candidates"]]
    inside, edge = band_members(p, alpha, beta)
    got = set(ids)
    if len(got) != len(ids):
        return "audit lists a candidate twice"
    if inside:
        if not inside <= got or not got <= inside | edge:
            return f"audit candidates differ from the band [{alpha:.6f}, {beta:.6f}]"
    elif len(got) != 1 or not in_band(p, ids[0], alpha, beta, h):
        return "empty band but the audit is not the least-deviant singleton"
    finals = [c["final_probability"] for c in line["candidates"]]
    if min(finals) < 0.0 or abs(math.fsum(finals) - 1.0) > TOL:
        return f"audit final probabilities sum to {math.fsum(finals)!r}"
    return None


def check_job(cfg: dict, prompts, corpus: list[dict], audit_lines, report: dict) -> Verdict:
    """Check one job's outputs against the reference.

    ``corpus`` holds the parsed corpus lines, ``audit_lines`` iterates the
    parsed audit lines in file order (None when the job wrote no audit) and
    ``report`` is the parsed metrics report. The number of operations
    depends only on the config: one per expected token, one for the audit
    length when there is an audit, one for perplexity, one for the recount.
    """
    verdict = Verdict()
    kind = cfg["model"]["selector"].split(":", 1)[1]
    lm = ReferenceLM(cfg["model"]["synthetic"], kind)
    index = {t: i for i, t in enumerate(vocabulary(lm.size))}
    asts = cfg["sampler"] == "asts"
    audit = iter(audit_lines) if audit_lines is not None else None
    sequences = []
    for n in range(cfg["num_sequences"]):
        rec = corpus[n] if n < len(corpus) else {"tokens": [], "entropy_trace": []}
        seq = [index.get(t, -1) for t in rec["tokens"]]
        sequences.append(seq)
        trace = rec["entropy_trace"]
        history = list(prompts[n % len(prompts)])
        rule = None if asts else _token_rule(cfg)
        window: list[float] = []
        for step in range(cfg["max_tokens"]):
            problem = None
            tok = seq[step] if step < len(seq) else -1
            if tok < 0:
                problem = "token missing or not in the vocabulary"
            else:
                p = lm.probs(history)
                h = entropy(p)
                if step >= len(trace) or not close(trace[step], h):
                    problem = "entropy_trace differs from the reference entropy"
                elif asts:
                    alpha, beta = asts_band(cfg, h, window)
                    inside, edge = band_members(p, alpha, beta)
                    verdict.asts_steps += 1
                    verdict.asts_candidates += len(inside) + len(edge) or 1
                    window = (window + [h])[-cfg["asts"]["window_w"] :]
                    line = next(audit, None) if audit is not None else None
                    if not in_band(p, tok, alpha, beta, h):
                        problem = f"token {tok} outside the ASTS band [{alpha:.6f}, {beta:.6f}]"
                    elif audit is not None:
                        if line is None or line.get("sequence") != n or line.get("step") != step:
                            problem = "audit line missing or out of order"
                        else:
                            problem = _check_audit_step(line, p, tok, h, alpha, beta)
                elif not rule(p, tok, h):
                    problem = f"token {tok} outside the {cfg['sampler']} set"
            if step == cfg["max_tokens"] - 1 and len(seq) > cfg["max_tokens"]:
                problem = f"{len(seq)} tokens, expected {cfg['max_tokens']}"
            verdict.record(problem is None, f"sequence {n} step {step}: {problem}")
            history.append(max(tok, 0))
    if audit is not None:
        verdict.record(next(audit, None) is None, "audit has more lines than emitted tokens")

    ok_seqs = len(corpus) == cfg["num_sequences"] and all(
        len(s) == cfg["max_tokens"] and min(s) >= 0 for s in sequences
    )
    ppl_ok = ok_seqs and close(report.get("ppl", math.nan), fresh_context_ppl(lm, sequences))
    verdict.record(ppl_ok, f"ppl {report.get('ppl')!r} differs from the fresh-context reference")

    recount_ok = ok_seqs and report.get("token_count") == sum(map(len, sequences))
    if recount_ok:
        for l in REP_WINDOWS:
            want = sum(rep_l(s, l) for s in sequences) / len(sequences)
            recount_ok &= close(report.get(f"rep{l}", math.nan), want, 1e-12)
        div = sum(ngram_diversity(s) for s in sequences) / len(sequences)
        recount_ok &= close(report.get("diversity", math.nan), div, 1e-12)
        recount_ok &= close(report.get("diversity_sum", math.nan), 4.0 * div, 1e-12)
    verdict.record(recount_ok, "REP/l or diversity differs from the direct recount")
    return verdict


def read_jsonl(path):
    """Parse a JSON-lines file lazily, one object per nonblank line."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)

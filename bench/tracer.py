"""Traced rounds: spans and counts around the calls into each decodekit module.

``Tracer.installed()`` wraps the functions listed in ``SPANS`` and
``COUNTS`` in every decodekit namespace that binds them (``asts``, ``lts``
and ``baselines`` import ``sample``, ``normalize`` and ``entropy`` by name,
so patching ``decodekit.core`` alone would miss their calls), plus the
methods that count ``TokenDistribution`` builds, provider calls and audit
records on their classes. Everything is restored on exit.

A span is (name, start, end, parent). Spans stay in memory and are folded
into per-name totals whenever the runner moves to the next phase of a job
(set-up, generate, metrics); a span's self time is its duration minus the
durations of its direct children. ``per_layer`` turns the totals into the
per-layer metrics: µs or ms per call, counts per generated token, and the
tracing overhead measured against the untraced rounds that alternate with
the traced ones.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, qualified attribute) pairs whose calls are recorded as spans.
SPANS = [
    ("core", "normalize"),
    ("core", "sample"),
    ("core", "entropy"),
    ("core", "temperature_scale"),
    ("core", "TokenDistribution.__post_init__"),
    ("simlm", "next_distribution"),
    ("simlm", "drive"),
    ("lts", "typical_set_band"),
    ("lts", "typical_set_mass"),
    ("baselines", "topk_restrict"),
    ("baselines", "nucleus_restrict"),
    ("baselines", "mirostat_step"),
    ("asts", "asts_step"),
    ("asts", "EmbeddingAlignment.__call__"),
    ("asts", "KeywordRelevance.__call__"),
    ("asts", "ScoreBreakdown.to_json_dict"),
    ("embed", "context_embedding"),
    ("embed", "load_table"),
    ("embed", "synthetic_table"),
    ("harness", "load_config"),
    ("harness", "build_model"),
    ("harness", "build_sampler"),
    ("harness", "_resolve_prompts"),
    ("harness", "run_sequence"),
    ("metrics", "perplexity"),
    ("metrics", "rep_l"),
    ("metrics", "ngram_diversity"),
]

# Calls that are only counted: they are too frequent and too small for a span.
COUNTS = [
    ("embed", "cosine"),
    ("asts", "CandidateScore.__init__"),
]

SEQUENCE_SETUP = {"harness.build_model", "harness.build_sampler", "harness._resolve_prompts"}


class _TimedFile:
    """Stands in for the file ``harness._open_out`` returns; times open -> close."""

    def __init__(self, fh, on_close):
        self._fh = fh
        self._on_close = on_close
        self._opened = time.perf_counter()
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text.encode("utf-8"))
        return self._fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()
        self._on_close(time.perf_counter() - self._opened, self.bytes)
        return False


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.calls: Counter = Counter()  # (phase, name) -> calls
        self.inclusive: defaultdict = defaultdict(float)  # (phase, name) -> seconds
        self.self_time: defaultdict = defaultdict(float)  # (phase, name) -> seconds
        self.sequence_setup_s = 0.0
        self.tokens = Counter()  # "all" / "audit" / "plain" -> tokens generated
        self.generate_calls = 0
        self.unasked_records = 0
        self.audit_s = 0.0  # audit dicts built in audited jobs + audit file open -> close
        self.audit_bytes = 0
        self._phase = None
        self._job = None

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)

        return functools.wraps(fn)(wrapper)

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def _open_out(self, fn):
        def wrapper(path):
            fh = fn(path)
            job = self._job
            if job is None or path != job.audit_path:
                return fh
            return _TimedFile(fh, self._audit_closed)

        return functools.wraps(fn)(wrapper)

    def _audit_closed(self, seconds, nbytes):
        self.audit_s += seconds
        self.audit_bytes += nbytes

    def phase(self, phase, job):
        """Fold what the last phase recorded, then start ``phase`` of ``job``."""
        self._fold()
        self._phase, self._job = phase, job
        if phase == "generate":
            self.generate_calls += 1
            self.tokens["all"] += job.tokens
            self.tokens["audit" if job.audit else "plain"] += job.tokens

    def _fold(self):
        spans, phase = self.spans, self._phase
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent) in enumerate(spans):
            key = (phase, name)
            self.calls[key] += 1
            self.inclusive[key] += t1 - t0
            self.self_time[key] += t1 - t0 - child[i]
            if name in SEQUENCE_SETUP and parent >= 0 and spans[parent][0] == "harness.run_sequence":
                self.sequence_setup_s += t1 - t0
            if name == "asts.ScoreBreakdown.to_json_dict" and phase == "generate" and self._job.audit:
                self.audit_s += t1 - t0
        for name, n in self.counts.items():
            self.calls[(phase, name)] += n
        if phase == "generate" and self._job is not None and not self._job.audit:
            self.unasked_records += self.counts["asts.CandidateScore.__init__"]
        spans.clear()
        self.counts.clear()

    # -- patching ----------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every hook for the duration of the block; restore on exit."""
        restore = []
        try:
            for hooks, make in ((SPANS, self._span), (COUNTS, self._count)):
                for module, attr in hooks:
                    restore += _patch(module, attr, make)
            restore += _patch("harness", "_open_out", lambda name, fn: self._open_out(fn))
            yield self
        finally:
            self.phase(None, None)
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    # -- queries -----------------------------------------------------------

    def n_calls(self, names, phase="*") -> int:
        return sum(n for (ph, name), n in self.calls.items() if name in names and phase in ("*", ph))

    def mean(self, names, table=None) -> float:
        """Mean seconds per call over every phase (0 when never called)."""
        table = self.inclusive if table is None else table
        calls = self.n_calls(names)
        total = sum(v for (ph, name), v in table.items() if name in names)
        return total / calls if calls else 0.0


def _patch(module: str, attr: str, make):
    """Replace ``module.attr`` with ``make(name, original)`` wherever it is bound."""
    mod = importlib.import_module(f"decodekit.{module}")
    name = f"{module}.{attr}"
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        original = cls.__dict__[meth]
        setattr(cls, meth, make(name, original))
        return [(cls, meth, original)]
    original = getattr(mod, attr)
    wrapped = make(name, original)
    restore = []
    for mod_name, namespace in list(sys.modules.items()):
        if mod_name.split(".")[0] == "decodekit" and getattr(namespace, attr, None) is original:
            setattr(namespace, attr, wrapped)
            restore.append((namespace, attr, original))
    return restore


def per_layer(tracer: Tracer, runner, plain, traced) -> dict:
    """Per-layer metrics from the traced rounds, plus the tracing overhead.

    ``plain`` and ``traced`` hold the busy seconds of the untraced and the
    traced rounds; the overhead is the ratio of their medians, less one.
    """
    us, ms = 1e6, 1e3
    gen_tokens = tracer.tokens["all"]
    audit_tokens = tracer.tokens["audit"]

    def per_token(names):
        return tracer.n_calls(names, "generate") / gen_tokens

    steps, candidates = runner.asts_candidates[1], runner.asts_candidates[0]
    values = {
        "core.dist_builds_per_token": (per_token({"core.TokenDistribution.__post_init__"}), "count/tok"),
        "core.entropy_calls_per_token": (per_token({"core.entropy"}), "count/tok"),
        "core.temperature_scale_us": (tracer.mean({"core.temperature_scale"}) * us, "us"),
        "core.dist_build_us": (tracer.mean({"core.TokenDistribution.__post_init__"}) * us, "us"),
        "core.normalize_us": (tracer.mean({"core.normalize"}) * us, "us"),
        "core.sample_us": (tracer.mean({"core.sample"}) * us, "us"),
        "simlm.next_distribution_us": (tracer.mean({"simlm.next_distribution"}) * us, "us"),
        "simlm.drive_self_us": (tracer.mean({"simlm.drive"}, tracer.self_time) * us, "us"),
        "lts.typical_set_us": (tracer.mean({"lts.typical_set_band", "lts.typical_set_mass"}) * us, "us"),
        "baselines.restrict_us": (
            tracer.mean({"baselines.topk_restrict", "baselines.nucleus_restrict"}) * us, "us"),
        "baselines.mirostat_step_us": (tracer.mean({"baselines.mirostat_step"}) * us, "us"),
        "asts.step_self_us": (tracer.mean({"asts.asts_step"}, tracer.self_time) * us, "us"),
        "asts.records_per_token": (tracer.unasked_records / gen_tokens, "count/tok"),
        "asts.candidates_per_step": (candidates / steps if steps else 0.0, "count"),
        "asts.alignment_us": (tracer.mean({"asts.EmbeddingAlignment.__call__"}) * us, "us"),
        "asts.relevance_us": (tracer.mean({"asts.KeywordRelevance.__call__"}) * us, "us"),
        "embed.context_embedding_us": (tracer.mean({"embed.context_embedding"}) * us, "us"),
        "embed.cosine_calls_per_token": (per_token({"embed.cosine"}), "count/tok"),
        "embed.table_builds_per_run": (
            tracer.n_calls({"embed.load_table", "embed.synthetic_table"}, "generate") / tracer.generate_calls,
            "count/run"),
        "embed.table_build_ms": (tracer.mean({"embed.load_table", "embed.synthetic_table"}) * ms, "ms"),
        "harness.sequence_setup_us": (
            tracer.sequence_setup_s / max(1, tracer.n_calls({"harness.run_sequence"})) * us, "us"),
        "harness.audit_write_us_per_token": (
            tracer.audit_s / audit_tokens * us if audit_tokens else 0.0, "us/tok"),
        "harness.audit_bytes_per_token": (tracer.audit_bytes / audit_tokens if audit_tokens else 0.0, "B/tok"),
        "harness.load_config_ms": (tracer.mean({"harness.load_config"}) * ms, "ms"),
        "metrics.perplexity_ms": (tracer.mean({"metrics.perplexity"}) * ms, "ms"),
        "metrics.rep_l_ms": (tracer.mean({"metrics.rep_l"}) * ms, "ms"),
        "metrics.ngram_diversity_ms": (tracer.mean({"metrics.ngram_diversity"}) * ms, "ms"),
        "trace.overhead_pct": (
            (statistics.median(traced) / statistics.median(plain) - 1.0) * 100.0, "%"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}

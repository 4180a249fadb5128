"""Run driver behind the CLI: config handling, generation, sweeps, reports.

The whole run is described by one JSON document. Every leaf key is
addressable by dotted path (``lts.tau_mass``, ``model.synthetic.seed``),
which is what the sweep command manipulates. Unset keys fall back to the
defaults below, every set key is checked against the type of its default,
and validation failures name the offending field path.

Determinism contract: sequence ``i`` of a run uses seed ``seed + i``, and
sweep replication ``r`` shifts the base seed by ``r * num_sequences`` so
replications never share per-sequence seeds. Output files depend only on
(config, seed), whether sequences are generated serially or by a worker
pool. The ``DECODE_SEED`` environment variable overrides the config seed.
"""

from __future__ import annotations

import copy
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from decodekit import golden, metrics, simlm
from decodekit.asts import AstsConfig, ConstantScores, EmbeddingAlignment, GenerationContext, KeywordRelevance
from decodekit.core import TokenDistribution, Vocabulary, default_vocabulary
from decodekit.embed import EmbeddingFormatError, load_table, synthetic_table
from decodekit.lts import LtsConfig
from decodekit.metrics import SequenceCorpus, UniformScorer
from decodekit.samplers import (
    SAMPLER_NAMES,
    AstsSampler,
    GreedySampler,
    LtsSampler,
    MirostatSampler,
    NucleusSampler,
    TopKSampler,
)
from decodekit.simlm import KINDS, LmProfile, next_distribution


class ConfigError(ValueError):
    """Configuration problem; CLI exit code 2."""


class DataError(ValueError):
    """Malformed or inconsistent input data; CLI exit code 3."""


class MetricError(ValueError):
    """Valid inputs outside a metric's domain; CLI exit code 1."""


METRIC_NAMES = ("ppl", "rep16", "rep32", "rep128", "zipf", "diversity", "diversity_sum")

# base_temperature default per synthetic profile kind.
KIND_TEMPERATURES = {"peaked": 0.3, "flat": 10.0, "mixed": 1.0, "loop_prone": 1.0}

# The config schema. A leaf's type is the type of its default. The
# model.synthetic, lts and asts defaults come from LmProfile (less its kind,
# which the selector names), LtsConfig and AstsConfig.
DEFAULTS: dict = {
    "seed": 0,
    "max_tokens": 64,
    "num_sequences": 1,
    "workers": 1,
    "sampler": "lts",
    "model": {
        "selector": "synthetic:mixed",
        "synthetic": {
            **{k: v for k, v in asdict(LmProfile()).items() if k != "kind"},
            "base_temperature": None,
            "vocab_size": 256,
        },
    },
    "prompt": {"tokens": None, "file": None},
    "output": {"corpus": None},
    "topk": {"k": 10},
    "nucleus": {"p": 0.9},
    "mirostat": {"tau": 3.0, "eta": 0.1, "mu0": None},
    "lts": asdict(LtsConfig()),
    "asts": {**asdict(AstsConfig()), "alignment": "embedding", "relevance": "zero", "keywords": []},
    "embed": {
        "table": "synthetic",
        "dim": 16,
        "seed": 0,
        "pooling": "mean",
        "decay": 0.8,
        "context_window": 0,
    },
    "zipf": {"min_rank": 1, "max_rank": None},
}

# Type of each leaf whose default is null; null stays allowed there only.
NULLABLE = {
    "model.synthetic.base_temperature": float,  # null = KIND_TEMPERATURES[kind]
    "prompt.tokens": list,
    "prompt.file": str,
    "output.corpus": str,
    "mirostat.mu0": float,  # null = 2 * mirostat.tau
    "zipf.max_rank": int,
}

_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string", list: "a list of strings"}

# Bounds and choices that no runtime constructor checks.
_MINIMUMS = {
    "seed": 0,
    "max_tokens": 1,
    "num_sequences": 1,
    "workers": 1,
    "model.synthetic.vocab_size": 1,
    "topk.k": 1,
    "mirostat.eta": 0,
    "embed.dim": 1,
    "embed.context_window": 0,
    "zipf.min_rank": 1,
}
_CHOICES = {
    "sampler": SAMPLER_NAMES,
    "asts.alignment": ("embedding", "zero"),
    "asts.relevance": ("zero", "keywords"),
    "embed.pooling": ("mean", "decay"),
}

_ASTS_FIELDS = tuple(f.name for f in fields(AstsConfig))


def get_by_path(cfg: dict, path: str):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"{path}: no such config key")
        node = node[part]
    return node


def set_by_path(cfg: dict, path: str, value) -> None:
    parts = path.split(".")
    node = cfg
    for part in parts[:-1]:
        if not isinstance(node.get(part), dict):
            raise ConfigError(f"{path}: no such config key")
        node = node[part]
    if parts[-1] not in node:
        raise ConfigError(f"{path}: no such config key")
    node[parts[-1]] = value


def load_config(path) -> dict:
    """Parse, apply DECODE_SEED, merge with defaults, and validate."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top-level config must be a JSON object")
    env_seed = os.environ.get("DECODE_SEED")
    if env_seed is not None:
        try:
            raw["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"DECODE_SEED must be an integer, got {env_seed!r}") from None
    return _checked(raw)


def _checked(raw: dict) -> dict:
    """The full config for ``raw``: defaults filled in, every field checked."""
    cfg = _merge(DEFAULTS, raw, "")
    _check_values(cfg)
    return cfg


def _merge(defaults: dict, given: dict, prefix: str) -> dict:
    for key in given:
        if key not in defaults:
            # Reject typos outright; a silently ignored "tau_mas" would make
            # a sweep look like the parameter has no effect.
            raise ConfigError(f"{prefix}{key}: unknown config key")
    out = {}
    for key, default in defaults.items():
        path = prefix + key
        if isinstance(default, dict):
            section = given.get(key, {})
            _expect(isinstance(section, dict), path, f"must be an object, got {section!r}")
            out[key] = _merge(default, section, path + ".")
        elif key in given:
            out[key] = _check_leaf(path, given[key], default)
        else:
            out[key] = list(default) if isinstance(default, list) else default
    return out


def _check_leaf(path: str, value, default):
    kind = NULLABLE[path] if default is None else type(default)
    if value is None:
        ok = default is None
    elif kind is float:
        # abs() <= max is false for NaN, inf and ints too large for a float.
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
    elif kind is list:
        ok = type(value) is list and all(type(v) is str for v in value)
    else:
        ok = type(value) is kind  # an int leaf rejects bool
    nullable = " or null" if default is None else ""
    _expect(ok, path, f"must be {_TYPE_NAMES[kind]}{nullable}, got {value!r}")
    return value


def _expect(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _check_values(cfg: dict) -> None:
    """Range and cross-field checks, then the runtime constructors' own."""
    for path, minimum in _MINIMUMS.items():
        v = get_by_path(cfg, path)
        _expect(v >= minimum, path, f"must be >= {minimum}, got {v}")
    for path, choices in _CHOICES.items():
        v = get_by_path(cfg, path)
        _expect(v in choices, path, f"must be one of {choices}, got {v!r}")
    for path in ("nucleus.p", "embed.decay"):
        v = get_by_path(cfg, path)
        _expect(0 < v <= 1, path, f"must lie in (0, 1], got {v!r}")

    selector = cfg["model"]["selector"]
    scheme, _, target = selector.partition(":")
    if scheme == "synthetic":
        _expect(target in KINDS, "model.selector", f"unknown synthetic kind {target!r}, expected one of {KINDS}")
        try:
            _build_profile(cfg)
        except ValueError as exc:
            raise ConfigError(f"model.synthetic: {exc}") from None
    elif scheme == "file":
        _expect(os.path.isfile(target), "model.selector", f"distribution file not found: {target!r}")
    else:
        raise ConfigError(f"model.selector: expected 'synthetic:<kind>' or 'file:<path>', got {selector!r}")

    prompt = cfg["prompt"]
    _expect(prompt["tokens"] is None or prompt["file"] is None, "prompt", "give either 'tokens' or 'file', not both")
    if prompt["file"] is not None:
        _expect(os.path.isfile(prompt["file"]), "prompt.file", f"file not found: {prompt['file']}")

    asts, table = cfg["asts"], cfg["embed"]["table"]
    if asts["relevance"] == "keywords":
        _expect(bool(asts["keywords"]), "asts.keywords", "must be nonempty when asts.relevance = 'keywords'")
    if cfg["sampler"] == "asts" and asts["alignment"] == "embedding" and table != "synthetic":
        _expect(os.path.isfile(table), "embed.table", f"embedding table not found: {table}")
    zipf = cfg["zipf"]
    if zipf["max_rank"] is not None:
        _expect(zipf["max_rank"] >= zipf["min_rank"], "zipf.max_rank", "must be null or an integer >= zipf.min_rank")

    # Constructing the config dataclasses runs their own validation; their
    # messages already carry the field path.
    try:
        LtsConfig(**cfg["lts"])
        _asts_config(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# --------------------------------------------------------------------------
# Builders: config dict -> runtime objects.


def _build_profile(cfg: dict) -> LmProfile:
    kind = cfg["model"]["selector"].split(":", 1)[1]
    syn = dict(cfg["model"]["synthetic"])
    del syn["vocab_size"]
    if syn["base_temperature"] is None:
        syn["base_temperature"] = KIND_TEMPERATURES[kind]
    return LmProfile(kind=kind, **syn)


def _asts_config(cfg: dict) -> AstsConfig:
    return AstsConfig(**{name: cfg["asts"][name] for name in _ASTS_FIELDS})


class SyntheticModel:
    def __init__(self, profile: LmProfile, vocab: Vocabulary):
        self.profile = profile
        self.vocab = vocab

    def next(self, ctx, step: int):
        return next_distribution(self.profile, ctx, self.vocab)


class ReplayModel:
    """Steps through distributions loaded from a file, cycling at the end."""

    def __init__(self, vocab: Vocabulary, rows: np.ndarray):
        self.vocab = vocab
        self.rows = rows

    def next(self, ctx, step: int):
        return TokenDistribution(self.vocab, self.rows[step % len(self.rows)])


def _load_replay_model(path: str) -> ReplayModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or "tokens" not in doc or "steps" not in doc:
        raise DataError(f"{path}: distribution file needs 'tokens' and 'steps' keys")
    tokens = doc["tokens"]
    if not isinstance(tokens, list) or not tokens or not all(isinstance(t, str) for t in tokens):
        raise DataError(f"{path}: 'tokens' must be a nonempty list of strings")
    steps = doc["steps"]
    if not isinstance(steps, list) or not steps:
        raise DataError(f"{path}: 'steps' must be a nonempty list of probability rows")
    rows = []
    for i, row in enumerate(steps):
        if not isinstance(row, list) or len(row) != len(tokens):
            raise DataError(f"{path}: step {i}: expected {len(tokens)} probabilities")
        arr = np.asarray(row, dtype=np.float64)
        if not np.all(np.isfinite(arr)) or np.any(arr < 0) or arr.sum() <= 0:
            raise DataError(f"{path}: step {i}: probabilities must be nonnegative with positive sum")
        rows.append(arr / arr.sum())  # rows are renormalised exactly
    return ReplayModel(Vocabulary.from_tokens(tokens), np.stack(rows))


def build_model(cfg: dict):
    selector = get_by_path(cfg, "model.selector")
    if selector.startswith("synthetic:"):
        vocab = default_vocabulary(get_by_path(cfg, "model.synthetic.vocab_size"))
        return SyntheticModel(_build_profile(cfg), vocab)
    return _load_replay_model(selector.split(":", 1)[1])


def _build_alignment(cfg: dict, vocab: Vocabulary):
    if get_by_path(cfg, "asts.alignment") == "zero":
        return ConstantScores(0.0)
    e = cfg["embed"]
    if e["table"] == "synthetic":
        table = synthetic_table(vocab, dim=e["dim"], seed=e["seed"])
    else:
        try:
            table = load_table(e["table"])
        except EmbeddingFormatError as exc:
            raise DataError(str(exc)) from None
        missing = table.covers(vocab)
        if missing:
            raise DataError(
                f"embed.table: {len(missing)} vocabulary tokens lack embeddings "
                f"(first missing: {missing[0]!r})"
            )
    return EmbeddingAlignment(
        table=table, vocab=vocab, pooling=e["pooling"], decay=e["decay"], context_window=e["context_window"]
    )


def _build_relevance(cfg: dict, vocab: Vocabulary):
    if get_by_path(cfg, "asts.relevance") == "keywords":
        return KeywordRelevance(vocab, tuple(get_by_path(cfg, "asts.keywords")))
    return ConstantScores(0.0)


def build_providers(cfg: dict, vocab: Vocabulary):
    """The ASTS (alignment, relevance) providers; None for other samplers."""
    if cfg["sampler"] != "asts":
        return None
    return _build_alignment(cfg, vocab), _build_relevance(cfg, vocab)


def build_sampler(cfg: dict, vocab: Vocabulary, providers=None):
    """Fresh per-sequence sampler adapter for the configured strategy.

    ``providers`` passes a run's ``build_providers`` result to each
    sequence; without it an ASTS sampler builds its own.
    """
    name = cfg["sampler"]
    if name == "greedy":
        return GreedySampler()
    if name == "topk":
        return TopKSampler(k=get_by_path(cfg, "topk.k"))
    if name == "nucleus":
        return NucleusSampler(p=get_by_path(cfg, "nucleus.p"))
    if name == "mirostat":
        m = cfg["mirostat"]
        return MirostatSampler.fresh(target_tau=m["tau"], eta=m["eta"], mu0=m["mu0"])
    if name == "lts":
        return LtsSampler(cfg=LtsConfig(**cfg["lts"]))
    if name == "asts":
        alignment, relevance = providers or build_providers(cfg, vocab)
        return AstsSampler(cfg=_asts_config(cfg), alignment=alignment, relevance=relevance)
    raise ConfigError(f"sampler: unknown sampler {name!r}")


def _resolve_prompts(cfg: dict, vocab: Vocabulary) -> list[tuple[int, ...]]:
    """Prompt id tuples; sequence i uses entry i modulo the list length."""
    prompt = cfg["prompt"]
    if prompt["tokens"] is not None:
        return [_tokens_to_ids(prompt["tokens"], vocab, "prompt.tokens")]
    if prompt["file"] is not None:
        path = prompt["file"]
        seqs = _load_corpus_tokens(path, "jsonl")
        return [_tokens_to_ids(seq, vocab, f"{path}: prompt {i + 1}") for i, seq in enumerate(seqs)]
    return [()]


def _tokens_to_ids(tokens, vocab: Vocabulary, where: str) -> tuple[int, ...]:
    ids = []
    for t in tokens:
        if t not in vocab.index:
            raise DataError(f"{where}: token {t!r} not in the model vocabulary")
        ids.append(vocab.index[t])
    return tuple(ids)


@dataclass(frozen=True)
class RunInputs:
    """What every sequence of a run shares; immutable, so built once per run."""

    model: object
    prompts: list
    providers: tuple | None
    audit: bool  # whether sequences keep their ASTS audit records


def prepare_run(cfg: dict, audit: bool = False) -> RunInputs:
    """Build a run's model, prompts and ASTS providers; input errors raise here."""
    model = build_model(cfg)
    providers = build_providers(cfg, model.vocab)
    return RunInputs(model, _resolve_prompts(cfg, model.vocab), providers, audit)


def run_sequence(cfg: dict, index: int, inputs: RunInputs | None = None) -> dict:
    """Generate sequence ``index`` of a run; pure function of (cfg, index).

    ``inputs`` are the run's ``prepare_run(cfg, audit)``; without them they
    are built here, with no audit.
    """
    inputs = inputs or prepare_run(cfg)
    model = inputs.model
    vocab = model.vocab
    sampler = build_sampler(cfg, vocab, inputs.providers)
    tokens, trace = simlm.drive(
        model.next,
        sampler,
        seed=cfg["seed"] + index,
        max_tokens=cfg["max_tokens"],
        prompt=inputs.prompts[index % len(inputs.prompts)],
        window_w=cfg["asts"]["window_w"],
    )
    audit = []
    if inputs.audit and isinstance(sampler, AstsSampler):
        audit = [
            {"sequence": index, "step": t, **b.to_json_dict()}
            for t, b in enumerate(sampler.breakdowns)
        ]
    return {
        "id": index,
        "token_ids": tokens,
        "tokens": [vocab.tokens[t] for t in tokens],
        "entropy_trace": trace,
        "audit": audit,
    }


# A pool worker's (cfg, inputs), set once per worker by the pool initializer.
_worker_run: tuple = ()


def _init_worker(cfg: dict, inputs: RunInputs) -> None:
    global _worker_run
    _worker_run = (cfg, inputs)


def _sequence_job(index: int) -> dict:
    cfg, inputs = _worker_run
    return run_sequence(cfg, index, inputs)


def run_generation(cfg: dict, audit: bool = False) -> list[dict]:
    """All sequences of a run, in id order; parallel when workers > 1.

    The run's inputs are built once, here, so a broken input raises before
    any worker starts; each worker receives them once. ``audit`` keeps each
    ASTS step's score breakdown in the records.
    """
    inputs = prepare_run(cfg, audit)
    indices = range(cfg["num_sequences"])
    if cfg["workers"] > 1:
        with ProcessPoolExecutor(
            max_workers=cfg["workers"], initializer=_init_worker, initargs=(cfg, inputs)
        ) as pool:
            return list(pool.map(_sequence_job, indices))
    return [run_sequence(cfg, i, inputs) for i in indices]


# --------------------------------------------------------------------------
# Commands. Each returns data and lets the CLI decide about process exit.


def _open_out(path):
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def cmd_generate(config_path, audit_path=None) -> list[dict]:
    cfg = load_config(config_path)
    out_path = cfg["output"]["corpus"]
    _expect(bool(out_path), "output.corpus", "output path required for generate")
    # Input errors (a broken embedding table, an unknown prompt token) raise
    # from prepare_run, before any output file is opened.
    records = run_generation(cfg, audit=audit_path is not None)
    with _open_out(out_path) as fh:
        for rec in records:
            fh.write(
                json.dumps(
                    {"id": rec["id"], "tokens": rec["tokens"], "entropy_trace": rec["entropy_trace"]},
                    ensure_ascii=False,
                )
                + "\n"
            )
    if audit_path is not None:
        with _open_out(audit_path) as fh:
            for rec in records:
                for line in rec["audit"]:
                    fh.write(json.dumps(line, ensure_ascii=False) + "\n")
    return records


def _metric_value(cfg: dict, metric: str, records: list[dict], model) -> float:
    corpus = SequenceCorpus(tuple(tuple(r["token_ids"]) for r in records), model.vocab)
    try:
        if metric.startswith("rep"):
            l = int(metric[3:])
            vals = [metrics.rep_l(s, l) for s in corpus.sequences]
            return sum(vals) / len(vals)
        if metric == "diversity":
            vals = [metrics.ngram_diversity(s) for s in corpus.sequences]
            return sum(vals) / len(vals)
        if metric == "diversity_sum":
            vals = [metrics.ngram_diversity(s) for s in corpus.sequences]
            return 4.0 * sum(vals) / len(vals)
        if metric == "zipf":
            return metrics.zipf_coefficient(corpus, **cfg["zipf"])
        if metric == "ppl":
            return metrics.perplexity(corpus, _model_scorer(model))
    except ValueError as exc:
        raise MetricError(str(exc)) from None
    raise ConfigError(f"metric: unknown metric {metric!r}, expected one of {METRIC_NAMES}")


def _model_scorer(model):
    """Score a sequence position-by-position under ``model`` (fresh context)."""

    def score(seq):
        ctx = GenerationContext(window_w=8)
        out = []
        for step, t in enumerate(seq):
            out.append(model.next(ctx, step).prob(int(t)))
            ctx.append(int(t))
        return out

    return score


@dataclass(frozen=True)
class SweepRow:
    value: object
    mean: float
    std: float


def cmd_sweep(config_path, param: str, values, metric: str, reps: int, out_path) -> list[SweepRow]:
    """One CSV row per swept value: (param_value, metric_mean, metric_std).

    ``param`` may be a comma-separated list of dotted paths; every path is
    set to the same value, which is how a symmetric band sweep (asts.k1 and
    asts.k2 moving together) stays a one-parameter sweep.
    """
    base = load_config(config_path)
    paths = [p.strip() for p in str(param).split(",") if p.strip()]
    if not paths:
        raise ConfigError("param: at least one dotted config path required")
    if len(values) < 2:
        raise ConfigError(f"values: a sweep needs at least 2 values, got {len(values)}")
    if metric not in METRIC_NAMES:
        raise ConfigError(f"metric: unknown metric {metric!r}, expected one of {METRIC_NAMES}")
    if reps < 1:
        raise ConfigError(f"reps: must be >= 1, got {reps}")

    rows: list[SweepRow] = []
    for value in values:
        cfg = copy.deepcopy(base)
        for path in paths:
            set_by_path(cfg, path, value)
        cfg = _checked(cfg)
        model = build_model(cfg)
        samples = []
        for r in range(reps):
            run_cfg = dict(cfg, seed=cfg["seed"] + r * cfg["num_sequences"])
            records = run_generation(run_cfg)
            samples.append(_metric_value(cfg, metric, records, model))
        arr = np.asarray(samples, dtype=np.float64)
        rows.append(SweepRow(value=value, mean=float(arr.mean()), std=float(arr.std())))

    with _open_out(out_path) as fh:
        fh.write("param_value,metric_mean,metric_std\n")
        for row in rows:
            fh.write(f"{_csv_cell(row.value)},{_csv_cell(row.mean)},{_csv_cell(row.std)}\n")
    return rows


def _csv_cell(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def _load_corpus_tokens(path, fmt: str) -> list[list[str]]:
    """Token sequences of a corpus or prompt file, one per nonblank line."""
    sequences: list[list[str]] = []
    try:
        fh = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        raise DataError(f"corpus file not found: {path}") from None
    with fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if fmt == "text":
                sequences.append(line.split())
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}: line {lineno}: not valid JSON: {exc}") from None
            if not isinstance(obj, dict) or not isinstance(obj.get("tokens"), list):
                raise DataError(f"{path}: line {lineno}: expected an object with a 'tokens' list")
            toks = obj["tokens"]
            if not all(isinstance(t, str) for t in toks):
                raise DataError(f"{path}: line {lineno}: tokens must all be strings")
            sequences.append(list(toks))
    if not sequences:
        raise DataError(f"{path}: file contains no token sequences")
    return sequences


def cmd_metrics(
    generated_path,
    reference_path=None,
    out_path=None,
    csv_path=None,
    config_path=None,
    fmt: str = "jsonl",
):
    """Metric report for a generated corpus, optionally against a reference.

    Without a config, sequences are scored by a uniform scorer over the
    observed vocabulary (a degenerate but dependency-free perplexity).
    With ``--config``, the configured model scores both corpora, which is
    how generator-vs-independent-model perplexity comparisons are run.
    """
    if fmt not in ("jsonl", "text"):
        raise ConfigError(f"format: must be 'jsonl' or 'text', got {fmt!r}")
    gen_tokens = _load_corpus_tokens(generated_path, fmt)
    ref_tokens = _load_corpus_tokens(reference_path, fmt) if reference_path else None

    zipf = DEFAULTS["zipf"]
    if config_path is not None:
        cfg = load_config(config_path)
        model = build_model(cfg)
        vocab = model.vocab
        scorer = _model_scorer(model)
        zipf = cfg["zipf"]
    else:
        seen = sorted({t for seq in gen_tokens for t in seq} | {t for seq in (ref_tokens or []) for t in seq})
        vocab = Vocabulary.from_tokens(seen)
        scorer = UniformScorer(len(vocab))

    def to_corpus(seqs, where):
        ids = tuple(_tokens_to_ids(s, vocab, where) for s in seqs)
        return SequenceCorpus(ids, vocab)

    generated = to_corpus(gen_tokens, str(generated_path))
    reference = to_corpus(ref_tokens, str(reference_path)) if ref_tokens is not None else None
    try:
        rep = metrics.report(
            generated, scorer, reference, zipf_min_rank=zipf["min_rank"], zipf_max_rank=zipf["max_rank"]
        )
    except ValueError as exc:
        raise MetricError(str(exc)) from None
    if out_path is not None:
        with _open_out(out_path) as fh:
            fh.write(rep.to_json())
    if csv_path is not None:
        with _open_out(csv_path) as fh:
            fh.write(rep.to_csv())
    return rep


def cmd_golden(print_fn=print) -> int:
    """Run the built-in reference checks; exit code 4 on any failure."""
    checks = golden.run_golden_checks()
    for check in checks:
        print_fn(check.line())
    failed = [c for c in checks if not c.passed]
    print_fn(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return 4 if failed else 0

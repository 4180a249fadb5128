"""Run driver behind the CLI: config handling, generation, sweeps, reports.

The whole run is described by one JSON document. Every leaf key is
addressable by dotted path (``lts.tau_mass``, ``model.synthetic.seed``),
which is what the sweep command manipulates. ``SCHEMA`` declares each leaf
once, as a ``core.leaf`` row holding its default and accepted range. Unset
keys take the default, every set key is checked against its row, and
validation failures name the offending field path.

Determinism contract: sequence ``i`` of a run uses seed ``seed + i``, and
sweep replication ``r`` shifts the base seed by ``r * num_sequences`` so
replications never share per-sequence seeds. Output files depend only on
(config, seed), whether sequences are generated serially or by a worker
pool. The ``DECODE_SEED`` environment variable overrides the config seed.
"""

from __future__ import annotations

import contextlib
import copy
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from decodekit import golden, metrics, outputs, simlm
from decodekit.asts import AstsConfig, ConstantScores, EmbeddingAlignment, KeywordRelevance, ProviderError
from decodekit.baselines import MirostatState, greedy_restrict, nucleus_restrict, topk_restrict
from decodekit.core import (
    DistributionError, TokenDistribution, Vocabulary, check_leaf, default_vocabulary, leaf, utf8_error
)
from decodekit.embed import EmbeddingFormatError, load_table, synthetic_table
from decodekit.lts import LtsConfig, lts_restrict
from decodekit.metrics import SequenceCorpus, UniformScorer
from decodekit.samplers import SAMPLER_NAMES, AstsSampler, MirostatSampler, TruncationSampler
from decodekit.simlm import KINDS, LmProfile, next_distribution, token_probabilities


class ConfigError(ValueError):
    """Configuration problem; CLI exit code 2."""


class DataError(ValueError):
    """Malformed or inconsistent input data; CLI exit code 3."""


class MetricError(ValueError):
    """Valid inputs outside a metric's domain; CLI exit code 1."""


# base_temperature default per synthetic profile kind.
KIND_TEMPERATURES = {"peaked": 0.3, "flat": 10.0, "mixed": 1.0, "loop_prone": 1.0}


def _section(cls, *drop: str) -> dict:
    """The ``leaf`` rows of the config dataclass ``cls``, less the fields ``drop``."""
    return {f.name: f for f in fields(cls) if f.name not in drop}


_PROFILE = _section(LmProfile, "kind")  # the selector names the kind

# The config schema: one ``leaf`` row per field, holding its default and the
# values it accepts. The model.synthetic, lts and asts rows are those of
# LmProfile, LtsConfig and AstsConfig. A synthetic embedding table holds
# vocab_size * embed.dim floats, so their two bounds keep it within 1 GiB.
SCHEMA: dict = {
    "seed": leaf(0, lo=0),
    "max_tokens": leaf(64, lo=1),
    "num_sequences": leaf(1, lo=1),
    "workers": leaf(1, lo=1, hi=256),
    "sampler": leaf("lts", choices=SAMPLER_NAMES),
    "model": {
        "selector": leaf("synthetic:mixed"),
        "synthetic": {
            **_PROFILE,
            # null = KIND_TEMPERATURES[kind]
            "base_temperature": field(default=None, metadata=_PROFILE["base_temperature"].metadata),
            "vocab_size": leaf(256, lo=1, hi=2**18),
        },
    },
    "prompt": {"tokens": leaf(None, kind=list), "file": leaf(None, kind=str)},
    "output": {"corpus": leaf(None, kind=str)},
    "topk": {"k": leaf(10, lo=1)},
    "nucleus": {"p": leaf(0.9, above=0.0, hi=1.0)},
    "mirostat": {"tau": leaf(3.0), "eta": leaf(0.1, lo=0.0), "mu0": leaf(None, kind=float)},  # mu0 null = 2 * tau
    "lts": _section(LtsConfig),
    "asts": {
        **_section(AstsConfig),
        "alignment": leaf("embedding", choices=("embedding", "zero")),
        "relevance": leaf("zero", choices=("zero", "keywords")),
        "keywords": leaf([], kind=list),
    },
    "embed": {
        "table": leaf("synthetic"),
        "dim": leaf(16, lo=1, hi=2**9),
        "seed": leaf(0),
        "pooling": leaf("mean", choices=("mean", "decay")),
        "decay": leaf(0.8, above=0.0, hi=1.0),
        "context_window": leaf(0, lo=0),
    },
    "zipf": {"min_rank": leaf(1, lo=1), "max_rank": leaf(None, kind=int)},
}

_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string", list: "a list of strings"}

_ASTS_FIELDS = tuple(f.name for f in fields(AstsConfig))

# What a sampler raises when its running values overflow: the ASTS exponent
# or the Mirostat budget.
_OVERFLOW_ERRORS = {"asts": DistributionError, "mirostat": ValueError}


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
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    except UnicodeDecodeError:
        raise ConfigError(utf8_error(path)) from None
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
    cfg = _merge(SCHEMA, raw, "")
    _check_values(cfg)
    return cfg


def _merge(schema: dict, given: dict, prefix: str) -> dict:
    for key in given:
        if key not in schema:
            # Reject typos outright; a silently ignored "tau_mas" would make
            # a sweep look like the parameter has no effect.
            raise ConfigError(f"{prefix}{key}: unknown config key")
    out = {}
    for key, spec in schema.items():
        path = prefix + key
        if isinstance(spec, dict):
            section = given.get(key, {})
            _expect(isinstance(section, dict), path, f"must be an object, got {section!r}")
            out[key] = _merge(spec, section, path + ".")
        elif key in given:
            out[key] = _check_leaf(path, spec, given[key])
        else:
            out[key] = list(spec.default) if isinstance(spec.default, list) else spec.default
    return out


def _check_leaf(path: str, spec, value):
    kind = spec.metadata["kind"]
    if value is None:
        ok = spec.default is None
    elif kind is float:
        # abs() <= max is false for NaN, inf and ints too large for a float.
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
    elif kind is list:
        ok = type(value) is list and all(type(v) is str for v in value)
    else:
        ok = type(value) is kind  # an int leaf rejects bool
    nullable = " or null" if spec.default is None else ""
    _expect(ok, path, f"must be {_TYPE_NAMES[kind]}{nullable}, got {value!r}")
    if value is None:
        return value
    if kind is int:
        # numpy and deque sizes take at most signed 64 bits.
        _expect(-(2**63) <= value < 2**63, path, f"must fit in a signed 64-bit integer, got {value!r}")
    try:
        check_leaf(path, spec, value)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return value


def _expect(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {msg}")


# Every leaf at its default.
DEFAULTS = _merge(SCHEMA, {}, "")


def _expect_file(path: str, where: str, what: str) -> None:
    """Raise ConfigError at ``where`` unless ``path`` names a file; a directory is called one."""
    _expect(not os.path.isdir(path), where, f"{what} is a directory: {path!r}")
    _expect(os.path.isfile(path), where, f"{what} not found: {path!r}")


def _check_values(cfg: dict) -> None:
    """The checks that span fields: selector, prompt, files, keywords and zipf ranks."""
    selector = cfg["model"]["selector"]
    scheme, _, target = selector.partition(":")
    if scheme == "synthetic":
        _expect(target in KINDS, "model.selector", f"unknown synthetic kind {target!r}, expected one of {KINDS}")
    elif scheme == "file":
        _expect_file(target, "model.selector", "distribution file")
    else:
        raise ConfigError(f"model.selector: expected 'synthetic:<kind>' or 'file:<path>', got {selector!r}")

    prompt = cfg["prompt"]
    _expect(prompt["tokens"] is None or prompt["file"] is None, "prompt", "give either 'tokens' or 'file', not both")
    if prompt["file"] is not None:
        _expect_file(prompt["file"], "prompt.file", "prompt file")

    asts, table = cfg["asts"], cfg["embed"]["table"]
    if asts["relevance"] == "keywords":
        _expect(bool(asts["keywords"]), "asts.keywords", "must be nonempty when asts.relevance = 'keywords'")
    if cfg["sampler"] == "asts" and asts["alignment"] == "embedding" and table != "synthetic":
        _expect_file(table, "embed.table", "embedding table")
    zipf = cfg["zipf"]
    if zipf["max_rank"] is not None:
        _expect(zipf["max_rank"] >= zipf["min_rank"], "zipf.max_rank", "must be null or an integer >= zipf.min_rank")


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


def _overflowing_field(cfg: dict) -> str:
    """The scale field that overflowed a step, taken as the one of largest scale times its score's bound.

    ASTS scores are bounded when the providers are built-in: |coherence| <=
    746 (a surprisal is at most 745 nats), diversity <= 1 / eps_div and every
    other score lies in [-1, 1]. The "eq13" form's exponent has no lambda term.
    """
    if cfg["sampler"] == "mirostat":
        m = cfg["mirostat"]
        sizes = {f"mirostat.{k}": abs(m[k]) for k in ("tau", "eta", "mu0") if m[k] is not None}
    else:
        a = cfg["asts"]
        bounds = {"mu1": 1.0, "mu2": 1.0, "mu3": 1.0}
        if a["adjust_form"] == "example":
            bounds.update(lambda1=746.0, lambda2=1.0, lambda3=1.0 / a["eps_div"])
        sizes = {f"asts.{k}": a[k] * bound for k, bound in bounds.items()}
    return max(sizes, key=sizes.get)


class SyntheticModel:
    """A synthetic profile; scores that overflow are a ConfigError on ``base_temperature``."""

    def __init__(self, profile: LmProfile, vocab: Vocabulary):
        self.profile = profile
        self.vocab = vocab

    def next(self, history, step: int):
        try:
            return next_distribution(self.profile, history, self.vocab)
        except DistributionError as exc:
            raise ConfigError(f"model.synthetic.base_temperature: {exc}") from None

    def score(self, seq) -> list[float]:
        try:
            return token_probabilities(self.profile, seq, len(self.vocab))
        except DistributionError as exc:
            raise ConfigError(f"model.synthetic.base_temperature: {exc}") from None


class ReplayModel:
    """Steps through distributions loaded from a file, cycling at the end.

    ``rows`` must hold valid probability rows, as ``_load_replay_model``
    checks them; ``next`` wraps each row without checking it again.
    """

    def __init__(self, vocab: Vocabulary, rows: np.ndarray):
        self.vocab = vocab
        self.rows = rows

    def next(self, history, step: int):
        return TokenDistribution._checked_by_caller(self.vocab, self.rows[step % len(self.rows)])

    def score(self, seq) -> list[float]:
        """Position ``i`` scored under row ``i``, as ``next`` steps through them."""
        return [float(self.rows[i % len(self.rows), t]) for i, t in enumerate(seq)]


def _load_replay_model(path: str) -> ReplayModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from None
    except UnicodeDecodeError:
        raise DataError(utf8_error(path)) from None
    if not isinstance(doc, dict) or "tokens" not in doc or "steps" not in doc:
        raise DataError(f"{path}: distribution file needs 'tokens' and 'steps' keys")
    tokens = doc["tokens"]
    if not isinstance(tokens, list) or not tokens or not all(isinstance(t, str) for t in tokens):
        raise DataError(f"{path}: 'tokens' must be a nonempty list of strings")
    try:
        vocab = Vocabulary.from_tokens(tokens)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    steps = doc["steps"]
    if not isinstance(steps, list) or not steps:
        raise DataError(f"{path}: 'steps' must be a nonempty list of probability rows")
    rows = []
    for i, row in enumerate(steps):
        if not isinstance(row, list) or len(row) != len(tokens):
            raise DataError(f"{path}: step {i}: expected {len(tokens)} probabilities")
        # As for a float config leaf: type() rejects bool, strings and lists,
        # and abs() <= max rejects NaN, inf and ints too large for a float.
        if not all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in row):
            raise DataError(f"{path}: step {i}: probabilities must be finite numbers")
        arr = np.asarray(row, dtype=np.float64)
        with np.errstate(over="ignore"):  # a total that overflows is rejected below
            total = arr.sum()
        if np.any(arr < 0) or not 0 < total < np.inf:
            raise DataError(f"{path}: step {i}: probabilities must be nonnegative with a positive, finite sum")
        rows.append(arr / total)  # rows are renormalised exactly
    stacked = np.stack(rows)
    stacked.flags.writeable = False  # next() hands out views of these rows
    return ReplayModel(vocab, stacked)


def build_model(cfg: dict):
    selector = cfg["model"]["selector"]
    if selector.startswith("synthetic:"):
        vocab = default_vocabulary(cfg["model"]["synthetic"]["vocab_size"])
        return SyntheticModel(_build_profile(cfg), vocab)
    return _load_replay_model(selector.split(":", 1)[1])


def _build_alignment(cfg: dict, vocab: Vocabulary):
    if cfg["asts"]["alignment"] == "zero":
        return ConstantScores(0.0)
    e = cfg["embed"]
    if e["table"] == "synthetic":
        table = synthetic_table(vocab, dim=e["dim"], seed=e["seed"])
    else:
        try:
            table = load_table(e["table"])
        except EmbeddingFormatError as exc:
            raise DataError(str(exc)) from None
        except OSError as exc:
            raise DataError(f"embed.table: {e['table']}: cannot read: {exc.strerror}") from None
    try:
        return EmbeddingAlignment(
            table=table, vocab=vocab, pooling=e["pooling"], decay=e["decay"], context_window=e["context_window"]
        )
    except ProviderError as exc:
        raise DataError(f"embed.table: {e['table']}: {exc}") from None


def _build_relevance(cfg: dict, vocab: Vocabulary):
    if cfg["asts"]["relevance"] == "keywords":
        return KeywordRelevance(vocab, tuple(cfg["asts"]["keywords"]))
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
        return TruncationSampler(greedy_restrict)
    if name == "topk":
        return TruncationSampler(partial(topk_restrict, k=cfg["topk"]["k"]))
    if name == "nucleus":
        return TruncationSampler(partial(nucleus_restrict, p=cfg["nucleus"]["p"]))
    if name == "mirostat":
        m = cfg["mirostat"]
        return MirostatSampler(MirostatState.initial(target_tau=m["tau"], eta=m["eta"], mu0=m["mu0"]))
    if name == "lts":
        return TruncationSampler(partial(lts_restrict, cfg=LtsConfig(**cfg["lts"])))
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
    audit: bool  # whether sequences keep their ASTS audit lines


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
    try:
        # A scale field large enough to overflow a step makes numpy warn
        # before the step raises; the ConfigError below is the one report.
        with np.errstate(over="ignore", invalid="ignore"):
            sampler = build_sampler(cfg, vocab, inputs.providers)
            if isinstance(sampler, AstsSampler) and not inputs.audit:
                sampler.breakdowns = None  # keep no audit, so build no breakdowns
            tokens, trace = simlm.drive(
                model.next,
                sampler,
                seed=cfg["seed"] + index,
                max_tokens=cfg["max_tokens"],
                prompt=inputs.prompts[index % len(inputs.prompts)],
            )
    except (ConfigError, DataError):
        raise
    except _OVERFLOW_ERRORS.get(cfg["sampler"], ()) as exc:
        raise ConfigError(f"{_overflowing_field(cfg)}: {exc}") from None
    audit = []
    if inputs.audit and isinstance(sampler, AstsSampler):
        audit = [b.to_json_line(index, t, token) for t, (b, token) in enumerate(zip(sampler.breakdowns, tokens))]
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


def iter_generation(cfg: dict, inputs: RunInputs | None = None):
    """Yield a run's records in id order, each as soon as it is ready.

    Sequences run in a worker pool when workers and num_sequences are both
    > 1. The run's inputs are built once, before the first record, so a broken
    input raises before any worker starts; each worker receives them once.
    ``inputs`` are the run's ``prepare_run(cfg, audit)``; with ``audit`` the
    records keep each ASTS step's audit line (``ScoreBreakdown.to_json_line``).
    Without them they are built here, with no audit. Serially, sequence ``i``
    starts only when record ``i - 1`` is taken, and the pool drops each record
    once it is yielded.
    """
    inputs = inputs or prepare_run(cfg)
    indices = range(cfg["num_sequences"])
    # The pool starts all its workers at once, so it gets no more than there are sequences.
    workers = min(cfg["workers"], len(indices))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(cfg, inputs)) as pool:
            yield from pool.map(_sequence_job, indices)
    else:
        for i in indices:
            yield run_sequence(cfg, i, inputs)


def run_generation(cfg: dict, inputs: RunInputs | None = None) -> list[dict]:
    """All records of ``iter_generation(cfg, inputs)``, in id order."""
    return list(iter_generation(cfg, inputs))


# --------------------------------------------------------------------------
# Commands. Each raises its errors and lets the CLI decide about process exit.


def _open_out(path) -> outputs.OutputFile:
    """Open ``path`` inside ``outputs.replacing()``; every output goes through here, and ``bench/tracer.py`` wraps it."""
    return outputs.OutputFile(path)


def _open_named(files: contextlib.ExitStack, what: str, path):
    """``_open_out(path)`` entered in ``files``, or None for a None path.

    An OSError opening it is a ConfigError naming ``what``. Each command
    opens its outputs before any other work, so a path that is a directory,
    one beside which no temporary file can be made, or a second output on the
    same file fails before the first token.
    """
    if path is None:
        return None
    try:
        return files.enter_context(_open_out(path))
    except OSError as exc:
        raise ConfigError(f"{what}: cannot write {os.fspath(path)!r}: {exc}") from None


def cmd_generate(config_path, audit_path=None) -> None:
    """Generate a config's run into ``output.corpus`` and, given ``audit_path``, its ASTS audit.

    Both outputs are opened before the run's inputs are built. Each record's
    corpus line and audit lines are written as soon as the record arrives and
    the record is then dropped, so a serial run holds one sequence at a time
    (a pool also holds the records that finish ahead of the writer).
    Both files are written beside their targets and replace them when the
    run ends; a run that fails leaves the earlier files untouched.
    """
    cfg = load_config(config_path)
    out_path = cfg["output"]["corpus"]
    _expect(bool(out_path), "output.corpus", "output path required for generate")
    with outputs.replacing(), contextlib.ExitStack() as files:
        corpus = _open_named(files, "output.corpus", out_path)
        audit = _open_named(files, "audit", audit_path)
        # Input errors (a broken embedding table, an unknown prompt token) raise
        # before the first record, and the outputs opened above are discarded.
        for rec in iter_generation(cfg, prepare_run(cfg, audit is not None)):
            corpus.write(
                json.dumps(
                    {"id": rec["id"], "tokens": rec["tokens"], "entropy_trace": rec["entropy_trace"]},
                    ensure_ascii=False,
                )
                + "\n"
            )
            if audit is not None:
                for line in rec["audit"]:
                    audit.write(line + "\n")
            del rec  # else it outlives its write while the next sequence runs


@contextlib.contextmanager
def _metric_domain():
    """Raise a metric's ValueError (valid inputs outside its domain) as MetricError."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise MetricError(str(exc)) from None


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
    if metric not in metrics.METRICS:
        raise ConfigError(f"metric: unknown metric {metric!r}, expected one of {tuple(metrics.METRICS)}")
    if reps < 1:
        raise ConfigError(f"reps: must be >= 1, got {reps}")

    rows: list[SweepRow] = []
    with outputs.replacing(), contextlib.ExitStack() as files:
        fh = _open_named(files, "out", out_path)
        fh.write("param_value,metric_mean,metric_std\n")
        for value in values:
            cfg = copy.deepcopy(base)
            for path in paths:
                set_by_path(cfg, path, value)
            cfg = _checked(cfg)
            # The inputs depend on no seed, so every rep shares them.
            inputs = prepare_run(cfg)
            model = inputs.model
            zipf = cfg["zipf"]
            samples = []
            for r in range(reps):
                run_cfg = dict(cfg, seed=cfg["seed"] + r * cfg["num_sequences"])
                records = run_generation(run_cfg, inputs=inputs)
                corpus = SequenceCorpus(tuple(tuple(rec["token_ids"]) for rec in records), model.vocab)
                scored = metrics.CorpusMetrics(corpus, model.score, zipf["min_rank"], zipf["max_rank"])
                with _metric_domain():
                    samples.append(scored[metric])
            arr = np.asarray(samples, dtype=np.float64)
            row = SweepRow(value=value, mean=float(arr.mean()), std=float(arr.std()))
            rows.append(row)
            fh.write(",".join(map(metrics.csv_cell, (row.value, row.mean, row.std))) + "\n")
    return rows


def _load_corpus_tokens(path, fmt: str) -> list[list[str]]:
    """Token sequences of a corpus or prompt file, one per nonblank line."""
    sequences: list[list[str]] = []
    try:
        fh = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        raise DataError(f"corpus file not found: {path}") from None
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror}") from None
    try:
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
    except UnicodeDecodeError:
        raise DataError(utf8_error(path)) from None
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
    With ``--config``, the configured model's ``score`` scores both corpora,
    which is how generator-vs-independent-model perplexity comparisons are run.
    """
    if fmt not in ("jsonl", "text"):
        raise ConfigError(f"format: must be 'jsonl' or 'text', got {fmt!r}")
    cfg = load_config(config_path) if config_path is not None else None
    with outputs.replacing(), contextlib.ExitStack() as files:
        out = _open_named(files, "out", out_path)
        csv = _open_named(files, "csv", csv_path)
        gen_tokens = _load_corpus_tokens(generated_path, fmt)
        ref_tokens = _load_corpus_tokens(reference_path, fmt) if reference_path is not None else None

        zipf = DEFAULTS["zipf"]
        if cfg is not None:
            model = build_model(cfg)
            vocab = model.vocab
            scorer = model.score
            zipf = cfg["zipf"]
        else:
            seen = sorted({t for seq in gen_tokens for t in seq} | {t for seq in (ref_tokens or []) for t in seq})
            if not seen:  # no token to build the uniform scorer's vocabulary from
                named = ", ".join(str(p) for p in (generated_path, reference_path) if p is not None)
                raise DataError(f"{named}: every sequence is empty")
            vocab = Vocabulary.from_tokens(seen)
            scorer = UniformScorer(len(vocab))

        def to_corpus(seqs, where):
            ids = tuple(_tokens_to_ids(s, vocab, where) for s in seqs)
            return SequenceCorpus(ids, vocab)

        generated = to_corpus(gen_tokens, str(generated_path))
        reference = to_corpus(ref_tokens, str(reference_path)) if ref_tokens is not None else None
        with _metric_domain():
            rep = metrics.report(
                generated, scorer, reference, zipf_min_rank=zipf["min_rank"], zipf_max_rank=zipf["max_rank"]
            )
        for fh, text in ((out, rep.to_json), (csv, rep.to_csv)):
            if fh is not None:
                fh.write(text())
    return rep


def cmd_golden(print_fn=print) -> int:
    """Run the built-in reference checks; exit code 4 on any failure."""
    checks = golden.run_golden_checks()
    for check in checks:
        print_fn(check.line())
    failed = [c for c in checks if not c.passed]
    print_fn(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return 4 if failed else 0

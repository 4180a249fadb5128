"""Config schema: every leaf type-checked at load, bad values exit 2 naming their path.

The fuzz suite swaps one leaf of a small valid config for a value of another
kind and runs the CLI; whatever the value, the command must end in one of
the documented exit codes and never in a traceback. The extremes sweep sets
each numeric leaf of ``SCHEMA`` to valid-typed extremes and its bounds.
"""

import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from decodekit.cli import main
from decodekit.harness import DEFAULTS, SCHEMA, load_config
from decodekit.samplers import SAMPLER_NAMES

ROOT = Path(__file__).resolve().parent.parent


def small_config(tmp_path, sampler="asts") -> dict:
    return {
        "seed": 3,
        "max_tokens": 4,
        "num_sequences": 2,
        "workers": 1,
        "sampler": sampler,
        "model": {"selector": "synthetic:mixed", "synthetic": {"vocab_size": 16, "seed": 1}},
        "asts": {"relevance": "keywords", "keywords": ["tok01"]},
        "embed": {"pooling": "decay"},
        "output": {"corpus": str(tmp_path / "out.jsonl")},
    }


def leaf_paths(cfg: dict, prefix: str = "") -> list[str]:
    paths = []
    for key, value in cfg.items():
        if isinstance(value, dict):
            paths += leaf_paths(value, f"{prefix}{key}.")
        else:
            paths.append(prefix + key)
    return paths


def set_leaf(cfg: dict, path: str, value) -> None:
    *parents, last = path.split(".")
    node = cfg
    for part in parents:
        node = node.setdefault(part, {})
    node[last] = value


def write_config(tmp_path, cfg: dict) -> str:
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def run_generate(tmp_path, cfg: dict, *extra: str) -> int:
    return main(["generate", "--config", write_config(tmp_path, cfg), *extra])


BAD_CONFIGS = [
    ("seed", -1),
    ("seed", True),
    ("asts.window_w", 2.5),
    ("lts.tau_mass", "0.5"),
    ("lts.epsilon", None),
    ("embed.decay", 0),
    ("nucleus.p", True),
    ("mirostat.mu0", True),
]


class TestBadConfigs:
    @pytest.mark.parametrize("path,value", BAD_CONFIGS, ids=[f"{p}={v!r}" for p, v in BAD_CONFIGS])
    def test_exit_two_naming_the_path(self, tmp_path, monkeypatch, capsys, path, value):
        monkeypatch.delenv("DECODE_SEED", raising=False)
        cfg = small_config(tmp_path)
        set_leaf(cfg, path, value)
        assert run_generate(tmp_path, cfg) == 2
        assert f"config error: {path}:" in capsys.readouterr().err
        assert not (tmp_path / "out.jsonl").exists()

    def test_negative_decode_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DECODE_SEED", "-3")
        assert run_generate(tmp_path, small_config(tmp_path)) == 2
        assert "config error: seed:" in capsys.readouterr().err
        assert not (tmp_path / "out.jsonl").exists()

    def test_the_small_config_itself_runs(self, tmp_path, monkeypatch):
        monkeypatch.delenv("DECODE_SEED", raising=False)
        assert run_generate(tmp_path, small_config(tmp_path)) == 0
        assert len((tmp_path / "out.jsonl").read_text(encoding="utf-8").splitlines()) == 2


class TestLeafTypes:
    """Values of another kind that a leaf accepts; rejections are in test_harness."""

    @pytest.mark.parametrize(
        "path,value",
        [
            ("asts.k1", 2),  # a float leaf takes an int
            ("model.synthetic.base_temperature", 0.5),
            ("mirostat.mu0", 4),
            ("zipf.max_rank", 40),
            ("prompt.tokens", ["tok002"]),
            ("asts.keywords", ["tok01", "tok02"]),
        ],
    )
    def test_accepted(self, tmp_path, path, value):
        cfg = small_config(tmp_path)
        set_leaf(cfg, path, value)
        node = load_config(write_config(tmp_path, cfg))
        for part in path.split("."):
            node = node[part]
        assert node == value


# No positive ints: a large ``max_tokens`` or ``num_sequences`` would run for
# as long, and a ``workers``, ``vocab_size`` or ``embed.dim`` within its
# bound would still start or allocate that much; the extremes sweep below
# gives those leaves only values past their bounds.
OTHER_KINDS = st.one_of(
    st.booleans(),
    st.sampled_from(["", "x", "0.5", "synthetic", "keywords"]),
    st.none(),
    st.sampled_from([[], ["tok001"], [1], [None]]),
    st.sampled_from([{}, {"k": 1}]),
    st.integers(min_value=-5, max_value=-1),  # negative int
    st.just(2.5),  # float for int
    st.just(math.nan),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=st.sampled_from(leaf_paths(DEFAULTS)), sampler=st.sampled_from(SAMPLER_NAMES), value=OTHER_KINDS)
def test_fuzz_one_leaf_exits_cleanly(tmp_path, monkeypatch, path, sampler, value):
    monkeypatch.delenv("DECODE_SEED", raising=False)
    monkeypatch.chdir(tmp_path)  # a string leaf may name a relative output path
    cfg = small_config(tmp_path, sampler)
    set_leaf(cfg, path, value)
    assert run_generate(tmp_path, cfg) in {0, 1, 2, 3, 4}


def numeric_leaves(schema: dict, prefix: str = "") -> dict:
    """Dotted path -> ``leaf`` row of every int or float leaf in ``schema``."""
    out = {}
    for key, spec in schema.items():
        if isinstance(spec, dict):
            out.update(numeric_leaves(spec, f"{prefix}{key}."))
        elif spec.metadata["kind"] in (int, float):
            out[prefix + key] = spec
    return out


NUMERIC_LEAVES = numeric_leaves(SCHEMA)
WORK_SIZING = {"max_tokens", "num_sequences", "workers", "model.synthetic.vocab_size", "embed.dim"}
EXTREMES = [0, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1]
EXTREMES += [sign * v for v in (5e-324, 1e-310, 1e-300, 1e300, 1e308) for sign in (1, -1)]


def extreme_values(spec) -> list:
    """``EXTREMES``, then each declared bound of ``spec`` and one step past it on each side."""
    rules = spec.metadata
    values = list(EXTREMES)
    for key in ("lo", "above", "hi"):
        if key in rules:
            bound = rules[key]
            if rules["kind"] is int:
                values += [bound - 1, bound, bound + 1]
            else:
                values += [math.nextafter(bound, -math.inf), bound, math.nextafter(bound, math.inf)]
    return values


def accepts(spec, value) -> bool:
    """Whether ``value`` lies within the bounds ``spec`` declares (its type aside)."""
    rules = spec.metadata
    return (
        ("lo" not in rules or value >= rules["lo"])
        and ("above" not in rules or value > rules["above"])
        and ("hi" not in rules or value <= rules["hi"])
    )


def audit_probabilities_sum_to_one(audit: Path) -> bool:
    """Whether every line of the audit file has finite final probabilities summing to 1 within 1e-9."""
    for line in audit.read_text(encoding="utf-8").splitlines():
        probs = [c["final_probability"] for c in json.loads(line)["candidates"]]
        if not (all(math.isfinite(p) for p in probs) and abs(math.fsum(probs) - 1.0) <= 1e-9):
            return False
    return True


@pytest.mark.parametrize("sampler", SAMPLER_NAMES)
def test_numeric_leaf_extremes_run_or_exit_two(tmp_path, monkeypatch, sampler):
    """Every numeric leaf at valid-typed extremes: exit 0 with finite entropies, or exit 2; never a warning or traceback.

    An ASTS run also writes its audit, and on exit 0 each step's final
    probabilities must be finite and sum to 1. An adjusted weight may read
    Infinity: the audit records the overflow it was clipped from. Work-sizing
    leaves take only values their bounds reject, so nothing large runs.
    """
    monkeypatch.delenv("DECODE_SEED", raising=False)
    out = tmp_path / "out.jsonl"
    audit = tmp_path / "audit.jsonl"
    audit_args = ("--audit", str(audit)) if sampler == "asts" else ()
    failures = []
    for path, spec in NUMERIC_LEAVES.items():
        for value in extreme_values(spec):
            if path in WORK_SIZING and accepts(spec, value):
                continue
            cfg = small_config(tmp_path, sampler)
            set_leaf(cfg, path, value)
            out.unlink(missing_ok=True)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    code = run_generate(tmp_path, cfg, *audit_args)
                except Exception as exc:  # a traceback at the CLI
                    failures.append((path, value, repr(exc)))
                    continue
            if caught:
                failures.append((path, value, str(caught[0].message)))
            elif code == 0:
                traces = [json.loads(line)["entropy_trace"] for line in out.read_text(encoding="utf-8").splitlines()]
                if not all(math.isfinite(h) for trace in traces for h in trace):
                    failures.append((path, value, "non-finite entropy"))
                if audit_args and not audit_probabilities_sum_to_one(audit):
                    failures.append((path, value, "audited final_probability non-finite or not summing to 1"))
            elif code != 2:
                failures.append((path, value, f"exit {code}"))
    assert not failures


def test_readme_configuration_block_is_the_defaults(tmp_path, monkeypatch):
    monkeypatch.delenv("DECODE_SEED", raising=False)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    assert json.loads(block) == load_config(write_config(tmp_path, {}))


def test_readme_library_block_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(block, namespace)
    assert len(namespace["tokens"]) == len(namespace["entropy_trace"]) == 100
    assert len(namespace["nucleus_tokens"]) == 100


_FAILING_THEN_PASSING = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_hypothesis_test_does_not_abort_the_suite(tmp_path):
    # Under the project's warning filters, hypothesis's failure report must
    # not raise inside pytest: the run reports the failure and goes on.
    (tmp_path / "test_two.py").write_text(_FAILING_THEN_PASSING, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "-p", "no:cacheprovider", "-q"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr


def test_benchmark_workload_configs_load(tmp_path, monkeypatch):
    monkeypatch.delenv("DECODE_SEED", raising=False)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from workloads import WORKLOADS

    for name, make in WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        for job in make(1, str(workdir)):
            assert load_config(job.config_path)["output"]["corpus"] == job.corpus_path

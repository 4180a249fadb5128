"""Config schema: every leaf type-checked at load, bad values exit 2 naming their path.

The fuzz suite swaps one leaf of a small valid config for a value of another
kind and runs the CLI; whatever the value, the command must end in one of
the documented exit codes and never in a traceback.
"""

import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from decodekit.cli import main
from decodekit.harness import DEFAULTS, get_by_path, load_config
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


def run_generate(tmp_path, cfg: dict) -> int:
    return main(["generate", "--config", write_config(tmp_path, cfg)])


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
        assert get_by_path(load_config(write_config(tmp_path, cfg)), path) == value


# No positive ints: ``workers`` = 10**5 would fork that many processes, and
# a large ``max_tokens``, ``num_sequences``, ``vocab_size`` or ``embed.dim``
# would run or allocate for as long.
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


def test_benchmark_workload_configs_load(tmp_path, monkeypatch):
    monkeypatch.delenv("DECODE_SEED", raising=False)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from workloads import WORKLOADS

    for name, make in WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        for job in make(1, str(workdir)):
            assert load_config(job.config_path)["output"]["corpus"] == job.corpus_path

"""End-to-end command line checks: argv in, exit code + files out."""

import json
import os
import signal
import stat
import subprocess
import sys
import time

import pytest

import decodekit
from decodekit.cli import main


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def run_config(tmp_path):
    return write_json(
        tmp_path / "run.json",
        {
            "seed": 11,
            "max_tokens": 16,
            "num_sequences": 2,
            "sampler": "asts",
            "model": {"selector": "synthetic:mixed", "synthetic": {"vocab_size": 32}},
            "output": {"corpus": str(tmp_path / "out.jsonl")},
        },
    )


def tiny_temperature_config(tmp_path, workers=1, synthetic=None):
    """A peaked model whose base_temperature lies below the 1e-300 floor, where its scores would overflow."""
    synthetic = {"vocab_size": 16, "base_temperature": 1e-310, **(synthetic or {})}
    return write_json(
        tmp_path / "tiny.json",
        {
            "sampler": "greedy",
            "max_tokens": 4,
            "num_sequences": 2,
            "workers": workers,
            "model": {"selector": "synthetic:peaked", "synthetic": synthetic},
            "output": {"corpus": str(tmp_path / "out.jsonl")},
        },
    )


class TestGenerateCommand:
    def test_success_exit_zero(self, tmp_path, run_config):
        assert main(["generate", "--config", run_config]) == 0
        lines = (tmp_path / "out.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2

    def test_audit_flag(self, tmp_path, run_config):
        audit = tmp_path / "audit.jsonl"
        assert main(["generate", "--config", run_config, "--audit", str(audit)]) == 0
        assert len(audit.read_text(encoding="utf-8").splitlines()) == 2 * 16

    def test_config_error_exit_two(self, tmp_path, capsys):
        bad = write_json(tmp_path / "bad.json", {"sampler": "beam"})
        assert main(["generate", "--config", bad]) == 2
        assert "config error" in capsys.readouterr().err

    def test_data_error_exit_three(self, tmp_path, capsys):
        prompts = tmp_path / "p.jsonl"
        prompts.write_text('{"tokens": ["unknown-token"]}\n', encoding="utf-8")
        cfg = write_json(
            tmp_path / "run.json",
            {
                "sampler": "greedy",
                "prompt": {"file": str(prompts)},
                "model": {"selector": "synthetic:mixed", "synthetic": {"vocab_size": 16}},
                "output": {"corpus": str(tmp_path / "out.jsonl")},
            },
        )
        assert main(["generate", "--config", cfg]) == 3
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("fails_at", ["input", "temp_file"])
    def test_failed_run_removes_the_directories_its_outputs_created(self, tmp_path, capsys, fails_at):
        cfg = write_json(
            tmp_path / "run.json",
            {
                "sampler": "greedy",
                "prompt": {"tokens": ["nope" if fails_at == "input" else "tok001"]},
                "model": {"selector": "synthetic:mixed", "synthetic": {"vocab_size": 16}},
                "output": {"corpus": str(tmp_path / "newdir" / "sub" / "out.jsonl")},
            },
        )
        # The audit's temporary file lies in a directory the corpus created, or
        # has a name too long for the file system in directories of its own.
        audit = tmp_path / "newdir" / "audit.jsonl"
        if fails_at == "temp_file":
            audit = tmp_path / "adir" / "sub" / ("n" * 250)
        code, message = (3, "input error: prompt.tokens: ") if fails_at == "input" else (2, "config error: audit: ")
        assert main(["generate", "--config", cfg, "--audit", str(audit)]) == code
        assert capsys.readouterr().err.startswith(message)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    def test_non_string_prompt_token_exit_three(self, tmp_path, capsys):
        prompts = tmp_path / "p.jsonl"
        prompts.write_text('{"tokens": [["tok001"]]}\n', encoding="utf-8")
        cfg = write_json(
            tmp_path / "run.json",
            {
                "sampler": "greedy",
                "prompt": {"file": str(prompts)},
                "model": {"selector": "synthetic:mixed", "synthetic": {"vocab_size": 16}},
                "output": {"corpus": str(tmp_path / "out.jsonl")},
            },
        )
        assert main(["generate", "--config", cfg]) == 3
        assert "tokens must all be strings" in capsys.readouterr().err
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_malformed_embedding_table_exit_three(self, tmp_path, capsys, workers):
        table = tmp_path / "embeddings.txt"
        table.write_text("2 three\ntok000 0.1 0.2 0.3\n", encoding="utf-8")
        cfg = write_json(
            tmp_path / "run.json",
            {
                "sampler": "asts",
                "num_sequences": 2,
                "workers": workers,
                "embed": {"table": str(table), "dim": 3},
                "model": {"selector": "synthetic:mixed", "synthetic": {"vocab_size": 16}},
                "output": {"corpus": str(tmp_path / "out.jsonl")},
            },
        )
        assert main(["generate", "--config", cfg]) == 3
        assert "header fields must be integers" in capsys.readouterr().err
        assert not (tmp_path / "out.jsonl").exists()

    def test_embedding_table_missing_a_vocabulary_token_exit_three(self, tmp_path, capsys):
        # The header count is right, but tok005's row belongs to a token outside the vocabulary.
        tokens = [f"tok{i:03d}" for i in range(16)]
        tokens[5] = "foreign"
        table = tmp_path / "embeddings.txt"
        table.write_text("16 3\n" + "".join(f"{t} 0.1 0.2 0.3\n" for t in tokens), encoding="utf-8")
        cfg = write_json(
            tmp_path / "run.json",
            {
                "sampler": "asts",
                "embed": {"table": str(table), "dim": 3},
                "model": {"selector": "synthetic:mixed", "synthetic": {"vocab_size": 16}},
                "output": {"corpus": str(tmp_path / "out.jsonl")},
            },
        )
        assert main(["generate", "--config", cfg]) == 3
        assert capsys.readouterr().err == (
            f"input error: embed.table: {table}: 1 vocabulary tokens lack embeddings (first missing: 'tok005')\n"
        )
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_overflowing_base_temperature_exit_two(self, tmp_path, capsys, workers):
        assert main(["generate", "--config", tiny_temperature_config(tmp_path, workers)]) == 2
        assert "config error: model.synthetic.base_temperature" in capsys.readouterr().err
        assert not (tmp_path / "out.jsonl").exists()

    def test_replay_row_that_overflows_exit_three(self, tmp_path, capsys):
        # Each entry is finite, but the row total is inf.
        replay = write_json(tmp_path / "dist.json", {"tokens": ["a", "b", "c"], "steps": [[1e308, 1e308, 1.0]]})
        cfg = write_json(
            tmp_path / "run.json",
            {
                "sampler": "greedy",
                "model": {"selector": f"file:{replay}"},
                "output": {"corpus": str(tmp_path / "out.jsonl")},
            },
        )
        assert main(["generate", "--config", cfg]) == 3
        assert "step 0: probabilities must be nonnegative with a positive, finite sum" in capsys.readouterr().err
        assert not (tmp_path / "out.jsonl").exists()


class TestMetricsCommand:
    def test_generate_then_metrics(self, tmp_path, run_config):
        assert main(["generate", "--config", run_config]) == 0
        report = tmp_path / "report.json"
        code = main(
            [
                "metrics",
                "--generated", str(tmp_path / "out.jsonl"),
                "--reference", str(tmp_path / "out.jsonl"),
                "--out", str(report),
                "--csv", str(tmp_path / "report.csv"),
            ]
        )
        assert code == 0
        doc = json.loads(report.read_text(encoding="utf-8"))
        assert doc["ppl_delta"] == 0.0
        assert (tmp_path / "report.csv").exists()

    def test_overflowing_base_temperature_exit_two(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"tokens": ["tok001", "tok002", "tok003"]}\n', encoding="utf-8")
        report = tmp_path / "r.json"
        cfg = tiny_temperature_config(tmp_path)
        code = main(["metrics", "--generated", str(corpus), "--out", str(report), "--config", cfg])
        assert code == 2
        assert "config error: model.synthetic.base_temperature" in capsys.readouterr().err
        assert not report.exists()

    def test_metric_error_exit_one(self, tmp_path, capsys):
        corpus = tmp_path / "tiny.jsonl"
        corpus.write_text('{"tokens": ["a", "b"]}\n', encoding="utf-8")
        code = main(["metrics", "--generated", str(corpus), "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "metric error" in capsys.readouterr().err

    def test_malformed_corpus_exit_three(self, tmp_path, capsys):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text("not json at all\n", encoding="utf-8")
        code = main(["metrics", "--generated", str(corpus), "--out", str(tmp_path / "r.json")])
        assert code == 3
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("with_reference", [False, True])
    def test_every_sequence_empty_exit_three(self, tmp_path, capsys, with_reference):
        corpus = tmp_path / "empty.jsonl"
        corpus.write_text('{"tokens": []}\n', encoding="utf-8")
        args = ["metrics", "--generated", str(corpus), "--out", str(tmp_path / "r.json")]
        named = str(corpus)
        if with_reference:
            args += ["--reference", str(corpus)]
            named += f", {corpus}"
        assert main(args) == 3
        assert capsys.readouterr().err == f"input error: {named}: every sequence is empty\n"
        assert not (tmp_path / "r.json").exists()

    def test_text_format_flag(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a b a b a b c d\n", encoding="utf-8")
        code = main(
            [
                "metrics",
                "--generated", str(corpus),
                "--out", str(tmp_path / "r.json"),
                "--format", "text",
            ]
        )
        assert code == 0


class TestSweepCommand:
    def test_sweep_roundtrip(self, tmp_path, run_config):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--config", run_config,
                "--param", "asts.mu3",
                "--values", "0.0,0.5",
                "--metric", "rep16",
                "--reps", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "param_value,metric_mean,metric_std"
        assert len(lines) == 3

    def test_unparseable_value_exit_two(self, tmp_path, run_config, capsys):
        code = main(
            [
                "sweep",
                "--config", run_config,
                "--param", "asts.mu3",
                "--values", "0.0,high",
                "--metric", "rep16",
                "--out", str(tmp_path / "s.csv"),
            ]
        )
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_values_keep_integer_formatting(self, tmp_path, run_config):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--config", run_config,
                "--param", "topk.k",
                "--values", "2,8",
                "--metric", "diversity",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[1].startswith("2,")
        assert lines[2].startswith("8,")


class TestGoldenCommand:
    def test_exit_zero_and_line_format(self, capsys):
        assert main(["golden"]) == 0
        out = capsys.readouterr().out
        passes = [line for line in out.splitlines() if line.startswith("PASS")]
        assert len(passes) == 20


def cli_command(*args) -> dict:
    """Popen arguments for ``python -m decodekit.cli *args`` run from this source tree."""
    src = os.path.dirname(os.path.dirname(decodekit.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return {"args": [sys.executable, "-m", "decodekit.cli", *args], "env": env}


def run_cli(*args) -> subprocess.CompletedProcess:
    """``python -m decodekit.cli *args`` in a fresh interpreter, so stderr shows numpy's warnings."""
    return subprocess.run(**cli_command(*args), capture_output=True, text=True, timeout=120)


def test_sigterm_discards_the_outputs(tmp_path):
    """SIGTERM exits 143 and removes the corpus's temporary file and the directory made for it."""
    fifo = tmp_path / "audit.fifo"
    os.mkfifo(fifo)  # with no reader, opening the audit blocks once the corpus is open
    cfg = write_json(
        tmp_path / "run.json",
        {
            "sampler": "asts",
            "max_tokens": 4,
            "model": {"selector": "synthetic:mixed", "synthetic": {"vocab_size": 32}},
            "output": {"corpus": str(tmp_path / "newdir" / "out.jsonl")},
        },
    )
    with subprocess.Popen(**cli_command("generate", "--config", cfg, "--audit", str(fifo))) as proc:
        try:
            deadline = time.monotonic() + 60
            while not list(tmp_path.glob("newdir/out.jsonl.*.tmp")):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 128 + signal.SIGTERM
        finally:
            proc.kill()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["audit.fifo", "run.json"]


# model.synthetic entries below the base_temperature floor. Without it the
# first would overflow the top score at the first step, and the second the
# lowest score (a harmless weight of 0) in steps before the top.
@pytest.mark.parametrize(
    "synthetic", [{"base_temperature": 1e-310}, {"seed": 1, "base_temperature": 1e-308}], ids=["top", "low"]
)
@pytest.mark.parametrize("command", ["generate", "metrics"])
def test_overflowing_base_temperature_prints_no_warning(tmp_path, command, synthetic):
    """The config error is the only line on stderr: the run stops at load, before any step."""
    cfg = tiny_temperature_config(tmp_path, synthetic=synthetic)
    args = ["generate", "--config", cfg]
    if command == "metrics":
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"tokens": ["tok001", "tok002", "tok003"]}\n', encoding="utf-8")
        args = ["metrics", "--generated", str(corpus), "--out", str(tmp_path / "r.json"), "--config", cfg]
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: model.synthetic.base_temperature")
    assert "RuntimeWarning" not in proc.stderr


def test_overflowing_asts_weight_prints_no_warning(tmp_path):
    # eps_div 1e-300 makes an unseen token's adjusted weight overflow to
    # Infinity; the run succeeds and audits it, with nothing on stderr.
    cfg = write_json(
        tmp_path / "run.json",
        {
            "sampler": "asts",
            "model": {"selector": "synthetic:mixed", "synthetic": {"vocab_size": 32}},
            "asts": {"eps_div": 1e-300},
            "output": {"corpus": str(tmp_path / "out.jsonl")},
        },
    )
    proc = run_cli("generate", "--config", cfg, "--audit", str(tmp_path / "audit.jsonl"))
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert '"adjusted_weight": Infinity' in (tmp_path / "audit.jsonl").read_text(encoding="utf-8")


@pytest.mark.parametrize("field", ["temperature", "eps_div"])
def test_subnormal_asts_field_is_a_config_error(tmp_path, field):
    """Below their bounds these fields would give NaN or infinite ASTS weights; the run stops at the config."""
    cfg = write_json(
        tmp_path / "run.json",
        {
            "sampler": "asts",
            "max_tokens": 12,
            "model": {"selector": "synthetic:mixed", "synthetic": {"vocab_size": 32}},
            "asts": {field: 1e-310},
            "output": {"corpus": str(tmp_path / "out.jsonl")},
        },
    )
    proc = run_cli("generate", "--config", cfg, "--audit", str(tmp_path / "audit.jsonl"))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"config error: asts.{field}")
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


# (sampler, section overrides, field the error names): valid-typed extremes
# past their bounds: scales past the ceiling that keeps every step finite,
# ints beyond the signed 64 bits numpy and deque take, or sizes past the
# bounds that keep a synthetic embedding table within 1 GiB.
CONFIG_EXTREMES = [
    ("asts", {"asts": {"lambda3": 1e308, "eps_div": 0.5}}, "asts.lambda3"),
    ("mirostat", {"mirostat": {"eta": 1e308}}, "mirostat.eta"),
    ("mirostat", {"mirostat": {"tau": 1e308}}, "mirostat.tau"),
    ("asts", {"asts": {"window_w": 10**30}}, "asts.window_w"),
    ("topk", {"topk": {"k": 10**30}}, "topk.k"),
    ("asts", {"embed": {"dim": 2**62}}, "embed.dim"),
    ("greedy", {"model": {"synthetic": {"vocab_size": 2**62}}}, "model.synthetic.vocab_size"),
    ("greedy", {"model": {"synthetic": {"vocab_size": 2**40}}}, "model.synthetic.vocab_size"),
]


@pytest.mark.parametrize("sampler,sections,field", CONFIG_EXTREMES, ids=[c[2] for c in CONFIG_EXTREMES])
def test_config_extreme_is_a_config_error(tmp_path, sampler, sections, field):
    cfg = write_json(
        tmp_path / "run.json",
        {
            "sampler": sampler,
            "max_tokens": 12,
            "model": {"selector": "synthetic:mixed", "synthetic": {"vocab_size": 32}},
            "output": {"corpus": str(tmp_path / "out.jsonl")},
            **sections,
        },
    )
    proc = run_cli("generate", "--config", cfg)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"config error: {field}: ")
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert not (tmp_path / "out.jsonl").exists()


# (replay file, what the input error names)
BROKEN_REPLAYS = {
    "string_row": ({"tokens": ["a", "b"], "steps": [[0.5, 0.5], ["0.5", "0.5"]]}, "step 1: "),
    "bool_row": ({"tokens": ["a", "b"], "steps": [[True, False]]}, "step 0: "),
    "nested_row": ({"tokens": ["a", "b"], "steps": [[[0.5], [0.5]]]}, "step 0: "),
    "repeated_token": ({"tokens": ["a", "b", "a"], "steps": [[0.2, 0.3, 0.5]]}, "'a' repeats"),
}


@pytest.mark.parametrize("name", sorted(BROKEN_REPLAYS))
def test_broken_replay_file_is_an_input_error(tmp_path, name):
    doc, named = BROKEN_REPLAYS[name]
    replay = write_json(tmp_path / "dist.json", doc)
    cfg = write_json(
        tmp_path / "run.json",
        {
            "sampler": "greedy",
            "max_tokens": 4,
            "model": {"selector": f"file:{replay}"},
            "output": {"corpus": str(tmp_path / "out.jsonl")},
        },
    )
    proc = run_cli("generate", "--config", cfg)
    assert proc.returncode == 3
    assert proc.stderr.startswith(f"input error: {replay}: ")
    assert named in proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert not (tmp_path / "out.jsonl").exists()


# Every path a command reads or writes, as (command, flag or config leaf, exit
# code). A config or output path that cannot be opened is a config error, an
# input file an input error; the config checks catch the input leaves first.
PATH_CASES = [
    ("generate", "--config", 2),
    ("generate", "--audit", 2),
    ("generate", "output.corpus", 2),
    ("generate", "prompt.file", 2),
    ("generate", "model.selector", 2),
    ("generate", "embed.table", 2),
    ("metrics", "--generated", 3),
    ("metrics", "--reference", 3),
    ("metrics", "--out", 2),
    ("metrics", "--csv", 2),
    ("metrics", "--config", 2),
    ("sweep", "--config", 2),
    ("sweep", "--out", 2),
]

BAD_PATHS = {"directory": "adir", "parent_is_file": os.path.join("afile", "x"), "empty": None}
# Existing writable files beside which no temporary file can be made: only an
# output is bad this way. Root writes into a read-only directory regardless.
NO_TEMP_FILE = {"name_too_long_for_temp": "n" * 250, "read_only_directory": os.path.join("rodir", "x")}
OUTPUT_FLAGS = {"--audit", "output.corpus", "--out", "--csv"}
# The output a second output flag would also replace, spelled another way
# ("<dir>/./<name>"): the rename of one would lose the other.
SAME_FILE_AS = {"--audit": os.path.join(".", "out.jsonl"), "--csv": os.path.join(".", "report.json")}
BAD_PATH_CASES = [
    pytest.param(
        command, where, code, kind, id=f"{command}{where}-{kind}",
        marks=pytest.mark.skipif(kind == "read_only_directory" and os.geteuid() == 0, reason="root ignores modes"),
    )
    for command, where, code in PATH_CASES
    for kind in sorted(BAD_PATHS)
    + (sorted(NO_TEMP_FILE) if where in OUTPUT_FLAGS else [])
    + (["same_file_as_other_output"] if where in SAME_FILE_AS else [])
]


def _tree(root) -> dict:
    """Every file under ``root`` with its bytes, and every directory (as None)."""
    return {p: p.read_bytes() if p.is_file() else None for p in sorted(root.rglob("*"))}


@pytest.mark.parametrize("command,where,code,kind", BAD_PATH_CASES)
def test_bad_path_exits_before_any_output(tmp_path, capsys, command, where, code, kind):
    name = SAME_FILE_AS[where] if kind == "same_file_as_other_output" else {**BAD_PATHS, **NO_TEMP_FILE}[kind]
    bad = os.path.join(tmp_path, name) if name else ""
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("a file, not a directory\n", encoding="utf-8")
    if kind in NO_TEMP_FILE:
        os.makedirs(os.path.dirname(bad), exist_ok=True)
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write("an earlier output\n")
    corpus = tmp_path / "out.jsonl"
    corpus.write_text("an earlier run's corpus\n", encoding="utf-8")  # must not be truncated
    generated = tmp_path / "generated.jsonl"
    generated.write_text(json.dumps({"tokens": ["tok001", "tok002", "tok001"]}) + "\n", encoding="utf-8")
    cfg = {
        "max_tokens": 4,
        "sampler": "asts",
        "model": {"selector": "synthetic:mixed", "synthetic": {"vocab_size": 32}},
        "asts": {"alignment": "zero"},
        "output": {"corpus": str(corpus)},
    }
    if "." in where:  # a config leaf
        section, leaf = where.split(".")
        value = f"file:{bad}" if where == "model.selector" else bad
        cfg[section] = {**cfg.get(section, {}), leaf: value}
        if where == "embed.table":
            cfg["asts"]["alignment"] = "embedding"
    config = write_json(tmp_path / "run.json", cfg)
    flags = {
        "generate": {"--config": config},
        "metrics": {"--generated": str(generated), "--out": str(tmp_path / "report.json")},
        "sweep": {"--config": config, "--param": "asts.mu3", "--values": "0.0,0.5", "--metric": "rep16",
                  "--out": str(tmp_path / "sweep.csv")},
    }[command]
    if where.startswith("--"):
        flags[where] = bad
    before = _tree(tmp_path)

    if kind == "read_only_directory":
        os.chmod(os.path.dirname(bad), 0o555)
    try:
        assert main([command, *[arg for pair in flags.items() for arg in pair]]) == code
    finally:
        if kind == "read_only_directory":
            os.chmod(os.path.dirname(bad), 0o755)
    err = capsys.readouterr().err
    assert err.startswith("config error: " if code == 2 else "input error: ")
    assert err.count("\n") == 1
    if bad:
        assert bad in err
    if kind == "directory":
        assert "not found" not in err
    if kind == "same_file_as_other_output":
        assert err.startswith(f"config error: {where.lstrip('-')}: ")
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("command", ["generate", "metrics"])
def test_outputs_written_in_place_may_share_a_path(tmp_path, command):
    generated = tmp_path / "generated.jsonl"
    generated.write_text(json.dumps({"tokens": ["tok001", "tok002", "tok001", "tok003"]}) + "\n", encoding="utf-8")
    cfg = {
        "max_tokens": 4,
        "sampler": "asts",
        "model": {"selector": "synthetic:mixed", "synthetic": {"vocab_size": 32}},
        "asts": {"alignment": "zero"},
        "output": {"corpus": os.devnull},
    }
    args = {
        "generate": ["--config", write_json(tmp_path / "run.json", cfg), "--audit", os.devnull],
        "metrics": ["--generated", str(generated), "--out", os.devnull, "--csv", os.devnull],
    }[command]
    assert main([command, *args]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

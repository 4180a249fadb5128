"""Run driver: config validation, generation runs, sweeps, metric reports."""

import errno
import importlib
import json
import os
import stat
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from decodekit.asts import CandidateScore, ScoreBreakdown
from decodekit.core import TokenDistribution, default_vocabulary
from decodekit.cli import main
from decodekit.embed import load_table, save_table, synthetic_table
from decodekit.harness import (
    ConfigError,
    DataError,
    MetricError,
    build_model,
    cmd_generate,
    cmd_golden,
    cmd_metrics,
    cmd_sweep,
    load_config,
    prepare_run,
    run_generation,
    run_sequence,
    set_by_path,
)


BENCH = Path(__file__).resolve().parent.parent / "bench"


def write_config(tmp_path, overrides, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(overrides), encoding="utf-8")
    return path


def base_overrides(tmp_path, **extra):
    cfg = {
        "seed": 5,
        "max_tokens": 10,
        "num_sequences": 3,
        "sampler": "lts",
        "model": {"selector": "synthetic:mixed", "synthetic": {"vocab_size": 32, "seed": 1}},
        "output": {"corpus": str(tmp_path / "out.jsonl")},
    }
    cfg.update(extra)
    return cfg


def read_corpus(path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def record_pools(monkeypatch) -> list:
    """Stand in for the process pool: record each pool's size and run its jobs here, in order."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("decodekit.harness._worker_run", ())  # restored after the test
    monkeypatch.setattr("decodekit.harness.ProcessPoolExecutor", RecordingPool)
    return sizes


class TestConfigLoading:
    def test_defaults_fill_unset_keys(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {}))
        assert cfg["sampler"] == "lts"
        assert cfg["max_tokens"] == 64
        assert cfg["lts"]["tau_mass"] == 0.95
        assert cfg["model"]["synthetic"]["vocab_size"] == 256

    def test_nested_override_preserves_siblings(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"lts": {"tau_mass": 0.5}}))
        assert cfg["lts"]["tau_mass"] == 0.5
        assert cfg["lts"]["mode"] == "mass"  # sibling default intact

    def test_unknown_key_rejected_with_path(self, tmp_path):
        with pytest.raises(ConfigError, match="lts.tau_mas"):
            load_config(write_config(tmp_path, {"lts": {"tau_mas": 0.5}}))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_config_not_utf8_names_the_line(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"seed": 5,\n "output": {"corpus": "caf\xe9.jsonl"}}\n')
        with pytest.raises(ConfigError, match="line 2: not UTF-8 text"):
            load_config(path)

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(path)

    def test_decode_seed_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DECODE_SEED", "777")
        cfg = load_config(write_config(tmp_path, {"seed": 5}))
        assert cfg["seed"] == 777

    def test_decode_seed_must_be_integer(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DECODE_SEED", "soon")
        with pytest.raises(ConfigError, match="DECODE_SEED"):
            load_config(write_config(tmp_path, {}))

    def test_path_access_helpers(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {}))
        assert cfg["asts"]["mu3"] == 0.2
        set_by_path(cfg, "asts.mu3", 0.7)
        assert cfg["asts"]["mu3"] == 0.7
        with pytest.raises(ConfigError, match="no such config key"):
            set_by_path(cfg, "asts.mu9", 1)
        with pytest.raises(ConfigError, match="no such config key"):
            set_by_path(cfg, "nothing.here", 1)


class TestValidation:
    @pytest.mark.parametrize(
        "overrides,needle",
        [
            ({"sampler": "beam"}, "sampler"),
            ({"max_tokens": 0}, "max_tokens"),
            ({"num_sequences": 0}, "num_sequences"),
            ({"workers": 0}, "workers"),
            ({"nucleus": {"p": 1.5}}, "nucleus.p"),
            ({"topk": {"k": 0}}, "topk.k"),
            ({"model": {"selector": "magic:stuff"}}, "model.selector"),
            ({"model": {"selector": "synthetic:chaotic"}}, "model.selector"),
            ({"asts": {"lambda1": -1}}, "asts.lambda1"),
            ({"asts": {"adjust_form": "other"}}, "asts.adjust_form"),
            ({"asts": {"alignment": "oracle"}}, "asts.alignment"),
            ({"asts": {"relevance": "keywords"}}, "asts.keywords"),
            ({"lts": {"mode": "bands"}}, "mode"),
            ({"embed": {"pooling": "max"}}, "embed.pooling"),
            ({"zipf": {"min_rank": 0}}, "zipf.min_rank"),
            ({"zipf": {"min_rank": 5, "max_rank": 2}}, "zipf.max_rank"),
            ({"prompt": {"tokens": ["a"], "file": "x"}}, "prompt"),
            ({"mirostat": {"eta": -0.5}}, "mirostat.eta"),
            ({"max_tokens": 4.0}, "max_tokens: must be an integer"),
            ({"topk": {"k": False}}, "topk.k: must be an integer"),
            ({"asts": {"k1": float("inf")}}, "asts.k1: must be a finite number"),
            ({"asts": {"k1": 10**400}}, "asts.k1: must be a finite number"),
            ({"mirostat": {"tau": None}}, "mirostat.tau: must be a finite number"),
            ({"asts": {"keywords": "tok01"}}, "asts.keywords: must be a list of strings"),
            ({"asts": {"keywords": [1]}}, "asts.keywords: must be a list of strings"),
            ({"prompt": {"tokens": [["tok001"]]}}, "prompt.tokens: must be a list of strings or null"),
            ({"model": {"selector": None}}, "model.selector: must be a string"),
            ({"zipf": {"max_rank": 4.5}}, "zipf.max_rank: must be an integer or null"),
            ({"lts": None}, "lts: must be an object"),
            ({"model": []}, "model: must be an object"),
            ({"asts": "keywords"}, "asts: must be an object"),
        ],
    )
    def test_bad_fields_name_their_path(self, tmp_path, overrides, needle):
        with pytest.raises(ConfigError, match=needle):
            load_config(write_config(tmp_path, overrides))

    def test_missing_embedding_table_only_matters_for_asts(self, tmp_path):
        # lts ignores embed.table entirely
        ok = base_overrides(tmp_path, embed={"table": str(tmp_path / "none.txt")})
        load_config(write_config(tmp_path, ok, name="a.json"))
        bad = base_overrides(tmp_path, sampler="asts", embed={"table": str(tmp_path / "none.txt")})
        with pytest.raises(ConfigError, match="embed.table"):
            load_config(write_config(tmp_path, bad, name="b.json"))


class TestGenerate:
    def test_line_and_token_counts(self, tmp_path):
        cfg_path = write_config(tmp_path, base_overrides(tmp_path))
        cmd_generate(cfg_path)
        lines = (tmp_path / "out.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        for i, line in enumerate(lines):
            obj = json.loads(line)
            assert obj["id"] == i
            assert len(obj["tokens"]) == 10
            assert len(obj["entropy_trace"]) == 10

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = write_config(tmp_path, base_overrides(tmp_path))
        cmd_generate(cfg_path)
        first = (tmp_path / "out.jsonl").read_bytes()
        cmd_generate(cfg_path)
        assert (tmp_path / "out.jsonl").read_bytes() == first

    def test_parallel_equals_serial(self, tmp_path):
        serial = base_overrides(tmp_path, num_sequences=4, workers=1)
        cmd_generate(write_config(tmp_path, serial, name="serial.json"))
        serial_bytes = (tmp_path / "out.jsonl").read_bytes()
        parallel = base_overrides(tmp_path, num_sequences=4, workers=3)
        cmd_generate(write_config(tmp_path, parallel, name="parallel.json"))
        assert (tmp_path / "out.jsonl").read_bytes() == serial_bytes

    def test_pool_has_no_more_workers_than_sequences(self, tmp_path, monkeypatch):
        pools = record_pools(monkeypatch)
        serial = run_generation(load_config(write_config(tmp_path, base_overrides(tmp_path, num_sequences=2))))
        cfg = load_config(write_config(tmp_path, base_overrides(tmp_path, num_sequences=2, workers=8)))
        assert run_generation(cfg) == serial
        assert pools == [2]
        run_generation({**cfg, "num_sequences": 1})
        assert pools == [2]  # one sequence runs serially, with no pool

    def test_too_many_workers_exit_two_before_any_pool(self, tmp_path, monkeypatch, capsys):
        pools = record_pools(monkeypatch)
        cfg = write_config(tmp_path, base_overrides(tmp_path, workers=10**6))
        assert main(["generate", "--config", str(cfg)]) == 2
        assert "config error: workers: must be <= 256" in capsys.readouterr().err
        assert pools == []

    def test_missing_embedding_table_fails_before_generation(self, tmp_path):
        overrides = base_overrides(
            tmp_path, sampler="asts", embed={"table": str(tmp_path / "missing.txt")}
        )
        with pytest.raises(ConfigError, match="embed.table"):
            cmd_generate(write_config(tmp_path, overrides))
        assert not (tmp_path / "out.jsonl").exists()

    def test_asts_audit_log(self, tmp_path):
        overrides = base_overrides(tmp_path, sampler="asts", num_sequences=2)
        audit_path = tmp_path / "audit.jsonl"
        cmd_generate(write_config(tmp_path, overrides), audit_path=audit_path)
        lines = audit_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2 * 10  # one record per sequence per step
        first = json.loads(lines[0])
        assert first["sequence"] == 0 and first["step"] == 0
        assert {"entropy", "alpha", "beta", "candidates", "chosen_id"} <= set(first)
        corpus = read_corpus(tmp_path / "out.jsonl")
        index = default_vocabulary(32).index
        for line in map(json.loads, lines):
            assert line["chosen_id"] == index[corpus[line["sequence"]]["tokens"][line["step"]]]

    def test_non_asts_audit_is_empty(self, tmp_path):
        audit_path = tmp_path / "audit.jsonl"
        cmd_generate(write_config(tmp_path, base_overrides(tmp_path)), audit_path=audit_path)
        assert audit_path.read_text(encoding="utf-8") == ""

    def test_missing_output_key_rejected(self, tmp_path):
        overrides = base_overrides(tmp_path)
        del overrides["output"]
        with pytest.raises(ConfigError, match="output.corpus"):
            cmd_generate(write_config(tmp_path, overrides))

    def test_inline_prompt_steers_generation(self, tmp_path):
        a = base_overrides(tmp_path, prompt={"tokens": ["tok001", "tok002"]})
        cmd_generate(write_config(tmp_path, a, name="a.json"))
        with_prompt = (tmp_path / "out.jsonl").read_bytes()
        b = base_overrides(tmp_path)
        cmd_generate(write_config(tmp_path, b, name="b.json"))
        assert (tmp_path / "out.jsonl").read_bytes() != with_prompt

    def test_prompt_file_equivalent_to_inline(self, tmp_path):
        prompts = tmp_path / "prompts.jsonl"
        prompts.write_text('{"tokens": ["tok003"]}\n', encoding="utf-8")
        a = base_overrides(tmp_path, num_sequences=1, prompt={"file": str(prompts)})
        cmd_generate(write_config(tmp_path, a, name="a.json"))
        from_file = (tmp_path / "out.jsonl").read_bytes()
        b = base_overrides(tmp_path, num_sequences=1, prompt={"tokens": ["tok003"]})
        cmd_generate(write_config(tmp_path, b, name="b.json"))
        assert (tmp_path / "out.jsonl").read_bytes() == from_file

    def test_unknown_prompt_token(self, tmp_path):
        overrides = base_overrides(tmp_path, prompt={"tokens": ["nope"]})
        with pytest.raises(DataError, match="nope"):
            cmd_generate(write_config(tmp_path, overrides))

    def test_unknown_prompt_file_token_names_the_prompt(self, tmp_path):
        prompts = tmp_path / "prompts.jsonl"
        prompts.write_text('{"tokens": ["tok003"]}\n{"tokens": ["tok001", "nope"]}\n', encoding="utf-8")
        overrides = base_overrides(tmp_path, prompt={"file": str(prompts)})
        with pytest.raises(DataError, match="prompt 2: token 'nope' not in the model vocabulary"):
            cmd_generate(write_config(tmp_path, overrides))

    def test_sequence_seed_offset_invariant(self, tmp_path):
        # Sequence i of a run equals sequence 0 of a run with seed + i.
        cfg = load_config(write_config(tmp_path, base_overrides(tmp_path)))
        third = run_sequence(cfg, 2)
        shifted = dict(cfg, seed=cfg["seed"] + 2)
        assert run_sequence(shifted, 0)["tokens"] == third["tokens"]

    def test_run_generation_orders_by_id(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_overrides(tmp_path)))
        records = run_generation(cfg)
        assert [r["id"] for r in records] == [0, 1, 2]


def asts_embedding_overrides(tmp_path, **extra):
    """An ASTS run with file-table alignment and keyword relevance."""
    vocab = default_vocabulary(32)
    save_table(tmp_path / "emb.txt", synthetic_table(vocab, dim=6, seed=4))
    return base_overrides(
        tmp_path,
        sampler="asts",
        num_sequences=4,
        asts={"alignment": "embedding", "relevance": "keywords", "keywords": ["tok01", "2"], "k1": 0.8, "k2": 0.8},
        embed={"table": str(tmp_path / "emb.txt"), "dim": 6, "pooling": "decay"},
        **extra,
    )


class TestRunInputs:
    def test_no_audit_records_without_an_audit_path(self, tmp_path, monkeypatch):
        built = []
        for cls, name in ((CandidateScore, "__init__"), (ScoreBreakdown, "to_json_line")):
            original = cls.__dict__[name]

            def counting(*args, _original=original, _name=name, **kwargs):
                built.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(cls, name, counting)
        assert cmd_generate(write_config(tmp_path, asts_embedding_overrides(tmp_path))) is None
        assert built == []
        cmd_generate(write_config(tmp_path, asts_embedding_overrides(tmp_path)), tmp_path / "audit.jsonl")
        assert built.count("to_json_line") == 4 * 10
        assert "__init__" not in built  # the audit is written from columns

    def test_breakdowns_built_only_for_an_audit(self, tmp_path, monkeypatch):
        built = []
        original = ScoreBreakdown.__dict__["__init__"]

        def counting(*args, **kwargs):
            built.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(ScoreBreakdown, "__init__", counting)
        config = write_config(tmp_path, asts_embedding_overrides(tmp_path))
        cmd_generate(config)
        plain = (tmp_path / "out.jsonl").read_bytes()
        assert built == []
        cmd_generate(config, tmp_path / "audit.jsonl")
        assert len(built) == 4 * 10  # one per step
        assert (tmp_path / "out.jsonl").read_bytes() == plain

    def test_embedding_table_built_once_per_run(self, tmp_path, monkeypatch):
        calls = []

        def counting(path):
            calls.append(path)
            return load_table(path)

        monkeypatch.setattr("decodekit.harness.load_table", counting)
        cmd_generate(write_config(tmp_path, asts_embedding_overrides(tmp_path)), tmp_path / "audit.jsonl")
        assert len(calls) == 1

    def test_workers_leave_corpus_and_audit_bytes_unchanged(self, tmp_path):
        outputs = []
        for workers in (1, 2):
            cfg = write_config(tmp_path, asts_embedding_overrides(tmp_path, workers=workers))
            cmd_generate(cfg, tmp_path / "audit.jsonl")
            outputs.append(((tmp_path / "out.jsonl").read_bytes(), (tmp_path / "audit.jsonl").read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][1].count(b"\n") == 4 * 10

    def test_run_sequence_with_prepared_inputs_matches_standalone(self, tmp_path):
        cfg = load_config(write_config(tmp_path, asts_embedding_overrides(tmp_path)))
        inputs = prepare_run(cfg, audit=True)
        for index in range(3):
            shared = run_sequence(cfg, index, inputs)
            assert shared["tokens"] == run_sequence(cfg, index)["tokens"]
            assert len(shared["audit"]) == 10


def temp_files(directory) -> list:
    """The ``*.tmp`` files an unfinished output leaves in ``directory``."""
    return sorted(p.name for p in directory.glob("*.tmp"))


def enospc(*args, **kwargs):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestStreamedOutputs:
    def test_audit_is_on_disk_before_the_next_sequence_starts(self, tmp_path, monkeypatch):
        seen = []

        def watching(cfg, index, inputs=None):
            (tmp,) = tmp_path.glob("audit.jsonl.*.tmp")
            text = tmp.read_text(encoding="utf-8")
            assert text == "" or text.endswith("\n")
            seen.append((index, text.count("\n")))
            return run_sequence(cfg, index, inputs)

        monkeypatch.setattr("decodekit.harness.run_sequence", watching)
        config = write_config(tmp_path, asts_embedding_overrides(tmp_path))
        cmd_generate(config, tmp_path / "audit.jsonl")
        assert seen == [(i, 10 * i) for i in range(4)]
        corpus = read_corpus(tmp_path / "out.jsonl")
        assert len(corpus) == 4 and all(len(r["tokens"]) == 10 for r in corpus)
        assert (tmp_path / "audit.jsonl").read_text(encoding="utf-8").count("\n") == 4 * 10
        assert temp_files(tmp_path) == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_failing_part_way_leaves_earlier_outputs(self, tmp_path, monkeypatch, capsys, workers):
        config = write_config(tmp_path, asts_embedding_overrides(tmp_path, workers=workers))
        audit = tmp_path / "audit.jsonl"
        cmd_generate(config, audit)
        earlier = ((tmp_path / "out.jsonl").read_bytes(), audit.read_bytes())

        def failing(cfg, index, inputs=None):
            if index == 2:
                raise ConfigError(f"sequence 2 failed in process {os.getpid()}")
            return run_sequence(cfg, index, inputs)

        monkeypatch.setattr("decodekit.harness.run_sequence", failing)
        assert main(["generate", "--config", str(config), "--audit", str(audit)]) == 2
        err = capsys.readouterr().err
        assert "sequence 2 failed" in err
        assert (f"process {os.getpid()}" in err) == (workers == 1)  # two workers: raised in a worker
        assert ((tmp_path / "out.jsonl").read_bytes(), audit.read_bytes()) == earlier
        assert temp_files(tmp_path) == []

    def test_symlinked_corpus_updates_its_target(self, tmp_path):
        plain = write_config(tmp_path, base_overrides(tmp_path))
        cmd_generate(plain)
        expected = (tmp_path / "out.jsonl").read_bytes()
        (tmp_path / "real").mkdir()
        target = tmp_path / "real" / "corpus.jsonl"
        target.write_text("an earlier run's corpus\n", encoding="utf-8")
        link = tmp_path / "link.jsonl"
        link.symlink_to(target)
        cmd_generate(write_config(tmp_path, base_overrides(tmp_path, output={"corpus": str(link)}), name="l.json"))
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == expected
        assert temp_files(tmp_path) == [] and temp_files(tmp_path / "real") == []

    def test_failed_run_creates_no_file_behind_a_dangling_symlink(self, tmp_path, capsys):
        (tmp_path / "t").mkdir()
        link = tmp_path / "link.jsonl"
        link.symlink_to(tmp_path / "t" / "target.jsonl")
        overrides = base_overrides(tmp_path, prompt={"tokens": ["nope"]}, output={"corpus": str(link)})
        assert main(["generate", "--config", str(write_config(tmp_path, overrides))]) == 3
        assert "nope" in capsys.readouterr().err
        assert list((tmp_path / "t").iterdir()) == []
        assert link.is_symlink() and not link.exists()

    def test_fifo_output_is_written_in_place(self, tmp_path):
        config = write_config(tmp_path, asts_embedding_overrides(tmp_path))
        cmd_generate(config, tmp_path / "audit.jsonl")
        expected = (tmp_path / "audit.jsonl").read_bytes()
        fifo = tmp_path / "audit.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main(["generate", "--config", str(config), "--audit", str(fifo)]) == 0
        reader.join(timeout=30)
        assert received == [expected]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert temp_files(tmp_path) == []

    def test_traced_run_failing_part_way_leaves_earlier_outputs(self, tmp_path, monkeypatch):
        """The bench's tracer closes the audit file it wraps whatever the run did; that must not publish it."""
        monkeypatch.syspath_prepend(str(BENCH))
        tracer = importlib.import_module("tracer")
        monkeypatch.delitem(sys.modules, "tracer")
        config = write_config(tmp_path, asts_embedding_overrides(tmp_path))
        audit = str(tmp_path / "audit.jsonl")
        cmd_generate(config, audit)
        earlier = ((tmp_path / "out.jsonl").read_bytes(), (tmp_path / "audit.jsonl").read_bytes())

        def failing(cfg, index, inputs=None):
            if index == 2:
                raise ConfigError("sequence 2 failed")
            return run_sequence(cfg, index, inputs)

        monkeypatch.setattr("decodekit.harness.run_sequence", failing)
        traced = tracer.Tracer()
        with traced.installed(), pytest.raises(ConfigError):
            traced.phase("generate", SimpleNamespace(audit_path=audit, audit=True, tokens=4 * 10))
            cmd_generate(config, audit)
        assert ((tmp_path / "out.jsonl").read_bytes(), (tmp_path / "audit.jsonl").read_bytes()) == earlier
        assert traced.audit_bytes > 0  # the wrapper saw the audit lines it then closed
        assert temp_files(tmp_path) == []

    def test_each_output_is_synced_before_its_rename(self, tmp_path, monkeypatch):
        calls = []
        fsync, replace = os.fsync, os.replace
        monkeypatch.setattr(os, "fsync", lambda fd: (calls.append("fsync"), fsync(fd))[1])
        monkeypatch.setattr(os, "replace", lambda src, dst: (calls.append("replace"), replace(src, dst))[1])
        cmd_generate(write_config(tmp_path, asts_embedding_overrides(tmp_path)), tmp_path / "audit.jsonl")
        assert calls == ["fsync", "replace"] * 2

    def test_output_mode_is_that_of_a_plain_write(self, tmp_path):
        with open(tmp_path / "plain", "w"):
            pass
        new_file_mode = stat.S_IMODE(os.stat(tmp_path / "plain").st_mode)
        config = write_config(tmp_path, base_overrides(tmp_path))
        cmd_generate(config)
        assert stat.S_IMODE(os.stat(tmp_path / "out.jsonl").st_mode) == new_file_mode
        os.chmod(tmp_path / "out.jsonl", 0o640)  # a plain write keeps an existing file's mode
        cmd_generate(config)
        assert stat.S_IMODE(os.stat(tmp_path / "out.jsonl").st_mode) == 0o640


class TestReplayModel:
    def replay_file(self, tmp_path):
        doc = {
            "tokens": ["a", "b", "c"],
            "steps": [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1]],
        }
        path = tmp_path / "dist.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def test_greedy_replay_cycles_rows(self, tmp_path):
        overrides = {
            "sampler": "greedy",
            "max_tokens": 5,
            "model": {"selector": f"file:{self.replay_file(tmp_path)}"},
            "output": {"corpus": str(tmp_path / "out.jsonl")},
        }
        cmd_generate(write_config(tmp_path, overrides))
        obj = json.loads((tmp_path / "out.jsonl").read_text(encoding="utf-8"))
        assert obj["tokens"] == ["a", "b", "a", "b", "a"]

    def test_next_wraps_the_loaded_rows_read_only(self, tmp_path):
        steps = np.random.default_rng(3).random((4, 5)) * 7.0
        steps[1, 2] = 0.0
        path = tmp_path / "dist.json"
        path.write_text(json.dumps({"tokens": list("abcde"), "steps": steps.tolist()}), encoding="utf-8")
        model = build_model({"model": {"selector": f"file:{path}"}})
        for step in range(6):
            row = model.rows[step % 4]
            dist = model.next(None, step)
            assert dist.probs.tobytes() == row.tobytes()
            assert dist.probs.tobytes() == TokenDistribution(model.vocab, row).probs.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                dist.probs[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            model.rows[0, 0] = 1.0

    def test_malformed_step_row(self, tmp_path):
        path = tmp_path / "dist.json"
        path.write_text(json.dumps({"tokens": ["a", "b"], "steps": [[0.5, 0.5], [1.0]]}), encoding="utf-8")
        overrides = {
            "sampler": "greedy",
            "model": {"selector": f"file:{path}"},
            "output": {"corpus": str(tmp_path / "out.jsonl")},
        }
        with pytest.raises(DataError, match="step 1"):
            cmd_generate(write_config(tmp_path, overrides))

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "dist.json"
        path.write_text(json.dumps({"tokens": ["a", "b"]}), encoding="utf-8")
        overrides = {
            "sampler": "greedy",
            "model": {"selector": f"file:{path}"},
            "output": {"corpus": str(tmp_path / "out.jsonl")},
        }
        with pytest.raises(DataError, match="steps"):
            cmd_generate(write_config(tmp_path, overrides))


class TestSweep:
    def sweep(self, tmp_path, param="lts.tau_mass", values=(0.2, 0.5, 0.9), metric="rep16", reps=1):
        cfg_path = write_config(tmp_path, base_overrides(tmp_path, max_tokens=20))
        out = tmp_path / "sweep.csv"
        rows = cmd_sweep(cfg_path, param, list(values), metric, reps, out)
        return rows, out

    def test_row_count_matches_values(self, tmp_path):
        rows, out = self.sweep(tmp_path)
        assert len(rows) == 3
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "param_value,metric_mean,metric_std"
        assert len(lines) == 4

    def test_single_replication_zero_std(self, tmp_path):
        rows, _ = self.sweep(tmp_path, reps=1)
        assert all(r.std == 0.0 for r in rows)

    def test_identical_values_identical_rows(self, tmp_path):
        rows, _ = self.sweep(tmp_path, values=(0.5, 0.5))
        assert rows[0].mean == rows[1].mean
        assert rows[0].std == rows[1].std

    def test_multi_path_param(self, tmp_path):
        rows, _ = self.sweep(tmp_path, param="asts.k1,asts.k2", values=(0.1, 2.0))
        assert len(rows) == 2

    def test_deterministic_csv(self, tmp_path):
        _, out = self.sweep(tmp_path)
        first = out.read_bytes()
        _, out = self.sweep(tmp_path)
        assert out.read_bytes() == first

    def test_replications_change_std(self, tmp_path):
        rows, _ = self.sweep(tmp_path, values=(0.3, 0.8), reps=3)
        # three distinct seeds: at least one arm should show spread
        assert any(r.std > 0 for r in rows)

    def test_unknown_metric(self, tmp_path):
        with pytest.raises(ConfigError, match="metric"):
            self.sweep(tmp_path, metric="mauve")

    def test_single_value_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="at least 2"):
            self.sweep(tmp_path, values=(0.5,))

    def test_unknown_param_path(self, tmp_path):
        with pytest.raises(ConfigError, match="no such config key"):
            self.sweep(tmp_path, param="lts.tau_mas")

    def test_out_of_range_value_caught_by_validation(self, tmp_path):
        with pytest.raises(ConfigError, match="tau"):
            self.sweep(tmp_path, values=(0.5, 1.5))

    def test_failed_write_leaves_earlier_csv(self, tmp_path, monkeypatch):
        out = tmp_path / "sweep.csv"
        out.write_text("an earlier sweep\n", encoding="utf-8")
        monkeypatch.setattr("decodekit.metrics.csv_cell", enospc)  # fails after the header line
        with pytest.raises(OSError) as info:
            self.sweep(tmp_path, values=(0.3, 0.8))
        assert info.value.errno == errno.ENOSPC
        assert out.read_text(encoding="utf-8") == "an earlier sweep\n"
        assert temp_files(tmp_path) == []

    def test_run_inputs_built_once_per_value(self, tmp_path, monkeypatch):
        calls = []

        def recording(cfg, audit=False):
            calls.append(cfg["lts"]["tau_mass"])
            return prepare_run(cfg, audit)

        monkeypatch.setattr("decodekit.harness.prepare_run", recording)
        rows, _ = self.sweep(tmp_path, values=(0.3, 0.8), reps=3)
        assert calls == [0.3, 0.8]
        assert len(rows) == 2


class TestMetricsCmd:
    def generated(self, tmp_path):
        cfg_path = write_config(tmp_path, base_overrides(tmp_path, max_tokens=24))
        cmd_generate(cfg_path)
        return tmp_path / "out.jsonl", cfg_path

    def test_report_roundtrip(self, tmp_path):
        corpus, _ = self.generated(tmp_path)
        out = tmp_path / "report.json"
        csv = tmp_path / "report.csv"
        rep = cmd_metrics(corpus, out_path=out, csv_path=csv)
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["sequence_count"] == 3
        assert doc["token_count"] == 72
        assert doc["ppl"] == rep.ppl
        assert csv.read_text(encoding="utf-8").startswith("ppl,")

    def test_failed_write_leaves_earlier_reports(self, tmp_path, monkeypatch):
        corpus, _ = self.generated(tmp_path)
        out, csv = tmp_path / "report.json", tmp_path / "report.csv"
        out.write_text("an earlier report\n", encoding="utf-8")
        csv.write_text("an earlier csv\n", encoding="utf-8")
        monkeypatch.setattr("decodekit.metrics.MetricsReport.to_csv", enospc)
        with pytest.raises(OSError) as info:
            cmd_metrics(corpus, out_path=out, csv_path=csv)
        assert info.value.errno == errno.ENOSPC
        assert out.read_text(encoding="utf-8") == "an earlier report\n"
        assert csv.read_text(encoding="utf-8") == "an earlier csv\n"
        assert temp_files(tmp_path) == []

    def test_self_reference_zero_deltas(self, tmp_path):
        corpus, _ = self.generated(tmp_path)
        rep = cmd_metrics(corpus, reference_path=corpus)
        assert rep.ppl_delta == 0.0
        assert rep.zipf_delta == 0.0

    def test_byte_identical_reports(self, tmp_path):
        corpus, _ = self.generated(tmp_path)
        out = tmp_path / "report.json"
        cmd_metrics(corpus, out_path=out)
        first = out.read_bytes()
        cmd_metrics(corpus, out_path=out)
        assert out.read_bytes() == first

    def test_model_scorer_via_config(self, tmp_path):
        corpus, cfg_path = self.generated(tmp_path)
        uniform = cmd_metrics(corpus)
        modeled = cmd_metrics(corpus, config_path=cfg_path)
        assert modeled.ppl > 0 and modeled.ppl != uniform.ppl

    def test_shared_vocabulary_is_left_unchanged(self, tmp_path):
        vocab = default_vocabulary(32)
        tokens, index = vocab.tokens, dict(vocab.index)
        corpus, cfg_path = self.generated(tmp_path)
        cmd_metrics(corpus, config_path=cfg_path)
        assert build_model(load_config(cfg_path)).vocab is vocab
        assert vocab.tokens == tokens and vocab.index == index

    def test_short_corpus_is_metric_error(self, tmp_path):
        path = tmp_path / "short.jsonl"
        path.write_text('{"tokens": ["a", "b", "c"]}\n', encoding="utf-8")
        with pytest.raises(MetricError, match="too short"):
            cmd_metrics(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"tokens": ["a", "b", "c", "d"]}\n{oops\n', encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            cmd_metrics(path)

    def test_text_format(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("a b a b a b\nc d c d\n", encoding="utf-8")
        rep = cmd_metrics(path, fmt="text")
        assert rep.sequence_count == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            cmd_metrics(tmp_path / "ghost.jsonl")

    def test_corpus_not_utf8_names_the_line(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_bytes(b"a b a b a b\n" * 2000 + b"c d \xe9 d\n")
        with pytest.raises(DataError, match="line 2001: not UTF-8 text"):
            cmd_metrics(path, fmt="text")

    def test_bad_format_name(self, tmp_path):
        corpus, _ = self.generated(tmp_path)
        with pytest.raises(ConfigError, match="format"):
            cmd_metrics(corpus, fmt="parquet")


class TestGoldenCmd:
    def test_all_checks_pass(self, capsys):
        assert cmd_golden() == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "FAIL" not in out

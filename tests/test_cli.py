"""End-to-end command line checks: argv in, exit code + files out."""

import json

import pytest

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

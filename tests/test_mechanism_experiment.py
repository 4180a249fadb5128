"""``scripts/mechanism_experiment.py --pairs``: paired rep32 differences with a seeded bootstrap interval."""

import importlib.util
import re
import statistics
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "mechanism_experiment.py"


@pytest.fixture(scope="module")
def experiment():
    spec = importlib.util.spec_from_file_location("mechanism_experiment", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bootstrap_interval_is_seeded_and_brackets_the_mean(experiment):
    diffs = [0.012, -0.02, 0.031, 0.0, 0.05, 0.007]
    lo, hi = experiment.bootstrap_interval(diffs, 2_000, 5)
    assert (lo, hi) == experiment.bootstrap_interval(diffs, 2_000, 5)
    assert (lo, hi) != experiment.bootstrap_interval(diffs, 2_000, 6)
    assert min(diffs) <= lo < statistics.mean(diffs) < hi <= max(diffs)
    assert experiment.bootstrap_interval([0.25] * 4, 100, 0) == (0.25, 0.25)


def run(experiment, monkeypatch, capsys, tmp_path, *flags):
    argv = ["mechanism_experiment.py", "--out", str(tmp_path), "--sequences", "2", "--tokens", "12", "--reps", "1"]
    monkeypatch.setattr(sys, "argv", [*argv, *flags])
    assert experiment.main() == 0
    return capsys.readouterr().out.splitlines()


def test_pairs_report_the_paired_difference(experiment, monkeypatch, capsys, tmp_path):
    lines = run(experiment, monkeypatch, capsys, tmp_path, "--pairs", "3")
    pairs = [line for line in lines if line.startswith("  pair ")]
    assert [line.split(":")[0] for line in pairs] == [
        "  pair 0 (seeds 7/7)", "  pair 1 (seeds 9/8)", "  pair 2 (seeds 11/9)"
    ]
    diffs = [float(line.rsplit(" ", 1)[1]) for line in pairs]
    margin = next(line for line in lines if line.startswith("margin (ablation - penalty):"))
    assert float(margin.split(":")[1].split()[0]) == diffs[0]
    summary = next(line for line in lines if line.startswith("paired mean rep32 difference"))
    mean, lo, hi = map(float, re.search(r"3 pairs: (\S+), 95% bootstrap interval \[(\S+), (\S+)\]", summary).groups())
    assert mean == pytest.approx(statistics.mean(diffs), abs=5e-5)
    assert lo <= mean <= hi
    for i in (1, 2):
        assert {p.name for p in (tmp_path / f"pair{i}").glob("*.json")} == {"penalty.json", "ablation.json", "lts.json"}


def test_one_pair_prints_no_paired_section(experiment, monkeypatch, capsys, tmp_path):
    lines = run(experiment, monkeypatch, capsys, tmp_path)
    assert not any(line.startswith(("  pair ", "paired mean")) for line in lines)
    assert not list(tmp_path.glob("pair*"))

"""The checker accepts real decodekit outputs and rejects corrupted ones.

Run from the repository root: ``python3 -m pytest bench/test_reference.py``.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from decodekit import harness  # noqa: E402
from reference import check_job, read_jsonl, surprisals, ReferenceLM, vocabulary  # noqa: E402
from workloads import _asts, _job, _synthetic  # noqa: E402


def outputs(job):
    harness.cmd_generate(job.config_path, job.audit_path)
    harness.cmd_metrics(job.corpus_path, out_path=job.report_path, config_path=job.config_path)
    corpus = list(read_jsonl(job.corpus_path))
    audit = list(read_jsonl(job.audit_path)) if job.audit else None
    with open(job.report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    return corpus, audit, report


def check(job, corpus, audit, report):
    return check_job(job.config, job.prompts, corpus, audit, report)


@pytest.fixture
def greedy(tmp_path):
    cfg = {
        "seed": 3, "max_tokens": 12, "num_sequences": 2, "sampler": "greedy",
        "model": {"selector": "synthetic:mixed", "synthetic": _synthetic(64, 5)},
        "prompt": {"tokens": ["tok001", "tok002"], "file": None},
    }
    job = _job(str(tmp_path), "greedy", cfg, prompts=[[1, 2]])
    return job, *outputs(job)


@pytest.fixture
def asts(tmp_path):
    cfg = {
        "seed": 4, "max_tokens": 10, "num_sequences": 2, "sampler": "asts",
        "model": {"selector": "synthetic:mixed", "synthetic": _synthetic(64, 6)},
        "asts": _asts(k1=0.5, k2=0.5),
    }
    job = _job(str(tmp_path), "asts", cfg, audit=True)
    return job, *outputs(job)


def test_accepts_real_outputs(greedy, asts):
    for job, corpus, audit, report in (greedy, asts):
        verdict = check(job, corpus, audit, report)
        assert verdict.failures == []
        n = job.config["num_sequences"] * job.config["max_tokens"]
        assert verdict.operations == n + 2 + (1 if job.audit else 0)


def test_rejects_swapped_token(greedy):
    job, corpus, audit, report = greedy
    bad = copy.deepcopy(corpus)
    toks = bad[0]["tokens"]
    i = next(i for i in range(1, len(toks)) if toks[i] != toks[0])
    toks[0], toks[i] = toks[i], toks[0]
    assert check(job, bad, audit, report).failures


def test_rejects_emitted_token_outside_band(asts):
    job, corpus, audit, report = asts
    bad = copy.deepcopy(corpus)
    line = audit[0]
    inside = {c["token_id"] for c in line["candidates"]}
    outside = next(t for t in range(64) if t not in inside)
    bad[0]["tokens"][0] = vocabulary(64)[outside]
    assert check(job, bad, audit, report).failures


def test_rejects_audit_candidate_outside_band(asts):
    job, corpus, audit, report = asts
    bad = copy.deepcopy(audit)
    line = bad[0]
    p = ReferenceLM(job.config["model"]["synthetic"], "mixed").probs([])
    s = surprisals(p)
    outside = int(max(range(64), key=lambda t: abs(s[t] - line["entropy"])))
    assert outside not in {c["token_id"] for c in line["candidates"]}
    line["candidates"].append({**line["candidates"][0], "token_id": outside, "final_probability": 0.0})
    assert check(job, corpus, bad, report).failures


def test_rejects_wrong_ppl(greedy):
    job, corpus, audit, report = greedy
    assert check(job, corpus, audit, {**report, "ppl": report["ppl"] * (1 + 1e-6)}).failures


def test_rejects_audit_probabilities_not_summing_to_one(asts):
    job, corpus, audit, report = asts
    bad = copy.deepcopy(audit)
    step = next(line for line in bad if len(line["candidates"]) > 1)
    step["candidates"][0]["final_probability"] *= 0.5
    assert check(job, corpus, bad, report).failures


def test_rejects_wrong_recount(greedy):
    job, corpus, audit, report = greedy
    assert check(job, corpus, audit, {**report, "rep32": report["rep32"] + 0.01}).failures

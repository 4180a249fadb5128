"""Pinned output digests: the shipped configs and the criterion-5 arms.

Each case runs ``cmd_generate`` on a fixed config and compares the SHA-256
of the corpus (and, for ASTS runs, of the ``--audit`` file) with a digest
recorded from an earlier commit. A refactor that keeps behaviour keeps
every digest; a change that moves one is a behaviour change and must be
argued on its own.
"""

import hashlib
import json
from pathlib import Path

import pytest

from decodekit.harness import cmd_generate

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Criterion 5 of tests/test_acceptance.py: ASTS with zero providers on a
# loop-prone model, with the repetition penalty on (mu3 0.5) and off (0).
MECHANISM = {
    "seed": 7,
    "max_tokens": 200,
    "num_sequences": 50,
    "sampler": "asts",
    "model": {
        "selector": "synthetic:loop_prone",
        "synthetic": {
            "vocab_size": 256,
            "loop_gamma": 3.0,
            "seed": 7,
            "base_temperature": 0.3,
            "recency_window": 16,
        },
    },
    "asts": {
        "alignment": "zero",
        "relevance": "zero",
        "lambda1": 0.0, "lambda2": 0.0, "lambda3": 0.0,
        "mu1": 0.0, "mu2": 0.0,
        "k1": 2.0, "k2": 2.0,
        "temperature": 0.1,
    },
}

# case -> (corpus sha256, audit sha256 or None when the run writes no audit)
DIGESTS = {
    "generate_asts": (
        "b6a000e5a3069a12a8ff77bc932b8b2d0399b268d2fbdec3d2caf3271d62d158",
        "9f4b151ecbb67ff8de89843296c1f05ab03bd8569960f959c18c65e8bbad3360",
    ),
    "generate_lts": ("c761cd5ceb15d1e37bb07f8b63968779df1bef6505f71536e5e29f9e1fc614c4", None),
    "sweep_mirostat": ("bc787b9c28d85910167c3d4b40731e53af996b118dfd4e4dd024a6afc1333a6a", None),
    "mechanism_mu3_0.5": (
        "24554e14e5ceccdf03517ca41f90bd15269e7436502d615e8cffbb7cb6d89ff0",
        "60d26a92c9a347026f58fa32c4d13bdcf28a4a8d37ed8a346c5cf66afab05397",
    ),
    "mechanism_mu3_0": (
        "87495d2bb5af82ab3de56e27fad18b98d897a01a5bd6202a82cbbcc351c78d00",
        "7535da21ae97316c1e981e41bb4404afdbc150e8fa6f868d71e9e9c345c49b05",
    ),
}


def _case_config(case: str) -> dict:
    if case.startswith("mechanism_mu3_"):
        cfg = json.loads(json.dumps(MECHANISM))
        cfg["asts"]["mu3"] = float(case.rsplit("_", 1)[1])
        return cfg
    return json.loads((CONFIGS / f"{case}.json").read_text(encoding="utf-8"))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_output_digest(tmp_path, monkeypatch, case):
    monkeypatch.delenv("DECODE_SEED", raising=False)
    cfg = _case_config(case)
    corpus = tmp_path / "corpus.jsonl"
    cfg["output"] = {"corpus": str(corpus)}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    want_corpus, want_audit = DIGESTS[case]
    audit = tmp_path / "audit.jsonl" if want_audit is not None else None

    cmd_generate(cfg_path, audit_path=audit)

    assert _sha256(corpus) == want_corpus
    if audit is not None:
        assert _sha256(audit) == want_audit

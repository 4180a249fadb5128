"""Pinned output digests: the shipped configs, the criterion-5 arms and the
truncation samplers that no shipped config runs.

Each case runs ``cmd_generate`` on a fixed config and compares the SHA-256
of the corpus (and, for ASTS runs, of the ``--audit`` file) with a digest
recorded from an earlier commit. The report cases then score a generated
corpus with ``cmd_metrics --config`` (same config, so the generating model
scores it) and pin the report file, ``ppl`` included. The sweep cases pin
the ``cmd_sweep`` CSV of every metric name, and the uniform-report cases
pin ``cmd_metrics`` without a config (JSON and CSV files, corpus read as
JSON lines and as text). A refactor that keeps behaviour keeps every
digest; a change that moves one is a behaviour change and must be argued
on its own.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from decodekit.harness import cmd_generate, cmd_metrics, cmd_sweep

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

# Greedy, top-k, nucleus, LTS band and mass, and Mirostat on a mixed model,
# at a small and a large vocabulary, each sequence continuing a prompt.
TRUNCATION = {
    "seed": 3,
    "max_tokens": 24,
    "num_sequences": 3,
    "model": {"selector": "synthetic:mixed", "synthetic": {"seed": 11}},
    "prompt": {"tokens": ["tok001", "tok017", "tok042"]},
    "topk": {"k": 20},
    "nucleus": {"p": 0.9},
    "lts": {"mode": "band", "epsilon": 0.5},
}
# case name -> the config entries that select its sampler
TRUNCATION_SAMPLERS = {
    "greedy": {"sampler": "greedy"},
    "topk": {"sampler": "topk"},
    "nucleus": {"sampler": "nucleus"},
    "lts_band": {"sampler": "lts"},
    "lts_mass": {"sampler": "lts", "lts": {"mode": "mass", "tau_mass": 0.95}},
    "mirostat": {"sampler": "mirostat"},
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
    "greedy_v256": ("b6bba7ed2e2f68f88e08680d5c100c7a75f48d8d590082ec9164a97cd5093ab3", None),
    "greedy_v4096": ("4de1bf4733c520a3be97a1d130597eac599a6d9e1af5d07dcff4c9ab058ea2d0", None),
    "topk_v256": ("008d62f9e256a34c9a86593e764efa9ed773520012e890b4d4c9079625018b9d", None),
    "topk_v4096": ("8828f39a97eac873eda59dc93f4e6d64f21301e06a197e2118e3d43ae44c0251", None),
    "nucleus_v256": ("1a31deefeeffec1b89f46fa6daa06b1f66e4529a2dc96c1632281b3fa27fe499", None),
    "nucleus_v4096": ("caf168809b49ad20de1adaa37668003df883efc2ee9961d1dec9c435d7537bc6", None),
    "lts_band_v256": ("84a65a2761a9e25b142d3e26bce32bf17bcbf96e3c1e3af330c7fdf091de1b32", None),
    "lts_band_v4096": ("9a67adaeb046bcb4a16a2aaafffdcaf3013411c3b52fd5c507f63b514318e0d3", None),
    "lts_mass_v4096": ("12bc6b2befcf77de149440fdc61e3d3542635c3f4ecab763bc7a0d5563eafd1e", None),
    "mirostat_v4096": ("ae6d370b2dfba086eee52eb44ee99f6f8990fe3c27695f0a6f732ac05db84a50", None),
    "generate_asts_reordered_table": (
        "eb2ece8a3f306028cbaf9e6f0e5fc54871f4235cdb2a2651ba4b908aa525307b",
        "226f0227fbe44bfadabf136087dd2c481a34230e6a961bc7bc09f55a8bdd6a44",
    ),
    "generate_asts_prompt_w3": (
        "14e179c8de26b488d2dfc74f7b1afe9e6f02a9b0ecc925a323cfbe0afa4f806f",
        "09b6855c4e88d0232e21755d27ade0b4667c5db2d77acd7fc6cef5a2d4a67a46",
    ),
}


# case -> (reference case or None, report sha256). "replay" is a file: model.
REPORT_DIGESTS = {
    "generate_asts": (None, "8ea0e7345aba57b8543daecdb60eb274d33ccd378b2ab8f4a3ad2a064777f249"),
    "generate_lts": (None, "ad7fd7016c1aea565707b4493e9af785fe0bde35987abaab069c6ca9a74b98e0"),
    "sweep_mirostat": (None, "2fe40ba8a7abe36b1e972deaae4bd6da373c52c3138369ef483547bab07b5bdf"),
    "mechanism_mu3_0.5": (None, "912de2086dcf9909dcb7789406a2a78d3d1be6d242fa0381869ac1532b816892"),
    "nucleus_v4096": ("greedy_v4096", "368af24ed2d349c27f368b020216250f391e486965f2fc974712dfce60efb505"),
    "replay": ("replay_greedy", "26155225f53ea6da7ba65cc5014acd7cffc099b3d617e91ebf25100bf4706659"),
}


# metric -> sha256 of the cmd_sweep CSV for nucleus.p 0.5 and 0.9 on the
# nucleus_v256 case at 64 tokens (so that rep32 and rep128 differ), two
# replications per value so that metric_std is not 0.
SWEEP_DIGESTS = {
    "ppl": "ce524974b662080df0594a43be1d02f4a7fe0c2534ebdb067ab008eec55f9b99",
    "rep16": "c415874e56694973bb98179c3be03e9d05157b047c296e5430192075e8b29629",
    "rep32": "1f2ea3f12df811efdae52d57b4d93003d7fa3b3f9c41a193f197ce11b2c00e5e",
    "rep128": "ad0014d09387ea492d601ccd1a65034b1bd87261b9e0dff7e653ea36bcb630a0",
    "zipf": "f0318250009d84758fa1a497445cf8eb39aca9bd6eebf26e1a296b7f245ef49e",
    "diversity": "48c41b280cd8092a61858dda22478d4f9833315b0cf5c557514449fb76f9b0d7",
    "diversity_sum": "85aa6c8572564709cf448a2f4faf116f4e033d3f7b05ee8c033ecd0280893cad",
}

# (report sha256, csv sha256) of cmd_metrics without a config, so with the
# uniform scorer over the observed tokens: nucleus_v256 against greedy_v256,
# both at 64 tokens.
UNIFORM_REPORT_DIGESTS = (
    "11d9a48318c709b9f490510632c06302cfb431c629e2170f47bfab9c797cdccb",
    "1d90597931c8d0816ba16489e338c65d06966b34b54d3b35cf6c7a2562ab7205",
)


def _replay_config(tmp_path: Path, sampler: str) -> dict:
    """An LTS or greedy run on a 48-token model replaying 12 random rows."""
    replay = tmp_path / "replay_model.json"
    rows = np.random.default_rng(5).random((12, 48))
    rows[:, 1] = 0.0  # a token no row can emit
    replay.write_text(
        json.dumps({"tokens": [f"w{i}" for i in range(48)], "steps": rows.tolist()}), encoding="utf-8"
    )
    return {
        "seed": 2,
        "max_tokens": 30,
        "num_sequences": 3,
        "sampler": sampler,
        "model": {"selector": f"file:{replay}"},
    }


def _reordered_table_config(tmp_path: Path) -> dict:
    """``generate_asts`` with a file table whose rows run in reverse vocabulary order, one extra token first."""
    cfg = json.loads((CONFIGS / "generate_asts.json").read_text(encoding="utf-8"))
    dim = cfg["embed"]["dim"]
    tokens = ["extra"] + [f"tok{i:03d}" for i in reversed(range(cfg["model"]["synthetic"]["vocab_size"]))]
    rows = np.random.default_rng(17).standard_normal((len(tokens), dim))
    table = tmp_path / "reordered_table.txt"
    with open(table, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(tokens)} {dim}\n")
        for token, row in zip(tokens, rows.tolist()):
            fh.write(token + " " + " ".join(map(repr, row)) + "\n")
    cfg["embed"]["table"] = str(table)
    return cfg


def _prompt_w3_config() -> dict:
    """``generate_asts`` continuing a prompt, with an entropy window of 3: 4 sequences of 40 tokens."""
    cfg = json.loads((CONFIGS / "generate_asts.json").read_text(encoding="utf-8"))
    cfg.update(max_tokens=40, num_sequences=4, prompt={"tokens": ["tok001", "tok017", "tok042", "tok001"]})
    cfg["asts"]["window_w"] = 3
    return cfg


def _case_config(case: str, tmp_path: Path) -> dict:
    if case == "generate_asts_reordered_table":
        return _reordered_table_config(tmp_path)
    if case == "generate_asts_prompt_w3":
        return _prompt_w3_config()
    if case.startswith("replay"):
        return _replay_config(tmp_path, "greedy" if case == "replay_greedy" else "lts")
    name, _, vocab = case.rpartition("_v")
    if name in TRUNCATION_SAMPLERS:
        cfg = json.loads(json.dumps(TRUNCATION))
        cfg.update(TRUNCATION_SAMPLERS[name])
        cfg["model"]["synthetic"]["vocab_size"] = int(vocab)
        return cfg
    if case.startswith("mechanism_mu3_"):
        cfg = json.loads(json.dumps(MECHANISM))
        cfg["asts"]["mu3"] = float(case.rsplit("_", 1)[1])
        return cfg
    return json.loads((CONFIGS / f"{case}.json").read_text(encoding="utf-8"))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _generate(tmp_path: Path, case: str, audit: Path | None = None, **overrides) -> tuple[Path, Path]:
    """Run ``cmd_generate`` for ``case`` (top-level entries ``overrides``); returns (config path, corpus path)."""
    cfg = {**_case_config(case, tmp_path), **overrides}
    corpus = tmp_path / f"{case}.jsonl"
    cfg["output"] = {"corpus": str(corpus)}
    cfg_path = tmp_path / f"{case}.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    cmd_generate(cfg_path, audit_path=audit)
    return cfg_path, corpus


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_output_digest(tmp_path, monkeypatch, case):
    monkeypatch.delenv("DECODE_SEED", raising=False)
    want_corpus, want_audit = DIGESTS[case]
    audit = tmp_path / "audit.jsonl" if want_audit is not None else None

    _, corpus = _generate(tmp_path, case, audit)

    assert _sha256(corpus) == want_corpus
    if audit is not None:
        assert _sha256(audit) == want_audit


@pytest.mark.parametrize("case", sorted(REPORT_DIGESTS))
def test_report_digest(tmp_path, monkeypatch, case):
    monkeypatch.delenv("DECODE_SEED", raising=False)
    reference_case, want = REPORT_DIGESTS[case]
    cfg_path, corpus = _generate(tmp_path, case)
    reference = _generate(tmp_path, reference_case)[1] if reference_case is not None else None
    report = tmp_path / "report.json"

    cmd_metrics(corpus, reference_path=reference, out_path=report, config_path=cfg_path)

    assert _sha256(report) == want


@pytest.mark.parametrize("metric", sorted(SWEEP_DIGESTS))
def test_sweep_digest(tmp_path, monkeypatch, metric):
    monkeypatch.delenv("DECODE_SEED", raising=False)
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({**_case_config("nucleus_v256", tmp_path), "max_tokens": 64}), encoding="utf-8")
    out = tmp_path / "sweep.csv"

    cmd_sweep(cfg_path, param="nucleus.p", values=[0.5, 0.9], metric=metric, reps=2, out_path=out)

    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert all(float(row.split(",")[2]) > 0.0 for row in rows)
    assert _sha256(out) == SWEEP_DIGESTS[metric]


def _as_text(corpus: Path) -> Path:
    """The corpus as whitespace-separated token lines, for ``--format text``."""
    text = corpus.with_suffix(".txt")
    lines = [" ".join(json.loads(line)["tokens"]) for line in corpus.read_text(encoding="utf-8").splitlines()]
    text.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return text


@pytest.mark.parametrize("fmt", ["jsonl", "text"])
def test_uniform_report_digest(tmp_path, monkeypatch, fmt):
    monkeypatch.delenv("DECODE_SEED", raising=False)
    corpus = _generate(tmp_path, "nucleus_v256", max_tokens=64)[1]
    reference = _generate(tmp_path, "greedy_v256", max_tokens=64)[1]
    if fmt == "text":
        corpus, reference = _as_text(corpus), _as_text(reference)
    report, csv = tmp_path / "report.json", tmp_path / "report.csv"

    cmd_metrics(corpus, reference_path=reference, out_path=report, csv_path=csv, fmt=fmt)

    assert (_sha256(report), _sha256(csv)) == UNIFORM_REPORT_DIGESTS

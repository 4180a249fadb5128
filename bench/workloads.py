"""Benchmark workloads: inputs and run configs made from a seed.

Each workload is a list of jobs. A job is one fully explicit run config
(every field the reference checker reads is spelled out, so the checker
never needs decodekit's defaults), written next to its inputs in a work
directory, plus whether ``cmd_generate`` writes an ASTS audit for it.

* ``asts_embed``: ASTS with embedding alignment read from a text embedding
  file, keyword relevance and decay pooling on ``synthetic:mixed``; the
  band keeps on the order of 100 candidates per step; audit on.
* ``truncation_v4096``: greedy, top-k, nucleus, Mirostat, LTS mass and LTS
  band on ``mixed`` and ``flat`` models with a 4096-token vocabulary and
  prompts read from a prompt file; no audit.
* ``mechanism``: the repetition-penalty arms (ASTS with zero providers at
  mu3 0.5 and 0) plus the LTS-mass arm on ``loop_prone``, 200-token
  sequences; no audit.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from reference import vocabulary

EMBED_DIM = 16
PROMPT_COUNT = 8


@dataclass(frozen=True)
class Job:
    name: str
    config: dict
    audit: bool
    prompts: tuple[tuple[int, ...], ...]
    workdir: str

    @property
    def config_path(self) -> str:
        return os.path.join(self.workdir, f"{self.name}.json")

    @property
    def corpus_path(self) -> str:
        return self.config["output"]["corpus"]

    @property
    def audit_path(self) -> str | None:
        return os.path.join(self.workdir, f"{self.name}.audit.jsonl") if self.audit else None

    @property
    def report_path(self) -> str:
        return os.path.join(self.workdir, f"{self.name}.report.json")

    @property
    def tokens(self) -> int:
        return self.config["num_sequences"] * self.config["max_tokens"]


def _synthetic(vocab_size: int, seed: int, base_temperature=None, loop_gamma=1.0, recency_window=4) -> dict:
    return {
        "vocab_size": vocab_size,
        "seed": seed,
        "base_temperature": base_temperature,
        "loop_gamma": loop_gamma,
        "recency_window": recency_window,
    }


def _asts(**overrides) -> dict:
    cfg = {
        "k1": 0.3, "k2": 0.3,
        "lambda1": 0.4, "lambda2": 0.4, "lambda3": 0.2,
        "mu1": 0.5, "mu2": 0.3, "mu3": 0.2,
        "temperature": 1.0, "window_w": 8, "eps_div": 1.0, "sigma_prior": 0.6,
        "adjust_form": "example",
        "alignment": "zero", "relevance": "zero", "keywords": [],
    }
    cfg.update(overrides)
    return cfg


def _job(workdir: str, name: str, cfg: dict, audit: bool = False, prompts=((),)) -> Job:
    cfg = {**cfg, "workers": 1, "output": {"corpus": os.path.join(workdir, f"{name}.jsonl")}}
    job = Job(name, cfg, audit, tuple(tuple(p) for p in prompts), workdir)
    with open(job.config_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=1)
    return job


def write_embedding_file(path: str, tokens, dim: int, rng: np.random.Generator) -> None:
    """Gaussian vectors in the text format ``load_table`` reads."""
    vectors = rng.standard_normal((len(tokens), dim))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(tokens)} {dim}\n")
        for token, vec in zip(tokens, vectors):
            fh.write(token + " " + " ".join(repr(float(v)) for v in vec) + "\n")


def write_prompt_file(path: str, tokens, count: int, rng: np.random.Generator) -> list[list[int]]:
    """``count`` prompts of 2-6 random tokens, one JSON object per line."""
    prompts = [rng.integers(0, len(tokens), size=int(rng.integers(2, 7))).tolist() for _ in range(count)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for ids in prompts:
            fh.write(json.dumps({"tokens": [tokens[i] for i in ids]}) + "\n")
    return prompts


def asts_embed(seed: int, workdir: str) -> list[Job]:
    """Two 10-sequence runs, each with its own embedding file, keywords and seeds."""
    rng = np.random.Generator(np.random.PCG64([seed, 1]))
    tokens = vocabulary(256)
    jobs = []
    for part in range(2):
        table = os.path.join(workdir, f"embeddings{part}.txt")
        write_embedding_file(table, tokens, EMBED_DIM, rng)
        keywords = [f"tok{int(n):02d}" for n in rng.choice(26, size=2, replace=False)]
        cfg = {
            "seed": 1000 * seed + 100 * part,
            "max_tokens": 48,
            "num_sequences": 10,
            "sampler": "asts",
            "model": {"selector": "synthetic:mixed", "synthetic": _synthetic(256, 2 * seed + part)},
            "asts": _asts(k1=0.6, k2=0.6, alignment="embedding", relevance="keywords", keywords=keywords),
            "embed": {"table": table, "dim": EMBED_DIM, "seed": 0, "pooling": "decay", "decay": 0.8,
                      "context_window": 0},
        }
        jobs.append(_job(workdir, f"asts_embed{part}", cfg, audit=True))
    return jobs


TRUNCATION_SAMPLERS = {
    "greedy": {},
    "topk": {"topk": {"k": 50}},
    "nucleus": {"nucleus": {"p": 0.9}},
    "mirostat": {"mirostat": {"tau": 3.0, "eta": 0.1, "mu0": None}},
    "lts_mass": {"sampler": "lts", "lts": {"mode": "mass", "epsilon": 0.5, "tau_mass": 0.95}},
    "lts_band": {"sampler": "lts", "lts": {"mode": "band", "epsilon": 0.5, "tau_mass": 0.95}},
}


def truncation_v4096(seed: int, workdir: str) -> list[Job]:
    rng = np.random.Generator(np.random.PCG64([seed, 2]))
    tokens = vocabulary(4096)
    prompt_file = os.path.join(workdir, "prompts.jsonl")
    prompts = write_prompt_file(prompt_file, tokens, PROMPT_COUNT, rng)
    jobs = []
    for kind in ("mixed", "flat"):
        for name, section in TRUNCATION_SAMPLERS.items():
            cfg = {
                "seed": seed,
                "max_tokens": 48,
                "num_sequences": 2,
                "sampler": name,
                "model": {"selector": f"synthetic:{kind}", "synthetic": _synthetic(4096, seed)},
                "prompt": {"tokens": None, "file": prompt_file},
                **section,
            }
            jobs.append(_job(workdir, f"{kind}_{name}", cfg, prompts=prompts))
    return jobs


def mechanism(seed: int, workdir: str) -> list[Job]:
    base = {
        "seed": seed,
        "max_tokens": 200,
        "num_sequences": 4,
        "model": {
            "selector": "synthetic:loop_prone",
            "synthetic": _synthetic(256, seed, base_temperature=0.3, loop_gamma=3.0, recency_window=16),
        },
    }
    arm = dict(lambda1=0.0, lambda2=0.0, lambda3=0.0, mu1=0.0, mu2=0.0, k1=2.0, k2=2.0, temperature=0.1)
    return [
        _job(workdir, "penalty", {**base, "sampler": "asts", "asts": _asts(mu3=0.5, **arm)}),
        _job(workdir, "ablation", {**base, "sampler": "asts", "asts": _asts(mu3=0.0, **arm)}),
        _job(workdir, "lts_mass", {**base, "sampler": "lts", "lts": {"mode": "mass", "epsilon": 0.5, "tau_mass": 0.95}}),
    ]


WORKLOADS = {"asts_embed": asts_embed, "truncation_v4096": truncation_v4096, "mechanism": mechanism}

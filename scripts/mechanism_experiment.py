#!/usr/bin/env python3
"""Repetition-penalty mechanism experiment on the loop_prone synthetic LM.

Two arms differ only in the repetition-penalty weight (mu3 = 0.5 vs 0);
everything else — model, seeds, band, temperature — is shared, so the
rep32 gap isolates the penalty's contribution. A second stage sweeps the
main width/mass hyperparameter of ASTS (k1 = k2) and LTS (tau_mass) over
the same grid and reports the spread of mean rep32 across the grid as a
sensitivity comparison.

With ``--pairs N`` (N > 1) the two arms also run at N (decode seed, model
seed) pairs, the i-th being (decode seed + i * sequences, model seed + i), so
no two pairs share a sequence's random stream, as sweep replications do not.
The paired mean rep32 difference (ablation - penalty) is reported with a 95%
percentile bootstrap interval: resample the N differences with replacement,
drawn from one PCG64 seeded with ``BOOTSTRAP_SEED``.

The arm configs are written next to the results so a run is fully
reproducible from its output directory alone; pair i > 0 writes its own
under ``pair<i>/``.
"""

import argparse
import json
import statistics
from pathlib import Path

import numpy as np

from decodekit.harness import cmd_sweep, load_config, run_generation
from decodekit.metrics import rep_l

TAU_GRID = [round(0.1 * i, 1) for i in range(1, 11)]
BOOTSTRAP_RESAMPLES = 10_000
BOOTSTRAP_SEED = 0


def build_configs(args, out: Path, seed: int, model_seed: int) -> dict[str, Path]:
    model = {
        "selector": "synthetic:loop_prone",
        "synthetic": {
            "vocab_size": 256,
            "loop_gamma": 3.0,
            "seed": model_seed,
            "base_temperature": 0.3,
            "recency_window": 16,
        },
    }
    asts = {
        "alignment": "zero",
        "relevance": "zero",
        "lambda1": 0.0, "lambda2": 0.0, "lambda3": 0.0,
        "mu1": 0.0, "mu2": 0.0, "mu3": 0.5,
        "k1": 2.0, "k2": 2.0,
        "temperature": 0.1,
    }
    base = {
        "seed": seed,
        "max_tokens": args.tokens,
        "num_sequences": args.sequences,
        "model": model,
    }
    arms = {
        "penalty": {**base, "sampler": "asts", "asts": asts},
        "ablation": {**base, "sampler": "asts", "asts": {**asts, "mu3": 0.0}},
        "lts": {**base, "sampler": "lts", "lts": {"mode": "mass", "tau_mass": 0.95}},
    }
    paths = {}
    for name, cfg in arms.items():
        cfg["output"] = {"corpus": str(out / f"{name}.jsonl")}
        path = out / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
        paths[name] = path
    return paths


def mean_rep32(config_path: Path) -> float:
    records = run_generation(load_config(config_path))
    return statistics.mean(rep_l(r["token_ids"], 32) for r in records)


def bootstrap_interval(diffs: list[float], resamples: int, seed: int) -> tuple[float, float]:
    """The 2.5th and 97.5th percentiles of the mean of ``diffs`` resampled with replacement."""
    gen = np.random.Generator(np.random.PCG64(seed))
    means = np.asarray(diffs)[gen.integers(0, len(diffs), (resamples, len(diffs)))].mean(axis=1)
    lo, hi = np.percentile(means, [2.5, 97.5])
    return float(lo), float(hi)


def sweep_spread(csv_path: Path) -> float:
    rows = csv_path.read_text(encoding="utf-8").splitlines()[1:]
    return statistics.pstdev(float(line.split(",")[1]) for line in rows)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--seed", type=int, default=7, help="decode seed")
    parser.add_argument("--model-seed", type=int, default=7, help="synthetic model seed")
    parser.add_argument("--sequences", type=int, default=50)
    parser.add_argument("--tokens", type=int, default=200)
    parser.add_argument("--reps", type=int, default=3, help="replications per sweep value")
    parser.add_argument("--pairs", type=int, default=1,
                        help="(model seed, decode seed) pairs for the paired difference (default 1: none)")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    paths = build_configs(args, out, args.seed, args.model_seed)

    print(f"loop_prone gamma=3, vocab 256, {args.sequences} x {args.tokens} tokens, "
          f"seeds {args.seed}/{args.model_seed}")
    with_penalty = mean_rep32(paths["penalty"])
    without = mean_rep32(paths["ablation"])
    print(f"mean rep32  mu3=0.5: {with_penalty:.4f}")
    print(f"mean rep32  mu3=0.0: {without:.4f}")
    print(f"margin (ablation - penalty): {without - with_penalty:+.4f}"
          + ("" if with_penalty < without else "  [penalty arm NOT lower]"))
    if args.pairs > 1:
        seeds = [(args.seed + i * args.sequences, args.model_seed + i) for i in range(args.pairs)]
        diffs = [without - with_penalty]
        for i, (seed, model_seed) in enumerate(seeds[1:], start=1):
            pair_out = out / f"pair{i}"
            pair_out.mkdir(exist_ok=True)
            pair = build_configs(args, pair_out, seed, model_seed)
            diffs.append(mean_rep32(pair["ablation"]) - mean_rep32(pair["penalty"]))
        for i, ((seed, model_seed), diff) in enumerate(zip(seeds, diffs)):
            print(f"  pair {i} (seeds {seed}/{model_seed}): ablation - penalty {diff:+.4f}")
        lo, hi = bootstrap_interval(diffs, BOOTSTRAP_RESAMPLES, BOOTSTRAP_SEED)
        print(f"paired mean rep32 difference (ablation - penalty) over {args.pairs} pairs: "
              f"{statistics.mean(diffs):+.4f}, 95% bootstrap interval [{lo:+.4f}, {hi:+.4f}] "
              f"({BOOTSTRAP_RESAMPLES} resamples, PCG64 seed {BOOTSTRAP_SEED})")

    asts_csv = out / "asts_sweep.csv"
    lts_csv = out / "lts_sweep.csv"
    cmd_sweep(paths["penalty"], "asts.k1,asts.k2", TAU_GRID, "rep32", args.reps, asts_csv)
    cmd_sweep(paths["lts"], "lts.tau_mass", TAU_GRID, "rep32", args.reps, lts_csv)
    asts_sigma = sweep_spread(asts_csv)
    lts_sigma = sweep_spread(lts_csv)
    print(f"rep32 spread across the 0.1..1.0 grid ({args.reps} reps per value):")
    print(f"  asts k1=k2 sweep: sigma {asts_sigma:.4f}  ({asts_csv})")
    print(f"  lts tau_mass sweep: sigma {lts_sigma:.4f}  ({lts_csv})")
    winner = "asts" if asts_sigma < lts_sigma else "lts"
    print(f"less hyperparameter-sensitive on this model: {winner}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

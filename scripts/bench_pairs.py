#!/usr/bin/env python3
"""Alternated parent/change benchmark pairs, summarised into one BENCH JSON file.

Usage (stdlib only; each directory is a full checkout, for example made
with ``git archive``):

    python3 scripts/bench_pairs.py --parent ../parent --change ../change \\
        --workloads asts_embed truncation_v4096 mechanism --seeds 1-10 \\
        --seconds 30 --out BENCH_15.json --claim truncation_v4096:setup_s

Pair ``n`` uses seed ``n`` and runs ``bench/run.py --trace 0`` on every
workload back to back, in each checkout: odd pairs run the parent first,
even pairs the change first. Every run's final JSON line is kept under
``pairs``. For each workload and end-to-end metric, ``summary`` gives both
sides' medians and quartiles (``statistics.quantiles(n=4,
method="inclusive")``), the parent's IQR, the pairs the change won (ties
count for neither), ``change_pct`` of the medians and a verdict against the
bound in the change's ``BENCHMARK.json``. The output file is rewritten after
every pair, so a cut session leaves the pairs run so far. Nothing in either
checkout is edited; ``bench/run.py`` keeps its scratch files under its own
``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

VERDICT_RULE = (
    "'regressed beyond bound' if the change's median is worse than the parent's by more than the bound; "
    "'no difference resolved' if the medians differ by no more than the parent's IQR; "
    "else 'better' or 'worse, within bound'"
)
CLAIM_RULE = "the change wins at least 9/10 of the pairs and its median beats the parent's by more than the parent's IQR"


def parse_seeds(text: str) -> list[int]:
    """``1-10`` or ``1,3,5`` (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_bench(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py --trace 0`` run in ``checkout``: its final JSON line, or the failure."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return {"correct": False, "returncode": proc.returncode, "stderr": proc.stderr[-2000:]}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]] if values else []
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarise_metric(pairs: list[dict], name: str, better: str, bound: float) -> dict:
    """One metric's summary over the pairs where both sides ran."""
    both = [p for p in pairs if "metrics" in p["before"] and "metrics" in p["after"]]
    before = [p["before"]["metrics"][name]["value"] for p in both]
    after = [p["after"]["metrics"][name]["value"] for p in both]
    if not both:
        return {"pairs": 0}
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (a - b) > 0 for a, b in zip(after, before))
    b_med, a_med = statistics.median(before), statistics.median(after)
    b_q = quartiles(before)
    iqr = b_q[1] - b_q[0]
    change = (a_med - b_med) / b_med
    if -sign * change > bound:
        verdict = "regressed beyond bound"
    elif abs(a_med - b_med) <= iqr:
        verdict = "no difference resolved"
    else:
        verdict = "better" if sign * change > 0 else "worse, within bound"
    return {
        "better": better,
        "bound_pct": 100.0 * bound,
        "before_median": b_med,
        "before_quartiles": b_q,
        "before_iqr": iqr,
        "after_median": a_med,
        "after_quartiles": quartiles(after),
        "after_wins": wins,
        "pairs": len(both),
        "change_pct": 100.0 * change,
        "verdict": verdict,
    }


def summarise(runs: dict, metrics: list[dict]) -> dict:
    out = {}
    for workload, pairs in runs.items():
        summary = {m["name"]: summarise_metric(pairs, m["name"], m["better"], m["bound"]) for m in metrics}
        sides = [p[side] for p in pairs for side in ("before", "after")]
        summary["all_correct"] = all(s.get("correct") for s in sides)
        for key in ("failed", "attempted"):
            summary[key] = {side: sum(p[side].get(key, 0) for p in pairs) for side in ("before", "after")}
        out[workload] = summary
    return out


def claim_result(summary: dict, claim: str) -> dict:
    workload, _, metric = claim.partition(":")
    s = summary.get(workload, {}).get(metric, {})
    if not s.get("pairs"):
        return {"claim": claim, "rule": CLAIM_RULE, "met": False}
    gap = abs(s["after_median"] - s["before_median"])
    met = s["after_wins"] >= 0.9 * s["pairs"] and gap > s["before_iqr"] and s["verdict"] == "better"
    return {"claim": claim, "rule": CLAIM_RULE, "wins": f"{s['after_wins']}/{s['pairs']}",
            "median_gap": gap, "parent_iqr": s["before_iqr"], "met": met}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10", help="seeds, one pair each: 1-10 or 1,3,5")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", required=True, help="BENCH JSON file to write")
    parser.add_argument("--claim", action="append", default=[], help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--parent-rev", default=None, help="label for the parent (a commit id)")
    parser.add_argument("--change-rev", default=None, help="label for the change (a commit id)")
    args = parser.parse_args(argv)

    for checkout in (args.parent, args.change):
        if not os.path.isfile(os.path.join(checkout, "bench", "run.py")):
            parser.error(f"{checkout}: no bench/run.py")
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    sides = {"before": args.parent, "after": args.change}
    runs = {w: [] for w in args.workloads}
    doc = {
        "command": f"python3 bench/run.py --workload W --seed N --seconds {args.seconds:g} --trace 0",
        "protocol": (
            "alternated parent/change pairs, seed N = pair number on every workload; odd pairs run the parent "
            "first, even pairs the change first; the workloads of a pair number run back to back; every run is "
            "kept under 'pairs'; quartiles are statistics.quantiles(n=4, method='inclusive'); change_pct is "
            "(after - before) / before of the medians"
        ),
        "verdict_rule": VERDICT_RULE,
        "parent": args.parent_rev,
        "change": args.change_rev,
    }
    for n, seed in enumerate(parse_seeds(args.seeds), start=1):
        order = ("before", "after") if n % 2 else ("after", "before")
        for workload in args.workloads:
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                t0 = time.time()
                pair[side] = run_bench(sides[side], workload, seed, args.seconds)
                print(f"pair {n} seed {seed} {workload} {side}: {time.time() - t0:.0f} s, "
                      f"correct={pair[side].get('correct')}", file=sys.stderr, flush=True)
            runs[workload].append(pair)
        summary = summarise(runs, metrics)
        doc.update(pairs=runs, summary=summary, claims=[claim_result(summary, c) for c in args.claim])
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

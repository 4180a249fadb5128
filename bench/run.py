#!/usr/bin/env python3
"""decodekit benchmark: one workload per process, checked, timed, summarised.

Usage (from the repository root):

    python3 bench/run.py --workload asts_embed --seed 1 --seconds 30 --trace 0

The workload's inputs (configs, embedding file, prompt file) are made from
``--seed`` in a scratch directory under ``.bench_work/`` and removed at the
end. The process first runs one untimed warm-up round and checks its
outputs with the independent reference in ``reference.py``. It then repeats
identical rounds until ``--seconds`` have passed. A round runs, for each job
of the workload, the set-up path (timed ``SETUP_REPEATS`` times), then
``harness.cmd_generate`` and then ``harness.cmd_metrics --config``. Every
round's outputs are compared with the warm-up's. A round whose outputs match
inherits the warm-up's verdicts; any other round is checked afresh.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (medians over rounds). With ``--trace 1`` untraced
and traced rounds alternate, and the object carries the per-layer metrics
from the traced rounds plus the tracing overhead (see ``tracer.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field

from reference import check_job, read_jsonl
from tracer import Tracer, per_layer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 10
SCORE_REPEATS = 3

END_TO_END_UNITS = {
    "gen_tokens_per_s": "tok/s",
    "score_tokens_per_s": "tok/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_harness():
    """decodekit.harness from this checkout's ``src/``; exit 2 if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "decodekit", "harness.py")):
        sys.exit(f"bench: no decodekit sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    from decodekit import harness

    if not os.path.abspath(harness.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported decodekit from {harness.__file__}, not from {SRC}")
    return harness


@dataclass
class Tally:
    """Operations attempted and failed over the timed rounds."""

    attempted: int = 0
    failed: int = 0
    examples: list[str] = field(default_factory=list)

    def add(self, operations: int, failures: list[str]) -> None:
        self.attempted += operations
        self.failed += len(failures)
        self.examples.extend(failures[: max(0, 5 - len(self.examples))])


class Runner:
    def __init__(self, harness, jobs):
        self.harness = harness
        self.jobs = jobs
        # job name -> seconds per call, over every timed round
        self.samples = {part: {job.name: [] for job in jobs} for part in ("setup", "generate", "metrics")}
        self.reference: dict[str, list] = {}  # job name -> the warm-up's token lists
        self.tally = Tally()
        self.checked = {}  # output digest -> verdict, so identical outputs are checked once
        self.asts_candidates = (0, 0)

    def setup_once(self, job) -> float:
        """What cmd_generate does before its first token: config, model, sampler, prompts."""
        h = self.harness
        t0 = time.perf_counter()
        cfg = h.load_config(job.config_path)
        model = h.build_model(cfg)
        h.build_sampler(cfg, model.vocab)
        h._resolve_prompts(cfg, model.vocab)
        return time.perf_counter() - t0

    def run_round(self, on_phase=None) -> float:
        """One round over every job; returns its seconds in cmd_generate and cmd_metrics.

        ``on_phase(phase, job)`` is told when a job enters set-up, generate
        or metrics and when it is done (phase None); tracing hooks it.
        """
        h = self.harness
        mark = on_phase or (lambda phase, job: None)
        busy = 0.0
        for job in self.jobs:
            mark("setup", job)
            for _ in range(SETUP_REPEATS):
                self.samples["setup"][job.name].append(self.setup_once(job))
            mark("generate", job)
            t0 = time.perf_counter()
            h.cmd_generate(job.config_path, job.audit_path)
            t1 = time.perf_counter()
            self.samples["generate"][job.name].append(t1 - t0)
            mark("metrics", job)
            for _ in range(SCORE_REPEATS):
                t2 = time.perf_counter()
                h.cmd_metrics(job.corpus_path, out_path=job.report_path, config_path=job.config_path)
                t3 = time.perf_counter()
                self.samples["metrics"][job.name].append(t3 - t2)
                busy += t3 - t2
            mark(None, job)
            busy += t1 - t0
        return busy

    def median_seconds(self, part: str) -> float:
        """Sum over jobs of the job's median seconds per call: what one round pays."""
        return sum(statistics.median(v) for v in self.samples[part].values())

    def clear_samples(self) -> None:
        for per_job in self.samples.values():
            for v in per_job.values():
                v.clear()

    def check_round(self, count: bool) -> None:
        """Check the outputs the last round left on disk; tally them when ``count``."""
        for job in self.jobs:
            digest = _digest(job.corpus_path, job.audit_path, job.report_path)
            verdict = self.checked.get(digest)
            if verdict is None:
                corpus = list(read_jsonl(job.corpus_path))
                audit = read_jsonl(job.audit_path) if job.audit else None
                with open(job.report_path, encoding="utf-8") as fh:
                    report = json.load(fh)
                verdict = check_job(job.config, job.prompts, corpus, audit, report)
                self.checked[digest] = verdict
                self.asts_candidates = (
                    self.asts_candidates[0] + verdict.asts_candidates,
                    self.asts_candidates[1] + verdict.asts_steps,
                )
            sequences = [rec["tokens"] for rec in read_jsonl(job.corpus_path)]
            if job.name not in self.reference:
                self.reference[job.name] = sequences
            first = self.reference[job.name]
            regen = [
                f"{job.name} sequence {n}: regenerated tokens differ from the warm-up"
                for n in range(job.config["num_sequences"])
                if n >= len(sequences) or n >= len(first) or sequences[n] != first[n]
            ]
            if count:
                self.tally.add(
                    verdict.operations + job.config["num_sequences"],
                    [f"{job.name}: {f}" for f in verdict.failures] + regen,
                )


def repeat_for(seconds: float, body) -> None:
    """Run ``body`` once, then again while one more run still ends within ``seconds``."""
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        body()
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > seconds:
            return


def _digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        if path is None:
            continue
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        h.update(b"\0")
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(runner: Runner) -> dict:
    tokens = sum(job.tokens for job in runner.jobs)
    values = {
        "gen_tokens_per_s": tokens / runner.median_seconds("generate"),
        "score_tokens_per_s": tokens / runner.median_seconds("metrics"),
        "setup_s": runner.median_seconds("setup"),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    harness = import_harness()
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = Runner(harness, WORKLOADS[args.workload](args.seed, workdir))
        runner.run_round()  # warm-up: fills caches, and its outputs are the reference
        runner.check_round(count=False)
        runner.clear_samples()
        if args.trace:
            tracer = Tracer()
            plain, traced = [], []

            def pair():
                plain.append(runner.run_round())
                runner.check_round(count=True)
                with tracer.installed():
                    traced.append(runner.run_round(on_phase=tracer.phase))
                runner.check_round(count=True)

            repeat_for(args.seconds, pair)
            metrics = per_layer(tracer, runner, plain, traced)
        else:
            repeat_for(args.seconds, lambda: (runner.run_round(), runner.check_round(count=True)))
            metrics = end_to_end(runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it

    tally = runner.tally
    for example in tally.examples:
        print(f"FAILED {example}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

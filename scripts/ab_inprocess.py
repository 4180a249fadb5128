#!/usr/bin/env python3
"""In-process A/B of two decodekit trees on one bench workload: paired CPU-time ratios.

Usage (stdlib and numpy only; each directory is a checkout holding
``src/decodekit``, for example made with ``git archive``):

    python3 scripts/ab_inprocess.py --parent ../parent --change . \\
        --workload mechanism --seed 1 --rounds 40

Both ``src/`` trees are imported into this one process, each under its own
set of ``decodekit*`` entries in ``sys.modules``, which are swapped in before
each of that tree's rounds. A round runs ``harness.cmd_generate`` and then
``harness.cmd_metrics --config`` on every job of the workload
(``bench/workloads.py``, read-only, each side in its own scratch directory),
as a bench round does, and records the CPU time (``time.process_time``) of
each command summed over the jobs. Round pairs alternate which side goes
first. For each command the output is the median of the per-pair ratios
change / parent, their quartiles and IQR (``statistics.quantiles(n=4,
method="inclusive")``) and the pairs the change won (ratio below 1). It
ends with whether both sides wrote the same corpus and audit bytes, and the
same report bytes.

This is a sizing tool: separate-process bench runs on a shared machine
spread too widely to resolve effects of a few percent, while a paired ratio
in one process cancels most of the drift. A performance claim still comes
only from ``scripts/bench_pairs.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The commands a round times, with the label each one's figures print under.
COMMANDS = {"generate": "cmd_generate", "metrics": "cmd_metrics --config"}


def load_tree(checkout: str) -> dict:
    """The ``decodekit*`` modules imported from ``checkout/src``, removed from ``sys.modules`` again."""
    src = os.path.join(os.path.abspath(checkout), "src")
    if not os.path.isfile(os.path.join(src, "decodekit", "harness.py")):
        sys.exit(f"ab_inprocess: no decodekit sources under {src}")
    drop_tree()
    sys.path.insert(0, src)
    try:
        import decodekit.harness  # noqa: F401  (imports every module the commands use)
    finally:
        sys.path.remove(src)
    modules = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "decodekit"}
    if not modules["decodekit"].__file__.startswith(src + os.sep):
        sys.exit(f"ab_inprocess: imported decodekit from {modules['decodekit'].__file__}, not from {src}")
    drop_tree()
    return modules


def drop_tree() -> None:
    for name in [n for n in sys.modules if n.split(".")[0] == "decodekit"]:
        del sys.modules[name]


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        if path is not None:
            with open(path, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


class Side:
    """One tree's modules and its copy of the workload's jobs."""

    def __init__(self, name: str, checkout: str, make_jobs, seed: int, workdir: str):
        self.name = name
        self.modules = load_tree(checkout)
        os.makedirs(workdir)
        self.jobs = make_jobs(seed, workdir)
        self.outputs = set()
        self.reports = set()

    def round(self) -> dict:
        """CPU seconds of ``cmd_generate`` and of ``cmd_metrics --config``, each summed over every job."""
        drop_tree()
        sys.modules.update(self.modules)
        harness = self.modules["decodekit.harness"]
        seconds = dict.fromkeys(COMMANDS, 0.0)
        for job in self.jobs:
            t0 = time.process_time()
            harness.cmd_generate(job.config_path, job.audit_path)
            t1 = time.process_time()
            harness.cmd_metrics(job.corpus_path, out_path=job.report_path, config_path=job.config_path)
            t2 = time.process_time()
            seconds["generate"] += t1 - t0
            seconds["metrics"] += t2 - t1
        self.outputs.add(digest(p for job in self.jobs for p in (job.corpus_path, job.audit_path)))
        self.reports.add(digest(job.report_path for job in self.jobs))
        return seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True, help="a bench workload name")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--rounds", type=int, default=20, help="round pairs (default 20)")
    parser.add_argument("--bench", default=os.path.join(ROOT, "bench"), help="directory of workloads.py")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be >= 2")

    sys.path.insert(0, os.path.abspath(args.bench))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    scratch = tempfile.mkdtemp(prefix="ab_inprocess-")
    try:
        make_jobs = WORKLOADS[args.workload]
        parent = Side("parent", args.parent, make_jobs, args.seed, os.path.join(scratch, "parent"))
        change = Side("change", args.change, make_jobs, args.seed, os.path.join(scratch, "change"))
        for side in (parent, change):
            side.round()  # warm-up: caches and first-call costs
        times = {command: {"parent": [], "change": []} for command in COMMANDS}
        for n in range(args.rounds):
            order = (parent, change) if n % 2 == 0 else (change, parent)
            for side in order:
                for command, seconds in side.round().items():
                    times[command][side.name].append(seconds)
    finally:
        drop_tree()
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, {args.rounds} round pairs (CPU time per round)")
    for command, label in COMMANDS.items():
        sides = times[command]
        ratios = [c / p for c, p in zip(sides["change"], sides["parent"])]
        q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
        print(f"{label}:")
        for name, values in sides.items():
            print(f"  {name}: median {statistics.median(values) * 1e3:.1f} ms per round")
        print(f"  ratio change/parent: median {statistics.median(ratios):.3f}, "
              f"quartiles {q1:.3f}-{q3:.3f}, IQR {q3 - q1:.3f}")
        print(f"  pairs won by the change: {sum(r < 1.0 for r in ratios)}/{len(ratios)}")
    for what, ours, theirs in (("corpus and audit", parent.outputs, change.outputs),
                               ("report", parent.reports, change.reports)):
        print(f"{what} bytes identical on both sides: {'yes' if ours == theirs and len(ours) == 1 else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

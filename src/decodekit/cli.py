"""Command line interface.

Exit codes: 0 success, 1 metric-domain error (valid files, metric
undefined on them), 2 configuration or usage error, 3 input-data error,
4 reference-check failure, 143 stopped by SIGTERM (its outputs discarded).
"""

from __future__ import annotations

import argparse
import signal
import sys

from decodekit import harness, metrics
from decodekit.harness import ConfigError, DataError, MetricError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decodekit",
        description="Entropy-aware decoding strategies and evaluation harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a corpus from a JSON run config")
    gen.add_argument("--config", required=True, help="path to the JSON run config")
    gen.add_argument("--audit", default=None, help="write per-step ASTS score breakdowns (JSON lines)")

    sweep = sub.add_parser("sweep", help="sweep one config parameter and emit a plot-ready CSV")
    sweep.add_argument("--config", required=True, help="base JSON run config")
    sweep.add_argument(
        "--param",
        required=True,
        help="dotted config path to sweep (comma-separate several paths to move them together)",
    )
    sweep.add_argument("--values", required=True, help="comma-separated list of values")
    sweep.add_argument("--metric", required=True, help=f"one of {', '.join(metrics.METRICS)}")
    sweep.add_argument("--reps", type=int, default=1, help="replications per value (default 1)")
    sweep.add_argument("--out", required=True, help="output CSV path")

    met = sub.add_parser("metrics", help="compute the metric report for a corpus file")
    met.add_argument("--generated", required=True, help="generated corpus (JSON lines)")
    met.add_argument("--reference", default=None, help="optional reference corpus for deltas")
    met.add_argument("--out", required=True, help="output JSON path")
    met.add_argument("--csv", default=None, help="optional one-row CSV output path")
    met.add_argument("--config", default=None, help="run config supplying the scoring model (default: uniform)")
    met.add_argument("--format", default="jsonl", choices=("jsonl", "text"), help="corpus file format")

    sub.add_parser("golden", help="verify the pipeline against the built-in reference example")
    return parser


def _parse_values(raw: str) -> list:
    values = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            values.append(int(part))
        except ValueError:
            try:
                values.append(float(part))
            except ValueError:
                raise ConfigError(f"values: {part!r} is not a number") from None
    return values


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds, so the outputs' temporary files are removed


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        if args.command == "generate":
            harness.cmd_generate(args.config, audit_path=args.audit)
            return 0
        if args.command == "sweep":
            harness.cmd_sweep(
                args.config,
                param=args.param,
                values=_parse_values(args.values),
                metric=args.metric,
                reps=args.reps,
                out_path=args.out,
            )
            return 0
        if args.command == "metrics":
            harness.cmd_metrics(
                args.generated,
                reference_path=args.reference,
                out_path=args.out,
                csv_path=args.csv,
                config_path=args.config,
                fmt=args.format,
            )
            return 0
        if args.command == "golden":
            return harness.cmd_golden()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except MetricError as exc:
        print(f"metric error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.signal(signal.SIGTERM, previous)
    return 0


if __name__ == "__main__":
    sys.exit(main())

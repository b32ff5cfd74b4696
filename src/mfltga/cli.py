"""Command line front end.

Examples::

    mfltga run --problem dtf:k=3,m=5 --mode mt --tasks 2 --pop 128 \
        --max-evals 1000000 --runs 10 --seed 42 --out results/
    mfltga oracle --problem dtf:k=2,m=3
    mfltga oracle --problem cluspt:instances/path4.cluspt
"""
from __future__ import annotations

import argparse
import csv
import sys

from .errors import ConfigurationError, InstanceFormatError
from .harness import (
    ExperimentConfig,
    parse_problem_descriptor,
    run_experiment,
    summarize,
    summary_csv_rows,
)
from .oracle import exhaustive_cluspt, exhaustive_dtf
from .problems import cluspt


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfltga",
        description="Multitask linkage-tree genetic algorithm benchmark runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment in st or mt mode")
    run.add_argument(
        "--problem",
        action="append",
        required=True,
        help="problem descriptor: dtf:k=3,m=5 or cluspt:<path> (repeatable)",
    )
    run.add_argument("--mode", choices=("st", "mt"), default="mt")
    run.add_argument("--tasks", type=int, default=2, help="number of tasks")
    run.add_argument("--pop", type=int, default=128, help="population size")
    run.add_argument("--max-evals", type=int, default=1_000_000)
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--max-p", type=int, default=10, help="no-improvement restart threshold")
    run.add_argument("--mutation", type=float, default=0.05, help="per-gene mutation rate")
    run.add_argument("--trace-every", type=int, default=1)
    run.add_argument("--out", default=None, help="output directory for csv/json emission")

    oracle = sub.add_parser("oracle", help="exhaustively solve a desk-scale instance")
    oracle.add_argument("--problem", required=True)
    return parser


def _cmd_run(args) -> int:
    config = ExperimentConfig(
        problems=args.problem,
        mode=args.mode,
        num_tasks=args.tasks,
        pop_size=args.pop,
        max_evals=args.max_evals,
        runs=args.runs,
        seed=args.seed,
        max_p=args.max_p,
        mutation_rate=args.mutation,
        trace_every=args.trace_every,
        out_path=args.out,
    )
    result = run_experiment(config)
    csv.writer(sys.stdout, lineterminator="\n").writerows(summary_csv_rows(summarize(result)))
    if config.out_path:
        print(f"outputs written to {config.out_path}")
    return 0


def _cmd_oracle(args) -> int:
    kind, payload = parse_problem_descriptor(args.problem)
    if kind == "dtf":
        outcome = exhaustive_dtf(payload)
    else:
        outcome = exhaustive_cluspt(cluspt.parse_file(payload))
    print(
        f"optimum_cost={outcome.optimum_cost} "
        f"optimum_count={outcome.optimum_count} "
        f"enumerated={outcome.enumerated}"
    )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_oracle(args)
    except (ConfigurationError, InstanceFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

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
    parse_descriptor,
    run_experiment,
    summarize,
    summary_csv_rows,
)
from .mfo import SUCCESS_TOLERANCE
from .oracle import exhaustive_cluspt, exhaustive_dtf
from .problems import cluspt


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfltga",
        description="Multitask linkage-tree genetic algorithm benchmark runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each dest is an ExperimentConfig field, and a flag left out stays out of
    # the namespace, so the config's own defaults are the only ones.
    run = sub.add_parser(
        "run", help="run an experiment in st or mt mode", argument_default=argparse.SUPPRESS
    )
    run.add_argument(
        "--problem",
        dest="problems",
        action="append",
        required=True,
        help="problem descriptor: dtf:k=3,m=5 or cluspt:<path> (repeatable)",
    )
    run.add_argument("--mode", choices=("st", "mt"))
    run.add_argument("--tasks", dest="num_tasks", type=int, help="number of tasks")
    run.add_argument("--pop", dest="pop_size", type=int, help="population size")
    run.add_argument("--max-evals", type=int)
    run.add_argument("--runs", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--max-p", type=int, help="no-improvement restart threshold")
    run.add_argument(
        "--mutation",
        dest="mutation_rate",
        type=float,
        help="per-gene reset rate in [0, 1]; default 0, as LTGA has no mutation "
        "(0.05 was the former default)",
    )
    run.add_argument("--trace-every", type=int)
    run.add_argument("--out", dest="out_path", help="output directory for csv/json emission")

    oracle = sub.add_parser("oracle", help="exhaustively solve a desk-scale instance")
    oracle.add_argument("--problem", required=True)
    return parser


def _cmd_run(options: dict) -> int:
    config = ExperimentConfig(**options)
    result = run_experiment(config)
    csv.writer(sys.stdout, lineterminator="\n").writerows(summary_csv_rows(summarize(result)))
    if config.out_path:
        print(f"outputs written to {config.out_path}", file=sys.stderr)
    return 0


def _cmd_oracle(options: dict) -> int:
    kind, payload, optimum = parse_descriptor(options["problem"])
    if kind == "dtf":
        outcome = exhaustive_dtf(payload)
    else:
        outcome = exhaustive_cluspt(cluspt.parse_file(payload))
    if optimum is not None and abs(optimum - outcome.optimum_cost) > SUCCESS_TOLERANCE:
        raise ConfigurationError(
            f"declared optimum {optimum} differs from the enumerated optimum {outcome.optimum_cost}"
        )
    print(
        f"optimum_cost={outcome.optimum_cost} "
        f"optimum_count={outcome.optimum_count} "
        f"enumerated={outcome.enumerated}"
    )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    options = vars(parser.parse_args(argv))
    command = options.pop("command")
    try:
        return _cmd_run(options) if command == "run" else _cmd_oracle(options)
    except (ConfigurationError, InstanceFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

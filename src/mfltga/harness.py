"""Experiment harness: configs, campaign runs, metrics, emission.

Modes
-----
``st`` solves every task in its own independent run (the single-task engine
is literally the multitask loop with one task).  ``mt`` solves all tasks in
one shared population.  Run r of a config uses seed = base_seed XOR r, so the
two modes can be compared on paired seeds.

Both modes are read through one view: run r is a list of legs, each a
RunRecord with the task positions it holds, run one after another.  An mt run
is one leg holding every task; the st schedule is one leg per task, task 1
first.  The summary, the best-known costs and the trace tables are all built
from the legs, so ``run_experiment`` is the only place the modes differ.

Outputs
-------
``summary.csv`` with one row per (instance, mode, task), ``trace_<run>.csv``
convergence tables with per-task best costs and normalized objectives on the
legs' shared generation axis, and ``config.json`` with the resolved
configuration and per-run seeds.
"""
from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Optional

from .engine import RunRecord, run_mfltga, validate_run_parameters
from .errors import ConfigurationError
from .mfo import require_int
from .problems import cluspt, trap


@dataclass
class ExperimentConfig:
    problems: list
    mode: str = "mt"
    num_tasks: int = 2
    pop_size: int = 128
    max_evals: int = 1_000_000
    runs: int = 10
    seed: int = 42
    max_p: int = 10
    mutation_rate: float = 0.05
    trace_every: int = 1
    out_path: Optional[str] = None

    def validate(self) -> "ExperimentConfig":
        if self.mode not in ("st", "mt"):
            raise ConfigurationError(f"mode must be 'st' or 'mt', got {self.mode!r}")
        if not isinstance(self.problems, (list, tuple)) or not all(
            isinstance(d, str) for d in self.problems
        ):
            raise ConfigurationError(
                f"problems must be a list of descriptor strings, got {self.problems!r}"
            )
        if not self.problems:
            raise ConfigurationError("at least one problem descriptor is required")
        for name in ("num_tasks", "runs", "seed"):
            require_int(name, getattr(self, name))
        if self.num_tasks < 1:
            raise ConfigurationError("number of tasks must be >= 1")
        if len(self.problems) not in (1, self.num_tasks):
            raise ConfigurationError(
                "give one problem (replicated across tasks) or exactly one per task"
            )
        if self.runs < 1:
            raise ConfigurationError("runs must be >= 1")
        if not isinstance(self.out_path, (type(None), str, os.PathLike)):
            raise ConfigurationError(f"out_path must be a path or None, got {self.out_path!r}")
        validate_run_parameters(**self._run_parameters())
        return self

    def _run_parameters(self) -> dict:
        """The run_mfltga keyword values this config fixes for every run."""
        return dict(
            pop_size=self.pop_size,
            max_evals=self.max_evals,
            max_p=self.max_p,
            mutation_rate=self.mutation_rate,
            trace_every=self.trace_every,
        )

    def run_seed(self, run_index: int) -> int:
        return self.seed ^ run_index


def parse_problem_descriptor(text: str):
    """Split a descriptor like 'dtf:k=3,m=5' or 'cluspt:path/to.file'.

    A CluSPT descriptor may end in ',opt=<x>', the instance's known optimum;
    it is dropped here and read by resolve_tasks.
    """
    kind, payload, _ = _parse_descriptor(text)
    return kind, payload


def _parse_descriptor(text: str):
    """(kind, TrapSpec or instance path, known optimum or None)."""
    kind, sep, rest = text.partition(":")
    if not sep or not rest:
        raise ConfigurationError(f"malformed problem descriptor {text!r}")
    kind = kind.strip().lower()
    if kind == "dtf":
        params = {}
        for part in rest.split(","):
            key, eq, value = part.partition("=")
            if not eq:
                raise ConfigurationError(f"malformed dtf parameter {part!r}")
            key = key.strip()
            if key in params:
                raise ConfigurationError(f"repeated dtf parameter {key!r} in {text!r}")
            params[key] = value.strip()
        try:
            spec = trap.TrapSpec(int(params.pop("k")), int(params.pop("m")))
        except KeyError as missing:
            raise ConfigurationError(f"dtf descriptor needs k and m, missing {missing}")
        except ValueError:
            raise ConfigurationError(f"dtf parameters must be integers in {text!r}")
        if params:
            raise ConfigurationError(f"unknown dtf parameters {sorted(params)}")
        return "dtf", spec, None
    if kind == "cluspt":
        path, sep, opt_text = rest.rpartition(",opt=")
        if not sep:
            return "cluspt", rest.strip(), None
        if not path.strip():
            raise ConfigurationError(f"malformed problem descriptor {text!r}")
        try:
            optimum = float(opt_text)
        except ValueError:
            raise ConfigurationError(f"optimum is not a number in {text!r}")
        if not math.isfinite(optimum):
            raise ConfigurationError(f"optimum must be finite in {text!r}")
        return "cluspt", path.strip(), optimum
    raise ConfigurationError(f"unknown problem kind {kind!r}")


def resolve_tasks(config: ExperimentConfig):
    """Build the task list (ids 1..K); each task's label is its descriptor."""
    descriptors = list(config.problems)
    if len(descriptors) == 1 and config.num_tasks > 1:
        descriptors = descriptors * config.num_tasks
    parsed = [_parse_descriptor(d) for d in descriptors]
    kinds = {kind for kind, _, _ in parsed}
    if len(kinds) > 1:
        raise ConfigurationError(
            "tasks must share a gene alphabet; mixing dtf and cluspt is not supported"
        )
    if kinds == {"dtf"}:
        tasks = [trap.make_task(spec, task_id=tid) for tid, (_, spec, _) in enumerate(parsed, 1)]
    else:
        # one graph per distinct file, so replicated tasks share its decoder memo
        paths = dict.fromkeys(path for _, path, _ in parsed)
        graphs = {path: cluspt.parse_file(path) for path in paths}
        tasks = [
            cluspt.make_task(graphs[path], task_id=tid, known_optimum=optimum)
            for tid, (_, path, optimum) in enumerate(parsed, 1)
        ]
    return tasks, descriptors


def _runs(config: ExperimentConfig, tasks) -> list:
    """One run_mfltga call per run index r, seeded with config.run_seed(r)."""
    params = config._run_parameters()
    return [run_mfltga(tasks, seed=config.run_seed(r), **params) for r in range(config.runs)]


@dataclass
class SummaryRow:
    instance: str
    mode: str
    task: int
    runs: int
    num_opt: int
    mean_num_evals: Optional[float]
    bf: float
    avg: float


@dataclass
class SummaryTable:
    rows: list


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    labels: list
    st_records: Optional[dict] = None  # task_id -> [RunRecord]
    mt_records: Optional[list] = None


def _legs(result: ExperimentResult, run_index: int) -> list:
    """The (RunRecord, task positions) legs of one run index, in execution order.

    Slot i of a leg's record holds task position positions[i].
    """
    if result.config.mode == "mt":
        return [(result.mt_records[run_index], range(len(result.labels)))]
    return [(result.st_records[tid][run_index], [tid - 1]) for tid in sorted(result.st_records)]


def summarize(result: ExperimentResult) -> SummaryTable:
    """One row per task: success count, mean evals to success, best and mean cost."""
    per_task = [[] for _ in result.labels]
    for run_index in range(result.config.runs):
        for rec, positions in _legs(result, run_index):
            for slot, pos in enumerate(positions):
                per_task[pos].append((rec.best_found[slot], rec.evals_to_success[slot]))
    rows = []
    for pos, per_run in enumerate(per_task):
        bests = [b for b, _ in per_run]
        successes = [e for _, e in per_run if e is not None]
        rows.append(
            SummaryRow(
                instance=result.labels[pos],
                mode=result.config.mode,
                task=pos + 1,
                runs=len(per_run),
                num_opt=len(successes),
                mean_num_evals=(sum(successes) / len(successes)) if successes else None,
                bf=min(bests),
                avg=sum(bests) / len(bests),
            )
        )
    return SummaryTable(rows=rows)


def carried_trace(record: RunRecord) -> list:
    """The trace point in force at each generation 0..record.generations.

    Generations the trace did not sample carry the last sampled point forward.
    """
    points = record.trace
    carried = []
    i = 0
    for gen in range(record.generations + 1):
        while i + 1 < len(points) and points[i + 1].generation <= gen:
            i += 1
        carried.append(points[i])
    return carried


def _normalized(init: float, value: float, bf_star: float) -> float:
    span = init - bf_star
    if span <= 0:
        return 0.0
    return min(1.0, max(0.0, (value - bf_star) / span))


def serial_trace_rows(legs, stars):
    """Per-generation rows [gen, evals, best..., f_norm..., f_norm_avg] of legs run in series.

    legs lists (RunRecord, task positions) pairs in the order they ran, the
    positions in task order across the legs: one leg with every task for an
    mt run, one leg per task for the serial single-task schedule (the way a
    single-task solver works through the task list on the combined budget).
    The legs share one generation axis.  Before a leg starts its tasks' best
    costs are unknown (None) and their normalized objectives sit at 1.0;
    after it ends its values stay frozen.  Evals add up over the legs that
    have started.
    """
    num_tasks = sum(len(positions) for _, positions in legs)
    carried = [carried_trace(rec) for rec, _ in legs]
    offsets = list(itertools.accumulate((rec.generations for rec, _ in legs), initial=0))
    rows = []
    for gen in range(offsets[-1] + 1):
        bests = [None] * num_tasks
        norms = [1.0] * num_tasks
        evals = 0
        for (rec, positions), points, offset in zip(legs, carried, offsets):
            if gen < offset:
                break
            point = points[min(gen - offset, rec.generations)]
            evals += point.evals
            for slot, pos in enumerate(positions):
                bests[pos] = point.best[slot]
                norms[pos] = _normalized(rec.trace[0].best[slot], point.best[slot], stars[pos])
        rows.append([gen, evals] + bests + norms + [sum(norms) / num_tasks])
    return rows


def summary_csv_rows(table: SummaryTable):
    """Yield the summary header, then one row per entry, as CSV fields."""
    yield ["instance", "mode", "task", "runs", "num_opt", "mean_num_evals", "bf", "avg"]
    for row in table.rows:
        yield [
            row.instance,
            row.mode,
            row.task,
            row.runs,
            row.num_opt,
            "" if row.mean_num_evals is None else repr(row.mean_num_evals),
            repr(row.bf),
            repr(row.avg),
        ]


def write_summary_csv(table: SummaryTable, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(summary_csv_rows(table))


def read_summary_csv(path) -> SummaryTable:
    rows = []
    with open(path, "r", newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        for entry in reader:
            rows.append(
                SummaryRow(
                    instance=entry["instance"],
                    mode=entry["mode"],
                    task=int(entry["task"]),
                    runs=int(entry["runs"]),
                    num_opt=int(entry["num_opt"]),
                    mean_num_evals=(
                        None if entry["mean_num_evals"] == "" else float(entry["mean_num_evals"])
                    ),
                    bf=float(entry["bf"]),
                    avg=float(entry["avg"]),
                )
            )
    return SummaryTable(rows=rows)


def write_outputs(result: ExperimentResult) -> None:
    """Emit summary.csv, trace_<run>.csv and config.json into the out_path directory."""
    out = result.config.out_path
    if out is None:
        return
    table = summarize(result)
    write_summary_csv(table, os.path.join(out, "summary.csv"))
    stars = [row.bf for row in table.rows]  # best cost per task over every run
    num_tasks = len(stars)
    header = (
        ["generation", "evals"]
        + [f"best_task{pos + 1}" for pos in range(num_tasks)]
        + [f"f{pos + 1}_norm" for pos in range(num_tasks)]
        + ["f_norm_avg"]
    )
    for run_index in range(result.config.runs):
        rows = serial_trace_rows(_legs(result, run_index), stars)
        with open(
            os.path.join(out, f"trace_{run_index}.csv"), "w", newline="", encoding="utf-8"
        ) as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            for row in rows:
                writer.writerow(row[:2] + ["" if x is None else repr(x) for x in row[2:]])
    payload = dataclasses.asdict(result.config)
    payload["out_path"] = os.fspath(out)
    payload["instances"] = list(result.labels)
    payload["run_seeds"] = [result.config.run_seed(r) for r in range(result.config.runs)]
    payload["seed_policy"] = "run r uses seed = base_seed XOR r"
    with open(os.path.join(out, "config.json"), "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the configured mode over all runs and emit outputs if requested.

    The output directory is created before the first run, so a path that
    cannot hold it fails before any evaluation is spent.
    """
    config.validate()
    tasks, labels = resolve_tasks(config)
    if config.out_path is not None:
        try:
            os.makedirs(config.out_path, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot create output directory {config.out_path!r}: {exc}"
            ) from exc
    result = ExperimentResult(config=config, labels=labels)
    if config.mode == "st":
        result.st_records = {
            task.task_id: _runs(config, [dataclasses.replace(task, task_id=1)])
            for task in tasks
        }
    else:
        result.mt_records = _runs(config, tasks)
    write_outputs(result)
    return result

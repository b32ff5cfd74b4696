"""Generational loop of the multitask linkage-tree genetic algorithm.

One run: initialize a shared population evaluated on every task, then per
generation rebuild the per-task linkage trees, run assortative mating, and
keep the fittest n individuals out of the union of the current population and
the intermediate pool (offspring plus backups).  The loop stops at the
evaluation budget, or as soon as every task with a known optimum has been
solved.  Budget checks sit at generation boundaries, so a run can overshoot
max_evals by at most one generation's worth of evaluations.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigurationError
from .linkage import build_all_trees
from .mfo import (
    Population,
    TaskDefinition,
    initialize_population,
    require_int,
    select_fittest,
)
from .variation import assortative_mating


@dataclass
class TracePoint:
    """Best-so-far cost per task at one sampled generation."""

    generation: int
    evals: int
    best: tuple


@dataclass
class RunRecord:
    """Outcome of one run; wall_time is diagnostic and not part of run identity."""

    task_ids: tuple
    best_found: tuple
    evals_to_success: tuple
    optimum_found: tuple
    generations: int
    total_evals: int
    trace: list
    wall_time: float

    def to_dict(self) -> dict:
        return {
            "task_ids": list(self.task_ids),
            "best_found": list(self.best_found),
            "evals_to_success": list(self.evals_to_success),
            "optimum_found": list(self.optimum_found),
            "generations": self.generations,
            "total_evals": self.total_evals,
            "trace": [[p.generation, p.evals, list(p.best)] for p in self.trace],
        }


def validate_run_parameters(
    pop_size: int, max_evals: int, max_p: int, mutation_rate: float, trace_every: int
) -> None:
    """Raise ConfigurationError on a run parameter outside its domain."""
    for name, value in (
        ("pop_size", pop_size),
        ("max_evals", max_evals),
        ("max_p", max_p),
        ("trace_every", trace_every),
    ):
        require_int(name, value)
    if pop_size < 2 or pop_size % 2 != 0:
        raise ConfigurationError("population size must be even and >= 2")
    if max_evals < 0:
        raise ConfigurationError("max_evals must be >= 0")
    if max_p < 0:
        raise ConfigurationError("max_p must be >= 0")
    if isinstance(mutation_rate, bool) or not isinstance(mutation_rate, (int, float)):
        raise ConfigurationError(f"mutation_rate must be an int or float, got {mutation_rate!r}")
    if not 0.0 <= mutation_rate <= 1.0:
        raise ConfigurationError("mutation rate must lie in [0, 1]")
    if trace_every < 1:
        raise ConfigurationError("trace_every must be >= 1")


def run_mfltga(
    tasks: Sequence[TaskDefinition],
    *,
    pop_size: int,
    max_evals: int,
    seed: int,
    max_p: int = 10,
    mutation_rate: float = 0.05,
    trace_every: int = 1,
) -> RunRecord:
    """Run the full loop on the given tasks with a dedicated seeded RNG.

    Raises ConfigurationError on a bad keyword value before any evaluation.
    """
    validate_run_parameters(pop_size, max_evals, max_p, mutation_rate, trace_every)
    rng = random.Random(seed)
    start = time.perf_counter()
    pop = initialize_population(tasks, pop_size, rng)
    ledger = pop.ledger
    trace = [TracePoint(0, ledger.count, tuple(ledger.best))]
    generation = 0
    while ledger.count < max_evals and not ledger.all_known_solved():
        trees = build_all_trees(pop, tasks)
        outcome = assortative_mating(
            pop, trees, rng, max_p=max_p, mutation_rate=mutation_rate
        )
        intermediate = Population(outcome.offspring_pop + outcome.backup_pop, ledger)
        pop = select_fittest(pop, intermediate, pop_size)
        generation += 1
        if generation % trace_every == 0:
            trace.append(TracePoint(generation, ledger.count, tuple(ledger.best)))
    if trace[-1].generation != generation:
        trace.append(TracePoint(generation, ledger.count, tuple(ledger.best)))
    return RunRecord(
        task_ids=tuple(t.task_id for t in tasks),
        best_found=tuple(ledger.best),
        evals_to_success=tuple(ledger.first_success),
        optimum_found=tuple(s is not None for s in ledger.first_success),
        generations=generation,
        total_evals=ledger.count,
        trace=trace,
        wall_time=time.perf_counter() - start,
    )

"""Generational loop of the multitask linkage-tree genetic algorithm.

One run: initialize a shared population evaluated on every task, then per
generation rebuild the per-task crossover masks, run assortative mating, and
keep the fittest n individuals out of the current population and its
offspring.  A mixed pair's losing parent survives, if at all, as a current
member.  The loop stops at the evaluation budget, or as soon as every task
with a known optimum has been solved.  Budget checks sit at generation
boundaries, so a run can overshoot max_evals by at most one generation's
worth of evaluations.

Mutation is off by default, as in Thierens' LTGA, which has none; a per-gene
reset rate can still be given.  With mutation off, the run also ends after a
generation that evaluated nothing, or whose survivors all hold one genotype:
crossover only exchanges genes between parents, so it can make no new
genotype from such a population.  Without these exits a converged population
would loop until its budget, which it may spend slowly or never: crossover
skips the masks on which a pair agrees, and in a mixed pair a parent is
charged for the selected task while copies of it lose every selection tie.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from .errors import ConfigurationError
from .linkage import build_all_trees
from .mfo import (
    SUCCESS_TOLERANCE,
    Population,
    TaskDefinition,
    initialize_population,
    require_int,
    select_fittest,
)
from .variation import assortative_mating

# Thierens' LTGA has no mutation; a per-gene reset rate is opt-in.
DEFAULT_MUTATION_RATE = 0.0


@dataclass
class TracePoint:
    """Best-so-far cost per task at one sampled generation."""

    generation: int
    evals: int
    best: tuple


@dataclass
class RunRecord:
    """Outcome of one run, and nothing but its identity: equal records mean equal runs."""

    task_ids: tuple
    best_found: tuple
    evals_to_success: tuple
    generations: int
    total_evals: int
    trace: list

    @property
    def optimum_found(self) -> tuple:
        """Per task, whether the run reached its known optimum."""
        return tuple(hit is not None for hit in self.evals_to_success)

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
    pop_size: int, max_evals: int, seed: int, max_p: int, mutation_rate: float, trace_every: int
) -> None:
    """Raise ConfigurationError on a run parameter outside its domain."""
    for name, value in (
        ("pop_size", pop_size),
        ("max_evals", max_evals),
        ("seed", seed),
        ("max_p", max_p),
        ("trace_every", trace_every),
    ):
        require_int(name, value)
    if pop_size < 2 or pop_size % 2 != 0:
        raise ConfigurationError("population size must be even and >= 2")
    if max_evals < 0:
        raise ConfigurationError("max_evals must be >= 0")
    # random.Random(-s) is random.Random(s): a negative seed repeats another run
    if seed < 0:
        raise ConfigurationError("seed must be >= 0")
    if max_p < 0:
        raise ConfigurationError("max_p must be >= 0")
    if isinstance(mutation_rate, bool) or not isinstance(mutation_rate, (int, float)):
        raise ConfigurationError(f"mutation_rate must be an int or float, got {mutation_rate!r}")
    if not 0.0 <= mutation_rate <= 1.0:
        raise ConfigurationError("mutation rate must lie in [0, 1]")
    if trace_every < 1:
        raise ConfigurationError("trace_every must be >= 1")


def run_mfltga(
    tasks: Iterable[TaskDefinition],
    *,
    pop_size: int,
    max_evals: int,
    seed: int,
    max_p: int = 10,
    mutation_rate: float = DEFAULT_MUTATION_RATE,
    trace_every: int = 1,
) -> RunRecord:
    """Run the full loop on the given tasks with a dedicated seeded RNG.

    Raises ConfigurationError on a bad keyword value before any evaluation,
    and after the loop on a best cost below a task's declared optimum by more
    than SUCCESS_TOLERANCE: such an optimum is wrong, its successes unfounded.
    """
    validate_run_parameters(pop_size, max_evals, seed, max_p, mutation_rate, trace_every)
    rng = random.Random(seed)
    pop = initialize_population(tasks, pop_size, rng)
    ledger = pop.ledger
    trace = [TracePoint(0, ledger.count, tuple(ledger.best))]
    generation = 0
    while ledger.count < max_evals and not ledger.all_known_solved():
        evals_before = ledger.count
        masks = build_all_trees(pop)
        outcome = assortative_mating(pop, masks, rng, max_p=max_p, mutation_rate=mutation_rate)
        intermediate = Population(outcome.offspring_pop, ledger)
        pop = select_fittest(pop, intermediate, pop_size)
        generation += 1
        if generation % trace_every == 0:
            trace.append(TracePoint(generation, ledger.count, tuple(ledger.best)))
        if mutation_rate == 0 and (
            ledger.count == evals_before
            or all(ind.genotype == pop.members[0].genotype for ind in pop.members)
        ):
            break
    if trace[-1].generation != generation:
        trace.append(TracePoint(generation, ledger.count, tuple(ledger.best)))
    for task, best in zip(pop.tasks, ledger.best):
        if task.known_optimum is not None and best < task.known_optimum - SUCCESS_TOLERANCE:
            raise ConfigurationError(f"task {task.task_id}: cost {best} beats the declared "
                                     f"optimum {task.known_optimum}")
    return RunRecord(
        task_ids=tuple(t.task_id for t in pop.tasks),
        best_found=tuple(ledger.best),
        evals_to_success=tuple(ledger.first_success),
        generations=generation,
        total_evals=ledger.count,
        trace=trace,
    )

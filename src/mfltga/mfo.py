"""Multifactorial population bookkeeping on a unified search space.

Every individual lives in one genotype space shared by all tasks (length =
largest task dimension, genes drawn from the largest task alphabet).  Per-task
quality is tracked as factorial costs; comparative quality as factorial ranks;
a single scalar fitness and a skill factor summarize which task an individual
is best at.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import ConfigurationError, InvalidStateError

Objective = Callable[[Sequence[int]], float]


@dataclass
class TaskDefinition:
    """One minimization task hosted in the shared search space.

    Attributes
    ----------
    task_id : 1-based identifier; populations expect ids 1..K in order.
    dimension : number of leading genes the objective consumes.
    alphabet_size : size of the categorical gene domain for this task.
    objective : pure function of the first `dimension` genes, lower is better.
    known_optimum : optimal cost if known (enables success accounting).
    """

    task_id: int
    dimension: int
    alphabet_size: int
    objective: Objective
    known_optimum: Optional[float] = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ConfigurationError(f"task {self.task_id}: dimension must be >= 1")
        if self.alphabet_size < 2:
            raise ConfigurationError(f"task {self.task_id}: alphabet_size must be >= 2")


@dataclass
class Individual:
    """A genotype plus its multifactorial bookkeeping.

    factorial_costs[j] is None until the individual has been evaluated on task
    j+1; factorial_ranks mirror that layout.  skill_factor is a 1-based task id.
    punish carries the no-improvement counter across generations.
    """

    genotype: list
    factorial_costs: list
    factorial_ranks: list
    scalar_fitness: Optional[float] = None
    skill_factor: Optional[int] = None
    punish: int = 0

    def working_copy(self) -> "Individual":
        """Copy for variation: same genotype and costs, ranks dropped."""
        return Individual(
            list(self.genotype),
            list(self.factorial_costs),
            [None] * len(self.factorial_ranks),
            punish=self.punish,
        )


class EvalLedger:
    """Central account of objective calls for one run.

    Exactly one tick of `count` per objective invocation, no exceptions, plus
    a per-task tick so each task's own evaluation effort is comparable across
    single-task and multitask runs.  Also records the best cost seen per task
    and the task's call count at the first evaluation that reached its known
    optimum.  A non-finite cost is a broken objective and raises
    ConfigurationError.  The ledger only counts: callers store the returned
    cost themselves.
    """

    def __init__(self, tasks: Sequence[TaskDefinition]):
        self.tasks = list(tasks)
        self.count = 0
        self.task_counts = [0] * len(self.tasks)
        self.best = [math.inf] * len(self.tasks)
        self.first_success = [None] * len(self.tasks)

    def evaluate(self, genotype: Sequence[int], task_id: int) -> float:
        idx = task_id - 1
        task = self.tasks[idx]
        cost = float(task.objective(genotype[: task.dimension]))
        if not math.isfinite(cost):
            raise ConfigurationError(f"task {task_id}: objective returned non-finite cost {cost}")
        self.count += 1
        self.task_counts[idx] += 1
        if cost < self.best[idx]:
            self.best[idx] = cost
        opt = task.known_optimum
        if opt is not None and self.first_success[idx] is None and cost <= opt + 1e-9:
            self.first_success[idx] = self.task_counts[idx]
        return cost

    def all_known_solved(self) -> bool:
        """True when every task that declares an optimum has been hit.

        Tasks without a known optimum never satisfy this, so runs on such
        tasks use the full evaluation budget.
        """
        known = [i for i, t in enumerate(self.tasks) if t.known_optimum is not None]
        return bool(known) and all(self.first_success[i] is not None for i in known)


@dataclass
class Population:
    members: list
    ledger: EvalLedger

    @property
    def tasks(self):
        return self.ledger.tasks


def unified_dimension(tasks: Sequence[TaskDefinition]) -> int:
    return max(t.dimension for t in tasks)


def unified_alphabet(tasks: Sequence[TaskDefinition]) -> int:
    return max(t.alphabet_size for t in tasks)


def random_genotype(tasks: Sequence[TaskDefinition], rng) -> list:
    dim = unified_dimension(tasks)
    alpha = unified_alphabet(tasks)
    return [rng.randrange(alpha) for _ in range(dim)]


def initialize_population(tasks: Sequence[TaskDefinition], n: int, rng) -> Population:
    """Uniform-random population of size n, evaluated on every task.

    This is the only point in a run where individuals are evaluated on all
    tasks; afterwards offspring are charged only for their selected task.
    """
    tasks = list(tasks)
    if not tasks:
        raise ConfigurationError("at least one task is required")
    for pos, task in enumerate(tasks, start=1):
        if task.task_id != pos:
            raise ConfigurationError("task ids must be 1..K in order")
    if n < 2 or n % 2 != 0:
        raise ConfigurationError(f"population size must be even and >= 2, got {n}")
    ledger = EvalLedger(tasks)
    genotypes = [random_genotype(tasks, rng) for _ in range(n)]
    members = [
        Individual(genes, [ledger.evaluate(genes, t.task_id) for t in tasks], [None] * len(tasks))
        for genes in genotypes
    ]
    return assign_ranks_and_skill(Population(members, ledger))


def _rank_members(members: Sequence[Individual], num_tasks: int) -> None:
    """Recompute factorial ranks, scalar fitness and skill factor in place.

    Ranks on task j are 1..count over the members holding a cost on j,
    ascending cost, ties in insertion order (stable sort).  Members without a
    cost on j receive no rank there.  Skill-factor ties over equally ranked
    tasks rotate with the member's position so that copies of one task split
    the population evenly instead of all collapsing onto the lowest task id.
    """
    for ind in members:
        if all(c is None for c in ind.factorial_costs):
            raise InvalidStateError("individual has no factorial cost on any task")
        ind.factorial_ranks = [None] * num_tasks
    for j in range(num_tasks):
        ranked = [ind for ind in members if ind.factorial_costs[j] is not None]
        ranked.sort(key=lambda ind: ind.factorial_costs[j])
        for rank, ind in enumerate(ranked, start=1):
            ind.factorial_ranks[j] = rank
    for pos, ind in enumerate(members):
        present = [(r, j) for j, r in enumerate(ind.factorial_ranks) if r is not None]
        best = min(r for r, _ in present)
        tied = [j for r, j in present if r == best]
        ind.scalar_fitness = 1.0 / best
        ind.skill_factor = tied[pos % len(tied)] + 1


def assign_ranks_and_skill(pop: Population) -> Population:
    """Refresh ranks, scalar fitness and skill factors of a population."""
    _rank_members(pop.members, len(pop.tasks))
    return pop


def select_fittest(current: Population, intermediate: Population, n: int) -> Population:
    """Survivor selection over the union of current and intermediate pools.

    The union is by object identity, so parents that re-enter through the
    backup pool are not double counted.  Ranks and scalar fitness are
    recomputed over the union before truncation.  Ties on scalar fitness are
    broken by the lower factorial cost on the individual's skill task, then
    by pool order (current first).
    """
    pool = []
    seen = set()
    for ind in current.members + intermediate.members:
        if id(ind) not in seen:
            seen.add(id(ind))
            pool.append(ind)
    if len(pool) < n:
        raise InvalidStateError(f"selection pool holds {len(pool)} < {n} individuals")
    _rank_members(pool, len(current.tasks))
    order = sorted(
        range(len(pool)),
        key=lambda i: (
            -pool[i].scalar_fitness,
            pool[i].factorial_costs[pool[i].skill_factor - 1],
            i,
        ),
    )
    survivors = [pool[i] for i in order[:n]]
    return Population(survivors, current.ledger)

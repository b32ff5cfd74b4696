"""Multifactorial population bookkeeping on a unified search space.

Every individual lives in one genotype space shared by all tasks (length =
largest task dimension, genes drawn from the largest task alphabet).  An
individual keeps its genotype, its per-task factorial costs, its skill factor
(the task it is best at) and its restart counter.  Factorial ranks and scalar
fitness compare members of one pool, so they are computed over that pool at
each ranking and never stored on an individual.  Ranking is the only writer
of skill factors; ``task_cost`` charges an individual for a cost it lacks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import ConfigurationError, InvalidStateError

Objective = Callable[[Sequence[int]], float]


def require_int(name: str, value) -> None:
    """Raise ConfigurationError unless value is an int (bool excluded)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{name} must be an int, got {value!r}")


@dataclass
class TaskDefinition:
    """One minimization task hosted in the shared search space.

    Attributes
    ----------
    task_id : 1-based identifier; populations expect ids 1..K in order.
    dimension : number of leading genes the objective consumes.
    alphabet_size : size of the categorical gene domain for this task.
    objective : pure function of the first `dimension` genes, lower is better.
        It must neither modify nor keep the sequence it is given: when the
        genotype is exactly `dimension` genes long the objective receives the
        live genotype, which tree crossover then swaps in place.
    known_optimum : optimal cost if known (enables success accounting).
    """

    task_id: int
    dimension: int
    alphabet_size: int
    objective: Objective
    known_optimum: Optional[float] = None

    def __post_init__(self):
        for name in ("task_id", "dimension", "alphabet_size"):
            require_int(name, getattr(self, name))
        if self.dimension < 1:
            raise ConfigurationError(f"task {self.task_id}: dimension must be >= 1")
        if self.alphabet_size < 2:
            raise ConfigurationError(f"task {self.task_id}: alphabet_size must be >= 2")


@dataclass
class Individual:
    """A genotype plus the state that carries over between generations.

    factorial_costs[j] is None until the individual has been evaluated on task
    j+1.  skill_factor is a 1-based task id, set at each ranking.  punish
    carries the no-improvement counter across generations.  Factorial ranks
    and scalar fitness are computed over the pool at each ranking.
    """

    genotype: list
    factorial_costs: list
    skill_factor: Optional[int] = None
    punish: int = 0


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
        if len(genotype) != task.dimension:
            genotype = genotype[: task.dimension]
        cost = float(task.objective(genotype))
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


def unified_alphabet(tasks: Sequence[TaskDefinition]) -> int:
    """Gene alphabet of the shared space: the largest alphabet any task declares."""
    return max(t.alphabet_size for t in tasks)


def random_genotype(tasks: Sequence[TaskDefinition], rng) -> list:
    alpha = unified_alphabet(tasks)
    return [rng.randrange(alpha) for _ in range(max(t.dimension for t in tasks))]


def task_cost(ind: Individual, task_id: int, ledger: EvalLedger) -> float:
    """ind's cost on task task_id; a missing one is evaluated once and stored."""
    idx = task_id - 1
    cost = ind.factorial_costs[idx]
    if cost is None:
        cost = ind.factorial_costs[idx] = ledger.evaluate(ind.genotype, task_id)
    return cost


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
        Individual(genes, [ledger.evaluate(genes, t.task_id) for t in tasks]) for genes in genotypes
    ]
    rank_members(members, len(tasks))
    return Population(members, ledger)


def factorial_ranks(members: Sequence[Individual], num_tasks: int) -> list:
    """Rank table: ranks[i][j] is member i's factorial rank on task j+1.

    Ranks on task j+1 are 1..count over the members holding a cost on it,
    ascending cost, ties in member order (stable sort).  A member without a
    cost on a task gets None there.  The members are not modified.
    """
    ranks = [[None] * num_tasks for _ in members]
    for j in range(num_tasks):
        holders = [i for i, ind in enumerate(members) if ind.factorial_costs[j] is not None]
        holders.sort(key=lambda i: members[i].factorial_costs[j])
        for rank, i in enumerate(holders, start=1):
            ranks[i][j] = rank
    return ranks


def rank_members(members: Sequence[Individual], num_tasks: int) -> list:
    """Set each member's skill factor; return each member's scalar fitness.

    Scalar fitness is 1 / best factorial rank and the skill factor is the task
    holding that rank.  Ties over equally ranked tasks rotate with the
    member's position so that copies of one task split the population evenly
    instead of all collapsing onto the lowest task id.
    """
    for ind in members:
        if all(c is None for c in ind.factorial_costs):
            raise InvalidStateError("individual has no factorial cost on any task")
    fitness = []
    for pos, (ind, row) in enumerate(zip(members, factorial_ranks(members, num_tasks))):
        best = min(r for r in row if r is not None)
        tied = [j for j, r in enumerate(row) if r == best]
        ind.skill_factor = tied[pos % len(tied)] + 1
        fitness.append(1.0 / best)
    return fitness


def select_fittest(current: Population, intermediate: Population, n: int) -> Population:
    """Survivor selection over the union of current and intermediate pools.

    The union is by object identity, so parents that re-enter through the
    backup pool are not double counted.  The union is ranked afresh before
    truncation by scalar fitness.  Ties on scalar fitness are broken by the
    lower factorial cost on the individual's skill task, then by pool order
    (current first).
    """
    pool = []
    seen = set()
    for ind in current.members + intermediate.members:
        if id(ind) not in seen:
            seen.add(id(ind))
            pool.append(ind)
    if len(pool) < n:
        raise InvalidStateError(f"selection pool holds {len(pool)} < {n} individuals")
    fitness = rank_members(pool, len(current.tasks))
    order = sorted(
        range(len(pool)),
        key=lambda i: (-fitness[i], pool[i].factorial_costs[pool[i].skill_factor - 1], i),
    )
    survivors = [pool[i] for i in order[:n]]
    return Population(survivors, current.ledger)

"""Variation: assortative mating, linkage-tree crossover, mutation.

The mating flow pairs the population at random.  Parents sharing a skill
factor recombine inside that task; mixed pairs flip a fair coin for the task,
and the parent whose task lost the coin is copied unchanged into the backup
pool.  Offspring are charged only on the selected task, through
``mfo.task_cost``; their skill factors are left to the next ranking.
Crossover walks the selected task's linkage tree top down, swapping
each cluster mask in place between the working pair and undoing the swap
unless a child strictly beats both current parents on the selected task.
Pairs that survive a whole traversal unimproved accumulate punishment; past
the threshold the pair is replaced by fresh random individuals.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigurationError, InvalidStateError
from .mfo import (
    EvalLedger,
    Individual,
    Population,
    TaskDefinition,
    random_genotype,
    task_cost,
    unified_alphabet,
)


@dataclass
class MatingOutcome:
    """Offspring (best of each pair) plus the unselected mixed-pair parents."""

    offspring_pop: list
    backup_pop: list


def tree_crossover(
    parent_i: Individual,
    parent_j: Individual,
    masks: Sequence[Sequence[int]],
    task: TaskDefinition,
    max_p: int,
    rng,
    ledger: EvalLedger,
):
    """Greedy mask-swap traversal of one task's crossover masks for one pair.

    Each mask's genes are swapped in place between the working copies of the
    parents and both are evaluated on the task; the swap is kept only when one
    child strictly beats both current costs, else it is swapped back.  If no
    swap is kept the pair's counter (the larger parent punish value) grows,
    and past max_p the pair restarts from two fresh random individuals.  Both
    offspring carry the resulting counter.
    """
    tid = task.task_id
    idx = tid - 1
    off_i, off_j = (
        Individual(list(p.genotype), list(p.factorial_costs), punish=p.punish)
        for p in (parent_i, parent_j)
    )
    cost_i, cost_j = task_cost(off_i, tid, ledger), task_cost(off_j, tid, ledger)
    gi, gj = off_i.genotype, off_j.genotype
    improved = False
    for mask in masks:
        for g in mask:
            gi[g], gj[g] = gj[g], gi[g]
        new_i = ledger.evaluate(gi, tid)
        new_j = ledger.evaluate(gj, tid)
        if min(new_i, new_j) < min(cost_i, cost_j):
            cost_i, cost_j = new_i, new_j
            improved = True
        else:
            for g in mask:
                gi[g], gj[g] = gj[g], gi[g]
    if improved:
        n_p = 0
        # changed genotypes hold a cost on the selected task only
        for off, cost in ((off_i, cost_i), (off_j, cost_j)):
            off.factorial_costs = [None] * len(ledger.tasks)
            off.factorial_costs[idx] = cost
    else:
        n_p = max(parent_i.punish, parent_j.punish) + 1
        if n_p > max_p:
            off_i = Individual(random_genotype(ledger.tasks, rng), [None] * len(ledger.tasks))
            off_j = Individual(random_genotype(ledger.tasks, rng), [None] * len(ledger.tasks))
            task_cost(off_i, tid, ledger)
            task_cost(off_j, tid, ledger)
            n_p = 0
    off_i.punish = off_j.punish = n_p
    return off_i, off_j


def mutate(ind: Individual, rate: float, rng, alphabet_size: int) -> Individual:
    """Reset each gene to a uniform-random value with probability rate.

    Cached factorial costs are dropped only when the genotype actually
    changed, so a no-op mutation costs no re-evaluation.
    """
    if not 0.0 <= rate <= 1.0:
        raise ConfigurationError(f"mutation rate must lie in [0, 1], got {rate}")
    if rate == 0.0:
        return ind
    changed = False
    for g in range(len(ind.genotype)):
        if rng.random() < rate:
            value = rng.randrange(alphabet_size)
            if value != ind.genotype[g]:
                changed = True
            ind.genotype[g] = value
    if changed:
        ind.factorial_costs = [None] * len(ind.factorial_costs)
    return ind


def assortative_mating(
    pop: Population,
    trees: Sequence,
    rng,
    *,
    max_p: int = 10,
    mutation_rate: float = 0.0,
) -> MatingOutcome:
    """One generation of pairing, task selection and tree crossover.

    trees holds one linkage tree per task; each tree's crossover masks are
    sorted once here and shared by every pair that selects its task.  Returns
    the best offspring of each pair, holding a cost on the pair's selected
    task and no skill factor until the next ranking, plus the backup pool of
    unmodified parents whose skill task lost the coin flip.
    """
    members = pop.members
    if len(members) % 2 != 0:
        raise InvalidStateError("population size must be even to form pairs")
    masks_by_task = {tree.task_id: tree.crossover_masks() for tree in trees}
    task_by_id = {t.task_id: t for t in pop.tasks}
    alphabet = unified_alphabet(pop.tasks)
    order = list(range(len(members)))
    rng.shuffle(order)
    offspring = []
    backup = []
    for a, b in zip(order[::2], order[1::2]):
        pa, pb = members[a], members[b]
        if pa.skill_factor == pb.skill_factor:
            selected = pa.skill_factor
        else:
            selected = pa.skill_factor if rng.random() < 0.5 else pb.skill_factor
            backup.append(pb if selected == pa.skill_factor else pa)
        masks = masks_by_task.get(selected)
        if masks is None:
            raise InvalidStateError(f"no linkage tree supplied for task {selected}")
        off_i, off_j = tree_crossover(pa, pb, masks, task_by_id[selected], max_p, rng, pop.ledger)
        mutate(off_i, mutation_rate, rng, alphabet)
        mutate(off_j, mutation_rate, rng, alphabet)
        if task_cost(off_i, selected, pop.ledger) <= task_cost(off_j, selected, pop.ledger):
            offspring.append(off_i)
        else:
            offspring.append(off_j)
    return MatingOutcome(offspring_pop=offspring, backup_pop=backup)

"""Variation: assortative mating, mask-swap crossover, optional mutation.

The mating flow pairs the population at random.  Parents sharing a skill
factor recombine inside that task; mixed pairs flip a fair coin for the task.
The parent whose task lost the coin is listed as the pair's backup, a report
of mixed pairs only: it survives, if at all, as a current member.  Offspring
are charged only on the selected task, through ``mfo.task_cost``; their skill
factors are left to the next ranking.
Crossover walks the selected task's crossover masks in order; each mask's
two children, built by copy, replace the working pair only if one strictly
beats both current costs on the selected task (see ``tree_crossover``).
Pairs that survive a whole traversal unimproved accumulate punishment; past
the threshold the pair is replaced by fresh random individuals.
Mutation, a per-gene reset of each offspring, is not part of LTGA and runs
only at a non-zero rate; the engine's default rate is 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import ne
from typing import Sequence

from .errors import ConfigurationError, InvalidStateError
from .mfo import (
    EvalLedger,
    Individual,
    Population,
    random_genotype,
    task_cost,
    unified_alphabet,
)


@dataclass
class MatingOutcome:
    """Offspring (best of each pair) plus the losing parent of each mixed pair.

    Selection reads only offspring_pop; backup_pop reports the mixed pairs.
    """

    offspring_pop: list
    backup_pop: list


def tree_crossover(
    parent_i: Individual,
    parent_j: Individual,
    masks: Sequence[Sequence[int]],
    tid: int,
    max_p: int,
    rng,
    ledger: EvalLedger,
):
    """Greedy mask-swap traversal of task tid's crossover masks for one pair.

    Each mask builds two children, copies of the current pair with the mask's
    genes taken from the other side, evaluated on the task; they become the
    pair only when one strictly beats both current costs.  No genotype is
    written here once built, so parents and evaluated genotypes never change;
    a parent's missing cost on the task is evaluated on entry and stored only
    on its offspring.
    A mask that meets none of the positions where the pair differs costs no
    evaluation; children only exchange values, so those positions stay fixed
    for the whole traversal.  If no children are kept the pair's counter (the
    larger parent punish value) grows, and past max_p the pair restarts from
    two fresh random individuals.  Both offspring carry the resulting counter.
    """
    idx = tid - 1
    gi, gj = parent_i.genotype, parent_j.genotype
    evaluate = ledger.evaluate
    cost_i, cost_j = parent_i.factorial_costs[idx], parent_j.factorial_costs[idx]
    if cost_i is None:
        cost_i = evaluate(gi, tid)
    if cost_j is None:
        cost_j = evaluate(gj, tid)
    best = min(cost_i, cost_j)
    agrees_on = set(compress(range(len(gi)), map(ne, gi, gj))).isdisjoint
    improved = False
    for mask in masks:
        if agrees_on(mask):
            continue
        ci, cj = gi.copy(), gj.copy()
        for g in mask:
            ci[g], cj[g] = gj[g], gi[g]
        new_i = evaluate(ci, tid)
        new_j = evaluate(cj, tid)
        if new_i < best or new_j < best:
            gi, gj = ci, cj
            cost_i, cost_j = new_i, new_j
            best = min(new_i, new_j)
            improved = True
    if improved:
        n_p = 0
        # changed genotypes hold a cost on the selected task only
        off_i, off_j = (Individual(g, [None] * len(ledger.tasks)) for g in (gi, gj))
        off_i.factorial_costs[idx], off_j.factorial_costs[idx] = cost_i, cost_j
    else:
        n_p = max(parent_i.punish, parent_j.punish) + 1
        if n_p > max_p:
            off_i = Individual(random_genotype(ledger.tasks, rng), [None] * len(ledger.tasks))
            off_j = Individual(random_genotype(ledger.tasks, rng), [None] * len(ledger.tasks))
            task_cost(off_i, tid, ledger)
            task_cost(off_j, tid, ledger)
            n_p = 0
        else:
            off_i = Individual(gi.copy(), parent_i.factorial_costs.copy())
            off_j = Individual(gj.copy(), parent_j.factorial_costs.copy())
            off_i.factorial_costs[idx], off_j.factorial_costs[idx] = cost_i, cost_j
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
    masks: Sequence[Sequence[Sequence[int]]],
    rng,
    *,
    max_p: int,
    mutation_rate: float,
) -> MatingOutcome:
    """One generation of pairing, task selection and mask-swap crossover.

    masks[j] holds task j + 1's crossover masks, shared by every pair that
    selects that task.  Returns the best offspring of each pair, holding a
    cost on the pair's selected task and no skill factor until the next
    ranking, plus one backup per mixed pair, the parent whose skill task lost
    the coin flip.  Selection does not read the backups: a losing parent
    survives, if at all, as a current member.
    """
    members = pop.members
    if len(members) % 2 != 0:
        raise InvalidStateError("population size must be even to form pairs")
    if len(masks) != len(pop.tasks):
        raise InvalidStateError(
            f"need one mask list per task, got {len(masks)} for {len(pop.tasks)} tasks"
        )
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
        off_i, off_j = tree_crossover(pa, pb, masks[selected - 1], selected, max_p, rng, pop.ledger)
        mutate(off_i, mutation_rate, rng, alphabet)
        mutate(off_j, mutation_rate, rng, alphabet)
        if task_cost(off_i, selected, pop.ledger) <= task_cost(off_j, selected, pop.ledger):
            offspring.append(off_i)
        else:
            offspring.append(off_j)
    return MatingOutcome(offspring_pop=offspring, backup_pop=backup)

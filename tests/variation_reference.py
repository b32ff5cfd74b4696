"""Tree crossover as it stood before the in-place swap: a test oracle.

``tree_crossover`` and ``_fresh_individual`` are kept as they were, building
two candidate individuals per mask from fresh genotype copies and sorting the
tree's masks on every call.  The adaptations are that each call site stores
the cost the ledger returns, since the ledger no longer writes into an
individual, and that individuals are built and copied without the rank and
fitness fields they no longer have.  Nothing under ``src/`` imports this module.
"""
from __future__ import annotations

from mfltga.linkage import LinkageTree
from mfltga.mfo import EvalLedger, Individual, TaskDefinition, random_genotype


def _fresh_individual(ledger: EvalLedger, task_id: int, rng) -> Individual:
    k = len(ledger.tasks)
    ind = Individual(random_genotype(ledger.tasks, rng), [None] * k)
    ind.factorial_costs[task_id - 1] = ledger.evaluate(ind.genotype, task_id)
    return ind


def tree_crossover(
    parent_i: Individual,
    parent_j: Individual,
    tree: LinkageTree,
    task: TaskDefinition,
    max_p: int,
    rng,
    ledger: EvalLedger,
):
    """Greedy mask-swap traversal of the linkage tree for one pair.

    Every visited mask produces two candidates (both evaluated on the task);
    the candidate pair replaces the working pair only when one candidate is
    strictly better than both current working parents.  If the whole
    traversal brings no replacement the pair's counter (the larger of the
    parents' punish values) grows, and past max_p the pair restarts from two
    fresh random individuals.  Both offspring carry the resulting counter.
    """
    tid = task.task_id
    off_i = Individual(list(parent_i.genotype), list(parent_i.factorial_costs), punish=parent_i.punish)
    off_j = Individual(list(parent_j.genotype), list(parent_j.factorial_costs), punish=parent_j.punish)
    for off in (off_i, off_j):
        if off.factorial_costs[tid - 1] is None:
            off.factorial_costs[tid - 1] = ledger.evaluate(off.genotype, tid)
    improved = False
    k = len(ledger.tasks)
    for mask in tree.crossover_masks():
        cand_i = Individual(list(off_i.genotype), [None] * k)
        cand_j = Individual(list(off_j.genotype), [None] * k)
        for g in mask:
            cand_i.genotype[g] = off_j.genotype[g]
            cand_j.genotype[g] = off_i.genotype[g]
        cost_ci = cand_i.factorial_costs[tid - 1] = ledger.evaluate(cand_i.genotype, tid)
        cost_cj = cand_j.factorial_costs[tid - 1] = ledger.evaluate(cand_j.genotype, tid)
        best_current = min(off_i.factorial_costs[tid - 1], off_j.factorial_costs[tid - 1])
        if min(cost_ci, cost_cj) < best_current:
            off_i, off_j = cand_i, cand_j
            improved = True
    if improved:
        n_p = 0
    else:
        n_p = max(parent_i.punish, parent_j.punish) + 1
        if n_p > max_p:
            off_i = _fresh_individual(ledger, tid, rng)
            off_j = _fresh_individual(ledger, tid, rng)
            n_p = 0
    off_i.punish = off_j.punish = n_p
    return off_i, off_j

"""tree_crossover against the reference copy in variation_reference.py.

Building each mask's two children by copy must leave the same offspring, the
same best costs and the same RNG state as the former candidate-building
traversal, over seeded pairs on one to three tasks of mixed dimensions, with
kept swaps, stagnation and restarts all exercised.  Genotypes take the type
the engine gives them: even cases draw alphabets of 2-4 letters and run on
bytearrays, odd cases lift them past 256 letters and run on lists.  The
reference evaluates both children of every mask; tree_crossover skips a mask
on which the parents agree at every gene, so its ledger counts exactly two
evaluations fewer per such mask.
"""
import copy
import random
from collections import Counter

import pytest

import variation_reference
from mfltga.linkage import build_tree
from mfltga.mfo import (
    EvalLedger,
    Individual,
    TaskDefinition,
    random_genotype,
    unified_alphabet,
)
from mfltga.variation import tree_crossover


def rugged_task(task_id, dimension, alphabet, seed):
    """Weighted gene sum modulo 7: plateaus and ties, optimum 0 declared on task 1."""
    weights = random.Random(seed).choices(range(1, 6), k=dimension)
    return TaskDefinition(
        task_id=task_id,
        dimension=dimension,
        alphabet_size=alphabet,
        objective=lambda genes: float(sum(w * g for w, g in zip(weights, genes)) % 7),
        known_optimum=0.0 if task_id == 1 else None,
    )


def random_parent(tasks, selected, max_p, rng):
    """Parent with costs on a random subset of tasks, sometimes none on the selected one."""
    genes = random_genotype(tasks, rng)
    costs = [
        t.objective(genes[: t.dimension]) if rng.random() < 0.5 else None for t in tasks
    ]
    if rng.random() < 0.5:
        costs[selected - 1] = None
    return Individual(genes, costs, punish=rng.randrange(max_p + 2))


def run_ledger(tasks, parents):
    """Fresh ledger that has seen every cost the parents hold, as a run's ledger has."""
    ledger = EvalLedger(tasks)
    for p in parents:
        for t, cost in zip(tasks, p.factorial_costs):
            if cost is not None:
                assert ledger.evaluate(p.genotype, t.task_id) == cost
    return ledger


def agreeing_masks(parents, masks):
    """Masks on which both parents hold the same value at every gene."""
    gi, gj = (p.genotype for p in parents)
    return sum(all(gi[g] == gj[g] for g in mask) for mask in masks)


@pytest.mark.parametrize("max_p", [0, 1, 10])
@pytest.mark.parametrize("num_tasks", [1, 2, 3])
def test_tree_crossover_matches_the_reference(num_tasks, max_p):
    rng = random.Random(1000 * num_tasks + max_p)
    outcomes = Counter()
    for case in range(60):
        lift = 255 * (case % 2)
        tasks = [
            rugged_task(tid, rng.randrange(3, 13), rng.randrange(2, 5) + lift, rng.random())
            for tid in range(1, num_tasks + 1)
        ]
        task = rng.choice(tasks)
        tid = task.task_id
        parents = [random_parent(tasks, tid, max_p, rng) for _ in range(2)]
        rows = [
            [rng.randrange(unified_alphabet(tasks)) for _ in range(task.dimension)]
            for _ in range(rng.randrange(2, 20))
        ]
        tree = build_tree(rows)
        seed = rng.random()

        ref_ledger, ref_rng = run_ledger(tasks, parents), random.Random(seed)
        held = ref_ledger.count
        ref = variation_reference.tree_crossover(
            *copy.deepcopy(parents), tree, task, max_p, ref_rng, ref_ledger
        )
        new_ledger, new_rng = run_ledger(tasks, parents), random.Random(seed)
        pi, pj = copy.deepcopy(parents)
        masks = tree.crossover_masks()
        new = tree_crossover(pi, pj, masks, tid, max_p, new_rng, new_ledger)

        kind = bytearray if lift == 0 else list
        assert all(type(p.genotype) is kind for p in parents)
        for got, want in zip(new, ref):
            assert type(got.genotype) is kind
            assert list(got.genotype) == list(want.genotype)
            assert got.factorial_costs == want.factorial_costs
            assert got.punish == want.punish
            assert got.skill_factor is want.skill_factor is None
            assert got.genotype is not pi.genotype and got.genotype is not pj.genotype
        assert new_ledger.best == ref_ledger.best
        assert new_rng.getstate() == ref_rng.getstate()
        assert [pi, pj] == parents

        skipped = 2 * agreeing_masks(parents, masks)
        assert new_ledger.count == ref_ledger.count - skipped
        expected_counts = list(ref_ledger.task_counts)
        expected_counts[tid - 1] -= skipped
        assert new_ledger.task_counts == expected_counts
        assert [hit is None for hit in new_ledger.first_success] == [
            hit is None for hit in ref_ledger.first_success
        ]
        outcomes["skipped masks"] += skipped > 0

        # the reference pays two evaluations per mask, plus two on a restart
        entry = sum(p.factorial_costs[tid - 1] is None for p in parents)
        if ref_ledger.count - held == entry + 2 * len(masks) + 2:
            outcomes["restart"] += 1
        elif new[0].punish > 0:
            outcomes["stagnation"] += 1
        else:
            outcomes["kept swap", kind] += 1
    assert outcomes["kept swap", bytearray] > 0 and outcomes["kept swap", list] > 0
    assert outcomes["restart"] > 0
    assert outcomes["skipped masks"] > 0
    assert (outcomes["stagnation"] > 0) == (max_p > 0)

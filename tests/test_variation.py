import random

import pytest

from mfltga.errors import ConfigurationError, InvalidStateError
from mfltga.linkage import build_all_trees, build_tree
from mfltga.mfo import EvalLedger, Individual, Population, TaskDefinition
from mfltga.variation import (
    MatingOutcome,
    assortative_mating,
    mutate,
    tree_crossover,
)


class ScriptedRandom:
    """random.Random stand-in with queued draws and inert shuffling."""

    def __init__(self, randoms=(), randranges=()):
        self.randoms = list(randoms)
        self.randranges = list(randranges)

    def random(self):
        return self.randoms.pop(0)

    def randrange(self, n):
        return self.randranges.pop(0) % n

    def shuffle(self, seq):
        pass


def sum_task(task_id, dimension=4):
    return TaskDefinition(
        task_id=task_id,
        dimension=dimension,
        alphabet_size=2,
        objective=lambda genes: float(sum(genes)),
    )


def flat_task(task_id, dimension=4):
    """Constant objective: no swap can ever improve, traversals stagnate."""
    return TaskDefinition(
        task_id=task_id,
        dimension=dimension,
        alphabet_size=2,
        objective=lambda genes: 0.0,
    )


def make_pop(tasks, genotypes, skills):
    ledger = EvalLedger(tasks)
    members = []
    for genes, skill in zip(genotypes, skills):
        costs = [ledger.evaluate(genes, t.task_id) for t in tasks]
        ind = Individual(list(genes), costs)
        ind.skill_factor = skill
        members.append(ind)
    return Population(members, ledger)


def paired_masks():
    """Masks of a tree over 4 genes merging {0,1} and {2,3} first."""
    rows = [[0, 0, 1, 1], [1, 1, 0, 0]]
    return build_tree(rows).crossover_masks()


def test_tree_crossover_takes_improving_swaps():
    tasks = [sum_task(1)]
    pop = make_pop(tasks, [[1, 1, 0, 0], [0, 0, 1, 1]], [1, 1])
    pa, pb = pop.members
    rng = ScriptedRandom()
    off_i, off_j = tree_crossover(pa, pb, paired_masks(), 1, 10, rng, pop.ledger)
    # the first mask swap of {2, 3} already separates the pair into the two
    # uniform genotypes, and no later swap beats cost 0
    assert sorted([off_i.genotype, off_j.genotype]) == [[0, 0, 0, 0], [1, 1, 1, 1]]
    assert off_i.punish == 0 and off_j.punish == 0
    # parents stay untouched
    assert pa.genotype == [1, 1, 0, 0]
    assert pb.genotype == [0, 0, 1, 1]


def test_tree_crossover_preserves_position_multisets():
    # without a restart, every position keeps the multiset of parent genes
    tasks = [sum_task(1, dimension=6)]
    rng = random.Random(17)
    for _ in range(40):
        ga = [rng.randrange(2) for _ in range(6)]
        gb = [rng.randrange(2) for _ in range(6)]
        pop = make_pop(tasks, [ga, gb], [1, 1])
        rows = [[rng.randrange(2) for _ in range(6)] for _ in range(8)]
        tree = build_tree(rows)
        off_i, off_j = tree_crossover(
            pop.members[0], pop.members[1], tree.crossover_masks(), 1, 10 ** 6, rng,
            pop.ledger,
        )
        for g in range(6):
            assert sorted([off_i.genotype[g], off_j.genotype[g]]) == sorted([ga[g], gb[g]])


def test_tree_crossover_charges_two_evals_per_mask():
    tasks = [flat_task(1)]
    pop = make_pop(tasks, [[0, 1, 0, 1], [1, 0, 1, 0]], [1, 1])
    masks = paired_masks()
    before = pop.ledger.count
    tree_crossover(pop.members[0], pop.members[1], masks, 1, 10, ScriptedRandom(), pop.ledger)
    assert pop.ledger.count - before == 2 * len(masks)


def test_tree_crossover_skips_masks_on_which_the_pair_agrees():
    # swapping a mask the parents agree on changes neither child, so only the
    # masks meeting the set D of differing genes are evaluated, two calls each
    tasks = [flat_task(1, dimension=6)]
    rng = random.Random(5)
    masks = build_tree([[rng.randrange(2) for _ in range(6)] for _ in range(8)]).crossover_masks()
    for differ in ({0}, {2, 3}, {1, 4, 5}, set(range(6))):
        pop = make_pop(tasks, [[0] * 6, [int(g in differ) for g in range(6)]], [1, 1])
        before = pop.ledger.count
        tree_crossover(pop.members[0], pop.members[1], masks, 1, 10, ScriptedRandom(), pop.ledger)
        meeting = sum(not differ.isdisjoint(mask) for mask in masks)
        assert meeting < len(masks) or differ == set(range(6))
        assert pop.ledger.count - before == 2 * meeting


def test_identical_parents_cost_nothing_until_their_restart():
    tasks = [sum_task(1)]
    pop = make_pop(tasks, [[0, 1, 1, 0], [0, 1, 1, 0]], [1, 1])
    pa, pb = pop.members
    pa.punish = 3
    before = pop.ledger.count
    off_i, off_j = tree_crossover(pa, pb, paired_masks(), 1, 10, ScriptedRandom(), pop.ledger)
    assert pop.ledger.count == before
    assert off_i.punish == off_j.punish == 4
    assert off_i.genotype == off_j.genotype == [0, 1, 1, 0]
    # past max_p the pair still restarts, and only the two newcomers are evaluated
    pa.punish = 10
    rng = ScriptedRandom(randranges=[1, 1, 1, 1, 0, 0, 0, 0])
    off_i, off_j = tree_crossover(pa, pb, paired_masks(), 1, 10, rng, pop.ledger)
    assert pop.ledger.count - before == 2
    assert off_i.punish == off_j.punish == 0
    assert (list(off_i.genotype), list(off_j.genotype)) == ([1, 1, 1, 1], [0, 0, 0, 0])


def test_tree_crossover_evaluates_unevaluated_parents_on_entry():
    tasks = [flat_task(1)]
    ledger = EvalLedger(tasks)
    pa = Individual([0, 1, 0, 1], [None])
    pb = Individual([1, 0, 1, 0], [None])
    masks = paired_masks()
    off_i, off_j = tree_crossover(pa, pb, masks, 1, 10, ScriptedRandom(), ledger)
    assert ledger.count == 2 + 2 * len(masks)
    # nothing improves on a flat task: the entry costs go on the offspring only
    assert off_i.factorial_costs == off_j.factorial_costs == [0.0]
    assert pa.factorial_costs == pb.factorial_costs == [None]


def test_tree_crossover_stagnation_increments_punishment():
    tasks = [flat_task(1)]
    pop = make_pop(tasks, [[0, 1, 0, 1], [1, 0, 1, 0]], [1, 1])
    pop.members[0].punish = 4
    pop.members[1].punish = 2
    off_i, off_j = tree_crossover(
        pop.members[0], pop.members[1], paired_masks(), 1, 10, ScriptedRandom(), pop.ledger
    )
    assert off_i.punish == 5 and off_j.punish == 5
    # no children were kept, so the offspring hold copies of the parents' genotypes
    assert off_i.genotype == [0, 1, 0, 1]
    assert off_j.genotype == [1, 0, 1, 0]


def test_tree_crossover_restarts_past_threshold():
    tasks = [flat_task(1)]
    pop = make_pop(tasks, [[0, 1, 0, 1], [1, 0, 1, 0]], [1, 1])
    masks = paired_masks()
    pop.members[0].punish = 10
    rng = ScriptedRandom(randranges=[1, 1, 1, 1, 0, 0, 0, 0])
    before = pop.ledger.count
    off_i, off_j = tree_crossover(
        pop.members[0], pop.members[1], masks, 1, 10, rng, pop.ledger
    )
    assert off_i.punish == 0 and off_j.punish == 0
    # fresh binary genotypes are bytearrays
    assert list(off_i.genotype) == [1, 1, 1, 1]
    assert list(off_j.genotype) == [0, 0, 0, 0]
    # the two replacement individuals are evaluated as well
    assert pop.ledger.count - before == 2 * len(masks) + 2


def test_tree_crossover_leaves_parents_and_sets_offspring_costs():
    # a kept swap: offspring hold a cost on the selected task only
    tasks = [sum_task(1), sum_task(2)]
    pop = make_pop(tasks, [[1, 1, 0, 0], [0, 0, 1, 1]], [1, 1])
    pa, pb = pop.members
    off_i, off_j = tree_crossover(pa, pb, paired_masks(), 1, 10, ScriptedRandom(), pop.ledger)
    assert off_i.punish == 0
    assert sorted([off_i.factorial_costs, off_j.factorial_costs]) == [[0.0, None], [4.0, None]]
    assert (pa.genotype, pa.factorial_costs) == ([1, 1, 0, 0], [2.0, 2.0])
    assert (pb.genotype, pb.factorial_costs) == ([0, 0, 1, 1], [2.0, 2.0])
    # no kept swap: each offspring keeps its parent's costs on every task
    tasks = [flat_task(1), sum_task(2)]
    pop = make_pop(tasks, [[0, 1, 0, 1], [1, 1, 1, 0]], [1, 1])
    pa, pb = pop.members
    off_i, off_j = tree_crossover(pa, pb, paired_masks(), 1, 10, ScriptedRandom(), pop.ledger)
    assert off_i.punish == 1
    assert off_i.factorial_costs == [0.0, 2.0]
    assert off_j.factorial_costs == [0.0, 3.0]
    assert (pa.genotype, pa.factorial_costs) == ([0, 1, 0, 1], [0.0, 2.0])
    assert (pb.genotype, pb.factorial_costs) == ([1, 1, 1, 0], [0.0, 3.0])
    for off, parent in ((off_i, pa), (off_j, pb)):
        assert off.genotype is not parent.genotype
        assert off.factorial_costs is not parent.factorial_costs
    # working copies carry no skill factor; mating sets it
    assert off_i.skill_factor is None and off_j.skill_factor is None


def test_tree_crossover_writes_no_genotype_it_has_evaluated():
    # the ledger hands the objective the live genotype when it is exactly the
    # task's length, so every object seen must still hold what it held then
    seen = []

    def keeping(genes):
        seen.append((genes, bytes(genes)))
        return float(sum(genes))

    tasks = [TaskDefinition(task_id=1, dimension=6, alphabet_size=2, objective=keeping)]
    ledger = EvalLedger(tasks)
    rng = random.Random(3)
    masks = build_tree([[rng.randrange(2) for _ in range(6)] for _ in range(8)]).crossover_masks()
    kept = 0
    for _ in range(20):
        pa, pb = (
            Individual(bytearray(rng.randrange(2) for _ in range(6)), [None]) for _ in range(2)
        )
        off_i, _ = tree_crossover(pa, pb, masks, 1, 10, rng, ledger)
        kept += off_i.punish == 0
    assert 0 < kept < 20
    assert len(seen) > 40
    assert all(bytes(genes) == held for genes, held in seen)


@pytest.mark.parametrize(
    "task, punish", [(sum_task(1), 0), (flat_task(1), 1)], ids=["kept", "not kept"]
)
def test_mutating_offspring_leaves_the_parents(task, punish):
    # mutate writes an offspring's genotype in place, on both the kept-swap
    # and the no-kept-swap branch
    ledger = EvalLedger([task])
    pa = Individual(bytearray([1, 1, 0, 0]), [None])
    pb = Individual(bytearray([0, 0, 1, 1]), [None])
    offspring = tree_crossover(pa, pb, paired_masks(), 1, 10, ScriptedRandom(), ledger)
    assert all(off.punish == punish for off in offspring)
    for off in offspring:
        flips = [1 - g for g in off.genotype]
        mutate(off, 1.0, ScriptedRandom(randoms=[0.0] * 4, randranges=flips), alphabet_size=2)
        assert list(off.genotype) == flips
    assert (pa.genotype, pb.genotype) == (bytearray([1, 1, 0, 0]), bytearray([0, 0, 1, 1]))


def test_mutate_rate_zero_is_identity():
    ind = Individual([0, 1, 0], [1.0])
    out = mutate(ind, 0.0, ScriptedRandom(), alphabet_size=2)
    assert out is ind
    assert ind.genotype == [0, 1, 0]
    assert ind.factorial_costs == [1.0]


def test_mutate_invalidates_costs_only_on_actual_change():
    # every gene is redrawn to its current value: genotype identical, costs kept
    ind = Individual([0, 1], [1.0])
    rng = ScriptedRandom(randoms=[0.0, 0.0], randranges=[0, 1])
    mutate(ind, 1.0, rng, alphabet_size=2)
    assert ind.genotype == [0, 1]
    assert ind.factorial_costs == [1.0]
    # one gene flips: cached costs are dropped
    rng = ScriptedRandom(randoms=[0.0, 0.0], randranges=[1, 1])
    mutate(ind, 1.0, rng, alphabet_size=2)
    assert ind.genotype == [1, 1]
    assert ind.factorial_costs == [None]


def test_mutate_validates_rate():
    with pytest.raises(ConfigurationError):
        mutate(Individual([0], [None]), 1.5, ScriptedRandom(), 2)


def test_mating_equal_skill_pair_keeps_task_and_backup_stays_empty():
    tasks = [sum_task(1), sum_task(2)]
    pop = make_pop(tasks, [[1, 1, 0, 0], [0, 0, 1, 1]], [2, 2])
    masks = build_all_trees(pop)
    outcome = assortative_mating(pop, masks, ScriptedRandom(), max_p=10, mutation_rate=0.0)
    assert isinstance(outcome, MatingOutcome)
    assert outcome.backup_pop == []
    assert len(outcome.offspring_pop) == 1
    # a kept swap leaves a cost on the shared task 2 only
    assert outcome.offspring_pop[0].factorial_costs == [None, 0.0]


def test_mating_mixed_pair_flips_a_coin_and_backs_up_the_loser():
    tasks = [sum_task(1), sum_task(2)]
    genotypes = [[1, 1, 0, 0], [0, 0, 1, 1]]
    # coin below 0.5: first parent's task wins, second parent is backed up
    pop = make_pop(tasks, genotypes, [1, 2])
    masks = build_all_trees(pop)
    outcome = assortative_mating(
        pop, masks, ScriptedRandom(randoms=[0.3]), max_p=10, mutation_rate=0.0
    )
    assert outcome.offspring_pop[0].factorial_costs == [0.0, None]
    assert len(outcome.backup_pop) == 1
    assert outcome.backup_pop[0] is pop.members[1]
    # coin at or above 0.5: the second parent's task wins instead
    pop = make_pop(tasks, genotypes, [1, 2])
    masks = build_all_trees(pop)
    outcome = assortative_mating(
        pop, masks, ScriptedRandom(randoms=[0.7]), max_p=10, mutation_rate=0.0
    )
    assert outcome.offspring_pop[0].factorial_costs == [None, 0.0]
    assert outcome.backup_pop[0] is pop.members[0]


def test_mating_offspring_hold_a_cost_for_their_task():
    tasks = [sum_task(1), sum_task(2)]
    pop = make_pop(
        tasks,
        [[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]],
        [1, 1, 2, 2],
    )
    masks = build_all_trees(pop)
    outcome = assortative_mating(pop, masks, random.Random(21), max_p=10, mutation_rate=0.0)
    assert len(outcome.offspring_pop) == 2
    # replay the pairing; a mixed pair's selected task is the one whose
    # parent stayed out of the backup pool
    order = list(range(4))
    random.Random(21).shuffle(order)
    backups = iter(outcome.backup_pop)
    for off, a, b in zip(outcome.offspring_pop, order[::2], order[1::2]):
        pa, pb = pop.members[a], pop.members[b]
        if pa.skill_factor == pb.skill_factor:
            selected = pa.skill_factor
        else:
            selected = pb.skill_factor if next(backups) is pa else pa.skill_factor
        assert off.factorial_costs[selected - 1] == float(sum(off.genotype))
        # skill factors come from the next ranking, not from mating
        assert off.skill_factor is None


def test_mating_best_of_pair_prefers_lower_cost_then_first():
    # constant objective: both offspring tie, the first of the pair survives
    tasks = [flat_task(1)]
    pop = make_pop(tasks, [[0, 1, 0, 1], [1, 0, 1, 0]], [1, 1])
    masks = build_all_trees(pop)
    outcome = assortative_mating(pop, masks, ScriptedRandom(), max_p=10, mutation_rate=0.0)
    assert len(outcome.offspring_pop) == 1
    assert outcome.offspring_pop[0].genotype == [0, 1, 0, 1]


def test_mating_with_mutation_reevaluates_changed_offspring():
    tasks = [sum_task(1)]
    pop = make_pop(tasks, [[1, 1, 0, 0], [0, 0, 1, 1]], [1, 1])
    masks = build_all_trees(pop)
    outcome = assortative_mating(pop, masks, random.Random(8), max_p=10, mutation_rate=1.0)
    for off in outcome.offspring_pop:
        assert off.factorial_costs[0] is not None
        assert off.factorial_costs[0] == float(sum(off.genotype))


def test_mating_rejects_odd_populations():
    tasks = [sum_task(1)]
    pop = make_pop(tasks, [[0, 0, 0, 0]], [1])
    masks = build_all_trees(pop)
    with pytest.raises(InvalidStateError):
        assortative_mating(pop, masks, ScriptedRandom(), max_p=10, mutation_rate=0.0)


def test_mating_requires_a_tree_for_the_selected_task():
    tasks = [sum_task(1), sum_task(2)]
    pop = make_pop(tasks, [[1, 1, 0, 0], [0, 0, 1, 1]], [2, 2])
    masks = build_all_trees(pop)[:1]
    with pytest.raises(InvalidStateError, match="one mask list per task, got 1 for 2 tasks"):
        assortative_mating(pop, masks, ScriptedRandom(), max_p=10, mutation_rate=0.0)

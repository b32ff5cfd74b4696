import math
import random
import re

import numpy as np
import pytest

from mfltga.errors import ConfigurationError, InvalidStateError
from mfltga.mfo import (
    EvalLedger,
    Individual,
    Population,
    TaskDefinition,
    factorial_ranks,
    initialize_population,
    random_genotype,
    rank_members,
    select_fittest,
    task_cost,
)
from mfltga.linkage import build_tree
from mfltga.variation import tree_crossover


def sum_task(task_id, dimension=4, optimum=None):
    """Cost = sum of leading genes; lower is better, all-zeros optimal."""
    return TaskDefinition(
        task_id=task_id,
        dimension=dimension,
        alphabet_size=3,
        objective=lambda genes: float(sum(genes)),
        known_optimum=optimum,
    )


def fresh(genotype, k=2):
    return Individual(list(genotype), [None] * k)


def evaluated(ledger, genotype):
    """Individual holding the ledger's cost for it on every task."""
    costs = [ledger.evaluate(genotype, t.task_id) for t in ledger.tasks]
    return Individual(list(genotype), costs)


def test_task_definition_validation():
    with pytest.raises(ConfigurationError):
        sum_task(1, dimension=0)
    with pytest.raises(ConfigurationError):
        TaskDefinition(1, 4, 1, lambda g: 0.0)
    for objective in (None, 3.0):
        with pytest.raises(ConfigurationError, match="task 1: objective must be callable"):
            TaskDefinition(1, 4, 2, objective)
    # integer fields must be ints, and a bool is not one
    for fields in ((1, 3.5, 2), (1, True, 2), (1, 4, 2.0), (1.0, 4, 2), (True, 4, 2)):
        with pytest.raises(ConfigurationError, match="must be an int"):
            TaskDefinition(*fields, lambda g: 0.0)
    # a known optimum is None or a finite real number, as a cost is, and a
    # bool or an int past the float range is not one
    for optimum in ("0", math.nan, math.inf, True, np.float64(math.nan), np.bool_(True), 10**400):
        with pytest.raises(ConfigurationError, match="known_optimum must be"):
            TaskDefinition(1, 4, 2, lambda g: 0.0, known_optimum=optimum)
    for optimum in (None, 0, -3, 2.5, np.int64(0), np.float32(0.5), np.uint8(3)):
        assert TaskDefinition(1, 4, 2, lambda g: 0.0, known_optimum=optimum).known_optimum == optimum


def test_task_cost_charges_only_the_first_request():
    tasks = [sum_task(1), sum_task(2, dimension=2)]
    ledger = EvalLedger(tasks)
    # a held cost is returned as stored, even one the objective would not give
    ind = Individual([1, 2, 0, 1], [7.0, None])
    assert task_cost(ind, 2, ledger) == 3.0
    assert (ledger.count, ledger.task_counts) == (1, [0, 1])
    assert ind.factorial_costs == [7.0, 3.0]
    assert task_cost(ind, 2, ledger) == 3.0
    assert task_cost(ind, 1, ledger) == 7.0
    assert (ledger.count, ledger.task_counts) == (1, [0, 1])
    assert ind.factorial_costs == [7.0, 3.0]


def test_ledger_counts_every_call_once():
    tasks = [sum_task(1), sum_task(2, dimension=2)]
    ledger = EvalLedger(tasks)
    ind = fresh([1, 2, 0, 1])
    assert ledger.evaluate(ind.genotype, 1) == 4.0
    assert ledger.evaluate(ind.genotype, 2) == 3.0
    assert ledger.evaluate(ind.genotype, 2) == 3.0
    assert ledger.count == 3
    assert ledger.task_counts == [1, 2]
    # the ledger only counts; storing the cost is the caller's job
    assert ind.factorial_costs == [None, None]
    assert ind.genotype == [1, 2, 0, 1]


def test_ledger_evaluates_on_the_task_prefix():
    tasks = [sum_task(1, dimension=2)]
    ledger = EvalLedger(tasks)
    assert ledger.evaluate([1, 1, 2, 2], 1) == 2.0


def test_each_objective_receives_exactly_its_task_prefix(monkeypatch):
    # tasks of dimension 3 and 5 in a 5-gene space: one reads a prefix, the
    # other whole genotypes, during initialization and inside crossover
    received = []
    offered = []

    def recording_task(task_id, dimension):
        def objective(genes):
            received.append((task_id, list(genes)))
            return float(sum(genes))

        return TaskDefinition(task_id, dimension, 2, objective)

    evaluate = EvalLedger.evaluate

    def watched(ledger, genotype, task_id):
        offered.append((task_id, list(genotype)))
        return evaluate(ledger, genotype, task_id)

    monkeypatch.setattr(EvalLedger, "evaluate", watched)
    tasks = [recording_task(1, 3), recording_task(2, 5)]
    pop = initialize_population(tasks, 8, random.Random(6))
    for task in tasks:
        rows = [ind.genotype[: task.dimension] for ind in pop.members]
        masks = build_tree(rows).crossover_masks()
        tree_crossover(
            pop.members[0], pop.members[1], masks, task.task_id, 10, random.Random(7), pop.ledger
        )
    assert pop.ledger.count == len(received) == len(offered) > 16
    dimension = {t.task_id: t.dimension for t in tasks}
    for (tid, genes), (offered_tid, genotype) in zip(received, offered):
        assert tid == offered_tid
        assert len(genotype) == 5
        assert genes == genotype[: dimension[tid]]


def test_ledger_tracks_best_and_first_success_per_task():
    tasks = [sum_task(1, optimum=0.0), sum_task(2, optimum=0.0)]
    ledger = EvalLedger(tasks)
    ledger.evaluate([1, 1, 1, 1], 1)
    ledger.evaluate([1, 0, 0, 0], 1)
    assert ledger.best == [1.0, float("inf")]
    assert ledger.first_success == [None, None]
    assert not ledger.all_known_solved()
    ledger.evaluate([0, 0, 0, 0], 2)
    # first success records the task's own call count, not the shared count
    assert ledger.first_success == [None, 1]
    ledger.evaluate([0, 0, 0, 0], 1)
    assert ledger.first_success == [3, 1]
    assert ledger.all_known_solved()


def test_all_known_solved_is_false_without_declared_optima():
    ledger = EvalLedger([sum_task(1)])
    ledger.evaluate([0, 0, 0, 0], 1)
    assert not ledger.all_known_solved()


@pytest.mark.parametrize(
    "bad",
    [math.nan, math.inf, -math.inf, 10**400, -(10**400)],
    ids=["nan", "inf", "-inf", "1e400", "-1e400"],
)
def test_ledger_rejects_non_finite_costs(bad):
    broken = TaskDefinition(task_id=2, dimension=4, alphabet_size=3, objective=lambda genes: bad)
    ledger = EvalLedger([sum_task(1), broken])
    ind = fresh([0, 1, 2, 0])
    ind.factorial_costs[0] = ledger.evaluate(ind.genotype, 1)
    # an int past the float range counts as an infinite cost
    shown = bad if isinstance(bad, float) else math.inf if bad > 0 else -math.inf
    message = f"task 2: objective returned non-finite cost {shown}"
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        ind.factorial_costs[1] = ledger.evaluate(ind.genotype, 2)
    assert ledger.count == 1
    assert ind.factorial_costs == [3.0, None]


@pytest.mark.parametrize("bad", ["abc", "3", None, [1.0], True, np.bool_(True), 1j])
def test_ledger_rejects_costs_that_are_not_real_numbers(bad):
    broken = TaskDefinition(task_id=2, dimension=4, alphabet_size=3, objective=lambda genes: bad)
    ledger = EvalLedger([sum_task(1), broken])
    ledger.evaluate([0, 1, 2, 0], 1)
    message = f"task 2: objective returned {bad!r}, not a real number"
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        ledger.evaluate([0, 1, 2, 0], 2)
    assert ledger.count == 1 and ledger.task_counts == [1, 0]


@pytest.mark.parametrize("good", [3, 3.0, np.int64(3), np.uint8(3), np.float32(3), np.float64(3)])
def test_ledger_stores_real_costs_as_floats(good):
    ledger = EvalLedger([TaskDefinition(1, 4, 3, lambda genes: good, known_optimum=3)])
    cost = ledger.evaluate([0, 1, 2, 0], 1)
    assert type(cost) is float and cost == 3.0
    assert ledger.best == [3.0] and ledger.first_success == [1]


def test_random_genotype_is_bytes_up_to_256_letters():
    for alphabet, kind in ((2, bytearray), (256, bytearray), (257, list), (300, list)):
        tasks = [TaskDefinition(1, 50, alphabet, lambda genes: 0.0)]
        genes = random_genotype(tasks, random.Random(alphabet))
        assert type(genes) is kind and len(genes) == 50
        # either type draws the same genes from the same rng
        rng = random.Random(alphabet)
        assert list(genes) == [rng.randrange(alphabet) for _ in range(50)]
    tasks = [TaskDefinition(1, 4000, 256, lambda genes: 0.0)]
    assert max(random_genotype(tasks, random.Random(0))) == 255


def test_initialize_population_shape_and_eval_count():
    tasks = [sum_task(1, optimum=0.0), sum_task(2, dimension=2)]
    rng = random.Random(0)
    pop = initialize_population(tasks, 8, rng)
    assert len(pop.members) == 8
    assert pop.ledger.count == 16
    assert pop.ledger.task_counts == [8, 8]
    for ind in pop.members:
        assert len(ind.genotype) == 4
        assert all(0 <= g < 3 for g in ind.genotype)
        assert all(c is not None for c in ind.factorial_costs)
        assert ind.skill_factor in (1, 2)
    fitness = rank_members(pop.members, 2)
    assert len(fitness) == 8 and all(f is not None for f in fitness)


def test_initialize_population_validation():
    with pytest.raises(ConfigurationError):
        initialize_population([], 4, random.Random(0))
    with pytest.raises(ConfigurationError):
        initialize_population([sum_task(2)], 4, random.Random(0))
    with pytest.raises(ConfigurationError):
        initialize_population([sum_task(1)], 5, random.Random(0))


def ranks_are_a_permutation(ranks, j):
    return sorted(row[j] for row in ranks) == list(range(1, len(ranks) + 1))


def test_rank_properties_on_random_populations():
    tasks = [sum_task(1), sum_task(2, dimension=3)]
    for seed in range(10):
        pop = initialize_population(tasks, 12, random.Random(seed))
        ranks = factorial_ranks(pop.members, 2)
        skills = [ind.skill_factor for ind in pop.members]
        fitness = rank_members(pop.members, 2)
        # ranking the same pool again reproduces the skill factors
        assert [ind.skill_factor for ind in pop.members] == skills
        for j in range(2):
            assert ranks_are_a_permutation(ranks, j)
        for ind, row, fit in zip(pop.members, ranks, fitness):
            best = min(row)
            assert fit == 1.0 / best
            assert row[ind.skill_factor - 1] == best
        # ascending cost within a task means ascending rank
        order = sorted(range(12), key=lambda i: pop.members[i].factorial_costs[0])
        for a, b in zip(order, order[1:]):
            if pop.members[a].factorial_costs[0] < pop.members[b].factorial_costs[0]:
                assert ranks[a][0] < ranks[b][0]


def test_rank_ties_keep_insertion_order():
    tasks = [sum_task(1, dimension=2)]
    ledger = EvalLedger(tasks)
    a = evaluated(ledger, [1, 0])
    b = evaluated(ledger, [0, 1])
    assert factorial_ranks([a, b], 1) == [[1], [2]]


def test_identical_tasks_split_skill_factors():
    # two copies of one task tie every rank; rotation must split the
    # population instead of assigning everyone to task 1
    tasks = [sum_task(1, optimum=0.0), sum_task(2, optimum=0.0)]
    pop = initialize_population(tasks, 10, random.Random(3))
    skills = [ind.skill_factor for ind in pop.members]
    assert skills.count(1) == 5
    assert skills.count(2) == 5
    # the individual at position 0 resolves its tie to the lowest task id
    assert skills[0] == 1


def test_members_without_any_cost_are_rejected():
    tasks = [sum_task(1)]
    ledger = EvalLedger(tasks)
    pop = Population([fresh([0, 0, 0, 0], k=1)], ledger)
    with pytest.raises(InvalidStateError):
        rank_members(pop.members, 1)


def test_select_fittest_truncates_by_scalar_fitness():
    tasks = [sum_task(1, dimension=2)]
    ledger = EvalLedger(tasks)
    members = [evaluated(ledger, genes) for genes in ([0, 0], [1, 0], [1, 1], [2, 1])]
    pop = Population(members, ledger)
    rank_members(pop.members, 1)
    extra = evaluated(ledger, [0, 1])
    out = select_fittest(pop, Population([extra], ledger), 2)
    costs = sorted(ind.factorial_costs[0] for ind in out.members)
    assert costs == [0.0, 1.0]
    assert len(out.members) == 2


def test_select_fittest_reranks_the_union():
    tasks = [sum_task(1, dimension=2)]
    ledger = EvalLedger(tasks)
    stale = evaluated(ledger, [2, 2])
    pop = Population([stale], ledger)
    assert factorial_ranks(pop.members, 1) == [[1]]
    better = evaluated(ledger, [0, 0])
    out = select_fittest(pop, Population([better], ledger), 2)
    assert factorial_ranks([stale, better], 1) == [[2], [1]]
    assert rank_members([stale, better], 1)[1] == 1.0
    assert len(out.members) == 2
    assert out.members[0] is better and out.members[1] is stale

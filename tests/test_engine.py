import dataclasses
import math

import pytest

from mfltga import engine
from mfltga.engine import run_mfltga
from mfltga.errors import ConfigurationError
from mfltga.mfo import TaskDefinition
from mfltga.problems import trap


def trap_tasks(k, m, copies=1):
    spec = trap.TrapSpec(k, m)
    return [trap.make_task(spec, task_id=t) for t in range(1, copies + 1)]


def unsolvable_task(task_id=1, dimension=6):
    """No known optimum declared: the run must spend its whole budget."""
    return TaskDefinition(
        task_id=task_id,
        dimension=dimension,
        alphabet_size=2,
        objective=lambda genes: float(sum(genes)),
        known_optimum=None,
    )


def test_same_seed_reproduces_the_run_exactly():
    kwargs = dict(pop_size=32, max_evals=50_000, seed=123)
    a = run_mfltga(trap_tasks(3, 3), **kwargs)
    b = run_mfltga(trap_tasks(3, 3), **kwargs)
    assert a == b
    # the run reads its task list once: a tuple, an iterator or a generator
    # of the same tasks gives the list's run, one task or several
    for copies in (1, 2):
        tasks = trap_tasks(3, 3, copies)
        expected = run_mfltga(tasks, **kwargs).to_dict()
        assert expected["task_ids"] == list(range(1, copies + 1))
        for given in (tuple(tasks), iter(tasks), (task for task in tasks)):
            assert run_mfltga(given, **kwargs).to_dict() == expected


def test_different_seeds_diverge():
    a = run_mfltga(trap_tasks(3, 4), pop_size=32, max_evals=50_000, seed=1)
    b = run_mfltga(trap_tasks(3, 4), pop_size=32, max_evals=50_000, seed=2)
    assert a.to_dict() != b.to_dict()


def test_equal_arguments_give_equal_records():
    # a record holds the run's identity and nothing else, so == is the
    # reproducibility check
    kwargs = dict(pop_size=16, max_evals=20_000, seed=5)
    record = run_mfltga(trap_tasks(3, 2), **kwargs)
    assert record == run_mfltga(trap_tasks(3, 2), **kwargs)
    fields = {field.name for field in dataclasses.fields(record)}
    assert fields | {"optimum_found"} == set(record.to_dict())


def test_a_best_cost_below_the_declared_optimum_is_an_error():
    # initialization alone reaches a trap cost below 1000, so a declared 1000
    # would count the first evaluation as a success and end the run there
    right, wrong = trap_tasks(3, 2, copies=2)
    wrong = dataclasses.replace(wrong, known_optimum=1000.0)
    message = r"^task 2: cost \S+ beats the declared optimum 1000.0$"
    with pytest.raises(ConfigurationError, match=message):
        run_mfltga([right, wrong], pop_size=16, max_evals=20_000, seed=5)
    # a best cost within the success tolerance of the optimum reaches it
    flat = dataclasses.replace(
        unsolvable_task(), objective=lambda genes: 1.0, known_optimum=1.0 + 5e-10
    )
    record = run_mfltga([flat], pop_size=4, max_evals=100, seed=5)
    assert record.evals_to_success == (1,)


def test_small_trap_is_solved_well_under_budget():
    record = run_mfltga(trap_tasks(3, 3), pop_size=64, max_evals=1_000_000, seed=7)
    assert record.optimum_found == (True,)
    assert record.best_found == (0.0,)
    assert record.evals_to_success[0] is not None
    assert record.total_evals < 1_000_000


def test_success_bookkeeping_is_consistent():
    record = run_mfltga(trap_tasks(3, 3, copies=2), pop_size=64, max_evals=200_000, seed=11)
    assert record.task_ids == (1, 2)
    for pos in range(2):
        assert record.optimum_found[pos] == (record.evals_to_success[pos] is not None)
        if record.optimum_found[pos]:
            assert record.best_found[pos] == 0.0


def test_budget_overshoot_is_at_most_one_generation():
    # every generation may only start while the counter is under budget;
    # mutation keeps the run from converging before the budget is spent
    record = run_mfltga([unsolvable_task()], pop_size=16, max_evals=500, seed=3, mutation_rate=0.05)
    assert record.total_evals >= 500
    assert record.trace[-2].evals < 500
    assert record.generations >= 1


def distinct_genotypes_per_generation(monkeypatch):
    """Patch the engine's selection to count each generation's distinct survivors."""
    counts = []
    engine_select = engine.select_fittest

    def counting_select(current, intermediate, n):
        pop = engine_select(current, intermediate, n)
        counts.append(len({bytes(ind.genotype) for ind in pop.members}))
        return pop

    monkeypatch.setattr(engine, "select_fittest", counting_select)
    return counts


def test_a_converged_run_without_mutation_stops_after_its_converged_generation(monkeypatch):
    # crossover only exchanges genes between parents, so without mutation a
    # population of one genotype can make no other; the run must end after the
    # generation that converged it, not loop until a budget it spends slowly
    # or never
    distinct = distinct_genotypes_per_generation(monkeypatch)
    record = run_mfltga(trap_tasks(5, 15), pop_size=32, max_evals=100_000, seed=3)
    assert record.best_found == (2.0,)
    assert record.optimum_found == (False,)
    assert (record.generations, record.total_evals) == (12, 19_898)
    assert len(distinct) == record.generations
    assert distinct[-1] == 1 and min(distinct[:-1]) > 1
    # the converged generation still evaluated, so the zero-evaluation exit
    # did not end this run
    assert record.trace[-2].evals < record.trace[-1].evals == record.total_evals


def test_a_generation_that_evaluates_nothing_ends_a_run_without_mutation(monkeypatch):
    # with no masks to swap, a single-task generation evaluates nothing while
    # the population still holds many genotypes; with mutation off the run
    # ends there, with mutation on it goes on to its budget
    distinct = distinct_genotypes_per_generation(monkeypatch)
    monkeypatch.setattr(engine, "build_all_trees", lambda pop: [[] for _ in pop.tasks])
    record = run_mfltga(trap_tasks(3, 4), pop_size=16, max_evals=2_000, seed=3)
    assert (record.generations, record.total_evals) == (1, 16)
    assert len(distinct) == 1 and distinct[0] > 1
    mutated = run_mfltga(trap_tasks(3, 4), pop_size=16, max_evals=2_000, seed=3, mutation_rate=0.05)
    assert mutated.generations > 1 and mutated.total_evals >= 2_000


def test_a_converged_multitask_run_ends_instead_of_spinning_to_its_budget():
    # seeds 4, 5 and 7 converge short of both optima; a mixed pair charges a
    # parent for the selected task, and copies of it lose every selection tie,
    # so each generation spent evaluations and the run used to go on for
    # thousands of generations until its 200k budget
    for seed in (4, 5, 7):
        record = run_mfltga(trap_tasks(5, 10, copies=2), pop_size=64, max_evals=200_000, seed=seed)
        assert record.generations <= 11
        assert record.total_evals < 30_000
        assert record.best_found == (1.0, 1.0)


def test_zero_budget_still_pays_for_initialization():
    record = run_mfltga([unsolvable_task()], pop_size=16, max_evals=0, seed=3)
    assert record.generations == 0
    assert record.total_evals == 16


def test_trace_shape_and_monotonicity():
    record = run_mfltga(trap_tasks(3, 4, copies=2), pop_size=32, max_evals=30_000, seed=9)
    assert record.trace[0].generation == 0
    assert record.trace[0].evals == 32 * 2
    assert record.trace[-1].generation == record.generations
    gens = [p.generation for p in record.trace]
    assert gens == sorted(gens) and len(set(gens)) == len(gens)
    evals = [p.evals for p in record.trace]
    assert all(a <= b for a, b in zip(evals, evals[1:]))
    for pos in range(2):
        bests = [p.best[pos] for p in record.trace]
        assert all(a >= b for a, b in zip(bests, bests[1:]))
    assert record.trace[-1].evals == record.total_evals


def test_trace_every_samples_sparsely_but_keeps_the_final_point():
    record = run_mfltga([unsolvable_task()], pop_size=16, max_evals=4_000, seed=13, trace_every=3)
    gens = [p.generation for p in record.trace]
    assert gens[0] == 0
    assert gens[-1] == record.generations
    for g in gens[:-1]:
        assert g % 3 == 0


def test_non_finite_objective_aborts_the_run():
    task = TaskDefinition(task_id=1, dimension=4, alphabet_size=2, objective=lambda genes: math.nan)
    with pytest.raises(ConfigurationError, match="task 1: objective returned non-finite cost nan"):
        run_mfltga([task], pop_size=4, max_evals=100, seed=1)


@pytest.mark.parametrize(
    "bad, message",
    [
        (dict(pop_size=7), "population size must be even and >= 2"),
        (dict(pop_size=0), "population size must be even and >= 2"),
        (dict(max_evals=-1), "max_evals must be >= 0"),
        (dict(max_p=-3), "max_p must be >= 0"),
        (dict(mutation_rate=-0.5), r"mutation rate must lie in \[0, 1\]"),
        (dict(mutation_rate=1.5), r"mutation rate must lie in \[0, 1\]"),
        (dict(trace_every=0), "trace_every must be >= 1"),
        (dict(trace_every=-1), "trace_every must be >= 1"),
        (dict(pop_size=4.0), "pop_size must be an int, got 4.0"),
        (dict(pop_size=True), "pop_size must be an int, got True"),
        (dict(max_evals=float("inf")), "max_evals must be an int, got inf"),
        (dict(max_evals=100.0), "max_evals must be an int, got 100.0"),
        (dict(max_p=2.5), "max_p must be an int, got 2.5"),
        (dict(max_p=False), "max_p must be an int, got False"),
        (dict(trace_every=1.5), "trace_every must be an int, got 1.5"),
        (dict(trace_every="2"), "trace_every must be an int, got '2'"),
        (dict(mutation_rate=True), "mutation_rate must be an int or float, got True"),
        (dict(mutation_rate="0.5"), "mutation_rate must be an int or float, got '0.5'"),
        (dict(seed=None), "seed must be an int, got None"),
        (dict(seed="1"), "seed must be an int, got '1'"),
        (dict(seed=1.5), "seed must be an int, got 1.5"),
        (dict(seed=True), "seed must be an int, got True"),
        (dict(seed=-1), "seed must be >= 0"),
    ],
)
def test_bad_run_parameters_fail_before_any_evaluation(bad, message):
    calls = []

    def objective(genes):
        calls.append(genes)
        return 0.0

    task = TaskDefinition(task_id=1, dimension=4, alphabet_size=2, objective=objective)
    kwargs = dict(pop_size=4, max_evals=100, seed=1) | bad
    with pytest.raises(ConfigurationError, match=message):
        run_mfltga([task], **kwargs)
    assert calls == []


def test_a_300_letter_task_runs_on_list_genotypes():
    # alphabets above 256 fall back from bytearray to list genotypes
    seen = set()

    def objective(genes):
        seen.add(type(genes))
        return float(sum(genes))

    task = TaskDefinition(1, 6, 300, objective)
    # mutation keeps the run from converging before the budget is spent
    record = run_mfltga([task], pop_size=8, max_evals=400, seed=3, mutation_rate=0.05)
    assert record.generations >= 1 and record.total_evals >= 400
    assert seen == {list}


def test_selection_sees_only_offspring_and_trap_sees_only_bytearrays(monkeypatch):
    # survivor selection takes the current members plus the offspring alone, so
    # a mixed pair's losing parent never re-enters; the trap evaluator is only
    # ever handed the engine's bytearray genotype
    genotype_types = []
    mixed_pairs = []

    def recording(task):
        def objective(bits):
            genotype_types.append(type(bits))
            return task.objective(bits)

        return dataclasses.replace(task, objective=objective)

    def checked_mating(pop, masks, rng, **kwargs):
        outcome = engine_mating(pop, masks, rng, **kwargs)
        mixed_pairs.append(len(outcome.backup_pop))
        return outcome

    def checked_select(current, intermediate, n):
        parents = {id(ind) for ind in current.members}
        assert not any(id(ind) in parents for ind in intermediate.members)
        return engine_select(current, intermediate, n)

    engine_mating, engine_select = engine.assortative_mating, engine.select_fittest
    kwargs = dict(pop_size=64, max_evals=200_000, seed=7)
    plain = run_mfltga(trap_tasks(4, 5, copies=2), **kwargs)
    monkeypatch.setattr(engine, "assortative_mating", checked_mating)
    monkeypatch.setattr(engine, "select_fittest", checked_select)
    record = run_mfltga([recording(t) for t in trap_tasks(4, 5, copies=2)], **kwargs)
    assert record.to_dict() == plain.to_dict()
    assert len(mixed_pairs) == record.generations >= 2
    assert sum(mixed_pairs) > 0
    assert len(genotype_types) == record.total_evals
    assert set(genotype_types) == {bytearray}


def test_known_trap_blocks_at_the_mask_seam_beat_the_learned_tree(monkeypatch):
    # the run reads every task's crossover masks from engine.build_all_trees;
    # handing it the trap's true blocks (a marginal-product model) must solve
    # every run, and with fewer evaluations than the learned tree on every seed
    k, m = 4, 8
    blocks = [tuple(range(b * k, (b + 1) * k)) for b in range(m)]
    kwargs = dict(pop_size=128, max_evals=300_000)
    for seed in range(10):
        learned = run_mfltga(trap_tasks(k, m, copies=2), seed=seed, **kwargs)
        with monkeypatch.context() as patch:
            patch.setattr(engine, "build_all_trees", lambda pop: [blocks for _ in pop.tasks])
            known = run_mfltga(trap_tasks(k, m, copies=2), seed=seed, **kwargs)
        assert learned.optimum_found == known.optimum_found == (True, True)
        assert known.total_evals < learned.total_evals

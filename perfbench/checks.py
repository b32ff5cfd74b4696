"""Correctness checks on RunRecords, re-scoring of best genotypes, fingerprints."""
from __future__ import annotations

import hashlib
import json

from mfltga import reference_trap_cost
from mfltga.harness import parse_problem_descriptor
from mfltga.problems import cluspt

TOL = 1e-9


def fingerprint(record) -> str:
    """SHA-256 of the record's identity (RunRecord.to_dict, so not wall_time)."""
    text = json.dumps(record.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record_problems(record, optima) -> list:
    """Violations of the run invariants, one string each (empty = correct).

    optima[pos] is the known optimum of the record's task at position pos, or
    None when the task declares none.
    """
    problems = []
    trace = record.trace
    for prev, point in zip(trace, trace[1:]):
        if point.evals < prev.evals:
            problems.append(f"evals fall from {prev.evals} to {point.evals} at generation {point.generation}")
        for pos, (old, new) in enumerate(zip(prev.best, point.best)):
            if new > old:
                problems.append(f"task {pos + 1}: trace rises from {old} to {new} at generation {point.generation}")
    if trace[-1].evals != record.total_evals or list(trace[-1].best) != list(record.best_found):
        problems.append("last trace point disagrees with the record totals")
    for pos, (best, hit, found, opt) in enumerate(
        zip(record.best_found, record.evals_to_success, record.optimum_found, optima)
    ):
        if (hit is not None) != found:
            problems.append(f"task {pos + 1}: evals_to_success {hit} with optimum_found {found}")
        if hit is not None and not 1 <= hit <= record.total_evals:
            problems.append(f"task {pos + 1}: evals_to_success {hit} outside 1..{record.total_evals}")
        if opt is not None and best < opt - TOL:
            problems.append(f"task {pos + 1}: best_found {best} beats the known optimum {opt}")
        if opt is not None and found and best > opt + TOL:
            problems.append(f"task {pos + 1}: optimum_found with best_found {best} > {opt}")
    return problems


def rescore_problems(label: str, genotype, best_found: float, graphs: dict) -> list:
    """Re-score a captured best genotype outside the engine.

    Trap genotypes go through the oracle's independent trap cost; CluSPT
    genotypes are decoded, validated and their objective recomputed from the
    parent array alone.  graphs caches parsed instances by path.
    """
    kind, payload = parse_problem_descriptor(label)
    if kind == "dtf":
        cost = reference_trap_cost(list(genotype), payload.block_size, payload.num_blocks)
        if abs(cost - best_found) > TOL:
            return [f"{label}: reference trap cost {cost} != best_found {best_found}"]
        return []
    if payload not in graphs:
        graphs[payload] = cluspt.parse_file(payload)
    g = graphs[payload]
    sol = cluspt.decode(g, genotype)
    problems = [f"{label}: {v}" for v in cluspt.validate(g, sol)]
    cost = cluspt.recompute_objective(g, sol.parent)
    if abs(cost - best_found) > TOL:
        problems.append(f"{label}: recomputed objective {cost} != best_found {best_found}")
    return problems

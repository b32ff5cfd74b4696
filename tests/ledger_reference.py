"""The evaluation ledger's bookkeeping as it stood before the lean path: a test oracle.

``EvalLedger.evaluate`` is kept step by step: the cost goes through
``float``, first success is tested on every call, not only on a new best.
Nothing under ``src/`` imports this module.
"""
from __future__ import annotations

import math

from mfltga.errors import ConfigurationError


class EvalLedger:
    def __init__(self, tasks):
        self.tasks = list(tasks)
        self.count = 0
        self.task_counts = [0] * len(self.tasks)
        self.best = [math.inf] * len(self.tasks)
        self.first_success = [None] * len(self.tasks)

    def evaluate(self, genotype, task_id: int) -> float:
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

"""Span recorder for the traced run, with wrappers at mfltga's module boundaries.

A span is (name, start, end, parent, run id).  Spans are appended to flat
arrays in memory and written to one file when the run ends.  The wrappers
replace module attributes at the points where one module calls into another
(for example ``engine.build_all_trees``, which the engine loop looks up at
call time), so the program's own files stay untouched.  ``install`` puts them
in place and its exit restores every original attribute, so an untraced
campaign in the same process runs the unwrapped code.

Each task's objective callable is wrapped as well, as a span named after its
layer (``trap.evaluate`` or ``cluspt.decode``).  The wrapper counts calls per
run and keeps the first genotype that reached the lowest cost, so the
benchmark can re-score each run's best solution from outside the engine.
"""
from __future__ import annotations

import array
import contextlib
import dataclasses
import time
from collections import Counter

import numpy as np

from mfltga import engine, harness, linkage, mfo, variation
from mfltga.problems import cluspt

OBJECTIVE_LAYER = {"dtf": "trap.evaluate", "cluspt": "cluspt.decode"}

# (module or class, attribute, span name) for the plain wrappers.  The
# self time of build_tree, once proximity_matrix is taken out, is the UPGMA
# merge loop, hence its span name.
BOUNDARIES = [
    (cluspt, "parse_instance", "cluspt.parse_instance"),
    (engine, "initialize_population", "mfo.initialize_population"),
    (engine, "build_all_trees", "linkage.build_all_trees"),
    (linkage, "build_tree", "linkage.upgma"),
    (linkage, "proximity_matrix", "linkage.proximity_matrix"),
    (variation, "tree_crossover", "variation.tree_crossover"),
    (variation, "mutate", "variation.mutate"),
    (mfo.EvalLedger, "evaluate", "mfo.ledger"),
    (harness, "write_outputs", "harness.write_outputs"),
]


class SpanRecorder:
    """In-memory spans plus the counters the wrappers take at the same boundaries."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array.array("H")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.run = array.array("i")
        self._stack = [-1]
        self.run_id = -1
        self.records = []  # RunRecord of run id i at index i
        self.best = {}  # (run id, task position) -> (cost, genotype)
        self.counters = Counter()

    def _name(self, label: str) -> int:
        if label not in self._name_ids:
            self._name_ids[label] = len(self.names)
            self.names.append(label)
        return self._name_ids[label]

    def wrap(self, fn, label: str):
        """Return fn recording one span per call."""
        nid = self._name(label)
        name_id, start, end = self.name_id, self.start, self.end
        parent, run, stack = self.parent, self.run, self._stack
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            run.append(self.run_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return spanned

    def _objective(self, fn, label: str, pos: int):
        best = self.best

        def scored(genes):
            cost = fn(genes)
            key = (self.run_id, pos)
            held = best.get(key)
            if held is None or cost < held[0]:
                best[key] = (cost, list(genes))
            return cost

        kind = harness.parse_problem_descriptor(label)[0]
        return self.wrap(scored, OBJECTIVE_LAYER[kind])

    def _resolve_tasks(self, fn):
        spanned = self.wrap(fn, "harness.resolve_tasks")

        def resolve_tasks(config):
            tasks, labels = spanned(config)
            wrapped = [
                dataclasses.replace(
                    t, objective=self._objective(t.objective, label, t.task_id - 1)
                )
                for t, label in zip(tasks, labels)
            ]
            return wrapped, labels

        return resolve_tasks

    def _run_mfltga(self, fn):
        spanned = self.wrap(fn, "engine.run_mfltga")

        def run_mfltga(tasks, **kwargs):
            self.run_id = len(self.records)
            try:
                record = spanned(tasks, **kwargs)
            finally:
                self.run_id = -1
            self.records.append(record)
            return record

        return run_mfltga

    def _assortative_mating(self, fn):
        spanned = self.wrap(fn, "variation.assortative_mating")

        def assortative_mating(pop, trees, rng, **kwargs):
            outcome = spanned(pop, trees, rng, **kwargs)
            self.counters["pairs"] += len(outcome.offspring_pop)
            self.counters["mixed_pairs"] += len(outcome.backup_pop)
            return outcome

        return assortative_mating

    def _select_fittest(self, fn):
        spanned = self.wrap(fn, "mfo.select_fittest")

        def select_fittest(current, intermediate, n):
            survivors = spanned(current, intermediate, n)
            parents = {id(ind) for ind in current.members}
            offspring = {id(ind) for ind in intermediate.members} - parents
            self.counters["intermediate"] += len(intermediate.members)
            self.counters["offspring_survivors"] += sum(
                id(ind) in offspring for ind in survivors.members
            )
            return survivors

        return select_fittest

    @contextlib.contextmanager
    def install(self):
        """Wrap every boundary for the duration of the block, then restore."""
        patches = [(obj, attr, self.wrap(getattr(obj, attr), label)) for obj, attr, label in BOUNDARIES]
        patches += [
            (harness, "resolve_tasks", self._resolve_tasks(harness.resolve_tasks)),
            (harness, "run_mfltga", self._run_mfltga(harness.run_mfltga)),
            (engine, "assortative_mating", self._assortative_mating(engine.assortative_mating)),
            (engine, "select_fittest", self._select_fittest(engine.select_fittest)),
        ]
        originals = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
        try:
            for obj, attr, wrapper in patches:
                setattr(obj, attr, wrapper)
            yield self
        finally:
            for obj, attr, original in originals:
                setattr(obj, attr, original)

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "run": np.frombuffer(self.run, dtype=np.int32),
        }

    def write(self, path) -> None:
        np.savez(path, **self.arrays())

    def totals(self) -> dict:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly, so the self times of all spans add up
        to the total duration of the root spans.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        covered = np.bincount(a["parent"][nested], weights=dur[nested], minlength=dur.size)
        own = dur - covered
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        total = np.bincount(a["name_id"], weights=dur, minlength=k)
        self_s = np.bincount(a["name_id"], weights=own, minlength=k)
        return {
            name: (int(calls[i]), float(total[i]), float(self_s[i]))
            for i, name in enumerate(self.names)
        }

    def calls_per_run(self, label: str) -> Counter:
        """Number of spans named label in each run id."""
        if label not in self._name_ids:
            return Counter()
        a = self.arrays()
        return Counter(a["run"][a["name_id"] == self._name_ids[label]].tolist())

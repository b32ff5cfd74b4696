"""One workload in one process: set-up, seeded campaigns, checks, traced run.

``run.py`` starts this file as a child process, so that set-up time counts
from process start and peak memory belongs to the workload alone:

    python3 perfbench/workload.py MODE WORKLOAD SEED SECONDS T0 OUT_JSON

MODE is ``setup`` (stop after set-up), ``run`` (untraced campaigns repeated
for SECONDS) or ``trace`` (plain, untraced and traced campaign once each).
T0 is the parent's ``time.monotonic()`` just before the start.  The result
goes to OUT_JSON.  Everything runs serially in this process, with no threads.
"""
from __future__ import annotations

import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import mfltga  # noqa: E402  (needs the path above)
from mfltga import ExperimentConfig, harness, run_mfltga  # noqa: E402

import checks  # noqa: E402
import synth  # noqa: E402
from spans import SpanRecorder  # noqa: E402


def campaign_configs(workload: str, seed: int, work_dir: Path) -> list:
    """The experiments of one campaign, built from the workload seed alone."""
    if workload == "a9":
        # The A9 acceptance shape, single-task and multitask on paired seeds.
        st = ExperimentConfig(
            problems=["dtf:k=5,m=15"], mode="st", num_tasks=2, pop_size=256,
            max_evals=1_000_000, runs=1, seed=seed,
        )
        return [st, dataclasses.replace(st, mode="mt")]
    if workload == "trap-many":
        # Eight linkage trees per generation and mostly mixed-skill pairs.  Not
        # in BENCHMARK.json: runs that miss the k=5,m=15 optimum spend the whole
        # budget, so time to solution doubles from one seed to the next.
        problems = [f"dtf:k={k},m={m}" for k in (5, 4) for m in (15, 14, 13, 12)]
        return [ExperimentConfig(
            problems=problems, mode="mt", num_tasks=len(problems), pop_size=256,
            max_evals=1_000_000, runs=1, seed=seed,
        )]
    if workload == "cluspt-synth":
        # No known optimum, so the run spends its fixed budget in the decoder.
        problems = []
        for i in range(2):
            path = work_dir / f"synth{i}.cluspt"
            path.write_text(synth.instance_text(f"synth-{seed}-{i}", 30, 5, 2 * seed + i))
            problems.append(f"cluspt:{path}")
        return [ExperimentConfig(
            problems=problems, mode="mt", num_tasks=2, pop_size=32,
            max_evals=6000, runs=1, seed=seed,
        )]
    raise SystemExit(f"unknown workload {workload!r}")


@dataclasses.dataclass
class Entry:
    """One RunRecord with the labels and known optima of its task positions."""

    record: object
    labels: list
    optima: list


def entries(result, tasks) -> list:
    """Records of one experiment in harness order (st: by task, then run)."""
    if result.mt_records is not None:
        optima = [t.known_optimum for t in tasks]
        return [Entry(rec, list(result.labels), optima) for rec in result.mt_records]
    return [
        Entry(rec, [result.labels[tid - 1]], [tasks[tid - 1].known_optimum])
        for tid in sorted(result.st_records)
        for rec in result.st_records[tid]
    ]


def plain_entries(config, tasks, labels) -> list:
    """The same runs as harness.run_experiment, by direct run_mfltga calls."""
    def run(task_list, r):
        return run_mfltga(
            task_list, pop_size=config.pop_size, max_evals=config.max_evals,
            seed=config.run_seed(r), max_p=config.max_p,
            mutation_rate=config.mutation_rate, trace_every=config.trace_every,
        )

    if config.mode == "mt":
        optima = [t.known_optimum for t in tasks]
        return [Entry(run(tasks, r), list(labels), optima) for r in range(config.runs)]
    return [
        Entry(run([dataclasses.replace(t, task_id=1)], r), [label], [t.known_optimum])
        for t, label in zip(tasks, labels)
        for r in range(config.runs)
    ]


def run_campaign(configs, resolved, out_root: Path, run_experiment=None):
    """Run every experiment of the campaign through the harness, with emission.

    Returns (wall seconds, entries, problems).  The emitted summary.csv is
    read back and must equal the in-memory summary.
    """
    run_experiment = run_experiment or harness.run_experiment
    results = []
    start = time.perf_counter()
    for i, config in enumerate(configs):
        out = dataclasses.replace(config, out_path=str(out_root / f"{i}-{config.mode}"))
        results.append(run_experiment(out))
    wall = time.perf_counter() - start
    found = []
    problems = []
    for result, (tasks, _) in zip(results, resolved):
        found.extend(entries(result, tasks))
        emitted = harness.read_summary_csv(os.path.join(result.config.out_path, "summary.csv"))
        if emitted.rows != harness.summarize(result).rows:
            problems.append(f"{result.config.out_path}: summary.csv differs from the summary")
    return wall, found, problems


def attempts(configs) -> int:
    """(run, task) attempts in one campaign."""
    return sum(c.runs * c.num_tasks for c in configs)


def score(found, reference) -> tuple:
    """(failed attempts, problems) of one campaign's entries.

    A task position fails when its record breaks an invariant, when the record's
    fingerprint differs from the reference campaign's, or when the task has a
    known optimum that the run did not reach.
    """
    failed = 0
    problems = []
    if len(found) != len(reference):
        return sum(len(e.labels) for e in found), ["campaign produced another number of runs"]
    for entry, ref in zip(found, reference):
        broken = checks.record_problems(entry.record, entry.optima)
        if checks.fingerprint(entry.record) != ref:
            broken.append("fingerprint differs from the reference run")
        problems.extend(broken)
        for found_opt, opt in zip(entry.record.optimum_found, entry.optima):
            if broken or (opt is not None and not found_opt):
                failed += 1
    return failed, problems


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(ROOT),
        "workload_seed": seed,
    }


def git_commit(root: Path):
    """HEAD commit read from root/.git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def campaign_stats(found) -> dict:
    """Quality numbers of one campaign: evals, evals_to_solve and best_cost."""
    hits = [h for e in found for h in e.record.evals_to_success if h is not None]
    bests = [b for e in found for b in e.record.best_found]
    return {
        "evals": sum(e.record.total_evals for e in found),
        "evals_to_solve": statistics.fmean(hits) if hits else None,
        "best_cost": statistics.fmean(bests),
    }


def measure(configs, resolved, seconds: float, work_dir: Path) -> dict:
    """Repeat the campaign, at least twice, while another one fits in `seconds`."""
    reps = []
    problems = []
    reference = None
    attempted = failed = 0
    start = time.perf_counter()
    while len(reps) < 2 or (time.perf_counter() - start) * (len(reps) + 1) / len(reps) <= seconds:
        attempted += attempts(configs)
        try:
            wall, found, emitted = run_campaign(configs, resolved, work_dir / "out")
        except Exception:
            traceback.print_exc()
            failed += attempts(configs)
            problems.append(traceback.format_exc(limit=1))
            break
        if reference is None:
            reference = [checks.fingerprint(e.record) for e in found]
        bad, broken = score(found, reference)
        failed += bad
        problems.extend(emitted + broken)
        reps.append(dict(campaign_stats(found), wall_s=wall))
    return {
        "reps": reps,
        "fingerprints": reference,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


def trace(configs, resolved, work_dir: Path, spans_path: Path) -> dict:
    """Plain, untraced and traced campaign once each, then per-layer numbers."""
    plain = [
        checks.fingerprint(e.record)
        for config, (tasks, labels) in zip(configs, resolved)
        for e in plain_entries(config, tasks, labels)
    ]
    wall, found, problems = run_campaign(configs, resolved, work_dir / "untraced")
    failed, broken = score(found, plain)
    problems += broken
    rec = SpanRecorder()
    with rec.install():
        root = rec.wrap(harness.run_experiment, "harness.run_experiment")
        traced_wall, traced, emitted = run_campaign(configs, resolved, work_dir / "traced", root)
    problems += emitted
    bad, broken = score(traced, plain)
    failed += bad
    problems += broken
    problems += trace_problems(rec, traced, traced_wall)
    rec.write(spans_path)
    return {
        "layers": layer_metrics(rec, traced_wall, wall),
        "fingerprints": plain,
        "attempted": 2 * attempts(configs),
        "failed": failed,
        "problems": problems,
    }


# Largest share of the traced wall time that the spans' self times may miss.
SELF_SUM_TOLERANCE = 0.01


def trace_problems(rec, traced, traced_wall: float) -> list:
    """Counts and re-scores that the traced campaign must satisfy."""
    problems = []
    objective = rec.calls_per_run("trap.evaluate") + rec.calls_per_run("cluspt.decode")
    ledger = rec.calls_per_run("mfo.ledger")
    if len(rec.records) != len(traced):
        problems.append(f"{len(rec.records)} traced runs for {len(traced)} records")
    graphs = {}
    for run_id, entry in enumerate(traced):
        record = entry.record
        if not objective[run_id] == ledger[run_id] == record.total_evals:
            problems.append(
                f"run {run_id}: {objective[run_id]} objective calls, {ledger[run_id]} "
                f"ledger calls, total_evals {record.total_evals}"
            )
        # Single-task runs hold one position; it is the captured one.
        captured = sorted((pos, held) for (r, pos), held in rec.best.items() if r == run_id)
        if len(captured) != len(entry.labels):
            problems.append(f"run {run_id}: best genotypes captured for {len(captured)} tasks")
            continue
        for idx, (label, (_, (cost, genotype))) in enumerate(zip(entry.labels, captured)):
            if cost != record.best_found[idx]:
                problems.append(f"run {run_id} {label}: captured best {cost} != {record.best_found[idx]}")
            problems += checks.rescore_problems(label, genotype, record.best_found[idx], graphs)
    self_sum = sum(self_s for _, _, self_s in rec.totals().values())
    if abs(self_sum - traced_wall) > SELF_SUM_TOLERANCE * traced_wall:
        problems.append(f"span self times add up to {self_sum:.4f} s of {traced_wall:.4f} s")
    return problems


def layer_metrics(rec, traced_wall: float, untraced_wall: float) -> dict:
    totals = rec.totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    def total_s(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def per_call_us(name):
        return self_s(name) / calls(name) * 1e6 if calls(name) else 0.0

    c = rec.counters
    m = {}
    for layer in ("trap.evaluate", "cluspt.decode"):
        m[f"{layer}.calls"] = (calls(layer), "count")
        m[f"{layer}.self_s"] = (self_s(layer), "s")
        m[f"{layer}.us"] = (per_call_us(layer), "us")
    m["cluspt.parse_instance.s"] = (total_s("cluspt.parse_instance"), "s")
    m["harness.resolve_tasks.s"] = (total_s("harness.resolve_tasks"), "s")
    m["mfo.ledger.self_s"] = (self_s("mfo.ledger"), "s")
    m["variation.tree_crossover.calls"] = (calls("variation.tree_crossover"), "count")
    m["variation.tree_crossover.self_s"] = (self_s("variation.tree_crossover"), "s")
    m["variation.mutate.self_s"] = (self_s("variation.mutate"), "s")
    m["variation.assortative_mating.self_s"] = (self_s("variation.assortative_mating"), "s")
    m["variation.mixed_pairs"] = (c["mixed_pairs"], "count")
    m["variation.mixed_pair_ratio"] = (c["mixed_pairs"] / c["pairs"] if c["pairs"] else 0.0, "ratio")
    m["linkage.build_all_trees.calls"] = (calls("linkage.build_all_trees"), "count")
    m["linkage.build_all_trees.self_s"] = (self_s("linkage.build_all_trees"), "s")
    m["linkage.proximity_matrix.self_s"] = (self_s("linkage.proximity_matrix"), "s")
    m["linkage.upgma.self_s"] = (self_s("linkage.upgma"), "s")
    m["mfo.select_fittest.calls"] = (calls("mfo.select_fittest"), "count")
    m["mfo.select_fittest.self_s"] = (self_s("mfo.select_fittest"), "s")
    m["mfo.initialize_population.self_s"] = (self_s("mfo.initialize_population"), "s")
    m["mfo.offspring_survival"] = (
        c["offspring_survivors"] / c["intermediate"] if c["intermediate"] else 0.0, "ratio"
    )
    m["engine.generations"] = (sum(r.generations for r in rec.records), "count")
    m["engine.run_mfltga.self_s"] = (self_s("engine.run_mfltga"), "s")
    m["harness.write_outputs.s"] = (total_s("harness.write_outputs"), "s")
    m["harness.run_experiment.self_s"] = (self_s("harness.run_experiment"), "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_pct"] = ((traced_wall / untraced_wall - 1.0) * 100.0, "pct")
    return m


def main(argv) -> int:
    mode, workload, seed, seconds, t0, out_json = argv
    seed = int(seed)
    if Path(mfltga.__file__).resolve().parent != ROOT / "src" / "mfltga":
        raise SystemExit(f"imported mfltga from {mfltga.__file__}, not from {ROOT / 'src'}")
    bench_dir = ROOT / ".bench_out"
    bench_dir.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=bench_dir))
    try:
        configs = campaign_configs(workload, seed, work_dir)
        resolved = [harness.resolve_tasks(c.validate()) for c in configs]
        result = {"setup_s": time.monotonic() - float(t0)}
        if mode == "run":
            result.update(measure(configs, resolved, float(seconds), work_dir))
        elif mode == "trace":
            spans_path = bench_dir / f"spans-{workload}.npz"
            result.update(trace(configs, resolved, work_dir, spans_path))
            result["spans_file"] = str(spans_path.relative_to(ROOT))
        elif mode != "setup":
            raise SystemExit(f"unknown mode {mode!r}")
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["env"] = environment(seed)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    Path(out_json).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

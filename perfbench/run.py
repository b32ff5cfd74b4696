"""Benchmark of seeded mfltga campaigns: end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload a9 --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports mfltga from ``src/``.  Workloads
(``a9``, ``cluspt-synth``, ``trap-many``) are defined in ``workload.py``,
which runs each one in a child process.  With ``--trace 0`` the child repeats
the campaign untraced for ``--seconds`` and separate children measure set-up
alone; with ``--trace 1`` one child runs the campaign plain, untraced and
traced, and reports per-layer numbers.

The output is a table of every metric with its unit, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  The full result, with the
environment and the run fingerprints, goes to ``.bench_out/``.  The exit code
is 0 when a result was printed, whether or not its checks passed.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 9  # set-up-only children, on top of the measuring child
CHILD_TIMEOUT_S = 170


def child(mode: str, args) -> dict:
    """Run workload.py in a fresh process and return its result."""
    out = OUT / f"child-{args.workload}-{args.seed}-{mode}.json"
    out.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "workload.py"), mode, args.workload,
        str(args.seed), str(args.seconds), repr(time.monotonic()), str(out),
    ]
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S, stdout=sys.stderr)
    result = json.loads(out.read_text())
    out.unlink()
    return result


def end_to_end(run: dict, setups: list) -> dict:
    """The seven end-to-end metrics of an untraced run: name -> (value, unit, samples)."""
    reps = run["reps"]
    walls = [r["wall_s"] for r in reps]
    solves = [r["evals_to_solve"] for r in reps if r["evals_to_solve"] is not None]
    return {
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "us_per_eval": (statistics.median(r["wall_s"] / r["evals"] * 1e6 for r in reps), "us", len(reps)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (run["peak_rss_mb"], "MB", 1),
        "evals_to_solve": (statistics.median(solves) if solves else None, "count", len(solves)),
        "best_cost": (statistics.median(r["best_cost"] for r in reps), "cost", len(reps)),
        "fail_frac": (run["failed"] / run["attempted"], "ratio", run["attempted"]),
    }


# Metrics in the final JSON line; the others are printed in the table only,
# because they can be 0 or undefined on some workloads.
GATED = ("wall_s", "us_per_eval", "setup_s", "peak_rss_mb")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "mfltga" / "__init__.py").is_file():
        print(f"no mfltga sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            run = child("trace", args)
            table = {name: (value, unit, 1) for name, (value, unit) in run["layers"].items()}
            gated = list(table)
        else:
            setups = [child("setup", args)["setup_s"] for _ in range(SETUP_SAMPLES)]
            run = child("run", args)
            table = end_to_end(run, setups + [run["setup_s"]])
            gated = GATED
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1

    correct = not run["problems"]
    for problem in run["problems"][:20]:
        print(f"check failed: {problem}")
    print(f"{'metric':<36} {'value':>16} {'unit':<6} samples")
    for name, (value, unit, samples) in table.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<36} {shown:>16} {unit:<6} {samples}")
    print(f"env: {json.dumps(run['env'])}")
    print(f"fingerprints: {' '.join(fp[:12] for fp in run['fingerprints'] or [])}")

    summary = {
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": table[name][0], "unit": table[name][1]} for name in gated},
    }
    record = dict(run, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  table={name: list(row) for name, row in table.items()}, summary=summary)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"result: {path.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

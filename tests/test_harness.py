import dataclasses
import json
import math
import pathlib

import pytest

from mfltga.engine import RunRecord, TracePoint, run_mfltga
from mfltga import harness
from mfltga.errors import ConfigurationError
from mfltga.mfo import unified_alphabet
from mfltga.problems import cluspt
from mfltga.harness import (
    ExperimentConfig,
    ExperimentResult,
    SummaryRow,
    SummaryTable,
    parse_problem_descriptor,
    read_summary_csv,
    resolve_tasks,
    run_experiment,
    serial_trace_rows,
    summarize,
    summary_csv_rows,
    write_csv,
)

INSTANCES = pathlib.Path(__file__).resolve().parent.parent / "instances"


def record(points, task_ids=(1,), evals_to_success=(None,)):
    trace = [TracePoint(g, e, tuple(b)) for g, e, b in points]
    return RunRecord(
        task_ids=task_ids,
        best_found=trace[-1].best,
        evals_to_success=evals_to_success,
        generations=trace[-1].generation,
        total_evals=trace[-1].evals,
        trace=trace,
    )


def one_leg(rec, stars):
    """Trace rows of a run that is a single leg holding all of its tasks."""
    return serial_trace_rows([(rec, range(len(rec.task_ids)))], stars)


def test_config_validation():
    good = ExperimentConfig(problems=["dtf:k=3,m=5"])
    assert good.validate() is good
    cases = [
        dict(problems=["dtf:k=3,m=5"], mode="both"),
        dict(problems=[]),
        dict(problems=["dtf:k=3,m=5"], num_tasks=0),
        dict(problems=["dtf:k=3,m=5", "dtf:k=3,m=5"], num_tasks=3),
        dict(problems=["dtf:k=3,m=5"], pop_size=7),
        dict(problems=["dtf:k=3,m=5"], max_evals=-1),
        dict(problems=["dtf:k=3,m=5"], runs=0),
        dict(problems=["dtf:k=3,m=5"], max_p=-1),
        dict(problems=["dtf:k=3,m=5"], mutation_rate=1.5),
        dict(problems=["dtf:k=3,m=5"], trace_every=0),
        dict(problems=["dtf:k=3,m=5"], runs=2.5),
        dict(problems=["dtf:k=3,m=5"], runs=True),
        dict(problems=["dtf:k=3,m=5"], num_tasks=2.0),
        dict(problems=["dtf:k=3,m=5"], seed=1.5),
        dict(problems=["dtf:k=3,m=5"], seed="42"),
        dict(problems=["dtf:k=3,m=5"], seed=-1),
        dict(problems=["dtf:k=3,m=5"], pop_size=4.0),
        dict(problems=["dtf:k=3,m=5"], max_evals=float("inf")),
        dict(problems=["dtf:k=3,m=5"], max_p=2.5),
        dict(problems=["dtf:k=3,m=5"], trace_every=1.5),
        dict(problems=["dtf:k=3,m=5"], mutation_rate=True),
        dict(problems=["dtf:k=3,m=5"], mutation_rate="0.5"),
        dict(problems=["dtf:k=3,m=5"], out_path=5),
    ]
    for kwargs in cases:
        with pytest.raises(ConfigurationError):
            ExperimentConfig(**kwargs).validate()
    # a bare descriptor string is not a list of descriptors, whatever num_tasks
    for kwargs in (
        dict(problems="dtf:k=3,m=5", num_tasks=11),
        dict(problems="dtf:k=3,m=5"),
        dict(problems=["dtf:k=3,m=5", 5]),
        dict(problems=None),
    ):
        with pytest.raises(ConfigurationError, match="problems"):
            ExperimentConfig(**kwargs).validate()
    assert ExperimentConfig(problems=("dtf:k=3,m=5",)).validate().problems == ("dtf:k=3,m=5",)


def test_paired_seed_policy():
    config = ExperimentConfig(problems=["dtf:k=3,m=5"], seed=42)
    assert [config.run_seed(r) for r in range(4)] == [42, 43, 40, 41]


def test_parse_problem_descriptor():
    kind, spec = parse_problem_descriptor("dtf:k=3,m=5")
    assert kind == "dtf"
    assert (spec.block_size, spec.num_blocks) == (3, 5)
    kind, path = parse_problem_descriptor("cluspt:instances/path4.cluspt")
    assert kind == "cluspt"
    assert path == "instances/path4.cluspt"
    kind, path = parse_problem_descriptor("cluspt:instances/a,b.cluspt,opt=22.5")
    assert (kind, path) == ("cluspt", "instances/a,b.cluspt")
    for bad in (
        "dtf",
        "dtf:k=3",
        "dtf:k=a,m=5",
        "dtf:k=3,m=5,z=1",
        "spin:j=2",
        "cluspt:x.cluspt,opt=",
        "cluspt:x.cluspt,opt=abc",
        "cluspt:x.cluspt,opt=nan",
        "cluspt:x.cluspt,opt=inf",
        "cluspt:,opt=3",
    ):
        with pytest.raises(ConfigurationError):
            parse_problem_descriptor(bad)
    with pytest.raises(ConfigurationError, match="^malformed dtf parameter ' m'$"):
        parse_problem_descriptor("dtf:k=3, m")
    # a repeated key is an error, not a silent overwrite by the later value
    for repeated, key in (("dtf:k=3,m=5,k=4", "k"), ("dtf:m=5, k=3,m=5", "m")):
        with pytest.raises(ConfigurationError, match=f"repeated dtf parameter '{key}'"):
            parse_problem_descriptor(repeated)
    # integers outside TrapSpec's range keep TrapSpec's own message
    for out_of_range, field in (("dtf:k=0,m=5", "block_size"), ("dtf:k=3,m=0", "num_blocks")):
        with pytest.raises(ConfigurationError, match=f"{field} must be >= 1"):
            parse_problem_descriptor(out_of_range)


def test_cluspt_descriptor_optimum_reaches_the_task():
    path = INSTANCES / "rings6.cluspt"
    config = ExperimentConfig(problems=[f"cluspt:{path},opt=22", f"cluspt:{path}"])
    tasks, labels = resolve_tasks(config)
    assert [t.known_optimum for t in tasks] == [22.0, None]
    assert labels == [f"cluspt:{path},opt=22", f"cluspt:{path}"]


def test_resolve_tasks_replicates_and_labels():
    config = ExperimentConfig(problems=["dtf:k=3,m=5"], num_tasks=3)
    tasks, labels = resolve_tasks(config)
    assert [t.task_id for t in tasks] == [1, 2, 3]
    assert all(t.dimension == 15 for t in tasks)
    assert labels == ["dtf:k=3,m=5"] * 3


def test_resolve_tasks_parses_a_replicated_cluspt_file_once(monkeypatch):
    parsed = []
    original = cluspt.parse_instance

    def counting_parse(text):
        parsed.append(text)
        return original(text)

    monkeypatch.setattr(cluspt, "parse_instance", counting_parse)
    monkeypatch.chdir(INSTANCES.parent)
    config = ExperimentConfig(problems=["cluspt:instances/rings6.cluspt"], num_tasks=3)
    tasks, labels = resolve_tasks(config)
    assert len(parsed) == 1
    assert [t.task_id for t in tasks] == [1, 2, 3]
    assert labels == ["cluspt:instances/rings6.cluspt"] * 3
    genotype = [5, 0, 3, 1, 4, 2]
    assert len({t.objective(genotype) for t in tasks}) == 1


def test_resolve_tasks_rejects_mixed_kinds():
    config = ExperimentConfig(
        problems=["dtf:k=3,m=5", f"cluspt:{INSTANCES / 'path4.cluspt'}"], num_tasks=2
    )
    with pytest.raises(ConfigurationError, match="share a gene alphabet"):
        resolve_tasks(config)


def test_resolve_tasks_unifies_cluspt_alphabet():
    config = ExperimentConfig(
        problems=[
            f"cluspt:{INSTANCES / 'path4.cluspt'}",
            f"cluspt:{INSTANCES / 'rings6.cluspt'}",
        ],
        num_tasks=2,
    )
    tasks, labels = resolve_tasks(config)
    assert [t.dimension for t in tasks] == [4, 6]
    # each task declares its own alphabet; the shared space takes the largest
    assert [t.alphabet_size for t in tasks] == [4, 6]
    assert unified_alphabet(tasks) == 6
    assert labels == config.problems


def test_carried_trace_carries_forward():
    # a generation the trace did not sample reads the last point sampled before it
    rec = record([(0, 10, (10.0,)), (1, 30, (6.0,)), (3, 70, (2.0,))])
    rows = one_leg(rec, [2.0])
    assert [row[2] for row in rows] == [10.0, 6.0, 6.0, 2.0]
    assert [row[1] for row in rows] == [10, 30, 30, 70]
    # the normalized column carries forward too and ends on the final point
    assert [row[3] for row in rows] == [1.0, 0.5, 0.5, 0.0]
    # two sparsely sampled st legs: the handover generation 3 reads leg 1's
    # final point, and leg 2's unsampled generations carry its points forward
    first = record([(0, 10, (10.0,)), (2, 30, (6.0,)), (3, 40, (4.0,))])
    second = record([(0, 10, (20.0,)), (2, 30, (8.0,)), (4, 50, (5.0,))])
    rows = serial_trace_rows([(first, [0]), (second, [1])], [4.0, 5.0])
    assert [row[0] for row in rows] == list(range(8))
    assert [row[2] for row in rows] == [10.0, 10.0, 6.0, 4.0, 4.0, 4.0, 4.0, 4.0]
    assert [row[3] for row in rows] == [None, None, None, 20.0, 20.0, 8.0, 8.0, 5.0]
    assert [row[1] for row in rows] == [10, 10, 30, 50, 50, 70, 70, 90]
    assert [row[4] for row in rows[3:]] == [0.0] * 5


def test_normalized_objective_scales_and_clamps():
    # column 3 of a one-task trace row is the task's normalized objective
    rec = record([(0, 10, (10.0,)), (1, 30, (6.0,)), (2, 70, (2.0,))])
    assert [row[3] for row in one_leg(rec, [2.0])] == [1.0, 0.5, 0.0]
    # a reference above the run's own best clamps instead of going negative
    assert one_leg(rec, [4.0])[2][3] == 0.0
    # degenerate span: the run never improved on the reference
    flat = record([(0, 10, (3.0,)), (1, 20, (3.0,))])
    assert one_leg(flat, [3.0])[1][3] == 0.0


def test_mt_trace_rows_shape():
    rec = record(
        [(0, 20, (8.0, 9.0)), (1, 40, (4.0, 9.0)), (2, 60, (0.0, 3.0))],
        task_ids=(1, 2),
        evals_to_success=(55, None),
    )
    rows = one_leg(rec, [0.0, 3.0])
    assert len(rows) == 3
    assert rows[0] == [0, 20, 8.0, 9.0, 1.0, 1.0, 1.0]
    assert rows[2][0] == 2
    assert rows[2][1] == 60
    assert rows[2][4] == 0.0 and rows[2][5] == 0.0
    assert rows[2][6] == 0.0


def test_st_serial_rows_hold_later_tasks_until_their_leg():
    first = record([(0, 10, (10.0,)), (1, 30, (6.0,)), (2, 50, (2.0,))])
    second = record([(0, 10, (20.0,)), (1, 30, (5.0,))])
    rows = serial_trace_rows([(first, [0]), (second, [1])], [2.0, 5.0])
    # 2 + 1 leg generations share one axis: combined generations 0..3
    assert len(rows) == 4
    gen0 = rows[0]
    assert gen0[2] == 10.0 and gen0[3] is None
    assert gen0[4] == 1.0 and gen0[5] == 1.0 and gen0[6] == 1.0
    # during leg 1 the second task still sits at 1.0
    assert rows[1][3] is None and rows[1][5] == 1.0
    # the handover generation shows leg 1 finished and leg 2 at its init
    gen2 = rows[2]
    assert gen2[2] == 2.0 and gen2[3] == 20.0
    assert gen2[1] == 50 + 10
    assert gen2[4] == 0.0 and gen2[5] == 1.0 and gen2[6] == 0.5
    final = rows[-1]
    assert final[0] == 3
    assert final[2] == 2.0 and final[3] == 5.0
    assert final[1] == 50 + 30
    assert final[4] == 0.0 and final[5] == 0.0 and final[6] == 0.0


def test_st_serial_rows_single_task_is_the_plain_trace():
    rec = record([(0, 10, (10.0,)), (1, 30, (6.0,))])
    rows = serial_trace_rows([(rec, [0])], [6.0])
    assert [r[0] for r in rows] == [0, 1]
    assert rows[0][2] == 10.0 and rows[1][2] == 6.0


def test_summarize_counts_successes_and_averages():
    config = ExperimentConfig(problems=["dtf:k=1,m=2"], mode="st", num_tasks=1, runs=3)
    st = {
        1: [
            record([(0, 4, (1.0,)), (1, 10, (0.0,))], evals_to_success=(7,)),
            record([(0, 4, (2.0,)), (1, 10, (0.0,))], evals_to_success=(9,)),
            record([(0, 4, (2.0,)), (1, 10, (1.0,))], evals_to_success=(None,)),
        ]
    }
    result = ExperimentResult(config=config, labels=["dtf:k=1,m=2"], st_records=st)
    table = summarize(result)
    assert len(table.rows) == 1
    row = table.rows[0]
    assert row.mode == "st" and row.task == 1 and row.runs == 3
    assert row.num_opt == 2
    assert row.mean_num_evals == 8.0
    assert row.bf == 0.0
    assert row.avg == pytest.approx(1.0 / 3.0)


def test_summarize_without_successes_leaves_mean_empty():
    config = ExperimentConfig(problems=["dtf:k=1,m=2"], runs=1)
    mt = [
        record(
            [(0, 8, (3.0, 4.0)), (1, 20, (2.0, 4.0))],
            task_ids=(1, 2),
            evals_to_success=(None, None),
        )
    ]
    result = ExperimentResult(
        config=config, labels=["dtf:k=1,m=2", "dtf:k=1,m=2"], mt_records=mt
    )
    table = summarize(result)
    assert [r.task for r in table.rows] == [1, 2]
    assert all(r.mean_num_evals is None for r in table.rows)
    assert table.rows[0].bf == 2.0 and table.rows[1].bf == 4.0


def test_summary_csv_round_trip_is_exact(tmp_path):
    rows = [
        SummaryRow("dtf:k=3,m=5", "st", 1, 10, 10, 0.1 + 0.2, 0.0, 1.0 / 3.0),
        SummaryRow("dtf:k=3,m=5", "mt", 2, 10, 0, None, 2.0, math.pi),
    ]
    path = tmp_path / "summary.csv"
    write_csv(path, summary_csv_rows(SummaryTable(rows=rows)))
    back = read_summary_csv(path)
    assert back.rows == rows


def test_run_experiment_emits_outputs(tmp_path):
    config = ExperimentConfig(
        problems=["dtf:k=1,m=2"],
        mode="st",
        num_tasks=2,
        pop_size=4,
        max_evals=500,
        runs=2,
        seed=5,
        out_path=str(tmp_path),
    )
    result = run_experiment(config)
    assert result.st_records is not None
    assert sorted(result.st_records) == [1, 2]

    assert (tmp_path / "summary.csv").exists()
    table = read_summary_csv(tmp_path / "summary.csv")
    assert len(table.rows) == 2

    for r in range(2):
        lines = (tmp_path / f"trace_{r}.csv").read_text().splitlines()
        assert lines[0] == "generation,evals,best_task1,best_task2,f1_norm,f2_norm,f_norm_avg"
        assert len(lines) >= 2

    payload = json.loads((tmp_path / "config.json").read_text())
    assert payload["run_seeds"] == [5, 4]
    assert payload["mode"] == "st"
    assert payload["instances"] == ["dtf:k=1,m=2", "dtf:k=1,m=2"]
    assert "seed_policy" in payload
    fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert list(payload) == fields + ["instances", "run_seeds", "seed_policy"]


def test_run_experiment_writes_a_path_out_path_as_a_string(tmp_path):
    config = ExperimentConfig(
        problems=["dtf:k=1,m=2"], pop_size=4, max_evals=100, runs=1, out_path=tmp_path / "out"
    )
    result = run_experiment(config)
    assert result.mt_records is not None
    payload = json.loads((tmp_path / "out" / "config.json").read_text())
    assert payload["out_path"] == str(tmp_path / "out")


def test_run_experiment_rejects_an_out_path_it_cannot_create(tmp_path, monkeypatch):
    calls = []
    original = harness.resolve_tasks

    def counting_tasks(config):
        tasks, labels = original(config)
        counted = [
            dataclasses.replace(t, objective=lambda genes, f=t.objective: calls.append(1) or f(genes))
            for t in tasks
        ]
        return counted, labels

    monkeypatch.setattr(harness, "resolve_tasks", counting_tasks)
    taken = tmp_path / "taken"
    taken.write_text("")
    config = ExperimentConfig(
        problems=["dtf:k=1,m=2"], pop_size=4, max_evals=100, runs=1, out_path=str(taken)
    )
    with pytest.raises(ConfigurationError, match="cannot create output directory") as info:
        run_experiment(config)
    assert str(taken) in str(info.value)
    assert isinstance(info.value.__cause__, OSError)
    assert calls == []
    # the same config with a creatable path spends evaluations
    run_experiment(dataclasses.replace(config, out_path=str(tmp_path / "fresh")))
    assert calls


def test_run_experiment_mt_smoke(tmp_path):
    config = ExperimentConfig(
        problems=["dtf:k=3,m=2"],
        mode="mt",
        num_tasks=2,
        pop_size=16,
        max_evals=20_000,
        runs=2,
        seed=1,
        out_path=str(tmp_path),
    )
    result = run_experiment(config)
    assert len(result.mt_records) == 2
    table = read_summary_csv(tmp_path / "summary.csv")
    assert [r.mode for r in table.rows] == ["mt", "mt"]
    assert [r.task for r in table.rows] == [1, 2]


def test_st_runs_of_a_replicated_descriptor_are_identical():
    # each st task runs alone as task 1 on run r's seed, so replicating one
    # descriptor repeats the same run: reusing one of them would be exact
    config = ExperimentConfig(
        problems=["dtf:k=3,m=3"],
        mode="st",
        num_tasks=2,
        pop_size=16,
        max_evals=3000,
        runs=2,
        seed=5,
    )
    records = run_experiment(config).st_records
    assert sorted(records) == [1, 2]
    for r in range(config.runs):
        assert records[1][r] == records[2][r]
    assert records[1][0].to_dict() != records[1][1].to_dict()


@pytest.mark.parametrize("mode", ["st", "mt"])
def test_a_default_config_runs_without_mutation(mode):
    # the config takes its mutation default from the engine, so a default
    # campaign gives exactly the engine's mutation-free runs
    config = ExperimentConfig(
        problems=["dtf:k=3,m=4", "dtf:k=2,m=5"],
        mode=mode,
        num_tasks=2,
        pop_size=16,
        max_evals=6_000,
        runs=2,
        seed=7,
    )
    result = run_experiment(config)
    tasks, _ = resolve_tasks(config)

    def plain(task_list):
        return [
            run_mfltga(task_list, pop_size=16, max_evals=6_000, seed=config.run_seed(r),
                       mutation_rate=0.0)
            for r in range(config.runs)
        ]

    if mode == "mt":
        assert result.mt_records == plain(tasks)
    else:
        assert result.st_records == {
            task.task_id: plain([dataclasses.replace(task, task_id=1)]) for task in tasks
        }

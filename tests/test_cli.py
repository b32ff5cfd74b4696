import csv
import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import pytest

from mfltga import cli
from mfltga.cli import main
from mfltga.harness import ExperimentConfig, SummaryTable

ROOT = pathlib.Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "instances"
HEADER = ["instance", "mode", "task", "runs", "num_opt", "mean_num_evals", "bf", "avg"]


def printed_table(out):
    """The summary table `run` printed, parsed as CSV (header row first).

    stdout holds the table alone, so every line must parse as a full row.
    """
    rows = list(csv.reader(out.splitlines()))
    assert all(len(row) == len(HEADER) for row in rows)
    return rows


def test_run_subcommand_prints_summary_and_writes_outputs(tmp_path, capsys):
    code = main(
        [
            "run",
            "--problem",
            "dtf:k=3,m=2",
            "--mode",
            "mt",
            "--tasks",
            "2",
            "--pop",
            "16",
            "--max-evals",
            "20000",
            "--runs",
            "2",
            "--seed",
            "7",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    rows = printed_table(captured.out)
    # the note on where outputs went is not part of the table
    assert captured.err == f"outputs written to {tmp_path}\n"
    assert rows[0] == HEADER
    assert [row[:3] for row in rows[1:]] == [["dtf:k=3,m=2", "mt", str(t)] for t in (1, 2)]
    with open(tmp_path / "summary.csv", newline="", encoding="utf-8") as handle:
        assert list(csv.reader(handle)) == rows
    assert (tmp_path / "trace_0.csv").exists()
    payload = json.loads((tmp_path / "config.json").read_text())
    assert payload["seed"] == 7


def test_run_subcommand_st_mode_on_an_instance_file(tmp_path, capsys):
    code = main(
        [
            "run",
            "--problem",
            f"cluspt:{INSTANCES / 'path4.cluspt'}",
            "--mode",
            "st",
            "--tasks",
            "1",
            "--pop",
            "8",
            "--max-evals",
            "2000",
            "--runs",
            "1",
            "--seed",
            "3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert ",st,1,1," in out


def test_run_counts_cluspt_successes_against_a_declared_optimum(capsys):
    # 22 is the rings6 optimum (see the oracle test below); without ',opt='
    # a run can find it but never count it
    problem = f"cluspt:{INSTANCES / 'rings6.cluspt'},opt=22"
    argv = ["run", "--problem", problem, "--mode", "st", "--tasks", "1", "--pop", "16"]
    code = main(argv + ["--max-evals", "5000", "--runs", "2", "--seed", "3"])
    assert code == 0
    header, row = printed_table(capsys.readouterr().out)
    assert header == HEADER
    assert row[:4] == [problem, "st", "1", "2"]
    assert int(row[4]) >= 1
    assert float(row[6]) == 22.0


def test_run_that_beats_a_declared_optimum_exits_with_error(tmp_path, capsys):
    # 22 is the rings6 optimum: a declared 30 would count each run's first
    # evaluation as a success, so the campaign fails and writes no summary
    problem = f"cluspt:{INSTANCES / 'rings6.cluspt'},opt=30"
    argv = ["run", "--problem", problem, "--tasks", "1", "--pop", "8", "--max-evals", "2000"]
    out_dir = tmp_path / "out"
    assert main(argv + ["--runs", "3", "--out", str(out_dir)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: task 1: cost 22.0 beats the declared optimum 30.0\n"
    assert not (out_dir / "summary.csv").exists()


@pytest.mark.parametrize(
    "problem, tasks, pop, max_evals",
    [
        # one file replicated over three tasks shares one graph and its memo
        (f"cluspt:{INSTANCES / 'rings6.cluspt'},opt=22", 3, 8, 2000),
        ("dtf:k=4,m=5", 2, 64, 200000),
        # k=7 counts full blocks with shifts of 1 and 2 bytes and a tail of 3
        ("dtf:k=7,m=3", 2, 64, 200000),
    ],
    ids=["rings6", "dtf-k4", "dtf-k7"],
)
def test_campaign_solves_every_task_in_every_run(problem, tasks, pop, max_evals, capsys):
    argv = ["run", "--problem", problem, "--mode", "mt", "--tasks", str(tasks), "--pop", str(pop)]
    assert main(argv + ["--max-evals", str(max_evals), "--runs", "2"]) == 0
    header, *rows = printed_table(capsys.readouterr().out)
    rows = [dict(zip(header, row)) for row in rows]
    assert len(rows) == tasks
    assert all(row["num_opt"] == row["runs"] == "2" for row in rows)


def test_run_on_a_split_cluster_exits_with_error(tmp_path, capsys):
    # cluster {1, 3} is joined only through vertex 2 of the other cluster
    split = tmp_path / "split.cluspt"
    split.write_text(
        "DIMENSION: 3\nCLUSTERS: 2\nSOURCE: 1\nEDGE_WEIGHT_TYPE: EXPLICIT\n"
        "EDGE_SECTION\n1 2 1\n2 3 1\nCLUSTER_SECTION\n1 1 3 -1\n2 2 -1\nEOF\n"
    )
    argv = ["run", "--problem", f"cluspt:{split}", "--tasks", "1", "--pop", "4"]
    assert main(argv + ["--max-evals", "50", "--runs", "1"]) == 2
    assert capsys.readouterr().err == "error: induced subgraph of cluster 1 is not connected\n"


def test_run_on_a_one_vertex_instance_prints_one_row(tmp_path, capsys):
    # a one-vertex EXPLICIT instance has no edges and needs no EDGE_SECTION
    one = tmp_path / "one.cluspt"
    one.write_text(
        "DIMENSION: 1\nCLUSTERS: 1\nSOURCE: 1\nEDGE_WEIGHT_TYPE: EXPLICIT\n"
        "CLUSTER_SECTION\n1 1 -1\nEOF\n"
    )
    argv = ["run", "--problem", f"cluspt:{one}", "--tasks", "1", "--pop", "4"]
    assert main(argv + ["--max-evals", "50", "--runs", "1"]) == 0
    header, *rows = printed_table(capsys.readouterr().out)
    assert header == HEADER
    assert len(rows) == 1


def test_out_path_that_is_a_file_exits_with_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = ["run", "--problem", "dtf:k=1,m=2", "--pop", "4", "--max-evals", "100"]
    assert main(argv + ["--runs", "1", "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create output directory {str(taken)!r}")


@pytest.mark.parametrize("name", ["summary.csv", "trace_0.csv", "config.json"])
def test_output_file_that_cannot_be_written_exits_with_error(tmp_path, capsys, name):
    blocked = tmp_path / "out" / name
    blocked.mkdir(parents=True)
    argv = ["run", "--problem", "dtf:k=1,m=2", "--pop", "4", "--max-evals", "100"]
    assert main(argv + ["--runs", "1", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {str(blocked)!r}: ")
    assert err.count("\n") == 1


def captured_config(monkeypatch, argv):
    """The ExperimentConfig `run` builds from argv, without running it."""
    seen = []

    def fake_run_experiment(config):
        seen.append(config)
        return None

    monkeypatch.setattr(cli, "run_experiment", fake_run_experiment)
    monkeypatch.setattr(cli, "summarize", lambda result: SummaryTable(rows=[]))
    assert main(["run"] + argv) == 0
    (config,) = seen
    return config


def test_every_run_flag_reaches_its_config_field(monkeypatch, tmp_path):
    argv = [
        "--problem", "dtf:k=3,m=5",
        "--problem", "dtf:k=4,m=2",
        "--problem", "dtf:k=2,m=2",
        "--mode", "st",
        "--tasks", "3",
        "--pop", "16",
        "--max-evals", "123",
        "--runs", "4",
        "--seed", "9",
        "--max-p", "3",
        "--mutation", "0.25",
        "--trace-every", "5",
        "--out", str(tmp_path),
    ]  # fmt: skip
    config = captured_config(monkeypatch, argv)
    assert config == ExperimentConfig(
        problems=["dtf:k=3,m=5", "dtf:k=4,m=2", "dtf:k=2,m=2"],
        mode="st",
        num_tasks=3,
        pop_size=16,
        max_evals=123,
        runs=4,
        seed=9,
        max_p=3,
        mutation_rate=0.25,
        trace_every=5,
        out_path=str(tmp_path),
    )
    # every field was given a value other than its default, so each flag
    # above is shown to reach its own field
    defaults = ExperimentConfig(problems=[])
    for field in dataclasses.fields(ExperimentConfig):
        assert getattr(config, field.name) != getattr(defaults, field.name), field.name


def test_bare_run_resolves_to_the_config_defaults(monkeypatch):
    config = captured_config(monkeypatch, ["--problem", "dtf:k=3,m=5"])
    assert config == ExperimentConfig(problems=["dtf:k=3,m=5"])


def test_oracle_subcommand_dtf(capsys):
    assert main(["oracle", "--problem", "dtf:k=2,m=3"]) == 0
    out = capsys.readouterr().out
    assert "optimum_cost=0.0" in out
    assert "optimum_count=1" in out
    assert "enumerated=64" in out


def test_oracle_subcommand_cluspt(capsys):
    assert main(["oracle", "--problem", f"cluspt:{INSTANCES / 'rings6.cluspt'}"]) == 0
    out = capsys.readouterr().out
    assert "optimum_cost=22.0" in out
    assert "optimum_count=2" in out


@pytest.mark.parametrize("opt", ["22", "22.0000000001"])
def test_oracle_accepts_a_declared_optimum_it_enumerates(opt, capsys):
    rings6 = INSTANCES / "rings6.cluspt"
    assert main(["oracle", "--problem", f"cluspt:{rings6}"]) == 0
    plain = capsys.readouterr()
    assert main(["oracle", "--problem", f"cluspt:{rings6},opt={opt}"]) == 0
    assert capsys.readouterr() == plain


@pytest.mark.parametrize("opt", ["5", "21.99999999"])
def test_oracle_rejects_a_declared_optimum_it_does_not_enumerate(opt, capsys):
    rings6 = INSTANCES / "rings6.cluspt"
    assert main(["oracle", "--problem", f"cluspt:{rings6},opt={opt}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: declared optimum {float(opt)} differs from the enumerated optimum 22.0\n"


def test_bad_descriptor_exits_with_error(capsys):
    assert main(["oracle", "--problem", "spin:j=2"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_repeated_dtf_parameter_exits_with_error(capsys):
    assert main(["oracle", "--problem", "dtf:k=3,m=5,k=4"]) == 2
    assert "repeated dtf parameter 'k'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "problem", ["dtf:k=99999999999999999999,m=1", "dtf:k=1,m=99999999999999999999"]
)
def test_dtf_genotype_past_sys_maxsize_exits_with_error(problem, capsys):
    assert main(["run", "--problem", problem, "--runs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: genotype length 99999999999999999999 ")


def test_negative_seed_exits_with_error(capsys):
    argv = ["run", "--problem", "dtf:k=1,m=2", "--pop", "4", "--runs", "1", "--seed", "-1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0\n"


def test_bad_instance_file_exits_with_error(tmp_path, capsys):
    bad = tmp_path / "broken.cluspt"
    bad.write_text("DIMENSION: 2\nCLUSTERS: 1\nSOURCE: 1\n")
    assert main(["oracle", "--problem", f"cluspt:{bad}"]) == 2
    assert "error:" in capsys.readouterr().err


def test_non_finite_instance_number_exits_with_error(tmp_path, capsys):
    bad = tmp_path / "nan.cluspt"
    bad.write_text((INSTANCES / "euc5.cluspt").read_text().replace("\n2 3 4\n", "\n2 nan 4\n"))
    assert main(["oracle", "--problem", f"cluspt:{bad}"]) == 2
    assert "line 8: non-finite coordinate" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "oracle"])
@pytest.mark.parametrize("target", ["missing.cluspt", "."])
def test_unreadable_instance_path_exits_with_error(tmp_path, capsys, command, target):
    path = tmp_path / target
    assert main([command, "--problem", f"cluspt:{path}"]) == 2
    assert f"error: cannot read instance file {path}" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli_in_a_fresh_interpreter(tmp_path):
    # goes through __main__.py, which an in-process main() call never touches
    env = dict(os.environ, PYTHONPATH="src")

    def run(descriptor):
        return subprocess.run(
            [sys.executable, "-m", "mfltga", "oracle", "--problem", descriptor],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    done = run("cluspt:instances/rings6.cluspt")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "optimum_cost=22.0 optimum_count=2 enumerated=8"
    missing = run(f"cluspt:{tmp_path / 'missing.cluspt'}")
    assert missing.returncode == 2
    assert missing.stderr.startswith("error:")

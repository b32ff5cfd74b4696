"""Golden fingerprints: fixed seeds must reproduce byte-identical runs.

Each case hashes ``json.dumps(RunRecord.to_dict(), sort_keys=True)`` of one
small seeded ``run_mfltga`` call; the emission cases hash the files that
``run_experiment`` writes.  A change that is not meant to alter behaviour
must leave every hash below untouched; a deliberate semantic change re-blesses
them and says so.  To print the current hashes run

    PYTHONPATH=src python tests/test_fingerprints.py
"""
import hashlib
import json
import pathlib
import random

import pytest

from mfltga.engine import run_mfltga
from mfltga.harness import ExperimentConfig, run_experiment
from mfltga.problems import cluspt, trap

INSTANCES = pathlib.Path(__file__).resolve().parent.parent / "instances"


def trap_tasks(*shapes):
    return [trap.make_task(trap.TrapSpec(k, m), task_id=t) for t, (k, m) in enumerate(shapes, 1)]


def cluspt_tasks(name):
    return [cluspt.make_task(cluspt.parse_file(INSTANCES / f"{name}.cluspt"))]


def synthetic_cluspt_tasks(n, num_clusters, seed):
    """One task on a seeded EUC_2D instance of n random points dealt to clusters at random."""
    rng = random.Random(seed)
    order = rng.sample(range(1, n + 1), n)
    coords = "\n".join(f"{v} {rng.randrange(1000)} {rng.randrange(1000)}" for v in range(1, n + 1))
    clusters = "\n".join(
        " ".join(map(str, [c, *sorted(order[c - 1 :: num_clusters]), -1]))
        for c in range(1, num_clusters + 1)
    )
    text = (
        f"DIMENSION: {n}\nCLUSTERS: {num_clusters}\nSOURCE: 1\nEDGE_WEIGHT_TYPE: EUC_2D\n"
        f"NODE_COORD_SECTION\n{coords}\nCLUSTER_SECTION\n{clusters}\nEOF\n"
    )
    return [cluspt.make_task(cluspt.parse_instance(text))]


# name -> (task factory, run_mfltga keyword arguments)
CASES = {
    "trap-st": (lambda: trap_tasks((3, 4)), dict(pop_size=32, max_evals=20_000, seed=11)),
    "trap-mt": (lambda: trap_tasks((3, 4), (3, 4)), dict(pop_size=32, max_evals=20_000, seed=12)),
    "trap-mixed-dims": (
        lambda: trap_tasks((3, 4), (2, 5), (4, 2)),
        dict(pop_size=32, max_evals=20_000, seed=13),
    ),
    "mutation-0": (
        lambda: trap_tasks((3, 3), (3, 3)),
        dict(pop_size=16, max_evals=10_000, seed=14, mutation_rate=0.0),
    ),
    "mutation-0.05": (
        lambda: trap_tasks((3, 3), (3, 3)),
        dict(pop_size=16, max_evals=10_000, seed=14, mutation_rate=0.05),
    ),
    "cluspt-path4": (lambda: cluspt_tasks("path4"), dict(pop_size=8, max_evals=600, seed=21)),
    "cluspt-euc5": (lambda: cluspt_tasks("euc5"), dict(pop_size=8, max_evals=600, seed=22)),
    "cluspt-rings6": (lambda: cluspt_tasks("rings6"), dict(pop_size=8, max_evals=600, seed=23)),
    "cluspt-blocks7": (lambda: cluspt_tasks("blocks7"), dict(pop_size=8, max_evals=600, seed=24)),
    # 300 vertices give a 300-letter alphabet: list genotypes with genes above 255
    "cluspt-synth300": (
        lambda: synthetic_cluspt_tasks(300, 10, seed=1),
        dict(pop_size=8, max_evals=200, seed=25),
    ),
    "restart-max-p-0": (
        lambda: trap_tasks((4, 3), (4, 3)),
        dict(pop_size=16, max_evals=8_000, seed=31, max_p=0),
    ),
    "trace-every-3": (
        lambda: trap_tasks((3, 5), (3, 5)),
        dict(pop_size=16, max_evals=15_000, seed=41, trace_every=3),
    ),
}

GOLDEN_RUNS = {
    "cluspt-blocks7": "e188806236b30dd7eaa329ffe831b54e7cbab6a57a10d50e9698fec42861016c",
    "cluspt-euc5": "30f720b5a7359e21e39600ac11e5fd0f2f2db82b41976f5c337711ee45e5c7ac",
    "cluspt-path4": "6a3d579507ba07277ad5a842d2d5fb0562ac7d2ceb1442b1baf3190d0123b798",
    "cluspt-rings6": "35314eff3aa265ada471ad1c2a242f8653562c35f565213402d4cebae7a21458",
    "cluspt-synth300": "1635c2901514e1d4f3476d0e03b6d6f7a88f30b88b0c1e55d401968ca1fc4653",
    "mutation-0": "01f06e39728b0ee894e6039c81fe92fd43f99515185fae1d4115302d131679e3",
    "mutation-0.05": "855b8f7617fbd1a94827bb68730b8171dff0eb6b00e64524e80fe51fc992f1ef",
    "restart-max-p-0": "1294b7109664ebf269ea3a65848b0b00797d30be95853082ee0e881c935d10d8",
    "trace-every-3": "bcf51c0e4025ade378d47c90c48b8ff0df625a8e740c695532ad8e894c44f249",
    "trap-mixed-dims": "32ca40341baba827fce37ef67c677e7cf6a8a3cec9a4cd9d2403ee0bec21677e",
    "trap-mt": "3559bca0a9c870142f4e9ca84d6412e88213e5e36d94d99670d03c9f465971a4",
    "trap-st": "7e8788cb310df7e52836c38a316b4da893b450a632136257a2e4478a744fd27b",
}


# name -> ExperimentConfig keyword arguments (out_path is added per test)
EMISSION_CASES = {
    "st": dict(
        problems=["dtf:k=3,m=4", "dtf:k=2,m=5"], mode="st", num_tasks=2, pop_size=16,
        max_evals=6_000, runs=2, seed=7, trace_every=3,
    ),
    "mt": dict(
        problems=["dtf:k=3,m=4", "dtf:k=2,m=5"], mode="mt", num_tasks=2, pop_size=16,
        max_evals=6_000, runs=2, seed=7, trace_every=3,
    ),
}

GOLDEN_FILES = {
    "mt": {
        "summary.csv": "619ef0c4039bd79458168db1eb2a8438499d31cac6da7e71f4c7c307489bc58b",
        "trace_0.csv": "06f1ba483c183d2d813271afeb1238b98bb793976bcf552667abb9723293486e",
        "trace_1.csv": "a2b91324384b2ff48d643d69c43b91252ec7fae27aa2ab9cb908c968c3e04409",
    },
    "st": {
        "summary.csv": "0832be2756b04f755c2a498c9b36adb231dab2444255f51c0f874e3feace9e3e",
        "trace_0.csv": "2b42247ba8a9061fd68f6dbf8407600e9820467bf4ad6188ba95111a22efaed7",
        "trace_1.csv": "0461fefb7ae9a61033ab99b5d253709062616ace1ebca504031933ba6c63ef3c",
    },
}

# config.json keys and values as written at the pinned commit; "<out>" stands
# for the output directory.  That commit also wrote two keys for a config
# field that has since been deleted, so only the keys below are compared.
GOLDEN_CONFIG = {
    mode: {
        "problems": ["dtf:k=3,m=4", "dtf:k=2,m=5"],
        "mode": mode,
        "num_tasks": 2,
        "pop_size": 16,
        "max_evals": 6000,
        "runs": 2,
        "seed": 7,
        "max_p": 10,
        "mutation_rate": 0.05,
        "trace_every": 3,
        "out_path": "<out>",
        "instances": ["dtf:k=3,m=4", "dtf:k=2,m=5"],
        "run_seeds": [7, 6],
        "seed_policy": "run r uses seed = base_seed XOR r",
    }
    for mode in ("st", "mt")
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_fingerprint(name: str) -> str:
    make_tasks, kwargs = CASES[name]
    record = run_mfltga(make_tasks(), **kwargs)
    return sha256(json.dumps(record.to_dict(), sort_keys=True).encode("utf-8"))


def emit(name: str, out: pathlib.Path):
    """Run one emission case into out; return (file hashes, parsed config.json)."""
    run_experiment(ExperimentConfig(**EMISSION_CASES[name], out_path=str(out)))
    files = {
        path.name: sha256(path.read_bytes())
        for path in sorted(out.iterdir())
        if path.name != "config.json"
    }
    payload = json.loads((out / "config.json").read_text())
    assert payload["out_path"] == str(out)
    payload["out_path"] = "<out>"
    return files, payload


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_fingerprint(name):
    assert run_fingerprint(name) == GOLDEN_RUNS[name]


@pytest.mark.parametrize("name", sorted(EMISSION_CASES))
def test_emission_fingerprint(name, tmp_path):
    files, payload = emit(name, tmp_path)
    assert files == GOLDEN_FILES[name]
    assert {key: payload.get(key) for key in GOLDEN_CONFIG[name]} == GOLDEN_CONFIG[name]


if __name__ == "__main__":
    import pprint
    import tempfile

    pprint.pprint({name: run_fingerprint(name) for name in sorted(CASES)}, width=100)
    files, configs = {}, {}
    for name in sorted(EMISSION_CASES):
        with tempfile.TemporaryDirectory() as tmp:
            files[name], configs[name] = emit(name, pathlib.Path(tmp))
    pprint.pprint(files, width=100)
    pprint.pprint(configs, width=100, sort_dicts=False)

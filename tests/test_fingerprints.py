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


def cluspt_tasks(*names):
    return [
        cluspt.make_task(cluspt.parse_file(INSTANCES / f"{name}.cluspt"), task_id=t)
        for t, name in enumerate(names, 1)
    ]


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
    # two graphs share one genotype, each task decoding its own slice
    "cluspt-mt": (
        lambda: cluspt_tasks("rings6", "blocks7"),
        dict(pop_size=8, max_evals=1000, seed=26),
    ),
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
    "cluspt-blocks7": "a577ceab027be400ad68366783eaa35a4552407e9d825ce03bb2052c1744166e",
    "cluspt-euc5": "69e23a3453dbecad654669cc4e09e9b327df629d3d8d8d964e488a3c4f7a9a81",
    "cluspt-mt": "9a09f26ed2bb804f4481c787be65ca59a91b0b6c141536ad0a7a12c300996b3e",
    "cluspt-path4": "5d06bef408de6a96510405f0c32c12beb9634f4a8c01ce87c2d75e29fcebc906",
    "cluspt-rings6": "cf8d38773d799aadc816e7ae3d2dabd1cbe919dc7177b0a3bacaf6a9e19c5229",
    "cluspt-synth300": "bdd1926d6cffe5ab1c8473e37336ba7c7748f476a857ce0903ce396508b83fee",
    "mutation-0": "b76bf205b20c1fab13717713c018b25b64d86c81f7392f34ec92da2688df477b",
    "mutation-0.05": "a3676e2a5bd53dbfe38a3652a4c502b4af4cd45b7c3cbe39ff7101f53515e460",
    "restart-max-p-0": "12ec42f95e3e7523fa4d004df9e0a5068b28c27548f677de8110888da8184192",
    "trace-every-3": "24f7ec04db4ea93c852ebd0717da66254e7c11740569839c1b07257ca703a6c7",
    "trap-mixed-dims": "6b2751c9c9bdfe325226b18cbd97670ad59bc045dc68d56dc2ca6749a7d2bf44",
    "trap-mt": "c40c27d99d46e2098d8bdb0ba71f935be26be50db6594b9caaedc69f5060ce38",
    "trap-st": "54d2113230faf402e8e34d5c96765f0d137f37dbbd9d157b3a22afee6e2b1a82",
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
        "summary.csv": "ff43a832996d78d9cbf6812f132ae6aa15eb75d164593e9658b4d51c6bdb9c41",
        "trace_0.csv": "8cfda3198cd9c781cd2724011e6e9fd2def4b0a7b14a568b0f049e51b407c51c",
        "trace_1.csv": "41a268bd43967b85541d40c77359c5ddfd190677ddcde3608dbda65353c18b81",
    },
    "st": {
        "summary.csv": "825d9ac435937a89e3b4bbfb31449eec0c230aeaab0f26c5755e9251f6ff2598",
        "trace_0.csv": "26558d9783dfaafac076fb94fb8f3fb3b9eebfe4af5549c6e0c9d4db0235f588",
        "trace_1.csv": "8b3b30cca950e3037be53ae783afc2f324bddaf8447ef51f8b23b74fba7a2b17",
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

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
    "cluspt-blocks7": "0226673dbd5915f61c13f99cd2ece9c15f09681fb7581e4745b5c1dc0c373534",
    "cluspt-euc5": "0ef5ca70c2567fbbea3d3750a4c270d19c04a4515f3e268d1f235dcc9bb5dbf8",
    "cluspt-mt": "b9d852fa59641d494df42e3442dde29cd623ae25aff7f5db226fa0c8e755d58f",
    "cluspt-path4": "3b289bbaefff4927603ab915ebbad10dd9a06268c17ae6faa55abee11e1dc98b",
    "cluspt-rings6": "6ebcf77e1206e22a57d8f8f4da497d855101e0cc6e43fd704d9cc532ec33d0f4",
    "cluspt-synth300": "1a14eda89aa06fdda0e2bf3a5ac9e7bfaad3034ba88329966822ffc9f342e834",
    "mutation-0": "b76bf205b20c1fab13717713c018b25b64d86c81f7392f34ec92da2688df477b",
    "mutation-0.05": "a3676e2a5bd53dbfe38a3652a4c502b4af4cd45b7c3cbe39ff7101f53515e460",
    "restart-max-p-0": "5c9ec7461c3d64e67092bf17217360fc99cc6e1b95485dcca3f53276341065e0",
    "trace-every-3": "e7e1d1a987fed00c770923a13c73809a2f61999dcde8413b2f81c047336d6fb4",
    "trap-mixed-dims": "73e3cc52eff3cd94baa3497be654d2e5e8e2743d13b007a4082749189eafc1e6",
    "trap-mt": "c3641dd7b11b5c27a6e31406a946e3fe85a98e50cf054c2070240311a737c239",
    "trap-st": "22c17ff03c99e9a671aee512ad8878e0e210c56e9327346c5aae951f1db7fd6f",
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
        "summary.csv": "4287a4eae46c126c7df47b5820c02ca83a0ec44d77e450f57d62c40fceeae2f1",
        "trace_0.csv": "d944b5d4cb35d74f28d2eb205c6642e5169aef76123f6a6c34c64736cc735c32",
        "trace_1.csv": "2ce7ca9d6e2c261a7508b42898b67d48a44ee232bb09533d4880b57dc817ed06",
    },
    "st": {
        "summary.csv": "bf090c54219dc717aa3988535ba058cee26a341edae185b9b54cdc98c6835838",
        "trace_0.csv": "e9663af0a7f175c51e504361d0270f3d60b17460f314368fafd988a86d678349",
        "trace_1.csv": "03a335bc1a12df2bc168b960397dc82f8729cc82eed3cfe21d6fc4255784524a",
    },
}

# config.json as written at the pinned commit; "<out>" stands for the output
# directory.
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
        "mutation_rate": 0.0,
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
    assert payload == GOLDEN_CONFIG[name]


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

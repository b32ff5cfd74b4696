import pathlib
import random

import pytest

from mfltga.errors import ConfigurationError
from mfltga.oracle import (
    exhaustive_cluspt,
    exhaustive_dtf,
    reference_trap_cost,
)
from mfltga.problems import cluspt, trap

INSTANCES = pathlib.Path(__file__).resolve().parent.parent / "instances"

PATH3_ONE_CLUSTER = """
NAME: path3
DIMENSION: 3
CLUSTERS: 1
SOURCE: 1
EDGE_WEIGHT_TYPE: EXPLICIT
EDGE_SECTION
1 2 1
2 3 1
CLUSTER_SECTION
1 1 2 3 -1
EOF
"""

TRIANGLE_ONE_CLUSTER = """
NAME: triangle
DIMENSION: 3
CLUSTERS: 1
SOURCE: 1
EDGE_WEIGHT_TYPE: EXPLICIT
EDGE_SECTION
1 2 1
2 3 1
1 3 1
CLUSTER_SECTION
1 1 2 3 -1
EOF
"""


def test_dtf_oracle_small_grid():
    res = exhaustive_dtf(trap.TrapSpec(3, 5))
    assert res.optimum_cost == 0.0
    assert res.optimum_count == 1
    assert res.enumerated == 2 ** 15

    res = exhaustive_dtf(trap.TrapSpec(1, 1))
    assert res.optimum_cost == 0.0
    assert res.optimum_count == 1

    res = exhaustive_dtf(trap.TrapSpec(2, 2))
    assert res.enumerated == 16


def test_dtf_oracle_refuses_large_instances():
    with pytest.raises(ConfigurationError):
        exhaustive_dtf(trap.TrapSpec(5, 5))


def test_reference_cost_matches_engine_evaluator():
    rng = random.Random(3)
    specs = [trap.TrapSpec(k, m) for k in range(1, 7) for m in (1, 2, 3, 5)]
    for spec in specs:
        for _ in range(100):
            # a per-genotype ones rate makes all-ones and all-zeros blocks common
            p = rng.random()
            bits = [int(rng.random() < p) for _ in range(spec.length)]
            expected = reference_trap_cost(bits, spec.block_size, spec.num_blocks)
            assert trap.objective(spec)(bytearray(bits)) == expected


def test_reference_cost_rejects_wrong_length():
    with pytest.raises(ConfigurationError):
        reference_trap_cost([1, 0], 3, 5)


def test_cluspt_oracle_forced_path():
    g = cluspt.parse_instance(PATH3_ONE_CLUSTER)
    res = exhaustive_cluspt(g)
    assert res.optimum_cost == 3.0
    assert res.optimum_count == 1
    assert res.enumerated == 1


def test_cluspt_oracle_triangle_star():
    g = cluspt.parse_instance(TRIANGLE_ONE_CLUSTER)
    res = exhaustive_cluspt(g)
    # spanning trees: star at 1 costs 2, the two paths cost 3
    assert res.optimum_cost == 2.0
    assert res.optimum_count == 1
    assert res.enumerated == 3


def test_cluspt_oracle_fixture_goldens():
    goldens = {
        "path4": (6.0, 1),
        "rings6": (22.0, 2),
        "blocks7": (18.0, 2),
        "euc5": (44.0, 1),
    }
    for name, (cost, count) in goldens.items():
        g = cluspt.parse_file(INSTANCES / f"{name}.cluspt")
        res = exhaustive_cluspt(g)
        assert res.optimum_cost == cost, name
        assert res.optimum_count == count, name


def test_cluspt_oracle_refuses_large_instances():
    # a 10-vertex single-cluster path is over the enumeration cap
    n = 10
    edges = "\n".join(f"{v} {v + 1} 1" for v in range(1, n))
    members = " ".join(str(v) for v in range(1, n + 1))
    text = (
        f"NAME: big\nDIMENSION: {n}\nCLUSTERS: 1\nSOURCE: 1\n"
        f"EDGE_WEIGHT_TYPE: EXPLICIT\nEDGE_SECTION\n{edges}\n"
        f"CLUSTER_SECTION\n1 {members} -1\nEOF\n"
    )
    g = cluspt.parse_instance(text)
    with pytest.raises(ConfigurationError):
        exhaustive_cluspt(g)


def test_decoded_trees_never_beat_the_oracle():
    rng = random.Random(19)
    for name in ("path4", "rings6", "blocks7", "euc5"):
        g = cluspt.parse_file(INSTANCES / f"{name}.cluspt")
        floor = exhaustive_cluspt(g).optimum_cost
        for _ in range(300):
            genotype = [rng.randrange(g.n) for _ in range(g.n)]
            assert cluspt.cost(g, genotype) >= floor - 1e-9

"""The CluSPT decoder against the reference copy in cluspt_reference.py.

Both must give the same parent array, distances and objective on every
genotype; small alphabets make priority ties frequent, so the tie rules are
exercised as well as the priority order.
"""
import pathlib
import random

import pytest

import cluspt_reference
from mfltga.errors import InvalidStateError
from mfltga.problems import cluspt

INSTANCES = pathlib.Path(__file__).resolve().parent.parent / "instances"


def clustered_euclidean_text(n, num_clusters, seed):
    """Complete EUC_2D instance: points scattered around random cluster centres."""
    rng = random.Random(seed)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    members = [sorted(order[c::num_clusters]) for c in range(num_clusters)]
    coords = {}
    for ids in members:
        cx, cy = rng.uniform(0, 1000), rng.uniform(0, 1000)
        for v in ids:
            coords[v] = (round(rng.gauss(cx, 40)), round(rng.gauss(cy, 40)))
    lines = [
        f"NAME: euc{n}_{seed}",
        f"DIMENSION: {n}",
        f"CLUSTERS: {num_clusters}",
        f"SOURCE: {rng.randint(1, n)}",
        "EDGE_WEIGHT_TYPE: EUC_2D",
        "NODE_COORD_SECTION",
        *(f"{v} {x} {y}" for v, (x, y) in sorted(coords.items())),
        "CLUSTER_SECTION",
        *(" ".join(map(str, [c, *ids, -1])) for c, ids in enumerate(members, start=1)),
        "EOF",
    ]
    return "\n".join(lines) + "\n"


def assert_same_decoding(g, genotype):
    got = cluspt.decode(g, genotype)
    want = cluspt_reference.decode(g, genotype)
    assert got.parent == want.parent
    assert got.dist == want.dist
    assert got.objective == want.objective
    return got


GRAPHS = [f"fixture:{name}" for name in ("path4", "rings6", "blocks7", "euc5")] + [
    f"euclidean:{n}:{seed}" for n, seed in ((30, 1), (30, 2), (60, 3))
]


def graph(label):
    kind, _, rest = label.partition(":")
    if kind == "fixture":
        return cluspt.parse_file(INSTANCES / f"{rest}.cluspt")
    n, seed = map(int, rest.split(":"))
    return cluspt.parse_instance(clustered_euclidean_text(n, n // 6, seed))


@pytest.mark.parametrize("label", GRAPHS)
def test_decode_matches_reference(label):
    g = graph(label)
    rng = random.Random(label)
    for alphabet in (2, 3, g.n):
        for _ in range(100):
            assert_same_decoding(g, [rng.randrange(alphabet) for _ in range(g.n)])


@pytest.mark.parametrize(
    "edges, clusters, message",
    [
        # path 0-1-2 with cluster {0, 2} joined only through vertex 1
        ({(0, 1), (1, 2)}, [(0, 2), (1,)], "cluster subgraph"),
        # no edge between the two clusters
        ({(0, 1)}, [(0, 1), (2,)], "cluster-level graph"),
    ],
)
def test_decode_rejects_disconnected_graphs_like_reference(edges, clusters, message):
    adjacency = {v: {} for v in range(3)}
    for u, v in edges:
        adjacency[u][v] = adjacency[v][u] = 1
    g = cluspt.ClusteredGraph(name="d", n=3, adjacency=adjacency, clusters=clusters, source=0)
    for decode in (cluspt.decode, cluspt_reference.decode):
        with pytest.raises(InvalidStateError, match=message):
            decode(g, [0, 1, 2])

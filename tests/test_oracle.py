import itertools
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
        "path4": (6.0, 1, 1),
        "rings6": (22.0, 2, 8),
        "blocks7": (18.0, 2, 15),
        "euc5": (44.0, 1, 18),
    }
    for name, (cost, count, enumerated) in goldens.items():
        g = cluspt.parse_file(INSTANCES / f"{name}.cluspt")
        res = exhaustive_cluspt(g)
        assert res.optimum_cost == cost, name
        assert res.optimum_count == count, name
        assert res.enumerated == enumerated, name


def random_clustered_graph(rng, n):
    """A connected graph on n vertices in 1..n connected clusters, weights 1..5.

    Each cluster gets a random spanning path of its own, the clusters a
    random tree of connecting edges, and every other vertex pair an edge
    with one density drawn per graph, from sparse to complete.
    """
    order = rng.sample(range(n), n)
    cuts = sorted(rng.sample(range(1, n), rng.randrange(n)))
    clusters = [order[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    pairs = {(c[i], c[i + 1]) for c in clusters for i in range(len(c) - 1)}
    for i in range(1, len(clusters)):
        pairs.add((rng.choice(clusters[i]), rng.choice(rng.choice(clusters[:i]))))
    density = rng.random()
    pairs |= {p for p in itertools.combinations(range(n), 2) if rng.random() < density}
    adjacency = {v: {} for v in range(n)}
    for u, v in pairs:
        adjacency[u][v] = adjacency[v][u] = rng.randint(1, 5)
    return cluspt.ClusteredGraph(
        name="random", n=n, adjacency=adjacency, clusters=clusters, source=rng.randrange(n)
    )


def is_tree(edges, vertices):
    """Union-find: the edges join exactly the given vertices without a cycle."""
    root = {v: v for v in vertices}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v in edges:
        a, b = find(u), find(v)
        if a == b:
            return False
        root[a] = b
    return len(edges) == len(vertices) - 1


def brute_force_cluspt(g):
    """(optimum cost, optimum count, trees) over every (n - 1)-subset of edges."""
    costs = []
    for subset in itertools.combinations([(u, v) for u, v, _ in g.edges()], g.n - 1):
        if not is_tree(subset, range(g.n)):
            continue
        if not all(
            is_tree([(u, v) for u, v in subset if u in c and v in c], c) for c in g.clusters
        ):
            continue
        neighbours = {v: [] for v in range(g.n)}
        for u, v in subset:
            neighbours[u].append(v)
            neighbours[v].append(u)
        parent = [None] * g.n
        queue, seen = [g.source], {g.source}
        for u in queue:
            for v in neighbours[u]:
                if v not in seen:
                    seen.add(v)
                    parent[v] = u
                    queue.append(v)
        costs.append(cluspt.recompute_objective(g, parent))
    return min(costs), costs.count(min(costs)), len(costs)


def test_cluspt_oracle_matches_brute_force_on_random_graphs():
    # every (n - 1)-edge subset, kept if it is a spanning tree whose clusters
    # induce subtrees, checked without reachable or the oracle's helpers
    rng = random.Random(33)
    for trial in range(200):
        g = random_clustered_graph(rng, 1 + trial % 7)
        res = exhaustive_cluspt(g)
        assert (res.optimum_cost, res.optimum_count, res.enumerated) == brute_force_cluspt(g), (
            g.adjacency, g.clusters, g.source
        )


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

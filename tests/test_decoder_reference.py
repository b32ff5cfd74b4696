"""The CluSPT decoder and cost against the reference copy in cluspt_reference.py.

``decode`` must give the reference's parent array on every genotype, and
``cluspt.cost``, the task objective, the reference's objective; small
alphabets make priority ties frequent, so the tie rules are exercised as well
as the priority order.  Both keep grown trees in a per-graph memo, so
sequences that revisit keys, as tree crossover does, and sequences that
overflow the memo are checked call by call as well.  The cost adds
per-cluster distance sums, not each distance along its tree path from the
source: it must equal the reference's objective exactly on integer weights,
and within 1e-9 relative on the graphs with non-dyadic float weights, also
when a memoized cluster tree is re-rooted at a new entry vertex.
"""
import itertools
import pathlib
import random

import numpy as np
import pytest

import cluspt_reference
from mfltga.errors import ConfigurationError
from mfltga.oracle import exhaustive_cluspt
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


# non-dyadic weights of mixed magnitude: a sum taken in another order than
# along the tree paths from the source rounds differently
FLOAT_WEIGHTS = (0.1, 0.7, 0.3, 2.5e5 + 0.7, 1e6 + 0.1)


def clustered_float_text(n, num_clusters, seed):
    """Sparse EXPLICIT instance whose edge weights are drawn from FLOAT_WEIGHTS.

    Each cluster is a path plus random chords, and consecutive clusters are
    joined by an edge plus random extra inter-cluster edges.
    """
    rng = random.Random(seed)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    members = [sorted(order[c::num_clusters]) for c in range(num_clusters)]
    edges = {}
    for ids in members:
        for u, v in zip(ids, ids[1:]):
            edges[u, v] = rng.choice(FLOAT_WEIGHTS)
    for a, b in zip(members, members[1:]):
        edges[min(a[0], b[-1]), max(a[0], b[-1])] = rng.choice(FLOAT_WEIGHTS)
    for _ in range(2 * n):
        u, v = rng.sample(range(1, n + 1), 2)
        edges.setdefault((min(u, v), max(u, v)), rng.choice(FLOAT_WEIGHTS))
    lines = [
        f"NAME: float{n}_{seed}",
        f"DIMENSION: {n}",
        f"CLUSTERS: {num_clusters}",
        f"SOURCE: {rng.randint(1, n)}",
        "EDGE_WEIGHT_TYPE: EXPLICIT",
        "EDGE_SECTION",
        *(f"{u} {v} {w}" for (u, v), w in sorted(edges.items())),
        "CLUSTER_SECTION",
        *(" ".join(map(str, [c, *ids, -1])) for c, ids in enumerate(members, start=1)),
        "EOF",
    ]
    return "\n".join(lines) + "\n"


def assert_same_decoding(g, genotype):
    got = cluspt.decode(g, genotype)
    parent, _, objective = cluspt_reference.decode(g, genotype)
    assert got.parent == parent
    assert_cost_agrees(g, genotype, objective)
    assert_memo_bounded(g)
    return got


def integer_weights(g):
    """Whether every weight a decode can read (intra-cluster edges and
    cluster-level links) is a whole number."""
    intra = (w for links in g.intra_links for w, _ in links)
    level = (link[0] for links in g.cluster_links for link in links)
    return all(float(w).is_integer() for w in (*intra, *level))


def assert_cost_agrees(g, genotype, objective):
    got = cluspt.cost(g, genotype)
    assert type(got) is float
    if integer_weights(g):
        assert got == objective
    else:
        assert got == pytest.approx(objective, rel=1e-9, abs=0)


def assert_memo_bounded(g):
    assert len(g.memo) == g.num_clusters + 1
    assert len(g.orders) == g.num_clusters
    assert all(len(table) <= cluspt.MEMO_SIZE for table in (*g.memo, *g.orders))


GRAPHS = (
    [f"fixture:{name}" for name in ("path4", "rings6", "blocks7", "euc5")]
    + [f"euclidean:{n}:{seed}" for n, seed in ((30, 1), (30, 2), (60, 3))]
    + [f"float:{n}:{seed}" for n, seed in ((30, 4), (60, 5))]
)


def graph(label):
    kind, _, rest = label.partition(":")
    if kind == "fixture":
        return cluspt.parse_file(INSTANCES / f"{rest}.cluspt")
    n, seed = map(int, rest.split(":"))
    text = {"euclidean": clustered_euclidean_text, "float": clustered_float_text}[kind]
    return cluspt.parse_instance(text(n, n // 6, seed))


@pytest.mark.parametrize("label", GRAPHS)
def test_decode_matches_reference(label):
    g = graph(label)
    rng = random.Random(label)
    for alphabet in (2, 3, g.n):
        for _ in range(100):
            assert_same_decoding(g, [rng.randrange(alphabet) for _ in range(g.n)])


@pytest.mark.parametrize("label", GRAPHS)
def test_cluster_links_hold_the_cheapest_edge_between_two_clusters(label):
    g = graph(label)
    owner = g.owner
    between = {}
    for u, v, w in g.edges():
        if owner[u] != owner[v]:
            between.setdefault(frozenset((owner[u], owner[v])), []).append((w, u, v))
    for a, links in enumerate(g.cluster_links):
        adjacent = sorted(b for pair in between if a in pair for b in pair - {a})
        assert sorted(link[1] for link in links) == adjacent
        assert links == sorted(links, key=lambda link: link[:2])
        for w, b, x, y in links:
            # x lies in this list's own cluster, y in b
            assert (owner[x], owner[y]) == (a, b)
            # the cheapest edge, ties to the lower endpoint ids
            assert (w, min(x, y), max(x, y)) == min(between[frozenset((a, b))])


@pytest.mark.parametrize("label", GRAPHS)
def test_memo_matches_reference_on_crossover_like_sequences(label):
    g = graph(label)
    rng = random.Random(label)
    for alphabet in (2, g.n):
        pair = [[rng.randrange(alphabet) for _ in range(g.n)] for _ in range(2)]
        history = [list(x) for x in pair]
        for step in range(150):
            if step % 3 == 0:
                # one gene of one genotype changes, as a mutation would
                x = rng.choice(pair)
                x[rng.randrange(g.n)] = rng.randrange(alphabet)
                assert_same_decoding(g, x)
                continue
            # swap a mask between the two, as tree crossover does in place
            a, b = pair
            mask = rng.sample(range(g.n), rng.choice((1, 1, 2, 3, g.n // 2 or 1)))
            for i in mask:
                a[i], b[i] = b[i], a[i]
            assert_same_decoding(g, a)
            assert_same_decoding(g, b)
            if rng.random() < 0.5:
                # rejected: the swap is undone, back to keys decoded before
                for i in mask:
                    a[i], b[i] = b[i], a[i]
                assert_same_decoding(g, a)
                assert_same_decoding(g, b)
            history.extend(list(x) for x in pair)
        for x in rng.sample(history, 20):
            assert_same_decoding(g, x)


@pytest.mark.parametrize("label", ["fixture:rings6", "euclidean:30:1", "euclidean:60:3"])
def test_memo_overflow_keeps_decoding_like_reference(label):
    g = graph(label)
    rng = random.Random(label)
    seen = [[rng.randrange(g.n) for _ in range(g.n)] for _ in range(3 * cluspt.MEMO_SIZE)]
    largest = largest_order = 0
    for x in seen:
        assert_same_decoding(g, x)
        largest = max(largest, max(len(table) for table in g.memo))
        largest_order = max(largest_order, max(len(table) for table in g.orders))
    if g.n > 6:
        # distinct keys outnumber the bound, so a table filled up and was cleared
        assert largest == largest_order == cluspt.MEMO_SIZE
        assert len(g.memo[-1]) < len({tuple(x[min(c)] for c in g.clusters) for x in seen})
    # keys dropped from the memo are grown again, and alike
    for x in seen[: cluspt.MEMO_SIZE]:
        assert_same_decoding(g, x)


@pytest.mark.parametrize("dtype", [np.int64, np.int8, np.uint8, np.uint16])
@pytest.mark.parametrize("label", GRAPHS)
def test_array_genotypes_decode_as_their_integers(label, dtype):
    g = graph(label)
    rng = random.Random(label + str(dtype))
    for _ in range(50):
        x = [rng.randrange(g.n) for _ in range(g.n)]
        parent, _, objective = cluspt_reference.decode(g, x)
        # the list, the array and a list of the array's scalars share their
        # memo keys; whichever comes first, the answer must not depend on it
        scalars = list(np.array(x, dtype=dtype))
        for genotype in (x, np.array(x, dtype=dtype), scalars)[:: rng.choice((1, -1))]:
            assert cluspt.decode(g, genotype).parent == parent
            assert_cost_agrees(g, genotype, objective)
        assert_memo_bounded(g)


@pytest.mark.parametrize("genotype", [[0.0] * 7, [0, 1, 2, "3", 4, 5, 6], [None] * 7])
def test_non_integer_genes_are_a_configuration_error(genotype):
    g = graph("fixture:blocks7")
    with pytest.raises(ConfigurationError, match="^genotype genes must be integers: "):
        cluspt.decode(g, genotype)
    with pytest.raises(ConfigurationError, match="^genotype genes must be integers: "):
        cluspt.cost(g, genotype)


def test_memo_hit_grows_nothing(monkeypatch):
    g = graph("euclidean:30:1")
    grown = []
    original = cluspt._grow

    def counting_grow(root, prio, links):
        grown.append(root)
        return original(root, prio, links)

    monkeypatch.setattr(cluspt, "_grow", counting_grow)
    x = [random.Random(7).randrange(g.n) for _ in range(g.n)]
    first = assert_same_decoding(g, x)
    assert len(grown) == g.num_clusters + 1
    again = assert_same_decoding(g, list(x))
    assert len(grown) == g.num_clusters + 1
    assert again.parent == first.parent
    # one changed priority regrows its own cluster, and the cluster-level
    # tree only when it changed a cluster's lowest-id vertex
    v = max(g.clusters[0])
    x[v] = (x[v] + 1) % g.n
    assert_same_decoding(g, x)
    assert len(grown) == g.num_clusters + 2


def entry_vertices(g, parent):
    """entry[c] is the vertex by which cluster c's subtree hangs from the source."""
    owner = g.owner
    return {owner[v]: v for v, p in enumerate(parent) if p is None or owner[p] != owner[v]}


def seed_of(cluster, prio):
    return min(cluster, key=lambda v: (-prio[v], v))


def order_of(cluster, prio):
    """The cluster's vertices in the order _grow ranks them: by (-prio, id)."""
    return sorted(cluster, key=lambda v: (-prio[v], v))


def lead_change_moving_an_entry(g, rng):
    """A genotype x and a change y of cluster c's lowest-id priority that moves d.

    Returns (x, y, c, d): under y, cluster d is entered at a vertex that is
    neither its entry under x nor its seed, so decoding y re-roots d's tree.
    """
    for _ in range(200):
        x = [rng.randrange(g.n) for _ in range(g.n)]
        before = entry_vertices(g, cluspt_reference.decode(g, x)[0])
        for c, cluster in enumerate(g.clusters):
            for value in range(g.n):
                y = list(x)
                y[min(cluster)] = value
                after = entry_vertices(g, cluspt_reference.decode(g, y)[0])
                for d, entry in after.items():
                    if d != c and entry not in (before[d], seed_of(g.clusters[d], x)):
                        return x, y, c, d
    raise AssertionError("no lead priority change moved another cluster's entry vertex")


@pytest.mark.parametrize("label", ["euclidean:30:1", "float:30:4"])
def test_moved_entry_vertex_reroots_the_memoized_cluster(monkeypatch, label):
    g = graph(label)
    x, y, c, d = lead_change_moving_an_entry(g, random.Random(label))
    grown = []
    original = cluspt._grow

    def counting_grow(root, prio, links):
        grown.append(("level" if links is g.cluster_links else "cluster", root))
        return original(root, prio, links)

    monkeypatch.setattr(cluspt, "_grow", counting_grow)
    first = assert_same_decoding(g, x)
    entry = g.memo[d][g.cluster_keys[d](x)]
    grown.clear()
    got = assert_same_decoding(g, y)
    # the cluster-level tree is regrown, and cluster c only if the change
    # moved c's priority order: one order grows one tree
    want = [("level", g.owner[g.source])]
    if order_of(g.clusters[c], x) != order_of(g.clusters[c], y):
        want.append(("cluster", seed_of(g.clusters[c], y)))
    assert sorted(grown) == sorted(want)
    # cluster d hangs from a new entry vertex, re-rooted from its memo entry,
    # which now holds the distance sums from both entry vertices
    moved = entry_vertices(g, got.parent)[d]
    assert moved != entry_vertices(g, first.parent)[d]
    assert g.memo[d][g.cluster_keys[d](y)] is entry
    sums = entry[1]
    assert {entry_vertices(g, first.parent)[d], moved} <= set(sums)


def test_one_priority_order_shares_one_grown_tree(monkeypatch):
    g = graph("euclidean:30:1")
    rng = random.Random(11)
    grown = []
    original = cluspt._grow

    def counting_grow(root, prio, links):
        grown.append("level" if links is g.cluster_links else "cluster")
        return original(root, prio, links)

    monkeypatch.setattr(cluspt, "_grow", counting_grow)
    # a small alphabet, so priorities tie within clusters
    x = [rng.randrange(3) for _ in range(g.n)]
    assert_same_decoding(g, x)
    assert grown.count("cluster") == g.num_clusters
    grown.clear()
    # every priority differs from x's, but a strictly increasing map keeps
    # each cluster's order, ties included: only the cluster-level key is new
    y = [2 * p + 1 for p in x]
    assert_same_decoding(g, y)
    assert grown == ["level"]
    for c, key_of in enumerate(g.cluster_keys):
        assert key_of(x) != key_of(y)
        assert g.memo[c][key_of(y)] is g.memo[c][key_of(x)]
    # breaking one tie in cluster 0 changes its order, and regrows it alone
    tied = next(v for u in g.clusters[0] for v in g.clusters[0] if u < v and y[u] == y[v])
    y[tied] += 1
    grown.clear()
    assert_same_decoding(g, y)
    assert grown == ["cluster"]


def test_cost_on_a_300_vertex_instance_with_list_genotypes():
    g = cluspt.parse_instance(clustered_euclidean_text(300, 10, 8))
    assert integer_weights(g)
    rng = random.Random(8)
    for alphabet in (2, g.n):
        for _ in range(30):
            x = [rng.randrange(alphabet) for _ in range(g.n)]
            # the reference rescans every edge at each step, too slowly here
            assert cluspt.cost(g, x) == cluspt.recompute_objective(g, cluspt.decode(g, x).parent)
    assert_memo_bounded(g)


@pytest.mark.parametrize(
    "name, best, optimum", [("path4", 6.0, 6.0), ("rings6", 22.0, 22.0), ("euc5", 53.0, 44.0)]
)
def test_best_decodable_cost_against_the_oracle(name, best, optimum):
    # every genotype over the task's alphabet, 0..n-1
    g = graph(f"fixture:{name}")
    genotypes = itertools.product(range(g.n), repeat=g.n)
    assert min(cluspt.cost(g, x) for x in genotypes) == best
    assert exhaustive_cluspt(g).optimum_cost == optimum
    assert_memo_bounded(g)
    if name == "euc5":
        # the optimum enters cluster {3, 4, 5} by edge 1-3 (weight 10), but the
        # decoder joins two clusters only by their cheapest edge, 2-3 (weight 8)
        assert g.cluster_links[0] == [(8, 1, 1, 2)]

"""Property test of the CluSPT decoder on generated sparse EXPLICIT instances.

Each cluster gets a random spanning tree plus a few extra internal edges, and
the clusters are joined by a random tree of inter-cluster edges plus extras,
so some cluster pairs share no edge and some share several.  Weights come
from a three-value set, so cheapest inter-cluster edges often tie.
"""
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import cluspt_reference
from mfltga.problems import cluspt

WEIGHTS = st.sampled_from([1, 2, 3])


@st.composite
def sparse_instances(draw):
    # at least two vertices: an EXPLICIT instance needs an edge
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5).filter(lambda s: sum(s) > 1))
    n = sum(sizes)
    order = draw(st.permutations(range(1, n + 1)))
    members, start = [], 0
    for size in sizes:
        members.append(order[start : start + size])
        start += size
    edges = {}

    def join(u, v):
        edges.setdefault((min(u, v), max(u, v)), draw(WEIGHTS))

    for ids in members:
        for i in range(1, len(ids)):
            join(ids[i], ids[draw(st.integers(0, i - 1))])
    for c in range(1, len(members)):
        other = members[draw(st.integers(0, c - 1))]
        join(draw(st.sampled_from(members[c])), draw(st.sampled_from(other)))
    for _ in range(draw(st.integers(0, n))):
        u, v = draw(st.integers(1, n)), draw(st.integers(1, n))
        if u != v:
            join(u, v)
    lines = [
        "NAME: sparse",
        f"DIMENSION: {n}",
        f"CLUSTERS: {len(members)}",
        f"SOURCE: {draw(st.integers(1, n))}",
        "EDGE_WEIGHT_TYPE: EXPLICIT",
        "EDGE_SECTION",
        *(f"{u} {v} {w}" for (u, v), w in sorted(edges.items())),
        "CLUSTER_SECTION",
        *(" ".join(map(str, [c, *ids, -1])) for c, ids in enumerate(members, start=1)),
        "EOF",
    ]
    g = cluspt.parse_instance("\n".join(lines) + "\n")
    alphabet = draw(st.sampled_from([2, 3, n]))
    genotype = draw(st.lists(st.integers(0, alphabet - 1), min_size=n, max_size=n))
    return g, genotype


@settings(max_examples=300, deadline=None)
@given(sparse_instances())
def test_decode_is_valid_and_matches_reference(case):
    g, genotype = case
    sol = cluspt.decode(g, genotype)
    assert cluspt.validate(g, sol) == []
    assert cluspt.recompute_objective(g, sol.parent) == sol.objective
    want = cluspt_reference.decode(g, genotype)
    assert (sol.parent, sol.dist, sol.objective) == (want.parent, want.dist, want.objective)

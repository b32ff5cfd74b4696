"""Property tests of the CluSPT parser and decoder.

The decoder and the cost path run on generated sparse EXPLICIT instances.
Each cluster gets a random spanning tree plus a few extra internal edges, and
the clusters are joined by a random tree of inter-cluster edges plus extras,
so some cluster pairs share no edge and some share several.  Each instance
draws its weights from one three-value set, so cheapest inter-cluster edges
often tie: either small integers or non-dyadic floats of mixed magnitude,
whose sums round differently when added in another order than along the tree
path.  The decoded parents must be the reference's, and the cost its
objective: exactly on integers, within 1e-9 relative on the floats.

The parser runs on the fixtures in instances/ with a few lines deleted,
inserted or changed, and may fail only with InstanceFormatError.
"""
import pathlib

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import cluspt_reference
from mfltga.errors import InstanceFormatError
from mfltga.problems import cluspt

WEIGHT_SETS = st.sampled_from([(1, 2, 3), (0.1, 0.7, 1e6 + 0.1)])


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
    weights = st.sampled_from(draw(WEIGHT_SETS))
    edges = {}

    def join(u, v):
        edges.setdefault((min(u, v), max(u, v)), draw(weights))

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
    parent, _, objective = cluspt_reference.decode(g, genotype)
    assert sol.parent == parent
    # both sum each distance along its tree path, in vertex order
    assert cluspt.recompute_objective(g, sol.parent) == objective
    cost = cluspt.cost(g, genotype)
    if all(float(w).is_integer() for _, _, w in g.edges()):
        assert cost == objective
    else:
        # summed per cluster, in another order than along each tree path
        assert cost == pytest.approx(objective, rel=1e-9, abs=0)


INSTANCES = pathlib.Path(__file__).resolve().parent.parent / "instances"
FIXTURE_LINES = [path.read_text().splitlines() for path in sorted(INSTANCES.glob("*.cluspt"))]
HEADER_KEYS = st.sampled_from(["NAME", "DIMENSION", "CLUSTERS", "SOURCE", "EDGE_WEIGHT_TYPE"])
SECTIONS = st.sampled_from(["NODE_COORD_SECTION", "EDGE_SECTION", "CLUSTER_SECTION", "EOF"])
TOKENS = st.sampled_from(
    ["0", "1", "2", "5", "-1", "-7", "1.5", "1000000000", "1e308", "1e400", "nan", "inf", "x"]
    + ["", "EUC_2D", "EXPLICIT"]
)


@st.composite
def mutated_fixtures(draw):
    lines = list(draw(st.sampled_from(FIXTURE_LINES)))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(["delete", "header", "section", "number", "field"]))
        if kind == "header":
            lines.insert(at, f"{draw(HEADER_KEYS)}: {draw(TOKENS)}")
        elif kind == "section":
            lines.insert(at, draw(SECTIONS))
        elif kind == "number":
            lines.insert(at, " ".join(draw(st.lists(TOKENS, min_size=1, max_size=4))))
        elif lines:
            at = min(at, len(lines) - 1)
            if kind == "delete":
                del lines[at]
            else:
                fields = lines[at].split() or [""]
                fields[draw(st.integers(0, len(fields) - 1))] = draw(TOKENS)
                lines[at] = " ".join(fields)
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(mutated_fixtures())
def test_parse_instance_fails_only_with_instance_format_error(text):
    try:
        cluspt.parse_instance(text)
    except InstanceFormatError:
        pass

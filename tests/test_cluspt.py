import itertools
import math
import pathlib
import random
import re
import time

import pytest

from mfltga.errors import ConfigurationError, InstanceFormatError, InvalidStateError
from mfltga.oracle import exhaustive_cluspt
from mfltga.problems import cluspt

INSTANCES = pathlib.Path(__file__).resolve().parent.parent / "instances"

FIXTURES = ("path4", "rings6", "blocks7", "euc5")


def load(name):
    return cluspt.parse_file(INSTANCES / f"{name}.cluspt")


def build(**overrides):
    """Assemble a small EXPLICIT instance text with selective overrides.

    With no edges the text has no EDGE_SECTION at all.
    """
    fields = {
        "name": "toy",
        "dimension": 4,
        "clusters": 2,
        "source": 1,
        "edges": ["1 2 1", "2 3 1", "3 4 1"],
        "cluster_lines": ["1 1 2 -1", "2 3 4 -1"],
    }
    fields.update(overrides)
    lines = [
        f"NAME: {fields['name']}",
        f"DIMENSION: {fields['dimension']}",
        f"CLUSTERS: {fields['clusters']}",
        f"SOURCE: {fields['source']}",
        "EDGE_WEIGHT_TYPE: EXPLICIT",
        *(["EDGE_SECTION", *fields["edges"]] if fields["edges"] else []),
        "CLUSTER_SECTION",
        *fields["cluster_lines"],
        "EOF",
    ]
    return "\n".join(lines) + "\n"


def test_parse_explicit_fixture():
    g = load("path4")
    assert g.name == "path4"
    assert g.n == 4
    assert g.source == 0
    assert g.clusters == [(0, 1), (2, 3)]
    assert g.adjacency[1][2] == 1
    assert sorted(g.edges()) == [(0, 1, 1), (1, 2, 1), (2, 3, 1)]


@pytest.mark.parametrize(
    "eof",
    [
        "eof",
        "Eof",
        # reading stops at EOF: nothing after it is parsed
        pytest.param("EOF\njunk here\nCLUSTERS: 9\nEDGE_SECTION\n1 4 1", id="lines-after-eof"),
    ],
)
def test_parse_matches_eof_in_any_case(eof):
    text = (INSTANCES / "path4.cluspt").read_text()
    assert text.rstrip().endswith("\nEOF")
    g = cluspt.parse_instance(text.rstrip()[: -len("EOF")] + eof + "\n")
    assert g.clusters == load("path4").clusters
    assert sorted(g.edges()) == sorted(load("path4").edges())


def test_parse_euclidean_weights_round_to_nearest_int():
    g = load("euc5")
    assert g.adjacency[0][1] == 5  # hypot(3, 4)
    assert g.adjacency[0][3] == 14  # hypot(13, 4) = 13.601...
    assert g.adjacency[2][4] == 4  # hypot(3, 3) = 4.243...
    assert g.adjacency[1][4] == 12  # hypot(10, 7) = 12.206...
    # complete graph
    for u in range(g.n):
        assert len(g.adjacency[u]) == g.n - 1


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        ({"dimension": "x"}, "DIMENSION"),
        ({"source": 9}, "SOURCE"),
        ({"edges": ["1 1 1", "2 3 1", "3 4 1"]}, "self-loop"),
        ({"edges": ["1 2 1", "1 2 2", "3 4 1"]}, "duplicate edge"),
        ({"edges": ["1 2 -3", "2 3 1", "3 4 1"]}, "negative"),
        ({"edges": ["1 2", "2 3 1", "3 4 1"]}, "expected"),
        ({"cluster_lines": ["1 1 2 -1", "2 2 3 4 -1"]}, "already belongs"),
        ({"cluster_lines": ["1 1 2 -1", "2 3 -1"]}, "no cluster"),
        ({"cluster_lines": ["1 1 2 -1"]}, "CLUSTER_SECTION"),
        ({"cluster_lines": ["1 1 2 -1", "1 3 4 -1"]}, "duplicate cluster"),
        ({"cluster_lines": ["1 1 2 -1", "2 3 4"]}, "must be"),
        # no EDGE_SECTION, and n - 1 = 2 edges are needed
        ({"dimension": 3, "edges": [], "cluster_lines": ["1 1 2 -1", "2 3 -1"]}, "cannot join"),
        ({"clusters": 0}, "^line 3: CLUSTERS must be >= 1$"),
        ({"cluster_lines": ["1 1 2 -1", "3 3 4 -1"]}, r"^line 12: cluster id 3 outside 1\.\.2$"),
    ],
)
def test_parse_errors(mutation, fragment):
    with pytest.raises(InstanceFormatError, match=fragment):
        cluspt.parse_instance(build(**mutation))


def euc_text(coord_lines):
    """A two-vertex EUC_2D instance; coordinate lines start at line 7."""
    lines = [
        "NAME: e",
        "DIMENSION: 2",
        "CLUSTERS: 1",
        "SOURCE: 1",
        "EDGE_WEIGHT_TYPE: EUC_2D",
        "NODE_COORD_SECTION",
        *coord_lines,
        "CLUSTER_SECTION",
        "1 1 2 -1",
        "EOF",
    ]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_parse_rejects_non_finite_numbers(value):
    text = build(edges=["1 2 1", f"2 3 {value}", "3 4 1"])
    with pytest.raises(InstanceFormatError, match="line 8: non-finite weight"):
        cluspt.parse_instance(text)
    text = euc_text(["1 0 0", f"2 3 {value}"])
    with pytest.raises(InstanceFormatError, match="line 8: non-finite coordinate"):
        cluspt.parse_instance(text)


def test_parse_rejects_data_in_the_section_the_weight_type_ignores():
    # EUC_2D weights come from coordinates: an EDGE_SECTION would be dropped
    text = euc_text(["1 0 0", "2 3 4"]).replace(
        "CLUSTER_SECTION", "EDGE_SECTION\n1 2 100\nCLUSTER_SECTION"
    )
    with pytest.raises(InstanceFormatError, match="line 10: EDGE_SECTION line '1 2 100'"):
        cluspt.parse_instance(text)
    # EXPLICIT weights come from edges: coordinates would be dropped
    text = build().replace("EDGE_SECTION", "NODE_COORD_SECTION\n1 0 0\nEDGE_SECTION")
    with pytest.raises(InstanceFormatError, match="line 7: NODE_COORD_SECTION line '1 0 0'"):
        cluspt.parse_instance(text)


def test_parse_rejects_an_unsupported_weight_type():
    text = build().replace("EXPLICIT", "GEO")
    with pytest.raises(InstanceFormatError, match="^line 5: unsupported EDGE_WEIGHT_TYPE 'GEO'$"):
        cluspt.parse_instance(text)


@pytest.mark.parametrize(
    "coord_lines, message",
    [
        (["1 0 0", "2 x 4"], "line 8: bad coordinate line '2 x 4'"),
        (["1 0 0", "1 3 4"], "line 8: duplicate coordinates for vertex 1"),
    ],
)
def test_parse_rejects_bad_coordinate_lines(coord_lines, message):
    with pytest.raises(InstanceFormatError, match=f"^{re.escape(message)}$"):
        cluspt.parse_instance(euc_text(coord_lines))


def test_parse_rejects_overflowing_distance():
    text = euc_text(["1 1e308 0", "2 -1e308 0"])
    with pytest.raises(InstanceFormatError, match="vertices 1 and 2 overflows"):
        cluspt.parse_instance(text)


@pytest.mark.parametrize(
    "body, fragment",
    [
        (["EDGE_WEIGHT_TYPE: EXPLICIT", "EDGE_SECTION", "1 2 1"], "not connected: 1 edges"),
        (
            ["EDGE_WEIGHT_TYPE: EUC_2D", "NODE_COORD_SECTION", "1 0 0", "3 4 0"],
            r"missing coordinates for vertices \[2, 4, 5, 6, 7\] and 999999993 more",
        ),
    ],
)
def test_parse_rejects_huge_dimension_before_allocating(body, fragment):
    # a tiny file cannot describe 10**9 vertices; building the per-vertex
    # tables first would exhaust memory long before the error
    header = ["DIMENSION: 1000000000", "CLUSTERS: 1", "SOURCE: 1"]
    text = "\n".join([*header, *body, "CLUSTER_SECTION", "1 1 2 -1", "EOF"])
    start = time.perf_counter()
    with pytest.raises(InstanceFormatError, match=fragment):
        cluspt.parse_instance(text)
    assert time.perf_counter() - start < 1.0


def test_parse_lists_only_the_first_unassigned_vertices():
    text = build(
        dimension=12,
        edges=[f"{v} {v + 1} 1" for v in range(1, 12)],
        clusters=1,
        cluster_lines=["1 1 2 -1"],
    )
    with pytest.raises(
        InstanceFormatError, match=r"vertices \[3, 4, 5, 6, 7\] and 5 more belong to no cluster"
    ):
        cluspt.parse_instance(text)


def test_parse_error_reports_line_number():
    text = build(edges=["1 2 1", "1 2 2", "3 4 1"])
    with pytest.raises(InstanceFormatError, match="line 8"):
        cluspt.parse_instance(text)


def test_parse_rejects_duplicate_header():
    text = "NAME: a\n" + build()
    with pytest.raises(InstanceFormatError, match="duplicate header NAME"):
        cluspt.parse_instance(text)


def test_parse_rejects_stray_line():
    text = build().replace("EDGE_SECTION", "junk here\nEDGE_SECTION")
    with pytest.raises(InstanceFormatError, match="unexpected line"):
        cluspt.parse_instance(text)


def test_parse_rejects_missing_header():
    text = "\n".join(
        line for line in build().splitlines() if not line.startswith("CLUSTERS")
    )
    with pytest.raises(InstanceFormatError, match="missing header CLUSTERS"):
        cluspt.parse_instance(text)


def test_parse_rejects_disconnected_cluster():
    # cluster {3, 4} loses its internal edge, so its induced subgraph splits
    text = build(edges=["1 2 1", "2 3 1", "2 4 1"])
    with pytest.raises(InstanceFormatError, match="cluster 2 is not connected"):
        cluspt.parse_instance(text)


def test_parse_rejects_disconnected_graph():
    text = build(edges=["1 2 1", "3 4 1"])
    with pytest.raises(InstanceFormatError, match="not connected"):
        cluspt.parse_instance(text)


PATH3 = {(0, 1), (1, 2)}


@pytest.mark.parametrize(
    "edges, clusters, source, message",
    [
        # path 0-1-2 with cluster {0, 2} joined only through vertex 1
        (PATH3, [(0, 2), (1,)], 0, "induced subgraph of cluster 1 is not connected"),
        # no edge between the two clusters
        ({(0, 1)}, [(0, 1), (2,)], 0, "graph is not connected"),
        # the clusters must partition the vertices, and the source be one
        (PATH3, [(0, 1, 2), ()], 0, "cluster 2 is empty"),
        (PATH3, [(0, 1), (2, 3)], 0, "vertex 4 outside 1..3"),
        (PATH3, [(0, 1), (1, 2)], 0, "vertex 2 already belongs to cluster 1"),
        (PATH3, [(0, 1)], 0, "vertices [3] belong to no cluster"),
        (PATH3, [(0, 1, 2)], 3, "SOURCE 4 outside 1..3"),
    ],
    ids=["cluster", "graph", "empty", "outside", "twice", "uncovered", "source"],
)
def test_a_disconnected_graph_fails_when_built(edges, clusters, source, message):
    adjacency = {v: {} for v in range(3)}
    for u, v in edges:
        adjacency[u][v] = adjacency[v][u] = 1
    with pytest.raises(InstanceFormatError, match=f"^{re.escape(message)}$"):
        cluspt.ClusteredGraph(
            name="d", n=3, adjacency=adjacency, clusters=clusters, source=source
        )


@pytest.mark.parametrize(
    "n, adjacency, message",
    [
        (2, {0: {1: 1.0}}, "vertices [2] have no adjacency row"),
        (2, {0: {1: 1.0}, 1: {0: 1.0}, 2: {}}, "adjacency rows [3] outside 1..2"),
        (3, {0: {1: 1.0}, 1: {2: 1.0}, 2: {}}, "edge 1-2 has no reverse 2-1"),
        (2, {0: {1: 1.0}, 1: {0: 1.0, 2: 1.0}}, "edge 2-3 leaves 1..2"),
        (2, {0: {1: 1.0}, 1: {0: 2.0}}, "edge 1-2 weighs 1.0 one way, 2.0 back"),
    ],
    ids=["missing", "stray", "one-way", "outside", "asymmetric"],
)
def test_a_malformed_adjacency_fails_when_built(n, adjacency, message):
    # the decoder reads the adjacency unchecked, so it is checked when built
    with pytest.raises(InstanceFormatError, match=f"^{re.escape(message)}$"):
        cluspt.ClusteredGraph(
            name="a", n=n, adjacency=adjacency, clusters=[tuple(range(n))], source=0
        )


def test_a_graph_built_with_unsorted_clusters_decodes_as_sorted():
    # growth breaks priority ties by the order of a cluster's tuple; a graph
    # sorts its clusters, so a hand-built one decodes as a parsed one
    weights = {(0, 1): 1, (0, 2): 5, (0, 3): 6, (1, 2): 2, (2, 3): 3, (1, 3): 4}
    adjacency = {v: {} for v in range(4)}
    for (u, v), w in weights.items():
        adjacency[u][v] = adjacency[v][u] = w

    def graph(clusters):
        return cluspt.ClusteredGraph(
            name="u", n=4, adjacency=adjacency, clusters=clusters, source=0
        )

    unsorted = graph([(0,), (3, 2, 1)])
    assert unsorted.clusters == [(0,), (1, 2, 3)]
    assert cluspt.decode(unsorted, [0, 0, 0, 0]).parent == [None, 0, 1, 2]
    for layout in ([(0,), (3, 2, 1)], [(3, 0, 2, 1)], [(2, 1, 0), (3,)]):
        unsorted = graph(layout)
        ordered = graph([tuple(sorted(c)) for c in layout])
        for genotype in itertools.product(range(2), repeat=4):
            got, want = cluspt.decode(unsorted, genotype), cluspt.decode(ordered, genotype)
            assert got.parent == want.parent
            assert cluspt.cost(unsorted, genotype) == cluspt.cost(ordered, genotype)


def test_a_one_vertex_explicit_instance_needs_no_edge_section():
    text = build(dimension=1, clusters=1, edges=[], cluster_lines=["1 1 -1"])
    assert "EDGE_SECTION" not in text
    g = cluspt.parse_instance(text)
    assert (g.n, g.clusters, g.source) == (1, [(0,)], 0)
    assert cluspt.decode(g, [0]).parent == [None]
    assert cluspt.cost(g, [0]) == 0.0
    assert exhaustive_cluspt(g).optimum_cost == 0.0


def test_parse_file_rejects_non_utf8_content(tmp_path):
    path = tmp_path / "utf16.cluspt"
    path.write_bytes(b"\xff\xfe" + build().encode("utf-16-le"))
    with pytest.raises(InstanceFormatError, match="is not UTF-8 text") as info:
        cluspt.parse_file(path)
    assert isinstance(info.value.__cause__, UnicodeDecodeError)


def test_parse_file_reports_unreadable_paths(tmp_path):
    for path in (tmp_path / "missing.cluspt", tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read instance file") as info:
            cluspt.parse_file(path)
        assert isinstance(info.value.__cause__, OSError)


def test_decode_is_deterministic():
    g = load("blocks7")
    rng = random.Random(5)
    for _ in range(50):
        genotype = [rng.randrange(g.n) for _ in range(g.n)]
        assert cluspt.decode(g, genotype).parent == cluspt.decode(g, genotype).parent
        assert cluspt.cost(g, genotype) == cluspt.cost(g, genotype)


def test_decode_rejects_short_genotype():
    g = load("path4")
    for fn in (cluspt.decode, cluspt.cost):
        with pytest.raises(ConfigurationError):
            fn(g, [0, 0, 0])


def test_decode_output_is_valid_and_objective_recomputes():
    rng = random.Random(23)
    for name in FIXTURES:
        g = load(name)
        for _ in range(300):
            genotype = [rng.randrange(g.n) for _ in range(g.n)]
            sol = cluspt.decode(g, genotype)
            assert cluspt.validate(g, sol) == []
            # integer weights: the cost is exact
            assert cluspt.cost(g, genotype) == cluspt.recompute_objective(g, sol.parent)
            assert sol.parent[g.source] is None
            assert sum(p is not None for p in sol.parent) == g.n - 1


def test_decode_single_cluster_star():
    # star center 1, unit weights: every genotype decodes to the star
    n = 5
    edges = [f"1 {v} 1" for v in range(2, n + 1)]
    members = " ".join(str(v) for v in range(1, n + 1))
    text = (
        f"NAME: star\nDIMENSION: {n}\nCLUSTERS: 1\nSOURCE: 1\n"
        f"EDGE_WEIGHT_TYPE: EXPLICIT\nEDGE_SECTION\n" + "\n".join(edges) + "\n"
        f"CLUSTER_SECTION\n1 {members} -1\nEOF\n"
    )
    g = cluspt.parse_instance(text)
    rng = random.Random(1)
    for _ in range(40):
        genotype = [rng.randrange(n) for _ in range(n)]
        assert cluspt.decode(g, genotype).parent == [None] + [0] * (n - 1)
        assert cluspt.cost(g, genotype) == n - 1


def test_decode_forced_path_distances():
    g = cluspt.parse_instance(
        "NAME: p3\nDIMENSION: 3\nCLUSTERS: 1\nSOURCE: 1\n"
        "EDGE_WEIGHT_TYPE: EXPLICIT\nEDGE_SECTION\n1 2 1\n2 3 1\n"
        "CLUSTER_SECTION\n1 1 2 3 -1\nEOF\n"
    )
    assert cluspt.decode(g, [0, 0, 0]).parent == [None, 0, 1]
    assert cluspt.cost(g, [0, 0, 0]) == 3.0


def test_decode_all_equal_priorities_on_path4():
    # ties resolve by vertex id: trees and objective are fixed by hand
    g = load("path4")
    assert cluspt.decode(g, [0, 0, 0, 0]).parent == [None, 0, 1, 2]
    assert cluspt.cost(g, [0, 0, 0, 0]) == 6.0


def test_doubling_weights_doubles_objective():
    g = load("rings6")
    doubled = cluspt.ClusteredGraph(
        name=g.name,
        n=g.n,
        adjacency={u: {v: 2 * w for v, w in nbrs.items()} for u, nbrs in g.adjacency.items()},
        clusters=list(g.clusters),
        source=g.source,
    )
    rng = random.Random(9)
    for _ in range(60):
        genotype = [rng.randrange(g.n) for _ in range(g.n)]
        assert cluspt.decode(doubled, genotype).parent == cluspt.decode(g, genotype).parent
        assert cluspt.cost(doubled, genotype) == 2 * cluspt.cost(g, genotype)


def test_validate_flags_cross_cluster_detour():
    # two same-cluster vertices joined only through the other cluster
    text = build(
        dimension=4,
        edges=["1 2 1", "2 3 1", "3 4 1", "1 4 1"],
        cluster_lines=["1 1 2 -1", "2 3 4 -1"],
    )
    g = cluspt.parse_instance(text)
    # vertices 3 and 4 both hang off cluster 1, with no 3-4 edge in the tree
    bad = cluspt.TreeSolution(parent=[None, 0, 1, 0])
    violations = cluspt.validate(g, bad)
    assert any("cluster 2" in v for v in violations)


def test_validate_flags_cycles_and_foreign_edges():
    g = load("path4")
    cyclic = cluspt.TreeSolution(parent=[None, 2, 1, 2])
    assert any("source" in v or "tree" in v for v in cluspt.validate(g, cyclic))
    foreign = cluspt.TreeSolution(parent=[None, 0, 0, 2])
    assert any("not in the graph" in v for v in cluspt.validate(g, foreign))
    short = cluspt.TreeSolution(parent=[None, 0])
    assert cluspt.validate(g, short) != []
    # every arc is a graph edge, but 2 and 3 point at each other
    two_cycle = cluspt.TreeSolution(parent=[None, 0, 3, 2])
    assert cluspt.validate(g, two_cycle) == ["not a tree: a vertex cannot reach the source"]


@pytest.mark.parametrize(
    "parent, violation",
    [
        ([1, 0, 1, 2], "source must have no parent"),
        ([None, None, 1, 2], "vertex 2 has no parent"),
        ([None, 0, 7, 2], "vertex 3 has parent outside the graph"),
        ([None, 0, 1, -1], "vertex 4 has parent outside the graph"),
    ],
)
def test_validate_flags_missing_and_out_of_range_parents(parent, violation):
    sol = cluspt.TreeSolution(parent=parent)
    assert cluspt.validate(load("path4"), sol) == [violation]


def test_recompute_objective_rejects_broken_parent_arrays():
    g = load("path4")
    with pytest.raises(InvalidStateError):
        cluspt.recompute_objective(g, [None, 2, 1, 2])  # unreachable cycle
    with pytest.raises(InvalidStateError):
        cluspt.recompute_objective(g, [None, 0, 0, 2])  # 0-2 is not an edge


def test_make_task_defaults():
    g = load("rings6")
    task = cluspt.make_task(g, task_id=3, known_optimum=22.0)
    assert task.task_id == 3
    assert task.dimension == 6
    assert task.alphabet_size == 6
    assert task.known_optimum == 22.0
    genotype = [0] * 6
    parent = cluspt.decode(g, genotype).parent
    assert task.objective(genotype) == cluspt.recompute_objective(g, parent)


def test_a_cost_past_the_float_range_is_infinite_as_decoded():
    # each distance is finite, their sum is not; the engine's ledger rejects
    # an infinite cost with a typed error, so cost must not raise here
    text = (
        "DIMENSION: 3\nCLUSTERS: 3\nSOURCE: 1\nEDGE_WEIGHT_TYPE: EUC_2D\n"
        "NODE_COORD_SECTION\n1 0 0\n2 1.2e308 0\n3 1.2e308 1.2e308\n"
        "CLUSTER_SECTION\n1 1 -1\n2 2 -1\n3 3 -1\nEOF\n"
    )
    g = cluspt.parse_instance(text)
    for genotype in ([0, 1, 2], [2, 1, 0]):
        parent = cluspt.decode(g, genotype).parent
        assert cluspt.cost(g, genotype) == cluspt.recompute_objective(g, parent) == math.inf


def test_euclidean_single_vertex_clusters_reduce_to_shortest_path_like_tree():
    # all-singleton clusters: decode must still span and root at the source
    text = (
        "NAME: singles\nDIMENSION: 4\nCLUSTERS: 4\nSOURCE: 2\n"
        "EDGE_WEIGHT_TYPE: EXPLICIT\nEDGE_SECTION\n"
        "1 2 1\n2 3 1\n3 4 1\n1 4 5\n"
        "CLUSTER_SECTION\n1 1 -1\n2 2 -1\n3 3 -1\n4 4 -1\nEOF\n"
    )
    g = cluspt.parse_instance(text)
    rng = random.Random(31)
    for _ in range(60):
        genotype = [rng.randrange(4) for _ in range(4)]
        sol = cluspt.decode(g, genotype)
        assert cluspt.validate(g, sol) == []
        assert sol.parent[g.source] is None
        assert math.isfinite(cluspt.cost(g, genotype))
        assert cluspt.cost(g, genotype) == cluspt.recompute_objective(g, sol.parent)

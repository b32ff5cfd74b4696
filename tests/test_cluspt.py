import math
import pathlib
import random
import time

import pytest

from mfltga.errors import ConfigurationError, InstanceFormatError, InvalidStateError
from mfltga.problems import cluspt

INSTANCES = pathlib.Path(__file__).resolve().parent.parent / "instances"

FIXTURES = ("path4", "rings6", "blocks7", "euc5")


def load(name):
    return cluspt.parse_file(INSTANCES / f"{name}.cluspt")


def build(**overrides):
    """Assemble a small EXPLICIT instance text with selective overrides."""
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
        "EDGE_SECTION",
        *fields["edges"],
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
        a = cluspt.decode(g, genotype)
        b = cluspt.decode(g, genotype)
        assert a.parent == b.parent
        assert a.dist == b.dist
        assert a.objective == b.objective


def test_decode_rejects_short_genotype():
    g = load("path4")
    with pytest.raises(ConfigurationError):
        cluspt.decode(g, [0, 0, 0])


def test_decode_output_is_valid_and_objective_recomputes():
    rng = random.Random(23)
    for name in FIXTURES:
        g = load(name)
        for _ in range(300):
            genotype = [rng.randrange(g.n) for _ in range(g.n)]
            sol = cluspt.decode(g, genotype)
            assert cluspt.validate(g, sol) == []
            assert sol.objective == float(sum(sol.dist))
            assert sol.objective == cluspt.recompute_objective(g, sol.parent)
            assert sol.dist[g.source] == 0.0
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
        sol = cluspt.decode(g, [rng.randrange(n) for _ in range(n)])
        assert sol.objective == n - 1
        assert all(p == 0 for v, p in enumerate(sol.parent) if v != 0)


def test_decode_forced_path_distances():
    g = cluspt.parse_instance(
        "NAME: p3\nDIMENSION: 3\nCLUSTERS: 1\nSOURCE: 1\n"
        "EDGE_WEIGHT_TYPE: EXPLICIT\nEDGE_SECTION\n1 2 1\n2 3 1\n"
        "CLUSTER_SECTION\n1 1 2 3 -1\nEOF\n"
    )
    sol = cluspt.decode(g, [0, 0, 0])
    assert sol.dist == [0.0, 1.0, 2.0]
    assert sol.objective == 3.0


def test_decode_all_equal_priorities_on_path4():
    # ties resolve by vertex id: trees and objective are fixed by hand
    g = load("path4")
    sol = cluspt.decode(g, [0, 0, 0, 0])
    assert sol.parent == [None, 0, 1, 2]
    assert sol.objective == 6.0


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
        assert cluspt.decode(doubled, genotype).objective == 2 * cluspt.decode(g, genotype).objective


def test_validate_flags_cross_cluster_detour():
    # two same-cluster vertices joined only through the other cluster
    text = build(
        dimension=4,
        edges=["1 2 1", "2 3 1", "3 4 1", "1 4 1"],
        cluster_lines=["1 1 2 -1", "2 3 4 -1"],
    )
    g = cluspt.parse_instance(text)
    # vertices 3 and 4 both hang off cluster 1, with no 3-4 edge in the tree
    bad = cluspt.TreeSolution(parent=[None, 0, 1, 0], dist=[0.0, 1.0, 2.0, 1.0], objective=4.0)
    violations = cluspt.validate(g, bad)
    assert any("cluster 2" in v for v in violations)


def test_validate_flags_cycles_and_foreign_edges():
    g = load("path4")
    cyclic = cluspt.TreeSolution(parent=[None, 2, 1, 2], dist=[0.0] * 4, objective=0.0)
    assert any("source" in v or "tree" in v for v in cluspt.validate(g, cyclic))
    foreign = cluspt.TreeSolution(parent=[None, 0, 0, 2], dist=[0.0] * 4, objective=0.0)
    assert any("not in the graph" in v for v in cluspt.validate(g, foreign))
    short = cluspt.TreeSolution(parent=[None, 0], dist=[0.0, 1.0], objective=1.0)
    assert cluspt.validate(g, short) != []


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
    assert task.objective(genotype) == cluspt.decode(g, genotype).objective


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
        sol = cluspt.decode(g, [rng.randrange(4) for _ in range(4)])
        assert cluspt.validate(g, sol) == []
        assert sol.parent[g.source] is None
        assert math.isfinite(sol.objective)

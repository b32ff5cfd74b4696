"""Clustered shortest-path tree problem: instances, decoder, validation.

An instance is an undirected weighted graph whose vertices are partitioned
into clusters, plus a source vertex.  A feasible solution is a spanning tree
whose induced subgraph on every cluster is itself connected; the objective
(minimized) is the sum over all vertices of their tree distance from the
source.

Instance files follow a TSPLIB-flavored layout::

    NAME: toy
    DIMENSION: 4
    CLUSTERS: 2
    SOURCE: 1
    EDGE_WEIGHT_TYPE: EXPLICIT        (or EUC_2D with NODE_COORD_SECTION)
    EDGE_SECTION
    1 2 1
    ...
    CLUSTER_SECTION
    1 1 2 -1
    2 3 4 -1
    EOF

Vertices are 1-based in files and 0-based internally.  EUC_2D instances are
complete graphs with weights rounded to the nearest integer.

Genotypes are integer priority vectors.  The decoder grows each cluster's
internal tree and the cluster-level tree by highest-priority frontier
expansion, realizes cluster-level edges as the cheapest concrete edge between
the two clusters, then orients everything away from the source.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from itertools import islice
from typing import Optional

from ..errors import ConfigurationError, InstanceFormatError, InvalidStateError
from ..mfo import TaskDefinition


@dataclass
class ClusteredGraph:
    """Parsed instance with 0-based vertices."""

    name: str
    n: int
    adjacency: dict  # adjacency[u][v] = weight, symmetric
    clusters: list  # list of sorted vertex tuples, file order
    source: int

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    # The tables below depend on the graph alone, so each is built on first
    # use and kept; the graph is not to be modified after that.

    @cached_property
    def owner(self) -> tuple:
        """owner[v] is the index of the cluster holding vertex v."""
        owner = [None] * self.n
        for ci, cluster in enumerate(self.clusters):
            for v in cluster:
                owner[v] = ci
        return tuple(owner)

    @cached_property
    def intra_links(self) -> tuple:
        """intra_links[u] lists (v, w, (u, v, w)) for each edge u-v inside a cluster."""
        owner = self.owner
        return tuple(
            [(v, w, (u, v, w)) for v, w in self.adjacency[u].items() if owner[v] == owner[u]]
            for u in range(self.n)
        )

    @cached_property
    def cluster_links(self) -> tuple:
        """cluster_links[a] lists (b, w, (lo, hi, w)) for each cluster b adjacent to a.

        lo-hi is the cheapest concrete edge between the two clusters, ties
        broken by lower endpoint ids.
        """
        owner = self.owner
        cheapest = {}
        for u, v, w in self.edges():
            a, b = owner[u], owner[v]
            if a != b:
                pair = (min(a, b), max(a, b))
                cand = (w, min(u, v), max(u, v))
                if pair not in cheapest or cand < cheapest[pair]:
                    cheapest[pair] = cand
        links = [[] for _ in self.clusters]
        for (a, b), (w, lo, hi) in cheapest.items():
            links[a].append((b, w, (lo, hi, w)))
            links[b].append((a, w, (lo, hi, w)))
        return tuple(links)

    def edges(self):
        for u in range(self.n):
            for v, w in self.adjacency[u].items():
                if u < v:
                    yield u, v, w


@dataclass
class TreeSolution:
    """Spanning tree as a parent array oriented away from the source."""

    parent: list  # parent[v] is None for the source
    dist: list
    objective: float


def _nint(x: float) -> int:
    return int(x + 0.5)


def _listed(ids, count: int) -> str:
    """The first few of count ids, e.g. '[4]' or '[2, 3, 4, 5, 6] and 7 more'."""
    head = list(islice(ids, 5))
    more = count - len(head)
    return f"{head} and {more} more" if more else f"{head}"


_HEADER_KEYS = {"NAME", "DIMENSION", "CLUSTERS", "SOURCE", "EDGE_WEIGHT_TYPE"}
_SECTION_KEYS = ("NODE_COORD_SECTION", "EDGE_SECTION", "CLUSTER_SECTION")


def parse_instance(text: str) -> ClusteredGraph:
    """Parse instance text, raising InstanceFormatError with line numbers."""
    header = {}
    data = {key: [] for key in _SECTION_KEYS}
    section = None
    ended = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or ended:
            continue
        if line == "EOF":
            ended = True
            continue
        upper = line.split(":")[0].strip().upper()
        if upper in _HEADER_KEYS and ":" in line:
            key, _, value = line.partition(":")
            key = key.strip().upper()
            if key in header:
                raise InstanceFormatError(f"duplicate header {key}", lineno)
            header[key] = (value.strip(), lineno)
            section = None
            continue
        if line.upper() in _SECTION_KEYS:
            section = line.upper()
            continue
        if section is None:
            raise InstanceFormatError(f"unexpected line {line!r}", lineno)
        data[section].append((lineno, line))
    coord_lines, edge_lines, cluster_lines = (data[key] for key in _SECTION_KEYS)

    def require(key):
        if key not in header:
            raise InstanceFormatError(f"missing header {key}")
        return header[key]

    def int_header(key):
        text, lineno = require(key)
        try:
            return int(text), lineno
        except ValueError:
            raise InstanceFormatError(f"{key} is not an integer: {text!r}", lineno)

    name = header.get("NAME", ("unnamed", 0))[0]
    n, dim_line = int_header("DIMENSION")
    if n < 1:
        raise InstanceFormatError("DIMENSION must be >= 1", dim_line)
    num_clusters, k_line = int_header("CLUSTERS")
    if num_clusters < 1:
        raise InstanceFormatError("CLUSTERS must be >= 1", k_line)
    source, src_line = int_header("SOURCE")
    if not 1 <= source <= n:
        raise InstanceFormatError(f"SOURCE {source} outside 1..{n}", src_line)
    weight_type, wt_line = require("EDGE_WEIGHT_TYPE")
    weight_type = weight_type.upper()
    if weight_type not in ("EUC_2D", "EXPLICIT"):
        raise InstanceFormatError(f"unsupported EDGE_WEIGHT_TYPE {weight_type!r}", wt_line)
    # data in the section the weight type does not read would otherwise be dropped
    unread = "EDGE_SECTION" if weight_type == "EUC_2D" else "NODE_COORD_SECTION"
    if data[unread]:
        lineno, line = data[unread][0]
        raise InstanceFormatError(f"{unread} line {line!r} in an {weight_type} instance", lineno)

    if weight_type == "EUC_2D":
        if not coord_lines:
            raise InstanceFormatError("EUC_2D instance without NODE_COORD_SECTION")
        given = {}
        for lineno, line in coord_lines:
            parts = line.split()
            if len(parts) != 3:
                raise InstanceFormatError(f"expected 'id x y', got {line!r}", lineno)
            try:
                vid = int(parts[0])
                x, y = float(parts[1]), float(parts[2])
            except ValueError:
                raise InstanceFormatError(f"bad coordinate line {line!r}", lineno)
            if not (math.isfinite(x) and math.isfinite(y)):
                raise InstanceFormatError(f"non-finite coordinate in {line!r}", lineno)
            if not 1 <= vid <= n:
                raise InstanceFormatError(f"vertex {vid} outside 1..{n}", lineno)
            if vid - 1 in given:
                raise InstanceFormatError(f"duplicate coordinates for vertex {vid}", lineno)
            given[vid - 1] = (x, y)
        # Checked before anything of size n is allocated: n comes from the
        # header and may be far larger than the file.
        if len(given) < n:
            missing = (v + 1 for v in range(n) if v not in given)
            raise InstanceFormatError(
                f"missing coordinates for vertices {_listed(missing, n - len(given))}"
            )
        coords = [given[v] for v in range(n)]
        adjacency = {v: {} for v in range(n)}
        try:
            for u in range(n):
                for v in range(u + 1, n):
                    dx = coords[u][0] - coords[v][0]
                    dy = coords[u][1] - coords[v][1]
                    w = _nint(math.hypot(dx, dy))
                    adjacency[u][v] = w
                    adjacency[v][u] = w
        except OverflowError:
            raise InstanceFormatError(f"distance between vertices {u + 1} and {v + 1} overflows")
    else:
        if not edge_lines:
            raise InstanceFormatError("EXPLICIT instance without EDGE_SECTION")
        if len(edge_lines) < n - 1:
            raise InstanceFormatError(
                f"graph is not connected: {len(edge_lines)} edges cannot join {n} vertices"
            )
        adjacency = {v: {} for v in range(n)}
        for lineno, line in edge_lines:
            parts = line.split()
            if len(parts) != 3:
                raise InstanceFormatError(f"expected 'u v w', got {line!r}", lineno)
            try:
                u, v = int(parts[0]), int(parts[1])
                w = float(parts[2])
            except ValueError:
                raise InstanceFormatError(f"bad edge line {line!r}", lineno)
            if not math.isfinite(w):
                raise InstanceFormatError(f"non-finite weight {parts[2]!r}", lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise InstanceFormatError(f"edge endpoint outside 1..{n}", lineno)
            if u == v:
                raise InstanceFormatError(f"self-loop on vertex {u}", lineno)
            if w < 0:
                raise InstanceFormatError(f"negative weight {w}", lineno)
            ui, vi = u - 1, v - 1
            if vi in adjacency[ui]:
                raise InstanceFormatError(f"duplicate edge {u}-{v}", lineno)
            if w == int(w):
                w = int(w)
            adjacency[ui][vi] = w
            adjacency[vi][ui] = w

    if len(cluster_lines) != num_clusters:
        raise InstanceFormatError(
            f"CLUSTER_SECTION holds {len(cluster_lines)} lines, expected {num_clusters}"
        )
    assigned = {}
    clusters_by_id = {}
    for lineno, line in cluster_lines:
        parts = line.split()
        try:
            values = [int(p) for p in parts]
        except ValueError:
            raise InstanceFormatError(f"bad cluster line {line!r}", lineno)
        if len(values) < 3 or values[-1] != -1:
            raise InstanceFormatError("cluster line must be 'id v1 ... -1'", lineno)
        cid, members = values[0], values[1:-1]
        if not 1 <= cid <= num_clusters:
            raise InstanceFormatError(f"cluster id {cid} outside 1..{num_clusters}", lineno)
        if cid in clusters_by_id:
            raise InstanceFormatError(f"duplicate cluster id {cid}", lineno)
        for v in members:
            if not 1 <= v <= n:
                raise InstanceFormatError(f"vertex {v} outside 1..{n}", lineno)
            if v in assigned:
                raise InstanceFormatError(
                    f"vertex {v} already belongs to cluster {assigned[v]}", lineno
                )
            assigned[v] = cid
        clusters_by_id[cid] = tuple(sorted(v - 1 for v in members))
    if len(assigned) < n:
        unassigned = (v for v in range(1, n + 1) if v not in assigned)
        raise InstanceFormatError(
            f"vertices {_listed(unassigned, n - len(assigned))} belong to no cluster"
        )
    clusters = [clusters_by_id[cid] for cid in range(1, num_clusters + 1)]

    graph = ClusteredGraph(
        name=name,
        n=n,
        adjacency=adjacency,
        clusters=clusters,
        source=source - 1,
    )
    _check_connectivity(graph)
    return graph


def parse_file(path) -> ClusteredGraph:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        reason = exc.strerror or exc
        raise ConfigurationError(f"cannot read instance file {path}: {reason}") from exc
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(f"instance file {path} is not UTF-8 text: {exc.reason}") from exc
    return parse_instance(text)


def _check_connectivity(g: ClusteredGraph) -> None:
    if _reachable(g.adjacency, 0, range(g.n)) != set(range(g.n)):
        raise InstanceFormatError("graph is not connected")
    for ci, cluster in enumerate(g.clusters, start=1):
        inside = set(cluster)
        if _reachable(g.adjacency, cluster[0], inside) != inside:
            raise InstanceFormatError(f"induced subgraph of cluster {ci} is not connected")


def _reachable(adjacency, start, allowed) -> set:
    allowed = set(allowed)
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v in allowed and v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def _grow(root, prio, links):
    """Tree grown from root by highest-priority frontier expansion.

    links[x] lists (y, w, edge) for every item y joined to x by a link of
    weight w realized as the concrete edge (u, v, w).  Each step adds the
    frontier item with the highest prio[y], ties broken by lower id, attached
    through its lowest-weight link, then the one from the lower tree-side
    item.  Returns the concrete edges in the order added; the tree spans only
    what root can reach.
    """
    reached = {root}
    best = {}
    frontier = []
    edges = []
    x = root
    while True:
        for y, w, edge in links[x]:
            if y in reached:
                continue
            cand = (w, x, edge)
            held = best.get(y)
            if held is None:
                heappush(frontier, (-prio[y], y))
                best[y] = cand
            elif cand < held:
                best[y] = cand
        if not frontier:
            return edges
        x = heappop(frontier)[1]
        reached.add(x)
        edges.append(best[x][2])


def decode(g: ClusteredGraph, genotype) -> TreeSolution:
    """Decode a priority vector into a feasible clustered spanning tree.

    Each cluster's internal tree is grown from its highest-priority vertex
    (ties: lower id).  The cluster-level tree is grown from the source's
    cluster, a cluster's priority being that of its lowest-id vertex, and each
    cluster-level edge is realized as the minimum-weight concrete edge between
    the two clusters (ties by lower endpoint ids).  The result is oriented
    away from the source.
    """
    if len(genotype) < g.n:
        raise ConfigurationError(
            f"genotype length {len(genotype)} is shorter than vertex count {g.n}"
        )
    prio = genotype
    tree_edges = []
    for cluster in g.clusters:
        seed = min(cluster, key=lambda v: (-prio[v], v))
        grown = _grow(seed, prio, g.intra_links)
        if len(grown) != len(cluster) - 1:
            raise InvalidStateError("cluster subgraph is not connected")
        tree_edges += grown
    cluster_prio = [prio[min(cluster)] for cluster in g.clusters]
    grown = _grow(g.owner[g.source], cluster_prio, g.cluster_links)
    if len(grown) != g.num_clusters - 1:
        raise InvalidStateError("cluster-level graph is not connected")
    tree_edges += grown

    neighbors = [[] for _ in range(g.n)]
    for u, v, w in tree_edges:
        neighbors[u].append((v, w))
        neighbors[v].append((u, w))
    parent = [None] * g.n
    dist = [math.inf] * g.n
    dist[g.source] = 0.0
    queue = deque([g.source])
    seen = {g.source}
    while queue:
        u = queue.popleft()
        for v, w in neighbors[u]:
            if v not in seen:
                seen.add(v)
                parent[v] = u
                dist[v] = dist[u] + w
                queue.append(v)
    if len(seen) != g.n:
        raise InvalidStateError("decoded edge set does not span the graph")
    return TreeSolution(parent=parent, dist=dist, objective=float(sum(dist)))


def recompute_objective(g: ClusteredGraph, parent) -> float:
    """Recompute sum of source distances from a parent array alone."""
    dist = [None] * g.n
    dist[g.source] = 0.0
    for v in range(g.n):
        chain = []
        x = v
        while dist[x] is None:
            chain.append(x)
            p = parent[x]
            if p is None or len(chain) > g.n:
                raise InvalidStateError("parent array does not reach the source")
            if p not in g.adjacency[x]:
                raise InvalidStateError(f"edge {x}-{p} is not in the graph")
            x = p
        for node in reversed(chain):
            dist[node] = dist[parent[node]] + g.adjacency[node][parent[node]]
    return float(sum(dist))


def validate(g: ClusteredGraph, sol: TreeSolution):
    """Structural checks; returns a list of violation strings (empty = valid)."""
    violations = []
    if len(sol.parent) != g.n:
        return [f"parent array length {len(sol.parent)} != {g.n}"]
    if sol.parent[g.source] is not None:
        violations.append("source must have no parent")
    for v, p in enumerate(sol.parent):
        if v == g.source:
            continue
        if p is None:
            violations.append(f"vertex {v + 1} has no parent")
        elif not (0 <= p < g.n):
            violations.append(f"vertex {v + 1} has parent outside the graph")
        elif p not in g.adjacency[v]:
            violations.append(f"edge {v + 1}-{p + 1} is not in the graph")
    if violations:
        return violations
    for v in range(g.n):
        hops = 0
        x = v
        while x != g.source:
            x = sol.parent[x]
            hops += 1
            if x is None or hops > g.n:
                return ["not a tree: a vertex cannot reach the source"]
    tree_adjacency = [[] for _ in range(g.n)]
    for v, p in enumerate(sol.parent):
        if p is not None:
            tree_adjacency[v].append(p)
            tree_adjacency[p].append(v)
    for ci, cluster in enumerate(g.clusters, start=1):
        inside = set(cluster)
        if _reachable(tree_adjacency, cluster[0], inside) != inside:
            violations.append(f"induced subtree of cluster {ci} is disconnected")
    return violations


def make_task(
    g: ClusteredGraph, task_id: int = 1, known_optimum: Optional[float] = None
) -> TaskDefinition:
    """Wrap an instance as an engine task over priority genes in 0..max(n, 2)-1.

    Tasks sharing a population draw genes from the largest of their alphabets.
    """
    return TaskDefinition(
        task_id=task_id,
        dimension=g.n,
        alphabet_size=max(g.n, 2),
        objective=lambda genes, _g=g: decode(_g, genes).objective,
        known_optimum=known_optimum,
    )

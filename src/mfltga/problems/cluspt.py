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
expansion; a cluster-level link is the cheapest concrete edge between its
two clusters.  Each graph keeps a bounded memo of recently grown trees, so a
cluster whose priorities, or just their order, were seen before is not
regrown: a cluster's entry is its tree rooted at its seed, and the
cluster-level entry is the tree of clusters, each reached through the
concrete edge it is entered by.  A decode re-roots each cluster's tree at its
entry vertex to orient everything away from the source; decoding gives the
same tree either way.  ``decode`` returns that tree as a parent array; the
task objective is ``cost``, which adds per-cluster distance sums kept on the
memo entries and builds no parent array.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property, partial
from heapq import heappop, heappush
from itertools import islice
from operator import index, itemgetter
from typing import Optional

from ..errors import ConfigurationError, InstanceFormatError, InvalidStateError
from ..mfo import TaskDefinition

# Most entries one memo table of grown trees holds; a full table is cleared.
MEMO_SIZE = 128


@dataclass
class ClusteredGraph:
    """Instance with 0-based vertices, checked when built.

    Non-empty clusters partition the vertices, the source is one, the
    adjacency has a row for each vertex 0..n-1 and symmetric weights, and the
    graph and each cluster are connected; else InstanceFormatError names the
    vertex or cluster (1-based).  Each cluster is stored as a sorted tuple,
    since growth breaks priority ties by that order.  owner[v] is the index of
    the cluster holding v.
    """

    name: str
    n: int
    adjacency: dict  # adjacency[u][v] = weight, symmetric
    clusters: list  # list of vertex tuples, sorted when built, file order
    source: int

    def __post_init__(self):
        self.clusters = [tuple(sorted(cluster)) for cluster in self.clusters]
        owner = [None] * self.n
        for ci, cluster in enumerate(self.clusters):
            if not cluster:
                raise InstanceFormatError(f"cluster {ci + 1} is empty")
            for v in cluster:
                if not 0 <= v < self.n:
                    raise InstanceFormatError(f"vertex {v + 1} outside 1..{self.n}")
                if owner[v] is not None:
                    raise InstanceFormatError(
                        f"vertex {v + 1} already belongs to cluster {owner[v] + 1}"
                    )
                owner[v] = ci
        left = owner.count(None)
        if left:
            missing = (v + 1 for v in range(self.n) if owner[v] is None)
            raise InstanceFormatError(f"vertices {_listed(missing, left)} belong to no cluster")
        if not 0 <= self.source < self.n:
            raise InstanceFormatError(f"SOURCE {self.source + 1} outside 1..{self.n}")
        self.owner = tuple(owner)
        _check_adjacency(self.adjacency, self.n)
        if len(reachable(self.adjacency, self.source, range(self.n))) != self.n:
            raise InstanceFormatError("graph is not connected")
        split = _split_clusters(self.adjacency, self.clusters)
        if split:
            raise InstanceFormatError(f"induced subgraph of cluster {split[0]} is not connected")

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    # The tables below depend on the graph alone, so each is built on first
    # use and kept; the graph is not to be modified after that.

    @cached_property
    def intra_links(self) -> tuple:
        """intra_links[u] lists (w, v), ascending, for each edge u-v of weight w in a cluster."""
        owner = self.owner
        return tuple(
            sorted((w, v) for v, w in self.adjacency[u].items() if owner[v] == owner[u])
            for u in range(self.n)
        )

    @cached_property
    def cluster_links(self) -> tuple:
        """cluster_links[a] lists (w, b, x, y), ascending, for each cluster b adjacent to a.

        x-y is the cheapest edge between the two clusters, of weight w, with x
        in a and y in b; ties go to the lower endpoint ids.  As b is unique in
        the list, the order is that of (w, b).
        """
        owner = self.owner
        cheapest = {}
        for u, v, w in self.edges():
            pair = frozenset((owner[u], owner[v]))
            if len(pair) == 2 and (w, u, v) < cheapest.get(pair, (math.inf,)):
                cheapest[pair] = (w, u, v)
        links = [[] for _ in self.clusters]
        for w, u, v in cheapest.values():
            links[owner[u]].append((w, owner[v], u, v))
            links[owner[v]].append((w, owner[u], v, u))
        return tuple(sorted(quads) for quads in links)

    @cached_property
    def cluster_keys(self) -> tuple:
        """cluster_keys[c](prio) is prio over cluster c, in its vertex order.

        That is a tuple, or a bare priority for a one-vertex cluster: a key
        is only compared with others of the same cluster.
        """
        return tuple(itemgetter(*cluster) for cluster in self.clusters)

    @cached_property
    def lead_key(self):
        """lead_key(prio)[c] is the priority of cluster c's lowest-id vertex.

        With one cluster it is that bare priority, which is never indexed:
        the source's cluster then has no neighbours.
        """
        return itemgetter(*(cluster[0] for cluster in self.clusters))

    @cached_property
    def memo(self) -> tuple:
        """Grown trees by key: one table per cluster, then the cluster-level one.

        The cluster-level table maps a key to a ``_grow`` map rooted at the
        source's cluster, each of its links holding the vertex a cluster is
        entered at and the vertex outside that it hangs from.  A cluster's
        table maps a key to an entry (tree, sums): the ``_grow`` map rooted
        at its seed, and, for each vertex x the cluster was entered at so
        far, sums[x] = ``_sums_from(tree, x)``.
        """
        return tuple({} for _ in range(self.num_clusters + 1))

    @cached_property
    def orders(self) -> tuple:
        """A cluster's memo entries by priority order, one table per cluster.

        An order is the cluster's vertices by descending priority, ties in
        ascending id.  Keys of one order share one entry.
        """
        return tuple({} for _ in self.clusters)

    def edges(self):
        for u in range(self.n):
            for v, w in self.adjacency[u].items():
                if u < v:
                    yield u, v, w


@dataclass
class TreeSolution:
    """Spanning tree as a parent array oriented away from the source."""

    parent: list  # parent[v] is None for the source


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
    """Parse instance text up to EOF; errors name the line, or the graph's vertex or cluster."""
    header = {}
    data = {key: [] for key in _SECTION_KEYS}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.upper() == "EOF":
            break
        key, colon, value = line.partition(":")
        key = key.strip().upper()
        if key in _HEADER_KEYS and colon:
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
    source = int_header("SOURCE")[0]
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
            adjacency[ui][vi] = w
            adjacency[vi][ui] = w

    if len(cluster_lines) != num_clusters:
        raise InstanceFormatError(
            f"CLUSTER_SECTION holds {len(cluster_lines)} lines, expected {num_clusters}"
        )
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
        clusters_by_id[cid] = tuple(v - 1 for v in members)
    clusters = [clusters_by_id[cid] for cid in range(1, num_clusters + 1)]

    return ClusteredGraph(
        name=name,
        n=n,
        adjacency=adjacency,
        clusters=clusters,
        source=source - 1,
    )


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


def reachable(adjacency, start, allowed) -> set:
    """start plus every vertex it reaches through adjacency without leaving allowed."""
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


def _check_adjacency(adjacency, n) -> None:
    """Raise InstanceFormatError unless adjacency has rows 0..n-1 and symmetric weights."""
    missing = [u + 1 for u in range(n) if u not in adjacency]
    if missing:
        listed = _listed(missing, len(missing))
        raise InstanceFormatError(f"vertices {listed} have no adjacency row")
    if len(adjacency) != n:
        stray = [u + 1 for u in adjacency if u not in range(n)]
        raise InstanceFormatError(f"adjacency rows {_listed(stray, len(stray))} outside 1..{n}")
    for u, row in adjacency.items():
        for v, w in row.items():
            if v not in adjacency:
                raise InstanceFormatError(f"edge {u + 1}-{v + 1} leaves 1..{n}")
            back = adjacency[v].get(u)
            if back is None:
                raise InstanceFormatError(f"edge {u + 1}-{v + 1} has no reverse {v + 1}-{u + 1}")
            if back is not w and back != w:
                raise InstanceFormatError(f"edge {u + 1}-{v + 1} weighs {w} one way, {back} back")


def _split_clusters(adjacency, clusters) -> list:
    """The 1-based ids of the clusters whose vertices adjacency does not join inside them."""
    return [ci for ci, c in enumerate(clusters, 1) if len(reachable(adjacency, c[0], c)) != len(c)]


def _grow(root, prio, links):
    """Tree grown from root by highest-priority frontier expansion.

    links[x] lists (w, y, ...) for every item y joined to x by a link of
    weight w, in ascending order; anything after y rides along.  Each step
    adds the frontier item with the highest prio[y], ties broken by lower
    id, attached through its lowest-weight link into the tree, then the one
    from the lower tree-side item: the first of links[y] that reaches the
    tree.  Returns {root: None, y: (w, x, ...), ...}: each item added maps to
    that link, in the order added, so the map is top-down from root.  The
    tree spans only what root can reach.
    """
    tree = {root: None}
    seen = {root}
    frontier = []
    x = root
    while True:
        for link in links[x]:
            y = link[1]
            if y not in seen:
                seen.add(y)
                heappush(frontier, (-prio[y], y))
        if not frontier:
            return tree
        x = heappop(frontier)[1]
        for link in links[x]:
            if link[1] in tree:
                tree[x] = link
                break


def _remember(memo: dict, key, grown) -> None:
    if len(memo) >= MEMO_SIZE:
        memo.clear()
    memo[key] = grown


def _lookup(g: ClusteredGraph, genotype):
    """(entries, tops): each cluster's memo entry and the cluster-level tree.

    A cluster's key misses only on priorities not seen lately; its priority
    order, the vertices by descending priority with ties in ascending id, is
    then looked up in ``g.orders``, and a tree is grown only if that misses
    too.  ``_grow`` compares nothing but (-prio, id), so one order grows one
    tree, rooted at the order's first vertex.
    """
    if len(genotype) < g.n:
        raise ConfigurationError(
            f"genotype length {len(genotype)} is shorter than vertex count {g.n}"
        )
    # any genes but a bytearray's as Python ints: negating an unsigned numpy
    # item wraps, and the memo's keys would equate it with the int it holds
    if type(genotype) is bytearray:
        prio = genotype
    else:
        try:
            prio = list(map(index, genotype))
        except TypeError as exc:
            raise ConfigurationError(f"genotype genes must be integers: {exc}") from None
    entries = []
    for cluster, key_of, memo, orders in zip(g.clusters, g.cluster_keys, g.memo, g.orders):
        key = key_of(prio)
        entry = memo.get(key)
        if entry is None:
            # a reverse sort is stable, so ties keep the lower id first
            order = tuple(sorted(cluster, key=prio.__getitem__, reverse=True))
            entry = orders.get(order)
            if entry is None:
                entry = (_grow(order[0], prio, g.intra_links), {})
                _remember(orders, order, entry)
            _remember(memo, key, entry)
        entries.append(entry)
    lead_prio = g.lead_key(prio)
    memo = g.memo[-1]
    tops = memo.get(lead_prio)
    if tops is None:
        tops = _grow(g.owner[g.source], lead_prio, g.cluster_links)
        _remember(memo, lead_prio, tops)
    return entries, tops


def _rerooted(tree, x):
    """(v, w, p) for every vertex v of a cluster's tree but x, re-rooted at x.

    The path from x up to the seed is reversed; every other vertex keeps its
    seed-side parent.  v hangs from p by an edge of weight w, and p comes
    before v, so the walk is top-down from x.
    """
    turned = {x}
    up = tree[x]
    while up is not None:
        w, p = up
        up = tree[p]
        yield p, w, x
        turned.add(p)
        x = p
    for v, up in tree.items():
        if v not in turned:
            w, p = up
            yield v, w, p


def _sums_from(tree, x) -> tuple:
    """(S, dist): dist[v] is the distance from x to v in tree, S their sum."""
    dist = {x: 0.0}
    for v, w, p in _rerooted(tree, x):
        dist[v] = dist[p] + w
    return sum(dist.values()), dist


def decode(g: ClusteredGraph, genotype) -> TreeSolution:
    """Decode a priority vector into a feasible clustered spanning tree.

    Each cluster's internal tree is grown from its highest-priority vertex
    (ties: lower id).  The cluster-level tree is grown from the source's
    cluster, a cluster's priority being that of its lowest-id vertex, and each
    cluster-level edge is realized as the minimum-weight concrete edge between
    the two clusters (ties by lower endpoint ids).  The result is oriented
    away from the source: the cluster-level tree maps each other cluster,
    top-down, to its link (w, tree-side cluster, entry vertex, outside
    vertex), the source's cluster is entered at the source, and each
    cluster's memoized tree is re-rooted at its entry vertex.  The clusters
    partition the vertices, and they and the graph are connected
    (``ClusteredGraph`` checks this when built), so the trees span the graph.
    """
    entries, tops = _lookup(g, genotype)
    parent = [None] * g.n
    for c, link in tops.items():
        if link is None:
            x = g.source
        else:
            _, _, x, outside = link
            parent[x] = outside
        for v, _, p in _rerooted(entries[c][0], x):
            parent[v] = p
    return TreeSolution(parent)


def cost(g: ClusteredGraph, genotype) -> float:
    """The sum of source distances over the tree decode(g, genotype) builds.

    A cluster C entered at x adds |C|·dist(x) + S, where S sums the tree
    distances from x inside C.  x's cluster hangs from vertex y of an earlier
    cluster entered at z, so dist(x) = dist(z) + the tree distance from z to
    y + the link weight.  S and the distances from x are kept on C's memo
    entry, so a memoized evaluation costs a few steps per cluster.  The sums
    run per cluster, not along each tree path from the source: exact while
    the weights and sums are whole numbers below 2**53, within rounding else.
    """
    entries, tops = _lookup(g, genotype)
    clusters = g.clusters
    placed = [None] * len(clusters)  # placed[c]: (dist of c's entry, distances from it)
    total = 0.0
    for c, link in tops.items():
        if link is None:
            x, d = g.source, 0.0
        else:
            w, b, x, outside = link
            d_b, from_b = placed[b]
            d = d_b + from_b[outside] + w
        tree, sums = entries[c]
        held = sums.get(x)
        if held is None:
            held = sums[x] = _sums_from(tree, x)
        s, from_x = held
        placed[c] = (d, from_x)
        total += len(clusters[c]) * d + s
    return total


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
    """Structural checks; returns a list of violation strings (empty = valid).

    With one in-graph parent per non-source vertex, the n - 1 parent edges
    form a tree, every parent chain ending at the source, iff they reach all n
    vertices; recompute_objective checks the chains by walking them instead.
    """
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
    tree_adjacency = [[] for _ in range(g.n)]
    for v, p in enumerate(sol.parent):
        if p is not None:
            tree_adjacency[v].append(p)
            tree_adjacency[p].append(v)
    if len(reachable(tree_adjacency, g.source, range(g.n))) != g.n:
        return ["not a tree: a vertex cannot reach the source"]
    split = _split_clusters(tree_adjacency, g.clusters)
    return [f"induced subtree of cluster {ci} is disconnected" for ci in split]


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
        objective=partial(cost, g),
        known_optimum=known_optimum,
    )

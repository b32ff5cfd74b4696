"""The CluSPT decoder as it stood before the per-graph tables: a test oracle.

``_grow_cluster_tree``, ``_connect_clusters`` and ``decode`` are kept as they
were, rescanning adjacency and every cluster pair at each step; the one
adaptation is ``_cluster_of``, the former ``ClusteredGraph.cluster_of`` body,
since the graph now exposes the table as ``owner``.  ``decode`` returns its
own ``(parent, dist, objective)`` tuple rather than the package's solution
type, so a change to that type cannot reshape the reference.  Nothing under
``src/`` imports this module.
"""
from __future__ import annotations

import math
from collections import deque

from mfltga.errors import ConfigurationError, InvalidStateError
from mfltga.problems.cluspt import ClusteredGraph


def _cluster_of(g: ClusteredGraph) -> list:
    owner = [None] * g.n
    for ci, cluster in enumerate(g.clusters):
        for v in cluster:
            owner[v] = ci
    return owner


def _grow_cluster_tree(g: ClusteredGraph, cluster, prio):
    """Spanning tree of one cluster by highest-priority frontier expansion.

    The seed is the cluster's highest-priority vertex (ties: lower id); each
    step adds the frontier vertex with the highest priority, ties broken by
    lower vertex id, then lower edge weight, then lower tree-side endpoint.
    """
    members = set(cluster)
    seed = min(cluster, key=lambda v: (-prio[v], v))
    in_tree = {seed}
    edges = []
    while len(in_tree) < len(cluster):
        best = None
        for u in in_tree:
            for v, w in g.adjacency[u].items():
                if v in members and v not in in_tree:
                    key = (-prio[v], v, w, u)
                    if best is None or key < best[0]:
                        best = (key, u, v)
        if best is None:
            raise InvalidStateError("cluster subgraph is not connected")
        _, u, v = best
        edges.append((u, v))
        in_tree.add(v)
    return edges


def _connect_clusters(g: ClusteredGraph, prio):
    """Choose the inter-cluster edges via a cluster-level priority tree.

    The cluster graph is grown from the source's cluster with the same
    frontier rule, using each cluster's lowest-id vertex for its priority;
    every chosen cluster edge is realized as the minimum-weight concrete edge
    between the two clusters (ties by lower endpoint ids).
    """
    owner = _cluster_of(g)
    rep = {}
    for u, v, w in g.edges():
        cu, cv = owner[u], owner[v]
        if cu == cv:
            continue
        pair = (min(cu, cv), max(cu, cv))
        lo, hi = min(u, v), max(u, v)
        cand = (w, lo, hi)
        if pair not in rep or cand < rep[pair]:
            rep[pair] = cand
    cluster_prio = [prio[min(cluster)] for cluster in g.clusters]
    root = owner[g.source]
    in_tree = {root}
    edges = []
    while len(in_tree) < g.num_clusters:
        best = None
        for a in in_tree:
            for b in range(g.num_clusters):
                if b in in_tree:
                    continue
                pair = (min(a, b), max(a, b))
                if pair not in rep:
                    continue
                w = rep[pair][0]
                key = (-cluster_prio[b], b, w, a)
                if best is None or key < best[0]:
                    best = (key, pair)
        if best is None:
            raise InvalidStateError("cluster-level graph is not connected")
        _, pair = best
        _, lo, hi = rep[pair]
        edges.append((lo, hi))
        in_tree.add(pair[0] if pair[1] in in_tree else pair[1])
    return edges


def decode(g: ClusteredGraph, genotype) -> tuple:
    """Decode a priority vector into a feasible clustered spanning tree.

    Returns (parent, dist, objective): the tree oriented away from the
    source, each vertex's distance from the source along it, and their sum.
    """
    if len(genotype) < g.n:
        raise ConfigurationError(
            f"genotype length {len(genotype)} is shorter than vertex count {g.n}"
        )
    prio = genotype
    tree_edges = []
    for cluster in g.clusters:
        tree_edges.extend(_grow_cluster_tree(g, cluster, prio))
    tree_edges.extend(_connect_clusters(g, prio))

    neighbors = {v: [] for v in range(g.n)}
    for u, v in tree_edges:
        w = g.adjacency[u][v]
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
    return parent, dist, float(sum(dist))

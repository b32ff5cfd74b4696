"""Exhaustive oracles for desk-scale instances.

These enumerate complete candidate spaces and are deliberately independent of
the engine-facing evaluators, so tests can cross-check the two routes against
each other.  Both refuse instances beyond desk scale.  The CluSPT oracle
shares only cluspt.reachable, the package's one connectivity search, and
enumerates and costs its trees itself, so it stays independent of decode.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .errors import ConfigurationError
from .problems.cluspt import ClusteredGraph, reachable
from .problems.trap import TrapSpec

MAX_TRAP_BITS = 22
MAX_CLUSPT_VERTICES = 9


@dataclass
class OracleResult:
    optimum_cost: float
    optimum_count: int
    enumerated: int


def reference_trap_cost(bits, block_size: int, num_blocks: int) -> int:
    """Second, structurally different implementation of the trap cost.

    Written against the block definition directly (explicit per-block loop
    with an if/else on the ones count) so it shares no code with the engine
    evaluator.
    """
    if len(bits) != block_size * num_blocks:
        raise ConfigurationError("bit string length does not match k*m")
    value = 0
    for b in range(num_blocks):
        ones = 0
        for g in bits[b * block_size : (b + 1) * block_size]:
            if g == 1:
                ones += 1
        if ones == block_size:
            value += block_size
        else:
            value += block_size - 1 - ones
    return block_size * num_blocks - value


def exhaustive_dtf(spec: TrapSpec) -> OracleResult:
    """Enumerate all 2^l bit strings of an instance (l <= 22)."""
    length = spec.length
    if length > MAX_TRAP_BITS:
        raise ConfigurationError(
            f"instance has {length} bits; exhaustive enumeration caps at {MAX_TRAP_BITS}"
        )
    k = spec.block_size
    block_scores = np.empty(2 ** k, dtype=np.int64)
    for word in range(2 ** k):
        ones = bin(word).count("1")
        block_scores[word] = k if ones == k else k - 1 - ones
    candidates = np.arange(2 ** length, dtype=np.int64)
    mask = (1 << k) - 1
    value = np.zeros(2 ** length, dtype=np.int64)
    for b in range(spec.num_blocks):
        value += block_scores[(candidates >> (b * k)) & mask]
    best_value = int(value.max())
    count = int((value == best_value).sum())
    return OracleResult(
        optimum_cost=float(spec.length - best_value),
        optimum_count=count,
        enumerated=2 ** length,
    )


def _trees(edges, vertices):
    """Every len(vertices) - 1 subset of edges that connects vertices."""
    return [
        combo
        for combo in combinations(edges, len(vertices) - 1)
        if _connects(combo, vertices)
    ]


def _connects(edges, vertices) -> bool:
    adj = {v: [] for v in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return len(reachable(adj, vertices[0], vertices)) == len(vertices)


def exhaustive_cluspt(g: ClusteredGraph) -> OracleResult:
    """Enumerate every feasible clustered spanning tree (n <= 9).

    Feasible trees factor into a spanning tree per cluster, a tree over the
    clusters, and one concrete connecting edge per cluster-tree edge; the
    oracle walks the full cross product.  One helper, _trees, gives both
    levels: each cluster's trees over its own edges, and the cluster trees
    over the cluster pairs that some edge joins.  A built graph and its
    clusters are connected, so there is always at least one.
    """
    if g.n > MAX_CLUSPT_VERTICES:
        raise ConfigurationError(
            f"instance has {g.n} vertices; exhaustive enumeration caps at {MAX_CLUSPT_VERTICES}"
        )
    owner = g.owner
    joins = {}  # (cluster a, cluster b), a <= b -> the edges between them
    for u, v, _ in g.edges():
        joins.setdefault(tuple(sorted((owner[u], owner[v]))), []).append((u, v))
    per_cluster = [_trees(joins.get((c, c), []), cluster) for c, cluster in enumerate(g.clusters)]
    pairs = [pair for pair in joins if pair[0] != pair[1]]
    inter_choices = [
        connect
        for cluster_tree in _trees(pairs, range(g.num_clusters))
        for connect in product(*(joins[pair] for pair in cluster_tree))
    ]
    best, count, examined = float("inf"), 0, 0
    for intra_combo in product(*per_cluster):
        intra_edges = [e for tree in intra_combo for e in tree]
        for connect in inter_choices:
            examined += 1
            cost = _tree_cost(g, intra_edges + list(connect))
            if cost < best:
                best, count = cost, 1
            elif cost == best:
                count += 1
    return OracleResult(optimum_cost=float(best), optimum_count=count, enumerated=examined)


def _tree_cost(g: ClusteredGraph, edges) -> float:
    adj = {v: [] for v in range(g.n)}
    for u, v in edges:
        w = g.adjacency[u][v]
        adj[u].append((v, w))
        adj[v].append((u, w))
    dist = [None] * g.n
    dist[g.source] = 0
    queue = deque([g.source])
    while queue:
        u = queue.popleft()
        for v, w in adj[u]:
            if dist[v] is None:
                dist[v] = dist[u] + w
                queue.append(v)
    return sum(dist)

"""Seeded synthetic CluSPT instances: clustered Euclidean points as instance text.

Cluster centres are drawn uniformly on a square, vertices are dealt to the
clusters at random, each vertex is placed with a Gaussian offset around its
cluster's centre, and coordinates are rounded to integers.  The instance is
EUC_2D, so the graph is complete and every cluster's induced subgraph is
connected; the text therefore always parses with ``cluspt.parse_instance``.
"""
from __future__ import annotations

import random

SIDE = 1000.0  # side of the square holding the cluster centres
SPREAD = 40.0  # standard deviation of a vertex around its cluster centre


def instance_text(name: str, n: int, num_clusters: int, seed: int) -> str:
    """TSPLIB-style text with NODE_COORD_SECTION and CLUSTER_SECTION."""
    rng = random.Random(seed)
    # Equal cluster sizes: the decoder's cost depends on them, and fixed sizes
    # keep the cost per evaluation the same from one seed to the next.
    sizes = [n // num_clusters + (c < n % num_clusters) for c in range(num_clusters)]
    centres = [(rng.uniform(0, SIDE), rng.uniform(0, SIDE)) for _ in range(num_clusters)]
    lines = [
        f"NAME: {name}",
        f"DIMENSION: {n}",
        f"CLUSTERS: {num_clusters}",
        "SOURCE: 1",
        "EDGE_WEIGHT_TYPE: EUC_2D",
        "NODE_COORD_SECTION",
    ]
    order = list(range(1, n + 1))
    rng.shuffle(order)  # clusters are not runs of consecutive vertex ids
    coords = {}
    members = []
    for (cx, cy), size in zip(centres, sizes):
        ids = sorted(order[len(coords) : len(coords) + size])
        for vertex in ids:
            coords[vertex] = (round(rng.gauss(cx, SPREAD)), round(rng.gauss(cy, SPREAD)))
        members.append(ids)
    lines.extend(f"{v} {x} {y}" for v, (x, y) in sorted(coords.items()))
    lines.append("CLUSTER_SECTION")
    for cid, ids in enumerate(members, start=1):
        lines.append(" ".join(str(v) for v in [cid, *ids, -1]))
    lines.append("EOF")
    return "\n".join(lines) + "\n"

"""Linkage learning as it stood before its vectorised rewrites: a test oracle.

``proximity_matrix``, ``_compact``, ``_entropy_bits`` and ``_pair_distance``
are kept as they were before the all-pairs counts, with one ``bincount`` and
one entropy per gene pair.  ``build_tree`` keeps the UPGMA merge loop as it
was before the masked-matrix argmin: one ``np.ix_`` submatrix of the active
clusters per merge.  Nothing under ``src/`` imports this module.
"""
from __future__ import annotations

import numpy as np

from mfltga.errors import InvalidStateError


def _entropy_bits(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def _compact(column: np.ndarray):
    """Map a column to dense codes 0..card-1 (counts preserved)."""
    _, codes = np.unique(column, return_inverse=True)
    card = int(codes.max()) + 1 if codes.size else 0
    return codes, card


def _pair_distance(cx, card_x, hx, cy, card_y, hy) -> float:
    joint = np.bincount(cx * card_y + cy, minlength=card_x * card_y)
    hxy = _entropy_bits(joint)
    if hxy == 0.0:
        return 0.0
    return 2.0 - (hx + hy) / hxy


def proximity_matrix(rows) -> np.ndarray:
    """Symmetric L x L gene-distance matrix with a zero diagonal."""
    data = np.asarray(rows)
    if data.ndim != 2 or data.shape[0] == 0:
        raise InvalidStateError("need a non-empty 2-d sample of gene rows")
    n_rows, n_genes = data.shape
    codes = []
    cards = []
    ents = []
    for g in range(n_genes):
        c, card = _compact(data[:, g])
        codes.append(c)
        cards.append(card)
        ents.append(_entropy_bits(np.bincount(c, minlength=card)))
    dist = np.zeros((n_genes, n_genes))
    for i in range(n_genes):
        for j in range(i + 1, n_genes):
            d = _pair_distance(codes[i], cards[i], ents[i], codes[j], cards[j], ents[j])
            dist[i, j] = d
            dist[j, i] = d
    return dist


def build_tree(rows):
    """(clusters, children, merge_distance) of the average-linkage tree."""
    if len(rows) == 0:
        raise InvalidStateError("cannot build a linkage tree from an empty population")
    base = proximity_matrix(rows)
    n_genes = base.shape[0]
    total = 2 * n_genes - 1
    clusters = [(g,) for g in range(n_genes)]
    children = [None] * n_genes
    merge_distance = [None] * n_genes
    if n_genes == 1:
        return clusters, children, merge_distance

    dist = np.full((total, total), np.inf)
    dist[:n_genes, :n_genes] = base
    np.fill_diagonal(dist, np.inf)
    active = list(range(n_genes))
    sizes = {g: 1 for g in range(n_genes)}

    while len(active) > 1:
        act = np.asarray(active)
        sub = dist[np.ix_(act, act)]
        flat = int(np.argmin(sub))
        ai, aj = divmod(flat, len(act))
        # active ids are kept ascending, so the first row-major minimum is the
        # lexicographically smallest (min id, max id) pair among the ties
        id_i, id_j = int(act[ai]), int(act[aj])
        if id_i > id_j:
            id_i, id_j = id_j, id_i
        new_id = len(clusters)
        merged = tuple(sorted(clusters[id_i] + clusters[id_j]))
        clusters.append(merged)
        children.append((id_i, id_j))
        merge_distance.append(float(dist[id_i, id_j]))
        si, sj = sizes[id_i], sizes[id_j]
        sizes[new_id] = si + sj
        rest = [o for o in active if o != id_i and o != id_j]
        if rest:
            r = np.asarray(rest)
            updated = (si * dist[id_i, r] + sj * dist[id_j, r]) / (si + sj)
            dist[new_id, r] = updated
            dist[r, new_id] = updated
        active = rest + [new_id]

    return clusters, children, merge_distance

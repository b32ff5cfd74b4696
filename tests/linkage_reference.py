"""The gene-distance matrix as it stood before the all-pairs counts: a test oracle.

``proximity_matrix``, ``_compact``, ``_entropy_bits`` and ``_pair_distance``
are kept as they were, with one ``bincount`` and one entropy per gene pair.
Nothing under ``src/`` imports this module.
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

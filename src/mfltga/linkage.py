"""Gene-linkage learning: entropy-based proximity and per-task linkage trees.

The dependency model is an agglomerative hierarchy over gene positions.  Gene
distance is the normalized joint-entropy distance

    d(x, y) = 2 - (H(x) + H(y)) / H(x, y)

computed from empirical frequencies in bits, with d = 0 when the joint entropy
vanishes.  Clusters are merged bottom-up under average linkage (UPGMA), the
running distances maintained with the Lance-Williams update.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import InvalidStateError
from .mfo import Population, TaskDefinition


@dataclass
class LinkageTree:
    """Merge history of gene clusters for one task.

    clusters are recorded in creation order: the first L entries are the
    singleton leaves {0}..{L-1}, each later entry is the union produced by one
    merge, the last entry is the root.  children[i] holds the two merged
    cluster indexes for internal nodes (None for leaves), merge_distance[i]
    the linkage distance of that merge.
    """

    task_id: int
    clusters: list
    children: list
    merge_distance: list

    def crossover_masks(self):
        """All clusters except the root, largest first, recent merges first on ties."""
        order = sorted(
            range(len(self.clusters) - 1),
            key=lambda i: (-len(self.clusters[i]), -i),
        )
        return [self.clusters[i] for i in order]


def _plogp_table(n_rows: int) -> np.ndarray:
    """t[c] = p * log2(p) for p = c / n_rows, with t[0] = 0.0.

    p comes from an int64 true division and each term from the numpy
    operations an entropy over one count vector uses, so every term is
    bit-equal to the one that entropy computes.
    """
    p = np.arange(1, n_rows + 1) / np.int64(n_rows)
    return np.concatenate(([0.0], p * np.log2(p)))


def _distances(ent: np.ndarray, hxy: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """2 - (H(i) + H(j)) / H(i, j) per gene pair, 0.0 where H(i, j) == 0."""
    dist = np.zeros_like(hxy)
    live = hxy != 0.0
    dist[live] = 2.0 - (ent[i] + ent[j])[live] / hxy[live]
    return dist


def _binary_distances(high: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Distances of gene pairs (i, j) in a sample whose columns hold <= 2 values.

    high[r, g] is true where row r holds the larger of gene g's two values.
    All joint counts come from one integer product of this 0/1 code matrix.
    Each entropy is summed from one table of p * log2(p) terms in the cells'
    bincount order (00, 01, 10, 11), so every distance is bit-equal to the
    pair loop's: an empty cell adds an exact 0.0 where the loop skips it.
    """
    n_rows = high.shape[0]
    codes = high.astype(np.int64)
    ones = codes.sum(axis=0)
    n11 = codes.T @ codes
    term = _plogp_table(n_rows)
    ent = -(term[n_rows - ones] + term[ones])
    both = n11[i, j]
    hxy = -(term[n_rows - ones[i] - ones[j] + both] + term[ones[j] - both]
            + term[ones[i] - both] + term[both])
    return _distances(ent, hxy, i, j)


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """True where a value run starts in each row of a row-sorted 2-d array."""
    first = np.ones(ordered.shape, dtype=bool)
    first[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    return first


def _run_entropies(term: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row's value runs, summed in run order.

    Rows with the same number k of runs are summed together as one
    C-contiguous (rows x k) matrix of p * log2(p) terms: numpy sums each row
    of it exactly as it sums that row alone, so each entropy is bit-equal to
    a 1-d sum over the row's non-zero counts in ascending value order.
    """
    starts = np.flatnonzero(first)
    terms = term[np.diff(starts, append=first.size)]
    sizes = first.sum(axis=1)
    offsets = np.cumsum(sizes) - sizes
    ent = np.empty(len(sizes))
    for k in np.flatnonzero(np.bincount(sizes)):
        rows = np.flatnonzero(sizes == k)
        ent[rows] = -terms[offsets[rows, None] + np.arange(k)].sum(axis=1)
    return ent


def _wide_distances(data: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Distances of gene pairs (i, j) in a sample over any alphabet.

    Each gene's values get dense codes 0..card-1 in value order.  Each pair's
    joint cells code_i * width + code_j are sorted within the pair, so its
    non-zero cells appear as runs in the order a joint bincount lists them,
    and all marginal and joint entropies come from the same run sums.
    """
    genes = data.T
    order = np.argsort(genes, axis=1)
    first = _run_starts(np.take_along_axis(genes, order, axis=1))
    codes = np.empty(genes.shape, dtype=np.int64)
    np.put_along_axis(codes, order, np.cumsum(first, axis=1) - 1, axis=1)
    width = int(codes.max()) + 1
    cells = np.sort(codes[i] * width + codes[j], axis=1)
    term = _plogp_table(data.shape[0])
    ent = _run_entropies(term, first)
    hxy = _run_entropies(term, _run_starts(cells))
    return _distances(ent, hxy, i, j)


def proximity_matrix(rows) -> np.ndarray:
    """Symmetric L x L gene-distance matrix with a zero diagonal.

    A sample whose every column holds at most two distinct values takes its
    joint counts from one integer matrix product.  Wider alphabets count the
    joint cells of all gene pairs in one sort of every pair's cell codes, and
    sum the entropies of pairs with equally many non-zero cells together, as
    rows of one matrix.  Both paths sum each entropy's p * log2(p) terms in
    the order a per-pair joint bincount lists its non-zero cells, with the
    same numpy reductions, so their distances are bit-equal to one entropy
    computed per pair.
    """
    try:
        data = np.asarray(rows)
    except ValueError as err:
        raise InvalidStateError(f"gene rows must all have one length: {err}") from err
    if data.ndim != 2 or data.shape[0] == 0 or data.shape[1] == 0:
        raise InvalidStateError("need a non-empty 2-d sample of gene rows")
    n_genes = data.shape[1]
    i, j = np.triu_indices(n_genes, 1)
    lo, hi = data.min(axis=0), data.max(axis=0)
    if np.all((data == lo) | (data == hi)):
        upper = _binary_distances(data != lo, i, j)
    else:
        upper = _wide_distances(data, i, j)
    dist = np.zeros((n_genes, n_genes))
    dist[i, j] = upper
    # mirrored, not recomputed: summing (j, i)'s cells in their own order can
    # change the last bit, and with it a UPGMA tie
    dist[j, i] = upper
    return dist


def build_tree(task_id: int, rows) -> LinkageTree:
    """Agglomerate gene clusters for one task into a linkage tree.

    rows are the task-space gene vectors of the individuals the tree is fitted
    on.
    Merge order: repeatedly join the pair of active clusters at minimum
    average-linkage distance; among equal minima the pair with the
    lexicographically smallest (min cluster id, max cluster id) wins.  A tree
    over L genes always holds exactly 2L-1 nodes.
    """
    if len(rows) == 0:
        raise InvalidStateError("cannot build a linkage tree from an empty population")
    base = proximity_matrix(rows)
    n_genes = base.shape[0]
    total = 2 * n_genes - 1
    clusters = [(g,) for g in range(n_genes)]
    children = [None] * n_genes
    merge_distance = [None] * n_genes
    if n_genes == 1:
        return LinkageTree(task_id, clusters, children, merge_distance)

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

    return LinkageTree(task_id, clusters, children, merge_distance)


def build_all_trees(pop: Population, tasks: Sequence[TaskDefinition]):
    """One linkage tree per task, fitted on that task's skill group.

    Rows are genotypes truncated to the task dimension, read from one integer
    array of the whole population.  A task whose skill group is empty falls
    back to the whole population so a tree always exists.
    """
    members = pop.members
    if not members:
        raise InvalidStateError("cannot build a linkage tree from an empty population")
    width = len(members[0].genotype)
    if any(len(ind.genotype) != width for ind in members):
        raise InvalidStateError("genotypes must all have one length")
    genes = chain.from_iterable(ind.genotype for ind in members)
    genotypes = np.fromiter(genes, dtype=np.int64, count=len(members) * width)
    genotypes = genotypes.reshape(len(members), width)
    skills = np.array([ind.skill_factor or 0 for ind in members])
    trees = []
    for task in tasks:
        group = skills == task.task_id
        rows = genotypes[group] if group.any() else genotypes
        trees.append(build_tree(task.task_id, rows[:, : task.dimension]))
    return trees

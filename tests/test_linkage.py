import random

import numpy as np
import pytest

from mfltga.errors import InvalidStateError
from mfltga.linkage import (
    build_all_trees,
    build_tree,
    proximity_matrix,
)
from mfltga.mfo import TaskDefinition, initialize_population


def sum_task(task_id, dimension, alphabet=2):
    return TaskDefinition(
        task_id=task_id,
        dimension=dimension,
        alphabet_size=alphabet,
        objective=lambda genes: float(sum(genes)),
    )


def pair_distance(x, y):
    """Distance between two gene columns through the proximity matrix."""
    return proximity_matrix(list(zip(x, y)))[0, 1]


def test_proximity_matrix_hand_values():
    # identical columns share all information
    assert pair_distance([0, 0, 1, 1], [0, 0, 1, 1]) == 0.0
    # a deterministic relabeling is still fully dependent
    assert pair_distance([0, 0, 1, 1], [1, 1, 0, 0]) == 0.0
    # independent columns: H(x) = H(y) = 1, H(x, y) = 2
    assert pair_distance([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(1.0)
    # a constant column shares nothing with a varying one
    assert pair_distance([0, 0, 0, 0], [0, 1, 0, 1]) == pytest.approx(1.0)
    # two constants: joint entropy 0, distance 0 by convention
    assert pair_distance([1, 1], [1, 1]) == 0.0
    # partial dependence, computed by hand from the entropy definition
    assert pair_distance([0, 0, 0, 1], [0, 0, 1, 1]) == pytest.approx(0.79248125)


def test_proximity_matrix_is_label_invariant():
    rng = random.Random(2)
    for _ in range(50):
        x = [rng.randrange(3) for _ in range(30)]
        y = [rng.randrange(3) for _ in range(30)]
        relabeled = [(g + 1) % 3 for g in x]
        assert pair_distance(x, y) == pytest.approx(pair_distance(relabeled, y))


def test_proximity_matrix_bounds_and_symmetry():
    rng = random.Random(7)
    for _ in range(100):
        x = [rng.randrange(4) for _ in range(20)]
        y = [rng.randrange(4) for _ in range(20)]
        d = pair_distance(x, y)
        assert 0.0 <= d <= 1.0 + 1e-12
        assert d == pytest.approx(pair_distance(y, x))


def test_proximity_matrix_shape():
    rows = [[0, 0, 1], [0, 1, 1], [1, 0, 0], [1, 1, 0]]
    dist = proximity_matrix(rows)
    assert dist.shape == (3, 3)
    assert np.array_equal(dist, dist.T)
    assert np.all(np.diag(dist) == 0.0)
    assert dist[0, 2] == pytest.approx(pair_distance([0, 0, 1, 1], [1, 1, 0, 0]))
    # build_tree's tie rule reads the first row-major minimum, which is the
    # smallest (min id, max id) pair only if the matrix is exactly symmetric
    rng = np.random.default_rng(4)
    for sample in (rng.integers(0, 2, (128, 75)), rng.integers(0, 30, (32, 30))):
        dist = proximity_matrix(sample)
        assert np.array_equal(dist, dist.T)


def test_proximity_matrix_validation():
    with pytest.raises(InvalidStateError):
        proximity_matrix([])
    with pytest.raises(InvalidStateError):
        proximity_matrix([0, 1, 0])
    # ragged rows and rows without genes are malformed samples too
    with pytest.raises(InvalidStateError):
        proximity_matrix([[0, 1], [0]])
    with pytest.raises(InvalidStateError):
        proximity_matrix(np.zeros((3, 0), dtype=int))


def tree_is_well_formed(tree, n_genes):
    assert len(tree.clusters) == 2 * n_genes - 1
    # leaves are the singletons in gene order
    for g in range(n_genes):
        assert tree.clusters[g] == (g,)
        assert tree.children[g] is None
        assert tree.merge_distance[g] is None
    # each internal node is the disjoint union of its children
    for node in range(n_genes, len(tree.clusters)):
        lo, hi = tree.children[node]
        assert lo < node and hi < node
        merged = sorted(tree.clusters[lo] + tree.clusters[hi])
        assert list(tree.clusters[node]) == merged
        assert len(set(tree.clusters[lo]) & set(tree.clusters[hi])) == 0
    assert tree.clusters[-1] == tuple(range(n_genes))


def test_build_tree_structure_on_random_populations():
    rng = random.Random(13)
    for n_genes in (1, 2, 5, 9):
        rows = [[rng.randrange(2) for _ in range(n_genes)] for _ in range(16)]
        tree = build_tree(rows)
        tree_is_well_formed(tree, n_genes)


def test_build_tree_rejects_empty_population():
    with pytest.raises(InvalidStateError):
        build_tree([])
    with pytest.raises(InvalidStateError):
        build_tree(np.empty((0, 5), dtype=int))
    with pytest.raises(InvalidStateError):
        build_tree(np.zeros((3, 0)))


def test_build_tree_accepts_a_numpy_array():
    rng = random.Random(17)
    rows = [[rng.randrange(3) for _ in range(7)] for _ in range(20)]
    from_list = build_tree(rows)
    from_array = build_tree(np.array(rows))
    assert from_array == from_list
    tree_is_well_formed(from_array, 7)


def test_merge_distances_never_invert():
    # average linkage is monotone: each merge distance is >= the previous one
    rng = random.Random(29)
    for _ in range(10):
        rows = [[rng.randrange(2) for _ in range(8)] for _ in range(12)]
        tree = build_tree(rows)
        merges = [d for d in tree.merge_distance if d is not None]
        for a, b in zip(merges, merges[1:]):
            assert b >= a - 1e-12


def test_tie_break_prefers_lowest_cluster_ids():
    # all columns identical: every pair sits at distance 0, so merges must
    # walk the ids in order: (0,1), (2,3), then the two pairs
    rows = [[0, 0, 0, 0], [1, 1, 1, 1], [0, 0, 0, 0]]
    tree = build_tree(rows)
    assert tree.children[4] == (0, 1)
    assert tree.clusters[4] == (0, 1)
    assert tree.children[5] == (2, 3)
    assert tree.children[6] == (4, 5)


def test_average_linkage_update_is_the_mean():
    # columns 0 and 1 are copies, column 2 is independent of both, so after
    # merging {0, 1} the distance to 2 is the plain average of two equal 1s
    rows = [[0, 0, 0], [0, 0, 1], [1, 1, 0], [1, 1, 1]]
    tree = build_tree(rows)
    assert tree.children[3] == (0, 1)
    assert tree.merge_distance[3] == pytest.approx(0.0)
    assert tree.merge_distance[4] == pytest.approx(1.0)


def test_crossover_masks_exclude_root_and_sort_by_size_then_recency():
    rows = [[0, 0, 0, 0], [1, 1, 1, 1], [0, 0, 0, 0]]
    tree = build_tree(rows)
    masks = tree.crossover_masks()
    assert masks == [(2, 3), (0, 1), (3,), (2,), (1,), (0,)]
    assert tuple(range(4)) not in masks
    assert len(masks) == 2 * 4 - 2


def test_single_gene_tree_has_no_masks():
    tree = build_tree([[0], [1]])
    assert tree.clusters == [(0,)]
    assert tree.crossover_masks() == []


def test_build_all_trees_uses_skill_groups_and_truncates():
    tasks = [sum_task(1, 6), sum_task(2, 3)]
    pop = initialize_population(tasks, 12, random.Random(4))
    masks = build_all_trees(pop)
    assert len(masks) == 2
    # entry j holds task j + 1's masks, from a tree fitted on its skill group
    for task, task_masks in zip(tasks, masks):
        rows = [
            list(ind.genotype[: task.dimension])
            for ind in pop.members
            if ind.skill_factor == task.task_id
        ]
        assert rows
        assert task_masks == build_tree(rows).crossover_masks()
        assert len(task_masks) == 2 * task.dimension - 2
        assert set().union(*task_masks) == set(range(task.dimension))


def test_build_all_trees_gives_no_masks_to_a_task_no_member_holds():
    tasks = [sum_task(1, 4), sum_task(2, 4)]
    pop = initialize_population(tasks, 8, random.Random(5))
    for ind in pop.members:
        ind.skill_factor = 1
    masks = build_all_trees(pop)
    # every member holds task 1, so its tree is the whole population's; task
    # 2 has no skill group, and no pair can select it, so it gets no masks
    whole = build_tree([list(ind.genotype) for ind in pop.members])
    tree_is_well_formed(whole, 4)
    assert masks[0] == whole.crossover_masks()
    assert len(masks[0]) == 2 * 4 - 2
    assert masks[1] == []


def test_build_all_trees_rejects_ragged_or_empty_populations():
    tasks = [sum_task(1, 4), sum_task(2, 4)]
    pop = initialize_population(tasks, 8, random.Random(6))
    pop.members[3].genotype.append(0)
    with pytest.raises(InvalidStateError, match="one length"):
        build_all_trees(pop)
    pop.members.clear()
    with pytest.raises(InvalidStateError, match="empty population"):
        build_all_trees(pop)


def test_build_tree_matches_scipy_average_linkage():
    # scipy's UPGMA names the i-th merge L + i as build_tree does; on inputs
    # without tied distances both must merge the same pairs at the same heights
    hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
    from scipy.spatial.distance import squareform

    rng = random.Random(41)
    for n_genes in (2, 6, 12):
        rows = [[rng.randrange(4) for _ in range(n_genes)] for _ in range(40)]
        condensed = squareform(proximity_matrix(rows), checks=False)
        assert len(set(condensed.tolist())) == len(condensed), "inputs must be tie-free"
        tree = build_tree(rows)
        merges = hierarchy.linkage(condensed, method="average")
        for i, (a, b, height, size) in enumerate(merges):
            node = n_genes + i
            assert tree.children[node] == (min(int(a), int(b)), max(int(a), int(b)))
            assert tree.merge_distance[node] == pytest.approx(height, rel=1e-12, abs=1e-12)
            assert len(tree.clusters[node]) == size

"""proximity_matrix against the reference copy in linkage_reference.py.

The matrices must be byte-equal, not merely close: one ulp of difference can
flip a UPGMA tie and with it the merge order.  Samples whose columns hold at
most two values take the all-pairs integer counts; the generated binary
samples cover a single row, a single gene, constant columns, two-value columns
that are not 0/1, numpy bool arrays and list-of-lists input.  Wider alphabets
take the all-pairs sorted cell counts with entropies summed in groups of pairs
that have equally many non-zero cells.
"""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

import linkage_reference
from mfltga import linkage


def assert_byte_equal(rows):
    assert linkage.proximity_matrix(rows).tobytes() == linkage_reference.proximity_matrix(rows).tobytes()


@st.composite
def binary_samples(draw):
    """Rows whose every column takes its entries from one pair of values."""
    n_rows = draw(st.integers(1, 40))
    n_genes = draw(st.integers(1, 12))
    picks = np.array(
        draw(st.lists(st.lists(st.booleans(), min_size=n_genes, max_size=n_genes),
                      min_size=n_rows, max_size=n_rows))
    )
    form = draw(st.sampled_from(["bool", "list", "values"]))
    if form == "bool":
        return picks
    if form == "list":
        return picks.astype(int).tolist()
    # per-column value pairs, equal pairs giving constant columns
    pairs = draw(st.lists(st.tuples(st.integers(-3, 9), st.integers(-3, 9)),
                          min_size=n_genes, max_size=n_genes))
    low, high = np.array(pairs).T
    return np.where(picks, high, low)


@settings(max_examples=300, deadline=None)
@given(binary_samples())
@example([[1]])
@example([[0, 1, 1], [0, 0, 1]])
@example(np.array([[3, -1], [7, 2], [7, 2], [3, 2]]))
@example(np.array([[True, False], [True, True]]))
def test_binary_samples_match_the_pair_loop(rows):
    assert_byte_equal(rows)


@pytest.mark.parametrize("n_rows", [64, 127, 128, 255, 256, 300])
def test_population_sized_binary_samples_match_the_pair_loop(n_rows):
    # the p * log2(p) table is as long as the sample; trees on a9-sized
    # populations are fitted on 100-300 rows
    rng = np.random.default_rng(n_rows)
    bias = rng.random(24)
    rows = (rng.random((n_rows, 24)) < bias).astype(int)
    rows[:, 3] = 1
    assert_byte_equal(rows.tolist())


def joint_cell_counts(rows):
    """Number of distinct (x, y) value pairs of every gene pair."""
    return [len(set(zip(rows[:, a], rows[:, b])))
            for a in range(rows.shape[1]) for b in range(a + 1, rows.shape[1])]


def converged_sample():
    # a few columns have converged to 1-3 values, so pairs hold 1 to 32
    # non-zero joint cells: sums under 8 terms and pairwise sums both occur
    rng = np.random.default_rng(7)
    rows = rng.integers(0, 30, (32, 30))
    rows[:, 0] = 4
    rows[:, 1] = 9
    rows[:, 2] = rng.integers(0, 2, 32)
    rows[:, 3] = rng.integers(0, 3, 32) * 5
    cells = joint_cell_counts(rows)
    assert min(cells) == 1 and max(cells) >= 8 and len(set(cells)) >= 8
    return rows


def constant_but_one_sample():
    # every pair of constant columns has H(x, y) == 0 and distance 0
    rows = np.full((24, 12), 3)
    rows[:, 5] = np.arange(24) % 5
    assert min(joint_cell_counts(rows)) == 1
    return rows


@pytest.mark.parametrize("make", [
    pytest.param(lambda: np.random.default_rng(16).integers(0, 30, (16, 30)), id="16x30-alphabet30"),
    pytest.param(lambda: np.random.default_rng(32).integers(0, 30, (32, 30)), id="32x30-alphabet30"),
    pytest.param(lambda: np.random.default_rng(100).integers(0, 100, (32, 100)), id="32x100-alphabet100"),
    pytest.param(converged_sample, id="converged-columns"),
    pytest.param(constant_but_one_sample, id="constant-but-one"),
])
def test_population_sized_wide_samples_match_the_pair_loop(make):
    # CluSPT trees are fitted on 16-32 rows of n-letter priorities
    rows = make()
    assert max(len(set(column)) for column in rows.T) > 2  # the wide path
    assert_byte_equal(rows)


@st.composite
def wide_samples(draw):
    """Rows over a 3..30-letter alphabet with one column holding three values."""
    alphabet = draw(st.integers(3, 30))
    n_rows = draw(st.integers(3, 40))
    n_genes = draw(st.integers(1, 10))
    rows = draw(st.lists(st.lists(st.integers(0, alphabet - 1), min_size=n_genes, max_size=n_genes),
                         min_size=n_rows, max_size=n_rows))
    wide = draw(st.integers(0, n_genes - 1))
    for r in range(3):
        rows[r][wide] = r
    return rows


@settings(max_examples=100, deadline=None)
@given(wide_samples())
def test_wide_alphabets_match_the_pair_loop(rows):
    assert_byte_equal(rows)


def test_the_path_follows_the_column_cardinalities(monkeypatch):
    wide_calls = []
    wide = linkage._wide_distances

    def counted(*args):
        wide_calls.append(1)
        return wide(*args)

    monkeypatch.setattr(linkage, "_wide_distances", counted)
    rng = np.random.default_rng(3)
    linkage.proximity_matrix(np.where(rng.random((64, 20)) < 0.5, 7, 3))
    assert wide_calls == []
    ternary = rng.integers(0, 2, (64, 20))
    ternary[0, 5] = 2
    linkage.proximity_matrix(ternary)
    assert wide_calls == [1]


def assert_same_tree(rows):
    tree = linkage.build_tree(rows)
    assert (tree.clusters, tree.children, tree.merge_distance) == linkage_reference.build_tree(rows)


@st.composite
def tie_heavy_samples(draw):
    """Few rows over a small alphabet, often with duplicated leading columns.

    With 1-11 rows many gene pairs share one distance, and duplicated columns
    add exact zero-distance ties, so the merge order rests on the tie rule.
    """
    alphabet = draw(st.sampled_from([2, 3, 5, 30]))
    n_rows = draw(st.integers(1, 11))
    n_genes = draw(st.integers(1, 40))
    rows = np.array(draw(st.lists(
        st.lists(st.integers(0, alphabet - 1), min_size=n_genes, max_size=n_genes),
        min_size=n_rows, max_size=n_rows)))
    if draw(st.booleans()):
        copies = draw(st.integers(1, n_genes))
        rows[:, :copies] = rows[:, :1]
    return rows


@settings(max_examples=300, deadline=None)
@given(tie_heavy_samples())
@example(np.array([[0]]))
@example(np.zeros((3, 6), dtype=int))
def test_tie_heavy_samples_merge_like_the_submatrix_loop(rows):
    assert_same_tree(rows)


@pytest.mark.parametrize("shape, alphabet", [
    ((128, 75), 2), ((256, 75), 2), ((16, 30), 30), ((32, 30), 30), ((32, 100), 100),
], ids=["128x75-binary", "256x75-binary", "16x30-wide", "32x30-wide", "32x100-wide"])
def test_population_sized_samples_merge_like_the_submatrix_loop(shape, alphabet):
    rows = np.random.default_rng(shape[0] * shape[1]).integers(0, alphabet, shape)
    assert_same_tree(rows)

"""proximity_matrix against the reference copy in linkage_reference.py.

The matrices must be byte-equal, not merely close: one ulp of difference can
flip a UPGMA tie and with it the merge order.  Samples whose columns hold at
most two values take the all-pairs integer counts; the generated binary
samples cover a single row, a single gene, constant columns, two-value columns
that are not 0/1, numpy bool arrays and list-of-lists input.  Wider alphabets
take the pair loop.
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
    loop_calls = []
    loop = linkage._loop_distances

    def counted(data):
        loop_calls.append(1)
        return loop(data)

    monkeypatch.setattr(linkage, "_loop_distances", counted)
    rng = np.random.default_rng(3)
    linkage.proximity_matrix(np.where(rng.random((64, 20)) < 0.5, 7, 3))
    assert loop_calls == []
    ternary = rng.integers(0, 2, (64, 20))
    ternary[0, 5] = 2
    linkage.proximity_matrix(ternary)
    assert loop_calls == [1]

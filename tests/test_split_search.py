"""The all-features split search against the per-feature reference loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plrank import tree as tree_module
from plrank.model_io import dumps_ensemble
from plrank.tree import (
    Ensemble, Split, SortedColumns, _best_split, apply_tree, bin_columns, fit_tree,
    sort_columns,
)

from split_reference import reference_best_split

BINS = st.sampled_from([0, 2, 7, 64])
FLOATS = st.floats(-1e3, 1e3)


def column(draw, n):
    """Drawn floats, seeded normals (sums that round), ties, or one value."""
    kind = draw(st.sampled_from(["drawn", "normal", "quantized", "constant"]))
    if kind == "constant":
        return np.full(n, draw(st.floats(-5, 5)))
    if kind == "quantized":
        levels = draw(st.integers(1, 4))
        return np.array(draw(st.lists(st.integers(0, levels), min_size=n, max_size=n)),
                        dtype=np.float64) * 0.5
    if kind == "normal":
        return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=n)
    return np.array(draw(st.lists(FLOATS, min_size=n, max_size=n)))


@st.composite
def problems(draw):
    n = draw(st.integers(2, 80))
    m = draw(st.integers(1, 5))
    X = np.column_stack([column(draw, n) for _ in range(m)])
    if draw(st.booleans()):
        y = np.full(n, draw(st.floats(-10, 10)))
    else:
        y = column(draw, n)
    return X, y, draw(st.integers(1, 4)), draw(BINS)


def bits(split):
    if split is None:
        return None
    gain, feat, threshold = split
    return gain.hex(), feat, threshold.hex()


def node_columns(X, idx):
    """The node's share of the once-sorted columns and their value ranks, as
    fit_tree partitions them."""
    full = sort_columns(X)
    kept = np.isin(full.order, idx)

    def share(table):
        return table[kept].reshape(table.shape[0], -1)

    return SortedColumns(full.values, share(full.order), share(full.ranks))


@settings(max_examples=300, deadline=None)
@given(problems(), st.data())
def test_matches_reference_bit_for_bit(problem, data):
    X, y, min_leaf, bins = problem
    n = X.shape[0]
    keep = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    idx = np.flatnonzero(keep)
    if idx.size == 0:
        idx = np.arange(n)
    columns = bin_columns(X, bins) if bins else node_columns(X, idx)
    found = _best_split(y, idx, columns, min_leaf)
    assert bits(found) == bits(reference_best_split(X, y, idx, min_leaf, bins))


@settings(max_examples=100, deadline=None)
@given(problems(), st.integers(2, 8))
def test_every_tree_split_is_the_reference_split(problem, leaves):
    """Partitioning the sorted columns down the tree keeps every node exact."""
    X, y, min_leaf, bins = problem
    tree = fit_tree(X, y, leaves, min_leaf, bins)
    stack = [(tree.root, np.arange(X.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if not isinstance(node, Split):
            continue
        expected = reference_best_split(X, y, rows, min_leaf, bins)
        assert expected is not None
        assert (node.feature, node.threshold.hex()) == (expected[1], expected[2].hex())
        mask = X[rows, node.feature] <= node.threshold
        stack += [(node.left, rows[mask]), (node.right, rows[~mask])]


@settings(max_examples=100, deadline=None)
@given(problems(), st.integers(2, 8))
def test_presorted_columns_give_the_same_bytes(problem, leaves):
    X, y, min_leaf, bins = problem
    alone = fit_tree(X, y, leaves, min_leaf, bins)
    columns = bin_columns(X, bins) if bins else sort_columns(X)
    presorted = fit_tree(X, y, leaves, min_leaf, bins, columns=columns)
    dump = lambda tree: dumps_ensemble(Ensemble(trees=[tree], num_features=X.shape[1]))
    assert dump(presorted) == dump(alone)


@pytest.mark.parametrize("seed", range(5))
def test_tied_columns_keep_row_order(seed):
    """Ties are summed in row order, so the gains' rounding matches too."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, size=(200, 3)).astype(np.float64)
    y = rng.normal(size=200)
    idx = np.flatnonzero(rng.random(200) < 0.7)
    for min_leaf in (1, 5):
        found = _best_split(y, idx, node_columns(X, idx), min_leaf)
        assert bits(found) == bits(reference_best_split(X, y, idx, min_leaf, 0))


def tie_heavy_column(draw, n):
    """One to three levels, a mostly-zero column, or one value."""
    kind = draw(st.sampled_from(["levels", "sparse", "constant"]))
    if kind == "constant":
        return np.full(n, draw(st.sampled_from([0.0, -0.0, 2.5])))
    if kind == "sparse":
        column = np.zeros(n)
        hits = draw(st.lists(st.integers(0, n - 1), max_size=3))
        column[hits] = draw(st.sampled_from([-1.0, 0.5, 3.0]))
        return column
    levels = draw(st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 4.0]), min_size=1,
                           max_size=3))
    return np.array(draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n)))


@st.composite
def tie_heavy_problems(draw, noise=True):
    """Without ``noise`` every sum of the responses is exact."""
    n = draw(st.integers(2, 60))
    X = np.column_stack([tie_heavy_column(draw, n) for _ in range(draw(st.integers(1, 5)))])
    y = np.array(draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), min_size=n,
                               max_size=n)))
    if noise and draw(st.booleans()):
        y += np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=n)
    return X, y, draw(st.integers(1, 5)), draw(st.integers(2, 8))


def assert_tree_is_the_reference(X, y, min_leaf, leaves, bins=0):
    """Every split is the oracle's, every leaf position is apply_tree's, and a
    tree that stops short of its budget has no leaf the oracle would split."""
    positions = np.full(X.shape[0], -1, dtype=np.intp)
    columns = bin_columns(X, bins) if bins else sort_columns(X)
    tree = fit_tree(X, y, leaves, min_leaf, bins, columns=columns, leaf_of_row=positions)
    np.testing.assert_array_equal(positions, apply_tree(tree, X))
    stack = [(tree.root, np.arange(X.shape[0]))]
    while stack:
        node, rows = stack.pop()
        expected = reference_best_split(X, y, rows, min_leaf, bins)
        if not isinstance(node, Split):
            assert tree.leaf_count == leaves or expected is None
            continue
        assert expected is not None
        assert (node.feature, node.threshold.hex()) == (expected[1], expected[2].hex())
        share = columns if bins else node_columns(X, rows)
        assert bits(_best_split(y, rows, share, min_leaf)) == bits(expected)
        mask = X[rows, node.feature] <= node.threshold
        stack += [(node.left, rows[mask]), (node.right, rows[~mask])]


@settings(max_examples=200, deadline=None)
@given(tie_heavy_problems(), BINS)
def test_tie_heavy_trees_match_the_reference(problem, bins):
    assert_tree_is_the_reference(*problem, bins)


@settings(max_examples=200, deadline=None)
@given(tie_heavy_problems(noise=False), st.data())
def test_a_bin_per_value_cuts_as_exact_search(problem, data):
    """With at least as many bins as any column has values, and exact sums,
    the histogram splits the same feature at every node and puts every row
    in the same leaf as exact search. Only the thresholds differ: the largest
    left value against the midpoint."""
    X, y, min_leaf, leaves = problem
    distinct = max(np.unique(column).size for column in X.T)
    bins = data.draw(st.integers(max(2, distinct), 2**40))
    exact_rows, binned_rows = (np.empty(X.shape[0], dtype=np.intp) for _ in range(2))
    exact = fit_tree(X, y, leaves, min_leaf, leaf_of_row=exact_rows)
    binned = fit_tree(X, y, leaves, min_leaf, bins, leaf_of_row=binned_rows)
    np.testing.assert_array_equal(binned.feature, exact.feature)
    np.testing.assert_array_equal(binned_rows, exact_rows)


def test_column_with_many_values_keeps_its_ranks():
    """A column with more than 65,536 distinct values ranks past the uint16
    range, beside few-valued columns, and still splits as the oracle does."""
    rng = np.random.default_rng(4)
    n = (1 << 16) + 500
    X = np.column_stack([rng.integers(0, 3, n), rng.permutation(n) * 0.25,
                         rng.integers(0, 2, n)]).astype(np.float64)
    y = np.where(X[:, 1] > n * 0.1, 1.0, 0.0) + X[:, 0] + rng.normal(scale=0.1, size=n)
    columns = sort_columns(X)
    assert columns.ranks.max(axis=1).tolist() == [2, n - 1, 1]
    assert_tree_is_the_reference(X, y, 3, 4)
    assert_tree_is_the_reference(X, y, 3, 4, bins=64)


@pytest.mark.parametrize("n, index", [(1 << 16, np.uint16), ((1 << 16) + 1, np.int32)])
def test_index_tables_are_16_bit_up_to_65536_rows(n, index):
    """At 65,536 rows the last row id and the top rank are 65,535, the most
    uint16 holds; one row more takes int32. Either way the fit is the oracle's."""
    rng = np.random.default_rng(n)
    X = np.column_stack([rng.permutation(n) * 0.5, rng.integers(0, 4, n),
                         rng.normal(size=n)]).astype(np.float64)
    y = np.where(X[:, 0] > n * 0.3, 1.0, 0.0) + X[:, 1] + rng.normal(scale=0.1, size=n)
    columns = sort_columns(X)
    assert columns.order.dtype == columns.ranks.dtype == index
    assert columns.ranks.max(axis=1).tolist() == [n - 1, 3, n - 1]
    np.testing.assert_array_equal(np.sort(columns.order, axis=1),
                                  np.broadcast_to(np.arange(n), (3, n)))
    assert_tree_is_the_reference(X, y, 2, 6)


@settings(max_examples=100, deadline=None)
@given(problems())
def test_binned_columns_count_every_row_once(problem):
    X, _, _, bins = problem
    columns = bin_columns(X, max(bins, 2))
    expected = np.bincount(columns.keys.ravel(), minlength=columns.thresholds.size)
    assert columns.counts.dtype == expected.dtype
    np.testing.assert_array_equal(columns.counts, expected)
    assert not columns.counts.flags.writeable
    with pytest.raises(ValueError):
        columns.counts[0] = 1


def peel_problem(seed):
    """Eight rows with extreme responses of sizes 20 * 3**k, which
    best-first splitting peels off the large node one at a time, largest
    first: column 0 sets the positive ones above every other row, larger
    higher (a small right child), and column 1 the negative ones below,
    larger lower (a small left child); the two signs alternate. Column 2
    has six tied levels and column 3 one value per row."""
    rng = np.random.default_rng(seed)
    n = 240
    y = rng.normal(scale=0.01, size=n)
    peel = rng.choice(n, 8, replace=False)
    up, down = peel[1::2], peel[0::2]
    y[peel] = 20.0 * 3.0 ** np.arange(8) * np.where(np.isin(peel, up), 1.0, -1.0)
    X = np.zeros((n, 4))
    X[up, 0] = np.arange(1.0, 5.0)
    X[down, 1] = -np.arange(1.0, 5.0)
    X[:, 2] = rng.integers(0, 6, n)
    X[:, 3] = rng.permutation(n)
    return X, y


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("min_leaf", [1, 3])
@pytest.mark.parametrize("bins", [2, 3, 64])
def test_peeled_nodes_count_and_split_as_the_oracle(monkeypatch, seed, min_leaf, bins):
    """Every node of a histogram fit gets the counts of its own rows, whether
    counted or taken as its parent's minus its sibling's, and splits as the
    per-feature oracle does, bit for bit; both children take each role."""
    X, y = peel_problem(seed)
    columns = bin_columns(X, bins)
    calls = []

    def checked(y_, idx, columns_, min_leaf_docs, counts=None, keys=None):
        own_keys = columns.keys[:, idx].ravel()
        if keys is not None:
            np.testing.assert_array_equal(keys, own_keys)
        np.testing.assert_array_equal(
            counts, np.bincount(own_keys, minlength=columns.thresholds.size))
        found = _best_split(y_, idx, columns_, min_leaf_docs, counts, keys)
        assert bits(found) == bits(reference_best_split(X, y, idx, min_leaf_docs, bins))
        calls.append((keys is not None, idx.size))
        return found

    monkeypatch.setattr(tree_module, "_best_split", checked)
    fit_tree(X, y, 16, min_leaf, bins, columns=columns)
    # The root, then each split's left and right child: the counted one, given
    # its gathered keys, is the smaller (the left one on a tie).
    assert calls[0] == (True, X.shape[0])
    pairs = list(zip(calls[1::2], calls[2::2]))
    assert [left[0] for left, _ in pairs] == [left[1] <= right[1] for left, right in pairs]
    assert [left[0] != right[0] for left, right in pairs] == [True] * len(pairs)
    assert len({left[0] for left, _ in pairs}) == 2

"""The all-features split search against the per-feature reference loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plrank.model_io import dumps_ensemble
from plrank.tree import Ensemble, Split, _best_split, fit_tree, sort_columns

from split_reference import reference_best_split

BINS = st.sampled_from([0, 2, 7, 64])
# The reference's histogram crashes on a node range narrower than about
# 1e-306 (its bin scale overflows); test_tree covers that case on its own.
FLOATS = st.floats(-1e3, 1e3).filter(lambda v: v == 0.0 or abs(v) > 1e-290)


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
    """The node's share of the once-sorted columns, as fit_tree partitions them."""
    full = sort_columns(X)
    return full[np.isin(full, idx)].reshape(X.shape[1], -1)


@settings(max_examples=300, deadline=None)
@given(problems(), st.data())
def test_matches_reference_bit_for_bit(problem, data):
    X, y, min_leaf, bins = problem
    n = X.shape[0]
    keep = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    idx = np.flatnonzero(keep)
    if idx.size == 0:
        idx = np.arange(n)
    columns = None if bins else node_columns(X, idx)
    found = _best_split(np.ascontiguousarray(X.T), y, idx, columns, min_leaf, bins)
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
    presorted = fit_tree(X, y, leaves, min_leaf, bins, column_order=sort_columns(X))
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
        found = _best_split(np.ascontiguousarray(X.T), y, idx, node_columns(X, idx),
                            min_leaf, 0)
        assert bits(found) == bits(reference_best_split(X, y, idx, min_leaf, 0))

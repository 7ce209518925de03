import numpy as np
import pytest

from plrank import (
    Ensemble,
    ValidationError,
    apply_tree,
    fit_tree,
    predict_ensemble,
    predict_tree,
)
from plrank.tree import Leaf, RegressionTree, Split, predict_tree_matrix, tree_sse


def brute_force_best_split(X, y, min_leaf=1):
    """Exhaustive (gain, feature, threshold) search, independent arithmetic."""
    n = len(y)
    sse = lambda v: float(np.sum((v - v.mean()) ** 2)) if len(v) else 0.0
    parent = sse(y)
    best = None
    for feat in range(X.shape[1]):
        values = np.unique(X[:, feat])
        for lo, hi in zip(values, values[1:]):
            thr = 0.5 * (lo + hi)
            mask = X[:, feat] <= thr
            if mask.sum() < min_leaf or (~mask).sum() < min_leaf:
                continue
            gain = parent - sse(y[mask]) - sse(y[~mask])
            if gain <= 0:
                continue
            if best is None or gain > best[0] + 1e-12:
                best = (gain, feat, thr)
    return best


def test_two_point_split():
    tree = fit_tree(np.array([[0.0], [1.0]]), np.array([-1.0, 1.0]), 2)
    assert tree.leaf_count == 2
    assert isinstance(tree.root, Split)
    assert tree.root.threshold == pytest.approx(0.5)
    assert predict_tree(tree, [0.2]) == pytest.approx(-1.0)
    assert predict_tree(tree, [0.9]) == pytest.approx(1.0)


def test_constant_responses_single_leaf():
    X = np.arange(8.0).reshape(-1, 1)
    tree = fit_tree(X, np.full(8, 3.25), 4)
    assert tree.leaf_count == 1
    assert predict_tree(tree, [5.0]) == pytest.approx(3.25)


def test_step_responses_split_midpoint():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    tree = fit_tree(X, y, 2)
    assert tree.root.threshold == pytest.approx(2.5)
    # parent SSE 100 drops to 0: reduction is the full 100
    assert tree_sse(tree, X, y) == pytest.approx(0.0)
    single = RegressionTree(root=Leaf(float(y.mean()), 4), leaf_count=1)
    assert tree_sse(single, X, y) == pytest.approx(100.0)


def test_matches_brute_force_on_small_inputs():
    # Distinct features can induce the same partition and therefore the same
    # gain; the contract is that the chosen split attains the exhaustive
    # maximum reduction, with exact-tie winners interchangeable.
    rng = np.random.default_rng(13)
    sse = lambda v: float(np.sum((v - v.mean()) ** 2)) if len(v) else 0.0
    for trial in range(60):
        n = int(rng.integers(2, 13))
        m = int(rng.integers(1, 4))
        X = rng.normal(size=(n, m))
        y = rng.normal(size=n)
        expected = brute_force_best_split(X, y)
        tree = fit_tree(X, y, 2)
        if expected is None:
            assert tree.leaf_count == 1
            continue
        assert isinstance(tree.root, Split)
        mask = X[:, tree.root.feature] <= tree.root.threshold
        achieved = sse(y) - sse(y[mask]) - sse(y[~mask])
        assert achieved >= expected[0] - 1e-9 * max(1.0, expected[0])


def test_split_tie_breaks_to_lowest_feature():
    # identical columns: gains tie exactly, the lower feature index wins
    col = np.array([0.0, 1.0, 0.0, 1.0])
    X = np.column_stack([col, col])
    y = np.array([0.0, 5.0, 0.0, 5.0])
    tree = fit_tree(X, y, 2)
    assert tree.root.feature == 0


def test_sse_nonincreasing_in_leaf_budget():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(60, 4))
    y = rng.normal(size=60)
    previous = None
    for leaves in range(2, 12):
        tree = fit_tree(X, y, leaves)
        current = tree_sse(tree, X, y)
        if previous is not None:
            assert current <= previous + 1e-9
        previous = current


def test_every_split_reduces_sse():
    rng = np.random.default_rng(15)
    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    tree = fit_tree(X, y, 8)

    def check(node, rows):
        if isinstance(node, Leaf):
            return
        sse = lambda v: float(np.sum((v - v.mean()) ** 2)) if len(v) else 0.0
        mask = X[rows, node.feature] <= node.threshold
        left, right = rows[mask], rows[~mask]
        assert sse(y[rows]) > sse(y[left]) + sse(y[right])
        check(node.left, left)
        check(node.right, right)

    check(tree.root, np.arange(40))


def test_leaf_doc_counts_partition():
    rng = np.random.default_rng(16)
    X = rng.normal(size=(50, 3))
    y = rng.normal(size=50)
    tree = fit_tree(X, y, 6)
    leaves = tree.leaves()
    assert sum(leaf.doc_count for leaf in leaves) == 50
    assign = apply_tree(tree, X)
    counts = np.bincount(assign, minlength=len(leaves))
    assert counts.tolist() == [leaf.doc_count for leaf in leaves]


def test_min_leaf_docs_respected():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    tree = fit_tree(X, y, 10, min_leaf_docs=5)
    assert all(leaf.doc_count >= 5 for leaf in tree.leaves())


def test_deterministic_refit():
    rng = np.random.default_rng(18)
    X = rng.normal(size=(80, 5))
    y = rng.normal(size=80)
    assert fit_tree(X, y, 9) == fit_tree(X, y, 9)


def test_fit_validates_inputs():
    X = np.zeros((3, 1))
    with pytest.raises(ValidationError):
        fit_tree(X, np.zeros(3), 1)
    with pytest.raises(ValidationError):
        fit_tree(X, np.zeros(3), 2, min_leaf_docs=0)
    with pytest.raises(ValidationError):
        fit_tree(np.zeros((1, 1)), np.zeros(1), 2)
    with pytest.raises(ValidationError):
        fit_tree(X, np.zeros(4), 2)
    with pytest.raises(ValidationError):
        fit_tree(X, np.zeros(3), 2, column_order=np.zeros((1, 2), dtype=np.int32))


def test_predict_single_leaf_any_row():
    tree = RegressionTree(root=Leaf(2.5, 1), leaf_count=1)
    assert predict_tree(tree, [123.0, -4.0]) == 2.5


def test_boundary_value_routes_left():
    tree = fit_tree(np.array([[0.0], [1.0]]), np.array([-1.0, 1.0]), 2)
    assert predict_tree(tree, [0.5]) == pytest.approx(-1.0)


def test_nan_in_routed_feature_rejected():
    tree = fit_tree(np.array([[0.0], [1.0]]), np.array([-1.0, 1.0]), 2)
    with pytest.raises(ValidationError):
        predict_tree(tree, [float("nan")])


def test_predict_matrix_matches_scalar():
    rng = np.random.default_rng(19)
    X = rng.normal(size=(40, 3))
    tree = fit_tree(X, rng.normal(size=40), 7)
    vec = predict_tree_matrix(tree, X)
    for row, value in zip(X, vec):
        assert predict_tree(tree, row) == value


def test_binned_mode_finds_clean_separation():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    tree = fit_tree(X, y, 2, bins=256)
    assert isinstance(tree.root, Split)
    # threshold is the largest left-side value, so routing matches the bins
    assert tree.root.threshold == pytest.approx(2.0)
    assert tree_sse(tree, X, y) == pytest.approx(0.0)


def test_binned_mode_partitions_match_exact_on_coarse_data():
    rng = np.random.default_rng(20)
    X = rng.integers(0, 8, size=(60, 3)).astype(float)
    y = rng.normal(size=60)
    exact = fit_tree(X, y, 6)
    binned = fit_tree(X, y, 6, bins=256)
    # few distinct values per feature: both searches see every boundary
    assert tree_sse(binned, X, y) == pytest.approx(tree_sse(exact, X, y))


def test_binned_mode_respects_min_leaf_and_reduces_sse():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(80, 3))
    y = rng.normal(size=80)
    tree = fit_tree(X, y, 8, min_leaf_docs=6, bins=16)
    assert all(leaf.doc_count >= 6 for leaf in tree.leaves())
    single = RegressionTree(root=Leaf(float(y.mean()), 80), leaf_count=1)
    assert tree_sse(tree, X, y) < tree_sse(single, X, y)


def test_bins_validation():
    X = np.array([[0.0], [1.0]])
    with pytest.raises(ValidationError):
        fit_tree(X, np.array([0.0, 1.0]), 2, bins=1)
    with pytest.raises(ValidationError):
        fit_tree(X, np.array([0.0, 1.0]), 2, bins=-3)


def test_large_constant_responses_stay_single_leaf():
    X = np.arange(1000.0).reshape(-1, 1)
    tree = fit_tree(X, np.full(1000, 1.0e6 + 0.1), 8)
    assert tree.leaf_count == 1


def test_ensemble_arithmetic():
    assert predict_ensemble(Ensemble(trees=[], init_score=0.0), [1.0]) == 0.0
    one = Ensemble(trees=[RegressionTree(Leaf(3.0, 1), 1)], learning_rate=0.1)
    assert predict_ensemble(one, [0.0]) == pytest.approx(0.3)
    two = Ensemble(
        trees=[RegressionTree(Leaf(1.0, 1), 1), RegressionTree(Leaf(-1.0, 1), 1)],
        learning_rate=0.5,
        init_score=2.0,
    )
    assert predict_ensemble(two, [0.0]) == pytest.approx(2.0)


def test_binned_mode_splits_a_range_too_narrow_to_scale():
    # 64 / 3e-310 overflows a float64, which once crashed the bin coding.
    X = np.array([[0.0], [1e-310], [2e-310], [3e-310]])
    tree = fit_tree(X, np.array([0.0, 0.0, 1.0, 1.0]), 2, bins=64)
    assert tree.root.threshold == 1e-310
    assert tree_sse(tree, X, np.array([0.0, 0.0, 1.0, 1.0])) == 0.0

import math
import tracemalloc

import numpy as np
import pytest

from plrank import (
    Ensemble,
    ValidationError,
    apply_tree,
    fit_tree,
    predict_ensemble_matrix,
)
from plrank.tree import Split, _best_split, bin_columns, sort_columns

from tree_reference import (
    build_tree,
    predict_ensemble_row,
    predict_tree_matrix,
    predict_tree_row,
    tree_sse,
)


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
    assert predict_tree_row(tree, [0.2]) == pytest.approx(-1.0)
    assert predict_tree_row(tree, [0.9]) == pytest.approx(1.0)


def test_constant_responses_single_leaf():
    X = np.arange(8.0).reshape(-1, 1)
    tree = fit_tree(X, np.full(8, 3.25), 4)
    assert tree.leaf_count == 1
    assert predict_tree_row(tree, [5.0]) == pytest.approx(3.25)


def test_step_responses_split_midpoint():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    tree = fit_tree(X, y, 2)
    assert tree.root.threshold == pytest.approx(2.5)
    # parent SSE 100 drops to 0: reduction is the full 100
    assert tree_sse(tree, X, y) == pytest.approx(0.0)
    single = build_tree((float(y.mean()), 4))
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
        if not isinstance(node, Split):
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
    leaf_counts = tree.count[tree.feature < 0]
    assert leaf_counts.sum() == 50
    assign = apply_tree(tree, X)
    counts = np.bincount(assign, minlength=tree.leaf_count)
    assert counts.tolist() == leaf_counts.tolist()


def test_min_leaf_docs_respected():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    tree = fit_tree(X, y, 10, min_leaf_docs=5)
    assert (tree.count[tree.feature < 0] >= 5).all()


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
        fit_tree(X, np.zeros(3), 2, columns=sort_columns(np.zeros((2, 1))))
    for columns in (sort_columns(X), bin_columns(X, 8), bin_columns(np.zeros((2, 1)), 4)):
        with pytest.raises(ValidationError):
            fit_tree(X, np.zeros(3), 2, bins=4, columns=columns)
    with pytest.raises(ValidationError):
        fit_tree(X, np.zeros(3), 2, columns=bin_columns(X, 4))
    with pytest.raises(ValidationError):
        fit_tree(X, np.zeros(3), 2, leaf_of_row=np.zeros(2, dtype=np.intp))


def test_fits_leave_the_callers_columns_alone():
    """Every fit partitions its own copy of the index, so one sort_columns or
    bin_columns result serves any number of trees."""
    rng = np.random.default_rng(21)
    X = np.round(rng.normal(size=(300, 6)), 1)
    columns = {0: sort_columns(X), 16: bin_columns(X, 16)}
    tables = (columns[0].order, columns[0].ranks, columns[16].keys)
    before = [table.tobytes() for table in tables]
    for seed in range(4):
        y = np.random.default_rng(seed).normal(size=300)
        for bins, shared in columns.items():
            assert fit_tree(X, y, 8, 2, bins, columns=shared) == fit_tree(X, y, 8, 2, bins)
    assert [table.tobytes() for table in tables] == before
    assert np.shares_memory(sort_columns(X).values, X)


def test_predict_single_leaf_any_row():
    tree = build_tree(2.5)
    assert predict_tree_row(tree, [123.0, -4.0]) == 2.5


def test_boundary_value_routes_left():
    tree = fit_tree(np.array([[0.0], [1.0]]), np.array([-1.0, 1.0]), 2)
    assert predict_tree_row(tree, [0.5]) == pytest.approx(-1.0)


def test_nan_in_routed_feature_rejected():
    tree = fit_tree(np.array([[0.0], [1.0]]), np.array([-1.0, 1.0]), 2)
    with pytest.raises(ValidationError):
        predict_tree_row(tree, [float("nan")])


@pytest.mark.parametrize("column", [0, 1])
@pytest.mark.parametrize("path", ["predict_tree", "predict_ensemble", "apply_tree",
                                  "predict_ensemble_matrix", "empty_ensemble"])
def test_nan_anywhere_rejected_on_every_path(path, column):
    # Column 1 is never routed on; the matrix paths once sent NaN right.
    tree = fit_tree(np.array([[0.0, 5.0], [1.0, 5.0]]), np.array([-1.0, 1.0]), 2)
    X = np.array([[0.2, 0.3], [0.9, 0.3]])
    X[1, column] = np.nan
    call = {
        "predict_tree": lambda: predict_tree_row(tree, X[1]),
        "predict_ensemble": lambda: predict_ensemble_row(Ensemble(trees=[tree]), X[1]),
        "apply_tree": lambda: apply_tree(tree, X),
        "predict_ensemble_matrix": lambda: predict_ensemble_matrix(Ensemble(trees=[tree]), X),
        "empty_ensemble": lambda: predict_ensemble_matrix(Ensemble(), X),
    }[path]
    with pytest.raises(ValidationError, match="NaN in feature row"):
        call()


def test_rows_narrower_than_routed_feature_rejected():
    # Flat indexing would read the next row's value instead of failing.
    tree = fit_tree(np.array([[0.0, 0.0], [0.0, 1.0]]), np.array([-1.0, 1.0]), 2)
    with pytest.raises(ValidationError, match="routes on feature 2, rows have 1"):
        predict_ensemble_matrix(Ensemble(trees=[tree]), np.zeros((3, 1)))


@pytest.mark.parametrize("low, high", [
    (1.0e308, 1.7e308),  # the midpoint overflows to inf
    (-924.4724690594363, np.nextafter(-924.4724690594363, np.inf)),  # rounds up to high
])
def test_split_between_extreme_neighbours_cuts_at_lower_value(low, high):
    # Either midpoint once sent all four documents left, leaving an empty leaf.
    X = np.array([[low], [low], [high], [high]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    tree = fit_tree(X, y, 2)
    assert tree.root.threshold == low
    assert tree.count[tree.feature < 0].tolist() == [2, 2]
    assert tree_sse(tree, X, y) == 0.0


@pytest.mark.parametrize("bins, cuts", [(0, [2.5, 2.5, 3.5]), (8, [2.0, 2.0, 3.0])])
def test_overflowing_gains_take_the_first_infinite_cut(bins, cuts):
    """Responses near 1e200 overflow the gains. A NaN gain (an overflowed
    inf - inf) counts as +inf, ties go to the lowest feature, then the lowest
    threshold, and equal gains in the frontier to the node created first.
    Each value is a bin of its own, so both modes cut at the same places:
    exact search at midpoints, histogram search at the largest value left."""
    X = np.column_stack([np.arange(6.0), [3.0, 2.0, 5.0, 4.0, 0.0, 1.0]])
    y = np.array([1e154, 1.0, 1e154, 1e200, -1e200, 1e154])

    def columns(n):  # what a node of the first n rows reads
        return bin_columns(X, bins) if bins else sort_columns(X[:n])

    with np.errstate(over="ignore", invalid="ignore"):
        # The root totals 1e154: its gains are finite until a left sum of
        # 2e154 squares to +inf, at feature 0's third cut.
        assert _best_split(y, np.arange(6), columns(6), 1) == (math.inf, 0, cuts[0])
        # Rows 0-2 total 2e154, whose square overflows: each gain is -inf or
        # NaN, and the first NaN is feature 1's first cut.
        assert _best_split(y, np.arange(3), columns(3), 1) == (math.inf, 1, cuts[1])
        three, four = fit_tree(X, y, 3, bins=bins), fit_tree(X, y, 4, bins=bins)
    # Both children of the root gain +inf; rows 0-2, created first, split first.
    assert three.feature.tolist() == [0, 1, -1, -1, -1]
    assert four.feature.tolist() == [0, 1, -1, -1, 0, -1, -1]
    assert four.threshold[four.feature >= 0].tolist() == cuts


def test_predict_matrix_matches_scalar():
    rng = np.random.default_rng(19)
    X = rng.normal(size=(40, 3))
    tree = fit_tree(X, rng.normal(size=40), 7)
    vec = predict_tree_matrix(tree, X)
    for row, value in zip(X, vec):
        assert predict_tree_row(tree, row) == value


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
    assert (tree.count[tree.feature < 0] >= 6).all()
    single = build_tree((float(y.mean()), 80))
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
    assert predict_ensemble_row(Ensemble(trees=[], init_score=0.0), [1.0]) == 0.0
    one = Ensemble(trees=[build_tree(3.0)], learning_rate=0.1)
    assert predict_ensemble_row(one, [0.0]) == pytest.approx(0.3)
    two = Ensemble(
        trees=[build_tree(1.0), build_tree(-1.0)],
        learning_rate=0.5,
        init_score=2.0,
    )
    assert predict_ensemble_row(two, [0.0]) == pytest.approx(2.0)


def test_binned_mode_splits_a_range_too_narrow_to_scale():
    # 64 / 3e-310 overflows a float64, which once crashed the bin coding.
    X = np.array([[0.0], [1e-310], [2e-310], [3e-310]])
    tree = fit_tree(X, np.array([0.0, 0.0, 1.0, 1.0]), 2, bins=64)
    assert tree.root.threshold == 1e-310
    assert tree_sse(tree, X, np.array([0.0, 0.0, 1.0, 1.0])) == 0.0


def test_binned_mode_splits_a_range_wider_than_dbl_max():
    # max - min overflows a double, which once crashed the bin coding.
    X = np.array([[-1e308], [-1e307], [1e307], [1e308]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    tree = fit_tree(X, y, 2, bins=16)
    assert tree.root.threshold == -1e307
    assert tree_sse(tree, X, y) == 0.0


def test_histogram_memory_follows_the_data_not_the_bin_count():
    """A column gets at most as many bins as it has values, so a huge bin
    count costs what one bin per value costs."""
    X = np.arange(40.0).reshape(10, 4)
    y = np.arange(10.0)
    per_value = fit_tree(X, y, 4, bins=10)
    tracemalloc.start()
    try:
        huge = fit_tree(X, y, 4, bins=2**40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert huge == per_value
    assert peak < 2**20

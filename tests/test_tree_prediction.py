"""Level-wise ensemble routing against the per-tree stack walk, bit for bit,
and the tree contract: the shapes and numbers a node table may hold."""

import copy
import dataclasses
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plrank.tree
from plrank.model_io import dumps_ensemble, parse_ensemble
from plrank.errors import PLRankError, ValidationError
from plrank.tree import Ensemble, RegressionTree, apply_tree, fit_tree, predict_ensemble_matrix

from tree_reference import (
    build_tree,
    predict_ensemble_row,
    predict_tree_row,
    reference_apply,
    reference_predict_ensemble_matrix,
    reference_predict_tree,
    reference_right,
)

FEATURES = 3
# Rows are drawn from the thresholds' own values, so many land exactly on a
# threshold (and on either zero); infinities route like any other value.
EDGES = [-1.0, -0.0, 0.0, 0.5, 1.0, 2.0]
THRESHOLDS = st.one_of(st.sampled_from(EDGES), st.floats(-3, 3))
VALUES = st.one_of(st.sampled_from(EDGES + [np.inf, -np.inf]), st.floats(-3, 3))
OUTPUTS = st.one_of(st.sampled_from([-0.0, 0.0, 1e-300, 1e300]), st.floats(-50, 50))
LEAF = st.tuples(OUTPUTS, st.integers(0, 9))


def split_of(children):
    return st.tuples(st.integers(0, FEATURES - 1), THRESHOLDS, children, children)


@st.composite
def chain(draw):
    """A deep chain: every split has one leaf child, on a drawn side."""
    spec = draw(LEAF)
    for _ in range(draw(st.integers(1, 40))):
        feat, thr, leaf = draw(st.integers(0, FEATURES - 1)), draw(THRESHOLDS), draw(LEAF)
        spec = (feat, thr, spec, leaf) if draw(st.booleans()) else (feat, thr, leaf, spec)
    return spec


TREE_SPECS = st.one_of(
    LEAF,  # a single leaf
    split_of(LEAF),  # a stump
    chain(),
    st.recursive(LEAF, split_of, max_leaves=16),
)
TREES = TREE_SPECS.map(build_tree)


@st.composite
def ensembles(draw):
    return Ensemble(
        trees=draw(st.lists(TREES, max_size=6)),
        learning_rate=draw(st.sampled_from([0.1, 0.37, 1.0])),
        init_score=draw(st.sampled_from([0.0, -0.0, 1.25])),
        num_features=FEATURES,
    )


@st.composite
def rows(draw, min_rows=0):
    n = draw(st.integers(min_rows, 12))
    return np.array(
        draw(st.lists(VALUES, min_size=n * FEATURES, max_size=n * FEATURES)),
        dtype=np.float64,
    ).reshape(n, FEATURES)


def fresh(ensemble):
    """The same model in a new ensemble, which stacks its table anew."""
    return dataclasses.replace(ensemble, trees=list(ensemble.trees))


@settings(max_examples=200, deadline=None)
@given(ensembles(), rows(), st.integers(1, 40), st.lists(st.integers(0, 12), max_size=4))
def test_ensemble_matches_reference_bit_for_bit(ensemble, X, block_pairs, cuts):
    """Also routes in blocks of a drawn size, so remainders are covered.

    Later calls, on the whole matrix or on row blocks cut at ``cuts``, reuse
    the ensemble's routing table, and match a freshly stacked one.
    """
    expected = reference_predict_ensemble_matrix(ensemble, X).tobytes()
    assert predict_ensemble_matrix(ensemble, X).tobytes() == expected
    saved = plrank.tree._BLOCK_PAIRS
    plrank.tree._BLOCK_PAIRS = block_pairs
    try:
        assert predict_ensemble_matrix(ensemble, X).tobytes() == expected
    finally:
        plrank.tree._BLOCK_PAIRS = saved
    bounds = [0] + sorted(min(c, X.shape[0]) for c in cuts) + [X.shape[0]]
    blocks = [predict_ensemble_matrix(ensemble, X[a:b]) for a, b in zip(bounds, bounds[1:])]
    assert np.concatenate(blocks).tobytes() == expected
    assert predict_ensemble_matrix(fresh(ensemble), X).tobytes() == expected


@settings(max_examples=200, deadline=None)
@given(TREES, rows())
def test_apply_tree_matches_reference(tree, X):
    assert apply_tree(tree, X).tolist() == reference_apply(tree, X).tolist()


@settings(max_examples=100, deadline=None)
@given(ensembles(), rows(min_rows=1))
def test_one_row_wrappers_match_reference(ensemble, X):
    row = X[0]
    expected = ensemble.init_score
    for tree in ensemble.trees:
        out = reference_predict_tree(tree, row)
        assert np.float64(predict_tree_row(tree, row)).tobytes() == np.float64(out).tobytes()
        expected += ensemble.learning_rate * out
    assert np.float64(predict_ensemble_row(ensemble, row)).tobytes() == \
        np.float64(expected).tobytes()


def test_fitted_trees_match_reference():
    """Best-first trees as training grows them, many of them, on fresh rows."""
    rng = np.random.default_rng(31)
    X = rng.normal(size=(300, 6))
    trees = [fit_tree(X, rng.normal(size=300), 30) for _ in range(40)]
    ensemble = Ensemble(trees=trees, learning_rate=0.1, init_score=0.5)
    fresh = np.round(rng.normal(size=(500, 6)), 1)
    assert predict_ensemble_matrix(ensemble, fresh).tobytes() == \
        reference_predict_ensemble_matrix(ensemble, fresh).tobytes()


def test_empty_ensemble_scores_init():
    X = np.zeros((4, 0))
    assert predict_ensemble_matrix(Ensemble(init_score=-0.0), X).tobytes() == \
        np.full(4, -0.0).tobytes()


@pytest.mark.parametrize("rows_", [np.zeros((0, FEATURES)), np.zeros((3, 0))])
def test_leaf_only_ensemble_reads_no_column(rows_):
    ensemble = Ensemble(trees=[build_tree(2.0), build_tree(-1.0)], learning_rate=0.5)
    expected = reference_predict_ensemble_matrix(ensemble, rows_)
    assert predict_ensemble_matrix(ensemble, rows_).tobytes() == expected.tobytes()


def fitted_ensemble():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(200, 4))
    trees = [fit_tree(X, rng.normal(size=200), 8) for _ in range(6)]
    ensemble = Ensemble(trees=trees[:4], learning_rate=0.3, init_score=0.25, num_features=4)
    rows_ = np.round(rng.normal(size=(50, 4)), 1)
    return ensemble, trees[4:], rows_


CHANGES = ["append", "setitem", "reassign", "replace-value", "assign-threshold"]


def changed(trees, spare, change):
    """``trees`` with one change applied, as a new list."""
    trees = list(trees)
    if change == "append":
        trees.append(spare[0])
    elif change == "setitem":
        trees[1] = spare[0]
    elif change == "reassign":
        trees = [spare[1], trees[0]]
    elif change == "replace-value":
        trees[2] = dataclasses.replace(trees[2], value=trees[2].value * -2.0)
    else:
        splits = trees[0].feature >= 0  # a leaf's threshold stays 0
        trees[0] = dataclasses.replace(trees[0], threshold=trees[0].threshold + 0.25 * splits)
    return trees


@pytest.mark.parametrize("change", CHANGES)
def test_ensemble_and_its_trees_cannot_change(change):
    ensemble, spare, X = fitted_ensemble()
    before = predict_ensemble_matrix(ensemble, X).tobytes()
    with pytest.raises((AttributeError, TypeError)):
        if change == "append":
            ensemble.trees.append(spare[0])
        elif change == "setitem":
            ensemble.trees[1] = spare[0]
        elif change == "reassign":
            ensemble.trees = [spare[1], ensemble.trees[0]]
        elif change == "replace-value":
            ensemble.trees[2] = dataclasses.replace(ensemble.trees[2],
                                                    value=ensemble.trees[2].value * -2.0)
        else:
            ensemble.trees[0].threshold = ensemble.trees[0].threshold + 0.25
    assert predict_ensemble_matrix(ensemble, X).tobytes() == before


@pytest.mark.parametrize("change", CHANGES)
def test_replaced_trees_score_as_the_reference(change):
    ensemble, spare, X = fitted_ensemble()
    rebuilt = dataclasses.replace(ensemble, trees=changed(ensemble.trees, spare, change))
    assert predict_ensemble_matrix(rebuilt, X).tobytes() == \
        reference_predict_ensemble_matrix(rebuilt, X).tobytes()
    assert predict_ensemble_matrix(rebuilt, X).tobytes() != \
        predict_ensemble_matrix(ensemble, X).tobytes()


@pytest.mark.parametrize("column", ["value", "threshold"])
def test_scored_tree_arrays_are_read_only(column):
    ensemble, _, X = fitted_ensemble()
    before = predict_ensemble_matrix(ensemble, X).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        getattr(ensemble.trees[0], column)[0] += 1.0
    assert predict_ensemble_matrix(ensemble, X).tobytes() == before
    assert predict_ensemble_matrix(fresh(ensemble), X).tobytes() == before


COLUMNS = ("feature", "threshold", "value", "count")


def test_building_leaves_the_callers_trees_alone():
    """The tree copies the caller's arrays: they stay writable, and writing
    them later changes neither the tree nor its ensemble's scores."""
    ensemble, _, X = fitted_ensemble()
    columns = {name: getattr(ensemble.trees[0], name).copy() for name in COLUMNS}
    tree = RegressionTree(**columns)
    rebuilt = dataclasses.replace(ensemble, trees=(tree,) + ensemble.trees[1:])
    assert rebuilt == ensemble
    before = predict_ensemble_matrix(rebuilt, X).tobytes()
    for column in columns.values():
        assert column.flags.writeable
        column[:] = -column - 1
    assert tree == ensemble.trees[0]
    assert predict_ensemble_matrix(rebuilt, X).tobytes() == before


BUILDS = {
    "fit_tree": lambda: fitted_ensemble()[1][0],
    "hand-built": lambda: stump(),
    "loaded": lambda: parse_ensemble(dumps_ensemble(fitted_ensemble()[0])).trees[1],
    "replace": lambda: dataclasses.replace(stump(), value=np.array([0.0, 3.0, 4.0])),
    "deepcopy": lambda: copy.deepcopy(stump()),
    "pickle": lambda: pickle.loads(pickle.dumps(stump())),
}


@pytest.mark.parametrize("build", BUILDS)
def test_every_tree_is_read_only(build):
    """Checked before any routing: a tree written after it was built once
    routed rows into another tree's leaves, or looped forever."""
    tree = BUILDS[build]()
    for name in COLUMNS + ("right",):
        column = getattr(tree, name)
        assert not column.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            column[-1] = 0
    X = np.round(np.random.default_rng(2).normal(size=(20, 4)), 1)
    assert apply_tree(tree, X).tolist() == reference_apply(tree, X).tolist()


def test_ensemble_holds_the_trees_it_was_given():
    _, trees, _ = fitted_ensemble()
    ensemble = Ensemble(trees=trees)
    assert all(ensemble.trees[i] is trees[i] for i in range(len(trees)))


def test_ensemble_reads_a_tree_generator_once():
    _, trees, _ = fitted_ensemble()
    assert Ensemble(trees=iter(trees)) == Ensemble(trees=trees)
    assert Ensemble(trees=(tree for tree in trees)).trees == tuple(trees)


@pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e))])
def test_copied_ensemble_equals_and_scores_as_the_original(duplicate):
    ensemble, _, X = fitted_ensemble()
    twin = duplicate(ensemble)
    assert twin == ensemble
    assert predict_ensemble_matrix(twin, X).tobytes() == \
        predict_ensemble_matrix(ensemble, X).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        twin.trees[0].value[0] = 7.0


def test_routing_table_is_not_part_of_the_model():
    ensemble, _, _ = fitted_ensemble()
    twin = dataclasses.replace(ensemble)
    assert twin._routing is not ensemble._routing
    assert twin == ensemble
    assert repr(twin) == repr(ensemble) and "_routing" not in repr(ensemble)
    assert dumps_ensemble(twin) == dumps_ensemble(ensemble)


def stump(threshold=(0.5, 0.0, 0.0), value=(0.0, 1.0, 2.0), count=(0, 1, 1)):
    """A 3-node stump: rows at or below 0.5 score 1.0, the others 2.0."""
    return RegressionTree(feature=[0, -1, -1], threshold=threshold, value=value, count=count)


def two_stump_model(position, right):
    """Two stumps in a model file; the one at ``position`` writes ``r={right}``."""
    lines = ["plrank-model v1", "loss=plrank", "alpha=1.0", "topk=10", "features=1",
             "init=0.0", "trees=2"]
    for t in range(2):
        lines += [f"tree {t} nodes=3", f"N 0 f=1 t=0.5 l=1 r={right if t == position else 2}",
                  "L 1 v=1.0 n=1", "L 2 v=2.0 n=1"]
    return "\n".join(lines + ["end", ""])


@pytest.mark.parametrize("right", [0, 1, 3, 5, -1])
@pytest.mark.parametrize("position", [0, 1])
def test_split_children_must_be_later_nodes_of_its_own_tree(right, position):
    """No table stores a child, so only a model file can name one.

    A right child that loops back (0, 1), points past its tree (3, 5) or is
    no id at all (-1) is refused on that line; the derived one is node 2.
    """
    ensemble = parse_ensemble(two_stump_model(position, 2))
    assert [tree.right.tolist() for tree in ensemble.trees] == [[2, -1, -1]] * 2
    with pytest.raises(PLRankError) as info:
        parse_ensemble(two_stump_model(position, right))
    assert info.value.line == 9 + 4 * position


def test_split_in_the_last_row_is_rejected():
    with pytest.raises(ValidationError, match="3 nodes end before every split has both"):
        RegressionTree(feature=[0, -1, 0], threshold=[0.5, 0.0, 0.5],
                       value=[0.0, 1.0, 0.0], count=[0, 1, 0])


def test_apply_tree_rejects_a_right_child_past_the_tree():
    """No way in for one: no argument takes it and the derived column is read-only."""
    with pytest.raises(TypeError, match="right"):
        RegressionTree(feature=[0, -1, -1], threshold=[0.5, 0.0, 0.0], right=[5, -1, -1],
                       value=[0.0, 1.0, 2.0], count=[0, 1, 1])
    tree = stump()
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(tree, right=np.array([5, -1, -1]))
    with pytest.raises(ValueError, match="read-only"):
        tree.right[0] = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        tree.right = np.array([5, -1, -1])
    assert apply_tree(tree, [[0.3], [0.7]]).tolist() == [0, 1]


def test_short_column_is_rejected():
    """A short column once shifted every later tree's rows in the stacked table."""
    with pytest.raises(ValidationError, match=r"columns feature, threshold, value, count must "
                                              r"be 1-D and of one length, got shapes \(3,\), "
                                              r"\(1,\), \(3,\), \(3,\)"):
        stump(threshold=[0.5])
    ensemble = Ensemble(trees=[stump(), stump()], learning_rate=1.0, num_features=1)
    assert predict_ensemble_matrix(ensemble, [[0.3]]).tolist() == [2.0]


@pytest.mark.parametrize("columns, message", [
    (dict(feature=[], threshold=[], value=[], count=[]),
     "0 nodes end before every split has both children"),
    (dict(feature=[-1, -1], threshold=[0.0, 0.0], value=[1.0, 2.0], count=[1, 1]),
     "node 1 is unreachable: the tree ends at node 0"),
    (dict(feature=[0, -1, -1, -1], threshold=[0.5] + [0.0] * 3, value=[0.0, 1.0, 2.0, 3.0],
          count=[0, 1, 1, 1]), "node 3 is unreachable: the tree ends at node 2"),
    (dict(feature=[[-1]], threshold=[[0.0]], value=[[1.0]], count=[[1]]), "1-D"),
    (dict(feature=-1, threshold=0.0, value=1.0, count=1), "1-D"),
])
def test_table_that_is_not_one_tree_is_rejected(columns, message):
    with pytest.raises(ValidationError, match=message):
        RegressionTree(**columns)


@pytest.mark.parametrize("column, bad, message", [
    ("value", np.nan, "node 2 has t=0.0 v=nan n=1; t and v must be finite and n >= 0"),
    ("value", -np.inf, "node 2 has t=0.0 v=-inf n=1; "),
    ("threshold", np.inf, "node 2 has t=inf v=2.0 n=1; "),
    ("count", -3, "node 2 has t=0.0 v=2.0 n=-3; "),
])
def test_node_numbers_a_model_file_cannot_hold_are_rejected(column, bad, message):
    """Each of these once built a tree that saved but did not load."""
    columns = {"threshold": [0.5, 0.0, 0.0], "value": [0.0, 1.0, 2.0], "count": [0, 1, 1]}
    columns[column][2] = bad
    with pytest.raises(ValidationError, match=message):
        stump(**columns)


@pytest.mark.parametrize("feature, threshold, value, count, message", [
    ([0, -1, -1], [0.5, -1.0, 0.0], [0.0, 1.0, 2.0], [0, 1, 1],
     "leaf node 1 has f=-1 t=-1.0 v=1.0 n=1; a leaf must have f=-1 and t=0"),
    ([0, -1, -5], [0.5, 0.0, 0.0], [0.0, 1.0, 2.0], [0, 1, 1],
     "leaf node 2 has f=-5 t=0.0 v=2.0 n=1; a leaf must have f=-1 and t=0"),
    ([0, -1, -1], [0.5, 0.0, 0.0], [3.0, 1.0, 2.0], [0, 1, 1],
     "split node 0 has f=0 t=0.5 v=3.0 n=0; a split must have v=0 and n=0"),
    ([0, -1, -1], [0.5, 0.0, 0.0], [0.0, 1.0, 2.0], [2, 1, 1],
     "split node 0 has f=0 t=0.5 v=0.0 n=2; a split must have v=0 and n=0"),
], ids=["leaf-threshold", "leaf-feature", "split-value", "split-count"])
def test_numbers_the_model_file_does_not_hold_are_rejected(feature, threshold, value, count,
                                                           message):
    """Each of these once built, saved, and loaded as a different tree."""
    with pytest.raises(ValidationError, match=re.escape(message)):
        RegressionTree(feature=feature, threshold=threshold, value=value, count=count)


def test_negative_zero_counts_as_zero():
    tree = stump(threshold=(0.5, -0.0, -0.0), value=(-0.0, 1.0, 2.0))
    ensemble = Ensemble(trees=[tree], num_features=1)
    assert parse_ensemble(dumps_ensemble(ensemble)) == ensemble


# A split/leaf pattern: random ones (mostly not a tree) and grown ones.
MASKS = st.one_of(
    st.lists(st.booleans(), max_size=12),
    st.recursive(st.just([False]), lambda kids: st.tuples(kids, kids).map(
        lambda pair: [True] + pair[0] + pair[1]), max_leaves=6),
)
ZEROS = st.sampled_from([0.0, -0.0])


@settings(max_examples=300, deadline=None)
@given(MASKS, st.data())
def test_tree_shape_matches_the_recursive_descent_oracle(mask, data):
    """Numbers are drawn at every row. Where the model file holds none (a
    leaf's feature and threshold, a split's value and count), most rows draw
    -1 or a zero of either sign and the others draw anything. The tree
    raises exactly when the rows are not one tree or hold such a number."""
    feature, threshold, value, count = [], [], [], []
    holdable = True
    for split in mask:
        free = data.draw(st.sampled_from([False] * 3 + [True]))
        if split:
            feature.append(data.draw(st.integers(0, FEATURES - 1)))
            threshold.append(data.draw(THRESHOLDS))
            out, docs = data.draw(LEAF) if free else (data.draw(ZEROS), 0)
            holdable &= out == 0 and docs == 0
        else:
            feature.append(data.draw(st.integers(-9, -1)) if free else -1)
            threshold.append(data.draw(THRESHOLDS if free else ZEROS))
            out, docs = data.draw(LEAF)
            holdable &= feature[-1] == -1 and threshold[-1] == 0
        value.append(out)
        count.append(docs)
    expected = reference_right(feature)
    try:
        tree = RegressionTree(feature=feature, threshold=threshold, value=value, count=count)
    except ValidationError:
        assert expected is None or not holdable
        return
    assert expected is not None and holdable
    assert tree.right.tolist() == expected
    ensemble = Ensemble(trees=[tree], num_features=FEATURES)
    assert parse_ensemble(dumps_ensemble(ensemble)) == ensemble


def mask_columns(mask):
    """A table with splits and leaves where ``mask`` says, each row holdable."""
    return dict(feature=[0 if split else -1 for split in mask],
                threshold=[0.5 if split else 0.0 for split in mask],
                value=[0.0 if split else 1.0 for split in mask],
                count=[0 if split else 1 for split in mask])


@settings(max_examples=300, deadline=None)
@given(st.lists(MASKS, max_size=5))
def test_stacked_trees_are_checked_as_each_tree_alone(masks):
    """One check over stacked tables raises exactly when one of them alone
    does, with the first such table's message; else each tree is the one
    its own table builds, as read-only views."""
    tables = [mask_columns(mask) for mask in masks]
    stacked = [sum((table[name] for table in tables), []) for name in plrank.tree._COLUMNS]
    try:
        trees = plrank.tree._stacked_trees(stacked, [len(mask) for mask in masks])
    except ValidationError as exc:
        bad = next(table for table in tables if reference_right(table["feature"]) is None)
        with pytest.raises(ValidationError) as alone:
            RegressionTree(**bad)
        assert str(exc) == str(alone.value)
        return
    assert trees == [RegressionTree(**table) for table in tables]
    assert [tree.right.tolist() for tree in trees] == [
        reference_right(table["feature"]) for table in tables]
    assert not any(tree.value.flags.writeable or tree.right.flags.writeable for tree in trees)


@pytest.mark.parametrize("column, node, bad", [
    ("value", 2, np.nan), ("count", 2, -3), ("threshold", 2, 1.0), ("value", 0, 3.0),
])
def test_stacked_number_error_numbers_its_node_within_its_tree(column, node, bad):
    """A number error in the last of stacked trees of 1, 0, 3 and 3 rows names
    its node as that tree alone does, before the empty tree's shape error."""
    tables = [mask_columns(mask) for mask in ([False], [], [True, False, False],
                                              [True, False, False])]
    tables[-1][column][node] = bad
    stacked = [sum((table[name] for table in tables), []) for name in plrank.tree._COLUMNS]
    with pytest.raises(ValidationError) as info:
        plrank.tree._stacked_trees(stacked, [1, 0, 3, 3])
    with pytest.raises(ValidationError) as alone:
        RegressionTree(**tables[-1])
    assert str(info.value) == str(alone.value) and f"node {node} has" in str(alone.value)

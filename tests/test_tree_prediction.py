"""Level-wise ensemble routing against the per-tree stack walk, bit for bit."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plrank.tree
from plrank.model_io import dumps_ensemble
from plrank.tree import Ensemble, apply_tree, fit_tree, predict_ensemble_matrix

from tree_reference import (
    build_tree,
    predict_ensemble_row,
    predict_tree_row,
    reference_apply,
    reference_predict_ensemble_matrix,
    reference_predict_tree,
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
    the table the first call kept, and match a freshly stacked one.
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


def scored_ensemble():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(200, 4))
    trees = [fit_tree(X, rng.normal(size=200), 8) for _ in range(6)]
    ensemble = Ensemble(trees=trees[:4], learning_rate=0.3, init_score=0.25, num_features=4)
    rows_ = np.round(rng.normal(size=(50, 4)), 1)
    predict_ensemble_matrix(ensemble, rows_)
    return ensemble, trees[4:], rows_


@pytest.mark.parametrize("change", ["append", "setitem", "reassign", "replace-value",
                                    "assign-threshold"])
def test_changed_trees_restack(change):
    ensemble, spare, X = scored_ensemble()
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
    assert predict_ensemble_matrix(ensemble, X).tobytes() == \
        predict_ensemble_matrix(fresh(ensemble), X).tobytes()
    assert predict_ensemble_matrix(ensemble, X).tobytes() == \
        reference_predict_ensemble_matrix(ensemble, X).tobytes()


@pytest.mark.parametrize("column", ["value", "threshold"])
def test_scored_tree_arrays_are_read_only(column):
    ensemble, _, X = scored_ensemble()
    before = predict_ensemble_matrix(ensemble, X).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        getattr(ensemble.trees[0], column)[0] += 1.0
    assert predict_ensemble_matrix(ensemble, X).tobytes() == before
    assert predict_ensemble_matrix(fresh(ensemble), X).tobytes() == before


@pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e))])
def test_copied_ensemble_stacks_its_own_arrays(duplicate):
    """A deep copy's arrays are writable again, so it must not reuse the kept table."""
    ensemble, _, X = scored_ensemble()
    twin = duplicate(ensemble)
    twin.trees[0].value[:] = 7.0
    assert predict_ensemble_matrix(twin, X).tobytes() == \
        reference_predict_ensemble_matrix(twin, X).tobytes()
    assert predict_ensemble_matrix(twin, X).tobytes() != \
        predict_ensemble_matrix(ensemble, X).tobytes()


def test_kept_routing_is_not_part_of_the_model():
    ensemble, _, _ = scored_ensemble()
    unscored = dataclasses.replace(ensemble)
    assert ensemble._routing is not None and unscored._routing is None
    assert ensemble == unscored
    assert repr(ensemble) == repr(unscored)
    assert dumps_ensemble(ensemble) == dumps_ensemble(unscored)

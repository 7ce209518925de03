import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plrank.linear
from plrank import LinearModel, evaluate, train_linear
from plrank.data import dense_features
from plrank.errors import ConfigError, ValidationError

from helpers import make_dataset, random_dataset
from pl_reference import library_linear_objective


def test_hand_case_two_documents():
    # w = 0, features [1] and [0], ground truth doc1 then doc2, k=2:
    # only the pair context survives, gradient 1 - 0.5, objective -ln 2
    ds = make_dataset([(1, [(2, {1: 1.0}), (0, {1: 0.0})])])
    obj, grad = library_linear_objective(np.zeros(1), ds, k=2)
    assert obj == pytest.approx(-math.log(2))
    assert grad == pytest.approx([0.5])


def test_identical_features_leave_only_prior():
    ds = make_dataset([(1, [(2, {1: 0.7}), (1, {1: 0.7}), (0, {1: 0.7})])])
    obj, grad = library_linear_objective(np.zeros(1), ds, k=3)
    assert grad == pytest.approx([0.0], abs=1e-12)


def test_empty_dataset_prior_only():
    ds = make_dataset([])
    w = np.array([1.5, -2.0])
    obj, grad = library_linear_objective(w, ds)
    assert obj == pytest.approx(-0.5 * float(w @ w))
    assert grad == pytest.approx(-w)


def test_weights_must_cover_features():
    ds = make_dataset([(1, [(1, {3: 1.0}), (0, {1: 0.0})])])
    with pytest.raises(ValidationError):
        library_linear_objective(np.zeros(2), ds)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(23)
    ds = random_dataset(rng, n_queries=6, n_docs=7, n_features=4)
    step = 1e-5
    for _ in range(5):
        w = rng.uniform(-1, 1, 4)
        _, grad = library_linear_objective(w, ds, k=5, objectives=2, seed=9)
        fd = np.zeros(4)
        for i in range(4):
            up, down = w.copy(), w.copy()
            up[i] += step
            down[i] -= step
            fd[i] = (
                library_linear_objective(up, ds, k=5, objectives=2, seed=9)[0]
                - library_linear_objective(down, ds, k=5, objectives=2, seed=9)[0]
            ) / (2 * step)
        assert np.linalg.norm(fd - grad) <= 1e-4 * max(1.0, np.linalg.norm(grad))


def test_objective_concave_along_segments():
    rng = np.random.default_rng(24)
    ds = random_dataset(rng, n_queries=5, n_docs=6, n_features=3)
    for _ in range(20):
        w1 = rng.uniform(-2, 2, 3)
        w2 = rng.uniform(-2, 2, 3)
        f = lambda w: library_linear_objective(w, ds, k=4, seed=2)[0]
        mid = f(0.5 * (w1 + w2))
        assert mid >= 0.5 * (f(w1) + f(w2)) - 1e-9


def test_prior_pull_without_likelihood():
    # single-document queries carry no ranking information; the optimum is 0
    ds = make_dataset([(q, [(1, {1: float(q), 2: 0.3})]) for q in range(1, 6)])
    model = train_linear(ds, iterations=50)
    assert np.linalg.norm(model.weights) < 1e-4


def test_objective_nondecreasing_over_iterations():
    rng = np.random.default_rng(25)
    ds = random_dataset(rng, n_queries=8, n_docs=6, n_features=4)
    values = []
    train_linear(ds, k=5, iterations=60, seed=4,
                 on_iteration=lambda line: values.append(
                     float(line.split("objective=")[1])))
    assert len(values) >= 2
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_reporting_iterations_costs_no_extra_evaluations(monkeypatch):
    """Each reported objective is the one L-BFGS-B already evaluated there."""
    rng = np.random.default_rng(25)
    ds = random_dataset(rng, n_queries=8, n_docs=6, n_features=4)
    calls = []
    evaluate_at = plrank.linear._objective_and_gradient

    def counted(w, X, contexts):
        objective, gradient = evaluate_at(w, X, contexts)
        calls.append(objective)
        return objective, gradient

    monkeypatch.setattr(plrank.linear, "_objective_and_gradient", counted)
    quiet = train_linear(ds, k=5, iterations=10, seed=4)
    evaluations = len(calls)
    lines = []
    loud = train_linear(ds, k=5, iterations=10, seed=4, on_iteration=lines.append)
    assert len(calls) == 2 * evaluations
    assert loud.weights.tobytes() == quiet.weights.tobytes()
    reported = [line.split("objective=")[1] for line in lines]
    assert set(reported) <= {f"{value:.6f}" for value in calls[evaluations:]}


def test_linearly_rankable_dataset_recovered():
    # grades are thresholded values of feature 1; feature 2 is a monotone
    # companion, so any positive weight mix ranks perfectly
    rng = np.random.default_rng(26)
    queries = []
    for qid in range(1, 16):
        values = rng.uniform(0.0, 1.0, 8)
        values[0], values[1] = 0.95, 0.05
        docs = [
            (int(v * 4), {1: float(v), 2: float(v * v)})
            for v in values
        ]
        queries.append((qid, docs))
    ds = make_dataset(queries)
    model = train_linear(ds, k=10, iterations=100, seed=1)
    X = dense_features(ds, ds.max_feature_index)
    report = evaluate(ds, model.predict_matrix(X), [10])
    assert report.ndcg_at[10] == pytest.approx(1.0)


def test_iteration_cap_validated():
    ds = make_dataset([(1, [(1, {1: 1.0}), (0, {1: 0.0})])])
    with pytest.raises(ConfigError):
        train_linear(ds, iterations=0)


def test_rows_without_contexts_do_not_move_weights():
    # Single-document queries have no contexts: whatever their features, the
    # weights are the same bytes.
    rng = np.random.default_rng(27)
    base = [(q, [(int(g), {1: float(v), 2: float(-v)})
                 for g, v in zip(rng.integers(0, 3, 5), rng.uniform(-1, 1, 5))])
            for q in range(1, 5)]
    weights = []
    for value in (0.0, 3.5):
        lone = [(q, [(1, {1: value, 2: -value})]) for q in range(10, 14)]
        ds = make_dataset([x for pair in zip(base, lone) for x in pair])
        weights.append(train_linear(ds, k=4, iterations=30, seed=3).weights.tobytes())
    assert weights[0] == weights[1]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 300), m=st.integers(1, 64), extra=st.integers(0, 3),
       seed=st.integers(0, 2**16), data=st.data())
def test_linear_scores_do_not_depend_on_the_batch(n, m, extra, seed, data):
    rng = np.random.default_rng(seed)
    model = LinearModel(weights=rng.normal(size=m))
    X = rng.normal(size=(n, m + extra))
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=6)))
    parts = [model.predict_matrix(block) for block in np.split(X, cuts)]
    assert np.concatenate(parts).tobytes() == model.predict_matrix(X).tobytes()


def test_linear_scores_reject_nan_and_narrow_rows():
    model = LinearModel(weights=np.array([0.5, -1.0]))
    with pytest.raises(ValidationError, match="NaN in feature row 1"):
        model.predict_matrix(np.array([[1.0, 2.0], [np.nan, 0.0]]))
    with pytest.raises(ValidationError):
        model.predict_matrix(np.ones((3, 1)))

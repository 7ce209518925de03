import copy
import dataclasses
import functools
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plrank.linear
from plrank import LinearModel, evaluate, parse_dataset, train_linear
from plrank.booster import sample_contexts
from plrank.data import dense_features
from plrank.errors import ConfigError, ValidationError
from plrank.linear import _REDUCTION_TOL, GRADIENT_TOL
from plrank.model_io import dumps_linear, parse_linear

from helpers import make_dataset, perfbench_modules, random_dataset
from pl_reference import library_linear_curvature, library_linear_objective


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
    """Each reported objective is the one the line search already evaluated there."""
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


def stopping_problem(seed):
    dataset = random_dataset(np.random.default_rng(seed), 6, 7, 4)
    return dataset, dict(k=5, objectives=2, seed=seed % 97)


def gradient_at_fit(model, dataset, flags):
    return library_linear_objective(model.weights, dataset, **flags)[1]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_fit_reaches_the_gradient_test_without_the_reduction_stop(seed):
    """With the relative-reduction stop off, the gradient test ends the fit:
    the curvature is at least the prior's I, so Newton steps converge fast."""
    dataset, flags = stopping_problem(seed)
    lines = []
    with mock.patch.object(plrank.linear, "_REDUCTION_TOL", 0.0):
        model = train_linear(dataset, iterations=50, on_iteration=lines.append, **flags)
    assert len(lines) < 50
    assert np.max(np.abs(gradient_at_fit(model, dataset, flags))) <= GRADIENT_TOL


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_fit_stops_at_the_first_small_relative_rise(seed):
    dataset, flags = stopping_problem(seed)
    evaluated, values = [], []
    evaluate_at = plrank.linear._objective_and_gradient

    def recorded(w, X, contexts):
        evaluated.append(evaluate_at(w, X, contexts))
        return evaluated[-1]

    with mock.patch.object(plrank.linear, "_objective_and_gradient", recorded):
        # A step is reported right after its accepted trial is evaluated.
        model = train_linear(dataset, iterations=1000, **flags,
                             on_iteration=lambda line: values.append(evaluated[-1][0]))
    values.insert(0, evaluated[0][0])
    rises = [(b - a) / max(abs(a), abs(b), 1.0) for a, b in zip(values, values[1:])]
    assert len(rises) < 1000
    assert all(r > _REDUCTION_TOL for r in rises[:-1])
    assert (rises[-1] <= _REDUCTION_TOL
            or np.max(np.abs(gradient_at_fit(model, dataset, flags))) <= GRADIENT_TOL)


@pytest.mark.parametrize("curvature", [
    lambda m: -np.eye(m),
    lambda m: np.full((m, m), np.nan),
    lambda m: np.eye(m) * 1e-320,  # the solve overflows to inf
], ids=["descends", "nan", "inf"])
def test_fit_keeps_the_start_when_no_direction_rises(curvature, monkeypatch):
    """A Newton direction that descends or is not finite ends the fit at w = 0."""
    dataset, flags = stopping_problem(5)
    monkeypatch.setattr(plrank.linear, "_curvature",
                        lambda weights, X, contexts: curvature(weights.size))
    lines = []
    model = train_linear(dataset, iterations=50, on_iteration=lines.append, **flags)
    assert lines == [] and model.weights.tolist() == [0.0] * 4


def test_newton_curvature_matches_central_differences():
    """The negated Hessian against central differences of the gradient."""
    rng = np.random.default_rng(28)
    ds = random_dataset(rng, n_queries=6, n_docs=7, n_features=4)
    step = 1e-5
    for _ in range(5):
        w = rng.uniform(-1, 1, 4)
        got = library_linear_curvature(w, ds, k=5, objectives=2, seed=9)
        columns = []
        for i in range(4):
            up, down = w.copy(), w.copy()
            up[i] += step
            down[i] -= step
            columns.append((
                library_linear_objective(down, ds, k=5, objectives=2, seed=9)[1]
                - library_linear_objective(up, ds, k=5, objectives=2, seed=9)[1]
            ) / (2 * step))
        assert np.abs(np.column_stack(columns) - got).max() <= 1e-7 * np.abs(got).max()


def scipy_objective(dataset, k, objectives, seed):
    """The objective where scipy's L-BFGS-B stops, run to convergence with the
    options plrank once passed it (it is the reference, not a dependency)."""
    minimize = pytest.importorskip("scipy.optimize").minimize
    X = dense_features(dataset, dataset.max_feature_index)
    contexts = sample_contexts(dataset, k, objectives, seed)

    def negated(w):
        objective, gradient = plrank.linear._objective_and_gradient(w, X, contexts)
        return -objective, -gradient
    result = minimize(negated, np.zeros(dataset.max_feature_index), jac=True,
                      method="L-BFGS-B",
                      options={"maxiter": 1000, "gtol": GRADIENT_TOL, "maxcor": 10})
    return -float(result.fun)


def assert_converges_as_scipy(dataset, k, objectives, seed):
    model = train_linear(dataset, k=k, objectives=objectives, iterations=1000, seed=seed)
    reached, _ = library_linear_objective(model.weights, dataset, k, objectives, seed)
    reference = scipy_objective(dataset, k, objectives, seed)
    assert reached >= reference - 1e-7 * abs(reference)


@settings(max_examples=40, deadline=None)
@given(n_queries=st.integers(1, 12), n_docs=st.integers(1, 12), n_features=st.integers(1, 8),
       k=st.integers(1, 10), objectives=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_converged_objective_matches_scipy(n_queries, n_docs, n_features, k, objectives, seed):
    dataset = random_dataset(np.random.default_rng(seed), n_queries, n_docs, n_features)
    assert_converges_as_scipy(dataset, k, objectives, seed)


@functools.cache
def benchmark_problem(workload, seed):
    """A benchmark workload's training file and the objectives its linear flags set."""
    gen, workloads = perfbench_modules("gen", "workloads")
    w = workloads.WORKLOADS[workload]
    dataset = parse_dataset(gen.letor_text(gen.make_table(seed, 1, w.train), w.train.style))
    flags = dict(zip(w.linear_flags[::2], w.linear_flags[1::2]))
    return dataset, int(flags["--objectives"])


@pytest.mark.parametrize("workload", ["letor-exact", "bigquery-hist", "serve"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_converged_objective_matches_scipy_on_benchmark_data(workload, seed):
    """The benchmark's training files and linear flags.

    bigquery-hist's raw columns have standard deviations from 0.01 to 360:
    L-BFGS-B stops there by the relative-reduction test with gradient entries
    near 10, short of the optimum, which the Newton fit reaches and passes.
    """
    dataset, objectives = benchmark_problem(workload, seed)
    assert_converges_as_scipy(dataset, 10, objectives, 42)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_iteration_cap_reaches_the_optimum_on_raw_columns(seed):
    """bigquery-hist at the benchmark's ``--iterations 10`` ends near a
    stationary point, whatever its columns' scales."""
    dataset, objectives = benchmark_problem("bigquery-hist", seed)
    model = train_linear(dataset, k=10, objectives=objectives, iterations=10, seed=42)
    _, gradient = library_linear_objective(model.weights, dataset, 10, objectives, 42)
    assert np.max(np.abs(gradient)) <= 1e-2


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


@pytest.mark.parametrize("features", [{}, {1: 1.0}], ids=["featureless", "one-feature"])
@pytest.mark.parametrize("kwargs, error, message", [
    (dict(seed=-1), ConfigError, "seed must be >= 0, got -1"),
    (dict(k=0), ValidationError, "top-K cutoff must be >= 1, got 0"),
    (dict(seed=1.5), ConfigError, "seed must be an integer, got 1.5"),
    (dict(k=2.5), ValidationError, "top-K cutoff must be an integer, got 2.5"),
    (dict(objectives=True), ValidationError, "objective count must be an integer, got True"),
    (dict(iterations=2.5), ConfigError, "iteration cap must be an integer, got 2.5"),
    (dict(iterations=np.float64(3.0)), ConfigError,
     r"iteration cap must be an integer, got np\.float64\(3\.0\)"),
    (dict(iterations="3"), ConfigError, "iteration cap must be an integer, got '3'"),
], ids=["seed", "topk", "seed-float", "topk-float", "objectives-bool", "iterations-float",
        "iterations-float64", "iterations-str"])
def test_fit_checks_its_options_whatever_the_width(features, kwargs, error, message):
    """Data listing no feature once returned empty weights before any check."""
    ds = make_dataset([(1, [(1, features), (0, {})])])
    with pytest.raises(error, match=f"^{message}$"):
        train_linear(ds, **kwargs)


def test_featureless_fit_keeps_no_weights():
    ds = make_dataset([(1, [(1, {}), (0, {})]), (2, [(2, {})])])
    assert train_linear(ds).weights.tolist() == []


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


BUILDS = {
    "hand-built": lambda: LinearModel(weights=[0.5, -1.0, 2.0]),
    "trained": lambda: train_linear(random_dataset(np.random.default_rng(3), 3, 5, 3),
                                    iterations=5),
    "loaded": lambda: parse_linear("linear M=2\nw[1]=0.5\nw[2]=-1.0\n"),
    "replace": lambda: dataclasses.replace(LinearModel(weights=[1.0]), weights=[2.0, 3.0]),
    "deepcopy": lambda: copy.deepcopy(LinearModel(weights=[0.5, -1.0])),
    "pickle": lambda: pickle.loads(pickle.dumps(LinearModel(weights=[0.5, -1.0]))),
}


@pytest.mark.parametrize("build", BUILDS)
def test_linear_weights_are_read_only(build):
    model = BUILDS[build]()
    assert not model.weights.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        model.weights[0] = 7.0
    assert model.weights[0] != 7.0
    assert parse_linear(dumps_linear(model)).weights.tobytes() == model.weights.tobytes()


def test_linear_model_copies_the_callers_weights():
    weights = np.array([0.5, -1.0])
    model = LinearModel(weights=weights)
    X = np.array([[1.0, 2.0], [3.0, -1.0]])
    before = model.predict_matrix(X).tobytes()
    assert weights.flags.writeable
    weights[:] = 7.0
    assert model.weights.tolist() == [0.5, -1.0]
    assert model.predict_matrix(X).tobytes() == before


@pytest.mark.parametrize("weights, message", [
    ([0.5, np.nan], r"w\[2\]=nan is not finite"),
    ([np.inf], r"w\[1\]=inf is not finite"),
    ([[0.5, 1.0]], r"weights must be 1-D, got shape \(1, 2\)"),
    (0.5, r"weights must be 1-D, got shape \(\)"),
], ids=["nan", "inf", "2-D", "0-D"])
def test_linear_weights_a_model_file_cannot_hold_are_rejected(weights, message):
    """Each of these once built: non-finite weights saved a file that did not
    load, and 2-D ones failed to save with a bare TypeError."""
    with pytest.raises(ValidationError, match=message):
        LinearModel(weights=weights)

import tracemalloc

import numpy as np
import pytest

from plrank import (
    ConfigError,
    Ensemble,
    ValidationError,
    TrainConfig,
    build_permutations,
    dcg_at_k,
    err,
    evaluate,
    mart_response,
    train,
    train_linear,
)
from plrank.data import dense_features
from plrank.model_io import dumps_ensemble
from plrank.tree import fit_tree, predict_ensemble_matrix

from helpers import make_dataset, separable_dataset, thresholded_linear_dataset
from tree_reference import build_tree


def small_config(**kw):
    defaults = dict(loss="plrank", trees=5, leaves=4, learning_rate=0.1,
                    top_k=10, objectives=1, seed=42, min_leaf_docs=1)
    defaults.update(kw)
    return TrainConfig(**defaults)


def test_mart2_residual():
    resp = mart_response(np.array([0.5]), np.array([2]), "mart2")
    assert resp == pytest.approx([1.5])


def test_mart1_gain_residual():
    resp = mart_response(np.array([0.5]), np.array([2]), "mart1")
    assert resp == pytest.approx([2.5])


def test_cmart1_normalized_targets():
    resp = mart_response(np.zeros(2), np.array([1, 0]), "cmart1", query_norm=1.0)
    assert resp == pytest.approx([1.0, 0.0])


def test_cmart1_degenerate_query_targets_zero():
    resp = mart_response(np.array([0.25, -0.5]), np.array([0, 0]), "cmart1",
                         query_norm=0.0)
    assert resp == pytest.approx([-0.25, 0.5])


def test_cmart1_equals_mart1_at_unit_norm():
    rng = np.random.default_rng(0)
    scores = rng.normal(size=6)
    grades = rng.integers(0, 4, 6)
    a = mart_response(scores, grades, "mart1")
    b = mart_response(scores, grades, "cmart1", query_norm=1.0)
    assert np.max(np.abs(a - b)) <= 1e-12


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(trees=0).validate()
    with pytest.raises(ConfigError):
        small_config(leaves=1).validate()
    with pytest.raises(ConfigError):
        small_config(learning_rate=0.0).validate()
    with pytest.raises(ConfigError):
        small_config(learning_rate=1.5).validate()
    with pytest.raises(ConfigError):
        small_config(loss="lambdamart").validate()


def test_a_negative_seed_is_refused_by_every_loss():
    """A square loss samples nothing, and once trained with any seed."""
    for loss in ("mart1", "mart2", "cmart1", "plrank"):
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
            small_config(loss=loss, seed=-1).validate()


@pytest.mark.parametrize("rate", [np.array([0.1, 0.2]), np.array([]), "0.1", None, [0.1]],
                         ids=["array", "empty-array", "str", "none", "list"])
def test_a_learning_rate_that_is_no_number_raises_a_config_error(rate):
    """Each once raised a bare ValueError or TypeError from the range check."""
    with pytest.raises(ConfigError, match=r"^learning rate must be a real number, got "):
        small_config(learning_rate=rate).validate()


@pytest.mark.parametrize("rate", [np.float64(0.5), np.float32(0.5), 1, np.int64(1)])
def test_a_learning_rate_may_be_any_real_number_in_range(rate):
    small_config(learning_rate=rate).validate()


def _query():
    return make_dataset([(1, [(2, {1: 0.5}), (1, {1: 0.25}), (0, {1: 0.0}), (0, {1: 1.0})])])


_X = np.arange(12.0).reshape(6, 2)
_Y = np.array([0.0, 1.0, 0.0, 2.0, 1.0, 3.0])

# Each count a caller passes: a call at one value, the name its message
# gives, and the error it raises.
COUNTS = {
    "trees": (lambda v: small_config(trees=v).validate(), "tree count", ConfigError),
    "leaves": (lambda v: small_config(leaves=v).validate(), "leaf count", ConfigError),
    "top_k": (lambda v: small_config(top_k=v).validate(), "top-K", ConfigError),
    "objectives": (lambda v: small_config(objectives=v).validate(), "objective count",
                   ConfigError),
    "min_leaf_docs": (lambda v: small_config(min_leaf_docs=v).validate(), "min leaf docs",
                      ConfigError),
    "histogram_bins": (lambda v: small_config(histogram_bins=v).validate(), "histogram bins",
                       ConfigError),
    "seed": (lambda v: train(_query(), small_config(trees=1, seed=v)), "seed", ConfigError),
    # The square losses sample nothing, so only the check of the config sees the seed.
    "seed-mart1": (lambda v: small_config(loss="mart1", seed=v).validate(), "seed",
                   ConfigError),
    "fit_tree-leaf_limit": (lambda v: fit_tree(_X, _Y, v), "leaf limit", ValidationError),
    "fit_tree-min_leaf_docs": (lambda v: fit_tree(_X, _Y, 3, v), "min_leaf_docs",
                               ValidationError),
    "fit_tree-bins": (lambda v: fit_tree(_X, _Y, 3, 1, v), "bins", ValidationError),
    "build_permutations-k": (
        lambda v: build_permutations(_query().groups[0], v, 1, np.random.default_rng(0)),
        "top-K cutoff", ValidationError),
    "build_permutations-objectives": (
        lambda v: build_permutations(_query().groups[0], 2, v, np.random.default_rng(0)),
        "objective count", ValidationError),
    "dcg_at_k": (lambda v: dcg_at_k([2, 1, 0], v), "cutoff k", ValidationError),
    "err": (lambda v: err([2, 1, 0], v), "g_max", ValidationError),
    "err-grade": (lambda v: err([2, v, 0], 4), "grade", ValidationError),
    "dense_features": (lambda v: dense_features(_query(), v), "matrix width", ValidationError),
    "evaluate": (lambda v: evaluate(_query(), [0.0, 1.0, 2.0, 3.0], [v]), "cutoff k",
                 ValidationError),
}


@pytest.mark.parametrize("value", [2.5, True, np.float64(3.0), "3"],
                         ids=["float", "bool", "float64", "str"])
@pytest.mark.parametrize("count", COUNTS)
def test_a_count_that_is_no_integer_raises_a_plrank_error(count, value):
    """Each once truncated the value, took True as 1 or raised a bare TypeError."""
    call, name, error = COUNTS[count]
    with pytest.raises(error) as info:
        call(value)
    assert str(info.value) == f"{name} must be an integer, got {value!r}"


@pytest.mark.parametrize("count", COUNTS)
def test_a_count_may_be_a_numpy_integer(count):
    COUNTS[count][0](np.int64(3))


def test_single_tree_contract():
    ds = separable_dataset(n_queries=4, n_docs=6)
    ensemble, trace = train(ds, small_config(trees=1))
    assert len(ensemble.trees) == 1
    assert len(trace.objectives) == 1


def test_plrank_rejects_dataset_without_rankable_queries():
    ds = make_dataset([(1, [(1, {1: 0.0})]), (2, [(0, {1: 1.0})])])
    with pytest.raises(ConfigError):
        train(ds, small_config())


@pytest.mark.parametrize("trainer", [
    lambda ds, seed: train(ds, small_config(trees=1, seed=seed)),
    lambda ds, seed: train_linear(ds, k=10, iterations=1, seed=seed),
], ids=["plrank", "listmle-linear"])
@pytest.mark.parametrize("qid, seed, message", [
    (-5, 42, "qid:-5 is negative"),
    (3, -1, "seed must be >= 0, got -1"),
])
def test_sampling_rejects_a_negative_seed_or_query_id(trainer, qid, seed, message):
    """Each query samples from default_rng([seed, qid]), which takes no negative number."""
    ds = make_dataset([(7, [(1, {1: 0.5}), (0, {1: 0.25})]),
                       (qid, [(2, {1: 1.0}), (0, {1: 0.0})])])
    with pytest.raises(ConfigError, match=message):
        trainer(ds, seed)


@pytest.mark.parametrize("trainer", [
    lambda ds: fit_tree(ds.features, np.arange(ds.num_documents, dtype=float), 4),
    lambda ds: train(ds, small_config(trees=1)),
    lambda ds: train(ds, small_config(trees=1, loss="mart1", histogram_bins=4)),
    lambda ds: train_linear(ds, k=10, iterations=1),
], ids=["fit_tree", "plrank", "mart1-bins", "listmle-linear"])
def test_training_rejects_nan_feature_rows(trainer):
    """Prediction rejects NaN rows, so no trainer fits them."""
    ds = separable_dataset(n_queries=3, n_docs=4)
    ds.features[5, 0] = np.nan
    with pytest.raises(ValidationError, match="NaN in feature row 5"):
        trainer(ds)


def test_empty_dataset_rejected():
    ds = make_dataset([])
    with pytest.raises(ConfigError):
        train(ds, small_config())


def test_plrank_loglik_improves():
    ds = thresholded_linear_dataset(n_queries=20, n_docs=10, n_features=4)
    ensemble, trace = train(ds, small_config(trees=30, leaves=4))
    assert trace.objectives[-1] > trace.initial_objective
    series = [trace.initial_objective] + trace.objectives
    drops = sum(1 for a, b in zip(series, series[1:]) if b < a)
    assert drops <= 0.05 * len(trace.objectives)


def test_separable_dataset_reaches_perfect_ndcg():
    ds = separable_dataset()
    ensemble, _ = train(ds, small_config(trees=50, leaves=4))
    X = dense_features(ds, ds.max_feature_index)
    report = evaluate(ds, predict_ensemble_matrix(ensemble, X), [10])
    assert report.ndcg_at[10] == pytest.approx(1.0)


def test_mart_training_sse_nonincreasing():
    ds = thresholded_linear_dataset(n_queries=15, n_docs=8, n_features=4)
    for loss in ("mart1", "mart2", "cmart1"):
        _, trace = train(ds, small_config(loss=loss, trees=20))
        series = [trace.initial_objective] + trace.objectives
        assert all(b <= a + 1e-9 for a, b in zip(series, series[1:]))


def test_mart_leaf_outputs_are_mean_responses():
    # one boosting step on a two-point dataset: leaves hit the residuals
    ds = make_dataset([(1, [(2, {1: 0.0}), (0, {1: 1.0})])])
    ensemble, _ = train(ds, small_config(loss="mart2", trees=1, leaves=2))
    X = np.array([[0.0], [1.0]])
    step = predict_ensemble_matrix(ensemble, X)
    assert step == pytest.approx([0.1 * 2.0, 0.0])


def test_reproducible_ensembles():
    ds = thresholded_linear_dataset(n_queries=8, n_docs=8, n_features=3)
    a, _ = train(ds, small_config(trees=8, objectives=3))
    b, _ = train(ds, small_config(trees=8, objectives=3))
    assert dumps_ensemble(a) == dumps_ensemble(b)


def test_extra_objectives_collapse_without_ties():
    # strictly decreasing grades admit a single ground-truth permutation
    queries = []
    rng = np.random.default_rng(3)
    for qid in range(1, 7):
        docs = [(g, {1: float(rng.normal()), 2: float(rng.normal())})
                for g in (5, 4, 3, 2, 1, 0)]
        queries.append((qid, docs))
    ds = make_dataset(queries)
    one, _ = train(ds, small_config(trees=6, objectives=1))
    many, _ = train(ds, small_config(trees=6, objectives=4))
    assert dumps_ensemble(one) == dumps_ensemble(many)


def test_init_model_shifts_scores_only():
    ds = separable_dataset(n_queries=5, n_docs=6)
    base, _ = train(ds, small_config(trees=4))
    shifted_init = Ensemble(trees=[], learning_rate=0.1, init_score=3.5,
                            loss="plrank", top_k=10,
                            num_features=ds.max_feature_index)
    warm, _ = train(ds, small_config(trees=4, init_model=shifted_init))
    assert warm.init_score == 3.5
    X = dense_features(ds, ds.max_feature_index)
    assert predict_ensemble_matrix(warm, X) == pytest.approx(
        predict_ensemble_matrix(base, X) + 3.5
    )


def test_init_model_trees_carry_over():
    ds = separable_dataset(n_queries=5, n_docs=6)
    first, _ = train(ds, small_config(trees=3))
    resumed, _ = train(ds, small_config(trees=2, init_model=first))
    assert len(resumed.trees) == 5
    # continuing in one run gives the same model as two chained runs
    full, _ = train(ds, small_config(trees=5))
    assert dumps_ensemble(resumed) == dumps_ensemble(full)


def test_warm_start_at_the_same_learning_rate_keeps_the_trees():
    """Rescaling by 1.0 would rebuild and re-check each tree for the same bytes."""
    ds = separable_dataset(n_queries=5, n_docs=6)
    first, _ = train(ds, small_config(trees=3))
    resumed, _ = train(ds, small_config(trees=2, init_model=first))
    assert all(kept is tree for kept, tree in zip(resumed.trees, first.trees))
    halved, _ = train(ds, small_config(trees=1, init_model=first,
                                       learning_rate=2 * first.learning_rate))
    assert [tree.value.tolist() for tree in halved.trees[:3]] == [
        (tree.value / 2).tolist() for tree in first.trees]


def test_warm_start_whose_rescaled_outputs_overflow_fails_at_train_time():
    # Rescaling to the new learning rate once wrote v=inf, which loading refused.
    ds = separable_dataset(n_queries=5, n_docs=6)
    init = Ensemble(trees=[build_tree(1e308)], learning_rate=1.0,
                    num_features=ds.max_feature_index)
    with pytest.raises(ValidationError, match="node 0 has t=0.0 v=inf n=1; "):
        train(ds, small_config(trees=1, learning_rate=0.1, init_model=init))


def test_warm_start_validation_trace_scores_the_final_model():
    ds = thresholded_linear_dataset(n_queries=8, n_docs=8, n_features=3)
    valid = thresholded_linear_dataset(n_queries=6, n_docs=8, n_features=3, seed=8)
    first, _ = train(ds, small_config(trees=3))
    resumed, trace = train(ds, small_config(trees=2, init_model=first), valid_dataset=valid)
    X = dense_features(valid, valid.max_feature_index)
    report = evaluate(valid, predict_ensemble_matrix(resumed, X), [10])
    assert trace.valid_ndcg[-1] == pytest.approx(report.ndcg_at[10], abs=1e-12)


def test_trace_lines_format():
    ds = separable_dataset(n_queries=4, n_docs=5)
    _, trace = train(ds, small_config(trees=2), valid_dataset=ds)
    lines = [trace.iteration_line(i) for i in range(1, len(trace.objectives) + 1)]
    assert len(lines) == 2
    assert lines[0].startswith("iter=1 objective=")
    assert "valid_ndcg@10=" in lines[0]


def test_on_iteration_callback():
    ds = separable_dataset(n_queries=4, n_docs=5)
    seen = []
    train(ds, small_config(trees=3), on_iteration=seen.append)
    assert len(seen) == 3
    assert all(line.startswith("iter=") for line in seen)


def test_exact_training_peak_memory_is_a_small_multiple_of_the_table():
    """A tree partitions one copy of the sorted columns and reads the table
    itself, rather than a feature-major copy and a share per frontier node."""
    ds = thresholded_linear_dataset(n_queries=60, n_docs=50, n_features=46, seed=5,
                                    decimals=0)
    tracemalloc.start()
    try:
        train(ds, small_config(trees=3, leaves=30))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.features.shape == (3000, 46)
    assert peak <= 5 * ds.features.nbytes

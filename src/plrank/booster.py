"""Gradient boosting driver for the likelihood ranker and the MART baselines.

One iteration computes the loss-specific pseudo-responses over all documents,
fits one regression tree to them, and advances the per-document scores by the
learning rate times the tree output. The tree is built once, with its final
leaf outputs: Newton values for the likelihood loss, mean responses for the
square losses. Split search reads the columns sorted and ranked (exact) or
coded into quantile bins (histogram) once per run, and the fit hands back
each training document's leaf, so only validation documents are routed
through the new tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from numbers import Real
from typing import Callable

import numpy as np

from . import pl_objective
from .data import Dataset, dense_features
from .errors import ConfigError, ValidationError, check_count
from .metrics import dcg_at_k, evaluate
from .permutation import build_permutations
from .pl_objective import QueryContexts, newton_leaf_outputs, response_from_workspace
from .tree import (
    TREE_LOSSES,
    Ensemble,
    RegressionTree,
    apply_tree,
    bin_columns,
    fit_tree,
    predict_ensemble_matrix,
    sort_columns,
)


@dataclass
class TrainConfig:
    loss: str = "plrank"
    trees: int = 1000
    leaves: int = 30
    learning_rate: float = 0.1
    top_k: int = 10
    objectives: int = 1
    seed: int = 42
    min_leaf_docs: int = 1
    histogram_bins: int = 0  # 0 = exact threshold search
    init_model: Ensemble | None = None

    def validate(self) -> None:
        if self.loss not in TREE_LOSSES:
            raise ConfigError(f"unknown loss {self.loss!r}")
        check_count(self.trees, "tree count", 1, ConfigError)
        check_count(self.leaves, "leaf count", 2, ConfigError)
        if not isinstance(self.learning_rate, Real):
            raise ConfigError(f"learning rate must be a real number, got {self.learning_rate!r}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ConfigError(
                f"learning rate must be in (0, 1], got {self.learning_rate}"
            )
        check_count(self.top_k, "top-K", 1, ConfigError)
        check_count(self.objectives, "objective count", 1, ConfigError)
        check_count(self.seed, "seed", 0, ConfigError)
        check_count(self.min_leaf_docs, "min leaf docs", 1, ConfigError)
        check_count(self.histogram_bins, "histogram bins", 0, ConfigError)
        if self.histogram_bins == 1:
            raise ConfigError("histogram bins must be 0 (exact) or >= 2, got 1")


@dataclass
class TrainTrace:
    objective_name: str  # "loglik" or "sse"
    initial_objective: float
    top_k: int
    objectives: list[float] = field(default_factory=list)
    valid_ndcg: list[float] | None = None

    def iteration_line(self, i: int) -> str:
        line = f"iter={i} objective={self.objectives[i - 1]:.6f}"
        if self.valid_ndcg is not None:
            line += f" valid_ndcg@{self.top_k}={self.valid_ndcg[i - 1]:.6f}"
        return line


def gain(relevance: np.ndarray | int) -> np.ndarray | float:
    return 2.0**relevance - 1.0


def mart_response(
    scores: np.ndarray,
    grades: np.ndarray,
    variant: str,
    query_norm: float = 1.0,
) -> np.ndarray:
    """Negative square-loss gradient (the residual) for one query.

    mart2 targets the raw grades, mart1 the exponential gains, and cmart1 the
    gains scaled by ``query_norm`` (the DCG of the query's ground-truth
    permutation). A zero norm means an all-zero-gain query: targets are 0.
    """
    scores = np.asarray(scores, dtype=np.float64)
    grades = np.asarray(grades)
    if variant == "mart2":
        target = grades.astype(np.float64)
    elif variant == "mart1":
        target = gain(grades)
    elif variant == "cmart1":
        target = gain(grades) / query_norm if query_norm > 0.0 else np.zeros(len(grades))
    else:
        raise ValidationError(f"unknown square-loss variant {variant!r}")
    return target - scores


# The name tests/test_acceptance.py imports.
_feature_matrix = dense_features


def sample_contexts(dataset: Dataset, k: int, objectives: int, seed: int) -> QueryContexts:
    """Every query's sampled top-``k`` orders, stacked over the queries with
    contexts. Query ``q`` samples from ``default_rng([seed, q])``, which
    takes no negative number, so a negative seed or qid raises ConfigError.
    """
    check_count(seed, "seed", 0, ConfigError)
    psets = []
    for group in dataset.groups:
        if group.query_id < 0:
            raise ConfigError(f"qid:{group.query_id} is negative; training needs qid >= 0")
        rng = np.random.default_rng([seed, group.query_id])
        psets.append(build_permutations(group, k, objectives, rng))
    return QueryContexts.stack([p for p in psets if p.num_contexts])


def train(
    dataset: Dataset,
    config: TrainConfig,
    valid_dataset: Dataset | None = None,
    on_iteration: Callable[[str], None] | None = None,
) -> tuple[Ensemble, TrainTrace]:
    """Run the boosting loop and return the ensemble plus its trace.

    Ground-truth permutations are sampled once up front and frozen; the
    objective would otherwise change mid-run. With ``valid_dataset`` given,
    each trace entry also carries validation NDCG at the configured cutoff.
    """
    config.validate()
    if not dataset.groups:
        raise ConfigError("training dataset has no queries")

    # The model covers the data and the warm start's declared features; the
    # rows need only the data and the columns the warm start's splits read.
    # Warm-start trees come first, rescaled to the new learning rate.
    width = reads = dataset.max_feature_index
    trees: list[RegressionTree] = []
    if config.init_model is not None:
        width = max(width, config.init_model.num_features)
        reads = max(reads, config.init_model.split_width)
        factor = config.init_model.learning_rate / config.learning_rate
        trees = list(config.init_model.trees)
        if factor != 1.0:  # x * 1.0 == x, so the trees would not change
            with np.errstate(over="ignore"):  # the tree rejects an overflowed output
                trees = [replace(t, value=t.value * factor) for t in trees]
    X = dense_features(dataset, reads)
    bins = config.histogram_bins
    columns = bin_columns(X, bins) if bins else sort_columns(X)

    def start_scores(rows: np.ndarray) -> np.ndarray:
        if config.init_model is None:
            return np.zeros(rows.shape[0], dtype=np.float64)
        return predict_ensemble_matrix(config.init_model, rows)

    scores = start_scores(X)
    if config.loss == "plrank":
        contexts = sample_contexts(dataset, config.top_k, config.objectives, config.seed)
        if not contexts.num_contexts:
            raise ConfigError(
                "likelihood loss needs at least one query with 2+ documents"
            )

        def objective(scores: np.ndarray) -> float:
            return pl_objective.log_likelihood(scores, contexts)

    else:
        targets = np.zeros(X.shape[0], dtype=np.float64)
        for group in dataset.groups:
            rel = group.relevances()
            norm = dcg_at_k(sorted(rel.tolist(), reverse=True), len(rel))
            targets[group.doc_ids] = mart_response(np.zeros(len(rel)), rel, config.loss, norm)

        def objective(scores: np.ndarray) -> float:
            return float(np.sum((targets - scores) ** 2))

    trace = TrainTrace(
        "loglik" if config.loss == "plrank" else "sse", objective(scores), config.top_k
    )
    if valid_dataset is not None:
        # Extra validation columns are harmless: trees only route on columns
        # seen during training.
        valid_X = dense_features(
            valid_dataset, max(reads, valid_dataset.max_feature_index)
        )
        valid_scores = start_scores(valid_X)
        trace.valid_ndcg = []

    leaf_of_row = np.empty(X.shape[0], dtype=np.intp)
    for it in range(1, config.trees + 1):
        if config.loss == "plrank":
            # objective(scores) last refreshed at these scores: its softmax is reused.
            responses = response_from_workspace(contexts.refresh(scores), contexts)
            # The leaf rule of the likelihood tree: Newton steps at these responses.
            leaf_values = partial(newton_leaf_outputs, contexts=contexts, responses=responses)
        else:
            responses, leaf_values = targets - scores, None

        tree = fit_tree(
            X, responses, config.leaves, config.min_leaf_docs, bins,
            columns=columns, leaf_of_row=leaf_of_row, leaf_values=leaf_values,
        )
        outputs = tree.value[tree.feature < 0]

        scores = scores + config.learning_rate * outputs[leaf_of_row]
        trees.append(tree)
        trace.objectives.append(objective(scores))

        if valid_dataset is not None:
            step = outputs[apply_tree(tree, valid_X)]
            valid_scores = valid_scores + config.learning_rate * step
            report = evaluate(valid_dataset, valid_scores, [config.top_k], include_err=False)
            trace.valid_ndcg.append(report.ndcg_at[config.top_k])
        if on_iteration is not None:
            on_iteration(trace.iteration_line(it))

    init_score = 0.0 if config.init_model is None else config.init_model.init_score
    ensemble = Ensemble(
        trees=trees,
        learning_rate=config.learning_rate,
        init_score=init_score,
        loss=config.loss,
        top_k=config.top_k,
        num_features=width,
    )
    return ensemble, trace

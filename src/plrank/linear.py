"""Linear ListMLE: the listwise likelihood with linear scores and a Gaussian prior.

Scores are w . h(d). The objective sums log p(champion | context) over the
sampled top-K ground-truth contexts of every query and subtracts the ridge
term w'w / 2; it is smooth and concave, so a quasi-Newton ascent from w = 0
finds the global optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Dataset, dense_features
from .errors import ConfigError, ValidationError
from .permutation import build_permutations
from .pl_objective import QueryContexts, log_likelihood, pseudo_response
from .tree import _feature_rows

GRADIENT_TOL = 1e-6


@dataclass
class LinearModel:
    weights: np.ndarray

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        """``w . x`` for every row; a row's score does not depend on the others."""
        X = _feature_rows(X)
        if X.shape[1] < self.weights.size:
            raise ValidationError(
                f"feature rows of width {X.shape[1]} cannot cover "
                f"{self.weights.size} weights"
            )
        return np.vecdot(X[:, : self.weights.size], self.weights)


def _query_contexts(
    dataset: Dataset, k: int, objectives: int, seed: int, width: int
) -> tuple[np.ndarray, QueryContexts]:
    """Feature rows by global document id, and every query's context table.

    Rows of queries without contexts meet only zero gradient entries.
    """
    psets = [build_permutations(g, k, objectives, np.random.default_rng([seed, g.query_id]))
             for g in dataset.groups]
    contexts = QueryContexts.stack([p for p in psets if p.num_contexts])
    return dense_features(dataset, width), contexts


def _objective_and_gradient(
    weights: np.ndarray, X: np.ndarray, contexts: QueryContexts
) -> tuple[float, np.ndarray]:
    scores = X @ weights
    objective = log_likelihood(scores, contexts) - 0.5 * float(weights @ weights)
    gradient = X.T @ pseudo_response(scores, contexts) - weights
    return objective, gradient


def train_linear(
    dataset: Dataset,
    k: int = 10,
    objectives: int = 1,
    iterations: int = 100,
    seed: int = 42,
    on_iteration: Callable[[str], None] | None = None,
) -> LinearModel:
    """Maximize the penalized likelihood from w = 0 with L-BFGS-B.

    Stops at the iteration cap or when the projected gradient drops below
    :data:`GRADIENT_TOL`. Queries without ranking information (single
    document) contribute only the prior, which keeps their pull at w = 0.
    """
    if iterations < 1:
        raise ConfigError(f"iteration cap must be >= 1, got {iterations}")
    width = dataset.max_feature_index
    if width == 0:
        return LinearModel(weights=np.zeros(0, dtype=np.float64))
    # Here, not at module level: importing scipy.optimize takes longer than
    # most commands that never fit a linear model.
    from scipy.optimize import minimize

    X, contexts = _query_contexts(dataset, k, objectives, seed, width)

    def negated(w: np.ndarray) -> tuple[float, np.ndarray]:
        obj, grad = _objective_and_gradient(w, X, contexts)
        return -obj, -grad

    count = [0]

    def callback(intermediate_result) -> None:
        # By this parameter name, scipy passes the accepted point's result,
        # whose ``fun`` it has already evaluated.
        count[0] += 1
        if on_iteration is not None:
            on_iteration(f"iter={count[0]} objective={-intermediate_result.fun:.6f}")

    result = minimize(
        negated,
        np.zeros(width, dtype=np.float64),
        jac=True,
        method="L-BFGS-B",
        callback=callback,
        options={"maxiter": iterations, "gtol": GRADIENT_TOL, "maxcor": 10},
    )
    return LinearModel(weights=np.asarray(result.x, dtype=np.float64))

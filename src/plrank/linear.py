"""Linear ListMLE: the listwise likelihood with linear scores and a Gaussian prior.

Scores are w . h(d). The objective sums log p(champion | context) over the
sampled top-K ground-truth contexts of every query and subtracts the ridge
term w'w / 2; it is smooth and concave, so an ascent from w = 0 finds the
global optimum. Each step is a Newton step on the exact Hessian
(:func:`_curvature`, the Plackett-Luce curvature the booster's leaf step takes,
with feature columns in place of leaf indicators), halved until the objective
rises by a share of what the step predicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .booster import sample_contexts
from .data import Dataset, dense_features
from .errors import ConfigError, ValidationError, check_count
from .permutation import build_permutations  # noqa: F401  (perfbench/layers.py hooks it)
from .pl_objective import QueryContexts, log_likelihood, pseudo_response
from .tree import _feature_rows

GRADIENT_TOL = 1e-6
# L-BFGS-B's default stop on a step's relative objective reduction (1e7 eps).
_REDUCTION_TOL = 1e7 * float(np.finfo(np.float64).eps)
_DECREASE = 1e-4  # share of the rise g'd a step of length t must reach, times t
_LINE_TRIALS = 20  # step lengths 1, 1/2, ..., 2**-19


@dataclass(frozen=True, eq=False)
class LinearModel:
    """``w . h(d)`` scores. A read-only value, as a tree is: building copies
    the weights as a 1-D float vector and marks it read-only, so the caller's
    array stays its own and ``dataclasses.replace`` builds a changed model.
    Building raises :class:`ValidationError` for weights the model file cannot
    hold: not 1-D, or not finite.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        weights = np.array(self.weights, dtype=np.float64)
        if weights.ndim != 1:
            raise ValidationError(f"weights must be 1-D, got shape {weights.shape}")
        if not np.isfinite(weights).all():
            i = int(np.argmin(np.isfinite(weights)))
            raise ValidationError(f"w[{i + 1}]={weights[i]} is not finite")
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)

    def __reduce__(self):
        return type(self), (self.weights,)

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        """``w . x`` for every row; a row's score does not depend on the others."""
        X = _feature_rows(X)
        if X.shape[1] < self.weights.size:
            raise ValidationError(
                f"feature rows of width {X.shape[1]} cannot cover "
                f"{self.weights.size} weights"
            )
        return np.vecdot(X[:, : self.weights.size], self.weights)


def _objective_and_gradient(
    weights: np.ndarray, X: np.ndarray, contexts: QueryContexts
) -> tuple[float, np.ndarray]:
    scores = X @ weights
    objective = log_likelihood(scores, contexts) - 0.5 * float(weights @ weights)
    gradient = X.T @ pseudo_response(scores, contexts) - weights
    return objective, gradient


def _curvature(weights: np.ndarray, X: np.ndarray, contexts: QueryContexts) -> np.ndarray:
    """The objective's Hessian at ``weights``, negated: X' diag(a) X - M'M + I.

    ``a`` holds each document's summed member probability (its contexts won
    minus its gradient entry), and row c of ``M`` context c's mean member row
    (:meth:`QueryContexts.mean_rows`). Per context this is X'(diag p - pp')X.
    Its entries are bounded by the squared feature values, whatever the
    weights, so one that is not finite raises :class:`ValidationError`.
    """
    scores = X @ weights
    held = np.bincount(contexts.champions, minlength=scores.size) - pseudo_response(
        scores, contexts
    )
    means = contexts.mean_rows(X)
    with np.errstate(over="ignore", invalid="ignore"):
        curvature = (X.T * held) @ X - means.T @ means + np.eye(weights.size)
    if not np.isfinite(curvature).all():
        raise ValidationError("the feature values overflow the fit: its curvature is not finite")
    return curvature


def train_linear(
    dataset: Dataset,
    k: int = 10,
    objectives: int = 1,
    iterations: int = 100,
    seed: int = 42,
    on_iteration: Callable[[str], None] | None = None,
) -> LinearModel:
    """Maximize the penalized likelihood from w = 0 by damped Newton steps.

    Stops at the first of: ``iterations`` steps; every gradient entry within
    :data:`GRADIENT_TOL` of zero; a step that raises the objective by at most
    1e7 machine epsilons (about 2.2e-9) relative to ``max(|f_k|, |f_k+1|, 1)``,
    the test L-BFGS-B applies by default; a line search that finds no
    increase, which keeps the last accepted weights. A Newton direction that
    does not rise or is not finite ends the fit the same way. Raises
    :class:`ValidationError` where feature values are so large that the
    curvature overflows float64 (squares near 1e308). Queries without
    ranking information (single document) contribute only the prior, which
    keeps their pull at w = 0.
    """
    check_count(iterations, "iteration cap", 1, ConfigError)
    width = dataset.max_feature_index
    # Rows of queries without contexts meet only zero gradient entries.
    X = _feature_rows(dense_features(dataset, width))
    contexts = sample_contexts(dataset, k, objectives, seed)
    weights = np.zeros(width, dtype=np.float64)
    objective, gradient = _objective_and_gradient(weights, X, contexts)
    rise = math.inf
    for step in range(1, iterations + 1):
        if np.max(np.abs(gradient), initial=0.0) <= GRADIENT_TOL or rise <= _REDUCTION_TOL:
            break
        direction = np.linalg.solve(_curvature(weights, X, contexts), gradient)
        slope = float(gradient @ direction)
        if not 0 < slope < math.inf:
            break
        for length in 0.5 ** np.arange(_LINE_TRIALS):
            trial = weights + length * direction
            value, trial_gradient = _objective_and_gradient(trial, X, contexts)
            if value >= objective + _DECREASE * length * slope:
                break
        else:
            break
        rise = (value - objective) / max(abs(objective), abs(value), 1.0)
        weights, objective, gradient = trial, value, trial_gradient
        if on_iteration is not None:
            on_iteration(f"iter={step} objective={objective:.6f}")
    return LinearModel(weights=weights)

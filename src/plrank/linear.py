"""Linear ListMLE: the listwise likelihood with linear scores and a Gaussian prior.

Scores are w . h(d). The objective sums log p(champion | context) over the
sampled top-K ground-truth contexts of every query and subtracts the ridge
term w'w / 2; it is smooth and concave, so a quasi-Newton ascent from w = 0
finds the global optimum. The ascent is a limited-memory BFGS written here in
numpy (:func:`_minimize` on the negated objective): ten correction pairs, a
first step of length 1 along the gradient, and a strong-Wolfe line search.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .booster import sample_contexts
from .data import Dataset, dense_features
from .errors import ConfigError, ValidationError
from .permutation import build_permutations  # noqa: F401  (perfbench/layers.py hooks it)
from .pl_objective import QueryContexts, log_likelihood, pseudo_response
from .tree import _feature_rows

GRADIENT_TOL = 1e-6
# L-BFGS-B's default stop on a step's relative objective reduction (1e7 eps).
_REDUCTION_TOL = 1e7 * float(np.finfo(np.float64).eps)
_PAIRS = 10  # correction pairs the inverse-Hessian estimate keeps
_DECREASE, _CURVATURE = 1e-4, 0.9  # strong-Wolfe constants
_LINE_TRIALS = 20


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


def _query_contexts(
    dataset: Dataset, k: int, objectives: int, seed: int, width: int
) -> tuple[np.ndarray, QueryContexts]:
    """Feature rows by global document id, and every query's sampled orders.

    Rows of queries without contexts meet only zero gradient entries.
    """
    return dense_features(dataset, width), sample_contexts(dataset, k, objectives, seed)


def _objective_and_gradient(
    weights: np.ndarray, X: np.ndarray, contexts: QueryContexts
) -> tuple[float, np.ndarray]:
    scores = X @ weights
    objective = log_likelihood(scores, contexts) - 0.5 * float(weights @ weights)
    gradient = X.T @ pseudo_response(scores, contexts) - weights
    return objective, gradient


def _minimize(
    fun: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x: np.ndarray,
    iterations: int,
    on_step: Callable[[float], None],
) -> np.ndarray:
    """Minimize ``fun(x) -> (f, gradient)`` by limited-memory BFGS from ``x``.

    Stops by the rules :func:`train_linear` states, read for ``f``, and
    returns the last accepted point. ``on_step`` receives each accepted
    point's value, which was evaluated there anyway.
    """
    f, g = fun(x)
    pairs: deque = deque(maxlen=_PAIRS)  # (s, y, 1 / s'y), oldest first
    reduction = math.inf
    for _ in range(iterations):
        if np.max(np.abs(g)) <= GRADIENT_TOL or reduction <= _REDUCTION_TOL:
            break
        q = g.copy()  # the two-loop recursion: q = H g
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * float(s @ q))
            q -= alphas[-1] * y
        if pairs:
            _, y, rho = pairs[-1]
            q /= rho * float(y @ y)  # H0 = s'y / y'y of the newest pair
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            q += (alpha - rho * float(y @ q)) * s
        step = 1.0 if pairs else 1.0 / float(np.linalg.norm(g))
        accepted = _wolfe_step(fun, x, f, g, -q, step)
        if accepted is None:
            break
        x_new, f_new, g_new = accepted
        s, y = x_new - x, g_new - g
        sy = float(s @ y)
        if sy > 0:
            pairs.append((s, y, 1.0 / sy))
        reduction = (f - f_new) / max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        on_step(f)
    return x


def _wolfe_step(
    fun: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x: np.ndarray,
    f: float,
    g: np.ndarray,
    direction: np.ndarray,
    step: float,
) -> tuple[np.ndarray, float, np.ndarray] | None:
    """``(point, value, gradient)`` of a strong-Wolfe step along ``direction``.

    Doubles the step until a trial brackets one, then tries the zero of the
    secant of the directional slopes at the bracket's ends, kept in its middle
    80% (the midpoint when the slopes do not rise toward the far end). After
    ``_LINE_TRIALS`` trials it returns the lowest point of sufficient
    decrease, or None if no trial decreased ``f``.
    """
    slope = float(g @ direction)
    if not slope < 0:
        return None
    lo, hi = (0.0, slope, None), None  # (step, slope, (point, value, gradient))
    f_lo = f
    for _ in range(_LINE_TRIALS):
        point = x + step * direction
        value, grad = fun(point)
        trial = (step, float(grad @ direction), (point, value, grad))
        if not value <= f + _DECREASE * step * slope or value >= f_lo:
            hi = trial
        elif abs(trial[1]) <= -_CURVATURE * slope:
            return trial[2]
        else:
            if trial[1] * (1.0 if hi is None else hi[0] - lo[0]) >= 0:
                hi = lo
            lo, f_lo = trial, value
        if hi is None:
            step *= 2.0
            continue
        (a, sa, _), (b, sb, _) = lo, hi
        if (sb - sa) * (b - a) > 0:
            margin = 0.1 * abs(b - a)
            step = min(max(a - sa * (b - a) / (sb - sa), min(a, b) + margin),
                       max(a, b) - margin)
        else:
            step = (a + b) / 2
    return lo[2]


def train_linear(
    dataset: Dataset,
    k: int = 10,
    objectives: int = 1,
    iterations: int = 100,
    seed: int = 42,
    on_iteration: Callable[[str], None] | None = None,
) -> LinearModel:
    """Maximize the penalized likelihood from w = 0 by limited-memory BFGS.

    Stops at the first of: ``iterations`` steps; every gradient entry within
    :data:`GRADIENT_TOL` of zero; a step that raises the objective by at most
    1e7 machine epsilons (about 2.2e-9) relative to ``max(|f_k|, |f_k+1|, 1)``,
    the test L-BFGS-B applies by default; a line search that finds no
    increase, which keeps the last accepted weights. Queries without ranking
    information (single document) contribute only the prior, which keeps
    their pull at w = 0.
    """
    if iterations < 1:
        raise ConfigError(f"iteration cap must be >= 1, got {iterations}")
    width = dataset.max_feature_index
    if width == 0:
        return LinearModel(weights=np.zeros(0))
    X, contexts = _query_contexts(dataset, k, objectives, seed, width)

    def negated(w: np.ndarray) -> tuple[float, np.ndarray]:
        obj, grad = _objective_and_gradient(w, X, contexts)
        return -obj, -grad

    steps = itertools.count(1)

    def report(value: float) -> None:
        if on_iteration is not None:
            on_iteration(f"iter={next(steps)} objective={-value:.6f}")

    weights = _minimize(negated, np.zeros(width, dtype=np.float64), iterations, report)
    return LinearModel(weights=weights)

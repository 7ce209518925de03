"""Best-first regression trees and the boosted ensemble container.

Trees grow leaf-wise under a leaf budget: at every step the growable leaf
whose best split removes the most squared error is split, so small budgets
spend their leaves where they matter.

Each node scores every feature at once, as one features x candidates gain
matrix. Candidate thresholds are midpoints between consecutive distinct
sorted feature values by default. The columns are sorted once per training
run (:func:`sort_columns`) and every split hands each child its share of the
parent's sorted columns, so no node sorts. An optional uniform-histogram
mode trades exactness for speed; its bins span each node's own value range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

# Gains at or below this are treated as no reduction (guards float dust on
# constant responses).
_GAIN_EPS = 1e-12


@dataclass
class Leaf:
    output: float
    doc_count: int


@dataclass
class Split:
    feature: int  # 0-based dense column
    threshold: float
    left: "Leaf | Split"
    right: "Leaf | Split"


Node = Leaf | Split


@dataclass
class RegressionTree:
    root: Node
    leaf_count: int

    def leaves(self) -> list[Leaf]:
        """Leaves in preorder; the order used by apply_tree and the model file."""
        out: list[Leaf] = []
        stack: list[Node] = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, Leaf):
                out.append(node)
            else:
                stack.append(node.right)
                stack.append(node.left)
        return out


@dataclass
class Ensemble:
    trees: list[RegressionTree] = field(default_factory=list)
    learning_rate: float = 0.1
    init_score: float = 0.0
    loss: str = "plrank"
    top_k: int = 10
    num_features: int = 0


def sort_columns(X: np.ndarray) -> np.ndarray:
    """Row ids of every column of ``X`` sorted by value, ties by row id.

    Returns a (features x rows) int32 table. Exact split search sorts once
    per training run with this and partitions the rows down the tree.
    """
    order = np.argsort(np.asarray(X, dtype=np.float64).T, axis=1, kind="stable")
    return order.astype(np.int32)


def _bin_codes(values: np.ndarray, bins: int) -> np.ndarray:
    """Uniform bins over each row's own range, offset by ``row * bins``.

    Overwrites ``values``. A constant row lands wholly in its first bin.
    """
    lo = values.min(axis=1, keepdims=True)
    span = values.max(axis=1, keepdims=True) - lo
    span[span == 0.0] = np.inf
    with np.errstate(over="ignore"):
        scale = bins / span
    values -= lo
    # A range narrower than bins / DBL_MAX overflows the scale: divide first.
    tiny = np.isinf(scale[:, 0])
    values[tiny] /= span[tiny]
    scale[tiny] = bins
    values *= scale
    codes = values.astype(np.int64)
    np.minimum(codes, bins - 1, out=codes)
    codes += np.arange(0, values.shape[0] * bins, bins)[:, None]
    return codes


def _sse_gains(
    left_sum: np.ndarray, left_cnt: np.ndarray, total: float, n: int
) -> np.ndarray:
    """``left_sum**2 / left_cnt + right_sum**2 / right_cnt - total**2 / n``.

    Computed in place on ``left_sum`` but in that order, so every gain is
    bit-identical to the formula evaluated for one feature at a time.
    """
    right = total - left_sum
    np.square(left_sum, out=left_sum)
    left_sum /= left_cnt
    np.square(right, out=right)
    right /= n - left_cnt
    left_sum += right
    left_sum -= total * total / n
    return left_sum


def _strongest(gains: np.ndarray, blocked: np.ndarray) -> tuple[float, int, int] | None:
    """(gain, feature, cut) of the largest gain whose cut is not blocked.

    Rows are features and columns cuts in increasing threshold order, so ties
    go to the lowest feature, then the lowest threshold. Gains at or below
    ``_GAIN_EPS`` are no split.
    """
    # Cap at +inf, or at -inf where blocked: arithmetic, not a masked store,
    # which branches on every entry. Unlike minimum, fmin also caps the 0/0
    # gain of a blocked cut with an empty side.
    cap = 0.5 - blocked
    cap *= np.inf
    np.fmin(gains, cap, out=gains)
    row_best = gains.max(axis=1)
    feat = int(np.argmax(row_best))
    gain = float(row_best[feat])
    if gain <= _GAIN_EPS:
        return None
    return gain, feat, int(np.argmax(gains[feat]))


def _best_split(
    XT: np.ndarray,
    y: np.ndarray,
    idx: np.ndarray,
    columns: np.ndarray | None,
    min_leaf_docs: int,
    bins: int = 0,
) -> tuple[float, int, float] | None:
    """Strongest (gain, feature, threshold) for the documents in ``idx``.

    ``XT`` is the (features x documents) matrix and ``idx`` the node's
    documents in increasing order. Every feature is scored at once in a
    features x cuts gain matrix; gain is the squared-error reduction. Exact
    mode (``bins == 0``) reads ``columns``, the node's documents sorted per
    feature (see :func:`sort_columns`), and cuts between consecutive distinct
    values at their midpoint.
    """
    m = XT.shape[0]
    n = idx.size
    if n < 2 * min_leaf_docs or not m:
        return None
    ysub = y[idx]
    if ysub.max() == ysub.min():
        return None
    total = ysub.sum()
    if bins:
        codes = _bin_codes(np.take(XT, idx, axis=1), bins)
        flat = codes.ravel()
        counts = np.bincount(flat, minlength=m * bins).reshape(m, bins)
        sums = np.bincount(flat, weights=np.tile(ysub, m), minlength=m * bins)
        left_cnt = np.cumsum(counts, axis=1)[:, :-1].astype(np.float64)
        left_sum = np.cumsum(sums.reshape(m, bins), axis=1)[:, :-1]
        blocked = (left_cnt < min_leaf_docs) | (n - left_cnt < min_leaf_docs)
        with np.errstate(divide="ignore", invalid="ignore"):
            found = _strongest(_sse_gains(left_sum, left_cnt, total, n), blocked)
        if found is None:
            return None
        gain, feat, pos = found
        # The largest value in the left bins, so routing by value <= threshold
        # reproduces the histogram partition exactly.
        left = XT[feat].take(idx)[codes[feat] <= feat * bins + pos]
        return gain, feat, float(left.max())
    # Cut j puts the first j + 1 sorted documents left; lo..hi keeps
    # min_leaf_docs on each side.
    lo, hi = min_leaf_docs - 1, n - min_leaf_docs
    row_starts = np.arange(0, XT.size, XT.shape[1])[:, None]
    values = XT.take(columns[:, lo : hi + 1] + row_starts)
    tied = values[:, 1:] == values[:, :-1]
    del values
    left_sum = y.take(columns)
    left_sum = np.cumsum(left_sum, axis=1, out=left_sum)[:, lo:hi]
    left_cnt = np.arange(lo + 1, hi + 1, dtype=np.float64)
    found = _strongest(_sse_gains(left_sum, left_cnt, total, n), tied)
    if found is None:
        return None
    gain, feat, pos = found
    below, above = XT[feat, columns[feat, lo + pos : lo + pos + 2]]
    return gain, feat, float(0.5 * (below + above))


@dataclass
class _Growable:
    order: int  # creation order, the tie-break across leaves
    leaf: Leaf
    idx: np.ndarray
    columns: np.ndarray | None  # idx sorted per feature; exact mode only
    split: tuple[float, int, float] | None
    attach: "Split | None"  # parent node; None means root
    side: str = ""


def fit_tree(
    features: np.ndarray,
    responses: np.ndarray,
    leaf_limit: int,
    min_leaf_docs: int = 1,
    bins: int = 0,
    *,
    column_order: np.ndarray | None = None,
) -> RegressionTree:
    """Fit an L-leaf tree to per-document responses by squared-error splits.

    Provisional leaf outputs are mean responses; the likelihood booster
    overwrites them with Newton values afterwards. Exact search walks each
    column in sorted order: ``column_order`` is :func:`sort_columns` of
    ``features``, which a caller fitting many trees to the same matrix sorts
    once; without it the columns are sorted here. A split hands each child
    its share of the parent's sorted columns, so nothing is sorted again.
    ``bins > 0`` switches to a uniform histogram with that many bins over
    each node's own value range (a speed knob for wide data, off by default).
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(responses, dtype=np.float64)
    if leaf_limit < 2:
        raise ValidationError(f"leaf limit must be >= 2, got {leaf_limit}")
    if min_leaf_docs < 1:
        raise ValidationError(f"min_leaf_docs must be >= 1, got {min_leaf_docs}")
    if bins < 0 or bins == 1:
        raise ValidationError(f"bins must be 0 (exact) or >= 2, got {bins}")
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValidationError("features and responses must align")
    if X.shape[0] < 2:
        raise ValidationError("need at least 2 documents to fit a tree")
    XT = np.ascontiguousarray(X.T)
    if bins:
        column_order = None
    elif column_order is None:
        column_order = sort_columns(X)
    elif column_order.shape != XT.shape:
        raise ValidationError("column order must be sort_columns of the features")

    def make_growable(idx, columns, order: int, attach: Split | None, side: str):
        leaf = Leaf(output=float(y[idx].mean()), doc_count=int(idx.size))
        if attach is not None:
            setattr(attach, side, leaf)
        return _Growable(
            order=order,
            leaf=leaf,
            idx=idx,
            columns=columns,
            split=_best_split(XT, y, idx, columns, min_leaf_docs, bins),
            attach=attach,
            side=side,
        )

    counter = 0
    root_entry = make_growable(np.arange(X.shape[0]), column_order, counter, None, "")
    root: Node = root_entry.leaf
    frontier = [root_entry] if root_entry.split is not None else []
    leaf_count = 1

    while leaf_count < leaf_limit and frontier:
        pick = min(range(len(frontier)), key=lambda i: (-frontier[i].split[0], frontier[i].order))
        entry = frontier.pop(pick)
        gain, feat, threshold = entry.split
        node = Split(feature=feat, threshold=threshold, left=entry.leaf, right=entry.leaf)
        if entry.attach is None:
            root = node
        else:
            setattr(entry.attach, entry.side, node)
        goes_left = XT[feat] <= threshold
        for side, keep in (("left", goes_left), ("right", ~goes_left)):
            columns = None
            if entry.columns is not None:
                kept = keep.take(entry.columns).ravel()
                columns = np.compress(kept, entry.columns).reshape(XT.shape[0], -1)
            counter += 1
            child = make_growable(entry.idx[keep[entry.idx]], columns, counter, node, side)
            if child.split is not None:
                frontier.append(child)
        leaf_count += 1

    return RegressionTree(root=root, leaf_count=leaf_count)


def apply_tree(tree: RegressionTree, X: np.ndarray) -> np.ndarray:
    """Leaf position (index into ``tree.leaves()``) for every row of X.

    Explicit stack in preorder, mirroring :meth:`RegressionTree.leaves`;
    recursion would cap the tree depth.
    """
    X = np.asarray(X, dtype=np.float64)
    out = np.zeros(X.shape[0], dtype=np.intp)
    next_leaf = 0
    stack: list[tuple[Node, np.ndarray]] = [(tree.root, np.arange(X.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if isinstance(node, Leaf):
            out[rows] = next_leaf
            next_leaf += 1
            continue
        mask = X[rows, node.feature] <= node.threshold
        stack.append((node.right, rows[~mask]))
        stack.append((node.left, rows[mask]))
    return out


def predict_tree(tree: RegressionTree, features_row: np.ndarray) -> float:
    """Output of the unique leaf the row routes to (value <= threshold goes left)."""
    row = np.asarray(features_row, dtype=np.float64)
    node = tree.root
    while isinstance(node, Split):
        value = float(row[node.feature])
        if math.isnan(value):
            raise ValidationError(f"NaN in routed feature column {node.feature}")
        node = node.left if value <= node.threshold else node.right
    return node.output


def predict_ensemble(ensemble: Ensemble, features_row: np.ndarray) -> float:
    score = ensemble.init_score
    for tree in ensemble.trees:
        score += ensemble.learning_rate * predict_tree(tree, features_row)
    return score


def predict_tree_matrix(tree: RegressionTree, X: np.ndarray) -> np.ndarray:
    leaves = tree.leaves()
    outputs = np.array([leaf.output for leaf in leaves], dtype=np.float64)
    return outputs[apply_tree(tree, X)]


def predict_ensemble_matrix(ensemble: Ensemble, X: np.ndarray) -> np.ndarray:
    """Vectorized ensemble prediction; accumulates tree by tree like training."""
    X = np.asarray(X, dtype=np.float64)
    scores = np.full(X.shape[0], ensemble.init_score, dtype=np.float64)
    for tree in ensemble.trees:
        scores += ensemble.learning_rate * predict_tree_matrix(tree, X)
    return scores


def tree_sse(tree: RegressionTree, X: np.ndarray, y: np.ndarray) -> float:
    return float(np.sum((np.asarray(y) - predict_tree_matrix(tree, X)) ** 2))

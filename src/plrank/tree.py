"""Best-first regression trees and the boosted ensemble container.

Trees grow leaf-wise under a leaf budget: at every step the growable leaf
whose best split removes the most squared error is split, so small budgets
spend their leaves where they matter.

Each node scores every feature at once, as one features x candidates gain
matrix. Candidate thresholds are midpoints between consecutive distinct
sorted feature values by default (the lower value where the midpoint would
overflow or round onto the upper one). The columns are sorted once per
training run (:func:`sort_columns`) and every split hands each child its
share of the parent's sorted columns, so no node sorts. An optional
uniform-histogram mode trades exactness for speed; its bins span each node's
own value range.

A tree is one preorder node table (:class:`RegressionTree`): fitting emits
it, the model file is it line for line, and prediction routes every row
through all trees of an ensemble together, one depth level per step. An
:class:`Ensemble` is immutable: building one copies its trees' tables end to
end into one read-only node table and stacks the routing table from it once.
Every prediction path rejects NaN in its input.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ValidationError

# Gains at or below this are treated as no reduction (guards float dust on
# constant responses).
_GAIN_EPS = 1e-12

TREE_LOSSES = ("plrank", "mart1", "mart2", "cmart1")


@dataclass(frozen=True)
class Leaf:
    """Read-only view of a leaf row of a :class:`RegressionTree`."""

    output: float
    doc_count: int


@dataclass(frozen=True, eq=False)
class Split:
    """Read-only view of an internal row; ``left`` and ``right`` view its children."""

    feature: int  # 0-based dense column
    threshold: float
    tree: "RegressionTree" = field(repr=False)
    index: int = field(repr=False)

    @property
    def left(self) -> "Leaf | Split":
        return self.tree.node(self.index + 1)

    @property
    def right(self) -> "Leaf | Split":
        return self.tree.node(int(self.tree.right[self.index]))


Node = Leaf | Split

# A node table's columns and their dtypes.
_COLUMNS = {"feature": np.intp, "threshold": np.float64, "right": np.intp,
            "value": np.float64, "count": np.int64}


@dataclass(frozen=True, eq=False)
class RegressionTree:
    """One tree as a preorder node table: one entry per node, root first.

    An internal node ``i`` routes a row left when ``row[feature[i]] <=
    threshold[i]``; its right child is ``right[i]``, the node after the left
    subtree, and its left child is node ``i + 1``, which preorder fixes, so
    no column stores it. A leaf has ``feature == -1`` and ``right == -1``,
    and carries its output in ``value`` and its training document count in
    ``count`` (both 0 on internal nodes). The v1 model file is this table,
    one line per node.
    """

    feature: np.ndarray
    threshold: np.ndarray
    right: np.ndarray
    value: np.ndarray
    count: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in _COLUMNS.items():
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegressionTree):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name)) for name in _COLUMNS)

    @property
    def leaf_count(self) -> int:
        return int(np.count_nonzero(self.feature < 0))

    @property
    def root(self) -> Node:
        return self.node(0)

    def node(self, i: int) -> Node:
        """Read-only view of node ``i``."""
        if self.feature[i] < 0:
            return Leaf(output=float(self.value[i]), doc_count=int(self.count[i]))
        return Split(int(self.feature[i]), float(self.threshold[i]), self, i)


@dataclass(frozen=True)
class Ensemble:
    """A boosted model. It never changes: ``dataclasses.replace`` builds a changed one."""

    trees: tuple[RegressionTree, ...] = ()
    learning_rate: float = 0.1
    init_score: float = 0.0
    loss: str = "plrank"
    top_k: int = 10
    num_features: int = 0
    # Derived from trees, so equality, repr and the model file ignore it.
    _routing: _Routing = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sizes = [tree.feature.size for tree in self.trees]
        table = RegressionTree(*(
            np.concatenate([getattr(tree, name) for tree in self.trees] or [[]])
            for name in _COLUMNS
        ))
        for name in _COLUMNS:
            getattr(table, name).flags.writeable = False
        bounds = np.cumsum([0] + sizes).tolist()
        trees = tuple(
            RegressionTree(*(getattr(table, name)[a:b] for name in _COLUMNS))
            for a, b in zip(bounds, bounds[1:])
        )
        object.__setattr__(self, "trees", trees)
        object.__setattr__(self, "_routing", _Routing.of(table, sizes))

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


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
    below, above = XT[feat, columns[feat, lo + pos : lo + pos + 2]].tolist()
    # The midpoint overflows to inf above DBL_MAX / 2 and rounds up to
    # ``above`` between adjacent doubles; ``below`` cuts the same partition.
    threshold = 0.5 * (below + above)
    if not below <= threshold < above:
        threshold = below
    return gain, feat, threshold


@dataclass
class _Growable:
    node: int  # creation order, the tie-break across leaves
    idx: np.ndarray
    columns: np.ndarray | None  # idx sorted per feature; exact mode only
    split: tuple[float, int, float]


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
    Nodes are numbered in creation order while the tree grows and renumbered
    into the preorder table once it is done.
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

    # Creation-order columns of the table; a split's children are created
    # together, so node k's right child is first_child[k] + 1.
    feature: list[int] = []
    threshold: list[float] = []
    first_child: list[int] = []
    value: list[float] = []
    count: list[int] = []

    def grow(idx: np.ndarray, columns: np.ndarray | None) -> _Growable | None:
        feature.append(-1)
        threshold.append(0.0)
        first_child.append(-1)
        value.append(float(y[idx].mean()))
        count.append(int(idx.size))
        split = _best_split(XT, y, idx, columns, min_leaf_docs, bins)
        return None if split is None else _Growable(len(value) - 1, idx, columns, split)

    root = grow(np.arange(X.shape[0]), column_order)
    frontier = [root] if root is not None else []
    leaf_count = 1

    while leaf_count < leaf_limit and frontier:
        pick = min(range(len(frontier)), key=lambda i: (-frontier[i].split[0], frontier[i].node))
        entry = frontier.pop(pick)
        _, feat, cut = entry.split
        k = entry.node
        feature[k], threshold[k], first_child[k] = feat, cut, len(value)
        value[k], count[k] = 0.0, 0
        goes_left = XT[feat] <= cut
        for keep in (goes_left, ~goes_left):
            columns = None
            if entry.columns is not None:
                kept = keep.take(entry.columns).ravel()
                columns = np.compress(kept, entry.columns).reshape(XT.shape[0], -1)
            child = grow(entry.idx[keep[entry.idx]], columns)
            if child is not None:
                frontier.append(child)
        leaf_count += 1

    order: list[int] = []
    stack = [0]
    while stack:
        k = stack.pop()
        order.append(k)
        if first_child[k] >= 0:
            stack += (first_child[k] + 1, first_child[k])
    position = np.empty(len(order), dtype=np.intp)
    position[order] = np.arange(len(order))
    first = np.array(first_child)[order]
    return RegressionTree(
        feature=np.array(feature)[order],
        threshold=np.array(threshold)[order],
        right=np.where(first >= 0, position[first + 1], -1),
        value=np.array(value)[order],
        count=np.array(count)[order],
    )


# Tree x row pairs routed at once by predict_ensemble_matrix: a query
# against a few hundred trees is one block, and a large batch keeps a working
# set of a few MB.
_BLOCK_PAIRS = 1 << 15


def _feature_rows(X: np.ndarray) -> np.ndarray:
    """``X`` as a C-ordered float matrix; every prediction path rejects NaN."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValidationError(f"feature matrix must be 2-D, got {X.ndim}-D")
    if X.size and np.isnan(X.min()):  # min propagates NaN
        row = int(np.flatnonzero(np.isnan(X).any(axis=1))[0])
        raise ValidationError(f"NaN in feature row {row}")
    return X


@dataclass
class _Routing:
    """A stacked node table as routing reads it.

    Leaves loop back to themselves, so pairs that reach a leaf early stay
    there while deeper ones finish. ``child[2 * i + 1]`` is node ``i``'s
    left child and ``child[2 * i]`` its right one.
    """

    split: np.ndarray  # bool, internal nodes
    column: np.ndarray  # routed column, 0 at leaves
    threshold: np.ndarray
    child: np.ndarray
    value: np.ndarray
    roots: np.ndarray

    @classmethod
    def of(cls, table: RegressionTree, sizes: list[int]) -> "_Routing":
        """Routing for trees of ``sizes`` nodes laid end to end in ``table``.

        Every split's children must be later nodes of its own tree, so each
        step moves deeper into one tree and routing always ends.
        """
        sizes = np.array(sizes, dtype=np.intp)
        roots = np.cumsum(sizes) - sizes
        split = table.feature >= 0
        own = np.arange(split.size)
        right = table.right + np.repeat(roots, sizes)
        bad = split & ((right <= own + 1) | (right >= np.repeat(roots + sizes, sizes)))
        if bad.any():
            node = int(np.argmax(bad))
            tree = int(np.searchsorted(roots, node, side="right")) - 1
            i = node - int(roots[tree])
            raise ValidationError(
                f"tree {tree} node {i} has children {i + 1} and {int(table.right[node])}; "
                f"a split's children must be later nodes of its own {sizes[tree]}-node tree"
            )
        child = np.empty(2 * split.size, dtype=np.intp)
        child[0::2] = np.where(split, right, own)
        child[1::2] = np.where(split, own + 1, own)
        return cls(
            split=split,
            column=np.where(split, table.feature, 0),
            threshold=table.threshold,
            child=child,
            value=table.value,
            roots=roots,
        )

    def leaves(self, X: np.ndarray) -> np.ndarray:
        """Leaf node reached by every (tree, row) pair, as a trees x rows table.

        Every pair takes one step per depth level. Whenever at most half of
        the pairs being stepped still sit on internal nodes, those already at
        a leaf are set aside, so the work follows the depth each row reaches
        rather than the deepest leaf.
        """
        n, m = X.shape
        if self.split.any() and int(self.column.max()) >= m:
            raise ValidationError(
                f"model routes on feature {int(self.column.max()) + 1}, rows have {m}"
            )
        node = np.repeat(self.roots, n)
        row_start = np.tile(np.arange(n) * m, self.roots.size)
        live, at = np.arange(node.size), node
        flat = X.ravel()
        while True:
            inner = self.split.take(at)
            routed = np.count_nonzero(inner)
            if not routed:
                break
            if 2 * routed <= at.size:
                node[live] = at
                live, at, row_start = live[inner], at[inner], row_start[inner]
            goes_left = flat.take(row_start + self.column.take(at)) <= self.threshold.take(at)
            at = self.child.take(2 * at + goes_left)
        node[live] = at
        return node.reshape(self.roots.size, n)


def apply_tree(tree: RegressionTree, X: np.ndarray) -> np.ndarray:
    """Leaf position (index among the leaves, in preorder) for every row of X."""
    nodes = _Routing.of(tree, [tree.feature.size]).leaves(_feature_rows(X))[0]
    return (np.cumsum(tree.feature < 0) - 1).take(nodes)


def predict_ensemble_matrix(ensemble: Ensemble, X: np.ndarray) -> np.ndarray:
    """Ensemble scores for every row of X.

    All trees are routed together one depth level at a time, in blocks of
    rows, through the routing table the ensemble stacked when it was built.
    Scores accumulate ``learning_rate * output`` tree by tree in
    ensemble order, as training does, so they are bit-identical to adding
    the trees one at a time.
    """
    X = _feature_rows(X)
    scores = np.full(X.shape[0], ensemble.init_score, dtype=np.float64)
    if not ensemble.trees:
        return scores
    routing = ensemble._routing
    step = max(1, _BLOCK_PAIRS // len(ensemble.trees))
    for start in range(0, X.shape[0], step):
        nodes = routing.leaves(X[start : start + step])
        terms = np.empty((nodes.shape[0] + 1, nodes.shape[1]), dtype=np.float64)
        terms[0] = ensemble.init_score
        np.multiply(routing.value.take(nodes), ensemble.learning_rate, out=terms[1:])
        # add.accumulate sums strictly in order, unlike add.reduce.
        scores[start : start + step] = np.add.accumulate(terms, axis=0, out=terms)[-1]
    return scores

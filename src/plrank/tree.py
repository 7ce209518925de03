"""Best-first regression trees and the boosted ensemble container.

Trees grow leaf-wise under a leaf budget: at every step the growable leaf
whose best split removes the most squared error is split, so small budgets
spend their leaves where they matter.

Each node scores every feature at once: the candidate cuts of all features
form one flat list, and only they get a gain. Candidate thresholds are
midpoints between consecutive distinct sorted feature values by default (the
lower value where the midpoint would overflow or round onto the upper one).
A training run sorts the columns once and ranks each column's distinct
values (:func:`sort_columns`). Each node of a tree is a span of one row
index, which a split partitions in place by ``value <= threshold`` on the
table; in exact mode it partitions one copy of the sorted rows and their
ranks alike, so no node sorts, and a cut lies wherever the rank rises
between two sorted neighbours. The tree search knows each training row's
leaf, so the caller gets those leaf positions without routing the rows
again, and it can set the leaf outputs before the one build of the tree. An
optional histogram mode trades exactness for speed: a training run codes
each column once into at most B quantile bins (:func:`bin_columns`), and a
node counts its rows and adds their responses per bin with two ``bincount``
calls, cutting after each bin it fills.

A tree is one preorder node table (:class:`RegressionTree`): fitting lists
its nodes by span start, the larger span first; the model file is it line
for line; and prediction routes every row through all trees of an ensemble
together, one depth level per step. A tree is a read-only value, checked
once when it is built (a model file's trees a run at a time, with one check
over their stacked columns); an :class:`Ensemble` is its trees and the
routing table it stacks from them once. Every prediction path rejects NaN in
its input.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, fields
from typing import Callable, ClassVar

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

# A node table's stored columns and their dtypes: what the model file holds.
_COLUMNS = {"feature": np.intp, "threshold": np.float64, "value": np.float64,
            "count": np.int64}
_FIELDS = (*_COLUMNS, "right")


@dataclass(frozen=True, eq=False)
class RegressionTree:
    """One tree as a preorder node table: one entry per node, root first.

    An internal node ``i`` routes a row left when ``row[feature[i]] <=
    threshold[i]``. Preorder fixes its children, so no column stores them:
    the left one is node ``i + 1`` and the right one, the read-only
    ``right[i]`` that building the tree derives, is the node after the left
    subtree. A leaf has ``feature == -1`` and ``right == -1``, and carries its
    output in ``value`` and its training document count in ``count`` (both 0
    on internal nodes, as a leaf's ``threshold`` is). The v1 model file is
    the four columns, one line per node. Building copies the columns and
    marks them read-only, so the caller's arrays stay its own and
    ``dataclasses.replace`` builds a changed tree. It raises
    :class:`ValidationError` unless the columns are 1-D of one length,
    finite, with counts >= 0, the rows one complete tree, and the numbers the
    model file does not hold at their fixed values: -1 for a leaf's feature,
    and 0 (or -0.0) for a leaf's threshold and a split's value and count.
    """

    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray
    count: np.ndarray
    right: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        columns = _checked_columns([getattr(self, name) for name in _COLUMNS], None)
        for name, column in zip(_FIELDS, columns):
            object.__setattr__(self, name, column)

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in _COLUMNS)

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


def _checked_columns(columns: list, sizes: list[int] | None) -> list[np.ndarray]:
    """Read-only copies of the stacked node columns of one tree (``sizes`` None)
    or of trees of ``sizes`` rows each, and their ``right`` column, checked at
    once as :class:`RegressionTree` documents; an error numbers its node within
    its tree."""
    columns = [np.array(column, dtype=dtype) for column, dtype in zip(columns, _COLUMNS.values())]
    for column in columns:
        column.flags.writeable = False
    shapes = [column.shape for column in columns]
    if len(set(shapes)) > 1 or len(shapes[0]) != 1:
        raise ValidationError(f"columns {', '.join(_COLUMNS)} must be 1-D and of one "
                              f"length, got shapes {', '.join(map(str, shapes))}")
    feature, threshold, value, count = columns
    sizes = np.array([feature.size] if sizes is None else sizes, dtype=np.intp)
    first = np.cumsum(sizes) - sizes  # each tree's first row
    base = np.repeat(first, sizes)  # each row's tree's first row
    bad = ~np.isfinite(threshold) | ~np.isfinite(value) | (count < 0)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValidationError(f"node {i - base[i]} has t={threshold[i]} v={value[i]} "
                              f"n={count[i]}; t and v must be finite and n >= 0")
    leaf = feature < 0
    unsaved = np.where(leaf, (feature != -1) | (threshold != 0), (value != 0) | (count != 0))
    if unsaved.any():
        i = int(np.argmax(unsaved))
        kind, holds = ("leaf", "f=-1 and t=0") if leaf[i] else ("split", "v=0 and n=0")
        raise ValidationError(f"{kind} node {i - base[i]} has f={feature[i]} t={threshold[i]} "
                              f"v={value[i]} n={count[i]}; a {kind} must have {holds}")
    return columns + [_preorder_right(~leaf, sizes, first, base)]


def _preorder_right(split: np.ndarray, sizes: np.ndarray, first: np.ndarray,
                    base: np.ndarray) -> np.ndarray:
    """Each preorder row's right child (-1 at leaves), numbered within its
    tree, for stacked trees of ``sizes`` rows from rows ``first``; ``base``
    is each row's tree's first row. Raise unless each tree's rows are one
    whole tree.

    Each row fills one open child slot and a split opens two, so a tree has
    one slot open before its root and is whole when its slots first run out
    at its last row. A split's right child follows the row where the slots
    fall back to their count before the split: at each count, rows alternate
    between a split that rises from it and the leaf that returns to it.
    """
    step = np.where(split, 1, -1)
    steps = step.cumsum()
    slots = steps - (steps - step)[base] + 1  # open slots after each row
    last = first + sizes - 1
    whole = slots > 0
    whole[last[sizes > 0]] ^= True  # a tree's last row must close its last slot
    if not (whole.all() and sizes.all()):
        rows = np.flatnonzero(~whole)
        t = min(np.flatnonzero(sizes == 0).tolist()
                + np.searchsorted(last, rows[:1]).tolist())  # the first tree that is not whole
        out = np.flatnonzero(slots[first[t]:last[t] + 1] == 0)[:1].tolist()
        if out and out[0] < sizes[t] - 1:
            i = out[0]
            raise ValidationError(f"node {i + 1} is unreachable: the tree ends at node {i}")
        raise ValidationError(f"{sizes[t]} nodes end before every split has both children")
    level = slots - split  # the lower slot count on either side of the row
    order = np.argsort(base + level, kind="stable")
    order = order[level[order] > 0]  # a tree's last row is alone at count 0
    right = np.full(split.size, -1, dtype=np.intp)
    opens = order[0::2]
    right[opens] = order[1::2] + 1 - base[opens]
    right.flags.writeable = False
    return right


def _stacked_trees(columns: list[np.ndarray], sizes: list[int]) -> list[RegressionTree]:
    """Trees of ``sizes`` rows each from the stacked columns ``feature``,
    ``threshold``, ``value`` and ``count``, checked at once; each tree's
    columns are read-only views of one copy of the stacked ones."""
    columns = _checked_columns(columns, sizes)
    ends = np.cumsum(sizes).tolist()
    trees = []
    for start, stop in zip([0] + ends, ends):
        tree = object.__new__(RegressionTree)
        for name, column in zip(_FIELDS, columns):
            object.__setattr__(tree, name, column[start:stop])
        trees.append(tree)
    return trees


@dataclass(frozen=True)
class Ensemble:
    """A boosted model. Neither it nor its trees change, so it holds the trees
    as given; ``dataclasses.replace`` builds a changed one.

    ``num_features`` defaults to one more than the highest split feature (0
    with no splits). Building raises :class:`ValidationError` unless the
    model is what a model file can hold: a known tree loss, an integer
    ``top_k >= 1`` and ``num_features >= 0`` above every split feature, and
    a finite ``learning_rate`` and ``init_score``. The header messages name
    the model-file keys; a split outside the features names its tree and
    node.
    """

    trees: tuple[RegressionTree, ...] = ()
    learning_rate: float = 0.1
    init_score: float = 0.0
    loss: str = "plrank"
    top_k: int = 10
    num_features: int | None = None
    # Derived from trees, so equality, repr and the model file ignore it.
    _routing: _Routing = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.loss not in TREE_LOSSES:
            raise ValidationError(f"unknown loss {self.loss!r}")
        for key, number in (("alpha", self.learning_rate), ("init", self.init_score)):
            if not math.isfinite(number):
                raise ValidationError(f"{key} must be finite, got {number!r}")
        object.__setattr__(self, "trees", tuple(self.trees))
        widths = [int(tree.feature.max(initial=-1)) + 1 for tree in self.trees]
        if self.num_features is None:
            object.__setattr__(self, "num_features", max(widths, default=0))
        for key, number, floor in (("topk", self.top_k, 1), ("features", self.num_features, 0)):
            if isinstance(number, bool) or not isinstance(number, (int, np.integer)):
                raise ValidationError(f"{key} must be an integer, got {number!r}")
            if number < floor:
                raise ValidationError(f"{key} must be >= {floor}, got {number}")
        for t, (tree, width) in enumerate(zip(self.trees, widths)):
            if width > self.num_features:
                i = int(np.argmax(tree.feature >= self.num_features))
                raise ValidationError(
                    f"tree {t} node {i}: feature index {tree.feature[i] + 1} "
                    f"outside 1..{self.num_features}"
                )
        object.__setattr__(self, "_routing", _Routing.of(self.trees))

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)

    @property
    def split_width(self) -> int:
        """One past the highest feature a split routes on: the row width
        scoring needs, which ``num_features`` may exceed."""
        routing = self._routing
        return int(routing.column.max(initial=-1, where=routing.split)) + 1


@dataclass(frozen=True, eq=False)
class SortedColumns:
    """Rows of a feature matrix sorted per column: what exact split search reads.

    ``values`` is the (features x rows) float64 matrix, a view of the table,
    and ``order`` each column's row ids sorted by value, ties by row id, as
    int32. ``ranks`` holds each column's dense int32 value ranks in that
    sorted order, so two sorted neighbours tie exactly when their ranks are
    equal. Each tree partitions its own copy of ``order`` and ``ranks``
    (:func:`fit_tree`).
    """

    values: np.ndarray
    order: np.ndarray
    ranks: np.ndarray
    bins: ClassVar[int] = 0  # exact search


def sort_columns(X: np.ndarray) -> SortedColumns:
    """Sort every column of ``X`` once, ties by row id, and rank its values.

    A training run builds this once and hands it to every :func:`fit_tree`,
    whose splits partition a copy of it down the tree, so no node sorts or
    compares float values to find ties. ``values`` is ``X.T``, not a copy.
    """
    values = np.asarray(X, dtype=np.float64).T
    m, n = values.shape
    order = np.empty((m, n), dtype=np.int32)
    ranks = np.zeros((m, n), dtype=np.int32)
    for f, column in enumerate(values):
        order[f] = np.argsort(column, kind="stable")
        ordered = column.take(order[f])
        np.cumsum(ordered[1:] != ordered[:-1], dtype=np.int32, out=ranks[f, 1:])
    return SortedColumns(values, order, ranks)


@dataclass(frozen=True, eq=False)
class BinnedColumns:
    """A feature matrix coded into quantile bins: what histogram split search reads.

    Column ``f`` ranks its ``d`` distinct values and puts rank ``r`` in bin
    ``r * w // d``, with ``w = min(bins, d)``: codes rise with the value, and
    no column has more bins than values. ``keys`` is the (features x rows)
    table of ``f * width + code``, one histogram slot per (feature, bin),
    where ``width`` is the widest column's ``w``. ``thresholds`` is the
    (features x width) table of the largest training value in bins ``<= b``
    (a zero as +0.0, whichever sign its rows hold), so ``value <=
    thresholds[f, b]`` routes every training row of bins ``<= b`` left and
    no other. Every node reads the whole table.
    """

    keys: np.ndarray
    thresholds: np.ndarray
    bins: int


def bin_columns(X: np.ndarray, bins: int) -> BinnedColumns:
    """Code every column of ``X`` once into at most ``bins`` quantile bins.

    A training run builds this once and hands it to every :func:`fit_tree`;
    its nodes only count rows and add responses per key.
    """
    values = np.asarray(X, dtype=np.float64).T
    codes, tops = [], []
    for column in values:
        distinct, rank = np.unique(column, return_inverse=True)
        d = distinct.size
        w = min(bins, d)
        codes.append(rank * w // d)
        # The last distinct value of each bin, as the bins rise.
        last = np.flatnonzero(np.diff(np.arange(d) * w // d, append=w))
        tops.append(distinct[last] + 0.0)
    width = max((top.size for top in tops), default=1)
    # A bin past a column's last has the column's largest value.
    thresholds = np.array([np.pad(top, (0, width - top.size), "edge") for top in tops])
    thresholds = thresholds.reshape(len(tops), width)
    keys = np.array(codes, dtype=np.intp).reshape(values.shape)
    keys += np.arange(0, keys.shape[0] * width, width)[:, None]
    return BinnedColumns(keys, thresholds, bins)


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


def _strongest(
    left_sum: np.ndarray, left_cnt: np.ndarray, total: float, n: int
) -> tuple[float, int] | None:
    """(gain, index) of the largest gain among candidate cuts given by their
    left sums and counts, or None when no gain exceeds ``_GAIN_EPS``.

    Candidates come feature by feature in increasing threshold order, so ties
    go to the lowest feature, then the lowest threshold. A gain is capped at
    +inf, which fmin also gives a NaN one (an overflowed inf - inf).
    """
    if not left_sum.size:
        return None
    gains = _sse_gains(left_sum, left_cnt, total, n)
    np.fmin(gains, np.inf, out=gains)
    best = int(np.argmax(gains))
    gain = float(gains[best])
    return None if gain <= _GAIN_EPS else (gain, best)


def _best_split(
    y: np.ndarray,
    idx: np.ndarray,
    columns: SortedColumns | BinnedColumns,
    min_leaf_docs: int,
) -> tuple[float, int, float] | None:
    """Strongest (gain, feature, threshold) for the documents in ``idx``.

    ``idx`` holds the node's documents in increasing order. Gain is the
    squared-error reduction, and every feature is scored at once: the
    candidate cuts of all features are one flat list, and only they get a
    gain. Exact mode reads ``columns``, the node's share of
    :func:`sort_columns`: a cut lies where the value rank rises between two
    sorted neighbours, at the midpoint of their values. Histogram mode reads
    the whole of :func:`bin_columns`: one ``bincount`` of the node's keys
    counts its rows per (feature, bin) and one adds their responses, both in
    row order; a cut follows each bin the node fills, at the largest
    training value in the bins up to it.
    """
    n = idx.size
    if n < 2 * min_leaf_docs:
        return None
    ysub = y[idx]
    if ysub.max() == ysub.min():
        return None
    total = ysub.sum()
    if columns.bins:
        m, width = columns.thresholds.shape
        keys = columns.keys.take(idx, axis=1).ravel()
        counts = np.bincount(keys, minlength=m * width)
        sums = np.bincount(keys, weights=np.tile(ysub, m), minlength=m * width)
        # Slot f * width + b cuts feature f after bin b.
        left_cnt = np.cumsum(counts.reshape(m, width), axis=1).ravel()
        left_sum = np.cumsum(sums.reshape(m, width), axis=1).ravel()
        cuts = np.flatnonzero(
            (counts > 0) & (left_cnt >= min_leaf_docs) & (n - left_cnt >= min_leaf_docs)
        )
        found = _strongest(left_sum.take(cuts), left_cnt.take(cuts), total, n)
        if found is None:
            return None
        gain, best = found
        cut = int(cuts[best])
        return gain, cut // width, float(columns.thresholds.flat[cut])
    # Cut j of feature f, at f * n + j of the flat (features x rows) tables,
    # puts its first j + 1 sorted documents left; lo..hi keeps min_leaf_docs
    # on each side.
    lo, hi = min_leaf_docs - 1, n - min_leaf_docs
    changed = np.zeros(columns.order.shape, dtype=bool)
    np.not_equal(columns.ranks[:, lo + 1 : hi + 1], columns.ranks[:, lo:hi], out=changed[:, lo:hi])
    cuts = np.flatnonzero(changed)
    left_sum = y.take(columns.order)
    np.cumsum(left_sum, axis=1, out=left_sum)
    left_sum = left_sum.ravel().take(cuts)
    found = _strongest(left_sum, cuts % n + 1, total, n)
    if found is None:
        return None
    gain, best = found
    feat, pos = divmod(int(cuts[best]), n)
    below, above = columns.values[feat, columns.order[feat, pos : pos + 2]].tolist()
    # The midpoint overflows to inf above DBL_MAX / 2 and rounds up to
    # ``above`` between adjacent doubles; ``below`` cuts the same partition.
    threshold = 0.5 * (below + above)
    if not below <= threshold < above:
        threshold = below
    return gain, feat, threshold


def _partition(span: np.ndarray, first: np.ndarray) -> None:
    """Stably move the columns of ``span`` where ``first`` is set to its front."""
    rest = span.compress(~first, axis=-1)
    cut = span.shape[-1] - rest.shape[-1]
    span[..., :cut] = span.compress(first, axis=-1)
    span[..., cut:] = rest


def fit_tree(
    features: np.ndarray,
    responses: np.ndarray,
    leaf_limit: int,
    min_leaf_docs: int = 1,
    bins: int = 0,
    *,
    columns: SortedColumns | BinnedColumns | None = None,
    leaf_of_row: np.ndarray | None = None,
    leaf_values: Callable[[np.ndarray, int], np.ndarray] | None = None,
) -> RegressionTree:
    """Fit an L-leaf tree to per-document responses by squared-error splits.

    ``columns`` is what a caller fitting many trees to the same matrix
    builds once, and it is only read; without it, it is built here. Each
    node is a span of one row index, which its split partitions in place by
    ``value <= threshold`` on ``features``, as prediction routes, and
    stably, so a node's rows stay in increasing order. Exact search
    (``bins == 0``) walks each column in sorted order: ``columns`` is
    :func:`sort_columns` of ``features``, and each tree partitions one copy
    of its ``order`` and ``ranks``, stacked, so nothing is sorted again, and
    ties are equal neighbouring ranks. ``bins >= 2`` searches histograms of
    at most that many quantile bins per feature, fixed for the run:
    ``columns`` is :func:`bin_columns` of ``features`` with the same
    ``bins``, and each node counts its rows' codes (a speed knob for large
    data, off by default). The two children of the split that fills the leaf
    budget are not searched. A split puts its left child's rows first in its
    span, so the table lists the nodes by span start, larger span first.

    The leaves output their mean responses, unless ``leaf_values(positions,
    leaf_count)`` gives them, and then no mean is computed: ``positions`` is
    every row's leaf position (its index among the leaves, in preorder, as
    :func:`apply_tree` numbers them). ``leaf_of_row``, if given, receives
    those positions. The tree is built once, when it is done.
    """
    X = _feature_rows(features)
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
    if columns is None:
        columns = bin_columns(X, bins) if bins else sort_columns(X)
    elif columns.bins != bins or (columns.keys if bins else columns.values).shape != X.shape[::-1]:
        raise ValidationError("columns must be sort_columns, or bin_columns with the same "
                              "bins, of the features")
    if leaf_of_row is not None and leaf_of_row.shape != y.shape:
        raise ValidationError("leaf_of_row must hold one entry per document")

    # Node [lo, hi) holds rows[lo:hi] and, in exact mode, columns m * lo to
    # m * hi of the work table, whose rows are order and ranks.
    n, m = X.shape
    rows = np.arange(n)
    if not bins:
        work = np.stack((columns.order.ravel(), columns.ranks.ravel()))
        goes_left = np.empty(n, dtype=bool)  # set for a split node's rows only

    def share(lo: int, hi: int) -> SortedColumns | BinnedColumns:
        if bins:
            return columns
        order, ranks = work[:, m * lo : m * hi].reshape(2, m, hi - lo)
        return SortedColumns(columns.values, order, ranks)

    # Each node in creation order: its span rows[start : start + size] and its
    # split (feature -1 at a leaf).
    nodes: list[tuple[int, int, int, float]] = []  # (start, size, feature, threshold)
    frontier: list[tuple[float, int, int, int, int, float]] = []  # (-gain, node, lo, hi, split)

    def grow(lo: int, hi: int, search: bool) -> None:
        nodes.append((lo, hi - lo, -1, 0.0))
        split = _best_split(y, rows[lo:hi], share(lo, hi), min_leaf_docs) if search else None
        if split is not None:
            # Creation order breaks ties in gain.
            heapq.heappush(frontier, (-split[0], len(nodes) - 1, lo, hi, split[1], split[2]))

    grow(0, n, True)
    leaf_count = 1
    while leaf_count < leaf_limit and frontier:
        _, k, lo, hi, feat, cut = heapq.heappop(frontier)
        nodes[k] = lo, hi - lo, feat, cut
        leaf_count += 1
        # Nothing reads the splits of the two children that fill the budget.
        search = leaf_count < leaf_limit
        node = rows[lo:hi]
        left = X[node, feat] <= cut
        mid = lo + int(np.count_nonzero(left))
        if search and not bins:
            goes_left[node] = left
            _partition(work[:, m * lo : m * hi], goes_left.take(work[0, m * lo : m * hi]))
        _partition(node, left)
        grow(lo, mid, search)
        grow(mid, hi, search)

    # A split's span is its left child's, then its right child's, both non-empty:
    # ordered by start, larger span first, the nodes are in preorder and the leaves tile rows.
    start, size, feature, threshold = map(np.array, zip(*nodes))
    preorder = np.lexsort((-size, start))
    is_leaf = feature[preorder] < 0
    leaf_size = size[preorder[is_leaf]]
    positions = np.empty(y.size, dtype=np.intp) if leaf_of_row is None else leaf_of_row
    positions[rows] = np.repeat(np.arange(leaf_count), leaf_size)
    value = np.zeros(preorder.size)
    if leaf_values is None:
        value[is_leaf] = [part.mean() for part in np.split(y[rows], np.cumsum(leaf_size)[:-1])]
    else:
        value[is_leaf] = leaf_values(positions, leaf_count)
    return RegressionTree(
        feature=feature[preorder],
        threshold=threshold[preorder],
        value=value,
        count=np.where(is_leaf, size[preorder], 0),
    )


# Tree x row pairs routed at once by predict_ensemble_matrix: a query
# against a few hundred trees is one block, and a large batch keeps a working
# set of a few MB.
_BLOCK_PAIRS = 1 << 15


def _feature_rows(X: np.ndarray) -> np.ndarray:
    """``X`` as a C-ordered float matrix; every training and prediction path rejects NaN."""
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
    def of(cls, trees: tuple[RegressionTree, ...]) -> "_Routing":
        """Routing for ``trees``, stacked end to end. A tree's children are
        later nodes of its own table and no tree changes once built: routing ends.
        """
        feature, threshold, value, right = (
            np.concatenate([np.empty(0, dtype)] + [getattr(tree, name) for tree in trees])
            for name, dtype in [("feature", np.intp), ("threshold", np.float64),
                                ("value", np.float64), ("right", np.intp)])
        sizes = np.array([tree.feature.size for tree in trees], dtype=np.intp)
        roots = np.cumsum(sizes) - sizes
        split = feature >= 0
        own = np.arange(split.size)
        child = np.empty(2 * split.size, dtype=np.intp)
        child[0::2] = np.where(split, right + np.repeat(roots, sizes), own)
        child[1::2] = np.where(split, own + 1, own)
        return cls(
            split=split,
            column=np.where(split, feature, 0),
            threshold=threshold,
            child=child,
            value=value,
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
                live, at, row_start = (a.compress(inner) for a in (live, at, row_start))
            goes_left = flat.take(row_start + self.column.take(at)) <= self.threshold.take(at)
            at = self.child.take(2 * at + goes_left)
        node[live] = at
        return node.reshape(self.roots.size, n)


def apply_tree(tree: RegressionTree, X: np.ndarray) -> np.ndarray:
    """Leaf position (index among the leaves, in preorder) for every row of X."""
    routing = _Routing.of((tree,))
    nodes = routing.leaves(_feature_rows(X))[0]
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

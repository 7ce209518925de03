"""Reference split search: one feature at a time, each re-sorted per node.

This is the per-feature loop that ``plrank.tree`` used before its split
search evaluated all features in one gain matrix. It is kept as the oracle
the fast search must match bit for bit: the same (gain, feature, threshold),
with ties going to the lowest feature and then the lowest threshold.
"""

import numpy as np

from plrank.tree import _GAIN_EPS


def exact_candidates(values, ysub, total, min_leaf_docs):
    """Gains at midpoints between consecutive distinct sorted values."""
    n = values.size
    order = np.argsort(values, kind="stable")
    v = values[order]
    left_cnt = np.arange(1, n, dtype=np.float64)
    right_cnt = n - left_cnt
    left_sum = np.cumsum(ysub[order])[:-1]
    right_sum = total - left_sum
    gains = left_sum**2 / left_cnt + right_sum**2 / right_cnt - total * total / n
    valid = (
        (v[1:] != v[:-1])
        & (left_cnt >= min_leaf_docs)
        & (right_cnt >= min_leaf_docs)
    )
    if not valid.any():
        return None
    with np.errstate(over="ignore"):
        mid = 0.5 * (v[:-1] + v[1:])
    # A midpoint that overflows or rounds up onto the upper value cuts at
    # the lower value instead.
    return gains, valid, np.where((v[:-1] <= mid) & (mid < v[1:]), mid, v[:-1])


def binned_candidates(column, idx, ysub, total, min_leaf_docs, bins):
    """Gains at the boundaries of quantile bins coded once over the whole column.

    The ``d`` distinct values of the training ``column`` are ranked, and rank
    ``r`` goes to bin ``r * w // d`` with ``w = min(bins, d)``. The node's rows
    ``idx`` are binned in increasing row order, and a cut follows each bin
    the node fills. The reported threshold is the largest training value in
    the left bins (a zero as +0.0), so routing by ``value <= threshold``
    reproduces the histogram partition of every training row.
    """
    n = idx.size
    distinct = np.unique(column)
    d = distinct.size
    w = min(bins, d)
    bin_of_distinct = np.arange(d) * w // d
    tops = np.array([distinct[bin_of_distinct <= b].max() for b in range(w)]) + 0.0
    codes = bin_of_distinct[np.searchsorted(distinct, column[idx])]
    counts = np.bincount(codes, minlength=w)
    sums = np.bincount(codes, weights=ysub, minlength=w)
    left_cnt = np.cumsum(counts)[:-1].astype(np.float64)
    right_cnt = n - left_cnt
    left_sum = np.cumsum(sums)[:-1]
    right_sum = total - left_sum
    valid = (counts[:-1] > 0) & (left_cnt >= min_leaf_docs) & (right_cnt >= min_leaf_docs)
    if not valid.any():
        return None
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = (
            left_sum**2 / left_cnt + right_sum**2 / right_cnt - total * total / n
        )
    return gains, valid, tops[:-1]


def reference_best_split(X, y, idx, min_leaf_docs, bins=0):
    """Strongest (gain, feature, threshold) for the documents in ``idx``.

    ``X`` is the whole training matrix: histogram bins are coded from its
    columns, not from the node's rows.
    """
    n = idx.size
    if n < 2 * min_leaf_docs:
        return None
    ysub = y[idx]
    if ysub.max() == ysub.min():
        return None
    total = ysub.sum()
    best = None
    for feat in range(X.shape[1]):
        if bins:
            found = binned_candidates(X[:, feat], idx, ysub, total, min_leaf_docs, bins)
        else:
            found = exact_candidates(X[idx, feat], ysub, total, min_leaf_docs)
        if found is None:
            continue
        gains, valid, thresholds = found
        gains = np.where(valid, gains, -np.inf)
        pos = int(np.argmax(gains))  # first max = lowest threshold
        gain = float(gains[pos])
        if gain <= _GAIN_EPS:
            continue
        if best is None or gain > best[0]:
            best = (gain, feat, float(thresholds[pos]))
    return best

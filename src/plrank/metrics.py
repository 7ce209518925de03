"""Ranking quality measures: NDCG@K and the cascade metric ERR.

Gains are exponential, G(r) = 2^r - 1, with the usual log2 position discount.
ERR follows the cascade model: a document with grade g stops the scan with
probability (2^g - 1) / 2^g_max.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset
from .errors import ValidationError, check_count

DEGENERATE_POLICIES = ("zero", "one", "skip")


def dcg_at_k(grades_in_rank_order: Sequence[int], k: int) -> float:
    """Discounted cumulative gain of the first min(k, n) positions."""
    check_count(k, "cutoff k", 1)
    total = 0.0
    for pos, grade in enumerate(grades_in_rank_order[:k], start=1):
        total += (2.0 ** grade - 1.0) / math.log2(pos + 1)
    return total


def ndcg_at_k(
    grades_in_model_order: Sequence[int],
    k: int,
    degenerate_policy: str = "zero",
) -> float | None:
    """NDCG@K of a grade list given in model-ranked order.

    Queries whose ideal DCG is zero (all grades zero) are resolved by
    ``degenerate_policy``: "zero" and "one" return that constant, "skip"
    returns None so callers can drop the query from averages.
    """
    if degenerate_policy not in DEGENERATE_POLICIES:
        raise ValidationError(f"unknown degenerate policy {degenerate_policy!r}")
    ideal = dcg_at_k(sorted(grades_in_model_order, reverse=True), k)
    if ideal == 0.0:
        if degenerate_policy == "zero":
            return 0.0
        if degenerate_policy == "one":
            return 1.0
        return None
    return dcg_at_k(grades_in_model_order, k) / ideal


def err(grades_in_model_order: Sequence[int], g_max: int) -> float:
    """Expected reciprocal rank under the cascade user model."""
    check_count(g_max, "g_max", 1)
    total = 0.0
    not_stopped = 1.0
    for pos, grade in enumerate(grades_in_model_order, start=1):
        check_count(grade, "grade", 0)
        if grade > g_max:
            raise ValidationError(f"grade {grade} exceeds g_max {g_max}")
        # (2**grade - 1) / 2**g_max; neither power is a float from 1024 on.
        stop = math.ldexp(1.0 - 2.0 ** -grade, operator.index(grade - g_max))
        total += not_stopped * stop / pos
        not_stopped *= 1.0 - stop
    return total


@dataclass
class EvalReport:
    """Per-query means of one :func:`evaluate` call. The formatters print
    what it holds: the ERR only where ``err`` is not None."""

    ndcg_at: dict[int, float]
    err: float | None  # None when evaluate was told not to compute it
    degenerate_query_count: int
    query_count: int

    def format_text(self) -> str:
        rows = [("queries", str(self.query_count)),
                ("degenerate queries", str(self.degenerate_query_count))]
        for k in sorted(self.ndcg_at):
            rows.append((f"NDCG@{k}", f"{self.ndcg_at[k]:.6f}"))
        if self.err is not None:
            rows.append(("ERR", f"{self.err:.6f}"))
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}} : {value}" for name, value in rows)

    def format_keyvalues(self) -> str:
        parts = [f"queries={self.query_count}",
                 f"degenerate={self.degenerate_query_count}"]
        parts += [f"ndcg@{k}={self.ndcg_at[k]!r}" for k in sorted(self.ndcg_at)]
        if self.err is not None:
            parts.append(f"err={self.err!r}")
        return "\n".join(parts)


def rank_order(scores: np.ndarray) -> np.ndarray:
    """Indices that sort scores descending, ties by ascending original index."""
    return np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")


def _running_sums(terms: np.ndarray) -> np.ndarray:
    """Each row's sums of its first 0..n terms, added to 0.0 one at a time
    and in order, as :func:`dcg_at_k` and :func:`err` add them (never
    pairwise, as ``.sum`` adds)."""
    sums = np.zeros((terms.shape[0], terms.shape[1] + 1))
    sums[:, 1:] = terms
    return np.add.accumulate(sums, axis=1, out=sums)


def evaluate(
    dataset: Dataset,
    scores: Sequence[float],
    cutoffs: Sequence[int] = (1, 3, 10),
    g_max: int | None = None,
    degenerate_policy: str = "zero",
    *,
    include_err: bool = True,
) -> EvalReport:
    """Score every query and average the metrics across queries.

    ``scores`` is a flat per-document array of finite values aligned with the
    dataset's original line order (one entry per document ordinal, from 0).
    With ``include_err`` false no ERR is computed and the report's ``err`` is
    None; the NDCG values do not change.

    The arguments are checked before any query is scored: the scores, then
    the degenerate policy, each cutoff, ``g_max`` when ERR is computed, and
    last a grade above ``g_max`` (the first in query order, then rank order).
    Queries of one length are ranked together, one row each, with one stable
    sort; every value is bit-identical to :func:`rank_order`,
    :func:`ndcg_at_k` and :func:`err` applied query by query, and the means
    average the per-query values in query order.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (dataset.num_documents,):
        raise ValidationError(
            f"got {scores.size} scores for {dataset.num_documents} documents"
        )
    if not np.isfinite(scores).all():
        i = int(np.argmin(np.isfinite(scores)))
        raise ValidationError(f"non-finite score {float(scores[i])!r} for document {i}")
    if g_max is None:
        g_max = max(dataset.max_grade, 1)
    if degenerate_policy not in DEGENERATE_POLICIES:
        raise ValidationError(f"unknown degenerate policy {degenerate_policy!r}")
    cutoffs = list(cutoffs)
    for k in cutoffs:
        check_count(k, "cutoff k", 1)

    # Query q is rows[starts[q] : starts[q] + sizes[q]] of the flat row list.
    groups = dataset.groups
    sizes = np.array([group.doc_ids.size for group in groups], dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    rows = np.concatenate([np.empty(0, np.intp)] + [group.doc_ids for group in groups])
    grades = dataset.grades.take(rows)
    if include_err:
        check_count(g_max, "g_max", 1)
        top = int(grades.max(initial=0))
        if top > g_max:
            group = groups[int(np.searchsorted(starts, np.argmax(grades > g_max), "right")) - 1]
            ranked = group.relevances()[rank_order(scores[group.doc_ids])]
            raise ValidationError(f"grade {ranked[ranked > g_max][0]} exceeds g_max {g_max}")
        # A stop probability 2**-1100 of its grade's is 0.0 (the smallest
        # double is 2**-1074), so a g_max further above the grades changes
        # no bit and the exponents stay small.
        g_max = min(g_max, top + 1100)

    discounts = np.array([math.log2(pos + 1) for pos in range(1, sizes.max(initial=0) + 1)])
    ndcg = {k: np.empty(len(groups)) for k in cutoffs}
    err_values = np.empty(len(groups))
    # All grades 0: no ideal ordering, and an ideal DCG of 0 at every cutoff.
    degenerate = np.zeros(len(groups), dtype=bool)
    for n in np.flatnonzero(np.bincount(sizes)).tolist():  # np.unique would import numpy.ma
        queries = np.flatnonzero(sizes == n)
        at = starts[queries, None] + np.arange(n)
        order = np.argsort(-scores.take(rows.take(at)), axis=1, kind="stable")
        ranked = np.take_along_axis(grades.take(at), order, axis=1)
        zero = degenerate[queries] = ~ranked.any(axis=1)
        gains = np.ldexp(1.0, ranked) - 1.0
        dcg = _running_sums(gains / discounts[:n])
        ideal = _running_sums(np.sort(gains, axis=1)[:, ::-1] / discounts[:n])
        for k in cutoffs:
            with np.errstate(invalid="ignore"):
                value = dcg[:, min(k, n)] / ideal[:, min(k, n)]
            value[zero] = 1.0 if degenerate_policy == "one" else 0.0
            ndcg[k][queries] = value
        if include_err:
            stop = np.ldexp(1.0 - np.ldexp(1.0, -ranked), ranked - g_max)
            not_stopped = np.ones((queries.size, n))
            np.multiply.accumulate(1.0 - stop[:, :-1], axis=1, out=not_stopped[:, 1:])
            err_values[queries] = _running_sums(not_stopped * stop / np.arange(1, n + 1))[:, -1]

    # Each cutoff averages one value per query and listing, as the per-query loop appended them.
    kept = ~degenerate if degenerate_policy == "skip" else np.ones(len(groups), dtype=bool)
    ndcg_means = {
        k: float(np.mean(values[kept].repeat(cutoffs.count(k)))) if kept.any() else 0.0
        for k, values in ndcg.items()
    }
    err_mean = float(np.mean(err_values)) if len(groups) else 0.0
    return EvalReport(
        ndcg_at=ndcg_means,
        err=err_mean if include_err else None,
        degenerate_query_count=int(np.count_nonzero(degenerate)),
        query_count=len(groups),
    )

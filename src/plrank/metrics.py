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

    ndcg_values: dict[int, list[float]] = {k: [] for k in cutoffs}
    err_values: list[float] = []
    degenerate = 0
    for group in dataset.groups:
        rel = group.relevances()
        order = rank_order(scores[group.doc_ids])
        ranked = rel[order].tolist()
        if not any(ranked):
            degenerate += 1
        for k in cutoffs:
            value = ndcg_at_k(ranked, k, degenerate_policy)
            if value is not None:
                ndcg_values[k].append(value)
        if include_err:
            err_values.append(err(ranked, g_max))

    ndcg_means = {
        k: (float(np.mean(vals)) if vals else 0.0) for k, vals in ndcg_values.items()
    }
    err_mean = float(np.mean(err_values)) if err_values else 0.0
    return EvalReport(
        ndcg_at=ndcg_means,
        err=err_mean if include_err else None,
        degenerate_query_count=degenerate,
        query_count=len(dataset.groups),
    )

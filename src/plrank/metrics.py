"""Ranking quality measures: NDCG@K and the cascade metric ERR.

Gains are exponential, G(r) = 2^r - 1, with the usual log2 position discount.
ERR follows the cascade model: a document with grade g stops the scan with
probability (2^g - 1) / 2^g_max.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .data import Dataset
from .errors import ValidationError, check_count, check_name, float_array

DEGENERATE_POLICIES = ("zero", "one", "skip")
# The highest grade the DCG-based metrics take: 2**1023 - 1 is the largest
# gain that is a finite double.
MAX_GAIN_GRADE = 1023
DCG_OVERFLOW = "a DCG exceeds the largest double"


def gain_grades(grades: Iterable[int]) -> list[int]:
    """``grades`` as Python ints, or ValidationError at the first that is not
    an integer (an ``int`` or numpy integer, not a ``bool``) from 0 to
    :data:`MAX_GAIN_GRADE`."""
    checked = []
    for grade in grades:
        check_count(grade, "grade", 0)
        if grade > MAX_GAIN_GRADE:
            raise ValidationError(f"grade must be <= {MAX_GAIN_GRADE}, got {grade}")
        checked.append(int(grade))
    return checked


def dcg_at_k(grades_in_rank_order: Sequence[int], k: int) -> float:
    """Discounted cumulative gain of the first min(k, n) positions.

    Every grade given is checked by :func:`gain_grades`, and a DCG past the
    largest double raises ValidationError.
    """
    check_count(k, "cutoff k", 1)
    total = 0.0
    for pos, grade in enumerate(gain_grades(grades_in_rank_order)[:k], start=1):
        total += (2.0 ** grade - 1.0) / math.log2(pos + 1)
    if total == math.inf:
        raise ValidationError(DCG_OVERFLOW)
    return total


def ndcg_at_k(
    grades_in_model_order: Sequence[int],
    k: int,
    degenerate_policy: str = "zero",
) -> float | None:
    """NDCG@K of a grade list given in model-ranked order.

    Queries whose ideal DCG is zero (all grades zero) are resolved by
    ``degenerate_policy``: "zero" and "one" return that constant, "skip"
    returns None so callers can drop the query from averages. The policy is
    checked first, then every grade and ``k`` as :func:`dcg_at_k` checks them.
    """
    check_name(degenerate_policy, DEGENERATE_POLICIES, "degenerate policy")
    grades = gain_grades(grades_in_model_order)
    ideal = dcg_at_k(sorted(grades, reverse=True), k)
    if ideal == 0.0:
        if degenerate_policy == "zero":
            return 0.0
        if degenerate_policy == "one":
            return 1.0
        return None
    return dcg_at_k(grades, k) / ideal


def err(grades_in_model_order: Sequence[int], g_max: int) -> float:
    """Expected reciprocal rank under the cascade user model."""
    check_count(g_max, "g_max", 1)
    g_max = operator.index(g_max)
    total = 0.0
    not_stopped = 1.0
    for pos, grade in enumerate(grades_in_model_order, start=1):
        check_count(grade, "grade", 0)
        grade = operator.index(grade)
        if grade > g_max:
            raise ValidationError(f"grade {grade} exceeds g_max {g_max}")
        # (2**grade - 1) / 2**g_max in Python integers' exponents: neither
        # power is a float from 1024 on.
        stop = math.ldexp(1.0 - math.ldexp(1.0, -grade), grade - g_max)
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
    None; the NDCG values do not change, and ``g_max`` is checked all the same.

    The arguments are checked before any query is scored: the scores, then
    the degenerate policy, each cutoff, ``g_max``, and then the grades. First
    comes :func:`err`'s rule (an integer from 0 to ``g_max``), then, unless
    ``cutoffs`` is empty, the rule of the DCG-based metrics (from 0 to
    :data:`MAX_GAIN_GRADE`); each names the first grade that breaks it in
    query order, then rank order. A DCG past the largest double raises
    ValidationError while the queries are scored.
    Queries of one length are ranked together, one row each, with one stable
    sort; every value is bit-identical to :func:`rank_order`,
    :func:`ndcg_at_k` and :func:`err` applied query by query, and the means
    average the per-query values in query order.
    """
    scores = float_array(scores, "scores")
    if scores.shape != (dataset.num_documents,):
        raise ValidationError(
            f"got {scores.size} scores for {dataset.num_documents} documents"
        )
    if not np.isfinite(scores).all():
        i = int(np.argmin(np.isfinite(scores)))
        raise ValidationError(f"non-finite score {float(scores[i])!r} for document {i}")
    if g_max is None:
        g_max = max(dataset.max_grade, 1)
    check_name(degenerate_policy, DEGENERATE_POLICIES, "degenerate policy")
    cutoffs = list(cutoffs)
    for k in cutoffs:
        check_count(k, "cutoff k", 1)

    # Query q is rows[starts[q] : starts[q] + sizes[q]] of the flat row list.
    groups = dataset.groups
    sizes = np.array([group.doc_ids.size for group in groups], dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    rows = np.concatenate([np.empty(0, np.intp)] + [group.doc_ids for group in groups])
    grades = dataset.grades.take(rows)

    def first_ranked(outside: Callable[[np.ndarray], np.ndarray]) -> int:
        """The first grade ``outside`` holds for, in query order and then rank order."""
        group = groups[int(np.searchsorted(starts, np.argmax(outside(grades)), "right")) - 1]
        ranked = group.relevances()[rank_order(scores[group.doc_ids])]
        return int(ranked[outside(ranked)][0])

    check_count(g_max, "g_max", 1)
    g_max = operator.index(g_max)
    top = int(grades.max(initial=0))
    if top > g_max or grades.min(initial=0) < 0:  # err raises its error for that grade
        cap = min(g_max, top)  # an int64, as g_max need not be
        err([first_ranked(lambda g: (g < 0) | (g > cap))], g_max)
    if cutoffs and top > MAX_GAIN_GRADE:  # gain_grades raises its error for that grade
        gain_grades([first_ranked(lambda g: g > MAX_GAIN_GRADE)])
    # A stop probability 2**-1100 of its grade's is 0.0 (the smallest double
    # is 2**-1074), so no exponent need be below -1100: each is taken from
    # the top grade's, itself at most 1100 below g_max, and none overflows.
    above_top = min(g_max - top, 1100)

    discounts = np.array([math.log2(pos + 1) for pos in range(1, sizes.max(initial=0) + 1)])
    ndcg = {k: np.empty(len(groups)) for k in cutoffs}
    err_values = np.empty(len(groups))
    # All grades 0: no ideal ordering, and an ideal DCG of 0 at every cutoff.
    degenerate = np.zeros(len(groups), dtype=bool)
    widest = max(cutoffs, default=0)
    # Degenerate rows divide 0 by 0 and are set after; a DCG past the largest double raises.
    with np.errstate(invalid="ignore", over="ignore"):
        for n in np.flatnonzero(np.bincount(sizes)).tolist():  # np.unique would import numpy.ma
            queries = np.flatnonzero(sizes == n)
            at = starts[queries, None] + np.arange(n)
            order = np.argsort(-scores.take(rows.take(at)), axis=1, kind="stable")
            ranked = np.take_along_axis(grades.take(at), order, axis=1)
            zero = degenerate[queries] = ~ranked.any(axis=1)
            gains = np.ldexp(1.0, ranked) - 1.0
            dcg = _running_sums(gains / discounts[:n])
            ideal = _running_sums(np.sort(gains, axis=1)[:, ::-1] / discounts[:n])
            # Each DCG here is below 2**(top + n.bit_length()), a double where
            # that is at most 2**MAX_GAIN_GRADE; a row's sums only grow, so the
            # widest cutoff's column shows any that is not.
            last = min(widest, n)
            if (widest and top + n.bit_length() > MAX_GAIN_GRADE
                    and max(dcg[:, last].max(), ideal[:, last].max()) == math.inf):
                raise ValidationError(DCG_OVERFLOW)
            for k in cutoffs:
                value = dcg[:, min(k, n)] / ideal[:, min(k, n)]
                value[zero] = 1.0 if degenerate_policy == "one" else 0.0
                ndcg[k][queries] = value
            if include_err:
                exponents = np.maximum(ranked - top, -1100) - above_top
                stop = np.ldexp(1.0 - np.ldexp(1.0, -ranked), exponents)
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

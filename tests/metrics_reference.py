"""Reference evaluation: one query at a time through the per-query metrics.

This is how ``plrank.metrics.evaluate`` scored a dataset before it ranked
every query of one length in one 2-D pass. It ranks each query with
``rank_order`` and scores it with ``ndcg_at_k`` and ``err``, which stay
public, and is kept as the oracle the 2-D pass must match bit for bit. Its
argument checks are those the loop made at its first query, made before any
query, as ``evaluate`` now makes them.
"""

import numpy as np

from plrank import ValidationError
from plrank.errors import check_count
from plrank.metrics import DEGENERATE_POLICIES, EvalReport, err, ndcg_at_k, rank_order


def reference_evaluate(dataset, scores, cutoffs=(1, 3, 10), g_max=None,
                       degenerate_policy="zero", *, include_err=True):
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
    for k in cutoffs:
        check_count(k, "cutoff k", 1)
    if include_err:
        check_count(g_max, "g_max", 1)

    ndcg_values = {k: [] for k in cutoffs}
    err_values = []
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

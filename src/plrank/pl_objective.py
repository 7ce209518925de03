"""Plackett-Luce likelihood, its functional gradient, and leaf Newton steps.

The log-likelihood of one query is the sum over its stored contexts of
log p(champion | context), where p is a softmax over the member scores.
Its derivative with respect to one document's score is

    (number of contexts won by the document) - sum over containing contexts
    of p(document | context)

which is the regression target for the next boosted tree. Leaf values are
then set by a one-dimensional Newton step on the likelihood restricted to a
shared offset of the leaf's documents.

Every context of every query lives in one flat table of global document ids
(:class:`QueryContexts`), laid out as :mod:`plrank.permutation` stores one
query: each context's members, then its champion. One refresh computes all
softmaxes with a few whole-table calls: a gather of the scores, a
``maximum.reduceat`` for the per-context maxima, an in-place ``exp``, and
per-context sums taken as row sums of 2-D blocks of equal-length contexts.
The gradient is one ``bincount`` over the table, and the Newton curvature
one ``bincount`` over (context, leaf) pairs. Each of these adds in the order
a loop over the contexts would, so the results are bit-identical to it. (A
block's row sums add like ``.sum()`` of each row alone; ``add.reduceat`` and
zero-padded rows do not.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ValidationError
from .permutation import ContextSet, PermutationSet

# Raw Newton steps blow up as contexts become near-deterministic (curvature
# tends to 0); bound the per-leaf score movement like standard boosted trees.
MAX_LEAF_OUTPUT = 10.0
CURVATURE_EPS = 1e-12


def conditional_probs(scores: np.ndarray, context: ContextSet) -> np.ndarray:
    """p(d | context) for every member, aligned with ``member_indices``."""
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise ValidationError("scores must be finite")
    shifted = scores[np.asarray(context.member_indices, dtype=np.intp)]
    shifted -= shifted.max()
    exps = np.exp(shifted)
    return exps / exps.sum()


@dataclass
class PLWorkspace:
    """Every context's softmax at one score vector.

    ``probs`` is aligned with the table: p(member | context) at member
    entries and 0.0 at champion entries. Per context, ``gaps`` is the
    champion's score minus the highest member score and ``totals`` the sum of
    exp(member score - highest member score).
    """

    scores: np.ndarray
    probs: np.ndarray
    gaps: np.ndarray
    totals: np.ndarray


class QueryContexts:
    """The stored contexts of one or more queries as one flat table.

    ``table`` holds global document ids; context c has ``lengths[c]``
    members followed by its champion. ``query_of_context`` numbers the
    queries in the order they were stacked. ``workspace`` is the softmax at
    the scores of the last :meth:`refresh`.
    """

    def __init__(self, table: np.ndarray, lengths: np.ndarray, query_sizes: Sequence[int]):
        self.table = np.asarray(table, dtype=np.intp)
        self.lengths = np.asarray(lengths, dtype=np.intp)
        self.num_queries = len(query_sizes)
        self.query_of_context = np.repeat(np.arange(self.num_queries), query_sizes)
        self.widths = self.lengths + 1
        self.champions = np.cumsum(self.widths) - 1  # table position of each champion
        starts = self.champions - self.lengths
        # reduceat over these runs alternately the members and the champion.
        self.bounds = np.column_stack([starts, self.champions]).ravel()
        # Contexts grouped by member count: (count, contexts, their starts).
        order = np.argsort(self.lengths, kind="stable")
        counts, splits = np.unique(self.lengths[order], return_index=True)
        self.blocks = [
            (int(count), rows, starts[rows])
            for count, rows in zip(counts, np.split(order, splits[1:]))
        ]
        self.workspace: PLWorkspace | None = None

    @classmethod
    def create(cls, doc_ids: Sequence[int], pset: PermutationSet) -> "QueryContexts":
        """One query's contexts, its local document i taken as id ``doc_ids[i]``."""
        table = np.asarray(doc_ids, dtype=np.intp)[pset.local_table()]
        return cls(table, pset.lengths, [pset.num_contexts])

    @classmethod
    def stack(cls, psets: Sequence[PermutationSet]) -> "QueryContexts":
        """The contexts of every set in order, under the global ids they carry."""
        empty = [np.zeros(0, dtype=np.intp)]
        return cls(
            np.concatenate([p.table for p in psets] or empty),
            np.concatenate([p.lengths for p in psets] or empty),
            [p.num_contexts for p in psets],
        )

    def refresh(self, scores: np.ndarray) -> PLWorkspace:
        """Compute (and keep) every context's softmax at global ``scores``.

        Called again with equal scores, it returns the kept workspace: the
        log-likelihood that ends one boosting iteration hands its softmax to
        the gradient of the next.
        """
        scores = np.asarray(scores, dtype=np.float64)
        if self.workspace is not None and np.array_equal(self.workspace.scores, scores):
            return self.workspace
        self.workspace = None  # frees the old probabilities before the new ones exist
        values = scores[self.table]
        if self.lengths.size:
            high = np.maximum.reduceat(values, self.bounds)[::2]
            values -= np.repeat(high, self.widths)
        gaps = values[self.champions]
        np.exp(values, out=values)
        totals = np.empty(self.lengths.size)
        for count, rows, starts in self.blocks:
            totals[rows] = sliding_window_view(values, count)[starts].sum(axis=1)
        values /= np.repeat(totals, self.widths)
        values[self.champions] = 0.0
        self.workspace = PLWorkspace(scores.copy(), values, gaps, totals)
        return self.workspace

    def curvature(
        self, probs: np.ndarray, leaf_of_entry: np.ndarray, n_leaves: int
    ) -> np.ndarray:
        """Per leaf, the sum over contexts of mass * (mass - 1).

        A context's mass in a leaf is the summed probability of its members
        there. Both sums run in table order, as a loop over contexts adds.
        """
        size = self.lengths.size * n_leaves
        keys = np.repeat(np.arange(0, size, n_leaves), self.widths)
        keys += leaf_of_entry
        mass = np.bincount(keys, weights=probs, minlength=size)
        # Not a sum along axis 0 of the (context, leaf) table: with a single
        # leaf that sum adds pairwise.
        return np.bincount(
            np.arange(size) % n_leaves, weights=mass * (mass - 1.0), minlength=n_leaves
        )


def _as_table(scores: np.ndarray, contexts: PermutationSet | QueryContexts) -> QueryContexts:
    if isinstance(contexts, PermutationSet):
        return QueryContexts.create(np.arange(np.asarray(scores).shape[0]), contexts)
    return contexts


def log_likelihood(scores: np.ndarray, contexts: PermutationSet | QueryContexts) -> float:
    """Summed log p(champion | context); computed via log-sum-exp, always <= 0.

    ``scores`` are query-local for a :class:`PermutationSet` and global for a
    :class:`QueryContexts`. Each query's terms are summed in order, then the
    query sums.
    """
    table = _as_table(scores, contexts)
    workspace = table.refresh(scores)
    terms = workspace.gaps - np.log(workspace.totals)
    per_query = np.bincount(
        table.query_of_context, weights=terms, minlength=table.num_queries
    )
    return float(sum(per_query.tolist()))


def pseudo_response(scores: np.ndarray, contexts: PermutationSet | QueryContexts) -> np.ndarray:
    """Ascent-direction gradient of the log-likelihood per document score."""
    table = _as_table(scores, contexts)
    return response_from_workspace(table.refresh(scores), table)


def response_from_workspace(workspace: PLWorkspace, contexts: QueryContexts) -> np.ndarray:
    """The gradient as one ``bincount`` over the table.

    Member entries weigh -p and champion entries +1, so every document's
    sum runs through its contexts in table order.
    """
    weights = np.negative(workspace.probs)
    weights[contexts.champions] = 1.0
    resp = np.bincount(contexts.table, weights=weights, minlength=workspace.scores.size)
    return resp.astype(np.float64, copy=False)  # bincount of nothing counts in ints


def leaf_newton_stats(
    leaf_docs: Iterable[int], queries: Sequence[QueryContexts]
) -> tuple[float, float]:
    """First and second derivative at 0 of the likelihood in the leaf offset.

    ``leaf_docs`` holds global document ids; every query must carry a
    workspace built against the current scores.
    """
    leaf = np.asarray(list(leaf_docs), dtype=np.intp)
    if not leaf.size:
        raise ValidationError("leaf must contain at least one document")
    lprime = 0.0
    ldouble = 0.0
    for query in queries:
        if query.workspace is None:
            raise ValidationError("query workspace not built")
        probs = query.workspace.probs
        in_leaf = np.isin(query.table, leaf).astype(np.intp)
        lprime += float(in_leaf[query.champions].sum() - probs @ in_leaf)
        ldouble += float(query.curvature(probs, in_leaf, 2)[1])
    return lprime, ldouble


def newton_leaf_outputs(
    assign: np.ndarray,
    n_leaves: int,
    contexts: QueryContexts,
    responses: np.ndarray,
) -> np.ndarray:
    """Applied output -L'(0)/L''(0) for every leaf of a fitted tree.

    ``assign`` maps a global document id to its leaf position, and
    ``contexts`` must carry the workspace ``responses`` came from. The
    curvature is never positive, so the applied output moves the likelihood
    uphill; its magnitude is clamped to :data:`MAX_LEAF_OUTPUT`.
    """
    grad = np.bincount(assign, weights=responses, minlength=n_leaves)
    curv = contexts.curvature(contexts.workspace.probs, assign[contexts.table], n_leaves)
    # A curvature below CURVATURE_EPS can overflow the quotient; that output is zeroed.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = -grad / curv
    out[np.abs(curv) < CURVATURE_EPS] = 0.0
    return np.clip(out, -MAX_LEAF_OUTPUT, MAX_LEAF_OUTPUT)

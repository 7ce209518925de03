"""Plackett-Luce likelihood, its functional gradient, and leaf Newton steps.

The log-likelihood of one query is the sum over its kept contexts of
log p(champion | context), where p is a softmax over the member scores.
Its derivative with respect to one document's score is

    (number of contexts won by the document) - sum over containing contexts
    of p(document | context)

which is the regression target for the next boosted tree. Leaf values are
then set by a one-dimensional Newton step on the likelihood restricted to a
shared offset of the leaf's documents.

Every query's sampled orders live in :class:`QueryContexts`. A kept context
at position j of a sample has as members the order's positions j onwards,
so every context of a sample shares its tail: the positions at or past the
depth (at most K). One refresh computes, per sample,

* the tail: scores shifted by the tail's maximum M_t, exponentiated, and
  summed to T with one ``add.reduceat`` over all samples;
* the head: for each kept context j, exp(s_i - M_j) at the head positions
  i >= j, M_j being the highest member score, and the context's total
  Z_j = sum of those + exp(M_t - M_j) * T. Every term is positive and the
  highest member adds exp(0) = 1, so Z_j >= 1: no difference of sums is
  taken and no total underflows to zero.

A tail document's probability in context j is exp(s - M_t) times
exp(M_t - M_j) / Z_j, so its gradient weighs exp(s - M_t) by one per-sample
sum over the kept contexts; a head document's gradient sums its column of
the head block. The gradient is one ``bincount`` over head, tail and champion
entries, and the Newton curvature one ``bincount`` of the tail's mass per
(sample, leaf) plus one over the head block: O(n + K^2) per sample, not
one entry per member of every context. A per-sample value reaches the
sample's tail by ``repeat`` over the tail lengths, not by a gather.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

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
    """Every kept context's softmax at one score vector.

    Per context: ``highs`` is the highest member score M_j, ``totals`` the
    sum Z_j of exp(member score - M_j), ``head_probs`` its row of
    p(member | context) at the head positions (0 elsewhere), and
    ``tail_weights`` exp(M_t - M_j) / Z_j. ``tail_exp`` holds
    exp(s - M_t) at every tail position.
    """

    scores: np.ndarray
    highs: np.ndarray
    totals: np.ndarray
    head_probs: np.ndarray
    tail_weights: np.ndarray
    tail_exp: np.ndarray


class QueryContexts:
    """The sampled orders of one or more queries, split into head and tail.

    Samples without a kept context are dropped. ``head`` holds each sample's
    first ``depth`` global document ids, padded to the widest depth;
    ``tail`` the rest of every sample in one run, sample after sample, and
    ``tail_lengths`` and ``tail_starts`` each sample's share of it. Kept
    contexts are listed by query, sample and position (``context_sample``,
    ``context_pos``). ``workspace`` is the softmax at the scores of the last
    :meth:`refresh`.
    """

    def __init__(self, orders: Sequence[np.ndarray], kept: Sequence[np.ndarray]):
        """``orders[q]`` holds query q's samples as global ids (samples x n),
        ``kept[q]`` its kept mask (samples x depth)."""
        rows = [mask.any(axis=1) for mask in kept]
        width = max((mask.shape[1] for mask in kept), default=0)
        num_samples = sum(int(r.sum()) for r in rows)
        self.head = np.zeros((num_samples, width), dtype=np.intp)
        self.head_pad = np.ones((num_samples, width), dtype=bool)
        kept_head = np.zeros((num_samples, width), dtype=bool)
        tails, tail_lengths = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
        start = 0
        for order, mask, row in zip(orders, kept, rows):
            order, d = order[row], mask.shape[1]
            stop = start + order.shape[0]
            self.head[start:stop, :d] = order[:, :d]
            self.head_pad[start:stop, :d] = False
            kept_head[start:stop, :d] = mask[row]
            tails.append(order[:, d:].ravel())
            tail_lengths.append(np.full(order.shape[0], order.shape[1] - d))
            start = stop
        self.tail = np.concatenate(tails)
        self.tail_lengths = np.concatenate(tail_lengths)
        self.tail_starts = np.cumsum(self.tail_lengths) - self.tail_lengths
        self.context_sample, self.context_pos = np.nonzero(kept_head)
        self.champions = self.head[self.context_sample, self.context_pos]
        self.context_head = self.head[self.context_sample]
        # Where a context's row of the head block holds its members.
        self.context_mask = (np.arange(width) >= self.context_pos.reshape(-1, 1)) & (
            ~self.head_pad[self.context_sample]
        )
        self.response_keys = np.concatenate(
            [self.context_head.ravel(), self.tail, self.champions]
        )
        # A score vector must reach the highest document id held.
        self.id_bound = 1 + int(max(self.tail.max(initial=-1),
                                    self.head.max(initial=-1, where=~self.head_pad)))
        self.workspace: PLWorkspace | None = None

    @property
    def num_contexts(self) -> int:
        return self.champions.size

    @classmethod
    def create(cls, doc_ids: Sequence[int], pset: PermutationSet) -> "QueryContexts":
        """One query's contexts, its local document i taken as id ``doc_ids[i]``."""
        return cls([np.asarray(doc_ids, dtype=np.intp)[pset.orders]], [pset.kept])

    @classmethod
    def stack(cls, psets: Sequence[PermutationSet]) -> "QueryContexts":
        """The contexts of every set in order, under the global ids they carry."""
        return cls([p.doc_ids[p.orders] for p in psets], [p.kept for p in psets])

    def refresh(self, scores: np.ndarray) -> PLWorkspace:
        """Compute (and keep) every context's softmax at global ``scores``.

        Called again with equal scores, it returns the kept workspace: the
        log-likelihood that ends one boosting iteration hands its softmax to
        the gradient of the next. Other scores raise :class:`ValidationError`
        unless they are finite and 1-D with an entry for every document id held.
        """
        scores = np.asarray(scores, dtype=np.float64)
        if self.workspace is not None and np.array_equal(self.workspace.scores, scores):
            return self.workspace
        if scores.ndim != 1 or scores.size < self.id_bound:
            raise ValidationError(f"scores must be 1-D with at least {self.id_bound} "
                                  f"entries, got shape {scores.shape}")
        if not np.isfinite(scores).all():
            raise ValidationError("scores must be finite")
        self.workspace = None  # frees the old softmax before the new one exists
        tail_exp = scores.take(self.tail)
        tail_high = np.maximum.reduceat(tail_exp, self.tail_starts)
        tail_exp -= tail_high.repeat(self.tail_lengths)
        np.exp(tail_exp, out=tail_exp)
        tail_total = np.add.reduceat(tail_exp, self.tail_starts)

        head = scores.take(self.head)
        head[self.head_pad] = -np.inf
        # Highest member score of a context at each head position: the
        # suffix maximum of the head, or the tail's maximum if higher.
        suffix = np.maximum.accumulate(head[:, ::-1], axis=1)[:, ::-1]
        samples = self.context_sample
        highs = np.maximum(suffix[samples, self.context_pos], tail_high[samples])
        probs = np.exp(
            head[samples] - highs.reshape(-1, 1),
            out=np.zeros(self.context_head.shape),
            where=self.context_mask,
        )
        tail_scale = np.exp(tail_high[samples] - highs)
        totals = probs.sum(axis=1) + tail_scale * tail_total[samples]
        probs /= totals.reshape(-1, 1)
        self.workspace = PLWorkspace(
            scores.copy(), highs, totals, probs, tail_scale / totals, tail_exp
        )
        return self.workspace

    def curvature(self, leaf_of_doc: np.ndarray, n_leaves: int) -> np.ndarray:
        """Per leaf, the sum over contexts of mass * (mass - 1) at the workspace.

        A context's mass in a leaf is the summed probability of its members
        there: its head row's entries in the leaf, plus its tail weight times
        the tail's exp mass in the leaf, one ``bincount`` per (sample, leaf).
        """
        workspace = self.workspace
        num_samples = self.head.shape[0]
        tail_keys = leaf_of_doc.take(self.tail)
        tail_keys += np.arange(0, num_samples * n_leaves, n_leaves).repeat(self.tail_lengths)
        tail_mass = np.bincount(
            tail_keys,
            weights=workspace.tail_exp,
            minlength=num_samples * n_leaves,
        ).reshape(num_samples, n_leaves)
        keys = leaf_of_doc.take(self.context_head)
        keys += np.arange(0, self.num_contexts * n_leaves, n_leaves).reshape(-1, 1)
        head_mass = np.bincount(
            keys.ravel(),
            weights=workspace.head_probs.ravel(),
            minlength=self.num_contexts * n_leaves,
        ).reshape(self.num_contexts, n_leaves)
        mass = workspace.tail_weights.reshape(-1, 1) * tail_mass.take(self.context_sample, axis=0)
        mass += head_mass
        return (mass * (mass - 1.0)).sum(axis=0)

    def mean_rows(self, X: np.ndarray) -> np.ndarray:
        """Per context, the mean of its members' rows of ``X`` weighed by
        p(member | context) at the workspace; ``X`` has a row per global id."""
        workspace = self.workspace
        head = np.einsum("cw,cwf->cf", workspace.head_probs, X[self.context_head])
        tail = X[self.tail]
        tail *= workspace.tail_exp.reshape(-1, 1)
        sums = np.add.reduceat(tail, self.tail_starts)
        return head + workspace.tail_weights.reshape(-1, 1) * sums[self.context_sample]


def _as_contexts(contexts: PermutationSet | QueryContexts) -> QueryContexts:
    if isinstance(contexts, PermutationSet):
        return QueryContexts.create(np.arange(contexts.orders.shape[1]), contexts)
    return contexts


def log_likelihood(scores: np.ndarray, contexts: PermutationSet | QueryContexts) -> float:
    """Summed log p(champion | context); computed via log-sum-exp, always <= 0.

    ``scores`` are query-local for a :class:`PermutationSet` and global for a
    :class:`QueryContexts`.
    """
    contexts = _as_contexts(contexts)
    workspace = contexts.refresh(scores)
    terms = workspace.scores[contexts.champions] - workspace.highs
    terms -= np.log(workspace.totals)
    return float(terms.sum())


def pseudo_response(scores: np.ndarray, contexts: PermutationSet | QueryContexts) -> np.ndarray:
    """Ascent-direction gradient of the log-likelihood per document score."""
    contexts = _as_contexts(contexts)
    return response_from_workspace(contexts.refresh(scores), contexts)


def response_from_workspace(workspace: PLWorkspace, contexts: QueryContexts) -> np.ndarray:
    """The gradient as one ``bincount`` over head, tail and champion entries.

    Head entries weigh -p, tail entries -exp(s - M_t) times their sample's
    summed tail weight, and champion entries +1.
    """
    sample_weight = np.bincount(
        contexts.context_sample,
        weights=workspace.tail_weights,
        minlength=contexts.head.shape[0],
    )
    # One buffer laid out as response_keys: head, tail, champions.
    weights = np.empty(contexts.response_keys.size)
    head_end = workspace.head_probs.size
    tail_end = head_end + contexts.tail.size
    np.negative(workspace.head_probs.ravel(), out=weights[:head_end])
    tail = np.negative(workspace.tail_exp, out=weights[head_end:tail_end])
    tail *= sample_weight.repeat(contexts.tail_lengths)
    weights[tail_end:] = 1.0
    resp = np.bincount(contexts.response_keys, weights=weights, minlength=workspace.scores.size)
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
        in_leaf = np.isin(np.arange(query.workspace.scores.size), leaf)
        lprime += float(response_from_workspace(query.workspace, query)[in_leaf].sum())
        ldouble += float(query.curvature(in_leaf.astype(np.intp), 2)[1])
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
    curv = contexts.curvature(assign, n_leaves)
    # A curvature below CURVATURE_EPS can overflow the quotient; that output is zeroed.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = -grad / curv
    out[np.abs(curv) < CURVATURE_EPS] = 0.0
    return np.clip(out, -MAX_LEAF_OUTPUT, MAX_LEAF_OUTPUT)

"""Exactly rounded per-context reference of the Plackett-Luce likelihood.

Contexts are deduplicated by a ``frozenset`` of their members, every
quantity loops over the stored contexts one at a time, and every sum is a
``math.fsum``: each result is its terms' exactly rounded sum. The library
adds the same terms in its own order, so tests hold it to :data:`BOUND`
times the sum of the terms' absolute values (:func:`within`). A result whose
terms cancel is held to the size of its terms, not to its own size, and a
probability to its context's total of 1. The linear trainer is compared
with its own loop to a relative 1e-10.

Contexts here are ``ContextSet`` values with query-local member indices; a
query is a ``RefQuery`` that ties them to global document ids.

Also here, at the end: three thin helpers only tests use, which call the
library rather than the loops above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from plrank import linear, pl_objective
from plrank.booster import sample_contexts
from plrank.data import QueryGroup, dense_features
from plrank.permutation import ContextSet, PermutationSet, sample_permutation
from plrank.pl_objective import CURVATURE_EPS, MAX_LEAF_OUTPUT

# Allowed error relative to the sum of a result's absolute terms: about
# 4,500 units in the last place, room for sums over a few hundred members.
BOUND = 1e-12
# Below the smallest normal float, numbers carry fewer digits: an absolute
# error this small is allowed whatever the scale.
FLOOR = float(np.finfo(np.float64).tiny)


def allowed(scale):
    """The error the bound allows a result whose terms' absolute sum is ``scale``."""
    return BOUND * np.asarray(scale) + FLOOR


def permutation_set(
    contexts: list[ContextSet], k: int, raw_term_count: int, objective_count: int
) -> PermutationSet:
    """Hand-written contexts over documents 0..n-1, as sampled orders.

    A context whose members are the rest of the previous order from its
    position on takes that position of the previous order; any other starts
    a new order, which places the documents outside its members first.
    """
    n = max((max(c.member_indices) + 1 for c in contexts), default=0)
    orders: list[list[int]] = []
    kept: list[list[bool]] = []
    for ctx in contexts:
        members = sorted(ctx.member_indices)
        pos = n - len(members)
        rest = [ctx.champion_index] + [m for m in members if m != ctx.champion_index]
        if not orders or sorted(orders[-1][pos:]) != members or any(kept[-1][pos:]):
            orders.append([d for d in range(n) if d not in ctx.member_indices])
            kept.append([False] * max(0, min(k, n - 1)))
        orders[-1][pos:] = rest
        kept[-1][pos] = True
    return PermutationSet(
        orders=np.array(orders, dtype=np.int32).reshape(len(orders), n),
        kept=np.array(kept, dtype=bool).reshape(len(orders), max(0, min(k, n - 1))),
        doc_ids=np.arange(n),
        k=k,
        raw_term_count=raw_term_count,
        objective_count=objective_count,
    )


def context_entries(table: pl_objective.QueryContexts) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per kept context of a refreshed table: its members' global ids in
    ascending order, and the workspace's p(member | context) for each, read
    from the context's head row and its sample's tail."""
    workspace = table.workspace
    depth = np.count_nonzero(~table.head_pad, axis=1)
    tail_ends = np.append(table.tail_starts[1:], table.tail.size)
    entries = []
    for c, (s, j) in enumerate(zip(table.context_sample, table.context_pos)):
        tail = slice(table.tail_starts[s], tail_ends[s])
        ids = np.concatenate([table.head[s, j:depth[s]], table.tail[tail]])
        probs = np.concatenate([workspace.head_probs[c, j:depth[s]],
                                workspace.tail_exp[tail] * workspace.tail_weights[c]])
        order = np.argsort(ids, kind="stable")
        entries.append((ids[order], probs[order]))
    return entries


def build_contexts(
    group: QueryGroup, k: int, num_objectives: int, rng
) -> tuple[list[ContextSet], int]:
    """Sampled contexts deduplicated by member set, and the raw term count."""
    relevances = group.relevances()
    n = relevances.shape[0]
    contexts: list[ContextSet] = []
    seen: set[frozenset[int]] = set()
    raw_terms = 0
    for _ in range(num_objectives):
        perm = sample_permutation(relevances, rng)
        for j in range(min(k, n)):
            members = perm[j:]
            if members.size < 2:
                break
            raw_terms += 1
            key = frozenset(int(i) for i in members)
            if key in seen:
                continue
            seen.add(key)
            contexts.append(
                ContextSet(
                    member_indices=tuple(sorted(int(i) for i in members)),
                    champion_index=int(perm[j]),
                )
            )
    return contexts, raw_terms


def exact_softmax(values: np.ndarray) -> np.ndarray:
    """exp(v - max) over its exactly rounded sum."""
    exps = np.exp(values - values.max())
    return exps / math.fsum(exps.tolist())


def within(got, expected, scale) -> bool:
    """|got - expected| <= allowed(scale) everywhere; NaN never passes."""
    error = np.abs(np.asarray(got, dtype=np.float64) - expected)
    return bool(np.all(error <= allowed(scale)))


@dataclass
class RefQuery:
    """One query's contexts, tied to global ids, with probabilities at
    the scores last passed to :meth:`refresh`."""

    doc_ids: np.ndarray
    contexts: list[ContextSet]
    members: list[np.ndarray] = field(default_factory=list)
    probs_per_context: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.doc_ids = np.asarray(self.doc_ids, dtype=np.intp)
        self.members = [
            np.asarray(ctx.member_indices, dtype=np.intp) for ctx in self.contexts
        ]

    def refresh(self, all_scores: np.ndarray) -> np.ndarray:
        local = np.asarray(all_scores, dtype=np.float64)[self.doc_ids]
        self.probs_per_context = [exact_softmax(local[mem]) for mem in self.members]
        return local


def booster_objective(queries: list[RefQuery], all_scores: np.ndarray) -> tuple[float, float]:
    """The log-likelihood and its error scale.

    A context adds (s_champion - max) - log Z; its scale is the size of
    both parts plus 1, because an error of relative size d in Z moves
    log Z by d.
    """
    terms, scales = [], []
    for q in queries:
        local = q.refresh(all_scores)
        for ctx, members in zip(q.contexts, q.members):
            high = local[members].max()
            log_total = math.log(math.fsum(np.exp(local[members] - high).tolist()))
            gap = local[ctx.champion_index] - high
            terms.append(gap - log_total)
            scales.append(abs(gap) + abs(log_total) + 1.0)
    return math.fsum(terms), math.fsum(scales)


def _response_terms(queries: list[RefQuery], all_scores: np.ndarray) -> list[list[float]]:
    """Per global document: +1 per context it wins, -p per context it is in."""
    terms: list[list[float]] = [[] for _ in range(np.asarray(all_scores).shape[0])]
    for q in queries:
        q.refresh(all_scores)
        for ctx, members, probs in zip(q.contexts, q.members, q.probs_per_context):
            for doc, p in zip(q.doc_ids[members].tolist(), probs.tolist()):
                terms[doc].append(-p)
            terms[int(q.doc_ids[ctx.champion_index])].append(1.0)
    return terms


def booster_responses(
    queries: list[RefQuery], all_scores: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The booster's per-document gradient and its error scale."""
    terms = _response_terms(queries, all_scores)
    return (np.array([math.fsum(t) for t in terms]),
            np.array([math.fsum(map(abs, t)) for t in terms]))


def newton_stats(
    assign: np.ndarray, n_leaves: int, queries: list[RefQuery], all_scores: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per leaf: L'(0), its scale, L''(0) and its scale.

    L'(0) sums the response terms of the leaf's documents. L''(0) sums
    m * (m - 1) over contexts, m being the context's probability mass in the
    leaf; its scale sums m * m + m.
    """
    grad_terms: list[list[float]] = [[] for _ in range(n_leaves)]
    for doc, terms in enumerate(_response_terms(queries, all_scores)):
        grad_terms[int(assign[doc])].extend(terms)
    curv_terms: list[list[float]] = [[] for _ in range(n_leaves)]
    for q in queries:
        leaf_of = np.asarray(assign)[q.doc_ids]
        for members, probs in zip(q.members, q.probs_per_context):
            for leaf in range(n_leaves):
                mass = math.fsum(probs[leaf_of[members] == leaf].tolist())
                curv_terms[leaf].append(mass)
    grad = np.array([math.fsum(t) for t in grad_terms])
    grad_scale = np.array([math.fsum(map(abs, t)) for t in grad_terms])
    curv = np.array([math.fsum(m * (m - 1.0) for m in t) for t in curv_terms])
    curv_scale = np.array([math.fsum(m * m + m for m in t) for t in curv_terms])
    return grad, grad_scale, curv, curv_scale


def newton_leaf_outputs(
    assign: np.ndarray, n_leaves: int, queries: list[RefQuery], all_scores: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Applied outputs -L'/L'' and, per leaf, the error the bound allows.

    With |g - G| <= a = allowed(SG) and |c - C| <= b = allowed(SC), the
    quotient moves by at most (a + |G / C| * b) / (|C| - b), and clipping
    never widens a gap. A leaf whose |C| lies within b of CURVATURE_EPS may
    be zeroed on one side only: any output is allowed there.
    """
    grad, grad_scale, curv, curv_scale = newton_stats(assign, n_leaves, queries, all_scores)
    a, b = allowed(grad_scale), allowed(curv_scale)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = -grad / curv
        slack = (a + np.abs(out) * b) / (np.abs(curv) - b)
    flat = np.abs(curv) < CURVATURE_EPS
    out[flat] = 0.0
    slack[flat] = 0.0
    slack[np.abs(np.abs(curv) - CURVATURE_EPS) <= b] = np.inf
    return np.clip(out, -MAX_LEAF_OUTPUT, MAX_LEAF_OUTPUT), slack


def linear_objective_and_gradient(
    weights: np.ndarray, terms: list[tuple[np.ndarray, list[ContextSet]]]
) -> tuple[float, np.ndarray]:
    """The linear trainer's own softmax loop over (features, contexts) pairs."""
    objective = 0.0
    gradient = np.zeros_like(weights)
    for X, contexts in terms:
        scores = X @ weights
        for ctx in contexts:
            members = np.asarray(ctx.member_indices, dtype=np.intp)
            member_scores = scores[members]
            high = member_scores.max()
            exps = np.exp(member_scores - high)
            total = exps.sum()
            objective += scores[ctx.champion_index] - high - np.log(total)
            probs = exps / total
            gradient += X[ctx.champion_index] - probs @ X[members]
    objective -= 0.5 * float(weights @ weights)
    gradient -= weights
    return objective, gradient


def linear_curvature(
    weights: np.ndarray, terms: list[tuple[np.ndarray, list[ContextSet]]]
) -> np.ndarray:
    """The negated Hessian of the same objective, context by context:
    the sum of X_c'(diag p - pp')X_c, plus I from the prior."""
    curvature = np.eye(weights.size)
    for X, contexts in terms:
        for ctx in contexts:
            members = X[np.asarray(ctx.member_indices, dtype=np.intp)]
            probs = exact_softmax(members @ weights)
            curvature += members.T @ (np.diag(probs) - np.outer(probs, probs)) @ members
    return curvature


def leaf_newton_value(leaf_docs, queries: list[pl_objective.QueryContexts]) -> float:
    """The library's Newton ratio L'(0)/L''(0); 0.0 when the direction is flat."""
    lprime, ldouble = pl_objective.leaf_newton_stats(leaf_docs, queries)
    if abs(ldouble) < CURVATURE_EPS:
        return 0.0
    return lprime / ldouble


def library_linear_objective(
    weights, dataset, k: int = 10, objectives: int = 1, seed: int = 42
) -> tuple[float, np.ndarray]:
    """The linear trainer's penalized log-likelihood and gradient at ``weights``.

    Contexts are sampled from ``seed`` as ``train_linear`` samples them, so
    repeated calls see the same ones.
    """
    weights = np.asarray(weights, dtype=np.float64)
    X = dense_features(dataset, weights.size)
    contexts = sample_contexts(dataset, k, objectives, seed)
    return linear._objective_and_gradient(weights, X, contexts)


def library_linear_curvature(
    weights, dataset, k: int = 10, objectives: int = 1, seed: int = 42
) -> np.ndarray:
    """The matrix the linear trainer's Newton step solves against at ``weights``."""
    weights = np.asarray(weights, dtype=np.float64)
    X = dense_features(dataset, weights.size)
    contexts = sample_contexts(dataset, k, objectives, seed)
    return linear._curvature(weights, X, contexts)

"""Per-context reference implementation of the Plackett-Luce likelihood.

This is the implementation the flat context table replaced: contexts are
deduplicated by a ``frozenset`` of their members, and every quantity loops
over the stored contexts one at a time. Tests compare the table with it bit
for bit (the linear trainer, whose sums now run in a different order, to a
relative 1e-10).

Contexts here are ``ContextSet`` values with query-local member indices; a
query is a ``RefQuery`` that ties them to global document ids.

Also here, at the end: two thin helpers only tests use, which call the
library rather than the loops above.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from plrank import linear, pl_objective
from plrank.data import QueryGroup
from plrank.permutation import ContextSet, PermutationSet, sample_permutation
from plrank.pl_objective import CURVATURE_EPS, MAX_LEAF_OUTPUT


def permutation_set(
    contexts: list[ContextSet], k: int, raw_term_count: int, objective_count: int
) -> PermutationSet:
    """A set of hand-written contexts whose global ids are the local ones."""
    entries = [i for c in contexts for i in (*c.member_indices, c.champion_index)]
    return PermutationSet(
        table=np.array(entries, dtype=np.int32),
        lengths=np.array([len(c.member_indices) for c in contexts], dtype=np.intp),
        doc_ids=np.arange(max(entries, default=-1) + 1),
        k=k,
        raw_term_count=raw_term_count,
        objective_count=objective_count,
    )


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


def softmax(values: np.ndarray) -> np.ndarray:
    shifted = values - values.max()
    exps = np.exp(shifted)
    return exps / exps.sum()


def build_workspace(scores: np.ndarray, contexts: list[ContextSet]) -> list[np.ndarray]:
    """p(d | context) of every member, one array per context."""
    scores = np.asarray(scores, dtype=np.float64)
    return [
        softmax(scores[np.asarray(ctx.member_indices, dtype=np.intp)])
        for ctx in contexts
    ]


def response_from_workspace(
    scores: np.ndarray, contexts: list[ContextSet], probs_per_context: list[np.ndarray]
) -> np.ndarray:
    resp = np.zeros(np.asarray(scores).shape[0], dtype=np.float64)
    for ctx, probs in zip(contexts, probs_per_context):
        members = np.asarray(ctx.member_indices, dtype=np.intp)
        resp[members] -= probs
        resp[ctx.champion_index] += 1.0
    return resp


def pseudo_response(scores: np.ndarray, contexts: list[ContextSet]) -> np.ndarray:
    return response_from_workspace(scores, contexts, build_workspace(scores, contexts))


def log_likelihood(scores: np.ndarray, contexts: list[ContextSet]) -> float:
    scores = np.asarray(scores, dtype=np.float64)
    total = 0.0
    for ctx in contexts:
        member_scores = scores[np.asarray(ctx.member_indices, dtype=np.intp)]
        high = member_scores.max()
        total += scores[ctx.champion_index] - high - np.log(
            np.exp(member_scores - high).sum()
        )
    return float(total)


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
        local = all_scores[self.doc_ids]
        self.probs_per_context = [softmax(local[mem]) for mem in self.members]
        return local


def booster_responses(queries: list[RefQuery], all_scores: np.ndarray) -> np.ndarray:
    """The booster's per-document gradient, query by query."""
    responses = np.zeros(all_scores.shape[0], dtype=np.float64)
    for q in queries:
        local = q.refresh(all_scores)
        responses[q.doc_ids] = response_from_workspace(
            local, q.contexts, q.probs_per_context
        )
    return responses


def booster_objective(queries: list[RefQuery], all_scores: np.ndarray) -> float:
    """The booster's log-likelihood: per-query sums, then a sum over queries."""
    return sum(log_likelihood(all_scores[q.doc_ids], q.contexts) for q in queries)


def newton_leaf_outputs(
    assign: np.ndarray,
    n_leaves: int,
    queries: list[RefQuery],
    responses: np.ndarray,
) -> np.ndarray:
    grad = np.bincount(assign, weights=responses, minlength=n_leaves)
    curv = np.zeros(n_leaves, dtype=np.float64)
    for query in queries:
        leaf_of = assign[query.doc_ids]
        for members, probs in zip(query.members, query.probs_per_context):
            mass = np.bincount(leaf_of[members], weights=probs, minlength=n_leaves)
            curv += mass * (mass - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -grad / curv
    out[np.abs(curv) < CURVATURE_EPS] = 0.0
    return np.clip(out, -MAX_LEAF_OUTPUT, MAX_LEAF_OUTPUT)


def leaf_newton_stats(leaf_docs, queries: list[RefQuery]) -> tuple[float, float]:
    leaf = set(int(d) for d in leaf_docs)
    lprime = 0.0
    ldouble = 0.0
    for query in queries:
        doc_ids = query.doc_ids
        for ctx, members, probs in zip(
            query.contexts, query.members, query.probs_per_context
        ):
            in_leaf = np.fromiter(
                (int(doc_ids[m]) in leaf for m in members), dtype=bool, count=len(members)
            )
            mass = float(probs[in_leaf].sum())
            if int(doc_ids[ctx.champion_index]) in leaf:
                lprime += 1.0
            lprime -= mass
            ldouble += mass * (mass - 1.0)
    return lprime, ldouble


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
    X, contexts = linear._query_contexts(dataset, k, objectives, seed, weights.size)
    return linear._objective_and_gradient(weights, X, contexts)

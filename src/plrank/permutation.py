"""Sampling of top-K ground-truth permutations, stored as the sampled orders.

Relevance grades tie frequently, so many ground-truth permutations are
consistent with the grades. Position j of a sampled permutation induces one
context: the documents not yet placed (the members), of which the one placed
at j is the champion. Contexts repeat heavily across samples, so each is
kept once. Within a query the members are everything but the prefix
``perm[:j]``, so two contexts have the same members exactly when they have
the same prefix set; deduplicating by that set hashes at most K documents
rather than up to the whole query.

A query's contexts are stored as its sampled orders (samples x n
query-local document indices) and a kept mask over (sample, position <
depth): position j of sample s is kept when its prefix set first occurs
there. A kept position's members are the rest of its order, so the storage
is one entry per order position, however many contexts share them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import QueryGroup
from .errors import ConfigError, check_count


@dataclass(frozen=True)
class ContextSet:
    """Softmax normalization pool at one rank position.

    ``member_indices`` are the query-local indices of documents still
    unplaced; ``champion_index`` is the one the ground truth puts first.
    """

    member_indices: tuple[int, ...]
    champion_index: int


@dataclass(eq=False)
class PermutationSet:
    """The sampled orders of one query and which of their contexts are kept.

    ``orders`` holds query-local indices, one row per sample; ``kept`` has
    one column per position that leaves 2+ members (the depth).
    ``doc_ids`` are the query's global document ids in query-local order.
    """

    orders: np.ndarray
    kept: np.ndarray
    doc_ids: np.ndarray
    k: int
    raw_term_count: int
    objective_count: int

    @property
    def num_contexts(self) -> int:
        return int(np.count_nonzero(self.kept))

    @property
    def contexts(self) -> list[ContextSet]:
        """The kept contexts as :class:`ContextSet` values, built on demand.

        They are listed by sample, then position: in order of first occurrence.
        """
        return [
            ContextSet(tuple(sorted(self.orders[s, j:].tolist())), int(self.orders[s, j]))
            for s, j in zip(*np.nonzero(self.kept))
        ]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PermutationSet):
            return NotImplemented
        return (
            np.array_equal(self.orders, other.orders)
            and np.array_equal(self.kept, other.kept)
            and np.array_equal(self.doc_ids, other.doc_ids)
            and (self.k, self.raw_term_count, self.objective_count)
            == (other.k, other.raw_term_count, other.objective_count)
        )


def sample_permutation(relevances: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One ground-truth permutation: shuffle, then stable-sort by grade.

    The shuffle followed by a stable descending sort draws uniformly among
    the orderings consistent with the grades.
    """
    n = relevances.shape[0]
    order = rng.permutation(n)
    return order[np.argsort(-relevances[order], kind="stable")]


def build_permutations(
    group: QueryGroup,
    k: int,
    num_objectives: int,
    rng: np.random.Generator,
) -> PermutationSet:
    """Sample ``num_objectives`` top-K permutations and mark their contexts.

    Contexts with a single member are not stored (their conditional
    probability is identically 1), and duplicates across samples are kept
    once, at their first occurrence with the champion of that occurrence.
    """
    check_count(k, "top-K cutoff", 1)
    check_count(num_objectives, "objective count", 1)

    relevances = group.relevances()
    n = relevances.shape[0]
    depth = max(0, min(k, n - 1))  # positions that leave 2+ members
    seen: set[frozenset[int]] = set()
    try:
        orders = np.empty((num_objectives, n), dtype=np.int32)
        kept = np.zeros((num_objectives, depth), dtype=bool)
    except (MemoryError, ValueError, OverflowError):
        raise ConfigError(f"objective count {num_objectives}: {num_objectives} orders of "
                          f"{n} documents cannot be allocated") from None
    for s in range(num_objectives):
        orders[s] = sample_permutation(relevances, rng)
        placed = orders[s, :depth].tolist()
        for j in range(depth):
            key = frozenset(placed[:j])
            if key not in seen:
                seen.add(key)
                kept[s, j] = True
    return PermutationSet(
        orders=orders,
        kept=kept,
        doc_ids=np.asarray(group.doc_ids, dtype=np.intp),
        k=k,
        raw_term_count=num_objectives * depth,
        objective_count=num_objectives,
    )


def compression_ratio(pset: PermutationSet) -> tuple[float, float]:
    """Fraction of terms kept after dedup and the equivalent objective count."""
    if pset.raw_term_count == 0:
        return 1.0, 0.0
    ratio = pset.num_contexts / pset.raw_term_count
    return ratio, pset.objective_count * ratio

"""Sampling of top-K ground-truth permutations with compressed storage.

Relevance grades tie frequently, so many ground-truth permutations are
consistent with the grades. Position j of a sampled permutation induces one
context: the documents not yet placed (the members), of which the one placed
at j is the champion. Contexts repeat heavily across samples, so each is
stored once. Within a query the members are everything but the prefix
``perm[:j]``, so two contexts have the same members exactly when they have
the same prefix set; deduplicating by that set hashes at most K documents
rather than up to the whole query.

A query's contexts are stored as one flat table of global document ids:
each context's members in ascending query-local order, then its champion.
``lengths`` holds the member count of each context, so context c occupies
``lengths[c] + 1`` consecutive entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import QueryGroup
from .errors import ValidationError


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
    """Deduplicated contexts of all sampled permutations for one query.

    ``table`` and ``lengths`` are laid out as the module docstring says;
    ``doc_ids`` are the query's global document ids in query-local order.
    """

    table: np.ndarray
    lengths: np.ndarray
    doc_ids: np.ndarray
    k: int
    raw_term_count: int
    objective_count: int

    @property
    def num_contexts(self) -> int:
        return self.lengths.size

    def local_table(self) -> np.ndarray:
        """The table with every global id replaced by its query-local index."""
        if not self.table.size:
            return np.zeros(0, dtype=np.intp)
        local = np.zeros(int(self.doc_ids.max()) + 1, dtype=np.intp)
        local[self.doc_ids] = np.arange(self.doc_ids.size)
        return local[self.table]

    @property
    def contexts(self) -> list[ContextSet]:
        """The stored contexts as :class:`ContextSet` values, built on demand."""
        pieces = np.split(self.local_table(), np.cumsum(self.lengths + 1)[:-1])
        return [
            ContextSet(tuple(piece[:-1].tolist()), int(piece[-1]))
            for piece in pieces
            if piece.size
        ]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PermutationSet):
            return NotImplemented
        return (
            np.array_equal(self.table, other.table)
            and np.array_equal(self.lengths, other.lengths)
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
    """Sample ``num_objectives`` top-K permutations and store their contexts.

    Contexts with a single member are dropped (their conditional probability
    is identically 1), and duplicates across samples are kept once, in order
    of first occurrence with the champion of that occurrence.
    """
    if k < 1:
        raise ValidationError(f"top-K cutoff must be >= 1, got {k}")
    if num_objectives < 1:
        raise ValidationError(f"objective count must be >= 1, got {num_objectives}")

    relevances = group.relevances()
    n = relevances.shape[0]
    depth = max(0, min(k, n - 1))  # positions that leave 2+ members
    seen: set[frozenset[int]] = set()
    ranks: list[np.ndarray] = []  # per kept context: the rank of every document
    positions: list[int] = []
    champions: list[int] = []
    for _ in range(num_objectives):
        perm = sample_permutation(relevances, rng)
        rank = np.empty(n, dtype=np.intp)
        rank[perm] = np.arange(n)
        placed = perm[:depth].tolist()
        for j in range(depth):
            key = frozenset(placed[:j])
            if key in seen:
                continue
            seen.add(key)
            ranks.append(rank)
            positions.append(j)
            champions.append(placed[j])

    position = np.array(positions, dtype=np.intp)
    lengths = n - position
    local = np.empty(int(lengths.sum()) + lengths.size, dtype=np.intp)
    if positions:
        # Row c marks the members of context c, the documents ranked at or
        # after its position; nonzero() lists each row's members in
        # ascending order, and the champion takes the slot after them.
        is_member = np.stack(ranks) >= position.reshape(-1, 1)
        slots = np.cumsum(lengths + 1) - 1
        member_slot = np.ones(local.size, dtype=bool)
        member_slot[slots] = False
        local[member_slot] = np.nonzero(is_member)[1]
        local[slots] = champions
    doc_ids = np.asarray(group.doc_ids, dtype=np.intp)
    return PermutationSet(
        table=doc_ids[local].astype(np.int32),
        lengths=lengths,
        doc_ids=doc_ids,
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

import math

import numpy as np
import pytest

from plrank import ConfigError, ValidationError, build_permutations, compression_ratio
from plrank.permutation import sample_permutation

from helpers import FixedShuffles, make_dataset


def tied_group(relevances, qid=1):
    return make_dataset([(qid, [(r, {1: float(i)}) for i, r in enumerate(relevances)])]).groups[0]


def test_worked_example_single_permutation():
    group = tied_group([4, 0, 4, 4])
    pset = build_permutations(group, k=4, num_objectives=1,
                              rng=FixedShuffles([[0, 2, 3, 1]]))
    got = [(c.member_indices, c.champion_index) for c in pset.contexts]
    assert got == [((0, 1, 2, 3), 0), ((1, 2, 3), 2), ((1, 3), 3)]


def test_worked_example_second_permutation_adds_one_context():
    group = tied_group([4, 0, 4, 4])
    pset = build_permutations(
        group, k=4, num_objectives=2,
        rng=FixedShuffles([[0, 2, 3, 1], [0, 3, 2, 1]]),
    )
    assert len(pset.contexts) == 4
    assert pset.contexts[3].member_indices == (1, 2)
    assert pset.raw_term_count == 6


def test_strictly_decreasing_relevances_collapse():
    group = tied_group([5, 4, 3, 2, 1])
    for k in (1, 3, 5, 9):
        pset = build_permutations(group, k, num_objectives=4,
                                  rng=np.random.default_rng(0))
        assert len(pset.contexts) == min(k, 4)  # singleton dropped
        champions = [c.champion_index for c in pset.contexts]
        assert champions == list(range(min(k, 4)))


def test_single_document_query_yields_nothing():
    group = tied_group([3])
    pset = build_permutations(group, k=5, num_objectives=3,
                              rng=np.random.default_rng(1))
    assert pset.contexts == []
    assert pset.raw_term_count == 0


def test_invalid_arguments():
    group = tied_group([1, 0])
    with pytest.raises(ValidationError):
        build_permutations(group, 0, 1, np.random.default_rng(0))
    with pytest.raises(ValidationError):
        build_permutations(group, 1, 0, np.random.default_rng(0))


def test_objective_count_past_allocation_is_a_config_error():
    with pytest.raises(ConfigError, match=f"objective count {10**20}: .* cannot be allocated"):
        build_permutations(tied_group([1, 0]), 1, 10**20, np.random.default_rng(0))


def test_contexts_nest_along_one_permutation():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        group = tied_group(rng.integers(0, 3, n).tolist())
        pset = build_permutations(group, k=n, num_objectives=1,
                                  rng=np.random.default_rng(int(rng.integers(1e6))))
        for a, b in zip(pset.contexts, pset.contexts[1:]):
            removed = set(a.member_indices) - set(b.member_indices)
            assert removed == {a.champion_index}


def test_champion_has_max_relevance_of_context():
    rng = np.random.default_rng(12)
    for _ in range(30):
        n = int(rng.integers(2, 10))
        rel = rng.integers(0, 4, n).tolist()
        group = tied_group(rel)
        pset = build_permutations(group, k=n, num_objectives=3,
                                  rng=np.random.default_rng(int(rng.integers(1e6))))
        for ctx in pset.contexts:
            assert rel[ctx.champion_index] == max(rel[m] for m in ctx.member_indices)


def test_same_seed_same_result():
    group = tied_group([2, 2, 1, 1, 0, 0])
    a = build_permutations(group, 4, 5, np.random.default_rng([7, 1]))
    b = build_permutations(group, 4, 5, np.random.default_rng([7, 1]))
    assert a == b


def test_dedup_matches_nondedup_oracle():
    # Regenerate the permutations independently and keep the first champion
    # per member set: the deduplicated storage must describe the same terms.
    rng = np.random.default_rng(21)
    for trial in range(25):
        n = int(rng.integers(2, 9))
        rel = rng.integers(0, 3, n).tolist()
        group = tied_group(rel)
        k = int(rng.integers(1, n + 1))
        objectives = int(rng.integers(1, 5))
        seed = int(rng.integers(1e6))
        pset = build_permutations(group, k, objectives,
                                  np.random.default_rng(seed))

        oracle_rng = np.random.default_rng(seed)
        expected = {}
        raw = 0
        for _ in range(objectives):
            perm = sample_permutation(np.array(rel), oracle_rng)
            for j in range(min(k, n)):
                members = tuple(sorted(int(x) for x in perm[j:]))
                if len(members) < 2:
                    break
                raw += 1
                expected.setdefault(members, int(perm[j]))
        got = {c.member_indices: c.champion_index for c in pset.contexts}
        assert got == expected
        assert pset.raw_term_count == raw


def test_compression_ratio_trivial():
    group = tied_group([3, 2, 1])
    pset = build_permutations(group, 3, 1, np.random.default_rng(0))
    assert compression_ratio(pset) == (1.0, 1.0)


def test_compression_ratio_empty():
    group = tied_group([3])
    pset = build_permutations(group, 3, 1, np.random.default_rng(0))
    assert compression_ratio(pset) == (1.0, 0.0)


def test_compression_ratio_worked_example():
    group = tied_group([4, 0, 4, 4])
    pset = build_permutations(
        group, k=4, num_objectives=2,
        rng=FixedShuffles([[0, 2, 3, 1], [0, 3, 2, 1]]),
    )
    ratio, effective = compression_ratio(pset)
    assert ratio == pytest.approx(4 / 6)
    assert effective == pytest.approx(2 * 4 / 6)


def test_compression_below_one_with_all_tied():
    # n=3 all tied, k=3: two distinct sampled permutations always share the
    # full member set, so dedup must drop at least one term.
    group = tied_group([1, 1, 1])
    found = False
    for seed in range(50):
        pset = build_permutations(group, 3, 2, np.random.default_rng(seed))
        firsts = pset.contexts[0]
        assert firsts.member_indices == (0, 1, 2)
        if pset.raw_term_count == 4 and len(pset.contexts) == 3:
            found = True  # two distinct permutations sharing only the root
            ratio, _ = compression_ratio(pset)
            assert ratio < 1.0
    assert found

import hashlib
import itertools
import math

import numpy as np
import pytest

from plrank import (
    ContextSet,
    QueryContexts,
    ValidationError,
    build_permutations,
    conditional_probs,
    leaf_newton_stats,
    log_likelihood,
    pseudo_response,
)
from plrank.pl_objective import MAX_LEAF_OUTPUT, newton_leaf_outputs, response_from_workspace

from helpers import make_dataset
from pl_reference import context_entries, leaf_newton_value, permutation_set


def toy_pset(k=2):
    """4 documents with ground truth d1..d4 truncated at K."""
    contexts = [
        ContextSet(member_indices=tuple(range(j, 4)), champion_index=j)
        for j in range(k)
        if 4 - j >= 2
    ]
    return permutation_set(contexts, k=k, raw_term_count=len(contexts),
                           objective_count=1)


def probs_per_context(scores, pset):
    """p(member | context) of every context, one array per context."""
    q = QueryContexts.create(np.arange(len(scores)), pset)
    q.refresh(scores)
    return [probs for _, probs in context_entries(q)]


def random_pset(rng, n, k, objectives=1):
    rel = rng.integers(0, 4, n).tolist()
    ds = make_dataset([(1, [(r, {1: float(i)}) for i, r in enumerate(rel)])])
    return build_permutations(ds.groups[0], k, objectives,
                              np.random.default_rng(int(rng.integers(1e6))))


def test_conditional_probs_uniform():
    ctx = ContextSet(member_indices=(0, 1, 2, 3), champion_index=0)
    probs = conditional_probs(np.zeros(4), ctx)
    assert probs == pytest.approx([0.25] * 4)


def test_conditional_probs_horse_example():
    # five equal contenders, one already placed: the chosen one carries 1/4
    ctx = ContextSet(member_indices=(0, 2, 3, 4), champion_index=2)
    probs = conditional_probs(np.zeros(5), ctx)
    assert probs[1] == pytest.approx(0.25)


def test_conditional_probs_log_ratio():
    ctx = ContextSet(member_indices=(0, 1), champion_index=0)
    probs = conditional_probs(np.array([math.log(2.0), 0.0]), ctx)
    assert probs == pytest.approx([2 / 3, 1 / 3])


def test_conditional_probs_rejects_nonfinite():
    ctx = ContextSet(member_indices=(0, 1), champion_index=0)
    with pytest.raises(ValidationError):
        conditional_probs(np.array([np.nan, 0.0]), ctx)


def test_conditional_probs_overflow_guard():
    ctx = ContextSet(member_indices=(0, 1), champion_index=0)
    probs = conditional_probs(np.array([900.0, 880.0]), ctx)
    assert np.isfinite(probs).all()
    assert probs.sum() == pytest.approx(1.0)


def test_workspace_probs_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        pset = random_pset(rng, n, k=int(rng.integers(1, n + 1)), objectives=2)
        for probs in probs_per_context(rng.uniform(-3, 3, n), pset):
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert (probs > 0).all()


def test_log_likelihood_uniform_two_positions():
    assert log_likelihood(np.zeros(4), toy_pset(k=2)) == pytest.approx(
        -(math.log(4) + math.log(3)), abs=1e-12
    )


def test_log_likelihood_single_uniform_context():
    for n in range(2, 8):
        pset = permutation_set(
            [ContextSet(tuple(range(n)), 0)],
            k=1, raw_term_count=1, objective_count=1,
        )
        assert log_likelihood(np.zeros(n), pset) == pytest.approx(-math.log(n))


def test_log_likelihood_monotone_in_champion_score():
    pset = toy_pset(k=1)
    values = [log_likelihood(np.array([s, 0.0, 0.0, 0.0]), pset)
              for s in (0.0, 1.0, 5.0, 20.0)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] < 0.0
    assert math.isclose(values[-1], 0.0, abs_tol=1e-8)


def test_log_likelihood_never_positive():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        pset = random_pset(rng, n, k=n, objectives=3)
        assert log_likelihood(rng.uniform(-5, 5, n), pset) <= 0.0


def test_pseudo_response_four_document_toy():
    resp = pseudo_response(np.zeros(4), toy_pset(k=2))
    assert resp == pytest.approx([0.75, 1 - 0.25 - 1 / 3,
                                  -(0.25 + 1 / 3), -(0.25 + 1 / 3)], abs=1e-12)


def test_pseudo_response_sums_to_zero():
    rng = np.random.default_rng(2)
    for objectives in (1, 3):
        for _ in range(30):
            n = int(rng.integers(2, 15))
            pset = random_pset(rng, n, k=int(rng.integers(1, n + 1)), objectives=objectives)
            resp = pseudo_response(rng.uniform(-3, 3, n), pset)
            assert resp.sum() == pytest.approx(0.0, abs=1e-10)


def test_pseudo_response_empty_pset():
    pset = permutation_set([], k=3, raw_term_count=0, objective_count=1)
    assert pseudo_response(np.zeros(5), pset).tolist() == [0.0] * 5


@pytest.mark.parametrize("scores, message", [
    ([math.nan, 0.0, 0.0, 0.0], "scores must be finite"),
    ([0.0, math.inf, 0.0, 0.0], "scores must be finite"),
    ([0.0], r"scores must be 1-D with at least 4 entries, got shape \(1,\)"),
    ([[0.0] * 4], r"scores must be 1-D with at least 4 entries, got shape \(1, 4\)"),
], ids=["nan", "inf", "short", "2-D"])
@pytest.mark.parametrize("entry", [log_likelihood, pseudo_response])
def test_likelihood_rejects_scores_it_cannot_read(entry, scores, message):
    """These once gave nan, nan with overflow warnings, or a bare IndexError."""
    with pytest.raises(ValidationError, match=f"^{message}$"):
        entry(np.array(scores), toy_pset())


def test_refresh_needs_a_score_for_the_highest_document_id():
    # Document 9 leads the order, so it is held in the head, not the tail.
    query = QueryContexts.create([9, 5, 7, 6], toy_pset())
    query.refresh(np.zeros(10))
    with pytest.raises(ValidationError, match="at least 10 entries, got shape \\(9,\\)"):
        query.refresh(np.zeros(9))
    empty = QueryContexts.create([], permutation_set([], k=3, raw_term_count=0,
                                                     objective_count=1))
    assert empty.refresh(np.zeros(0)).totals.size == 0


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    step = 1e-5
    for _ in range(40):
        n = int(rng.integers(2, 20))
        pset = random_pset(rng, n, k=min(n, int(rng.integers(1, 8))), objectives=2)
        scores = rng.uniform(-3, 3, n)
        grad = pseudo_response(scores, pset)
        fd = np.zeros(n)
        for i in range(n):
            up, down = scores.copy(), scores.copy()
            up[i] += step
            down[i] -= step
            fd[i] = (log_likelihood(up, pset) - log_likelihood(down, pset)) / (2 * step)
        assert np.linalg.norm(fd - grad) <= 1e-4 * max(1.0, np.linalg.norm(grad))


def test_full_permutation_probabilities_normalize():
    # The product of conditional choices over a full permutation defines a
    # distribution over all n! orderings.
    rng = np.random.default_rng(4)
    for n in range(2, 7):
        scores = rng.uniform(-2, 2, n)
        total = 0.0
        for perm in itertools.permutations(range(n)):
            prob = 1.0
            for j in range(n):
                ctx = ContextSet(member_indices=tuple(sorted(perm[j:])),
                                 champion_index=perm[j])
                members = list(ctx.member_indices)
                probs = conditional_probs(scores, ctx)
                prob *= probs[members.index(perm[j])]
            total += prob
        assert total == pytest.approx(1.0, abs=1e-9)


def single_query(scores, pset):
    q = QueryContexts.create(np.arange(len(scores)), pset)
    q.refresh(np.asarray(scores, dtype=np.float64))
    return q


def test_leaf_stats_four_document_toy():
    q = single_query(np.zeros(4), toy_pset(k=2))
    lprime, ldouble = leaf_newton_stats([0, 2], [q])
    assert lprime == pytest.approx(1 / 6, abs=1e-12)
    assert ldouble == pytest.approx(-17 / 36, abs=1e-12)
    assert leaf_newton_value([0, 2], [q]) == pytest.approx(-6 / 17, abs=1e-12)


def test_leaf_of_all_documents_is_flat():
    q = single_query(np.zeros(4), toy_pset(k=2))
    lprime, _ = leaf_newton_stats([0, 1, 2, 3], [q])
    assert lprime == pytest.approx(0.0, abs=1e-12)
    # shifting every score equally changes nothing; the applied value is 0
    qr = single_query(np.array([0.3, -0.1, 0.0, 2.0]), toy_pset(k=2))
    lp, _ = leaf_newton_stats([0, 1, 2, 3], [qr])
    assert lp == pytest.approx(0.0, abs=1e-12)


def test_leaf_value_two_tied_docs():
    pset = permutation_set([ContextSet((0, 1), 0)], k=1,
                           raw_term_count=1, objective_count=1)
    q = single_query(np.zeros(2), pset)
    lprime, ldouble = leaf_newton_stats([0], [q])
    assert (lprime, ldouble) == pytest.approx((0.5, -0.25))
    assert leaf_newton_value([0], [q]) == pytest.approx(-2.0)
    # applied output is the ascent step +2
    outs = newton_leaf_outputs(np.array([0, 1]), 2, q, pseudo_response(np.zeros(2), pset))
    assert outs[0] == pytest.approx(2.0)


def test_curvature_never_positive():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(2, 12))
        pset = random_pset(rng, n, k=n, objectives=2)
        scores = rng.uniform(-4, 4, n)
        q = single_query(scores, pset)
        leaf = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        _, ldouble = leaf_newton_stats(leaf.tolist(), [q])
        assert ldouble <= 1e-15


def test_shift_invariance():
    rng = np.random.default_rng(6)
    n = 9
    pset = random_pset(rng, n, k=5, objectives=2)
    scores = rng.uniform(-2, 2, n)
    base = probs_per_context(scores, pset)
    shifted = probs_per_context(scores + 7.5, pset)
    for a, b in zip(base, shifted):
        assert a == pytest.approx(b, abs=1e-12)


def test_newton_leaf_outputs_match_per_leaf_route():
    rng = np.random.default_rng(7)
    for _ in range(15):
        n_q = int(rng.integers(1, 4))
        ds = make_dataset([
            (qid, [(int(r), {1: 0.0}) for r in rng.integers(0, 4, int(rng.integers(2, 10)))])
            for qid in range(1, n_q + 1)
        ])
        psets = [build_permutations(g, len(g.doc_ids), 1,
                                    np.random.default_rng(int(rng.integers(1e6))))
                 for g in ds.groups]
        scores = rng.uniform(-2, 2, ds.num_documents)
        table = QueryContexts.stack(psets)
        responses = pseudo_response(scores, table)
        queries = [QueryContexts.create(g.doc_ids, p) for g, p in zip(ds.groups, psets)]
        for q in queries:
            q.refresh(scores)
        n_leaves = int(rng.integers(1, 5))
        assign = rng.integers(0, n_leaves, ds.num_documents)
        outs = newton_leaf_outputs(assign, n_leaves, table, responses)
        for leaf in range(n_leaves):
            docs = np.flatnonzero(assign == leaf)
            if docs.size == 0:
                continue
            v = leaf_newton_value(docs.tolist(), queries)
            expected = float(np.clip(-v, -MAX_LEAF_OUTPUT, MAX_LEAF_OUTPUT))
            assert outs[leaf] == pytest.approx(expected, abs=1e-9)


def test_newton_step_improves_likelihood():
    # One damped Newton-valued update on a random leaf partition should very
    # rarely lower the likelihood at alpha = 0.1.
    rng = np.random.default_rng(8)
    alpha = 0.1
    improved = 0
    trials = 1000
    for _ in range(trials):
        n = int(rng.integers(2, 12))
        pset = random_pset(rng, n, k=int(rng.integers(1, n + 1)))
        scores = rng.uniform(-3, 3, n)
        q = QueryContexts.create(np.arange(n), pset)
        q.refresh(scores)
        n_leaves = int(rng.integers(1, 5))
        assign = rng.integers(0, n_leaves, n)
        resp = pseudo_response(scores, pset)
        outs = newton_leaf_outputs(assign, n_leaves, q, resp)
        after = log_likelihood(scores + alpha * outs[assign], pset)
        if after >= log_likelihood(scores, pset) - 1e-12:
            improved += 1
    assert improved >= 0.99 * trials


def kernel_problem():
    """Four ragged queries under K = 5 and three samples each: a two-document
    query whose second and third samples repeat the first's one context, so
    they keep none and are dropped; a query shorter than K; and two longer
    ones with tied grades. Scores are moderate, or 800 apart between grades."""
    rng = np.random.default_rng(32)
    grades = [[1, 0], [2, 1, 1, 0], rng.integers(0, 3, 9).tolist(),
              rng.integers(0, 4, 40).tolist()]
    ds = make_dataset([(qid, [(g, {1: 0.0}) for g in query])
                       for qid, query in enumerate(grades, start=1)])
    psets = [build_permutations(group, 5, 3, np.random.default_rng([32, group.query_id]))
             for group in ds.groups]
    assert psets[0].kept.sum(axis=1).tolist() == [1, 0, 0]
    noise = rng.normal(scale=3.0, size=ds.num_documents)
    top = np.concatenate(grades) > 1
    return QueryContexts.stack(psets), [noise, noise + np.where(top, 800.0, 0.0)]


# SHA-256 of the likelihood kernels' outputs on kernel_problem(), both score
# vectors in turn: the refresh workspace, the gradient, and the curvature
# under two leaf assignments (one with an empty leaf).
KERNEL_BITS = {
    "refresh": "640cef32b30f3adca36b44f0659f30599325069d5bac5e9d4691bc63501b9ea8",
    "response": "8fa25a66c9dbc6d21abea7c3b275c9ca30d9249e99b39b6b8f7266033b09d547",
    "curvature": "ff161811324a5d8185c38602dfbc7c13e7ec936366e78d6e7a76f88ba3622312",
}


def kernel_bits():
    table, score_sets = kernel_problem()
    n = score_sets[0].size
    assigns = [(np.arange(n) % 3, 3), ((np.arange(n) * 7) % 5 + (np.arange(n) > 30), 7)]
    digests = {name: hashlib.sha256() for name in ("refresh", "response", "curvature")}
    for scores in score_sets:
        workspace = table.refresh(scores)
        for name in ("highs", "totals", "head_probs", "tail_weights", "tail_exp"):
            digests["refresh"].update(getattr(workspace, name).tobytes())
        digests["response"].update(response_from_workspace(workspace, table).tobytes())
        for assign, n_leaves in assigns:
            digests["curvature"].update(table.curvature(assign, n_leaves).tobytes())
    return {name: digest.hexdigest() for name, digest in digests.items()}


def test_likelihood_kernel_bits_pinned():
    """The kernels' bits, not only the bound the oracle holds them to: a
    rewrite that only moves work must leave every one as it is."""
    assert kernel_bits() == KERNEL_BITS

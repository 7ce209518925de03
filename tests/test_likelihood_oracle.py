"""The library's likelihood against the exactly rounded per-context reference.

Contexts, champions and raw term counts must equal the reference's exactly.
Every quantity the booster computes from them (probabilities, gradient,
log-likelihood, Newton curvature and leaf outputs) must lie within
``pl_reference.BOUND`` of the reference's exactly rounded value, relative to
the sum of its terms' absolute values, on datasets with interleaved query
blocks, single-document queries, duplicate contexts across samples, k >= n,
extreme and tied scores, and leaves that hold no context member.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pl_reference as ref
from plrank import (
    QueryContexts,
    build_permutations,
    log_likelihood,
    parse_dataset,
    pseudo_response,
)
from plrank.data import dense_features
from plrank.pl_objective import (
    leaf_newton_stats,
    newton_leaf_outputs,
    response_from_workspace,
)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def datasets(draw, max_docs=12):
    """LETOR text with the lines of all queries shuffled together."""
    sizes = draw(st.lists(st.integers(1, max_docs), min_size=1, max_size=4))
    lines = [
        f"{draw(st.integers(0, 3))} qid:{qid} 1:0.5"
        for qid, size in enumerate(sizes, start=1)
        for _ in range(size)
    ]
    order = draw(st.permutations(range(len(lines))))
    return parse_dataset("\n".join(lines[i] for i in order) + "\n")


SCORE = st.one_of(
    st.floats(-5.0, 5.0),
    st.floats(-710.0, 710.0),
    st.sampled_from([700.0, -700.0, 699.25, -699.75, 0.0]),
)


@st.composite
def scores_for(draw, n):
    if draw(st.booleans()):
        return np.full(n, draw(SCORE))  # all scores equal
    return np.array(draw(st.lists(SCORE, min_size=n, max_size=n)))


def sample_both(group, k, objectives, seed):
    """The table's and the reference's sampling, from the same stream."""
    pset = build_permutations(
        group, k, objectives, np.random.default_rng([seed, group.query_id])
    )
    contexts, raw = ref.build_contexts(
        group, k, objectives, np.random.default_rng([seed, group.query_id])
    )
    return pset, contexts, raw


@st.composite
def problems(draw, max_docs=12):
    ds = draw(datasets(max_docs))
    k = draw(st.integers(1, max_docs + 2))
    objectives = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**16))
    psets, refs = [], []
    for group in ds.groups:
        pset, contexts, _ = sample_both(group, k, objectives, seed)
        if pset.num_contexts:
            psets.append(pset)
            refs.append(ref.RefQuery(group.doc_ids, contexts))
    scores = draw(scores_for(ds.num_documents))
    return ds, psets, refs, scores


@settings(max_examples=150, deadline=None)
@given(ds=datasets(), k=st.integers(1, 14), objectives=st.integers(1, 5),
       seed=st.integers(0, 2**16))
def test_contexts_match_member_set_dedup(ds, k, objectives, seed):
    for group in ds.groups:
        pset, contexts, raw = sample_both(group, k, objectives, seed)
        assert pset.contexts == contexts
        assert pset.raw_term_count == raw
        assert pset.orders.dtype == np.int32
        assert pset.orders.shape == (objectives, len(group.doc_ids))
        assert pset.kept.shape == (objectives, max(0, min(k, len(group.doc_ids) - 1)))
        if not contexts:
            continue
        doc_ids = np.asarray(group.doc_ids)
        expected = [([int(doc_ids[i]) for i in c.member_indices], int(doc_ids[c.champion_index]))
                    for c in contexts]
        table = QueryContexts.stack([pset])
        table.refresh(np.zeros(ds.num_documents))
        got = [(ids.tolist(), champion) for (ids, _), champion
               in zip(ref.context_entries(table), table.champions.tolist())]
        assert got == expected


@settings(max_examples=150, deadline=None)
@given(problems())
def test_probabilities_gradient_and_loglik_within_bound(problem):
    ds, psets, refs, scores = problem
    table = QueryContexts.stack(psets)
    workspace = table.refresh(scores)
    for q in refs:
        q.refresh(scores)
    expected = [p for q in refs for p in q.probs_per_context]
    got = [probs for _, probs in ref.context_entries(table)]
    assert len(got) == len(expected)
    assert all(a.shape == b.shape and ref.within(a, b, 1.0) for a, b in zip(got, expected))

    responses = response_from_workspace(workspace, table)
    assert ref.within(responses, *ref.booster_responses(refs, scores))
    assert ref.within(log_likelihood(scores, table), *ref.booster_objective(refs, scores))


def leaf_assignment(data, ds, refs, n_leaves):
    """A random leaf per document. The last leaf holds no document at all,
    or only documents of queries without contexts; with one leaf every
    document shares it."""
    in_contexts = np.zeros(ds.num_documents, dtype=bool)
    for q in refs:
        in_contexts[q.doc_ids] = True
    assign = np.array(data.draw(st.lists(
        st.integers(0, max(0, n_leaves - 2)),
        min_size=ds.num_documents, max_size=ds.num_documents)), dtype=np.intp)
    assign[~in_contexts] = n_leaves - 1
    return assign


@settings(max_examples=150, deadline=None)
@given(problems(), st.data())
def test_newton_leaf_outputs_within_bound(problem, data):
    ds, psets, refs, scores = problem
    n_leaves = data.draw(st.integers(1, 6))
    assign = leaf_assignment(data, ds, refs, n_leaves)
    table = QueryContexts.stack(psets)
    responses = response_from_workspace(table.refresh(scores), table)
    got = newton_leaf_outputs(assign, n_leaves, table, responses)
    expected, slack = ref.newton_leaf_outputs(assign, n_leaves, refs, scores)
    assert np.isfinite(got).all()
    assert np.all(np.abs(got - expected) <= slack)


@settings(max_examples=60, deadline=None)
@given(problems(), st.data())
def test_leaf_newton_stats_match_reference(problem, data):
    """The two-leaf statistics: L'(0) and the curvature L''(0), within the bound."""
    ds, psets, refs, scores = problem
    leaf = data.draw(st.lists(st.integers(0, ds.num_documents - 1), min_size=1,
                              unique=True))
    queries = [QueryContexts.create(q.doc_ids, p) for q, p in zip(refs, psets)]
    for q in queries:
        q.refresh(scores)
    assign = np.zeros(ds.num_documents, dtype=np.intp)
    assign[leaf] = 1
    grad, grad_scale, curv, curv_scale = ref.newton_stats(assign, 2, refs, scores)
    lprime, ldouble = leaf_newton_stats(leaf, queries)
    assert ref.within(lprime, grad[1], grad_scale[1])
    assert ref.within(ldouble, curv[1], curv_scale[1])


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 300), st.integers(1, 12), st.integers(1, 4),
       st.integers(0, 2**16), st.data())
def test_single_query_long_contexts(n, k, objectives, seed, data):
    """Long contexts: sums over up to 300 members."""
    text = "".join(f"{g} qid:1 1:0.5\n" for g in data.draw(
        st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    group = parse_dataset(text).groups[0]
    pset, contexts, _ = sample_both(group, k, objectives, seed)
    scores = np.array(data.draw(st.lists(st.floats(-30.0, 30.0), min_size=n, max_size=n)))
    query = [ref.RefQuery(np.arange(n), contexts)]
    assert ref.within(pseudo_response(scores, pset), *ref.booster_responses(query, scores))
    assert ref.within(log_likelihood(scores, pset), *ref.booster_objective(query, scores))


def test_refresh_reuses_the_softmax_of_equal_scores():
    ds = parse_dataset("2 qid:1 1:0\n1 qid:1 1:0\n0 qid:1 1:0\n")
    table = QueryContexts.stack([build_permutations(ds.groups[0], 3, 1,
                                                    np.random.default_rng(0))])
    scores = np.array([0.3, -0.2, 0.1])
    first = table.refresh(scores)
    assert table.refresh(scores.copy()) is first
    scores[0] = 0.4  # changed in place: recomputed
    second = table.refresh(scores)
    assert second is not first
    assert not same_bits(second.head_probs, first.head_probs)


@st.composite
def linear_problems(draw, width=3):
    """A dataset with ``width`` drawn features, weights, sampling flags, and
    the reference's (features, contexts) terms per query with a context."""
    ds = draw(datasets(max_docs=9))
    k, objectives, seed = draw(st.integers(1, 10)), draw(st.integers(1, 4)), draw(
        st.integers(0, 2**16))
    lines = [f"{g} qid:{q} " + " ".join(f"{j}:{v!r}" for j, v in enumerate(
        draw(st.lists(st.floats(-2.0, 2.0), min_size=width, max_size=width)), start=1))
        for q, g in ((group.query_id, grade)
                     for group in ds.groups for grade in group.relevances().tolist())]
    ds = parse_dataset("\n".join(lines) + "\n")
    weights = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=width,
                                     max_size=width)))
    terms = []
    for group in ds.groups:
        contexts, _ = ref.build_contexts(
            group, k, objectives, np.random.default_rng([seed, group.query_id]))
        if contexts:
            terms.append((dense_features(group, width), contexts))
    return ds, weights, (k, objectives, seed), terms


@settings(max_examples=40, deadline=None)
@given(problem=linear_problems())
def test_linear_objective_matches_per_context_loop(problem):
    """Linear ListMLE sums in another order: equal to a relative 1e-10."""
    ds, weights, flags, terms = problem
    obj, grad = ref.library_linear_objective(weights, ds, *flags)
    ref_obj, ref_grad = ref.linear_objective_and_gradient(weights, terms)
    assert math.isclose(obj, ref_obj, rel_tol=1e-10, abs_tol=1e-12)
    scale = max(1.0, float(np.abs(ref_grad).max()))
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-10, atol=1e-10 * scale)


@settings(max_examples=40, deadline=None)
@given(problem=linear_problems())
def test_linear_newton_curvature_matches_per_context_loop(problem):
    """The matrix the Newton step solves against is the sum, context by
    context, of X_c'(diag p - pp')X_c plus I: equal to a relative 1e-10 of
    its largest entry (at least 1, from the prior)."""
    ds, weights, flags, terms = problem
    got = ref.library_linear_curvature(weights, ds, *flags)
    expected = ref.linear_curvature(weights, terms)
    np.testing.assert_allclose(got, expected, rtol=1e-10,
                               atol=1e-10 * float(np.abs(expected).max()))


def wide_gap_problem(top_high: bool):
    """Four top-graded documents above 30 others; ``top_high`` puts the top
    scores 800 above the rest, otherwise the rest sit 800 above the top."""
    grades = [2] * 4 + [0] * 30
    ds = parse_dataset("".join(f"{g} qid:1 1:0.5\n" for g in grades))
    pset, contexts, _ = sample_both(ds.groups[0], 6, 3, 11)
    noise = np.random.default_rng(5).uniform(-1.0, 1.0, len(grades))
    scores = noise + np.where(np.array(grades) > 0, 800.0, 0.0)
    if not top_high:
        scores = noise + np.where(np.array(grades) > 0, 0.0, 800.0)
    return ds, pset, [ref.RefQuery(ds.groups[0].doc_ids, contexts)], scores


@pytest.mark.parametrize("top_high", [True, False], ids=["head-above", "tail-above"])
def test_wide_score_gap_stays_finite_and_within_bound(top_high):
    """A single shift per sample would underflow every total past the gap."""
    ds, pset, refs, scores = wide_gap_problem(top_high)
    table = QueryContexts.stack([pset])
    loglik = log_likelihood(scores, table)
    responses = response_from_workspace(table.workspace, table)
    assert np.isfinite(loglik) and np.isfinite(responses).all()
    assert ref.within(loglik, *ref.booster_objective(refs, scores))
    assert ref.within(responses, *ref.booster_responses(refs, scores))
    for n_leaves in (2, 3):
        assign = np.arange(ds.num_documents) % n_leaves
        got = newton_leaf_outputs(assign, n_leaves, table, responses)
        expected, slack = ref.newton_leaf_outputs(assign, n_leaves, refs, scores)
        assert np.isfinite(got).all()
        assert np.all(np.abs(got - expected) <= slack)


def test_workspace_holds_one_entry_per_order_position():
    """Per sample, n entries (head and tail), plus a depth-wide head row per
    context; not one entry per member of every context."""
    n, k, objectives = 200, 5, 3
    ds = parse_dataset("".join(f"{i % 3} qid:1 1:0.5\n" for i in range(n)))
    pset = build_permutations(ds.groups[0], k, objectives, np.random.default_rng(4))
    table = QueryContexts.stack([pset])
    workspace = table.refresh(np.zeros(n))
    samples = int(pset.kept.any(axis=1).sum())
    assert table.head.shape == (samples, k)
    assert workspace.tail_exp.size + table.head.size == samples * n
    assert workspace.head_probs.shape == (pset.num_contexts, k)
    members = sum(len(c.member_indices) for c in pset.contexts)
    assert workspace.tail_exp.size + workspace.head_probs.size < members / 2

"""The flat context table against the per-context reference, bit for bit.

Every quantity the booster reads from the table (contexts, probabilities,
gradient, log-likelihood, Newton leaf outputs) must equal what the old loop
over contexts computes, to the last bit, on datasets with interleaved query
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
        doc_ids = np.asarray(group.doc_ids)
        expected = [int(doc_ids[i]) for c in contexts
                    for i in (*c.member_indices, c.champion_index)]
        assert pset.table.dtype == np.int32
        assert pset.table.tolist() == expected
        assert pset.lengths.tolist() == [len(c.member_indices) for c in contexts]


@settings(max_examples=150, deadline=None)
@given(problems())
def test_probabilities_gradient_and_loglik_bit_identical(problem):
    ds, psets, refs, scores = problem
    table = QueryContexts.stack(psets)
    workspace = table.refresh(scores)
    for q in refs:
        q.refresh(scores)
    expected = [p for q in refs for p in q.probs_per_context]
    got = [workspace.probs[c - length:c]
           for c, length in zip(table.champions, table.lengths)]
    assert len(got) == len(expected)
    assert all(same_bits(a, b) for a, b in zip(got, expected))
    assert not workspace.probs[table.champions].any()

    responses = response_from_workspace(workspace, table)
    assert same_bits(responses, ref.booster_responses(refs, scores))
    assert same_bits(log_likelihood(scores, table), float(ref.booster_objective(refs, scores)))


@settings(max_examples=150, deadline=None)
@given(problems(), st.data())
def test_newton_leaf_outputs_bit_identical(problem, data):
    ds, psets, refs, scores = problem
    n_leaves = data.draw(st.integers(1, 6))
    # The last leaf holds no document at all, or only documents of queries
    # without contexts; with one leaf every document shares it.
    in_contexts = np.zeros(ds.num_documents, dtype=bool)
    for q in refs:
        in_contexts[q.doc_ids] = True
    assign = np.array(data.draw(st.lists(
        st.integers(0, max(0, n_leaves - 2)),
        min_size=ds.num_documents, max_size=ds.num_documents)), dtype=np.intp)
    assign[~in_contexts] = n_leaves - 1

    table = QueryContexts.stack(psets)
    responses = response_from_workspace(table.refresh(scores), table)
    ref_responses = ref.booster_responses(refs, scores)
    got = newton_leaf_outputs(assign, n_leaves, table, responses)
    expected = ref.newton_leaf_outputs(assign, n_leaves, refs, ref_responses)
    assert same_bits(got, expected)


@settings(max_examples=60, deadline=None)
@given(problems(), st.data())
def test_leaf_newton_stats_match_reference(problem, data):
    """The two-leaf statistics sum in another order: equal to 1e-12."""
    ds, psets, refs, scores = problem
    leaf = data.draw(st.lists(st.integers(0, ds.num_documents - 1), min_size=1,
                              unique=True))
    queries = [QueryContexts.create(q.doc_ids, p) for q, p in zip(refs, psets)]
    for q in [*queries, *refs]:
        q.refresh(scores)
    expected = ref.leaf_newton_stats(leaf, refs)
    assert leaf_newton_stats(leaf, queries) == pytest.approx(expected, rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 300), st.integers(1, 12), st.integers(1, 4),
       st.integers(0, 2**16), st.data())
def test_single_query_long_contexts(n, k, objectives, seed, data):
    """Long contexts exercise numpy's pairwise summation blocks (> 8, > 128)."""
    text = "".join(f"{g} qid:1 1:0.5\n" for g in data.draw(
        st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    group = parse_dataset(text).groups[0]
    pset, contexts, _ = sample_both(group, k, objectives, seed)
    scores = np.array(data.draw(st.lists(st.floats(-30.0, 30.0), min_size=n, max_size=n)))
    assert same_bits(pseudo_response(scores, pset), ref.pseudo_response(scores, contexts))
    assert same_bits(log_likelihood(scores, pset), ref.log_likelihood(scores, contexts))


def test_curvature_adds_contexts_in_order_for_one_leaf():
    """Masses of varied size, so a pairwise sum over contexts would differ."""
    rng = np.random.default_rng(3)
    lengths = rng.integers(2, 6, 300)
    table = QueryContexts(np.zeros(int((lengths + 1).sum()), dtype=np.intp), lengths,
                          [lengths.size])
    probs = rng.random(table.table.size) * 10.0 ** rng.integers(-8, 3, table.table.size)
    probs[table.champions] = 0.0
    leaf_of_entry = np.zeros(table.table.size, dtype=np.intp)
    expected = np.zeros(1)
    for end, length in zip(table.champions, lengths):
        mass = np.bincount(leaf_of_entry[end - length:end],
                           weights=probs[end - length:end], minlength=1)
        expected += mass * (mass - 1.0)
    assert same_bits(table.curvature(probs, leaf_of_entry, 1), expected)


def test_block_row_sums_match_one_dimensional_sums():
    """The property the table's per-context totals rest on."""
    rng = np.random.default_rng(0)
    for length in (2, 7, 8, 9, 100, 128, 129, 300, 1000):
        block = rng.random((5, length))
        sums = block.sum(axis=1)
        assert all(same_bits(sums[i], block[i].sum()) for i in range(5))


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
    assert not same_bits(second.probs, first.probs)


@settings(max_examples=40, deadline=None)
@given(ds=datasets(max_docs=9), k=st.integers(1, 10), objectives=st.integers(1, 4),
       seed=st.integers(0, 2**16), data=st.data())
def test_linear_objective_matches_per_context_loop(ds, k, objectives, seed, data):
    """Linear ListMLE sums in another order: equal to a relative 1e-10."""
    width = 3
    lines = [f"{g} qid:{q} " + " ".join(f"{j}:{v!r}" for j, v in enumerate(
        data.draw(st.lists(st.floats(-2.0, 2.0), min_size=width, max_size=width)), start=1))
        for q, g in ((group.query_id, grade)
                     for group in ds.groups for grade in group.relevances().tolist())]
    ds = parse_dataset("\n".join(lines) + "\n")
    weights = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=width,
                                          max_size=width)))
    terms = []
    for group in ds.groups:
        contexts, _ = ref.build_contexts(
            group, k, objectives, np.random.default_rng([seed, group.query_id]))
        if contexts:
            terms.append((dense_features(group, width), contexts))
    obj, grad = ref.library_linear_objective(weights, ds, k, objectives, seed)
    ref_obj, ref_grad = ref.linear_objective_and_gradient(weights, terms)
    assert math.isclose(obj, ref_obj, rel_tol=1e-10, abs_tol=1e-12)
    scale = max(1.0, float(np.abs(ref_grad).max()))
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-10, atol=1e-10 * scale)

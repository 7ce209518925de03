import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plrank import ValidationError, dcg_at_k, err, evaluate, mart_response, ndcg_at_k
from plrank.metrics import DCG_OVERFLOW, rank_order

from helpers import dataset_with_grades, make_dataset
from metrics_reference import reference_evaluate


# Frozen from direct evaluation of the definitions.
DCG_32 = 8.892789260714373
NDCG_230 = 0.8339912323981488
ERR_4 = 0.9375
ERR_44 = 0.966796875


def test_dcg_two_terms():
    assert dcg_at_k([3, 2], 2) == pytest.approx(DCG_32, abs=1e-12)


def test_dcg_all_zero():
    assert dcg_at_k([0, 0, 0], 5) == 0.0


def test_dcg_single_unit_gain():
    assert dcg_at_k([1], 10) == 1.0


def test_dcg_rejects_zero_cutoff():
    with pytest.raises(ValidationError):
        dcg_at_k([1], 0)


@pytest.mark.parametrize("call, message", [
    (lambda: dcg_at_k([2000], 1), "grade must be <= 1023, got 2000"),
    (lambda: ndcg_at_k([1024, 0], 1), "grade must be <= 1023, got 1024"),
    (lambda: ndcg_at_k([1.5, 0], 2), "grade must be an integer, got 1.5"),
    (lambda: dcg_at_k([-1], 1), "grade must be >= 0, got -1"),
    (lambda: ndcg_at_k([-1, 0], 2), "grade must be >= 0, got -1"),
    (lambda: dcg_at_k([True, 0], 2), "grade must be an integer, got True"),
    (lambda: dcg_at_k([0, 1024], 1), "grade must be <= 1023, got 1024"),
    (lambda: mart_response([0.0], [1024], "mart1"), "grade must be <= 1023, got 1024"),
    (lambda: mart_response([0.0, 0.0], [2, 1.5], "mart2"), "grade must be an integer, got 1.5"),
    (lambda: dcg_at_k([1023] * 3, 3), DCG_OVERFLOW),
    (lambda: ndcg_at_k([0, 0, 1023, 1023, 1023], 5), DCG_OVERFLOW),
])
def test_dcg_based_metrics_take_integer_grades_from_0_to_1023(call, message):
    """Once a bare OverflowError from 2.0 ** grade, or a value for a grade
    that is no count (1.0 for [1.5, 0], -0.5 for [-1], 1.585 for [-1, 0]).
    Every grade given is checked, also past the cutoff, and a DCG past the
    largest double is refused, not returned as inf."""
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


def test_dcg_nondecreasing_in_k():
    rng = np.random.default_rng(3)
    for _ in range(50):
        grades = rng.integers(0, 5, size=rng.integers(1, 12)).tolist()
        values = [dcg_at_k(grades, k) for k in range(1, len(grades) + 3)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_ndcg_sorted_is_one():
    for grades in ([3, 2, 1], [4, 4, 0], [1]):
        for k in (1, 2, 10):
            assert ndcg_at_k(grades, k) == pytest.approx(1.0)


def test_ndcg_worst_at_cutoff():
    assert ndcg_at_k([0, 3], 1) == 0.0


def test_ndcg_mixed_order():
    assert ndcg_at_k([2, 3, 0], 3) == pytest.approx(NDCG_230, abs=1e-9)


def test_ndcg_degenerate_policies():
    assert ndcg_at_k([0, 0], 3, "zero") == 0.0
    assert ndcg_at_k([0, 0], 3, "one") == 1.0
    assert ndcg_at_k([0, 0], 3, "skip") is None


def test_ndcg_monotone_transform_invariance():
    # NDCG depends on scores only through the sort; evaluate() sorts, so pass
    # transformed scores through a dataset evaluation.
    rng = np.random.default_rng(4)
    docs = [(int(g), {1: float(rng.normal())}) for g in rng.integers(0, 4, 8)]
    ds = make_dataset([(1, docs)])
    scores = rng.normal(size=8)
    base = evaluate(ds, scores, [1, 3, 5])
    for transform in (lambda s: 3 * s + 1, np.tanh, lambda s: np.exp(s / 2)):
        same = evaluate(ds, transform(scores), [1, 3, 5])
        assert same.ndcg_at == base.ndcg_at


def test_ndcg_one_iff_ideal_prefix():
    # Brute force over every ordering of small grade lists.
    for grades in ([2, 1, 0], [1, 1, 0, 2], [0, 3, 3], [1, 2, 2, 0, 1]):
        ideal = sorted(grades, reverse=True)
        for k in range(1, len(grades) + 1):
            for perm in itertools.permutations(grades):
                value = ndcg_at_k(list(perm), k)
                matches = list(perm)[:k] == ideal[:k]
                assert (value == pytest.approx(1.0)) == matches


def test_err_single_top_grade():
    assert err([4], 4) == pytest.approx(ERR_4, abs=1e-12)


def test_err_all_zero():
    assert err([0, 0, 0], 4) == 0.0


def test_err_two_top_grades():
    assert err([4, 4], 4) == pytest.approx(ERR_44, abs=1e-12)


def test_err_rejects_grade_above_gmax():
    with pytest.raises(ValidationError):
        err([5], 4)
    with pytest.raises(ValidationError):
        err([1], 0)


def test_err_matches_the_quotient_below_the_float_range():
    """Each stop probability is (2**g - 1) / 2**g_max to the bit while 2**g_max is a float."""
    grades = list(range(32))
    for g_max in range(31, 1024):
        norm = 2.0 ** g_max
        total, not_stopped = 0.0, 1.0
        for pos, grade in enumerate(grades, start=1):
            stop = (2.0 ** grade - 1.0) / norm
            total += not_stopped * stop / pos
            not_stopped *= 1.0 - stop
        assert err(grades, g_max) == total


@pytest.mark.parametrize("g_max", [1024, 5000, 10**30])
def test_err_past_the_float_range(g_max):
    """2.0 ** 1024 once raised OverflowError, and a numpy grade against a
    g_max past int64 did too."""
    # Grade 2 stops with probability 3 / 2**g_max and grade 1 at rank 3 adds a third of 1 / 2**g_max.
    assert err([2, 0, 1], g_max) == pytest.approx(math.ldexp(10 / 3, -g_max), rel=1e-9, abs=0)
    assert err([np.int64(2), 0, np.uint64(1)], g_max) == err([2, 0, 1], g_max)


def test_err_grades_past_the_float_range():
    """2.0 ** 1024 once raised OverflowError for a grade, not only for g_max."""
    assert err([1024], 2000) == 2.0 ** -976
    assert err([1100, 0], 1200) == math.ldexp(1.0, 1100 - 1200)
    assert err([1199, 1200], 1200) == 0.75


def test_err_in_unit_interval():
    rng = np.random.default_rng(9)
    for _ in range(100):
        grades = rng.integers(0, 5, size=rng.integers(1, 10)).tolist()
        value = err(grades, 4)
        assert 0.0 <= value < 1.0


def test_err_increasing_in_first_grade():
    tail = [2, 0, 3]
    values = [err([g] + tail, 4) for g in range(5)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_rank_order_ties_break_by_index():
    assert rank_order(np.array([1.0, 2.0, 2.0, 0.0])).tolist() == [1, 2, 0, 3]


# Few distinct values, so ties (and -0.0 against 0.0) are common.
TIED_SCORES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0]) | st.floats(-1e6, 1e6)


@st.composite
def scored_datasets(draw):
    queries = []
    for qid in range(1, draw(st.integers(1, 5)) + 1):
        grades = draw(st.lists(st.integers(0, 4), min_size=1, max_size=12))
        queries.append((qid, [(g, {1: 0.0}) for g in grades]))
    n = sum(len(docs) for _, docs in queries)
    scores = draw(st.lists(TIED_SCORES, min_size=n, max_size=n))
    return make_dataset(queries), np.array(scores)


@settings(max_examples=200, deadline=None)
@given(scored_datasets(), st.sampled_from(["zero", "one", "skip"]))
def test_evaluate_without_err_keeps_the_ndcg_bits(problem, policy):
    """What training's validation step reads is what the full report holds."""
    ds, scores = problem
    cutoffs = [1, 3, 10, 1000]
    full = evaluate(ds, scores, cutoffs, degenerate_policy=policy)
    bare = evaluate(ds, scores, cutoffs, degenerate_policy=policy, include_err=False)
    assert bare.err is None and full.err is not None
    assert {k: v.hex() for k, v in bare.ndcg_at.items()} == {
        k: v.hex() for k, v in full.ndcg_at.items()
    }
    assert (bare.degenerate_query_count, bare.query_count) == (
        full.degenerate_query_count, full.query_count
    )
    assert rank_order(scores).tolist() == np.lexsort((np.arange(scores.size), -scores)).tolist()


def test_evaluate_perfect_scores():
    ds = make_dataset(
        [(1, [(3, {1: 0.1}), (1, {1: 0.2})]), (2, [(2, {1: 0.3}), (0, {1: 0.4})])]
    )
    report = evaluate(ds, [3.0, 1.0, 2.0, 0.0], [1, 3, 10])
    assert all(v == pytest.approx(1.0) for v in report.ndcg_at.values())
    assert report.degenerate_query_count == 0


def test_evaluate_worst_at_one():
    ds = make_dataset([(1, [(3, {1: 0.0}), (0, {1: 0.0})])])
    report = evaluate(ds, [0.0, 1.0], [1])
    assert report.ndcg_at[1] == 0.0


def test_evaluate_mean_over_queries():
    ds = make_dataset(
        [(1, [(1, {1: 0.0}), (0, {1: 0.0})]), (2, [(1, {1: 0.0}), (0, {1: 0.0})])]
    )
    report = evaluate(ds, [1.0, 0.0, 0.0, 1.0], [1])
    assert report.ndcg_at[1] == pytest.approx(0.5)


def test_evaluate_degenerate_count_and_policies():
    ds = make_dataset([(1, [(0, {1: 0.0}), (0, {1: 0.0})]), (2, [(1, {1: 0.0})])])
    zero = evaluate(ds, [0.0, 0.0, 1.0], [1], degenerate_policy="zero")
    assert zero.degenerate_query_count == 1
    assert zero.ndcg_at[1] == pytest.approx(0.5)
    skip = evaluate(ds, [0.0, 0.0, 1.0], [1], degenerate_policy="skip")
    assert skip.ndcg_at[1] == pytest.approx(1.0)


def test_evaluate_score_length_mismatch():
    ds = make_dataset([(1, [(1, {1: 0.0})])])
    with pytest.raises(ValidationError):
        evaluate(ds, [1.0, 2.0], [1])


@pytest.mark.parametrize("scores, first", [
    ([math.nan, 1.0, 0.0], 0), ([1.0, 0.0, math.inf], 2), ([0.0, -math.inf, math.inf], 1),
])
def test_evaluate_rejects_non_finite_scores(scores, first):
    ds = make_dataset([(1, [(2, {1: 1.0}), (0, {1: 2.0}), (1, {1: 3.0})])])
    with pytest.raises(ValidationError, match=f"non-finite score .* for document {first}$"):
        evaluate(ds, scores, [3])


def test_report_rendering():
    ds = make_dataset([(1, [(1, {1: 0.0}), (0, {1: 0.0})])])
    report = evaluate(ds, [1.0, 0.0], [1, 3])
    text = report.format_text()
    assert "NDCG@1" in text and "ERR" in text
    kv = report.format_keyvalues()
    assert "ndcg@1=" in kv and "err=" in kv
    fields = dict(part.split("=", 1) for part in kv.splitlines())
    assert float(fields["ndcg@1"]) == pytest.approx(1.0)


def test_report_without_err_formats_without_it():
    """The formatters print what the report holds: a report made without ERR
    prints none, one with ERR prints it, and one whose ERR is cleared prints
    as the bare one."""
    ds = make_dataset([(1, [(1, {1: 0.0}), (0, {1: 0.0})])])
    full = evaluate(ds, [1.0, 0.0], [1, 3])
    bare = evaluate(ds, [1.0, 0.0], [1, 3], include_err=False)
    cleared = dataclasses.replace(full, err=None)
    for name in ("format_text", "format_keyvalues"):
        assert getattr(bare, name)() == getattr(cleared, name)() != getattr(full, name)()
    assert "ERR" not in bare.format_text() and "err=" not in bare.format_keyvalues()
    assert "ERR" in full.format_text() and "err=" in full.format_keyvalues()


def _report_bits(report):
    return ({k: v.hex() for k, v in report.ndcg_at.items()},
            None if report.err is None else report.err.hex(),
            report.degenerate_query_count, report.query_count)


@st.composite
def mixed_queries(draw):
    """Queries of mixed lengths, several often of one length, some sharing a
    qid across the file, with scores that tie often (-0.0 with 0.0 too)."""
    lengths = draw(st.lists(st.sampled_from([1, 2, 3, 5, 8]) | st.integers(1, 14),
                            max_size=9))
    top = draw(st.integers(0, 6))
    queries = []
    for n in lengths:
        qid = draw(st.integers(0, 5))
        grades = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
        queries.append((qid, [(g, {1: 0.0}) for g in grades]))
    ds = make_dataset(queries)
    scores = draw(st.lists(TIED_SCORES, min_size=ds.num_documents,
                           max_size=ds.num_documents))
    return ds, np.array(scores, dtype=np.float64)


def _outcome(evaluator, *args, **kwargs):
    """The report's bits and its cutoffs in order, or the error's message."""
    try:
        report = evaluator(*args, **kwargs)
    except ValidationError as exc:
        return str(exc)
    return _report_bits(report), list(report.ndcg_at)


@settings(max_examples=300, deadline=None)
@given(mixed_queries(),
       st.lists(st.integers(0, 20), min_size=0, max_size=4),
       st.sampled_from(["zero", "one", "skip", "nope"]),
       st.booleans(),
       st.none() | st.integers(0, 40) | st.sampled_from([1023, 1100, 5000, 10**30]))
def test_evaluate_matches_the_per_query_reference(problem, cutoffs, policy, include_err,
                                                  g_max):
    """The 2-D pass gives the per-query loop's report to the bit, or its
    error: cutoffs past a query's length, repeated cutoffs, every policy,
    with and without ERR, and a g_max below, at and far past the grades."""
    ds, scores = problem
    args = (ds, scores, cutoffs, g_max, policy)
    assert (_outcome(evaluate, *args, include_err=include_err)
            == _outcome(reference_evaluate, *args, include_err=include_err))


def test_evaluate_averages_a_repeated_cutoff_as_often_as_it_is_listed():
    """The per-query loop appended each query's NDCG@2 once per listing, and
    a mean of [a, a, b, b, c, c] is not always the bits of one of [a, b, c]."""
    ds = make_dataset([(0, [(0, {1: 0.0}), (0, {1: 0.0}), (2, {1: 0.0})]),
                       (1, [(1, {1: 0.0}), (1, {1: 0.0}), (1, {1: 0.0})]),
                       (2, [(2, {1: 0.0}), (1, {1: 0.0}), (0, {1: 0.0})])])
    scores = [2.0, 7.0, 6.0, 0.0, 1.0, 5.0, 4.0, 8.0, 3.0]
    twice = evaluate(ds, scores, [2, 3, 2]).ndcg_at[2]
    assert twice.hex() == reference_evaluate(ds, scores, [2, 3, 2]).ndcg_at[2].hex()
    assert twice != evaluate(ds, scores, [2]).ndcg_at[2]


# Two queries; the first ranks grade 4 above grade 3, the second holds a 5.
PRECEDENCE_DATA = [(1, [(3, {1: 0.0}), (4, {1: 0.0}), (0, {1: 0.0})]),
                   (2, [(5, {1: 0.0}), (0, {1: 0.0})])]
PRECEDENCE_SCORES = [1.0, 2.0, 0.0, 1.0, 0.0]


@pytest.mark.parametrize("kwargs, message", [
    (dict(scores=[1.0], cutoffs=[0], degenerate_policy="nope", g_max=0),
     "got 1 scores for 5 documents"),
    (dict(scores=[1.0, 2.0, math.nan, 0.0, 0.0], cutoffs=[0], degenerate_policy="nope"),
     "non-finite score nan for document 2"),
    (dict(cutoffs=[2.5, 0], degenerate_policy="nope", g_max=0),
     "unknown degenerate policy 'nope'"),
    (dict(cutoffs=[], degenerate_policy="nope"), "unknown degenerate policy 'nope'"),
    (dict(cutoffs=[3, 2.5, 0], g_max=0), "cutoff k must be an integer, got 2.5"),
    (dict(cutoffs=[3, 0, 2.5], g_max=0), "cutoff k must be >= 1, got 0"),
    (dict(cutoffs=[3], g_max=0), "g_max must be >= 1, got 0"),
    (dict(cutoffs=[3], g_max=2), "grade 4 exceeds g_max 2"),
    (dict(cutoffs=[3], g_max=4), "grade 5 exceeds g_max 4"),
])
def test_evaluate_checks_its_arguments_in_order_before_any_query(kwargs, message):
    """Scores, policy, cutoffs in order, g_max, then the first grade above
    g_max in query order and then rank order, as the per-query loop met them."""
    ds = make_dataset(PRECEDENCE_DATA)
    kwargs = {"scores": PRECEDENCE_SCORES, **kwargs}
    for evaluator in (evaluate, reference_evaluate):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            evaluator(ds, **kwargs)


@pytest.mark.parametrize("g_max, message", [
    (0, "g_max must be >= 1, got 0"),
    (2, "grade 4 exceeds g_max 2"),
    (2.5, "g_max must be an integer, got 2.5"),
])
def test_evaluate_checks_g_max_with_and_without_err(g_max, message):
    """Without ERR a g_max of 0, 2 or 2.5 once passed unchecked."""
    ds = make_dataset(PRECEDENCE_DATA)
    for include_err in (True, False):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            evaluate(ds, PRECEDENCE_SCORES, [3], g_max, include_err=include_err)
    report = evaluate(ds, PRECEDENCE_SCORES, [3], include_err=False)
    assert report.err is None and report.query_count == 2


def test_evaluate_checks_cutoffs_without_queries():
    """A dataset with no queries once reported NDCG@2.5 and NDCG@0 as 0.0."""
    ds = make_dataset([])
    with pytest.raises(ValidationError, match=r"^cutoff k must be an integer, got 2\.5$"):
        evaluate(ds, [], cutoffs=[2.5, 0])
    with pytest.raises(ValidationError, match=r"^unknown degenerate policy 'nope'$"):
        evaluate(ds, [], degenerate_policy="nope")
    report = evaluate(ds, [], cutoffs=[3])
    assert (report.ndcg_at, report.err, report.query_count) == ({3: 0.0}, 0.0, 0)


def test_err_refuses_a_grade_that_is_no_integer():
    """err([1.5], 3) once raised a bare TypeError."""
    with pytest.raises(ValidationError, match=r"^grade must be an integer, got 1\.5$"):
        err([1.5], 3)


@pytest.mark.parametrize("grades, kwargs, message", [
    ([[0, 1024]], {}, "grade must be <= 1023, got 1024"),
    ([[3], [2000, 1500]], {}, "grade must be <= 1023, got 1500"),
    ([[2, -1, -5]], {"cutoffs": []}, "grade must be >= 0, got -5"),
    ([[1024, -1]], {"g_max": 5}, "grade must be >= 0, got -1"),
    ([[0], [1023, 1023, 1023]], {"include_err": False}, DCG_OVERFLOW),
    ([[1023, 1023, 1023]], {"cutoffs": [1]}, None),
    ([[1024], [2**63 - 1]], {"cutoffs": [], "g_max": 10**30}, None),
])
def test_evaluate_applies_the_grade_rules_before_any_query(grades, kwargs, message):
    """Grade 1024 once gave an NDCG of nan and a RuntimeWarning. Grades past
    1023 are refused only where an NDCG is computed, as the per-query
    reference refuses them, and never with a warning."""
    ds = dataset_with_grades(grades)
    scores = np.arange(ds.num_documents, dtype=np.float64)  # a query's last line ranks first
    if message is None:
        assert _outcome(evaluate, ds, scores, **kwargs) == _outcome(
            reference_evaluate, ds, scores, **kwargs)
        report = evaluate(ds, scores, **kwargs)
        assert all(math.isfinite(v) for v in [*report.ndcg_at.values(), report.err])
        return
    for evaluator in (evaluate, reference_evaluate):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            evaluator(ds, scores, **kwargs)


ODD_GRADE = st.integers(0, 6) | st.sampled_from([-1, 1022, 1023, 1024, 2000, 2**63 - 1, -2**63])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(ODD_GRADE, min_size=1, max_size=6), max_size=5),
       st.lists(TIED_SCORES, min_size=30, max_size=30),
       st.lists(st.integers(1, 8), max_size=3),
       st.none() | st.integers(1, 8) | st.sampled_from([1023, 1100, 2**63 - 1, 10**30]),
       st.booleans())
def test_evaluate_matches_the_reference_on_odd_grades(grades, scores, cutoffs, g_max,
                                                      include_err):
    """Negative grades, grades past 1023 and past any float's exponent, as a
    program that builds its own dataset can hold: the report or the error of
    the per-query reference, never a warning."""
    ds = dataset_with_grades(grades)
    args = (ds, np.array(scores[:ds.num_documents]), cutoffs, g_max)
    assert (_outcome(evaluate, *args, include_err=include_err)
            == _outcome(reference_evaluate, *args, include_err=include_err))


def test_evaluate_refuses_scores_that_are_no_numbers():
    """Once a bare ValueError from numpy."""
    ds = make_dataset([(1, [(1, {1: 0.0}), (0, {1: 0.0})])])
    with pytest.raises(ValidationError, match="^scores must be numbers: "):
        evaluate(ds, ["a", "b"])

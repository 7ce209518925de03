"""Odd arguments to the metric, likelihood and MART entry points end in a
PLRankError or in finite values.

Each argument is drawn from values the function takes and from odd ones:
floats, bools, NaN, +-inf, numpy scalars, strings, None, integers past
int64, negatives, and empty or wrong-shaped arrays. A call either returns
finite values (an NDCG may be None under "skip") or raises a PLRankError.
A TypeError is allowed only where an argument that must be a sequence
(grades, cutoffs, member indices) is not one, as Python's own functions
raise it. pyproject.toml turns every warning into an error, so a call that
warns fails here too.

``evaluate`` gets datasets parsed from LETOR text whose int64 grade array
is then overwritten with drawn values, which the parser (capped at 31)
never yields. ``include_err`` is a flag read by its truth value, so it is
drawn from scalars only: an array of several values has none.
"""

import math
from collections.abc import Sequence

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from plrank import (ContextSet, EvalReport, PLRankError, conditional_probs, dcg_at_k, err,
                    evaluate, mart_response, ndcg_at_k)
from plrank.metrics import DEGENERATE_POLICIES

from helpers import dataset_with_grades

INT64 = 2**63
ODD_SCALARS = st.sampled_from([
    0.5, 2.5, -1.0, 1.0, True, False, math.nan, math.inf, -math.inf, 1e308, -1e308,
    np.float64(1.5), np.float64(math.nan), np.int64(3), np.int64(-2), np.uint64(2**64 - 1),
    np.bool_(True), np.float32(2.0), "3", "a", "", "zero", None, INT64, 10**30, 10**400,
    -1, -INT64, 0, 1023, 1024,
]) | st.integers() | st.floats()
ODD_ARRAYS = st.sampled_from([
    np.array([]), np.array(3), np.array(2.5), np.zeros((2, 2)), np.zeros((0, 3)),
    np.array([1.5, 2.0]), np.array([math.nan]), np.array(["a", "b"]), np.array([None]),
    np.array([True, False]), np.array([-1, 2]), np.array([2**63 - 1]), np.ones((1, 3), int),
])
ODD = ODD_SCALARS | ODD_ARRAYS


def odd_list(valid):
    """Lists of valid elements, of odd ones, or of both."""
    return st.lists(valid | ODD_SCALARS, max_size=6)


VALID_GRADE = st.integers(0, 4) | st.sampled_from([0, 1022, 1023])
GRADES = st.lists(VALID_GRADE, max_size=6) | odd_list(VALID_GRADE) | ODD
COUNT = st.integers(1, 12) | ODD
POLICY = st.sampled_from(DEGENERATE_POLICIES) | ODD
FINITE = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1.7e308, -1.7e308])


def _is_sequence(value):
    return isinstance(value, Sequence) or (isinstance(value, np.ndarray) and value.ndim > 0)


def _finite(value):
    if isinstance(value, np.ndarray):
        return value.dtype.kind == "f" and bool(np.isfinite(value).all())
    return isinstance(value, float) and math.isfinite(value)


RAISED = object()


def _outcome(call, *sequences):
    """What ``call`` returns, or RAISED where it raised what the contract
    allows: a PLRankError, or a TypeError for a ``sequences`` argument that
    is not a sequence."""
    try:
        return call()
    except PLRankError:
        return RAISED
    except TypeError:
        assert not all(_is_sequence(arg) for arg in sequences)
        return RAISED


@settings(max_examples=200, deadline=None)
@given(GRADES, COUNT)
def test_dcg_at_k(grades, k):
    value = _outcome(lambda: dcg_at_k(grades, k), grades)
    assert value is RAISED or (_finite(value) and value >= 0.0)


@settings(max_examples=200, deadline=None)
@given(GRADES, COUNT, POLICY)
def test_ndcg_at_k(grades, k, policy):
    value = _outcome(lambda: ndcg_at_k(grades, k, policy), grades)
    assert (value is RAISED or (value is None and policy == "skip")
            or (_finite(value) and 0.0 <= value <= 1.0))


@settings(max_examples=200, deadline=None)
@given(GRADES, st.integers(1, 6) | st.sampled_from([1023, 1100, 10**30]) | ODD)
def test_err(grades, g_max):
    value = _outcome(lambda: err(grades, g_max), grades)
    assert value is RAISED or (_finite(value) and 0.0 <= value <= 1.0)


@st.composite
def odd_datasets(draw):
    """A parsed dataset whose int64 grades are then overwritten with drawn ones."""
    grade = st.integers(0, 4) | st.sampled_from([1023, 1024, 5000, INT64 - 1, -1, -INT64]) \
        | st.integers(-INT64, INT64 - 1)
    return dataset_with_grades(draw(st.lists(st.lists(grade, min_size=1, max_size=5),
                                             max_size=4)))


@st.composite
def scores_for(draw, n):
    """n finite scores, or scores of the wrong length, kind or shape."""
    return draw(st.lists(FINITE, min_size=n, max_size=n) | st.lists(FINITE | ODD_SCALARS,
                                                                    max_size=n + 1) | ODD)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_evaluate(data):
    ds = data.draw(odd_datasets())
    scores = data.draw(scores_for(ds.num_documents))
    cutoffs = data.draw(st.lists(st.integers(1, 12), max_size=3) | odd_list(st.integers(1, 12))
                        | ODD)
    g_max = data.draw(st.none() | st.integers(1, 6) | st.sampled_from([1023, 10**30]) | ODD)
    policy = data.draw(POLICY)
    include_err = data.draw(st.booleans() | ODD_SCALARS)
    report = _outcome(lambda: evaluate(ds, scores, cutoffs, g_max, policy,
                                       include_err=include_err), cutoffs)
    if report is RAISED:
        return
    assert isinstance(report, EvalReport) and report.query_count == len(ds.groups)
    assert all(_finite(v) and 0.0 <= v <= 1.0 for v in report.ndcg_at.values())
    assert report.err is None if not include_err else _finite(report.err)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_conditional_probs(data):
    members = data.draw(st.lists(st.integers(0, 5), max_size=5) | odd_list(st.integers(0, 5))
                        | ODD)
    scores = data.draw(scores_for(6))
    probs = _outcome(lambda: conditional_probs(scores, ContextSet(members, 0)), members)
    if probs is not RAISED:
        assert _finite(probs) and probs.shape == (len(members),)
        assert math.isclose(probs.sum(), 1.0)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mart_response(data):
    grades = data.draw(GRADES)
    n = len(grades) if _is_sequence(grades) else 1
    scores = data.draw(scores_for(n))
    variant = data.draw(st.sampled_from(["mart1", "mart2", "cmart1"]) | ODD)
    norm = data.draw(st.floats(0.0, 1e3) | st.sampled_from([5e-324, 1e-300]) | ODD)
    residual = _outcome(lambda: mart_response(scores, grades, variant, norm), grades)
    assert residual is RAISED or (_finite(residual) and residual.shape == (n,))

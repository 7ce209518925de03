"""Shared builders for synthetic ranking datasets used across the tests."""

import importlib
import sys
from pathlib import Path

import numpy as np

from plrank import Dataset, parse_dataset


def letor_text(queries) -> str:
    """Render [(qid, [(grade, {idx: val}), ...]), ...] as LETOR lines."""
    lines = []
    for qid, docs in queries:
        for grade, features in docs:
            feats = " ".join(f"{i}:{features[i]!r}" for i in sorted(features))
            lines.append(f"{grade} qid:{qid} {feats}".rstrip())
    return "\n".join(lines) + "\n"


def perfbench_modules(*names):
    """The named modules of the benchmark directory, imported read-only."""
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        return [importlib.import_module(name) for name in names]
    finally:
        sys.path.remove(perfbench)


def one_leaf_model(features: int, count: int = 3) -> str:
    """A model file of one one-leaf tree (output 0.5) under ``features=``."""
    return ("plrank-model v1\nloss=plrank\nalpha=0.1\ntopk=10\n"
            f"features={features}\ninit=0.0\ntrees=1\ntree 0 nodes=1\n"
            f"L 0 v=0.5 n={count}\nend\n")


def make_dataset(queries) -> Dataset:
    return parse_dataset(letor_text(queries))


def dataset_with_grades(grades) -> Dataset:
    """A parsed dataset of one query per list in ``grades``, its int64 grade
    array then overwritten in place with them: the parser itself caps grades
    at 31 and refuses negative ones, but a program may build any."""
    ds = make_dataset([(q, [(0, {1: 0.0})] * len(query)) for q, query in enumerate(grades)])
    ds.grades[:] = [grade for query in grades for grade in query]
    ds.max_grade = int(ds.grades.max(initial=0))
    return ds


def random_query(rng: np.random.Generator, n_docs: int, n_features: int,
                 max_grade: int = 4):
    docs = []
    for _ in range(n_docs):
        grade = int(rng.integers(0, max_grade + 1))
        features = {i + 1: float(v) for i, v in enumerate(rng.uniform(-1, 1, n_features))}
        docs.append((grade, features))
    return docs


def random_dataset(rng: np.random.Generator, n_queries: int, n_docs: int,
                   n_features: int, max_grade: int = 4) -> Dataset:
    queries = [
        (qid + 1, random_query(rng, n_docs, n_features, max_grade))
        for qid in range(n_queries)
    ]
    return make_dataset(queries)


def thresholded_linear_dataset(
    n_queries: int = 100,
    n_docs: int = 20,
    n_features: int = 10,
    n_grades: int = 5,
    seed: int = 7,
    decimals: int | None = None,
) -> Dataset:
    """Grades come from a hidden linear scorer cut at within-query quantiles.

    ``decimals`` rounds the features, so columns carry tied values.
    """
    rng = np.random.default_rng(seed)
    hidden = rng.normal(size=n_features)
    queries = []
    for qid in range(1, n_queries + 1):
        X = rng.uniform(-1.0, 1.0, size=(n_docs, n_features))
        if decimals is not None:
            X = np.round(X, decimals)
        utility = X @ hidden
        cuts = np.quantile(utility, np.linspace(0, 1, n_grades + 1)[1:-1])
        grades = np.searchsorted(cuts, utility, side="right")
        docs = [
            (int(g), {j + 1: float(v) for j, v in enumerate(row)})
            for g, row in zip(grades, X)
        ]
        queries.append((qid, docs))
    return make_dataset(queries)


def separable_dataset(
    n_queries: int = 20,
    n_docs: int = 10,
    n_features: int = 3,
    seed: int = 11,
) -> Dataset:
    """Relevance is 1 exactly when feature 1 exceeds 0.5; rest is noise.

    The first two documents of every query are pinned to either side of the
    threshold so no query is degenerate.
    """
    rng = np.random.default_rng(seed)
    queries = []
    for qid in range(1, n_queries + 1):
        f1 = rng.uniform(0.0, 1.0, n_docs)
        f1[0] = 0.9
        f1[1] = 0.1
        docs = []
        for i in range(n_docs):
            features = {1: float(f1[i])}
            for j in range(2, n_features + 1):
                features[j] = float(rng.uniform(-1, 1))
            docs.append((int(f1[i] > 0.5), features))
        queries.append((qid, docs))
    return make_dataset(queries)


class FixedShuffles:
    """Stands in for a Generator, replaying preset shuffle orders."""

    def __init__(self, orders):
        self.orders = [np.asarray(o) for o in orders]

    def permutation(self, n: int) -> np.ndarray:
        order = self.orders.pop(0)
        assert order.size == n
        return order

"""Reference LETOR parser: one ``dict`` of features per document.

This is the parser plrank used before it parsed straight into one table. It
is kept as the oracle for ``plrank.data``: the same text must give the same
grades, groups and dense values bit for bit, and malformed text the same
error class at the same line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from plrank.data import MAX_GRADE
from plrank.errors import ParseError, ValidationError


@dataclass
class Document:
    features: dict[int, float]
    relevance: int


@dataclass
class QueryGroup:
    query_id: int
    documents: list[Document] = field(default_factory=list)
    doc_ids: list[int] = field(default_factory=list)

    def max_feature_index(self) -> int:
        return max((i for d in self.documents for i in d.features), default=0)


@dataclass
class Dataset:
    groups: list[QueryGroup]
    max_feature_index: int
    max_grade: int

    @property
    def num_documents(self) -> int:
        return sum(len(g.documents) for g in self.groups)


def _number(parse, text: str):
    """``parse(text)``, refusing the ``_`` and non-ASCII digits int and float accept."""
    if "_" in text or not text.isascii():
        raise ValueError(text)
    return parse(text)


def _parse_line(tokens: list[str], lineno: int) -> tuple[int, int, dict[int, float]]:
    try:
        grade = _number(int, tokens[0])
    except ValueError:
        raise ParseError(f"bad relevance grade {tokens[0]!r}", lineno) from None
    if grade < 0:
        raise ValidationError(f"negative relevance grade {grade}", lineno)
    if grade > MAX_GRADE:
        raise ValidationError(f"relevance grade {grade} exceeds {MAX_GRADE}", lineno)

    if len(tokens) < 2 or not tokens[1].startswith("qid:"):
        raise ParseError("expected 'qid:<int>' after the grade", lineno)
    try:
        qid = _number(int, tokens[1][4:])
    except ValueError:
        raise ParseError(f"bad qid field {tokens[1]!r}", lineno) from None

    features: dict[int, float] = {}
    for tok in tokens[2:]:
        idx_s, sep, val_s = tok.partition(":")
        if not sep:
            raise ParseError(f"bad feature token {tok!r}", lineno)
        try:
            idx = _number(int, idx_s)
            val = _number(float, val_s)
        except ValueError:
            raise ParseError(f"bad feature token {tok!r}", lineno) from None
        if idx < 1:
            raise ValidationError(f"feature index {idx} must be >= 1", lineno)
        if idx in features:
            raise ValidationError(f"duplicate feature index {idx}", lineno)
        if not math.isfinite(val):
            raise ValidationError(f"non-finite value for feature {idx}", lineno)
        features[idx] = val
    return grade, qid, features


def parse_dataset(text: str) -> Dataset:
    groups: dict[int, QueryGroup] = {}
    order: list[QueryGroup] = []
    max_feature = 0
    max_grade = 0
    ordinal = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        grade, qid, features = _parse_line(tokens, lineno)
        group = groups.get(qid)
        if group is None:
            group = QueryGroup(query_id=qid)
            groups[qid] = group
            order.append(group)
        group.documents.append(Document(features=features, relevance=grade))
        group.doc_ids.append(ordinal)
        ordinal += 1
        if features:
            max_feature = max(max_feature, max(features))
        max_grade = max(max_grade, grade)
    return Dataset(groups=order, max_feature_index=max_feature, max_grade=max_grade)


def dense_features(group: QueryGroup, m: int) -> np.ndarray:
    """The |documents| x m matrix of one group; absent features read as 0.0."""
    present = group.max_feature_index()
    if m < present:
        raise ValidationError(
            f"matrix width {m} is smaller than max feature index {present}"
        )
    out = np.zeros((len(group.documents), m), dtype=np.float64)
    for row, doc in enumerate(group.documents):
        for idx, val in doc.features.items():
            out[row, idx - 1] = val
    return out


def feature_table(dataset: Dataset) -> np.ndarray:
    """Every document's dense row, in file order."""
    table = np.zeros((dataset.num_documents, dataset.max_feature_index))
    for group in dataset.groups:
        table[group.doc_ids] = dense_features(group, dataset.max_feature_index)
    return table


def grades(dataset: Dataset) -> np.ndarray:
    out = np.zeros(dataset.num_documents, dtype=np.int64)
    for group in dataset.groups:
        out[group.doc_ids] = [d.relevance for d in group.documents]
    return out

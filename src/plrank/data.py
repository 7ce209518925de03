"""Parsing of LETOR-style ranking datasets into one dense feature table.

Accepted line format: ``<grade> qid:<id> <index>:<value> ... # comment`` with
1-based feature indices and non-negative integer grades. Each data line is
one row of the table, in file order. Column ``t`` holds feature index
``t + 1``; the table is as wide as the largest index, absent features read
as 0.0. Lines sharing a qid form one query group, contiguous or not.

A file is read as a stream, one line at a time, so the text is never held
whole. The parser keeps each feature token in 16 bytes (an int64 index and a
float64 value) until the last line, then allocates the table once, at its
final shape, and scatters the tokens into it a chunk at a time.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import IO, Any, Callable, Iterable

import numpy as np

from .errors import ParseError, ValidationError, _open_text

# Gains are 2^grade - 1; grades above this would lose exactness in float64.
MAX_GRADE = 31
# Feature tokens are moved from Python lists into arrays this many at a time.
_CHUNK_TOKENS = 1 << 12


@dataclass(eq=False)
class QueryGroup:
    """One query: its id and its rows of the dataset's (shared) arrays."""

    query_id: int
    doc_ids: np.ndarray  # rows in file order
    features: np.ndarray = field(repr=False)
    grades: np.ndarray = field(repr=False)

    def relevances(self) -> np.ndarray:
        return self.grades[self.doc_ids]


@dataclass(eq=False)
class Dataset:
    features: np.ndarray  # documents x max_feature_index, float64, file order
    grades: np.ndarray  # int64, file order
    groups: list[QueryGroup]
    max_grade: int

    @property
    def doc_ids(self) -> np.ndarray:
        return np.arange(self.num_documents)

    @property
    def num_documents(self) -> int:
        return self.features.shape[0]

    @property
    def max_feature_index(self) -> int:
        return self.features.shape[1]


def _ascii(parse: Callable[[str], Any]) -> Callable[[str], Any]:
    """``parse``, refusing the ``_`` and non-ASCII digits that ``int`` and ``float`` read."""
    def read(text: str) -> Any:
        if "_" in text or not text.isascii():
            raise ValueError(text)
        return parse(text)
    return read


def _parse_line(tokens: list[str], lineno: int,
                plain: bool) -> tuple[int, int, list[int], list[float]]:
    """One data line's fields; ``plain`` says the line is ASCII and holds no ``_``."""
    to_int, to_float = (int, float) if plain else (_ascii(int), _ascii(float))
    try:
        grade = to_int(tokens[0])
    except ValueError:
        raise ParseError(f"bad relevance grade {tokens[0]!r}", lineno) from None
    if grade < 0:
        raise ValidationError(f"negative relevance grade {grade}", lineno)
    if grade > MAX_GRADE:
        raise ValidationError(f"relevance grade {grade} exceeds {MAX_GRADE}", lineno)

    if len(tokens) < 2 or not tokens[1].startswith("qid:"):
        raise ParseError("expected 'qid:<int>' after the grade", lineno)
    try:
        qid = to_int(tokens[1][4:])
    except ValueError:
        raise ParseError(f"bad qid field {tokens[1]!r}", lineno) from None

    seen: set[int] = set()
    indices: list[int] = []
    values: list[float] = []
    for tok in tokens[2:]:
        idx_s, sep, val_s = tok.partition(":")
        if not sep:
            raise ParseError(f"bad feature token {tok!r}", lineno)
        try:
            idx = to_int(idx_s)
            val = to_float(val_s)
        except ValueError:
            raise ParseError(f"bad feature token {tok!r}", lineno) from None
        if idx < 1:
            raise ValidationError(f"feature index {idx} must be >= 1", lineno)
        if idx in seen:
            raise ValidationError(f"duplicate feature index {idx}", lineno)
        if not math.isfinite(val):
            raise ValidationError(f"non-finite value for feature {idx}", lineno)
        seen.add(idx)
        indices.append(idx)
        values.append(val)
    return grade, qid, indices, values


def parse_dataset(source: str | IO[str] | Iterable[str]) -> Dataset:
    """Parse LETOR-format text into a :class:`Dataset`.

    ``source`` may be a string, an open text file, or any iterable of lines.
    A string is split into lines as :func:`load_dataset` splits a file: at
    ``\n``, ``\r`` and ``\r\n`` only; other Unicode line breaks such as
    ``\x0c`` or ``\u2028`` separate tokens, as any whitespace does. ``#``
    starts a comment that runs to the end of the line.

    Every line is checked before the table is allocated, so a malformed line
    anywhere is reported before a table too large to allocate.
    """
    lines = io.StringIO(source, newline=None) if isinstance(source, str) else source
    rows_of: dict[int, list[int]] = {}
    grades: list[int] = []
    counts: list[int] = []
    indices: list[int] = []
    values: list[float] = []
    chunks: list[tuple[int, int, np.ndarray, np.ndarray]] = []
    width = first = 0
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        plain = raw.isascii() and "_" not in raw  # int and float read "_" and other digits
        grade, qid, line_indices, line_values = _parse_line(tokens, lineno, plain)
        rows_of.setdefault(qid, []).append(len(grades))
        counts.append(len(line_indices))
        grades.append(grade)
        indices += line_indices
        values += line_values
        if len(indices) >= _CHUNK_TOKENS:
            width = _stash(chunks, first, len(grades), indices, values, width)
            first, indices, values = len(grades), [], []
    width = _stash(chunks, first, len(grades), indices, values, width)

    try:
        features = np.zeros((len(grades), width), dtype=np.float64)
    except (MemoryError, ValueError, OverflowError):
        raise ValidationError(
            f"a table of {len(grades)} documents x {width} features cannot be allocated"
        ) from None
    count_of = np.array(counts, dtype=np.intp)
    for first, end, chunk_indices, chunk_values in chunks:
        rows = np.repeat(np.arange(first, end), count_of[first:end])
        features[rows, chunk_indices - 1] = chunk_values
    grade_of = np.array(grades, dtype=np.int64)
    groups = [QueryGroup(q, np.array(r, dtype=np.intp), features, grade_of)
              for q, r in rows_of.items()]
    return Dataset(features, grade_of, groups, max(grades, default=0))


def _stash(chunks: list, first: int, end: int, indices: list[int], values: list[float],
           width: int) -> int:
    """Move the tokens of rows ``first..end-1`` into int64 and float64 arrays.

    Returns the widest feature index seen so far. An index beyond int64 is not
    stored: no table that wide can be allocated, so only its width matters.
    """
    if not indices:
        return width
    try:
        chunk_indices = np.array(indices, dtype=np.int64)
    except OverflowError:
        return max(width, max(indices))
    chunks.append((first, end, chunk_indices, np.array(values, dtype=np.float64)))
    return max(width, int(chunk_indices.max()))


def load_dataset(path: str) -> Dataset:
    """Parse the LETOR file at ``path``, streamed line by line (see :func:`parse_dataset`)."""
    with _open_text(path) as lines:
        return parse_dataset(lines)


def format_dataset(dataset: Dataset) -> str:
    """Serialize back to LETOR text in file order.

    Every column ``1..max_feature_index`` is written as the ``repr`` of a
    Python float, so parsing the text gives the same table bit for bit.
    """
    table, grades = dataset.features.tolist(), dataset.grades.tolist()
    lines = [""] * dataset.num_documents
    for group in dataset.groups:
        for i in group.doc_ids.tolist():
            feats = "".join(f" {t}:{v!r}" for t, v in enumerate(table[i], start=1))
            lines[i] = f"{grades[i]} qid:{group.query_id}{feats}\n"
    return "".join(lines)


def dense_features(rows: Dataset | QueryGroup, m: int) -> np.ndarray:
    """The dense len(doc_ids) x m matrix of a dataset or of one of its groups.

    Columns past the dataset's ``max_feature_index`` read as 0.0. A whole
    dataset at its own width is its table itself, as a read-only view, so no
    copy is made.
    """
    width = rows.features.shape[1]
    if m < width:
        raise ValidationError(f"matrix width {m} is smaller than max feature index {width}")
    if m == width and isinstance(rows, Dataset):
        table = rows.features.view()
        table.flags.writeable = False
        return table
    out = np.zeros((len(rows.doc_ids), m), dtype=np.float64)
    out[:, :width] = rows.features[rows.doc_ids]
    return out

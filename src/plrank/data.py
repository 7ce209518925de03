"""Parsing of LETOR-style ranking datasets into one dense feature table.

Accepted line format: ``<grade> qid:<id> <index>:<value> ... # comment`` with
1-based feature indices and non-negative integer grades. Each data line is
one row of the table, in file order. Column ``t`` holds feature index
``t + 1``; the table is as wide as the largest index, absent features read
as 0.0. Lines sharing a qid form one query group, contiguous or not.

A file is read as a stream, a block of whole lines (about ``_BLOCK_CHARS``
characters) at a time, so the text is never held whole. Every well-formed
block, with Unicode separators or non-ASCII comments too, is read at once
(:func:`_read_block`); a block it refuses is only checked line by line, to
name the line of the first error (or its rows cannot be allocated). Only the
block being read holds its tokens as Python strings. Each block becomes its
own rows of the table, zero where a line lists no feature, and the parser
keeps those rows until the last line; it then allocates the table once, at
its final shape, and copies each block's rows in. So a parse holds about
twice the table, whatever share of the features a line lists: on a sparse
file that is more than its tokens alone.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import IO, Any, Callable, Iterable, Iterator

import numpy as np

from .errors import ParseError, ValidationError, _open_text, check_count

# Gains are 2^grade - 1; grades above this would lose exactness in float64.
MAX_GRADE = 31
# Lines are gathered into blocks of at least this many characters (or the last line).
_BLOCK_CHARS = 1 << 16
# Every byte but ":" and " ", which ``bytes.translate`` deletes.
_NOT_COLON_OR_SPACE = bytes(b for b in range(256) if b not in b": ")


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


def _parse_line(tokens: list[str], lineno: int) -> tuple[int, int, int]:
    """One data line's grade, qid and highest feature index (0 if it lists none)."""
    to_int, to_float = _ascii(int), _ascii(float)
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
    return grade, qid, max(seen, default=0)


def _check_lines(lines: list[str], lineno: int) -> tuple[list[int], list[int], None, int]:
    """Raise at the first malformed line of a block :func:`_read_block` refused
    (``lineno`` is the file line of the first). Else the block's grades, qids
    and widest index, with no rows: they cannot be allocated."""
    fields = [_parse_line(tokens, n) for n, raw in enumerate(lines, start=lineno)
              if (tokens := raw.split("#", 1)[0].split())]
    return ([f[0] for f in fields], [f[1] for f in fields], None,
            max((f[2] for f in fields), default=0))


def _read_block(lines: list[str]) -> tuple[list[int], list[int], np.ndarray, int] | None:
    """The block's grades, qids, rows of the table (lines x widest index) and
    that width, read for the whole block at once.

    Returns None unless every line is well formed and its rows can be
    allocated. A block still not ASCII once comments are dropped is re-split,
    as Unicode whitespace separates tokens too; tokens are then converted as
    :func:`_parse_line` does. A block whose every line lists ``1..k`` is its
    values, ``k`` to a row; any other is scattered into zeroed rows, 8 bytes
    a cell however few features it lists.
    """
    text = "".join(lines)
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
        text = "".join(lines)
    if not text.isascii():
        lines = [" ".join(line.split()) for line in lines]
        text = "".join(lines)
    if not text.isascii() or "_" in text:  # int and float read "_" and other digits
        return None
    heads = [head for line in lines if (head := line.split(None, 2))]
    rests = [head[2] if len(head) == 3 else "" for head in heads]
    tokens = " ".join(rests).split()
    count, joined = len(tokens), " ".join(tokens)
    del tokens  # a block's Python strings set the parser's peak memory
    # Each feature token holds exactly one ":", so its text splits into index and value.
    if joined.encode().translate(None, _NOT_COLON_OR_SPACE) != (b": " * count)[:-1]:
        return None
    parts = joined.replace(":", " ").split(" ") if count else []
    counts = [rest.count(":") for rest in rests]
    try:
        qid_tokens = [head[1] for head in heads]
        if "".join([token[:4] for token in qid_tokens]) != "qid:" * len(heads):
            return None
        qids = list(map(int, [token[4:] for token in qid_tokens]))
        grades = np.array(list(map(int, [head[0] for head in heads])), dtype=np.int64)
        values = np.fromiter(map(float, parts[1::2]), np.float64, count)
        # Lines of k tokens spelled "1".."k" (k from the first) need no int().
        k = counts[0] if counts else 0
        if set(counts) <= {k} and parts[0::2] == [str(i) for i in range(1, k + 1)] * len(counts):
            rows = values.reshape(len(counts), k)
        else:
            indices = np.fromiter(map(int, parts[0::2]), np.int64, count)
            if count and indices.min() < 1:
                return None
            rows = _scatter(counts, indices, values, int(indices.max(initial=0)))
    except (IndexError, ValueError, OverflowError):
        return None
    if rows is None or not (np.isfinite(values).all()
                            and ((grades >= 0) & (grades <= MAX_GRADE)).all()):
        return None
    return grades.tolist(), qids, rows, rows.shape[1]


def _scatter(counts: list[int], indices: np.ndarray, values: np.ndarray,
             width: int) -> np.ndarray | None:
    """Zeroed rows ``width`` wide, row ``r`` holding its ``counts[r]`` tokens
    (1-based ``indices``, ``values``); None if they cannot be allocated or an
    index repeats within its row, which fills fewer cells than there are tokens."""
    try:
        rows = np.zeros((len(counts), width), dtype=np.float64)
        filled = np.zeros((len(counts), width), dtype=bool)
    except (MemoryError, ValueError, OverflowError):
        return None
    cells = (np.repeat(np.arange(len(counts)), counts), np.asarray(indices, dtype=np.intp) - 1)
    filled[cells] = True
    if np.count_nonzero(filled) < len(values):
        return None
    rows[cells] = values
    return rows


def _blocks(lines: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """Runs of whole lines, each at least ``_BLOCK_CHARS`` long but the last,
    with the line number of each run's first line."""
    block: list[str] = []
    size, lineno = 0, 1
    for line in lines:
        block.append(line)
        size += len(line)
        if size >= _BLOCK_CHARS:
            yield lineno, block
            lineno += len(block)
            block, size = [], 0
    if block:
        yield lineno, block


def parse_dataset(source: str | IO[str] | Iterable[str]) -> Dataset:
    """Parse LETOR-format text into a :class:`Dataset`.

    ``source`` may be a string, an open text file, or any iterable of lines.
    A string is split into lines as :func:`load_dataset` splits a file: at
    ``\n``, ``\r`` and ``\r\n`` only; other Unicode line breaks such as
    ``\x0c`` or ``\u2028`` separate tokens, as any whitespace does. ``#``
    starts a comment that runs to the end of the line.

    Lines are read a block at a time, each well-formed block at once into its
    own rows of the table (see the module docstring). A block the block reader
    refuses is checked line by line: an error names its own line, whichever
    block it falls in. Every line is checked before the table is allocated,
    so a malformed line anywhere is reported before a table too large to
    allocate. A well-formed block whose rows cannot be allocated leaves the
    table unallocatable too.
    """
    lines = io.StringIO(source, newline=None) if isinstance(source, str) else source
    rows_of: dict[int, list[int]] = {}
    grades: list[int] = []
    blocks: list[tuple[int, np.ndarray | None]] = []
    width = 0
    for lineno, block in _blocks(lines):
        block_grades, qids, rows, block_width = _read_block(block) or _check_lines(block, lineno)
        for row, qid in enumerate(qids, start=len(grades)):
            rows_of.setdefault(qid, []).append(row)
        blocks.append((len(grades), rows))
        grades += block_grades
        width = max(width, block_width)

    try:
        if any(rows is None for _, rows in blocks):  # some of its rows could not be allocated
            raise MemoryError
        features = np.zeros((len(grades), width), dtype=np.float64)
    except (MemoryError, ValueError, OverflowError):
        raise ValidationError(
            f"a table of {len(grades)} documents x {width} features cannot be allocated"
        ) from None
    for first, rows in blocks:
        features[first:first + len(rows), :rows.shape[1]] = rows
    grade_of = np.array(grades, dtype=np.int64)
    groups = [QueryGroup(q, np.array(r, dtype=np.intp), features, grade_of)
              for q, r in rows_of.items()]
    return Dataset(features, grade_of, groups, max(grades, default=0))


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
    copy is made; wider, its table is copied once, into the padded matrix.
    """
    check_count(m, "matrix width", 0)
    width = rows.features.shape[1]
    if m < width:
        raise ValidationError(f"matrix width {m} is smaller than max feature index {width}")
    whole = isinstance(rows, Dataset)
    if m == width and whole:
        table = rows.features.view()
        table.flags.writeable = False
        return table
    out = np.zeros((len(rows.doc_ids), m), dtype=np.float64)
    out[:, :width] = rows.features if whole else rows.features[rows.doc_ids]
    return out

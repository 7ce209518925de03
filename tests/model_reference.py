"""Reference model-file reader: one regular expression per node line.

This is the ensemble reader plrank used before it read node lines a run of
trees at a time, with the tree-shape check and the saved form it compared
against. It is kept as the oracle for ``plrank.model_io.parse_ensemble``:
the same text must give an equal ensemble, and a rejected text the same
error class, message and line.
"""

from __future__ import annotations

import math
import re
from itertools import zip_longest

import numpy as np

from plrank.errors import ParseError, ValidationError
from plrank.tree import Ensemble, RegressionTree

ENSEMBLE_MAGIC = "plrank-model v1"


def dumps_ensemble(ensemble: Ensemble) -> str:
    lines = [
        ENSEMBLE_MAGIC,
        f"loss={ensemble.loss}",
        f"alpha={ensemble.learning_rate!r}",
        f"topk={ensemble.top_k}",
        f"features={ensemble.num_features}",
        f"init={ensemble.init_score!r}",
        f"trees={len(ensemble.trees)}",
    ]
    for t, tree in enumerate(ensemble.trees):
        lines.append(f"tree {t} nodes={tree.feature.size}")
        rows = zip(
            tree.feature.tolist(), tree.threshold.tolist(), tree.right.tolist(),
            tree.value.tolist(), tree.count.tolist(),
        )
        for i, (feature, threshold, right, value, count) in enumerate(rows):
            if feature < 0:
                lines.append(f"L {i} v={value!r} n={count}")
            else:
                lines.append(f"N {i} f={feature + 1} t={threshold!r} l={i + 1} r={right}")
    lines.append("end")
    return "\n".join(lines) + "\n"


_HEADER_RE = re.compile(r"^(\w+)=(.*)$")
_NODE_RE = re.compile(r"L \d+ v=(\S+) n=(\d+)|N \d+ f=(\d+) t=(\S+) l=\d+ r=\d+")
_TREE_RE = re.compile(r"^tree (\d+) nodes=(\d+)$")
_INT64_MAX = int(np.iinfo(np.int64).max)


def parse_ensemble(text: str) -> Ensemble:
    lines = text.splitlines()
    if not lines or lines[0] != ENSEMBLE_MAGIC:
        raise ValidationError(
            f"unsupported model header (expected {ENSEMBLE_MAGIC!r})"
        )
    header: dict[str, tuple[str, int]] = {}  # key -> (value text, line number)
    pos = 1
    while pos < len(lines):
        match = _HEADER_RE.match(lines[pos])
        if not match:
            break
        header[match.group(1)] = (match.group(2), pos + 1)
        pos += 1
    try:
        fields = {  # Ensemble field: (value, header line)
            "learning_rate": (_finite(*header["alpha"]), header["alpha"][1]),
            "init_score": (_finite(*header["init"]), header["init"][1]),
            "loss": header["loss"],
            "top_k": (int(header["topk"][0]), header["topk"][1]),
            "num_features": (int(header["features"][0]), header["features"][1]),
        }
        tree_count = int(header["trees"][0])
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad model header: {exc}") from None
    for name, (value, line) in fields.items():
        try:
            Ensemble(**{name: value})
        except ValidationError as exc:
            raise ValidationError(str(exc), line) from None
    num_features = fields["num_features"][0]

    trees = []
    for t in range(tree_count):
        match = _TREE_RE.match(lines[pos]) if pos < len(lines) else None
        if not match or int(match.group(1)) != t:
            raise ParseError(f"expected 'tree {t}' record", pos + 1)
        node_count = int(match.group(2))
        pos += 1
        if pos + node_count > len(lines):
            raise ParseError("truncated tree block", len(lines) + 1)
        trees.append(_parse_tree(lines[pos : pos + node_count], pos, num_features))
        pos += node_count
    if pos >= len(lines) or lines[pos] != "end":
        raise ParseError("missing 'end' marker", pos + 1)
    ensemble = Ensemble(trees=trees, **{name: value for name, (value, _) in fields.items()})
    _require_canonical(text, dumps_ensemble(ensemble))
    return ensemble


def _require_canonical(text: str, canonical: str) -> None:
    if canonical == text:
        return
    pairs = enumerate(zip_longest(text.split("\n"), canonical.split("\n")))
    line, got, wanted = next((i, a, b) for i, (a, b) in pairs if a != b)
    if wanted:
        expected = repr(wanted)
    else:
        expected = "a final line break" if got is None else "the end of the file"
    raise ValidationError(f"not in canonical v1 form: expected {expected}", line + 1)


def _parse_tree(block: list[str], offset: int, num_features: int) -> RegressionTree:
    rows = []  # (feature, threshold, value, count)
    for lineno, line in enumerate(block, start=offset + 1):
        match = _NODE_RE.fullmatch(line)
        if not match:
            raise ParseError(f"bad node record {line!r}", lineno)
        value, count, index, threshold = match.groups()
        if index is not None and not 1 <= int(index) <= num_features:
            raise ValidationError(f"feature index {int(index)} outside 1..{num_features}", lineno)
        number = int(count or index)
        if number > _INT64_MAX:
            key = "n" if index is None else "f"
            raise ValidationError(f"{key}={number} is past the 64-bit integer range", lineno)
        if index is None:
            rows.append((-1, 0.0, _finite(value, lineno), number))
        else:
            rows.append((number - 1, _finite(threshold, lineno), 0.0, 0))
    columns = tuple(zip(*rows)) if rows else ((),) * 4
    try:
        _preorder_right(columns[0])
        return RegressionTree(*columns)
    except ValidationError as exc:
        raise ValidationError(str(exc), offset) from None


def _preorder_right(feature) -> list[int]:
    """Each preorder row's right child (-1 at leaves); the rows must be one whole tree."""
    right = [-1] * len(feature)
    pending: list[int] = []  # open splits; a leaf closes the innermost at the next row
    for i, f in enumerate(feature):
        if f >= 0:
            pending.append(i)
        elif pending:
            right[pending.pop()] = i + 1
        elif i + 1 < len(feature):
            raise ValidationError(f"node {i + 1} is unreachable: the tree ends at node {i}")
        else:
            return right
    raise ValidationError(f"{len(feature)} nodes end before every split has both children")


def _finite(text: str, line: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"bad number {text!r}", line) from None
    if not math.isfinite(value):
        raise ValidationError(f"non-finite value {text!r}", line)
    return value

"""Text serialization of tree ensembles and linear models.

An ensemble file is a header, then each tree's node table
(:class:`~plrank.tree.RegressionTree`), one line per row with ids in
preorder. Floats are written with ``repr`` so a write/read/write cycle is
byte-identical. Internal node lines use the 1-based feature index of the
data format.

    plrank-model v1
    loss=plrank
    alpha=0.1
    topk=10
    features=136
    init=0.0
    trees=1
    tree 0 nodes=3
    N 0 f=5 t=0.5 l=1 r=2
    L 1 v=0.25 n=3
    L 2 v=-0.5 n=7
    end

The reader accepts only preorder numbering: ids run 0..n-1 in line order,
an internal node's left child is the next line, and its right child is the
line after its left subtree. So every node is reachable exactly once and
each line reads straight into one table row. It also accepts only what
saving writes (the header keys in this order, numbers as ``repr`` spells
them, ``\n`` line ends), so saving a loaded model rewrites its file byte
for byte.
"""

from __future__ import annotations

import math
import re
from itertools import zip_longest

from .errors import ParseError, ValidationError, _open_text
from .linear import LinearModel
from .tree import TREE_LOSSES, Ensemble, RegressionTree

import numpy as np

ENSEMBLE_MAGIC = "plrank-model v1"
LINEAR_MAGIC = "linear"


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
_LEAF_RE = re.compile(r"^L (\d+) v=(\S+) n=(\d+)$")
_NODE_RE = re.compile(r"^N (\d+) f=(\d+) t=(\S+) l=(\d+) r=(\d+)$")
_TREE_RE = re.compile(r"^tree (\d+) nodes=(\d+)$")


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
        learning_rate = _finite(*header["alpha"])
        init_score = _finite(*header["init"])
        loss = header["loss"][0]
        top_k = int(header["topk"][0])
        num_features = int(header["features"][0])
        tree_count = int(header["trees"][0])
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad model header: {exc}") from None

    if loss not in TREE_LOSSES:
        raise ValidationError(f"unknown loss {loss!r} in model header")
    if top_k < 1:
        raise ValidationError(f"topk must be >= 1, got {top_k}", header["topk"][1])
    if num_features < 0:
        raise ValidationError(f"features must be >= 0, got {num_features}",
                              header["features"][1])

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
    ensemble = Ensemble(trees=trees, learning_rate=learning_rate, init_score=init_score,
                        loss=loss, top_k=top_k, num_features=num_features)
    canonical = dumps_ensemble(ensemble)
    if canonical != text:
        # Header order, number spellings, line ends, trailing lines: every
        # file accepted here is exactly what saving its model writes.
        pairs = enumerate(zip_longest(text.split("\n"), canonical.split("\n")))
        line, got, wanted = next((i, a, b) for i, (a, b) in pairs if a != b)
        if wanted:
            expected = repr(wanted)
        else:
            expected = "a final line break" if got is None else "the end of the file"
        raise ValidationError(f"not in canonical v1 form: expected {expected}", line + 1)
    return ensemble


def _parse_tree(block: list[str], offset: int, num_features: int) -> RegressionTree:
    """One tree's node lines (file lines ``offset + 1`` on) as its table.

    Rejects any numbering but preorder, so each line is one table row.
    """
    feature, threshold, right, value, count = [], [], [], [], []
    pending: list[tuple[int, int]] = []  # (node, right child) still to come
    complete = False
    for i, line in enumerate(block):
        lineno = offset + i + 1
        if complete:
            raise ValidationError(f"node {i} is unreachable: the tree ends at node {i - 1}",
                                  lineno)
        leaf = _LEAF_RE.match(line)
        node = leaf or _NODE_RE.match(line)
        if not node:
            raise ParseError(f"bad node record {line!r}", lineno)
        if int(node.group(1)) != i:
            raise ValidationError(
                f"node id {node.group(1)} where preorder numbering expects {i}", lineno
            )
        if leaf:
            feature.append(-1)
            threshold.append(0.0)
            right.append(-1)
            value.append(_finite(leaf.group(2), lineno))
            count.append(int(leaf.group(3)))
            if not pending:
                complete = True
            elif pending[-1][1] != i + 1:
                parent, child = pending[-1]
                raise ValidationError(
                    f"node {parent} has right child {child}; preorder puts it at {i + 1}",
                    lineno,
                )
            else:
                pending.pop()
            continue
        index = int(node.group(2))
        if not 1 <= index <= num_features:
            raise ValidationError(f"feature index {index} outside 1..{num_features}", lineno)
        if int(node.group(4)) != i + 1:
            raise ValidationError(
                f"node {i} has left child {node.group(4)}; preorder puts it at {i + 1}",
                lineno,
            )
        feature.append(index - 1)
        threshold.append(_finite(node.group(3), lineno))
        right.append(int(node.group(5)))
        value.append(0.0)
        count.append(0)
        pending.append((i, right[-1]))
    if not complete:
        raise ValidationError(
            f"{len(block)} nodes end before every split has both children", offset
        )
    return RegressionTree(feature=feature, threshold=threshold, right=right,
                          value=value, count=count)


def _finite(text: str, line: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"bad number {text!r}", line) from None
    if not math.isfinite(value):
        raise ValidationError(f"non-finite value {text!r}", line)
    return value


def dumps_linear(model: LinearModel) -> str:
    lines = [f"{LINEAR_MAGIC} M={model.weights.size}"]
    lines += [f"w[{i + 1}]={float(w)!r}" for i, w in enumerate(model.weights)]
    return "\n".join(lines) + "\n"


_LINEAR_HEADER_RE = re.compile(r"^linear M=(\d+)$")
_WEIGHT_RE = re.compile(r"^w\[(\d+)\]=(\S+)$")


def parse_linear(text: str) -> LinearModel:
    lines = text.splitlines()
    if not lines:
        raise ValidationError("empty linear model file")
    match = _LINEAR_HEADER_RE.match(lines[0])
    if not match:
        raise ValidationError("unsupported linear model header")
    m = int(match.group(1))
    if len(lines) != m + 1:
        raise ParseError(f"expected {m} weight lines, found {len(lines) - 1}")
    weights = np.zeros(m, dtype=np.float64)
    for i, line in enumerate(lines[1:], start=1):
        wmatch = _WEIGHT_RE.match(line)
        if not wmatch or int(wmatch.group(1)) != i:
            raise ParseError(f"bad weight record {line!r}", i + 1)
        weights[i - 1] = _finite(wmatch.group(2), i + 1)
    return LinearModel(weights=weights)


def save_model(model: Ensemble | LinearModel, path: str) -> None:
    text = dumps_linear(model) if isinstance(model, LinearModel) else dumps_ensemble(model)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def load_model(path: str) -> Ensemble | LinearModel:
    text = _open_text(path, newline="").read()
    if text.startswith(LINEAR_MAGIC + " "):
        return parse_linear(text)
    return parse_ensemble(text)

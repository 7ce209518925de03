"""Text serialization of tree ensembles and linear models.

One node per line, ids assigned in preorder. Floats are written with
``repr`` so a write/read/write cycle is byte-identical. Internal node lines
use the 1-based feature index of the data format.

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
"""

from __future__ import annotations

import math
import re

from .errors import ParseError, ValidationError
from .linear import LinearModel
from .tree import Ensemble, Leaf, Node, RegressionTree, Split

import numpy as np

ENSEMBLE_MAGIC = "plrank-model v1"
LINEAR_MAGIC = "linear"


def _walk_preorder(root: Node) -> list[Node]:
    out: list[Node] = []
    stack = [root]
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, Split):
            stack.append(node.right)
            stack.append(node.left)
    return out


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
        nodes = _walk_preorder(tree.root)
        ids = {id(node): i for i, node in enumerate(nodes)}
        lines.append(f"tree {t} nodes={len(nodes)}")
        for i, node in enumerate(nodes):
            if isinstance(node, Leaf):
                lines.append(f"L {i} v={node.output!r} n={node.doc_count}")
            else:
                lines.append(
                    f"N {i} f={node.feature + 1} t={node.threshold!r} "
                    f"l={ids[id(node.left)]} r={ids[id(node.right)]}"
                )
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
    header: dict[str, str] = {}
    pos = 1
    while pos < len(lines):
        match = _HEADER_RE.match(lines[pos])
        if not match:
            break
        header[match.group(1)] = match.group(2)
        pos += 1
    try:
        ensemble = Ensemble(
            trees=[],
            learning_rate=float(header["alpha"]),
            init_score=float(header["init"]),
            loss=header["loss"],
            top_k=int(header["topk"]),
            num_features=int(header["features"]),
        )
        tree_count = int(header["trees"])
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad model header: {exc}") from None

    for t in range(tree_count):
        match = _TREE_RE.match(lines[pos]) if pos < len(lines) else None
        if not match or int(match.group(1)) != t:
            raise ParseError(f"expected 'tree {t}' record", pos + 1)
        node_count = int(match.group(2))
        pos += 1
        records: dict[int, tuple] = {}
        for _ in range(node_count):
            if pos >= len(lines):
                raise ParseError("truncated tree block", pos + 1)
            line = lines[pos]
            leaf = _LEAF_RE.match(line)
            node = _NODE_RE.match(line)
            if leaf:
                records[int(leaf.group(1))] = (
                    "L",
                    _finite(leaf.group(2), pos + 1),
                    int(leaf.group(3)),
                )
            elif node:
                feature = int(node.group(2))
                if not 1 <= feature <= ensemble.num_features:
                    raise ValidationError(
                        f"feature index {feature} outside 1..{ensemble.num_features}",
                        pos + 1,
                    )
                records[int(node.group(1))] = (
                    "N",
                    feature - 1,
                    _finite(node.group(3), pos + 1),
                    int(node.group(4)),
                    int(node.group(5)),
                )
            else:
                raise ParseError(f"bad node record {line!r}", pos + 1)
            pos += 1
        ensemble.trees.append(_build_tree(records, pos))
    if pos >= len(lines) or lines[pos] != "end":
        raise ParseError("missing 'end' marker", pos + 1)
    return ensemble


def _finite(text: str, line: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"bad number {text!r}", line) from None
    if not math.isfinite(value):
        raise ValidationError(f"non-finite value {text!r}", line)
    return value


def _build_tree(records: dict[int, tuple], pos: int) -> RegressionTree:
    # Iterative bottom-up assembly: recursion would cap the tree depth, and a
    # malformed file with cyclic ids must fail instead of looping.
    built: dict[int, Node] = {}
    expanding: set[int] = set()
    stack = [0]
    while stack:
        node_id = stack[-1]
        if node_id in built:
            stack.pop()
            continue
        if node_id not in records:
            raise ParseError(f"dangling node reference {node_id}", pos)
        rec = records[node_id]
        if rec[0] == "L":
            built[node_id] = Leaf(output=rec[1], doc_count=rec[2])
            stack.pop()
        elif node_id in expanding:
            left = built.get(rec[3])
            right = built.get(rec[4])
            if left is None or right is None:
                raise ParseError(f"cyclic node references at {node_id}", pos)
            built[node_id] = Split(
                feature=rec[1], threshold=rec[2], left=left, right=right
            )
            stack.pop()
        else:
            expanding.add(node_id)
            stack.append(rec[4])
            stack.append(rec[3])
    leaf_count = sum(1 for rec in records.values() if rec[0] == "L")
    return RegressionTree(root=built[0], leaf_count=leaf_count)


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
        weights[i - 1] = float(wmatch.group(2))
    return LinearModel(weights=weights)


def save_model(model: Ensemble | LinearModel, path: str) -> None:
    text = dumps_linear(model) if isinstance(model, LinearModel) else dumps_ensemble(model)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def load_model(path: str) -> Ensemble | LinearModel:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    first = text.splitlines()[0] if text.splitlines() else ""
    if first.startswith(LINEAR_MAGIC + " "):
        return parse_linear(text)
    return parse_ensemble(text)

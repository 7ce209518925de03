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
line after its left subtree. It accepts only what saving writes (the header
keys in this order, numbers as ``repr`` spells them, ``\n`` line ends, and
the derived ids and children), so saving a loaded model rewrites its file
byte for byte.

A file is read in one walk over its lines (:func:`parse_ensemble`). It
reads the header, each ``tree`` record and ``end`` once, and reads the node
lines of a run of whole trees (about ``_BLOCK_LINES`` lines) at once
(:func:`_read_run`): it splits all leaf lines and all split lines of the
run, converts each number column with one call, and builds the run's
trees from the stacked columns with one check.
It checks each line against its saved form token by token, rather than
writing the model again, and only the run being read holds its tokens. A
run it refuses is read again one tree at a time (:func:`_parse_tree`), which
raises at the first error in file order: a malformed line, a number or
feature index out of range, or a tree that is not one whole tree. Only a
file with a line that is not its saved form, and no such error, is compared
with what saving its model writes.

A linear model file, too, is read only in the form saving writes:
``linear M=<m>``, then ``w[i]=<repr>`` for i = 1..m, each line ending in
``\n``.
"""

from __future__ import annotations

import math
import re
from itertools import compress, zip_longest
from operator import itemgetter

from .errors import ParseError, ValidationError, _open_output, _open_text
from .linear import LinearModel
from .tree import Ensemble, RegressionTree, _stacked_trees

import numpy as np

ENSEMBLE_MAGIC = "plrank-model v1"
LINEAR_MAGIC = "linear"
# A run of whole trees is read once it holds at least this many node lines,
# each no longer than the longest one saving writes: ``N``, an id, ``f=``,
# ``l=`` and ``r=`` of up to 19 digits each, and a 24-character ``t=`` repr.
_BLOCK_LINES = 1 << 11
_LINE_CHARS = 114


def _header_lines(ensemble: Ensemble) -> list[str]:
    return [
        ENSEMBLE_MAGIC,
        f"loss={ensemble.loss}",
        f"alpha={ensemble.learning_rate!r}",
        f"topk={ensemble.top_k}",
        f"features={ensemble.num_features}",
        f"init={ensemble.init_score!r}",
        f"trees={len(ensemble.trees)}",
    ]


def dumps_ensemble(ensemble: Ensemble) -> str:
    lines = _header_lines(ensemble)
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
_INT64_MAX = int(np.iinfo(np.int64).max)  # a node's f= and n= are stored as int64
# The line breaks str.splitlines sees besides the "\n" saving writes.
_BREAKS = ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def parse_ensemble(text: str) -> Ensemble:
    """The ensemble a v1 model file holds, read in one walk over its lines
    (see the module docstring). ``saved`` holds while every line so far is
    its saved form; only a file where it fails is compared with what saving
    its model writes."""
    saved = text.endswith("\n") and not any(map(text.__contains__, _BREAKS))
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
    values = {name: value for name, (value, _) in fields.items()}
    num_features = fields["num_features"][0]
    header_end = pos

    trees: list[RegressionTree] = []
    run: list[str] = []  # the node lines of the trees not yet read
    starts: list[int] = []  # the index of each such tree's first node line
    sizes: list[int] = []

    def read_run() -> None:
        nonlocal saved
        if not sizes:
            return
        read = None
        if max(map(len, run), default=0) <= _LINE_CHARS:
            read = _read_run(run, sizes, num_features)
        if read is None:
            saved = False
            read = [_parse_tree(lines[s : s + n], s, num_features) for s, n in zip(starts, sizes)]
        trees.extend(read)
        del run[:], starts[:], sizes[:]

    for t in range(tree_count):
        match = _TREE_RE.match(lines[pos]) if pos < len(lines) else None
        if not match or int(match.group(1)) != t:
            read_run()  # an error in an earlier tree comes first
            raise ParseError(f"expected 'tree {t}' record", pos + 1)
        node_count = int(match.group(2))
        saved = saved and lines[pos] == f"tree {t} nodes={node_count}"
        pos += 1
        if pos + node_count > len(lines):
            read_run()
            raise ParseError("truncated tree block", len(lines) + 1)
        run += lines[pos : pos + node_count]
        starts.append(pos)
        sizes.append(node_count)
        pos += node_count
        if len(run) >= _BLOCK_LINES or t == tree_count - 1:
            read_run()
    if pos >= len(lines) or lines[pos] != "end":
        raise ParseError("missing 'end' marker", pos + 1)
    ensemble = Ensemble(trees=trees, **values)
    if not (saved and pos + 1 == len(lines) and lines[:header_end] == _header_lines(ensemble)):
        _require_canonical(text, dumps_ensemble(ensemble), "v1 form")
    return ensemble


def _read_run(lines: list[str], sizes: list[int], num_features: int) -> list[RegressionTree] | None:
    """The trees whose node lines are ``lines``, ``sizes[t]`` of them for tree
    ``t``; None unless each line is what saving its tree writes.

    A line's kind is its first character. All leaf lines are split at once,
    and so are all split lines. Each kind's lines must be its tokens joined
    by single spaces; a line of either kind is then one row: its kind and id
    where saving writes them, each ``f=``, ``t=``, ``v=`` and ``n=`` number
    as ``repr`` spells it (one call converts each column), and ``l=`` and
    ``r=`` the children that building the trees derives.
    """
    try:
        kinds = "".join(map(itemgetter(0), lines))
    except IndexError:  # an empty line
        return None
    if kinds.count("L") + kinds.count("N") != len(lines):
        return None
    split = np.frombuffer(kinds.encode(), dtype=np.uint8) == ord("N")
    leaf = ~split
    leaves = _tokens(list(compress(lines, leaf.tolist())), "L", 4)
    splits = _tokens(list(compress(lines, split.tolist())), "N", 6)
    first = np.cumsum(sizes) - sizes
    row = np.arange(len(lines)) - np.repeat(first, sizes)  # each line's node id
    leaf_rows, split_rows = row[leaf].tolist(), row[split].tolist()
    names = list(map(str, range(max(sizes, default=0) + 1)))
    if (leaves is None or splits is None
            or leaves[1::4] != list(map(names.__getitem__, leaf_rows))
            or splits[1::6] != list(map(names.__getitem__, split_rows))
            or splits[4::6] != ["l=" + names[i + 1] for i in split_rows]):
        return None
    try:
        index = np.array(_numbers(splits[2::6], "f=", int), dtype=np.intp)
        if index.size and not (index.min() >= 1 and int(index.max()) <= num_features):
            return None
        feature = np.full(len(lines), -1, dtype=np.intp)
        feature[split] = index - 1
        threshold = np.zeros(len(lines))
        threshold[split] = _numbers(splits[3::6], "t=", float)
        value = np.zeros(len(lines))
        value[leaf] = _numbers(leaves[2::4], "v=", float)
        count = np.zeros(len(lines), dtype=np.int64)
        count[leaf] = _numbers(leaves[3::4], "n=", int)
        trees = _stacked_trees([feature, threshold, value, count], sizes)
    except (ValueError, OverflowError, ValidationError):
        return None
    right = np.concatenate([tree.right for tree in trees])[split]
    rights = ["r=" + name for name in names]
    return trees if splits[5::6] == list(map(rights.__getitem__, right.tolist())) else None


def _tokens(lines: list[str], kind: str, width: int) -> list[str] | None:
    """The tokens of ``lines`` joined by single spaces, or None unless the
    lines are ``width`` tokens each, ``kind`` first.

    A token that starts like ``kind`` stands only first on a saved line, and
    each line starts with its kind, so once the other tokens are checked each
    line holds ``width`` tokens.
    """
    tokens = " ".join(lines).split(" ") if lines else []
    if len(tokens) != width * len(lines) or tokens[0::width] != [kind] * len(lines):
        return None
    return tokens


def _numbers(tokens: list[str], key: str, kind: type) -> list:
    """The numbers the tokens spell after ``key``; ValueError unless each token
    is ``key`` and then the number as ``repr`` spells it."""
    texts = f" {' '.join(tokens)}".split(" " + key)[1:]  # tokens hold no space
    numbers = list(map(kind, texts))
    if len(texts) != len(tokens) or list(map(repr, numbers)) != texts:
        raise ValueError(f"not {key}<number> tokens")
    return numbers


def _require_canonical(text: str, canonical: str, form: str) -> None:
    """Reject ``text`` unless it is ``canonical``, naming the first line that differs.

    Header order, number spellings, line ends, trailing lines: every file
    accepted is exactly what saving its model writes.
    """
    if canonical == text:
        return
    pairs = enumerate(zip_longest(text.split("\n"), canonical.split("\n")))
    line, got, wanted = next((i, a, b) for i, (a, b) in pairs if a != b)
    if wanted:
        expected = repr(wanted)
    else:
        expected = "a final line break" if got is None else "the end of the file"
    raise ValidationError(f"not in canonical {form}: expected {expected}", line + 1)


def _parse_tree(block: list[str], offset: int, num_features: int) -> RegressionTree:
    """One tree's node lines (file lines ``offset + 1`` on) as its table.

    Reads each line's kind and its ``f=``, ``t=``, ``v=`` and ``n=`` as a
    row. The tree checks its own shape; a shape error names the ``tree`` line.
    """
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
    try:
        return RegressionTree(*(zip(*rows) if rows else ((),) * 4))
    except ValidationError as exc:
        raise ValidationError(str(exc), offset) from None


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
    model = LinearModel(weights=weights)
    _require_canonical(text, dumps_linear(model), "linear form")
    return model


def save_model(model: Ensemble | LinearModel, path: str) -> None:
    text = dumps_linear(model) if isinstance(model, LinearModel) else dumps_ensemble(model)
    with _open_output(path) as fh:
        fh.write(text)


def load_model(path: str) -> Ensemble | LinearModel:
    with _open_text(path, newline="") as fh:
        text = fh.read()
    if text.startswith(LINEAR_MAGIC + " "):
        return parse_linear(text)
    return parse_ensemble(text)

"""Seeded synthetic inputs: LETOR text files and a v1 tree-ensemble file.

Everything here depends only on the seed and the shape, so the same seed
gives byte-identical files. Nothing in this module imports plrank: the
program under test only ever sees the files written here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Shape:
    queries: int
    docs: int  # per query
    features: int
    style: str  # "letor" (per-query [0,1], zeros, ties) or "wide" (raw floats)


@dataclass
class Table:
    """A generated query-grouped table: grades, features and hidden utility."""

    qids: np.ndarray
    grades: np.ndarray
    X: np.ndarray
    utility: np.ndarray


# MQ2008-like grade shares for the LETOR style: most documents are
# irrelevant, a few are highly relevant.
_LETOR_GRADE_CUTS = (0.72, 0.92)
# Large queries: a handful of top-grade documents over a long tail of zeros,
# so top-K prefixes of different samples overlap and contexts are shared.
_WIDE_GRADE_CUTS = (0.70, 0.90, 0.97, 0.993)


def _column_kinds(rng: np.random.Generator, m: int) -> np.ndarray:
    """0 = continuous, 1 = quantized to a few levels, 2 = mostly zero."""
    return rng.choice(3, size=m, p=[0.4, 0.3, 0.3])


def make_table(seed: int, part: int, shape: Shape) -> Table:
    """Generate one file's worth of queries.

    ``part`` separates the train, held-out and feedback files of one seed;
    they share the hidden scorer (drawn from the seed alone) so that a model
    trained on one part ranks the others.
    """
    model_rng = np.random.default_rng([seed, 0])
    m = shape.features
    # Fixed-size loadings with random signs: every seed gets about the same
    # signal strength, so ranking quality does not swing with the seed.
    loadings = model_rng.choice([-1.0, 1.0], size=m) * model_rng.uniform(0.3, 1.0, size=m)
    kinds = _column_kinds(model_rng, m)
    levels = model_rng.integers(3, 21, size=m)
    zero_share = model_rng.uniform(0.5, 0.9, size=m)
    scale = 10.0 ** model_rng.uniform(-2, 3, size=m)

    rng = np.random.default_rng([seed, part])
    n = shape.docs
    cuts = _LETOR_GRADE_CUTS if shape.style == "letor" else _WIDE_GRADE_CUTS
    qids, grades, rows, utils = [], [], [], []
    for q in range(shape.queries):
        utility = rng.normal(size=n)
        noisy = utility + 0.5 * rng.normal(size=n)
        grade = np.searchsorted(np.quantile(noisy, cuts), noisy, side="right")
        if shape.style == "letor":
            raw = utility[:, None] * loadings[None, :] + rng.normal(size=(n, m))
            raw = _letor_columns(rng, raw, kinds, levels, zero_share)
        else:
            # Few columns: less noise per column, so the ranking signal (and
            # NDCG from seed to seed) is about as strong as on 46 columns.
            raw = utility[:, None] * loadings[None, :] + 0.5 * rng.normal(size=(n, m))
            raw = raw * scale
        qids.append(np.full(n, part * 100_000 + q + 1))
        grades.append(grade)
        rows.append(raw)
        utils.append(utility)
    return Table(
        qids=np.concatenate(qids),
        grades=np.concatenate(grades).astype(np.int64),
        X=np.vstack(rows),
        utility=np.concatenate(utils),
    )


def _letor_columns(rng, raw, kinds, levels, zero_share) -> np.ndarray:
    """Per-query [0,1] scaling, exact zeros and rounded ties, as in MQ2008."""
    out = raw.copy()
    quant = kinds == 1
    out[:, quant] = np.floor(out[:, quant] * levels[quant] / 4.0)
    sparse = kinds == 2
    drop = rng.random(out.shape) < zero_share[None, :]
    out[:, sparse] = np.where(drop[:, sparse], 0.0, np.abs(out[:, sparse]))
    lo = out.min(axis=0)
    span = out.max(axis=0) - lo
    span[span == 0.0] = np.inf  # constant columns scale to 0
    return np.round((out - lo) / span, 6)


def letor_text(table: Table, style: str) -> str:
    """LETOR lines listing every feature, as MQ2008 files do."""
    value = "%.6f" if style == "letor" else "%.9g"
    fmt = "%d qid:%d " + " ".join(
        f"{j}:{value}" for j in range(1, table.X.shape[1] + 1)
    )
    lines = [
        fmt % (grade, qid, *row)
        for grade, qid, row in zip(
            table.grades.tolist(), table.qids.tolist(), table.X.tolist()
        )
    ]
    return "\n".join(lines) + "\n"


def ensemble_text(seed: int, table: Table, trees: int, leaves: int,
                  learning_rate: float = 0.1, sample: int = 1024) -> str:
    """A v1 model file of random best-first trees, as a trained model looks.

    Each tree splits its largest splittable leaf on a random feature at a
    value drawn from the documents in that leaf (a data quantile), until it
    has ``leaves`` leaves. Leaf values are mean residuals of the hidden
    utility, so the ensemble ranks better than chance.
    """
    rng = np.random.default_rng([seed, 99])
    rows = rng.choice(table.X.shape[0], size=min(sample, table.X.shape[0]),
                      replace=False)
    X = table.X[rows]
    target = table.utility[rows]
    pred = np.zeros(X.shape[0])
    m = X.shape[1]
    lines = [
        "plrank-model v1",
        "loss=plrank",
        f"alpha={learning_rate!r}",
        "topk=10",
        f"features={m}",
        "init=0.0",
        f"trees={trees}",
    ]
    for t in range(trees):
        resid = target - pred
        # node: [feature, threshold, left, right] or [rows]
        nodes: list[list] = [[np.arange(X.shape[0])]]
        open_leaves = [0]
        n_leaves = 1
        while n_leaves < leaves and open_leaves:
            open_leaves.sort(key=lambda i: -nodes[i][0].size)
            node_id = open_leaves.pop(0)
            idx = nodes[node_id][0]
            for _ in range(8):
                feat = int(rng.integers(m))
                vals = X[idx, feat]
                below = vals[vals < vals.max()]
                if below.size:
                    break
            else:
                continue
            thr = float(below[rng.integers(below.size)])
            go_left = vals <= thr
            left, right = len(nodes), len(nodes) + 1
            nodes.append([idx[go_left]])
            nodes.append([idx[~go_left]])
            nodes[node_id] = [feat, thr, left, right]
            open_leaves += [i for i in (left, right) if nodes[i][0].size > 1]
            n_leaves += 1
        lines += _tree_lines(t, nodes, resid, pred, learning_rate)
    lines.append("end")
    return "\n".join(lines) + "\n"


def _tree_lines(t, nodes, resid, pred, learning_rate) -> list[str]:
    order, ids, stack = [], {}, [0]
    while stack:
        i = stack.pop()
        ids[i] = len(order)
        order.append(i)
        if len(nodes[i]) == 4:
            stack += [nodes[i][3], nodes[i][2]]
    out = [f"tree {t} nodes={len(order)}"]
    for i in order:
        node = nodes[i]
        if len(node) == 4:
            feat, thr, left, right = node
            out.append(f"N {ids[i]} f={feat + 1} t={thr!r} l={ids[left]} r={ids[right]}")
        else:
            idx = node[0]
            value = float(resid[idx].mean())
            pred[idx] += learning_rate * value
            out.append(f"L {ids[i]} v={value!r} n={idx.size}")
    return out

"""The benchmark's workloads: input shapes, the commands they run, and why.

Every workload runs the same user pipeline, so every end-to-end metric
exists on each: ``plrank train`` (tree loss), ``plrank train --loss
listmle-linear``, ``plrank predict`` and ``plrank evaluate`` on the held-out
file, and a one-client loop that scores held-out queries one at a time. The
shapes and flags decide which layer dominates.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen

# Iteration times are the gaps between consecutive "iter=" lines, so 101
# trees give 100 samples and at least 10 beyond the 90th percentile.
TREES = 101


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    train: gen.Shape
    heldout: gen.Shape
    train_flags: tuple[str, ...]
    linear_flags: tuple[str, ...]
    validate: bool = False  # pass the held-out file to train as --valid
    # A generated ensemble (trees, leaves): train warm-starts from it, and
    # predict and the query loop serve it.
    base_trees: int = 0
    base_leaves: int = 30
    trees: int = TREES

    def tiny(self) -> "Workload":
        """The same pipeline at a shape that runs in seconds (smoke test)."""
        def small(shape: gen.Shape) -> gen.Shape:
            return dataclasses.replace(shape, queries=min(shape.queries, 4),
                                       docs=min(shape.docs, 15))
        return dataclasses.replace(
            self, train=small(self.train), heldout=small(self.heldout),
            base_trees=min(self.base_trees, 12), base_leaves=min(self.base_leaves, 6),
            trees=6)


LETOR = "letor"
WIDE = "wide"

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="letor-exact",
            why="MQ2008-like columns with exact split search: split search is "
                "most of each iteration, contexts are not shared",
            train=gen.Shape(queries=48, docs=60, features=46, style=LETOR),
            heldout=gen.Shape(queries=50, docs=60, features=46, style=LETOR),
            train_flags=("--loss", "plrank", "--bins", "0", "--objectives", "1"),
            linear_flags=("--objectives", "1", "--iterations", "10"),
            validate=True,
        ),
        Workload(
            name="bigquery-hist",
            why="few 500-document queries, 5 shared samples and 64-bin splits: "
                "the likelihood layers are most of each iteration",
            train=gen.Shape(queries=30, docs=500, features=8, style=WIDE),
            heldout=gen.Shape(queries=24, docs=500, features=8, style=WIDE),
            train_flags=("--loss", "plrank", "--bins", "64", "--objectives", "5"),
            linear_flags=("--objectives", "5", "--iterations", "10"),
        ),
        Workload(
            name="serve",
            why="a generated 400-tree ensemble is loaded and scored; training "
                "only warm-starts from it with small trees on a small file",
            train=gen.Shape(queries=5, docs=60, features=46, style=LETOR),
            heldout=gen.Shape(queries=12, docs=60, features=46, style=LETOR),
            train_flags=("--loss", "plrank", "--bins", "0", "--objectives", "1",
                         "--leaves", "10"),
            linear_flags=("--objectives", "1", "--iterations", "10"),
            base_trees=400,
        ),
    ]
}


@dataclass
class Inputs:
    train: Path
    heldout: Path
    base_model: Path | None
    train_table: gen.Table
    heldout_table: gen.Table
    digest: str  # SHA-256 over every generated file


def write_inputs(workload: Workload, seed: int, workdir: Path) -> Inputs:
    """Generate the workload's files from the seed alone."""
    train = gen.make_table(seed, 1, workload.train)
    heldout = gen.make_table(seed, 2, workload.heldout)
    files = {
        workdir / "train.letor": gen.letor_text(train, workload.train.style),
        workdir / "heldout.letor": gen.letor_text(heldout, workload.heldout.style),
    }
    base = None
    if workload.base_trees:
        history = gen.make_table(seed, 3, workload.heldout)
        base = workdir / "base.model"
        files[base] = gen.ensemble_text(seed, history, workload.base_trees,
                                        workload.base_leaves)
    digest = hashlib.sha256()
    for path, text in files.items():
        data = text.encode()
        path.write_bytes(data)
        digest.update(data)
    return Inputs(workdir / "train.letor", workdir / "heldout.letor", base,
                  train, heldout, digest.hexdigest())


def properties(workload: Workload, inputs: Inputs) -> dict[str, object]:
    """Input properties that split search and the likelihood depend on."""
    table = inputs.train_table
    distinct = [np.unique(table.X[:, j]).size for j in range(table.X.shape[1])]
    grades = np.bincount(table.grades)
    return {
        "train_docs": table.X.shape[0],
        "train_queries": workload.train.queries,
        "heldout_docs": inputs.heldout_table.X.shape[0],
        "heldout_queries": workload.heldout.queries,
        "docs_per_query": workload.train.docs,
        "features": table.X.shape[1],
        "distinct_per_column_median": float(np.median(distinct)),
        "zero_share": round(float(np.mean(table.X == 0.0)), 4),
        "grades": ",".join(f"{g}:{c}" for g, c in enumerate(grades.tolist())),
        "base_model_trees": workload.base_trees,
    }

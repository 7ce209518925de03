"""The benchmark's per-layer hooks must keep finding the names they wrap.

``perfbench/layers.py`` hooks plrank functions by (module, name) from
outside the program. A hook whose name is gone is skipped and its layer
reads "not measured", so a refactor that renames or folds a hooked function
would silently blind the trace; these tests make it fail loudly instead.
The benchmark files are only read here.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from plrank import TrainConfig, train

from helpers import thresholded_linear_dataset

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_modules():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("layers"), importlib.import_module("spans")
    finally:
        sys.path.remove(str(PERFBENCH))


layers, spans = _perfbench_modules()


@pytest.mark.parametrize("hook", layers.HOOKS, ids=lambda h: f"{h.module}:{h.attr}")
def test_hook_target_resolves(hook):
    owner = importlib.import_module(hook.module)
    for part in hook.attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_traced_training_measures_every_likelihood_layer():
    tracer = spans.Tracer()
    uninstall = tracer.install(layers.HOOKS)
    try:
        ds = thresholded_linear_dataset(n_queries=6, n_docs=12, n_features=4, seed=2)
        train(ds, TrainConfig(trees=3, leaves=4, objectives=2))
    finally:
        uninstall()
    assert tracer.missing_sites == []
    assert not tracer.broken_counters
    stats = tracer.layers()
    for layer in ("permutation.build", "pl_objective.refresh", "pl_objective.gradient",
                  "pl_objective.newton", "pl_objective.loglik", "tree.fit"):
        assert stats[layer].calls > 0, layer
    assert tracer.counts["permutation.contexts"] > 0
    assert tracer.counts["pl_objective.member_terms"] > tracer.counts["permutation.contexts"]
    assert np.isfinite(list(tracer.counts.values())).all()

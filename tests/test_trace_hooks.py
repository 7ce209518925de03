"""The benchmark's per-layer hooks must keep finding the names they wrap.

``perfbench/layers.py`` hooks plrank functions by (module, name) from
outside the program. A hook whose name is gone is skipped and its layer
reads "not measured", so a refactor that renames or folds a hooked function
would silently blind the trace; these tests make it fail loudly instead.
The benchmark files are only read here.
"""

import importlib

import numpy as np
import pytest

from plrank import TrainConfig, format_dataset, train
from plrank.cli import main

from helpers import perfbench_modules, thresholded_linear_dataset

layers, spans = perfbench_modules("layers", "spans")


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


def test_traced_cli_builds_each_matrix_once(tmp_path, capsys):
    """One ``data.dense`` span per matrix: train and valid, linear, predict."""
    files = {}
    for name, seed in (("train", 2), ("valid", 3)):
        ds = thresholded_linear_dataset(n_queries=5, n_docs=10, n_features=4, seed=seed)
        files[name] = tmp_path / f"{name}.txt"
        files[name].write_text(format_dataset(ds))
    model = tmp_path / "model.txt"
    commands = [
        (["train", "--train", files["train"], "--valid", files["valid"], "--trees", "3",
          "--leaves", "4", "--out", model], 2),
        (["train", "--train", files["train"], "--loss", "listmle-linear",
          "--iterations", "5", "--out", tmp_path / "linear.txt"], 1),
        (["predict", "--model", model, "--data", files["valid"],
          "--out", tmp_path / "scores.txt"], 1),
    ]
    for argv, matrices in commands:
        tracer = spans.Tracer()
        uninstall = tracer.install(layers.HOOKS)
        try:
            assert main([str(a) for a in argv]) == 0
        finally:
            uninstall()
        capsys.readouterr()
        assert tracer.missing_sites == []
        stats = tracer.layers()
        assert stats["data.parse"].calls > 0 and stats["data.parse"].self_s > 0
        assert stats["data.dense"].calls == matrices, argv[:4]
        assert stats["data.dense"].self_s > 0


@pytest.mark.parametrize("valid", [False, True], ids=["train", "train-valid"])
def test_exact_training_fits_each_tree_once_and_routes_only_validation_rows(
        tmp_path, capsys, valid):
    """One ``tree.fit`` span per tree; ``apply_tree`` runs on validation rows only."""
    files = []
    for seed in (2, 3):
        ds = thresholded_linear_dataset(n_queries=5, n_docs=10, n_features=4, seed=seed)
        files.append(tmp_path / f"{seed}.txt")
        files[-1].write_text(format_dataset(ds))
    argv = ["train", "--train", files[0], "--bins", "0", "--trees", "4", "--leaves", "4",
            "--out", tmp_path / "model.txt"]
    if valid:
        argv += ["--valid", files[1]]
    tracer = spans.Tracer()
    uninstall = tracer.install(layers.HOOKS)
    try:
        assert main([str(a) for a in argv]) == 0
    finally:
        uninstall()
    capsys.readouterr()
    assert tracer.missing_sites == []
    stats = tracer.layers()
    assert stats["tree.fit"].calls == 4
    if valid:
        assert stats["tree.apply"].calls == 4
    else:
        assert "tree.apply" not in stats

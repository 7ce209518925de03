"""Which plrank names are hooked, and how spans and counts become metrics.

Each hook sits on the name a calling module looks up, so the span covers
exactly the calls that module makes. A layer hooked at several sites (for
example ``dense_features``, looked up by the booster, the linear trainer and
the CLI) sums over all of them.
"""

from __future__ import annotations

import os
import sys

import numpy as np

from spans import Hook, Tracer

NOT_MEASURED = -1.0


def _docs(args, kwargs, result):
    return {"data.docs": result.num_documents}


def _contexts(args, kwargs, result):
    return {
        "permutation.contexts": len(result.contexts),
        "permutation.raw_terms": result.raw_term_count,
        "pl_objective.member_terms": sum(len(c.member_indices) for c in result.contexts),
    }


def _leaf_outputs(args, kwargs, result):
    bound = sys.modules["plrank.pl_objective"].MAX_LEAF_OUTPUT
    out = np.asarray(result)
    return {
        "pl_objective.clamped_leaves": int(np.count_nonzero(np.abs(out) >= bound)),
        "pl_objective.flat_leaves": int(np.count_nonzero(out == 0.0)),
    }


def _leaf_fill(args, kwargs, result):
    budget = args[2] if len(args) > 2 else kwargs["leaf_limit"]
    return {"tree.leaves": result.leaf_count, "tree.leaf_budget": budget}


def _saved_bytes(args, kwargs, result):
    return {"model_io.bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


def _loaded_bytes(args, kwargs, result):
    return {"model_io.bytes": os.path.getsize(args[0] if args else kwargs["path"])}


BOOSTER_TRAIN = Hook("booster.train", "plrank.cli", "train")

HOOKS = [
    Hook("data.parse", "plrank.cli", "load_dataset", _docs),
    Hook("data.parse", "plrank.data", "load_dataset", _docs),
    Hook("data.dense", "plrank.booster", "dense_features"),
    Hook("data.dense", "plrank.linear", "dense_features"),
    Hook("data.dense", "plrank.cli", "dense_features"),
    Hook("data.dense", "plrank.data", "dense_features"),
    Hook("permutation.build", "plrank.booster", "build_permutations", _contexts),
    Hook("permutation.build", "plrank.linear", "build_permutations"),
    Hook("pl_objective.refresh", "plrank.booster", "QueryContexts.refresh"),
    Hook("pl_objective.gradient", "plrank.booster", "response_from_workspace"),
    Hook("pl_objective.newton", "plrank.booster", "newton_leaf_outputs", _leaf_outputs),
    Hook("pl_objective.loglik", "plrank.pl_objective", "log_likelihood"),
    Hook("tree.fit", "plrank.booster", "fit_tree", _leaf_fill),
    Hook("tree.apply", "plrank.booster", "apply_tree"),
    Hook("tree.predict", "plrank.cli", "predict_ensemble_matrix"),
    Hook("tree.predict", "plrank.booster", "predict_ensemble_matrix"),
    Hook("tree.predict", "plrank.tree", "predict_ensemble_matrix"),
    BOOSTER_TRAIN,
    Hook("metrics.evaluate", "plrank.booster", "evaluate"),
    Hook("metrics.evaluate", "plrank.cli", "evaluate"),
    Hook("model_io.save", "plrank.cli", "save_model", _saved_bytes),
    Hook("model_io.load", "plrank.cli", "load_model", _loaded_bytes),
    Hook("model_io.load", "plrank.model_io", "load_model", _loaded_bytes),
    Hook("linear.train", "plrank.cli", "train_linear"),
]

# The counter function that produces each counter.
COUNTER_SOURCE = {
    "data.docs": _docs,
    "permutation.contexts": _contexts,
    "permutation.raw_terms": _contexts,
    "pl_objective.member_terms": _contexts,
    "pl_objective.clamped_leaves": _leaf_outputs,
    "pl_objective.flat_leaves": _leaf_outputs,
    "tree.leaves": _leaf_fill,
    "tree.leaf_budget": _leaf_fill,
    "model_io.bytes": _saved_bytes,
}

# Per-layer metric: (unit, layer whose hook must be installed, how to read it).
# "self" is the layer's self time, "total" its span time, "calls" its span
# count; anything else names a counter.
PER_LAYER = {
    "data.parse_s": ("s", "data.parse", "self"),
    "data.docs": ("count", "data.parse", "data.docs"),
    "data.dense_s": ("s", "data.dense", "self"),
    "permutation.build_s": ("s", "permutation.build", "self"),
    "permutation.contexts": ("count", "permutation.build", "permutation.contexts"),
    "permutation.raw_terms": ("count", "permutation.build", "permutation.raw_terms"),
    "pl_objective.refresh_s": ("s", "pl_objective.refresh", "self"),
    "pl_objective.gradient_s": ("s", "pl_objective.gradient", "self"),
    "pl_objective.newton_s": ("s", "pl_objective.newton", "self"),
    "pl_objective.loglik_s": ("s", "pl_objective.loglik", "self"),
    "pl_objective.member_terms": ("count", "permutation.build", "pl_objective.member_terms"),
    "pl_objective.clamped_leaves": ("count", "pl_objective.newton", "pl_objective.clamped_leaves"),
    "pl_objective.flat_leaves": ("count", "pl_objective.newton", "pl_objective.flat_leaves"),
    "tree.fit_s": ("s", "tree.fit", "self"),
    "tree.fit_calls": ("count", "tree.fit", "calls"),
    "tree.apply_s": ("s", "tree.apply", "self"),
    "tree.predict_s": ("s", "tree.predict", "self"),
    "tree.predict_calls": ("count", "tree.predict", "calls"),
    "booster.train_s": ("s", "booster.train", "total"),
    "booster.self_s": ("s", "booster.train", "self"),
    "metrics.evaluate_s": ("s", "metrics.evaluate", "self"),
    "metrics.evaluate_calls": ("count", "metrics.evaluate", "calls"),
    "model_io.save_s": ("s", "model_io.save", "self"),
    "model_io.load_s": ("s", "model_io.load", "self"),
    "model_io.bytes": ("bytes", "model_io.save", "model_io.bytes"),
    "linear.train_s": ("s", "linear.train", "self"),
    "cli.self_s": ("s", "cli", "self"),
}


def _read(tracer: Tracer, stats, layer: str, source: str) -> float:
    if layer != "cli" and layer not in tracer.hooked_layers:
        return NOT_MEASURED
    if source in ("self", "total", "calls"):
        entry = stats.get(layer)
        if entry is None:
            return 0.0
        return {"self": entry.self_s, "total": entry.total_s,
                "calls": float(entry.calls)}[source]
    if COUNTER_SOURCE[source] in tracer.broken_counters:
        return NOT_MEASURED
    return tracer.counts.get(source, 0.0)


def _ratio(num: float, den: float) -> float:
    return num / den if num >= 0 and den > 0 else NOT_MEASURED


def per_layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every PER_LAYER metric plus the two ratios; NOT_MEASURED where a hook is gone."""
    stats = tracer.layers()
    out = {name: (_read(tracer, stats, layer, source), unit)
           for name, (unit, layer, source) in PER_LAYER.items()}
    out["permutation.kept_ratio"] = (
        _ratio(out["permutation.contexts"][0], out["permutation.raw_terms"][0]), "ratio")
    out["tree.leaf_fill"] = (
        _ratio(_read(tracer, stats, "tree.fit", "tree.leaves"),
               _read(tracer, stats, "tree.fit", "tree.leaf_budget")), "ratio")
    return out

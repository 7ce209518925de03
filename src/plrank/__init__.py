"""PLRank: listwise likelihood boosting for learning to rank.

Gradient-boosted regression trees trained to maximize the Plackett-Luce
likelihood of sampled top-K ground-truth permutations, plus linear ListMLE
and MART square-loss baselines, LETOR data handling, and NDCG/ERR metrics.
"""

from .booster import TrainConfig, TrainTrace, mart_response, train
from .data import (
    Dataset,
    QueryGroup,
    dense_features,
    format_dataset,
    load_dataset,
    parse_dataset,
)
from .errors import ConfigError, ParseError, PLRankError, ValidationError
from .linear import LinearModel, train_linear
from .metrics import EvalReport, dcg_at_k, err, evaluate, ndcg_at_k
from .model_io import load_model, save_model
from .permutation import (
    ContextSet,
    PermutationSet,
    build_permutations,
    compression_ratio,
)
from .pl_objective import (
    QueryContexts,
    conditional_probs,
    leaf_newton_stats,
    log_likelihood,
    pseudo_response,
)
from .tree import (
    Ensemble,
    RegressionTree,
    apply_tree,
    fit_tree,
    predict_ensemble_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ContextSet",
    "Dataset",
    "Ensemble",
    "EvalReport",
    "LinearModel",
    "ParseError",
    "PermutationSet",
    "PLRankError",
    "QueryContexts",
    "QueryGroup",
    "RegressionTree",
    "TrainConfig",
    "TrainTrace",
    "ValidationError",
    "apply_tree",
    "build_permutations",
    "compression_ratio",
    "conditional_probs",
    "dcg_at_k",
    "dense_features",
    "err",
    "evaluate",
    "fit_tree",
    "format_dataset",
    "leaf_newton_stats",
    "load_dataset",
    "load_model",
    "log_likelihood",
    "mart_response",
    "ndcg_at_k",
    "parse_dataset",
    "predict_ensemble_matrix",
    "pseudo_response",
    "save_model",
    "train",
    "train_linear",
]

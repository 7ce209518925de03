"""Command-line entry points: train, predict, evaluate.

Exit codes: 0 success, 2 bad flags, 3 parse/validation/configuration
errors, 4 I/O errors.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import math
import os
import sys

import numpy as np

from .booster import TrainConfig, train
from .data import Dataset, _ascii, dense_features, load_dataset
from .errors import ConfigError, PLRankError, ValidationError, _open_text
from .linear import LinearModel, train_linear
from .metrics import evaluate
from .model_io import load_model, save_model
from .tree import Ensemble, predict_ensemble_matrix

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_IO = 4

# glibc mallopt parameters, as (M_MMAP_THRESHOLD, 64 MiB), (M_TRIM_THRESHOLD, 256 MiB).
_MALLOPT_POLICY = ((-3, 64 << 20), (-1, 256 << 20))


def _cutoff_list(text: str) -> list[int]:
    try:
        cutoffs = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad cutoff list {text!r}") from None
    if not cutoffs or any(k < 1 for k in cutoffs):
        raise argparse.ArgumentTypeError(f"cutoffs must be positive: {text!r}")
    return cutoffs


def _thread_count(text: str) -> int:
    try:
        threads = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad thread count {text!r}") from None
    if threads < 1:
        raise argparse.ArgumentTypeError(f"thread count must be >= 1: {text!r}")
    return threads


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plrank",
        description="Listwise likelihood boosting: train, predict, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a ranking model")
    p_train.add_argument("--train", required=True, metavar="PATH")
    p_train.add_argument(
        "--loss",
        default="plrank",
        choices=["plrank", "mart1", "mart2", "cmart1", "listmle-linear"],
    )
    p_train.add_argument("--trees", type=int, default=1000)
    p_train.add_argument("--leaves", type=int, default=30)
    p_train.add_argument("--lr", type=float, default=0.1)
    p_train.add_argument("--topk", type=int, default=10)
    p_train.add_argument("--objectives", type=int, default=1)
    p_train.add_argument("--seed", type=int, default=42)
    p_train.add_argument("--min-leaf", type=int, default=1)
    p_train.add_argument("--bins", type=int, default=0,
                         help="split search on at most this many quantile bins per "
                              "feature (0 = exact)")
    p_train.add_argument("--iterations", type=int, default=100,
                         help="optimizer cap for --loss listmle-linear")
    p_train.add_argument("--init-model", metavar="PATH")
    p_train.add_argument("--valid", metavar="PATH")
    p_train.add_argument("--threads", type=_thread_count, default=1)
    p_train.add_argument("--out", required=True, metavar="PATH")
    p_train.set_defaults(func=cmd_train)

    p_predict = sub.add_parser("predict", help="score a dataset with a model")
    p_predict.add_argument("--model", required=True, metavar="PATH")
    p_predict.add_argument("--data", required=True, metavar="PATH")
    p_predict.add_argument("--strict", action="store_true",
                           help="reject feature indices the model has not seen")
    p_predict.add_argument("--threads", type=_thread_count, default=1)
    p_predict.add_argument("--out", required=True, metavar="PATH")
    p_predict.set_defaults(func=cmd_predict)

    p_eval = sub.add_parser("evaluate", help="evaluate a score file")
    p_eval.add_argument("--data", required=True, metavar="PATH")
    p_eval.add_argument("--scores", required=True, metavar="PATH")
    p_eval.add_argument("--ndcg", type=_cutoff_list, default=[1, 3, 10],
                        metavar="K1,K2,...")
    p_eval.add_argument("--err", action="store_true", help="also report ERR")
    p_eval.add_argument("--gmax", type=int, default=None)
    p_eval.add_argument("--degenerate", default="zero",
                        choices=["zero", "one", "skip"])
    p_eval.add_argument("--format", default="text", choices=["text", "kv"])
    p_eval.set_defaults(func=cmd_evaluate)
    return parser


def _emit(line: str) -> None:
    """Print one line of output. A reader that closes stdout early ends no
    command: fd 1 then points at ``os.devnull``, and later lines are dropped."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def cmd_train(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.train)
    if args.loss == "listmle-linear":
        for flag, value in (("--valid", args.valid), ("--init-model", args.init_model)):
            if value is not None:
                raise ConfigError(f"{flag} applies only to tree losses, not listmle-linear")
        model: Ensemble | LinearModel = train_linear(
            dataset,
            k=args.topk,
            objectives=args.objectives,
            iterations=args.iterations,
            seed=args.seed,
            on_iteration=_emit,
        )
    else:
        init_model = None
        if args.init_model is not None:
            loaded = load_model(args.init_model)
            if not isinstance(loaded, Ensemble):
                raise ValidationError("--init-model must be a tree ensemble file")
            init_model = loaded
        valid = load_dataset(args.valid) if args.valid is not None else None
        config = TrainConfig(
            loss=args.loss,
            trees=args.trees,
            leaves=args.leaves,
            learning_rate=args.lr,
            top_k=args.topk,
            objectives=args.objectives,
            seed=args.seed,
            min_leaf_docs=args.min_leaf,
            histogram_bins=args.bins,
            init_model=init_model,
        )
        model, _ = train(dataset, config, valid_dataset=valid, on_iteration=_emit)
    save_model(model, args.out)
    return EXIT_OK


def _dataset_scores(model: Ensemble | LinearModel, dataset: Dataset, strict: bool) -> np.ndarray:
    if isinstance(model, Ensemble):
        model_width, reads = model.num_features, model.split_width
    else:
        model_width = reads = model.weights.size
    if strict and dataset.max_feature_index > model_width:
        raise ValidationError(
            f"data uses feature index {dataset.max_feature_index}, "
            f"model covers only {model_width}"
        )
    # Rows as wide as the model reads: a header may declare far more features.
    X = dense_features(dataset, max(reads, dataset.max_feature_index))
    if isinstance(model, Ensemble):
        return predict_ensemble_matrix(model, X)
    return model.predict_matrix(X)


def cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    dataset = load_dataset(args.data)
    scores = _dataset_scores(model, dataset, args.strict)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(map("{:.17g}\n".format, scores.tolist())))
    return EXIT_OK


def _load_scores(path: str) -> np.ndarray:
    values = []
    with _open_text(path) as lines:
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                value = _ascii(float)(line)
            except ValueError:
                raise ValidationError(f"bad score {line!r}", lineno) from None
            if not math.isfinite(value):
                raise ValidationError(f"non-finite score {line!r}", lineno)
            values.append(value)
    return np.array(values, dtype=np.float64)


def cmd_evaluate(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    scores = _load_scores(args.scores)
    report = evaluate(
        dataset,
        scores,
        cutoffs=args.ndcg,
        g_max=args.gmax,
        degenerate_policy=args.degenerate,
    )
    if args.format == "kv":
        _emit(report.format_keyvalues(include_err=args.err))
    else:
        _emit(report.format_text(include_err=args.err))
    return EXIT_OK


@functools.cache
def _set_allocator_policy() -> None:
    """Fix glibc's mmap and trim thresholds for this process; do nothing where
    libc has no ``mallopt``.

    glibc maps each block above its mmap threshold on its own, and returns the
    heap's free top to the system above its trim threshold. Both start low and
    rise only when a large mapped block is freed, so split search's speed
    would depend on what the process happened to free before it. Without such
    a free, each tree node's temporaries (about 1 MB at 2,880 documents x 46
    features) are mapped, faulted in and unmapped again at every node. With
    these thresholds they stay in the heap: a 101-tree exact train at that
    shape takes about 1,850 minor page faults, not about 215,000 (README,
    "Command line").
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _MALLOPT_POLICY:
        mallopt(param, value)


def main(argv: list[str] | None = None) -> int:
    _set_allocator_policy()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except PLRankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

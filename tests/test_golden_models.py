"""Pinned SHA-256 of `plrank train` model files and standard output.

The exact-mode model bytes are an invariant of the toolkit: a change that
only makes training faster must leave them as they are. The features are
rounded to two decimals, so every column has tied values and the tie order
of the split search is covered too. The standard output (one objective line
per iteration, plus validation NDCG with ``--valid``) and the full-precision
objective values of the trace are pinned as well, so the log-likelihood is
held to the same bits as the model. So are the linear ListMLE model and
its output, and the `plrank predict` scores of the exact-mode model on a file
whose qid blocks interleave.
"""

import hashlib

import pytest

from plrank import TrainConfig, format_dataset, train
from plrank.cli import main

from helpers import thresholded_linear_dataset

GOLDEN = {
    ("--bins", "0"):
        "dc3e5d372f6ec82825f4bfe2698f7d4dd896033b04849be5bd9da2c493acd79d",
    ("--bins", "16"):
        "7bbf5f0735740382f036bbdf218f50578249903a6bb181acef426275d9aeff50",
    ("--bins", "0", "--loss", "mart1", "--min-leaf", "3"):
        "845a7128fd4f779e7fb93a4e4d9450043a395d5947aab881c39e6a3bcd0ecc50",
    ("--bins", "0", "--loss", "mart2", "--min-leaf", "2"):
        "c9a6b8790b068fa74665213eb848b220064fa60ed51decb88a8feb7dcc0c4158",
    ("--bins", "0", "--loss", "cmart1", "--min-leaf", "2"):
        "5ac121873a0f1c91f1bc9ff909ca651b1a51390c26916b950ccd1bf38a6b92b1",
}
GOLDEN_STDOUT = {
    ("--bins", "0"):
        "663a7bc8193deb4e8426fb320fd22f8e44ed14a03f58086f792946b2c10e184e",
    ("--bins", "16"):
        "7aab3492aa3f66193929c6ff68b68b41d24b57ea63333e4a6e35c47650a71d95",
    ("--bins", "0", "--loss", "mart1", "--min-leaf", "3"):
        "f4670c9066dd5761acacf2380e01fdccc024cdefd4fbb7c2107aa3e1f7baa9b9",
    ("--bins", "0", "--loss", "mart2", "--min-leaf", "2"):
        "b30910689d67290577b699c0046c853f3e6e24bf966caf5dc95e79d648c0ee8a",
    ("--bins", "0", "--loss", "cmart1", "--min-leaf", "2"):
        "990523fc834e89223ffa7dfc5d5a9ace27a44305729fe06e6a5464d8a68db335",
}
WARM_START = "58f5e1d249040bcf80c43e92dde727d7cb9175e53264d45684b723404ed4ca63"
WARM_START_STDOUT = "05d3af8b8d925e094362978be03273117467cb1025e6379d6a3b2b4c8a9c020a"
VALID = "c8461d11d80085bc2c5b47d982dc141c482eb04d862b2248c6f0bdbe78f4a203"
VALID_STDOUT = "7a90b7ca197c520beb4a2105542398beff032446b546146d6f62cbfd1ebcac38"
LINEAR = "3f11edf3c5f84e14a5784db34cdb03dde49dfb3e4c38b1d5f25a74b19eb0304b"
LINEAR_STDOUT = "3c16893ef07d8b9ea50ba60ce57fa298662618c180c3316132bfd625d53e5584"
# `plrank predict` output of the ``--bins 0`` model on the interleaved file.
PREDICT_INTERLEAVED = "9f17f955755cc1b662b90bdd303af8b64c1be86d48c167cdca6107bad7844e91"
# SHA-256 of the initial and per-iteration objectives, as repr() joined by
# spaces, of an in-process training per histogram setting.
OBJECTIVES = {
    0: "e6e9eed731861a351940e67262250df205a6dcc523e9523561c94267b26d8e19",
    16: "49efc729fb5e03d8e961995a8f16c8acd224f250ed7df8b241857cdc6004af0d",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _dataset():
    return thresholded_linear_dataset(
        n_queries=24, n_docs=15, n_features=6, seed=5, decimals=2
    )


@pytest.fixture(scope="module")
def train_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "train.txt"
    path.write_text(format_dataset(_dataset()))
    return str(path)


@pytest.fixture(scope="module")
def valid_file(tmp_path_factory):
    ds = thresholded_linear_dataset(
        n_queries=10, n_docs=15, n_features=6, seed=6, decimals=2
    )
    path = tmp_path_factory.mktemp("golden") / "valid.txt"
    path.write_text(format_dataset(ds))
    return str(path)


@pytest.fixture(scope="module")
def interleaved_file(tmp_path_factory):
    """The validation file with its qid blocks interleaved line by line."""
    ds = thresholded_linear_dataset(
        n_queries=10, n_docs=15, n_features=6, seed=6, decimals=2
    )
    lines = format_dataset(ds).splitlines(keepends=True)
    path = tmp_path_factory.mktemp("golden") / "interleaved.txt"
    path.write_text("".join(lines[q * 15 + i] for i in range(15) for q in range(10)))
    return str(path)


@pytest.mark.parametrize("flags", list(GOLDEN), ids=" ".join)
def test_model_bytes_pinned(tmp_path, train_file, flags, capsys):
    model = tmp_path / "model.txt"
    argv = ["train", "--train", train_file, "--trees", "12", "--leaves", "8",
            "--objectives", "3", "--seed", "3", *flags, "--out", str(model)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert _sha256(model.read_bytes()) == GOLDEN[flags]
    assert _sha256(out.encode()) == GOLDEN_STDOUT[flags]


def test_warm_start_bytes_pinned(tmp_path, train_file, capsys):
    """``--init-model`` rescales the carried trees' leaves by the lr ratio."""
    base, warm = tmp_path / "base.txt", tmp_path / "warm.txt"
    common = ["train", "--train", train_file, "--leaves", "8", "--seed", "3"]
    assert main([*common, "--trees", "6", "--lr", "0.3", "--out", str(base)]) == 0
    capsys.readouterr()
    assert main([*common, "--trees", "4", "--lr", "0.07", "--init-model", str(base),
                 "--out", str(warm)]) == 0
    out = capsys.readouterr().out
    assert _sha256(warm.read_bytes()) == WARM_START
    assert _sha256(out.encode()) == WARM_START_STDOUT


def test_valid_run_pinned(tmp_path, train_file, valid_file, capsys):
    model = tmp_path / "model.txt"
    argv = ["train", "--train", train_file, "--valid", valid_file, "--trees", "8",
            "--leaves", "8", "--objectives", "2", "--seed", "3", "--out", str(model)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert _sha256(model.read_bytes()) == VALID
    assert _sha256(out.encode()) == VALID_STDOUT


def test_linear_run_pinned(tmp_path, train_file, capsys):
    model = tmp_path / "model.txt"
    argv = ["train", "--train", train_file, "--loss", "listmle-linear",
            "--iterations", "20", "--objectives", "3", "--seed", "3", "--out", str(model)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert _sha256(model.read_bytes()) == LINEAR
    assert _sha256(out.encode()) == LINEAR_STDOUT


def test_tree_predict_pinned(tmp_path, train_file, interleaved_file, capsys):
    model, scores = tmp_path / "model.txt", tmp_path / "scores.txt"
    assert main(["train", "--train", train_file, "--trees", "12", "--leaves", "8",
                 "--objectives", "3", "--seed", "3", "--bins", "0",
                 "--out", str(model)]) == 0
    assert _sha256(model.read_bytes()) == GOLDEN[("--bins", "0")]
    assert main(["predict", "--model", str(model), "--data", interleaved_file,
                 "--out", str(scores)]) == 0
    capsys.readouterr()
    assert _sha256(scores.read_bytes()) == PREDICT_INTERLEAVED


@pytest.mark.parametrize("bins", list(OBJECTIVES))
def test_objective_values_pinned(bins):
    config = TrainConfig(trees=12, leaves=8, objectives=3, seed=3, histogram_bins=bins)
    _, trace = train(_dataset(), config)
    text = " ".join(repr(v) for v in [trace.initial_objective, *trace.objectives])
    assert _sha256(text.encode()) == OBJECTIVES[bins]

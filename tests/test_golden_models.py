"""Pinned SHA-256 of `plrank train` model files and standard output.

Model bytes are an invariant of the toolkit: a change that only makes
training faster must leave them as they are. A change that adds the
likelihood's terms in another order moves the likelihood models' bytes in
the last bits. Such a change is checked against the exactly rounded
reference (``tests/test_likelihood_oracle.py``) and re-takes these pins in
a commit of its own that lists them old -> new. The three square-loss
(MART) pins never touch the likelihood and must not move with it. The
``--bins 16`` pins (model, output and ``OBJECTIVES[16]``) may move only
with a change to how histogram mode bins or cuts, held bit for bit to the
per-feature oracle (``tests/split_reference.py``); every exact-mode pin
stays as it is then. The two linear pins (``LINEAR``, ``LINEAR_STDOUT``) may
move only with a change to the linear optimizer, checked against scipy's
L-BFGS-B in ``tests/test_linear.py``; every tree pin stays as it is then.

The features are rounded to two decimals, so every column has tied values
and the tie order of the split search is covered too. The standard output
(one objective line per iteration, plus validation NDCG with ``--valid``)
and the full-precision objective values of the trace are pinned as well,
so the log-likelihood is held to the same bits as the model. So are the
linear ListMLE model and its output, and the `plrank predict` scores of
the exact-mode model on a file whose qid blocks interleave.
"""

import hashlib

import pytest

from plrank import TrainConfig, format_dataset, train
from plrank.cli import main

from helpers import thresholded_linear_dataset

GOLDEN = {
    ("--bins", "0"):
        "c14b2548ecfe447423ca7425f5f6a61cd0f6554eb273a9cd164b694d1e4d420c",
    ("--bins", "16"):
        "6a439406a8cdbbedcf6ba776517f8239ef8cf8fe7395b8265a4c1d5d5c952e48",
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
        "636db2d33b6d41c221b7a4398b03ef8b0648f98c20c62c4d548a10cf4d2b0db3",
    ("--bins", "0", "--loss", "mart1", "--min-leaf", "3"):
        "f4670c9066dd5761acacf2380e01fdccc024cdefd4fbb7c2107aa3e1f7baa9b9",
    ("--bins", "0", "--loss", "mart2", "--min-leaf", "2"):
        "b30910689d67290577b699c0046c853f3e6e24bf966caf5dc95e79d648c0ee8a",
    ("--bins", "0", "--loss", "cmart1", "--min-leaf", "2"):
        "990523fc834e89223ffa7dfc5d5a9ace27a44305729fe06e6a5464d8a68db335",
}
WARM_START = "a70726a9636fc71443d08158cc126e2990da45a6ba979985c846bc9da50ca0e3"
WARM_START_STDOUT = "05d3af8b8d925e094362978be03273117467cb1025e6379d6a3b2b4c8a9c020a"
VALID = "31de869f1ee5f95f4faa478efe8e418be39d0a64d8cbc213ad2297ac46aa1218"
VALID_STDOUT = "7a90b7ca197c520beb4a2105542398beff032446b546146d6f62cbfd1ebcac38"
LINEAR = "42430d77b7b0311ecb4c2ce4c31ec40582b27bf8cd391fa5e7d7ad16b07989ae"
LINEAR_STDOUT = "9fc3a4ef675dc2bc71f0615006b079e1390284645e19093e031c35f5c0310bf9"
# `plrank predict` output of the ``--bins 0`` model on the interleaved file.
PREDICT_INTERLEAVED = "aa9da0ff92f0b2c4157f3ab32fc52f7da2a69933aaaa4624be20864a30d5d49e"
# SHA-256 of the initial and per-iteration objectives, as repr() joined by
# spaces, of an in-process training per histogram setting.
OBJECTIVES = {
    0: "e92826e8178b1612d8b19860d02fbaa4cd8b487f9cd2983a3a004ffe6675b781",
    16: "1d31e2140aad024624362fac765790990949e3821eb8e5e446d5ea31bce321b1",
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

"""Pinned SHA-256 of `plrank train` model files.

The exact-mode model bytes are an invariant of the toolkit: a change that
only makes training faster must leave them as they are. The features are
rounded to two decimals, so every column has tied values and the tie order
of the split search is covered too.
"""

import hashlib

import pytest

from plrank import format_dataset
from plrank.cli import main

from helpers import thresholded_linear_dataset

GOLDEN = {
    ("--bins", "0"):
        "dc3e5d372f6ec82825f4bfe2698f7d4dd896033b04849be5bd9da2c493acd79d",
    ("--bins", "16"):
        "7bbf5f0735740382f036bbdf218f50578249903a6bb181acef426275d9aeff50",
    ("--bins", "0", "--loss", "mart1", "--min-leaf", "3"):
        "845a7128fd4f779e7fb93a4e4d9450043a395d5947aab881c39e6a3bcd0ecc50",
}
WARM_START = "58f5e1d249040bcf80c43e92dde727d7cb9175e53264d45684b723404ed4ca63"


@pytest.fixture(scope="module")
def train_file(tmp_path_factory):
    ds = thresholded_linear_dataset(
        n_queries=24, n_docs=15, n_features=6, seed=5, decimals=2
    )
    path = tmp_path_factory.mktemp("golden") / "train.txt"
    path.write_text(format_dataset(ds))
    return str(path)


@pytest.mark.parametrize("flags", list(GOLDEN), ids=" ".join)
def test_model_bytes_pinned(tmp_path, train_file, flags, capsys):
    model = tmp_path / "model.txt"
    argv = ["train", "--train", train_file, "--trees", "12", "--leaves", "8",
            "--objectives", "3", "--seed", "3", *flags, "--out", str(model)]
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(model.read_bytes()).hexdigest() == GOLDEN[flags]


def test_warm_start_bytes_pinned(tmp_path, train_file, capsys):
    """``--init-model`` rescales the carried trees' leaves by the lr ratio."""
    base, warm = tmp_path / "base.txt", tmp_path / "warm.txt"
    common = ["train", "--train", train_file, "--leaves", "8", "--seed", "3"]
    assert main([*common, "--trees", "6", "--lr", "0.3", "--out", str(base)]) == 0
    assert main([*common, "--trees", "4", "--lr", "0.07", "--init-model", str(base),
                 "--out", str(warm)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(warm.read_bytes()).hexdigest() == WARM_START

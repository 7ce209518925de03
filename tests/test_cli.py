import functools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plrank
from plrank import TrainConfig, evaluate, load_dataset, train
from plrank.data import dense_features
from plrank import cli
from plrank.cli import main
from plrank.model_io import dumps_ensemble, dumps_linear, save_model
from plrank.tree import Ensemble, predict_ensemble_matrix

from helpers import letor_text, one_leaf_model, separable_dataset
from tree_reference import build_tree


@pytest.fixture
def train_file(tmp_path):
    ds = separable_dataset(n_queries=6, n_docs=8)
    from plrank import format_dataset

    path = tmp_path / "train.txt"
    path.write_text(format_dataset(ds))
    return str(path)


def run(argv):
    return main(argv)


def test_train_predict_evaluate_round_trip(tmp_path, train_file, capsys):
    model = tmp_path / "model.txt"
    scores = tmp_path / "scores.txt"
    assert run(["train", "--train", train_file, "--trees", "20",
                "--leaves", "4", "--out", str(model)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("iter=1 objective=")
    assert run(["predict", "--model", str(model), "--data", train_file,
                "--out", str(scores)]) == 0
    assert run(["evaluate", "--data", train_file, "--scores", str(scores),
                "--ndcg", "1,3,10", "--err"]) == 0
    report = capsys.readouterr().out
    assert "NDCG@10" in report and "ERR" in report


def test_predict_then_evaluate_matches_in_memory(tmp_path, train_file, capsys):
    model = tmp_path / "model.txt"
    scores = tmp_path / "scores.txt"
    run(["train", "--train", train_file, "--trees", "15", "--leaves", "4",
         "--out", str(model)])
    run(["predict", "--model", str(model), "--data", train_file,
         "--out", str(scores)])
    capsys.readouterr()
    assert run(["evaluate", "--data", train_file, "--scores", str(scores),
                "--ndcg", "10", "--err", "--format", "kv"]) == 0
    kv = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())

    ds = load_dataset(train_file)
    config = TrainConfig(loss="plrank", trees=15, leaves=4)
    ensemble, _ = train(ds, config)
    X = dense_features(ds, ds.max_feature_index)
    report = evaluate(ds, predict_ensemble_matrix(ensemble, X), [10])
    assert float(kv["ndcg@10"]) == pytest.approx(report.ndcg_at[10], abs=1e-12)
    assert float(kv["err"]) == pytest.approx(report.err, abs=1e-12)


def test_predict_writes_each_score_in_17_significant_digits(tmp_path):
    """The score file is each float64 score formatted as numpy scalars once were."""
    outputs = [-0.0, 5e-324, 0.1, 1e16, -123456.789, 2.5e-7, 1.7976931348623157e308]
    spec = outputs[-1]
    for i, out in reversed(list(enumerate(outputs[:-1]))):
        spec = (0, i + 0.5, out, spec)
    model, data, scores = tmp_path / "m.txt", tmp_path / "d.txt", tmp_path / "s.txt"
    ensemble = Ensemble(trees=[build_tree(spec)], learning_rate=1.0, num_features=1)
    save_model(ensemble, str(model))
    data.write_text("".join(f"0 qid:1 1:{i}\n" for i in range(len(outputs))))
    assert run(["predict", "--model", str(model), "--data", str(data),
                "--out", str(scores)]) == 0
    expected = predict_ensemble_matrix(ensemble, np.arange(len(outputs), dtype=float)[:, None])
    assert scores.read_bytes() == "".join(f"{v:.17g}\n" for v in expected).encode()


@pytest.mark.parametrize("block", [1, 3, 11, 64])
def test_predict_writes_the_same_bytes_block_by_block(tmp_path, monkeypatch, block):
    """Eleven scores written 1, 3 (a partial last block), 11 or 64 at a time
    are the bytes of the whole output joined at once."""
    outputs = [0.1 * i - 0.35 for i in range(11)]
    spec = outputs[-1]
    for i, out in reversed(list(enumerate(outputs[:-1]))):
        spec = (0, i + 0.5, out, spec)
    model, data, scores = tmp_path / "m.txt", tmp_path / "d.txt", tmp_path / "s.txt"
    ensemble = Ensemble(trees=[build_tree(spec)], learning_rate=1.0, num_features=1)
    save_model(ensemble, str(model))
    data.write_text("".join(f"0 qid:{i // 4} 1:{i}\n" for i in range(len(outputs))))
    monkeypatch.setattr(cli, "_WRITE_BLOCK", block)
    assert run(["predict", "--model", str(model), "--data", str(data),
                "--out", str(scores)]) == 0
    expected = predict_ensemble_matrix(ensemble, np.arange(len(outputs), dtype=float)[:, None])
    assert scores.read_bytes() == "".join(map("{:.17g}\n".format, expected.tolist())).encode()


def test_training_is_deterministic_across_thread_flags(tmp_path, train_file):
    out1 = tmp_path / "m1.txt"
    out2 = tmp_path / "m2.txt"
    base = ["train", "--train", train_file, "--trees", "10", "--leaves", "4",
            "--seed", "7"]
    assert run(base + ["--threads", "1", "--out", str(out1)]) == 0
    assert run(base + ["--threads", "8", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_exit_code_bad_flags(train_file, capsys):
    assert run(["train", "--train", train_file]) == 2          # missing --out
    assert run(["train", "--loss", "nope", "--train", train_file,
                "--out", "x"]) == 2
    assert run(["evaluate", "--data", train_file, "--scores", "s",
                "--ndcg", "a,b"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flag, value, message", [
    ("--topk", "0", "top-K must be >= 1"),
    ("--objectives", "0", "objective count must be >= 1"),
    ("--min-leaf", "0", "min leaf docs must be >= 1"),
    ("--bins", "1", "histogram bins must be 0 (exact) or >= 2"),
])
def test_exit_code_bad_train_setting(tmp_path, train_file, capsys, flag, value, message):
    assert run(["train", "--train", train_file, "--trees", "1", flag, value,
                "--out", str(tmp_path / "model.txt")]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("loss, flag, value, message", [
    ("listmle-linear", "--trees", "0", "tree count must be >= 1"),
    ("listmle-linear", "--leaves", "1", "leaf count must be >= 2"),
    ("listmle-linear", "--lr", "nan", "learning rate must be in (0, 1]"),
    ("listmle-linear", "--min-leaf", "0", "min leaf docs must be >= 1"),
    ("listmle-linear", "--bins", "1", "histogram bins must be 0 (exact) or >= 2"),
    ("plrank", "--iterations", "-5", "iteration cap must be >= 1"),
    ("mart1", "--iterations", "0", "iteration cap must be >= 1"),
])
def test_exit_code_flag_the_loss_does_not_read(tmp_path, train_file, capsys, loss, flag,
                                               value, message):
    """Each of these was once ignored by the loss, which then exited 0."""
    model = tmp_path / "model.txt"
    assert run(["train", "--train", train_file, "--loss", loss, "--trees", "1", flag, value,
                "--out", str(model)]) == 3
    assert message in capsys.readouterr().err
    assert not model.exists()


def test_exit_code_linear_init_model(tmp_path, train_file, capsys):
    linear = tmp_path / "linear.txt"
    linear.write_text("linear M=3\nw[1]=0.5\nw[2]=0.0\nw[3]=0.0\n")
    assert run(["train", "--train", train_file, "--trees", "1", "--init-model", str(linear),
                "--out", str(tmp_path / "model.txt")]) == 3
    assert "--init-model must be a tree ensemble file" in capsys.readouterr().err


def test_exit_code_nonpositive_cutoff(tmp_path, train_file, capsys):
    assert run(["evaluate", "--data", train_file, "--scores", str(tmp_path / "s.txt"),
                "--ndcg", "10,0"]) == 2
    assert "cutoffs must be positive" in capsys.readouterr().err


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a letor line\n")
    model = tmp_path / "model.txt"
    assert run(["train", "--train", str(bad), "--out", str(model)]) == 3
    assert "error:" in capsys.readouterr().err


def test_exit_code_single_doc_queries(tmp_path, capsys):
    data = tmp_path / "single.txt"
    data.write_text("1 qid:1 1:1.0\n0 qid:2 1:0.5\n")
    model = tmp_path / "model.txt"
    assert run(["train", "--train", str(data), "--loss", "plrank",
                "--out", str(model)]) == 3
    capsys.readouterr()


NEGATIVE_QID = "2 qid:-5 1:1.0 2:0.5\n0 qid:-5 1:0.0 2:0.25\n1 qid:3 1:0.5\n0 qid:3 2:1.0\n"


@pytest.mark.parametrize("loss", ["plrank", "listmle-linear"])
@pytest.mark.parametrize("negative, flags, message", [
    (True, [], "error: qid:-5 is negative"),
    (False, ["--seed", "-1"], "error: seed must be >= 0, got -1"),
])
def test_exit_code_negative_seed_or_query_id(tmp_path, train_file, capsys, loss, negative,
                                             flags, message):
    data = tmp_path / "negative.txt"
    data.write_text(NEGATIVE_QID)
    argv = ["train", "--train", str(data) if negative else train_file, "--loss", loss,
            "--trees", "1", *flags, "--out", str(tmp_path / "model.txt")]
    assert run(argv) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("loss", ["mart1", "mart2", "cmart1"])
def test_exit_code_negative_seed_for_a_loss_that_does_not_sample(tmp_path, train_file,
                                                                  capsys, loss):
    """These losses read no seed, and once exited 0 where plrank exits 3."""
    model = tmp_path / "model.txt"
    assert run(["train", "--train", train_file, "--loss", loss, "--trees", "1",
                "--seed", "-1", "--out", str(model)]) == 3
    assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("text", ["1 qid:1\n0 qid:1\n", "1 qid:1 1:1\n0 qid:1\n"],
                         ids=["featureless", "one-feature"])
def test_linear_fit_checks_the_seed_whatever_the_width(tmp_path, capsys, text):
    """Data listing no feature once saved empty weights with exit 0."""
    data, model = tmp_path / "train.txt", tmp_path / "model.txt"
    data.write_text(text)
    argv = ["train", "--train", str(data), "--loss", "listmle-linear", "--out", str(model)]
    assert run([*argv, "--seed", "-1"]) == 3
    assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not model.exists()
    assert run(argv) == 0


def test_evaluate_gmax_past_the_float_range(tmp_path, train_file, capsys):
    """2.0 ** 1024 once ended the command with an OverflowError traceback."""
    scores = tmp_path / "scores.txt"
    scores.write_text("".join(f"{i % 5}\n" for i in range(load_dataset(train_file).num_documents)))
    assert run(["evaluate", "--data", train_file, "--scores", str(scores), "--gmax", "1024",
                "--err", "--format", "kv"]) == 0
    kv = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert 0.0 < float(kv["err"]) < 1e-300


def test_negative_query_ids_predict_and_evaluate(tmp_path, train_file, capsys):
    data = tmp_path / "negative.txt"
    data.write_text(NEGATIVE_QID)
    model, scores = tmp_path / "model.txt", tmp_path / "scores.txt"
    assert run(["train", "--train", train_file, "--trees", "2", "--leaves", "2",
                "--out", str(model)]) == 0
    assert run(["predict", "--model", str(model), "--data", str(data),
                "--out", str(scores)]) == 0
    assert len(scores.read_text().splitlines()) == 4
    assert run(["evaluate", "--data", str(data), "--scores", str(scores)]) == 0
    assert "NDCG@10" in capsys.readouterr().out


def test_exit_code_missing_file(tmp_path, capsys):
    assert run(["train", "--train", str(tmp_path / "absent.txt"),
                "--out", str(tmp_path / "m.txt")]) == 4
    capsys.readouterr()


def test_exit_code_score_count_mismatch(tmp_path, train_file, capsys):
    scores = tmp_path / "scores.txt"
    scores.write_text("1.0\n2.0\n")
    assert run(["evaluate", "--data", train_file, "--scores", str(scores)]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_exit_code_non_finite_score(tmp_path, train_file, capsys, text):
    lines = ["0.5"] * len(Path(train_file).read_text().splitlines())
    lines[3] = text
    scores = tmp_path / "scores.txt"
    scores.write_text("\n".join(lines) + "\n")
    assert run(["evaluate", "--data", train_file, "--scores", str(scores)]) == 3
    assert "line 4" in capsys.readouterr().err


def test_score_file_blank_lines_skipped(tmp_path, train_file, capsys):
    count = len(Path(train_file).read_text().splitlines())
    plain, blank = tmp_path / "plain.txt", tmp_path / "blank.txt"
    plain.write_text("".join(f"{i / count}\n" for i in range(count)))
    blank.write_text("\n" + "".join(f"{i / count}\n\n" for i in range(count)))
    assert run(["evaluate", "--data", train_file, "--scores", str(plain)]) == 0
    expected = capsys.readouterr().out
    assert run(["evaluate", "--data", train_file, "--scores", str(blank)]) == 0
    assert capsys.readouterr().out == expected


def test_exit_code_unreadable_score(tmp_path, train_file, capsys):
    lines = ["0.5"] * len(Path(train_file).read_text().splitlines())
    lines[2] = "abc"
    scores = tmp_path / "scores.txt"
    scores.write_text("\n".join(lines) + "\n")
    assert run(["evaluate", "--data", train_file, "--scores", str(scores)]) == 3
    assert "line 3: bad score 'abc'" in capsys.readouterr().err


# The first lines of a score file, and the error evaluate names for them; None
# where it reads them. The rest of the file is one bare score a document.
@pytest.mark.parametrize("head, message", [
    # float reads "1_0" as 10.0 and "\u0663" as 3.0.
    ("\u20030.25\n0.5\n1_0\n", "line 3: bad score '1_0'"),
    ("\u20030.25\n0.5\n\u0663\n", "line 3: bad score '\u0663'"),
    ("\u20030.25\n0.5\n0.\uff15\n", "line 3: bad score '0.\uff15'"),
    ("\u20030.25\n0.5\n1 2\n", "line 3: bad score '1 2'"),
    ("\u20030.25\n0.5\nabc\n", "line 3: bad score 'abc'"),
    ("\u20030.25\n0.5\ninf\n", "line 3: non-finite score 'inf'"),
    ("\u20030.25\n0.5\n-inf\n", "line 3: non-finite score '-inf'"),
    ("\u20030.25\n0.5\nnan\n", "line 3: non-finite score 'nan'"),
    ("\u20030.25\n0.5\n1e999\n", "line 3: non-finite score '1e999'"),
    ("\u20030.25\n0.5\n\x1c0.5\x1c\n", None),
    ("\u20030.25\n0.5\n\u30000.5\u3000\n", None),
    ("0.5\n1_0\n", "line 2: bad score '1_0'"),
    ("0.5\n-inf\n", "line 2: non-finite score '-inf'"),
    ("1 2\n\n", "line 1: bad score '1 2'"),
    ("0.5\x1c\n\u20030.25\n", None),
], ids=["underscore", "arabic-indic-digit", "fullwidth-digit", "two-tokens", "letters", "inf",
        "-inf", "nan", "overflow", "x1c-padded", "ideographic-space-padded", "line2-underscore",
        "line2-inf", "two-tokens-then-blank", "x1c-then-em-space"])
def test_exit_code_score_line(tmp_path, train_file, capsys, head, message):
    """A bad or non-finite score exits 3 naming its line; a score padded with
    whitespace that ``str.strip`` removes reads as the bare score."""
    count = len(Path(train_file).read_text().splitlines())
    lines = [line.strip() for line in head.split("\n") if line.strip()]
    scores, plain = tmp_path / "scores.txt", tmp_path / "plain.txt"
    scores.write_text(head + "0.5\n" * (count - len(lines)), encoding="utf-8")
    code = run(["evaluate", "--data", train_file, "--scores", str(scores)])
    out, err = capsys.readouterr()
    if message is not None:
        assert code == 3 and f"{message}\n" in err
        return
    assert code == 0 and err == ""
    plain.write_text("\n".join(lines) + "\n" + "0.5\n" * (count - len(lines)))
    assert run(["evaluate", "--data", train_file, "--scores", str(plain)]) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("flag", ["--train", "--data", "--scores", "--model"])
def test_exit_code_bytes_not_utf8(tmp_path, train_file, capsys, flag):
    model, scores = tmp_path / "model.txt", tmp_path / "scores.txt"
    assert run(["train", "--train", train_file, "--trees", "2", "--leaves", "2",
                "--out", str(model)]) == 0
    assert run(["predict", "--model", str(model), "--data", train_file,
                "--out", str(scores)]) == 0
    capsys.readouterr()
    source = {"--scores": scores, "--model": model}.get(flag, Path(train_file))
    bad = tmp_path / "bad.txt"
    bad.write_bytes(source.read_bytes().replace(b"\n", b"\xff\n", 1))
    argv = {
        "--train": ["train", "--train", str(bad), "--out", str(tmp_path / "m2.txt")],
        "--data": ["predict", "--model", str(model), "--data", str(bad),
                   "--out", str(tmp_path / "s2.txt")],
        "--scores": ["evaluate", "--data", train_file, "--scores", str(bad)],
        "--model": ["predict", "--model", str(bad), "--data", train_file,
                    "--out", str(tmp_path / "s2.txt")],
    }[flag]
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert "line 1: " in err and "not UTF-8" in err


@pytest.mark.parametrize("index", [10**15, 10**30])
def test_exit_code_unallocatable_feature_table(tmp_path, capsys, index):
    data = tmp_path / "wide.txt"
    data.write_text(f"1 qid:1 {index}:0.5\n0 qid:1 1:0.25\n")
    assert run(["train", "--train", str(data), "--out", str(tmp_path / "m.txt")]) == 3
    assert f"2 documents x {index} features" in capsys.readouterr().err


@pytest.mark.parametrize("node", ["f=0 t=0.5", "f=999 t=0.5", "f=1 t=nan"])
def test_exit_code_bad_model_node(tmp_path, train_file, capsys, node):
    model = tmp_path / "model.txt"
    model.write_text(
        "plrank-model v1\nloss=plrank\nalpha=0.1\ntopk=10\nfeatures=3\n"
        f"init=0.0\ntrees=1\ntree 0 nodes=3\nN 0 {node} l=1 r=2\n"
        "L 1 v=1.0 n=1\nL 2 v=-1.0 n=1\nend\n"
    )
    assert run(["predict", "--model", str(model), "--data", train_file,
                "--out", str(tmp_path / "scores.txt")]) == 3
    assert "line 9" in capsys.readouterr().err


HUGE = 10**20  # past int64, and too wide for any table


@pytest.mark.parametrize("text, field", [
    (one_leaf_model(3, count=HUGE - 1), f"n={HUGE - 1}"),
    ("plrank-model v1\nloss=plrank\nalpha=0.1\ntopk=10\nfeatures=" f"{HUGE}\ninit=0.0\n"
     f"trees=1\ntree 0 nodes=3\nN 0 f={HUGE - 1} t=0.5 l=1 r=2\n"
     "L 1 v=1.0 n=1\nL 2 v=-1.0 n=1\nend\n", f"f={HUGE - 1}"),
], ids=["count", "feature"])
def test_exit_code_model_integer_past_int64(tmp_path, train_file, capsys, text, field):
    """Both once exited 1 with an OverflowError traceback."""
    model = tmp_path / "model.txt"
    model.write_text(text)
    assert run(["predict", "--model", str(model), "--data", train_file,
                "--out", str(tmp_path / "scores.txt")]) == 3
    assert f"line 9: {field} is past the 64-bit integer range" in capsys.readouterr().err


@pytest.mark.parametrize("strict", [False, True])
def test_wide_model_header_scores_at_the_width_the_model_reads(tmp_path, train_file, strict):
    """Rows were once padded to the header's width, which no table can hold."""
    model, scores = tmp_path / "wide.txt", tmp_path / "scores.txt"
    model.write_text(one_leaf_model(HUGE))
    assert run(["predict", *["--strict"] * strict, "--model", str(model),
                "--data", train_file, "--out", str(scores)]) == 0
    assert {float(v) for v in scores.read_text().split()} == {0.1 * 0.5}


def test_warm_start_from_a_wide_header_keeps_its_width(tmp_path, train_file, capsys):
    """The rows are as wide as the data and the warm start's splits; the
    saved header still covers the warm start's declared features."""
    width = load_dataset(train_file).max_feature_index
    saved = []
    for features in (width, HUGE):
        init, out = tmp_path / f"init{features}.txt", tmp_path / f"out{features}.txt"
        init.write_text(one_leaf_model(features))
        assert run(["train", "--train", train_file, "--trees", "3", "--leaves", "4",
                    "--init-model", str(init), "--out", str(out)]) == 0
        saved.append(out.read_text())
    capsys.readouterr()
    assert f"\nfeatures={HUGE}\n" in saved[1]
    assert saved[1].replace(f"features={HUGE}", f"features={width}") == saved[0]


@pytest.mark.parametrize("loss", ["plrank", "listmle-linear"])
def test_exit_code_objective_count_past_allocation(tmp_path, train_file, capsys, loss):
    """It once exited 1 with numpy's ValueError from sampling the orders."""
    assert run(["train", "--train", train_file, "--loss", loss, "--trees", "1",
                "--objectives", str(HUGE), "--out", str(tmp_path / "model.txt")]) == 3
    err = capsys.readouterr().err
    assert f"objective count {HUGE}" in err and "cannot be allocated" in err


@pytest.mark.parametrize("alpha, init, line", [
    ("nan", "0.0", 3), ("inf", "0.0", 3), ("0.1", "nan", 6), ("0.1", "inf", 6),
])
def test_exit_code_non_finite_model_header(tmp_path, train_file, capsys, alpha, init, line):
    # A one-leaf model once scored every document nan or inf and exited 0.
    model = tmp_path / "model.txt"
    model.write_text(
        f"plrank-model v1\nloss=plrank\nalpha={alpha}\ntopk=10\nfeatures=3\n"
        f"init={init}\ntrees=1\ntree 0 nodes=1\nL 0 v=0.5 n=3\nend\n"
    )
    assert run(["predict", "--model", str(model), "--data", train_file,
                "--out", str(tmp_path / "scores.txt")]) == 3
    assert f"line {line}: non-finite value" in capsys.readouterr().err


def test_exit_code_negative_model_width(tmp_path, train_file, capsys):
    # This one-leaf model once loaded; predict --strict then refused every data file.
    model = tmp_path / "model.txt"
    model.write_text(
        "plrank-model v1\nloss=plrank\nalpha=0.1\ntopk=10\nfeatures=-1\n"
        "init=0.0\ntrees=1\ntree 0 nodes=1\nL 0 v=0.5 n=3\nend\n"
    )
    assert run(["predict", "--model", str(model), "--data", train_file,
                "--out", str(tmp_path / "scores.txt")]) == 3
    assert "line 5: features must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("weight", ["nan", "inf"])
def test_exit_code_non_finite_linear_weight(tmp_path, train_file, capsys, weight):
    model = tmp_path / "model.txt"
    model.write_text(f"linear M=2\nw[1]={weight}\nw[2]=0.5\n")
    assert run(["predict", "--model", str(model), "--data", train_file,
                "--out", str(tmp_path / "scores.txt")]) == 3
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("loss, nodes", [
    ("plrank", "N 0 f=1 t=0.5 l=1 r=2\nL 1 v=1.0 n=1\nL 1 v=2.0 n=1\nL 2 v=-1.0 n=1"),
    ("plrank", "N 0 f=1 t=0.5 l=1 r=2\nL 1 v=1.0 n=1\nL 2 v=-1.0 n=1\nL 3 v=0.0 n=1"),
    ("plrank", "N 0 f=1 t=0.5 l=2 r=1\nL 1 v=1.0 n=1\nL 2 v=-1.0 n=1"),
    ("bogus", "N 0 f=1 t=0.5 l=1 r=2\nL 1 v=1.0 n=1\nL 2 v=-1.0 n=1"),
], ids=["duplicate", "unreachable", "not-preorder", "unknown-loss"])
def test_exit_code_malformed_model_structure(tmp_path, train_file, capsys, loss, nodes):
    model = tmp_path / "model.txt"
    model.write_text(
        f"plrank-model v1\nloss={loss}\nalpha=0.1\ntopk=10\nfeatures=3\ninit=0.0\n"
        f"trees=1\ntree 0 nodes={nodes.count(chr(10)) + 1}\n{nodes}\nend\n"
    )
    assert run(["predict", "--model", str(model), "--data", train_file,
                "--out", str(tmp_path / "scores.txt")]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("low, high", [("1e+308", "1.7e+308"),
                                       ("-924.4724690594363", "-924.4724690594362")])
def test_train_between_extreme_neighbours_writes_loadable_model(tmp_path, capsys, low, high):
    # The split midpoint once overflowed to t=inf (or landed on the upper
    # value), which the model reader then refused.
    data = tmp_path / "train.txt"
    data.write_text(f"0 qid:1 1:{low}\n0 qid:1 1:{low}\n1 qid:1 1:{high}\n"
                    f"1 qid:1 1:{high}\n")
    model = tmp_path / "model.txt"
    assert run(["train", "--train", str(data), "--trees", "1", "--leaves", "2",
                "--loss", "mart2", "--out", str(model)]) == 0
    assert f"t={float(low)!r}" in model.read_text()
    assert run(["predict", "--model", str(model), "--data", str(data),
                "--out", str(tmp_path / "scores.txt")]) == 0
    capsys.readouterr()


def test_trees_flag_controls_model_size(tmp_path, train_file):
    model = tmp_path / "model.txt"
    run(["train", "--train", train_file, "--trees", "1", "--out", str(model)])
    assert "trees=1\n" in model.read_text()


def test_defaults_match_published_setup(tmp_path, train_file):
    model = tmp_path / "model.txt"
    run(["train", "--train", train_file, "--trees", "1", "--out", str(model)])
    text = model.read_text()
    assert "alpha=0.1\n" in text
    assert "topk=10\n" in text


def test_empty_ensemble_predicts_zero(tmp_path, train_file, capsys):
    model = tmp_path / "empty.txt"
    model.write_text(
        "plrank-model v1\nloss=plrank\nalpha=0.1\ntopk=10\nfeatures=3\n"
        "init=0.0\ntrees=0\nend\n"
    )
    scores = tmp_path / "scores.txt"
    assert run(["predict", "--model", str(model), "--data", train_file,
                "--out", str(scores)]) == 0
    values = [float(v) for v in scores.read_text().split()]
    assert values == [0.0] * len(values)
    capsys.readouterr()


def test_predict_identical_lines_identical_scores(tmp_path):
    data = tmp_path / "dup.txt"
    data.write_text(letor_text(
        [(1, [(1, {1: 0.25, 2: -1.0}), (1, {1: 0.25, 2: -1.0}), (0, {1: 0.9})])]
    ))
    model = tmp_path / "model.txt"
    run(["train", "--train", str(data), "--trees", "5", "--leaves", "2",
         "--out", str(model)])
    scores = tmp_path / "scores.txt"
    run(["predict", "--model", str(model), "--data", str(data),
         "--out", str(scores)])
    lines = scores.read_text().splitlines()
    assert lines[0] == lines[1]


def test_predict_strict_rejects_unknown_features(tmp_path, train_file, capsys):
    model = tmp_path / "model.txt"
    run(["train", "--train", train_file, "--trees", "2", "--out", str(model)])
    wide = tmp_path / "wide.txt"
    wide.write_text("1 qid:1 99:1.0\n0 qid:1 1:0.5\n")
    scores = tmp_path / "scores.txt"
    assert run(["predict", "--model", str(model), "--data", str(wide),
                "--out", str(scores)]) == 0
    assert run(["predict", "--model", str(model), "--data", str(wide),
                "--strict", "--out", str(scores)]) == 3
    capsys.readouterr()


def test_predict_scores_align_with_file_order(tmp_path):
    # interleaved qid blocks: scores still come back in line order
    data = tmp_path / "interleaved.txt"
    data.write_text(
        "1 qid:1 1:1.0\n1 qid:2 1:1.0\n0 qid:1 1:0.0\n0 qid:2 1:0.0\n"
    )
    model = tmp_path / "model.txt"
    run(["train", "--train", str(data), "--trees", "10", "--leaves", "2",
         "--out", str(model)])
    scores = tmp_path / "scores.txt"
    run(["predict", "--model", str(model), "--data", str(data),
         "--out", str(scores)])
    values = [float(v) for v in scores.read_text().split()]
    assert values[0] > values[2]
    assert values[1] > values[3]
    assert values[0] == values[1] and values[2] == values[3]


def test_train_linear_loss(tmp_path, train_file, capsys):
    model = tmp_path / "linear.txt"
    assert run(["train", "--train", train_file, "--loss", "listmle-linear",
                "--iterations", "50", "--out", str(model)]) == 0
    assert model.read_text().startswith("linear M=")
    scores = tmp_path / "scores.txt"
    assert run(["predict", "--model", str(model), "--data", train_file,
                "--out", str(scores)]) == 0
    capsys.readouterr()


def test_train_with_validation_trace(tmp_path, train_file, capsys):
    model = tmp_path / "model.txt"
    assert run(["train", "--train", train_file, "--valid", train_file,
                "--trees", "3", "--out", str(model)]) == 0
    out = capsys.readouterr().out
    assert "valid_ndcg@10=" in out


@pytest.mark.parametrize("threads", ["0", "-3", "two"])
@pytest.mark.parametrize("command", ["train", "predict"])
def test_exit_code_bad_threads(tmp_path, train_file, capsys, command, threads):
    model = tmp_path / "model.txt"
    argv = {
        "train": ["train", "--train", train_file, "--trees", "1", "--out", str(model)],
        "predict": ["predict", "--model", str(model), "--data", train_file,
                    "--out", str(tmp_path / "scores.txt")],
    }
    assert run(argv["train"]) == 0
    assert run(argv[command] + ["--threads", threads]) == 2
    assert "--threads" in capsys.readouterr().err


def test_threads_env_is_ignored(tmp_path, train_file, monkeypatch, capsys):
    # PLRANK_THREADS once set the default of --threads; nothing reads it now.
    outputs = []
    for env in (None, "3"):
        if env is not None:
            monkeypatch.setenv("PLRANK_THREADS", env)
        model = tmp_path / f"model-{env}.txt"
        assert run(["train", "--train", train_file, "--trees", "2", "--seed", "4",
                    "--out", str(model)]) == 0
        outputs.append((model.read_bytes(), capsys.readouterr().out))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("flag", ["--valid", "--init-model"])
def test_exit_code_linear_train_refuses_tree_flags(tmp_path, train_file, capsys, flag):
    # Both flags were once ignored, even when their files did not exist.
    model = tmp_path / "linear.txt"
    assert run(["train", "--train", train_file, "--loss", "listmle-linear",
                flag, str(tmp_path / "missing.txt"), "--out", str(model)]) == 3
    assert f"{flag} applies only to tree losses" in capsys.readouterr().err
    assert not model.exists()


def test_exit_code_linear_train_on_overflowing_features(tmp_path, capsys, recwarn):
    # Squares of 1e300 overflow the curvature; the fit once warned and saved zero weights.
    data = tmp_path / "huge.txt"
    data.write_text("2 qid:1 1:1e300 2:1\n1 qid:1 1:2e300 2:0\n0 qid:1 1:1 2:3\n"
                    "1 qid:2 1:5e299 2:1\n0 qid:2 1:1 2:2\n")
    model = tmp_path / "linear.txt"
    assert run(["train", "--train", str(data), "--loss", "listmle-linear",
                "--out", str(model)]) == 3
    assert "feature values overflow the fit" in capsys.readouterr().err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not model.exists()


def test_evaluate_degenerate_only_dataset(tmp_path, capsys):
    data = tmp_path / "zeros.txt"
    data.write_text("0 qid:1 1:0.5\n0 qid:1 1:0.2\n0 qid:2 1:0.1\n")
    scores = tmp_path / "scores.txt"
    scores.write_text("1.0\n0.5\n0.25\n")
    assert run(["evaluate", "--data", str(data), "--scores", str(scores),
                "--ndcg", "1", "--format", "kv"]) == 0
    kv = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert float(kv["ndcg@1"]) == 0.0
    assert int(kv["degenerate"]) == 2
    assert int(kv["queries"]) == 2


def test_train_binned_mode(tmp_path, train_file, capsys):
    model = tmp_path / "model.txt"
    assert run(["train", "--train", train_file, "--trees", "5", "--bins", "64",
                "--out", str(model)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("bins", ["0", "16"])
def test_train_on_a_column_whose_range_exceeds_dbl_max(tmp_path, bins, capsys):
    # max - min of this column overflows a double, which once crashed --bins.
    data = tmp_path / "wide.txt"
    data.write_text("0 qid:1 1:-1e308\n0 qid:1 1:-1e307\n2 qid:1 1:1e307\n2 qid:1 1:1e308\n")
    model = tmp_path / "model.txt"
    assert run(["train", "--train", str(data), "--trees", "2", "--bins", bins,
                "--out", str(model)]) == 0
    capsys.readouterr()
    root = plrank.load_model(str(model)).trees[0].root
    assert root.feature == 0 and -1e307 <= root.threshold < 1e307


def test_train_with_init_model(tmp_path, train_file, capsys):
    first = tmp_path / "first.txt"
    run(["train", "--train", train_file, "--trees", "3", "--out", str(first)])
    resumed = tmp_path / "resumed.txt"
    assert run(["train", "--train", train_file, "--trees", "2",
                "--init-model", str(first), "--out", str(resumed)]) == 0
    full = tmp_path / "full.txt"
    run(["train", "--train", train_file, "--trees", "5", "--out", str(full)])
    assert resumed.read_bytes() == full.read_bytes()
    capsys.readouterr()


def test_closed_standard_output_ends_no_command(tmp_path, train_file, capsys):
    """A reader that closes stdout early (``plrank train ... | head -1``) ends no command."""
    env = {**os.environ, "PYTHONPATH": str(Path(plrank.__file__).resolve().parents[1])}

    def to_closed_pipe(*argv):
        read, write = os.pipe()
        os.close(read)
        try:
            return subprocess.run([sys.executable, "-m", "plrank", *argv], stdout=write,
                                  stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        finally:
            os.close(write)

    flags = ["train", "--train", train_file, "--trees", "5", "--leaves", "4", "--out"]
    scores = str(tmp_path / "scores.txt")
    assert run([*flags, str(tmp_path / "whole.txt")]) == 0
    assert run(["predict", "--model", str(tmp_path / "whole.txt"), "--data", train_file,
                "--out", scores]) == 0
    done = to_closed_pipe(*flags, str(tmp_path / "cut.txt"))
    assert (done.returncode, done.stderr) == (0, "")
    assert (tmp_path / "cut.txt").read_bytes() == (tmp_path / "whole.txt").read_bytes()
    done = to_closed_pipe("evaluate", "--data", train_file, "--scores", scores)
    assert (done.returncode, done.stderr) == (0, "")


# Bytes a command may write before its next write to a regular file fails
# with EFBIG (a file size limit on that process alone).
WRITE_LIMIT = 100


@pytest.mark.skipif(sys.platform == "win32", reason="needs POSIX resource limits")
@pytest.mark.parametrize("command", ["train", "predict"])
def test_a_failed_write_leaves_the_old_file(tmp_path, train_file, command):
    """A write that fails part-way exits 4 and leaves the file it was to
    replace byte for byte, and no new file beside it. It once left the
    first 100 bytes of a warm start's own model in place of the model."""
    model, scores = tmp_path / "model.txt", tmp_path / "scores.txt"
    assert run(["train", "--train", train_file, "--trees", "3", "--leaves", "4",
                "--out", str(model)]) == 0
    assert run(["predict", "--model", str(model), "--data", train_file,
                "--out", str(scores)]) == 0
    if command == "train":
        argv, target = ["train", "--train", train_file, "--trees", "3", "--leaves", "4",
                        "--init-model", str(model), "--out", str(model)], model
    else:
        argv, target = ["predict", "--model", str(model), "--data", train_file,
                        "--out", str(scores)], scores
    old = target.read_bytes()
    assert len(old) > WRITE_LIMIT
    listing = sorted(tmp_path.iterdir())
    script = (
        "import resource, signal, sys\n"
        "from plrank.cli import main\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        f"resource.setrlimit(resource.RLIMIT_FSIZE, ({WRITE_LIMIT}, {WRITE_LIMIT}))\n"
        f"sys.exit(main({argv!r}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(plrank.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 4, done.stderr
    assert "i/o error:" in done.stderr
    assert target.read_bytes() == old
    assert sorted(tmp_path.iterdir()) == listing


def test_an_output_replaces_the_target_of_a_link_and_keeps_its_mode(tmp_path, train_file):
    model, link = tmp_path / "model.txt", tmp_path / "link.txt"
    model.write_text("old\n")
    model.chmod(0o640)
    link.symlink_to(model.name)
    assert run(["train", "--train", train_file, "--trees", "2", "--leaves", "4",
                "--out", str(link)]) == 0
    assert link.is_symlink() and model.read_text().startswith("plrank-model v1\n")
    assert model.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "model.txt", "train.txt"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_an_output_that_is_a_stream_is_written_directly(tmp_path, train_file):
    """A FIFO is written as it is, not replaced by a regular file."""
    model, fifo = tmp_path / "model.txt", tmp_path / "scores.fifo"
    assert run(["train", "--train", train_file, "--trees", "2", "--leaves", "4",
                "--out", str(model)]) == 0
    os.mkfifo(fifo)
    with subprocess.Popen(["cat", str(fifo)], stdout=subprocess.PIPE) as reader:
        try:
            assert run(["predict", "--model", str(model), "--data", train_file,
                        "--out", str(fifo)]) == 0
            out = reader.communicate(timeout=30)[0]
        finally:
            reader.kill()  # still waiting for a writer if the FIFO was replaced
    assert len(out.splitlines()) == load_dataset(train_file).num_documents
    assert fifo.is_fifo()


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_a_model_written_to_standard_output_follows_the_iteration_lines(train_file):
    """``--out /dev/stdout`` writes the model into the pipe, as ``open`` would."""
    env = {**os.environ, "PYTHONPATH": str(Path(plrank.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-m", "plrank", "train", "--train", train_file,
                           "--trees", "2", "--leaves", "4", "--out", "/dev/stdout"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert lines[0].startswith("iter=1 ") and lines[2] == "plrank-model v1"


def python_with_plrank(script):
    """Stdout of ``script`` run by a fresh interpreter that imports this plrank."""
    env = {**os.environ, "PYTHONPATH": str(Path(plrank.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("module", ["plrank", "plrank.cli"])
def test_import_leaves_scipy_out(module):
    assert python_with_plrank(f"import sys, {module}; print('scipy' in sys.modules)") == "False\n"


def test_no_command_imports_scipy(tmp_path, train_file):
    """Tree train, linear train, predict and evaluate all run without scipy."""
    model, scores = tmp_path / "model.txt", tmp_path / "scores.txt"
    commands = [
        ["train", "--train", train_file, "--trees", "2", "--out", str(model)],
        ["predict", "--model", str(model), "--data", train_file, "--out", str(scores)],
        ["evaluate", "--data", train_file, "--scores", str(scores)],
        ["train", "--train", train_file, "--loss", "listmle-linear",
         "--iterations", "2", "--out", str(tmp_path / "linear.txt")],
    ]
    out = python_with_plrank(
        "import contextlib, io, sys\n"
        "from plrank.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    print(argv[0], code, 'scipy' in sys.modules)\n"
    )
    assert out.splitlines() == [
        "train 0 False", "predict 0 False", "evaluate 0 False", "train 0 False",
    ]


def test_allocator_policy_is_set_once_by_main_and_not_on_import(tmp_path, train_file):
    """A stand-in libc records mallopt calls: none on import, one policy per process."""
    model = tmp_path / "model.txt"
    script = f"""
import ctypes
calls = []
class Libc:
    def __init__(self, name):
        self.mallopt = lambda param, value: calls.append((param, value)) or 1
ctypes.CDLL = Libc
import plrank, plrank.cli
print(calls)
argv = ["train", "--train", {train_file!r}, "--trees", "1", "--out", {str(model)!r}]
assert plrank.cli.main(argv) == 0 and plrank.cli.main(argv) == 0
print(calls)
"""
    lines = python_with_plrank(script).splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == f"[(-3, {64 << 20}), (-1, {256 << 20})]"


def test_allocator_policy_does_nothing_without_mallopt(monkeypatch, tmp_path, train_file):
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    cli._set_allocator_policy.cache_clear()
    try:
        assert run(["train", "--train", train_file, "--trees", "1",
                    "--out", str(tmp_path / "model.txt")]) == 0
    finally:
        cli._set_allocator_policy.cache_clear()


# The mutation guard: valid input files with one to three byte edits, under
# odd flag values. Each data line lists one feature, indexed 1-3, with a
# one-decimal value, so no three edits make a feature index past four digits
# or a table past a few MB.
_FUZZ_DATA = "".join(
    f"{grade} qid:{qid} {doc % 3 + 1}:{(3 * qid + 7 * doc) % 10 / 10}\n"
    for qid in (1, 2, 3, 4) for doc, grade in enumerate((2, 0, 1, 0, 1))
)
_EDIT_BYTES = b"0123456789.-+e:= \n\r\tqidLNfvtnrlw[]_x\xff"
# Each flag's (valid, odd) values. --trees and --iterations are always given,
# and no value is large enough to make a run slow.
_FLAGS = {
    "--trees": (["1", "3"], ["0", "-1", "x", "1e1"]),
    "--iterations": (["3"], ["0", "-4", "2.5"]),
    "--loss": (["plrank", "mart1", "mart2", "cmart1", "listmle-linear"], ["bogus"]),
    "--leaves": (["2", "4", str(HUGE)], ["1", "0", "x"]),
    "--lr": (["0.3", "1", "1e-300"], ["0", "-1", "nan", "inf", "1.5"]),
    "--topk": (["3", str(HUGE)], ["0", "-2"]),
    "--objectives": (["1", "2"], ["0", "-5", str(HUGE)]),
    "--seed": (["0", "7", str(HUGE)], ["-1"]),
    "--min-leaf": (["1", "50", str(HUGE)], ["0"]),
    "--bins": (["0", "2", "16", str(HUGE)], ["1", "-3"]),
    "--threads": (["1", "2"], ["0", "x"]),
    "--ndcg": (["1,3,10", "5", "1,,2", str(HUGE)], ["0", "a"]),
    "--gmax": (["1", "1024"], ["0", "-1", "x"]),
    "--degenerate": (["zero", "one", "skip"], ["bad"]),
    "--format": (["text", "kv"], ["json"]),
}
_OPTIONAL = {
    "train": ["--loss", "--leaves", "--lr", "--topk", "--objectives", "--seed", "--min-leaf",
              "--bins", "--threads"],
    "predict": ["--threads"],
    "evaluate": ["--ndcg", "--gmax", "--degenerate", "--format"],
}


@functools.cache
def _fuzz_inputs():
    """The valid files the guard mutates: data, a tree model, a linear model
    and the tree model's scores."""
    dataset = plrank.parse_dataset(_FUZZ_DATA)
    ensemble, _ = train(dataset, TrainConfig(trees=2, leaves=3))
    scores = predict_ensemble_matrix(ensemble, dense_features(dataset, 3))
    return {
        "data": _FUZZ_DATA.encode(),
        "model": dumps_ensemble(ensemble).encode(),
        "linear": dumps_linear(plrank.train_linear(dataset, iterations=3)).encode(),
        "scores": "".join(f"{s:.17g}\n" for s in scores.tolist()).encode(),
    }


@st.composite
def mutated_commands(draw):
    """(argv, files): a command line naming files by key, and each file's
    bytes, one of the files the command reads edited."""
    command = draw(st.sampled_from(["train", "predict", "evaluate"]))
    if command == "train":
        argv = ["train", "--train", "data", "--trees", "", "--iterations", ""]
        argv += draw(st.sampled_from([[], ["--valid", "data"], ["--init-model", "model"],
                                      ["--init-model", "linear"]]))
    elif command == "predict":
        argv = ["predict", "--model", draw(st.sampled_from(["model", "linear"])),
                "--data", "data", *draw(st.sampled_from([[], ["--strict"]]))]
    else:
        argv = ["evaluate", "--data", "data", "--scores", "scores",
                *draw(st.sampled_from([[], ["--err"]]))]
    for flag in _OPTIONAL[command]:
        if draw(st.booleans()):
            argv += [flag, ""]
    # At most one flag takes an odd value, so runs that pass every check are drawn too.
    flags = [arg for arg in argv if arg in _FLAGS]
    odd = draw(st.sampled_from([None, *flags]))
    for i, flag in enumerate(argv[:-1]):
        if flag in _FLAGS:
            argv[i + 1] = draw(st.sampled_from(_FLAGS[flag][flag == odd]))
    if command != "evaluate":
        argv += ["--out", "out"]
    files = dict(_fuzz_inputs())
    name = draw(st.sampled_from(sorted(set(argv) & set(files))))
    text = bytearray(files[name])
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        byte = draw(st.sampled_from(_EDIT_BYTES))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert":
            text.insert(at, byte)
        elif at < len(text):
            text[at : at + 1] = b"" if edit == "delete" else bytes([byte])
    files[name] = bytes(text)
    return argv, files


@settings(max_examples=300, deadline=None)
@given(case=mutated_commands())
def test_mutated_inputs_end_with_a_documented_exit_code(case):
    """Exit 0, 2, 3 or 4 and no exception; after exit 0 the model written
    loads and the scores written are finite, one a document."""
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name) for name in [*files, "out"]}
        for name, text in files.items():
            with open(paths[name], "wb") as fh:
                fh.write(text)
        code = main([paths.get(arg, arg) for arg in argv])
        assert code in (0, 2, 3, 4)
        if code == 0 and argv[0] == "train":
            plrank.load_model(paths["out"])
        elif code == 0 and argv[0] == "predict":
            scores = cli._load_scores(paths["out"])
            assert scores.size == load_dataset(paths["data"]).num_documents
            assert np.isfinite(scores).all()

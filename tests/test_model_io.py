import tracemalloc
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plrank import LinearModel, TrainConfig, train
from plrank import model_io
from plrank.errors import ParseError, ValidationError
from plrank.model_io import (
    dumps_ensemble,
    dumps_linear,
    load_model,
    parse_ensemble,
    parse_linear,
    save_model,
)
from plrank.tree import Ensemble

import model_reference as ref
from helpers import one_leaf_model, separable_dataset
from tree_reference import build_tree, predict_ensemble_row


def trained_ensemble():
    ds = separable_dataset(n_queries=5, n_docs=8)
    ensemble, _ = train(
        ds, TrainConfig(loss="plrank", trees=4, leaves=4, seed=1)
    )
    return ensemble


def test_ensemble_round_trip_bytes():
    ensemble = trained_ensemble()
    text = dumps_ensemble(ensemble)
    again = dumps_ensemble(parse_ensemble(text))
    assert again == text


def test_round_trip_preserves_predictions():
    ensemble = trained_ensemble()
    restored = parse_ensemble(dumps_ensemble(ensemble))
    rng = np.random.default_rng(0)
    for _ in range(20):
        row = rng.uniform(-1, 1, ensemble.num_features)
        assert predict_ensemble_row(restored, row) == predict_ensemble_row(ensemble, row)


def test_empty_ensemble_round_trip():
    empty = Ensemble(trees=[], learning_rate=0.05, init_score=1.25,
                     loss="mart2", top_k=3, num_features=7)
    restored = parse_ensemble(dumps_ensemble(empty))
    assert restored == empty


def test_version_mismatch_rejected():
    with pytest.raises(ValidationError):
        parse_ensemble("plrank-model v999\nend\n")
    with pytest.raises(ValidationError):
        parse_ensemble("")


def test_truncated_model_rejected():
    text = dumps_ensemble(trained_ensemble())
    broken = "\n".join(text.splitlines()[:-3]) + "\n"
    with pytest.raises(ParseError):
        parse_ensemble(broken)


def test_garbled_node_rejected():
    text = dumps_ensemble(trained_ensemble())
    lines = text.splitlines()
    idx = next(i for i, l in enumerate(lines) if l.startswith("L "))
    lines[idx] = "L broken"
    with pytest.raises(ParseError):
        parse_ensemble("\n".join(lines))


def test_linear_round_trip():
    model = LinearModel(weights=np.array([0.5, -1.25, 3.0e-7]))
    text = dumps_linear(model)
    assert text.splitlines()[0] == "linear M=3"
    restored = parse_linear(text)
    assert restored.weights.tolist() == model.weights.tolist()
    assert dumps_linear(restored) == text


def test_linear_bad_counts_rejected():
    with pytest.raises(ParseError):
        parse_linear("linear M=2\nw[1]=0.5\n")
    with pytest.raises(ValidationError):
        parse_linear("weights 3\n")


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_non_finite_linear_weight_rejected(text):
    with pytest.raises(ValidationError, match="line 3"):
        parse_linear(f"linear M=2\nw[1]=0.5\nw[2]={text}\n")


def test_unreadable_linear_weight_rejected():
    with pytest.raises(ParseError, match="line 2"):
        parse_linear("linear M=1\nw[1]=0.5x\n")


@pytest.mark.parametrize("text, line, expected", [
    ("linear M=1\nw[1]=+1.5\n", 2, "'w[1]=1.5'"),
    ("linear M=2\nw[1]=0.5\nw[2]=1e0\n", 3, "'w[2]=1.0'"),
    ("linear M=1\nw[1]=1_0\n", 2, "'w[1]=10.0'"),
    ("linear M=1\nw[\u0661]=0.5\n", 2, "'w[1]=0.5'"),
    ("linear M=01\nw[1]=0.5\n", 1, "'linear M=1'"),
    ("linear M=1\r\nw[1]=0.5\r\n", 1, "'linear M=1'"),
    ("linear M=1\nw[1]=0.5", 3, "a final line break"),
], ids=["plus-sign", "exponent", "underscore", "arabic-indic-digit", "leading-zero",
        "crlf", "no-final-newline"])
def test_non_canonical_linear_file_rejected(text, line, expected):
    """Each of these once loaded, and saving the model back changed the bytes."""
    with pytest.raises(ValidationError) as info:
        parse_linear(text)
    assert str(info.value) == f"line {line}: not in canonical linear form: expected {expected}"
    assert info.value.line == line


def test_load_model_dispatches_on_header(tmp_path):
    epath = tmp_path / "e.model"
    save_model(trained_ensemble(), str(epath))
    assert isinstance(load_model(str(epath)), Ensemble)
    lpath = tmp_path / "l.model"
    save_model(LinearModel(weights=np.array([1.0])), str(lpath))
    assert isinstance(load_model(str(lpath)), LinearModel)


def one_split_model(feature="1", threshold="0.5", value="0.25", features=3,
                    alpha="0.1", init="0.0"):
    return (
        f"plrank-model v1\nloss=plrank\nalpha={alpha}\ntopk=10\nfeatures={features}\n"
        f"init={init}\ntrees=1\ntree 0 nodes=3\nN 0 f={feature} t={threshold} l=1 r=2\n"
        f"L 1 v={value} n=3\nL 2 v=-0.5 n=7\nend\n"
    )


def test_one_split_model_parses():
    tree = parse_ensemble(one_split_model()).trees[0]
    assert (tree.root.feature, tree.root.threshold) == (0, 0.5)


@pytest.mark.parametrize("feature", ["0", "4", "999"])
def test_feature_index_outside_header_rejected(feature):
    # f=0 once became column -1 and routed on the last column.
    with pytest.raises(ValidationError, match="line 9"):
        parse_ensemble(one_split_model(feature=feature))


@pytest.mark.parametrize("field", ["threshold", "value"])
@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_non_finite_node_numbers_rejected(field, text):
    with pytest.raises(ValidationError, match="non-finite"):
        parse_ensemble(one_split_model(**{field: text}))


@pytest.mark.parametrize("key, line", [("alpha", 3), ("init", 6)])
@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_non_finite_header_numbers_rejected(key, line, text):
    # repr writes nan and inf back as read, so the canonical check let them in.
    with pytest.raises(ValidationError, match=f"line {line}: non-finite value") as info:
        parse_ensemble(one_split_model(**{key: text}))
    assert info.value.line == line


HUGE = 10**20  # past int64, and too wide for any table


@pytest.mark.parametrize("text, line, field", [
    (one_split_model(feature=str(HUGE - 1), features=HUGE), 9, f"f={HUGE - 1}"),
    (one_split_model().replace("n=3", f"n={HUGE}"), 10, f"n={HUGE}"),
], ids=["feature", "count"])
def test_node_integer_past_int64_rejected(text, line, field):
    """Each once escaped as an OverflowError from building the tree."""
    with pytest.raises(ValidationError, match=f"line {line}: {field} is past") as info:
        parse_ensemble(text)
    assert info.value.line == line


def test_wide_header_loads_and_scoring_needs_only_the_split_columns():
    ensemble = parse_ensemble(one_split_model(feature="2", features=HUGE))
    assert (ensemble.num_features, ensemble.split_width) == (HUGE, 2)
    assert parse_ensemble(one_leaf_model(HUGE)).split_width == 0


def test_unreadable_node_number_rejected():
    with pytest.raises(ParseError):
        parse_ensemble(one_split_model(threshold="0.5x"))


def tree_model(*nodes, loss="plrank", topk=10, features=3):
    return (
        f"plrank-model v1\nloss={loss}\nalpha=0.1\ntopk={topk}\nfeatures={features}\ninit=0.0\n"
        f"trees=1\ntree 0 nodes={len(nodes)}\n" + "".join(f"{n}\n" for n in nodes) + "end\n"
    )


@pytest.mark.parametrize("nodes, message", [
    # a duplicate id whose children both still exist: ids are not read, so
    # the fourth line is one node too many
    (["N 0 f=1 t=0.5 l=1 r=2", "L 1 v=0.25 n=3", "L 1 v=0.5 n=3", "L 2 v=-0.5 n=7"],
     "node 3 is unreachable"),
    # an unreachable node, once counted as a third leaf
    (["N 0 f=1 t=0.5 l=1 r=2", "L 1 v=0.25 n=3", "L 2 v=-0.5 n=7", "L 3 v=1.0 n=1"],
     "node 3 is unreachable"),
    # children out of preorder, once renumbered on save: the saved form of the
    # loaded tree writes the derived children
    (["N 0 f=1 t=0.5 l=2 r=1", "L 1 v=0.25 n=3", "L 2 v=-0.5 n=7"],
     "not in canonical v1 form: expected 'N 0 f=1 t=0.5 l=1 r=2'"),
    (["N 0 f=1 t=0.5 l=1 r=4", "N 1 f=2 t=0.0 l=2 r=4", "L 2 v=1.0 n=1", "L 3 v=2.0 n=1",
      "L 4 v=3.0 n=1"], "not in canonical v1 form: expected 'N 1 f=2 t=0.0 l=2 r=3'"),
    (["N 0 f=1 t=0.5 l=1 r=3", "L 1 v=0.25 n=3", "L 2 v=-0.5 n=7"],
     "not in canonical v1 form: expected 'N 0 f=1 t=0.5 l=1 r=2'"),
    # a split whose children the block does not hold
    (["N 0 f=1 t=0.5 l=1 r=2", "L 1 v=0.25 n=3"], "before every split has both children"),
    ([], "before every split has both children"),
])
def test_non_preorder_tree_rejected(nodes, message):
    with pytest.raises(ValidationError, match=message):
        parse_ensemble(tree_model(*nodes))


@pytest.mark.parametrize("nodes, line", [
    (["N 0 f=1 t=0.5 l=1 r=2", "L 1 v=0.25 n=3", "L 2 v=-0.5 n=7", "L 3 v=1.0 n=1"], 8),
    (["N 0 f=1 t=0.5 l=1 r=2", "L 1 v=0.25 n=3"], 8),
])
def test_tree_shape_error_names_the_tree_line(nodes, line):
    with pytest.raises(ValidationError) as info:
        parse_ensemble(tree_model(*nodes))
    assert info.value.line == line
    assert str(info.value).startswith(f"line {line}: ")


def test_unknown_loss_rejected():
    good = ["N 0 f=1 t=0.5 l=1 r=2", "L 1 v=0.25 n=3", "L 2 v=-0.5 n=7"]
    parse_ensemble(tree_model(*good, loss="mart2"))
    with pytest.raises(ValidationError, match="unknown loss 'bogus'"):
        parse_ensemble(tree_model(*good, loss="bogus"))


@pytest.mark.parametrize("fields, message", [
    ({"loss": "foo"}, "unknown loss 'foo'"),
    ({"top_k": 0}, "topk must be >= 1, got 0"),
    ({"top_k": 2.5}, "topk must be an integer, got 2.5"),
    ({"top_k": True}, "topk must be an integer, got True"),
    ({"num_features": -1}, "features must be >= 0, got -1"),
    ({"learning_rate": float("nan")}, "alpha must be finite, got nan"),
    ({"init_score": float("inf")}, "init must be finite, got inf"),
    ({"init_score": float("-inf")}, "init must be finite, got -inf"),
], ids=["loss", "topk-0", "topk-2.5", "topk-True", "features", "alpha-nan", "init-inf",
        "init--inf"])
def test_ensemble_rejects_a_header_no_model_file_holds(fields, message):
    # Each of these once built and saved a file that did not load.
    with pytest.raises(ValidationError) as info:
        Ensemble(**fields)
    assert str(info.value) == message
    Ensemble(top_k=np.int64(3), num_features=np.int64(0))


def test_feature_count_defaults_to_the_highest_split():
    stump = build_tree((2, 0.5, 1.0, -1.0))
    assert Ensemble().num_features == 0
    assert Ensemble(trees=[build_tree(0.5)]).num_features == 0
    ensemble = Ensemble(trees=[build_tree(0.5), stump])
    assert ensemble.num_features == 3
    assert parse_ensemble(dumps_ensemble(ensemble)) == ensemble
    assert Ensemble(trees=[stump], num_features=5).num_features == 5


@pytest.mark.parametrize("features, node, index", [(0, 0, 1), (1, 2, 3), (2, 2, 3)])
def test_split_past_the_feature_count_rejected(features, node, index):
    # These once built and saved a file that load rejected.
    trees = [build_tree(0.5), build_tree((0, 0.0, 1.0, (2, 0.5, 1.0, -1.0)))]
    with pytest.raises(ValidationError) as info:
        Ensemble(trees=trees, num_features=features)
    assert str(info.value) == f"tree 1 node {node}: feature index {index} outside 1..{features}"


def test_unknown_loss_names_its_header_line():
    with pytest.raises(ValidationError, match="^line 2: unknown loss 'bogus'$") as info:
        parse_ensemble(tree_model("L 0 v=0.5 n=3", loss="bogus"))
    assert info.value.line == 2


@pytest.mark.parametrize("key, text, line", [
    ("topk", "0", 4), ("topk", "-5", 4), ("features", "-1", 5),
])
def test_header_count_below_floor_rejected(key, text, line):
    # Saving an empty Ensemble() writes features=0, so 0 stays valid.
    parse_ensemble(tree_model("L 0 v=0.5 n=3", topk=1, features=0))
    with pytest.raises(ValidationError, match=f"line {line}: {key} must be >= ") as info:
        parse_ensemble(tree_model("L 0 v=0.5 n=3", **{key: text}))
    assert info.value.line == line


@pytest.mark.parametrize("edit", [
    lambda t: t.replace("t=0.5", "t=0.50"),
    lambda t: t.replace("n=3", "n=03"),
    lambda t: t.replace("alpha=0.1\n", "alpha=0.1\nextra=1\n"),
    lambda t: t.replace("topk=10\nfeatures=3\n", "features=3\ntopk=10\n"),
    lambda t: t.replace("\n", "\r\n"),
    lambda t: t + "trailing\n",
    lambda t: t[:-1],
])
def test_non_canonical_spelling_rejected(edit):
    text = one_split_model()
    assert dumps_ensemble(parse_ensemble(text)) == text
    with pytest.raises(ValidationError, match="canonical"):
        parse_ensemble(edit(text))


def test_crlf_model_file_rejected_on_load(tmp_path):
    path = tmp_path / "m.txt"
    path.write_bytes(one_split_model().replace("\n", "\r\n").encode())
    with pytest.raises(ValidationError, match="canonical"):
        load_model(str(path))


FINITE = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1.7e308]), st.floats(allow_nan=False,
                                                                         allow_infinity=False))
LEAF = st.tuples(FINITE, st.integers(0, 10**6))


@st.composite
def ensembles(draw):
    features = draw(st.integers(1, 5))
    specs = st.recursive(
        LEAF,
        lambda kids: st.tuples(st.integers(0, features - 1), FINITE, kids, kids),
        max_leaves=10,
    )
    return Ensemble(
        trees=[build_tree(spec) for spec in draw(st.lists(specs, max_size=4))],
        learning_rate=draw(FINITE),
        init_score=draw(FINITE),
        loss=draw(st.sampled_from(["plrank", "mart1", "mart2", "cmart1"])),
        top_k=draw(st.integers(1, 100)),
        num_features=features,
    )


@settings(max_examples=200, deadline=None)
@given(ensembles(), st.data())
def test_round_trip_property(ensemble, data):
    """Every table survives save -> load, and every file the reader accepts,
    a one-line edit of a saved file included, is what saving it writes."""
    text = dumps_ensemble(ensemble)
    assert parse_ensemble(text) == ensemble
    lines = text.split("\n")
    i = data.draw(st.integers(0, len(lines) - 1))
    lines[i] = data.draw(st.one_of(
        st.sampled_from(lines),
        st.text(alphabet="LN 0123456789.-+eftlrvn=", max_size=30),
    ))
    edited = "\n".join(lines)
    try:
        loaded = parse_ensemble(edited)
    except (ParseError, ValidationError):
        return
    assert dumps_ensemble(loaded) == edited


def _outcome(parse, text):
    """What ``parse(text)`` returns, or the class, line and message it raises."""
    try:
        return parse(text)
    except (ParseError, ValidationError) as exc:
        return type(exc), exc.line, str(exc)


def _parse_counting_refusals(text):
    """``parse_ensemble(text)``, and whether the block reader turned the file down."""
    read_blocks, refused = model_io._read_blocks, []

    def spy(text):
        ensemble = read_blocks(text)
        refused.append(ensemble is None)
        return ensemble

    with mock.patch.object(model_io, "_read_blocks", spy):
        return parse_ensemble(text), refused == [True]


# Characters an edit draws: the node syntax, whitespace and line breaks that
# split() or splitlines() see, and a digit that int() and float() read.
EDIT_CHARS = "LN 0123456789.-+eftlrvn=_x\t\r\n\x0b١"
BLOCKS = st.sampled_from([1, 4, 1 << 11])


def edited_line(line: str, lines: list[str]):
    """Another line of the file, random text, or ``line`` with a few characters changed."""
    splice = st.tuples(st.integers(0, len(line)), st.integers(0, 2),
                       st.text(alphabet=EDIT_CHARS, max_size=2))
    return st.one_of(
        st.sampled_from(lines),
        st.text(alphabet=EDIT_CHARS, max_size=30),
        splice.map(lambda s: line[:s[0]] + s[2] + line[s[0] + s[1]:]),
    )


@settings(max_examples=400, deadline=None)
@given(ensembles(), st.data(), BLOCKS)
def test_reader_matches_the_reference_reader(ensemble, data, block):
    """A saved file is read a run of trees at a time; a one-line edit of it
    gives what the reference reader gives: an equal ensemble, or the same
    error class, line and message."""
    text = dumps_ensemble(ensemble)
    lines = text.split("\n")
    i = data.draw(st.integers(0, len(lines) - 1))
    lines[i] = data.draw(edited_line(lines[i], lines))
    edited = "\n".join(lines)
    with mock.patch.object(model_io, "_BLOCK_LINES", block):
        assert _parse_counting_refusals(text) == (ensemble, False)
        assert _outcome(parse_ensemble, edited) == _outcome(ref.parse_ensemble, edited)


def two_tree_model(first=("L 1 v=0.25 n=3", "L 2 v=-0.5 n=7"),
                   second=("L 1 v=1.5 n=2", "L 2 v=-2.0 n=4"), second_head="tree 1 nodes=3"):
    return (
        "plrank-model v1\nloss=plrank\nalpha=0.1\ntopk=10\nfeatures=3\ninit=0.0\ntrees=2\n"
        "tree 0 nodes=3\nN 0 f=1 t=0.5 l=1 r=2\n" + "".join(f"{n}\n" for n in first)
        + f"{second_head}\nN 0 f=2 t=1.5 l=1 r=2\n" + "".join(f"{n}\n" for n in second)
        + "end\n"
    )


@pytest.mark.parametrize("text, error, line, message", [
    # the first error in file order wins over a later tree's bad header
    (two_tree_model(first=("L 1 v=0.2x n=3", "L 2 v=-0.5 n=7"), second_head="tree 7 nodes=3"),
     ParseError, 10, "bad number '0.2x'"),
    # a malformed node wins over a later spelling that is only not canonical
    (two_tree_model(first=("L 1 v=0.25 n=3", "L 2 v=-0.5 n=x"),
                    second=("L 1 v=1.5 n=2", "L 2 v=-2.00 n=4")),
     ParseError, 11, "bad node record 'L 2 v=-0.5 n=x'"),
    (two_tree_model(second=("L 1 v=1.5 n=2", "L 2 v=-2.00 n=4")),
     ValidationError, 15, "not in canonical v1 form: expected 'L 2 v=-2.0 n=4'"),
], ids=["bad-number-before-bad-tree-line", "bad-node-before-spelling", "spelling"])
def test_first_error_in_file_order_is_named(text, error, line, message):
    parse_ensemble(two_tree_model())
    expected = (error, line, f"line {line}: {message}")
    assert _outcome(parse_ensemble, text) == _outcome(ref.parse_ensemble, text) == expected


@pytest.mark.parametrize("garbled", [False, True], ids=["saved", "long-line"])
def test_load_peak_memory_is_a_small_multiple_of_the_file(tmp_path, garbled):
    """Node lines are split a run of trees at a time, never the whole file at
    once, and a line longer than any saved one is not split at all."""
    rng = np.random.default_rng(5)
    trees = []
    for _ in range(300):
        spec = float(rng.normal())
        for feature, threshold in zip(rng.integers(0, 40, 15).tolist(), rng.random(15).tolist()):
            spec = (feature, threshold, (float(rng.normal()), int(rng.integers(1, 99))), spec)
        trees.append(build_tree(spec))
    path = tmp_path / "m.txt"
    text = dumps_ensemble(Ensemble(trees=trees, num_features=40))
    if garbled:  # one node line of 300,000 two-digit tokens
        text = text.replace("\nL 15 ", "\nL 15 " + "00 " * 300_000, 1)
    path.write_text(text)
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) if garbled else nullcontext():
            load_model(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * len(text), f"peak {peak / len(text):.1f}x the {len(text)}-byte file"


@pytest.mark.parametrize("old, new", [
    ("L 1 v=0.25 n=3", "Lx 1 v=0.25 n=3"),
    ("N 0 f=2", "Nx 0 f=2"),
    ("L 1 v=0.25 n=3", "L 01 v=0.25 n=3"),
    ("N 0 f=1 t=0.5 l=1 r=2", "N 0 f=1 t=0.5 l=2 r=2"),
    ("N 0 f=1 t=0.5 l=1 r=2", "N 0 f=1 t=0.5 l=1 r=3"),
    ("N 0 f=1", "N 0 f=4"),
    ("N 0 f=1", "N 0 f=0"),
    ("N 0 f=1", "N 0 f=01"),
    ("L 1 v=0.25 n=3", "L 1 n=3 v=0.25"),
    ("L 1 v=0.25 n=3", "L 1 v=0.25 n=3 x"),
    # the same tokens over the same number of lines, one line starting mid-row
    ("L 1 v=0.25 n=3\nL 2 v=-0.5 n=7", "L 1 v=0.25\nn=3 L 2 v=-0.5 n=7"),
    ("L 1 v=0.25 n=3", "L 1 v=0.25  n=3"),
    ("L 1 v=0.25 n=3", "L 1 v=0.25\tn=3"),
    ("L 1 v=0.25 n=3", "L 1 v=0.25 n=3\r"),
    ("L 1 v=0.25 n=3", "L 1 v=0.25 n=-3"),
    ("L 1 v=0.25 n=3", "L 1 v=nan n=3"),
    ("L 1 v=0.25 n=3", "L 1 v=1e400 n=3"),
    ("L 1 v=0.25 n=3", "L 1 v=0.25 n=99999999999999999999"),
    ("N 0 f=2 t=1.5 l=1 r=2", "N 0 f=2 t=1.5 l=1"),
    ("tree 1 nodes=3", "tree 1 nodes=-1"),
    ("tree 1 nodes=3", "tree 1 nodes=9"),
    ("tree 1 nodes=3", "tree 1 nodes=03"),
    # f=0 would make the split row a leaf of the form saving writes
    *[("tree 0 nodes=3\nN 0 f=1 t=0.5 l=1 r=2\nL 1 v=0.25 n=3\nL 2 v=-0.5 n=7",
       f"tree 0 nodes=1\nN 0 f=0 t=0.0 l=1 r={right}") for right in (-1, 1, 3)],
    ("trees=2", "trees=-1"),
    ("features=3", "features=03"),
    ("end\n", "end\n\n"),
])
def test_each_token_is_checked_against_its_saved_form(old, new):
    """Each edit is refused by the block reader and named as the reference
    reader names it."""
    text = two_tree_model()
    assert old in text
    edited = text.replace(old, new, 1)
    assert model_io._read_blocks(edited) is None
    outcome = _outcome(parse_ensemble, edited)
    assert isinstance(outcome, tuple) and outcome == _outcome(ref.parse_ensemble, edited)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plrank import LinearModel, TrainConfig, train
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

from helpers import separable_dataset
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


def test_unreadable_node_number_rejected():
    with pytest.raises(ParseError):
        parse_ensemble(one_split_model(threshold="0.5x"))


def tree_model(*nodes, loss="plrank", topk=10, features=3):
    return (
        f"plrank-model v1\nloss={loss}\nalpha=0.1\ntopk={topk}\nfeatures={features}\ninit=0.0\n"
        f"trees=1\ntree 0 nodes={len(nodes)}\n" + "".join(f"{n}\n" for n in nodes) + "end\n"
    )


@pytest.mark.parametrize("nodes, message", [
    # a duplicate id whose children both still exist
    (["N 0 f=1 t=0.5 l=1 r=2", "L 1 v=0.25 n=3", "L 1 v=0.5 n=3", "L 2 v=-0.5 n=7"],
     "node id 1 where preorder numbering expects 2"),
    # an unreachable node, once counted as a third leaf
    (["N 0 f=1 t=0.5 l=1 r=2", "L 1 v=0.25 n=3", "L 2 v=-0.5 n=7", "L 3 v=1.0 n=1"],
     "node 3 is unreachable"),
    # ids out of preorder, once renumbered on save
    (["N 0 f=1 t=0.5 l=2 r=1", "L 1 v=0.25 n=3", "L 2 v=-0.5 n=7"],
     "node 0 has left child 2"),
    (["N 0 f=1 t=0.5 l=1 r=4", "N 1 f=2 t=0.0 l=2 r=4", "L 2 v=1.0 n=1", "L 3 v=2.0 n=1",
      "L 4 v=3.0 n=1"], "node 1 has right child 4; preorder puts it at 3"),
    (["N 0 f=1 t=0.5 l=1 r=3", "L 1 v=0.25 n=3", "L 2 v=-0.5 n=7"],
     "node 0 has right child 3; preorder puts it at 2"),
    # a split whose children the block does not hold
    (["N 0 f=1 t=0.5 l=1 r=2", "L 1 v=0.25 n=3"], "before every split has both children"),
    ([], "before every split has both children"),
])
def test_non_preorder_tree_rejected(nodes, message):
    with pytest.raises(ValidationError, match=message):
        parse_ensemble(tree_model(*nodes))


def test_unknown_loss_rejected():
    good = ["N 0 f=1 t=0.5 l=1 r=2", "L 1 v=0.25 n=3", "L 2 v=-0.5 n=7"]
    parse_ensemble(tree_model(*good, loss="mart2"))
    with pytest.raises(ValidationError, match="unknown loss 'bogus'"):
        parse_ensemble(tree_model(*good, loss="bogus"))


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

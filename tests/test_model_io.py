import numpy as np
import pytest

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
from plrank.tree import Ensemble, predict_ensemble

from helpers import separable_dataset


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
        assert predict_ensemble(restored, row) == predict_ensemble(ensemble, row)


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


def test_load_model_dispatches_on_header(tmp_path):
    epath = tmp_path / "e.model"
    save_model(trained_ensemble(), str(epath))
    assert isinstance(load_model(str(epath)), Ensemble)
    lpath = tmp_path / "l.model"
    save_model(LinearModel(weights=np.array([1.0])), str(lpath))
    assert isinstance(load_model(str(lpath)), LinearModel)


def one_split_model(feature="1", threshold="0.5", value="0.25", features=3):
    return (
        f"plrank-model v1\nloss=plrank\nalpha=0.1\ntopk=10\nfeatures={features}\n"
        f"init=0.0\ntrees=1\ntree 0 nodes=3\nN 0 f={feature} t={threshold} l=1 r=2\n"
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


def test_unreadable_node_number_rejected():
    with pytest.raises(ParseError):
        parse_ensemble(one_split_model(threshold="0.5x"))

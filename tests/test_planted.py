"""A planted-model check of the paper's claim: on data whose relevance no
linear score can represent, boosted Plackett-Luce trees rank held-out queries
nearly as well as the planted utility, and far better than linear ListMLE.

Each query has 20 documents of 5 features drawn uniformly from [-1, 1]. The
planted utility is ``2 * sign(x1 * x2) + [x3 > 0.5]``: an XOR of the first two
features, which no linear score separates, plus a step. Grades come from one
Plackett-Luce draw per query (Gumbel noise added to the utility): the first 3
documents drawn get grade 2, the next 5 grade 1, the rest 0.
"""

import numpy as np
import pytest

from plrank import (TrainConfig, dense_features, evaluate, predict_ensemble_matrix, train,
                    train_linear)

from helpers import make_dataset

QUERIES, DOCS, FEATURES = 150, 20, 5
# Held-out NDCG@10 margins, set with slack from the measured spread. On seeds
# 1-10 of this module plrank led linear ListMLE by 0.256-0.345, trailed the
# planted utility by at most 0.043, and --bins 16 was within 0.036 of exact
# mode; five splits drawn otherwise gave 0.228, 0.073 and 0.068.
LINEAR_MARGIN = 0.18  # plrank at least this far above linear ListMLE
UTILITY_GAP = 0.1  # plrank at most this far below the planted utility
BINS_GAP = 0.08  # --bins 16 at most this far from exact mode


def planted_split(rng):
    """(dataset, planted utility per document) of one split."""
    X = rng.uniform(-1.0, 1.0, size=(QUERIES, DOCS, FEATURES))
    utility = 2.0 * np.sign(X[..., 0] * X[..., 1]) + (X[..., 2] > 0.5)
    drawn = np.argsort(-(utility + rng.gumbel(size=utility.shape)), axis=1)
    grades = np.zeros((QUERIES, DOCS), dtype=int)
    np.put_along_axis(grades, drawn[:, :3], 2, axis=1)
    np.put_along_axis(grades, drawn[:, 3:8], 1, axis=1)
    queries = [
        (q + 1, [(int(g), {j + 1: float(v) for j, v in enumerate(row)})
                 for g, row in zip(grades[q], X[q])])
        for q in range(QUERIES)
    ]
    return make_dataset(queries), utility.ravel()


def held_out_ndcg(seed):
    """Held-out NDCG@10 of each model, trained on a split of its own."""
    rng = np.random.default_rng(seed)
    (train_set, _), (test_set, utility) = planted_split(rng), planted_split(rng)
    X = dense_features(test_set, FEATURES)
    scores = {"utility": utility}
    for name, bins in (("plrank", 0), ("bins16", 16)):
        config = TrainConfig(trees=30, leaves=8, objectives=3, histogram_bins=bins)
        scores[name] = predict_ensemble_matrix(train(train_set, config)[0], X)
    linear = train_linear(train_set, objectives=3, iterations=50)
    scores["linear"] = linear.predict_matrix(X)
    return {name: evaluate(test_set, s, [10], include_err=False).ndcg_at[10]
            for name, s in scores.items()}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_plrank_learns_the_planted_utility(seed):
    ndcg = held_out_ndcg(seed)
    assert ndcg["plrank"] >= ndcg["linear"] + LINEAR_MARGIN, ndcg
    assert ndcg["plrank"] >= ndcg["utility"] - UTILITY_GAP, ndcg
    assert abs(ndcg["bins16"] - ndcg["plrank"]) <= BINS_GAP, ndcg

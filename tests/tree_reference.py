"""Reference tree routing: one stack walk per tree over the node views.

This is how ``plrank.tree`` routed rows while trees were ``Leaf``/``Split``
object graphs, before they became preorder tables routed one depth level at
a time across the whole ensemble. It walks ``RegressionTree.root`` and is
kept as the oracle the level-wise path must match bit for bit.

Also here: the recursive-descent oracle for the right children a preorder
table implies, and small helpers only tests use (building a tree from a
nested spec, per-tree and one-row prediction through the library, squared
error).
"""

import numpy as np

from plrank.tree import Leaf, RegressionTree, apply_tree, predict_ensemble_matrix


def reference_apply(tree, X):
    """Leaf position (index among the leaves, in preorder) for every row."""
    X = np.asarray(X, dtype=np.float64)
    out = np.zeros(X.shape[0], dtype=np.intp)
    next_leaf = 0
    stack = [(tree.root, np.arange(X.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if isinstance(node, Leaf):
            out[rows] = next_leaf
            next_leaf += 1
            continue
        mask = X[rows, node.feature] <= node.threshold
        stack.append((node.right, rows[~mask]))
        stack.append((node.left, rows[mask]))
    return out


def reference_predict_tree(tree, row):
    """Output of the leaf one row routes to, walking node by node."""
    node = tree.root
    while not isinstance(node, Leaf):
        node = node.left if float(row[node.feature]) <= node.threshold else node.right
    return node.output


def reference_predict_ensemble_matrix(ensemble, X):
    """Scores accumulated tree by tree, each tree routed by its own walk."""
    X = np.asarray(X, dtype=np.float64)
    scores = np.full(X.shape[0], ensemble.init_score, dtype=np.float64)
    for tree in ensemble.trees:
        scores += ensemble.learning_rate * leaf_outputs(tree)[reference_apply(tree, X)]
    return scores


def leaf_outputs(tree):
    """Leaf outputs in preorder: the order ``apply_tree`` positions index."""
    return tree.value[tree.feature < 0]


def predict_tree_matrix(tree, X):
    return leaf_outputs(tree)[apply_tree(tree, X)]


def predict_tree_row(tree, row):
    """Output of the leaf one row routes to, through ``apply_tree``."""
    return float(predict_tree_matrix(tree, np.reshape(row, (1, -1)))[0])


def predict_ensemble_row(ensemble, row):
    """One row's ensemble score, through ``predict_ensemble_matrix``."""
    return float(predict_ensemble_matrix(ensemble, np.reshape(row, (1, -1)))[0])


def tree_sse(tree, X, y):
    return float(np.sum((np.asarray(y) - predict_tree_matrix(tree, X)) ** 2))


def reference_right(feature):
    """Right children of a preorder table by recursive descent (-1 at leaves).

    A node is a leaf, or a split followed by its left subtree and then its
    right one. Returns None unless the rows are exactly one complete tree.
    """
    right = [-1] * len(feature)

    def subtree_end(i):
        """The row after the subtree rooted at row ``i``, or None past the table."""
        if i >= len(feature):
            return None
        if feature[i] < 0:
            return i + 1
        left_end = subtree_end(i + 1)
        if left_end is None:
            return None
        right[i] = left_end
        return subtree_end(left_end)

    return right if subtree_end(0) == len(feature) else None


def build_tree(spec):
    """A tree from a nested spec, written out in preorder.

    A leaf is ``value`` or ``(value, doc_count)``; an internal node is
    ``(feature, threshold, left_spec, right_spec)`` with a 0-based feature.
    Checks that the tree derives the right children the spec implies.
    """
    feature, threshold, right, value, count = [], [], [], [], []
    stack = [(spec, None)]  # (spec, the row whose right child it is)
    while stack:
        node, parent = stack.pop()
        row = len(feature)
        if parent is not None:
            right[parent] = row
        right.append(-1)
        if isinstance(node, tuple) and len(node) == 4:
            feat, thr, left_spec, right_spec = node
            feature.append(feat)
            threshold.append(thr)
            value.append(0.0)
            count.append(0)
            stack += [(right_spec, row), (left_spec, None)]
        else:
            out, docs = node if isinstance(node, tuple) else (node, 1)
            feature.append(-1)
            threshold.append(0.0)
            value.append(float(out))
            count.append(docs)
    tree = RegressionTree(feature=feature, threshold=threshold, value=value, count=count)
    assert tree.right.tolist() == right == reference_right(feature)
    return tree

"""The public names of ``plrank``: what ``__all__`` lists is what the README lists."""

import re
from pathlib import Path

import pytest

import plrank

README = Path(__file__).resolve().parents[1] / "README.md"

# Second entry points to kernels the library reaches another way; the tests
# keep their own helpers for them (tree_reference, pl_reference).
REMOVED = [
    "PLWorkspace",
    "leaf_newton_value",
    "linear_objective_and_gradient",
    "predict_ensemble",
    "predict_tree",
]


def readme_names():
    """Backticked names in the bullet items of the README's "Library use" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    names, in_item = [], False
    for line in section.split("\n## ", 1)[0].splitlines():
        in_item = line.startswith("- ") or (in_item and line.startswith("  "))
        if in_item:
            names += re.findall(r"`(\w+)`", line)
    return names


def test_every_listed_name_resolves():
    assert [name for name in plrank.__all__ if not hasattr(plrank, name)] == []


def test_all_matches_readme_list():
    names = readme_names()
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(plrank.__all__)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_not_exported(name):
    assert name not in plrank.__all__
    assert not hasattr(plrank, name)

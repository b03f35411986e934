"""The sources stay within the oldest supported Python's grammar."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*ROOT.joinpath("src").rglob("*.py"), *ROOT.joinpath("tests").glob("*.py")])


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    # requires-python is >=3.10; feature_version rejects newer syntax,
    # such as the except* groups of 3.11
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))

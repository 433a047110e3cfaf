"""Static checks over the package source."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "fairflow").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    """Invariants raise errors: `python -O` strips assert statements."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}"

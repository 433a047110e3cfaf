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


def _is_infinity(node):
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name in ("NEG_INF", "POS_INF")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_identity_comparison_with_infinities(path):
    """Copied and unpickled infinities are new objects: compare them with ==."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
        and any(map(_is_infinity, [node.left, *node.comparators]))
    ]
    assert lines == [], f"{path.name} compares an infinity by identity at lines {lines}"

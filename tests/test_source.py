"""Static checks over the package source."""

import ast
import os
import subprocess
import sys
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


def _loads_in_a_fresh_process(module, loaded):
    """Whether a fresh `python -S` that imports `module` has `loaded` in sys.modules."""
    src = Path(__file__).parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-S", "-c", f"import sys, {module}; print({loaded!r} in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout in ("True\n", "False\n"), done.stdout
    return done.stdout == "True\n"


def test_cli_import_does_not_load_typing():
    """Annotations are never evaluated, so a CLI start need not pay for `typing`."""
    assert not _loads_in_a_fresh_process("fairflow.cli", "typing")


@pytest.mark.parametrize("module", ["fairflow", "fairflow.cli"])
def test_import_does_not_load_the_oracle(module):
    """Only the tests and `fairflow oracle` enumerate; other starts skip it."""
    assert not _loads_in_a_fresh_process(module, "fairflow.oracle")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    """The package has no runtime dependencies: each import is relative or stdlib."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = [
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    ] + [
        node.module for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0
    ]
    outside = [name for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == [], f"{path.name} imports {outside} from outside the standard library"

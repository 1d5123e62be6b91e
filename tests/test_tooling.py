"""Source-level checks on the package itself."""

import ast
from pathlib import Path

import dimgroup


def test_no_assert_statements():
    """Every invariant check must survive ``python -O``, which strips
    ``assert``; raise explicitly instead."""
    found = []
    for path in sorted(Path(dimgroup.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []

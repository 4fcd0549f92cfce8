"""Repository-wide checks on the library source."""

import ast
from pathlib import Path

import tropclust

SOURCE = Path(tropclust.__file__).parent


def test_library_has_no_assert_statements():
    """Invariant checks raise InvariantViolation, so they survive ``python -O``."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []

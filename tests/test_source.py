"""Rules on the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import regsep


def test_no_assert_statements():
    # `python -O` strips asserts, so runtime checks must raise explicitly
    found = []
    for path in sorted(Path(regsep.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []

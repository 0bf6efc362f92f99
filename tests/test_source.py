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


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    # `import a.b` binds `a`; `import a.b as c` and `from a import b as c` bind `c`
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def test_no_unused_imports():
    # `__init__.py` imports in order to re-export, so it is not scanned
    found = []
    for path in sorted(Path(regsep.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [
                    f"{path.name}:{node.lineno} {name}"
                    for name in _bound_names(node)
                    if name not in used
                ]
    assert found == []

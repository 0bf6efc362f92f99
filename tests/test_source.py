"""Rules on the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import regsep


def _modules(skip: tuple[str, ...] = ()) -> list[tuple[str, ast.Module]]:
    return [
        (path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        for path in sorted(Path(regsep.__file__).parent.glob("*.py"))
        if path.name not in skip
    ]


def test_no_assert_statements():
    # `python -O` strips asserts, so runtime checks must raise explicitly
    found = []
    for name, tree in _modules():
        found += [
            f"{name}:{node.lineno}"
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
    for name, tree in _modules(skip=("__init__.py",)):
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [
                    f"{name}:{node.lineno} {bound}"
                    for bound in _bound_names(node)
                    if bound not in used
                ]
    assert found == []


def _is_omega(node: ast.expr) -> bool:
    return (isinstance(node, ast.Name) and node.id == "OMEGA") or (
        isinstance(node, ast.Attribute) and node.attr == "OMEGA"
    )


def test_no_identity_tests_against_omega():
    # OMEGA is math.inf, and `OMEGA + 3` is a new float object, so
    # `c is OMEGA` misses coordinates that arithmetic produced; use `==`
    found = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            found += [
                f"{name}:{node.lineno}"
                for op, a, b in zip(node.ops, operands, operands[1:])
                if isinstance(op, (ast.Is, ast.IsNot)) and (_is_omega(a) or _is_omega(b))
            ]
    assert found == []


def test_saturation_never_drops_from_an_antichain():
    # `backward.saturate` answers a repeated offer from memory, which is
    # exact only while `add`'s eviction is the one way an element leaves
    found = []
    for name, tree in _modules():
        if name not in ("backward.py", "automata.py"):
            continue
        found += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "drop"
        ]
    assert found == []


def test_no_comprehension_over_zip():
    # the componentwise order and the firing step live in `ideals.omega_leq`
    # and `ideals.ideal_fire`; a comprehension over `zip` is a second copy
    found = []
    for name, tree in _modules():
        found += [
            f"{name}:{node.iter.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.comprehension)
            and isinstance(node.iter, ast.Call)
            and isinstance(node.iter.func, ast.Name)
            and node.iter.func.id == "zip"
        ]
    assert found == []


def _names_bool(node: ast.AST) -> bool:
    # `isinstance(x, bool)` or `isinstance(x, (..., bool, ...))`
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
    ):
        return False
    kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
    return any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds)


def test_one_count_rule():
    # `bool` is a subclass of `int`, so a count check must rule it out;
    # `config.is_count` is the one predicate that does
    found = []
    for name, tree in _modules():
        owner = _owners(tree)
        found += [
            f"{name}:{owner.get(id(node), '<module>')}"
            for node in ast.walk(tree)
            if _names_bool(node)
        ]
    assert found == ["config.py:is_count"]


def _owners(tree: ast.Module) -> dict[int, str]:
    """The name of the innermost function around each node, by node id."""
    owner = {}
    for func in ast.walk(tree):  # outer functions first, so inner ones win
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((id(node), func.name) for node in ast.walk(func))
    return owner


def test_one_json_reader():
    # every JSON input must go through the repeated-key hook and the one
    # error format, so `config.read_json` is the only caller of `json.load`
    found = []
    for name, tree in _modules():
        owner = _owners(tree)
        found += [
            f"{name}:{owner.get(id(node), '<module>')}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("load", "loads")
            and isinstance(node.value, ast.Name)
            and node.value.id == "json"
        ]
    assert found == ["config.py:read_json"]


def test_generators_import_only_nets_and_errors():
    # the generators draw inputs and decide nothing about them, so
    # `generators.py` takes from the package only the nets and the errors
    [tree] = [tree for name, tree in _modules() if name == "generators.py"]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
    assert sorted(m for m in found if m.startswith((".", "regsep"))) == [".errors", ".petri"]


def test_one_saturation_per_question():
    # the basis, the coverability verdict and the witness each have one
    # saturation; a caller that needs a verdict and a basis asks for both
    found = []
    for name, tree in _modules():
        owner = _owners(tree)
        found += [
            f"{name}:{owner.get(id(node), '<module>')}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and "saturate" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        ]
    assert sorted(found) == [
        "automata.py:net_automaton_intersection_witness",
        "backward.py:coverable",
        "backward.py:prestar_basis",
    ]


def test_only_saturate_computes_the_cover():
    # the cover's limit is its one bound, and `saturate` caps it at the
    # node budget, so no cover in the package runs past the budget
    found = []
    for name, tree in _modules():
        owner = _owners(tree)
        found += [
            f"{name}:{owner.get(id(node), '<module>')}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and "forward_cover" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        ]
    assert found == ["backward.py:saturate"]


# exports that no module of the package uses, each kept for a reason
UNUSED_EXPORTS = {
    "member": "word membership of an automaton; the acceptance gate checks with it",
    "pred_basis": "the predecessor formula in public form, checked against brute force",
}


def _used_names() -> set[str]:
    """Every name and attribute the package reads, `__init__.py` aside."""
    used = set()
    for _, tree in _modules(skip=("__init__.py",)):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_no_dead_exports():
    # a public name that only the tests call is API nobody else needs
    assert sorted(set(regsep.__all__) - _used_names()) == sorted(UNUSED_EXPORTS)


# public methods that no module of the package uses, each kept for a reason
UNUSED_METHODS = {
    "BackwardBound.at_least": "the paper's basis-size bound; the acceptance gate checks it",
    "InvariantCertificate.bound_ideal_count": "the paper's ideal-count bound; the acceptance gate checks it",
}


def test_no_dead_methods():
    # the same rule for the public methods of the package's classes
    used = _used_names()
    found = [
        f"{cls.name}.{func.name}"
        for _, tree in _modules()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for func in cls.body
        if isinstance(func, ast.FunctionDef)
        and not func.name.startswith("_")
        and func.name not in used
    ]
    assert sorted(found) == sorted(UNUSED_METHODS)

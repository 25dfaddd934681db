"""Checks on the package's source text itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "semidegree"


def test_no_assert_statement_in_the_package():
    # python -O strips asserts, so every invariant check in the package
    # must be an explicit raise
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert PACKAGE.is_dir() and not found, f"assert statements in the package: {found}"


def test_no_unused_module_level_import_in_the_package():
    # what a deletion leaves behind: a module-level import that no name in
    # the module reads and that __all__ does not export
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                used.update(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in used:
                        found.append(f"{path.relative_to(PACKAGE)}:{node.lineno} {name}")
    assert PACKAGE.is_dir() and not found, f"unused imports in the package: {found}"


def _is_float(node):
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (float, complex))
    if isinstance(node, ast.Attribute):  # math.inf, math.nan
        return node.attr in ("inf", "nan") and getattr(node.value, "id", None) == "math"
    if isinstance(node, ast.ImportFrom):
        return node.module == "math" and any(alias.name in ("inf", "nan") for alias in node.names)
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float"


def test_no_float_in_the_package():
    # exactness: no float constant, no math.inf or math.nan, and no float()
    # call; isinstance(x, float), which refuses floats, stays allowed
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if _is_float(node)
    ]
    assert PACKAGE.is_dir() and not found, f"floats in the package: {found}"

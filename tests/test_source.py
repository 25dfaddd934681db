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

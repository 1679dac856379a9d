"""Guards on the package source itself."""

import ast
from pathlib import Path

import secretary_lab

PACKAGE_DIR = Path(secretary_lab.__file__).parent


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so every cross-check in the
    # package must raise explicitly to survive it.
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert len(modules) > 1
    offenders = [
        f"{path.relative_to(PACKAGE_DIR)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []

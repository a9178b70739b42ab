"""Checks on the package source itself."""

import ast
from pathlib import Path

SOURCE = Path(__file__).parent.parent / "src" / "crcodes"


def test_no_assert_statement_in_the_package():
    # theorem checks raise TheoremViolationError; `python -O` strips asserts
    files = sorted(SOURCE.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}" for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []

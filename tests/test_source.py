"""Source-level rules of the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mdspline"


def test_no_assert_statements():
    # invariants raise typed errors, so they survive `python -O`
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert sorted(SRC.glob("*.py")) and found == []

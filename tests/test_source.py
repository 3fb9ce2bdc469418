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


def test_kernels_read_the_field_from_their_inputs():
    # a function given arrays or bundles reads the scalar field from them; only
    # those that make scalars from a space or from plain numbers take `field`
    makers = {"make_coefficients", "section_bundle", "rde_build"}
    takers = {node.name
              for name in ("join_core", "rde_core", "legacy", "oracle")
              for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text()))
              if isinstance(node, ast.FunctionDef)
              and "field" in [a.arg for a in node.args.posonlyargs + node.args.args
                              + node.args.kwonlyargs]}
    assert takers == makers

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


def test_cli_output_goes_through_one_writer():
    # only `_write` names sys.stdout, and every print names its stream
    tree = ast.parse((SRC / "cli.py").read_text())
    named = {getattr(top, "name", "<module>") for top in tree.body
             for sub in ast.walk(top)
             if isinstance(sub, ast.Attribute) and sub.attr == "stdout"
             and isinstance(sub.value, ast.Name) and sub.value.id == "sys"}
    prints = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name) and node.func.id == "print"]
    assert named == {"_write"}
    assert prints and all("file" in [k.arg for k in node.keywords] for node in prints)


def test_numbers_from_callers_are_lifted_by_the_field():
    # np.asarray would keep float coefficients as floats in an exact run
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "asarray"]
    assert found == []

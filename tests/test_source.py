"""Static checks over the package source."""

import ast
import pathlib

import cdtm

SRC = pathlib.Path(cdtm.__file__).parent


def test_no_assert_statements_in_package():
    # `assert` is stripped under `python -O`, so control flow and numerical
    # guards in the package must raise explicitly instead.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            "%s:%d" % (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, "assert statements in cdtm: %s" % ", ".join(found)

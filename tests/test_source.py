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


# The modules that may write files: the CLI writes every artifact, and
# corpus and model write the input formats whose readers live beside them.
FILE_WRITERS = {"cli.py", "corpus.py", "model.py"}


def _opens_for_writing(node):
    """Whether node is a call of the builtin open with a mode that writes
    (a computed mode counts as one)."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"):
        return False
    modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
    if not modes:
        return False
    mode = modes[0]
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return any(c in mode.value for c in "wax+")


def test_artifact_files_are_written_only_by_cli_corpus_and_model():
    # Artifact formats live in cli.py; library modules compute, the CLI writes.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name in FILE_WRITERS:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno) for node in ast.walk(tree) if _opens_for_writing(node)]
    assert not found, "open() for writing outside %s: %s" % (sorted(FILE_WRITERS), ", ".join(found))

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


# The one private numpy name cdtm may use: the batched Cholesky gufunc that
# returns a NaN factor instead of raising (see inference._log_newton).  A
# numpy release may move or drop any private name, so each one is listed here.
ALLOWED_PRIVATE_NUMPY = {"numpy.linalg._umath_linalg.cholesky_lo"}


def _numpy_names(tree):
    """(line, dotted name) of every numpy name a module imports, or reads as an attribute chain of a name bound to numpy."""
    bound, found, inner = {}, [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    found.append((node.lineno, alias.name))
                    bound[alias.asname or "numpy"] = alias.name if alias.asname else "numpy"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            found += [(node.lineno, "%s.%s" % (node.module, alias.name)) for alias in node.names]
        elif isinstance(node, ast.Attribute):
            inner.add(id(node.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            chain = []
            while isinstance(node, ast.Attribute):
                chain.insert(0, node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in bound:
                found.append((node.lineno, ".".join([bound[node.id]] + chain)))
    return found


def test_no_private_numpy_names_but_the_cholesky_gufunc():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            "%s:%d %s" % (path.name, line, name)
            for line, name in _numpy_names(tree)
            if name not in ALLOWED_PRIVATE_NUMPY
            and any(part.startswith("_") and not part.endswith("__") for part in name.split("."))
        ]
    assert not found, "private numpy names in cdtm: %s" % ", ".join(found)


# The E-step's sweeps and line search evaluate special functions on gamma
# rows the E-step keeps at or above its positive floor, so they call the
# unchecked kernels of cdtm.specialfn; the public functions check every
# argument on every call.
UNCHECKED_CALLERS = {"_sweep_lda", "_sweep_penalized", "_gamma_step", "_newton_rows", "_Active.phi_and_norm"}
CHECKED_SPECIAL = {"digamma", "log_gamma", "trigamma", "tetragamma"}


def _functions(tree):
    """(name, node) of every module-level function, and of every method as Class.method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield "%s.%s" % (node.name, item.name), item


def _called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_estep_sweeps_call_no_checked_special_function():
    path = SRC / "inference.py"
    functions = dict(_functions(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))))
    assert UNCHECKED_CALLERS <= set(functions)
    found = [
        "%s:%d %s" % (name, node.lineno, _called_name(node))
        for name in sorted(UNCHECKED_CALLERS)
        for node in ast.walk(functions[name])
        if isinstance(node, ast.Call) and _called_name(node) in CHECKED_SPECIAL
    ]
    assert not found, "checked special functions called in the E-step: %s" % ", ".join(found)


# The E-step's sweeps and the special-function kernels run on arrays of a
# few dozen elements, where ndarray .sum/.max/.any and their kin cost more
# in numpy's Python _methods layer than in the reduction itself.  These
# functions call the ufunc reductions (np.add.reduce, np.maximum.reduce,
# ...) directly and test masks with np.count_nonzero; the check also
# refuses numpy's module-level np.sum, np.max, np.any ..., which reach the
# same layer.
UFUNC_REDUCERS = {
    "inference.py": {
        "_sweep_penalized", "_sweep_lda", "_gamma_step", "_newton_rows", "_log_newton", "_grad_hess",
        "_objective", "_Active.phi_and_norm", "_Active.segments", "_phi_rows", "_weights", "_topic_sum",
        "_with_sum", "_subset",
    },
    "specialfn.py": {"_evaluate", "_digamma", "_psi_finish", "_estrin", "_neg_entropy"},
}
METHOD_REDUCTIONS = {"sum", "max", "min", "any", "all", "prod", "amax", "amin"}


def test_estep_sweeps_and_kernels_reduce_with_ufuncs():
    found = []
    for module, names in sorted(UFUNC_REDUCERS.items()):
        path = SRC / module
        functions = dict(_functions(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))))
        assert names <= set(functions), names - set(functions)
        found += [
            "%s %s:%d .%s" % (module, name, node.lineno, node.func.attr)
            for name in sorted(names)
            for node in ast.walk(functions[name])
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in METHOD_REDUCTIONS
        ]
    assert not found, "reductions through numpy's _methods layer: %s" % ", ".join(found)


# count_windows costs numpy calls in proportion to its blocks of interval
# pairs, never to the documents: its one loop statement runs over the pair
# blocks, and the comprehensions that gather the documents' token arrays
# call nothing but len.
WINDOW_COUNTING = ("count_windows", "_window_intervals")


def test_count_windows_has_no_per_document_loop():
    path = SRC / "corpus.py"
    functions = dict(_functions(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))))
    loops, calls = [], []
    for name in WINDOW_COUNTING:
        for node in ast.walk(functions[name]):
            if isinstance(node, (ast.For, ast.While)):
                loops.append((name, node))
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                calls += [
                    "%s:%d %s" % (name, call.lineno, _called_name(call))
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call) and _called_name(call) != "len"
                ]
    assert [name for name, _ in loops] == ["count_windows"], [(n, l.lineno) for n, l in loops]
    (name, loop), = loops
    assert "bounds" in ast.unparse(loop.iter), ast.unparse(loop.iter)
    assert not calls, "calls in comprehensions over the documents: %s" % ", ".join(calls)


# The lam = 0 sweep keeps gamma topic-major, (K, B) like its row arrays, so
# np.add.reduceat's (K, B) column sums are gamma's layout already: no sweep
# transposes them into a (B, K) copy.
LAYOUT_COPIES = {"ascontiguousarray", "_colsums"}


def test_lda_sweep_makes_no_transposed_copy():
    path = SRC / "inference.py"
    functions = dict(_functions(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))))
    found = [
        "_sweep_lda:%d %s" % (node.lineno, _called_name(node))
        for node in ast.walk(functions["_sweep_lda"])
        if isinstance(node, ast.Call) and _called_name(node) in LAYOUT_COPIES
    ]
    assert not found, "layout copies in the lam = 0 sweep: %s" % ", ".join(found)

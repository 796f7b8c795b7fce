"""Span and counter tracing around the calls into each cdtm module.

Nothing here lives inside the library: the tracer replaces module
attributes that callers resolve at call time (``cdtm.inference._psi``,
``cdtm.inference.estep_document``, ``cdtm.evaluate.count_windows`` ...)
with wrappers, and puts the originals back afterwards.  A target is found
by its module and name, then every binding of that same function object in
any ``cdtm`` module is replaced, so a name imported elsewhere is caught too.
A target a later version of the library deletes is reported as absent.

Timed wrappers record one span (name, start, end, parent span, op id) in
memory; the spans are written out once, at the end of the run.  Hot scalar
functions get count-only wrappers that take no timestamps.
"""

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, layer name).  Timed: a span per call.  The calls of
# the first group happen inside the timed operations; build_corpus and
# load_model run at set-up, perplexity in the untimed quality evaluation.
TIMED_IN_OPS = [
    ("cdtm.corpus", "count_windows", "corpus.count_windows"),
    ("cdtm.specialfn", "expected_log_theta", "specialfn.expected_log_theta"),
    ("cdtm.specialfn", "expected_neg_entropy", "specialfn.expected_neg_entropy"),
    ("cdtm.model", "init_model", "model.init_model"),
    ("cdtm.inference", "fit", "inference.fit"),
    ("cdtm.inference", "estep_document", "inference.estep_document"),
    ("cdtm.inference", "update_phi", "inference.update_phi"),
    ("cdtm.inference", "mstep", "inference.mstep"),
    ("cdtm.inference", "penalized_elbo", "inference.penalized_elbo"),
    ("cdtm.inference", "infer_document", "inference.infer_document"),
    ("cdtm.evaluate", "coherence_report", "evaluate.coherence_report"),
    ("cdtm.evaluate", "cv_score", "evaluate.cv_score"),
]
TIMED_OUTSIDE_OPS = [
    ("cdtm.corpus", "build_corpus", "corpus.build_corpus"),
    ("cdtm.model", "load_model", "model.load_model"),
    ("cdtm.inference", "perplexity", "inference.perplexity"),
]
TIMED = TIMED_IN_OPS + TIMED_OUTSIDE_OPS

# Count-only: called too often to timestamp.
COUNTED = [
    ("cdtm.inference", "newton_coordinate_step", "inference.newton_coordinate_step"),
    ("cdtm.inference", "_slow_mode_step", "inference._slow_mode_step"),
    ("cdtm.evaluate", "npmi", "evaluate.npmi"),
]

# Scalar special functions and the public array functions of the same
# family.  Scalars count one evaluation per call; array functions count the
# elements they are passed (and undo the scalar counts they cause inside).
SCALAR = [("_psi", "psi"), ("_psi1", "psi1"), ("_psi2", "psi2"), ("_lgamma", "lgamma")]
ARRAY = [("digamma", "psi"), ("trigamma", "psi1"), ("tetragamma", "psi2"), ("log_gamma", "lgamma")]

def _cdtm_modules():
    return [m for n, m in sorted(sys.modules.items()) if m is not None and (n == "cdtm" or n.startswith("cdtm."))]


class Tracer:
    """Installs wrappers on enter, restores the originals on exit."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []  # (name id, start, end, parent span index, op id)
        self.stack = []
        self.op_id = -1
        self.counts = defaultdict(float)
        self.scalar = {fam: [0] for _, fam in SCALAR}
        self.absent = []
        self._patches = []
        self._installed = False

    # -- installation -----------------------------------------------------

    def _bind(self, module_name, attr, make_wrapper, label):
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None) if module is not None else None
        if not callable(original):
            self.absent.append(label)
            return
        wrapper = make_wrapper(original)
        for mod in _cdtm_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def __enter__(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        self.absent = []
        for module_name, attr, label in TIMED:
            self._bind(module_name, attr, functools.partial(self._timed, label), label)
        for module_name, attr, label in COUNTED:
            self._bind(module_name, attr, functools.partial(self._counted, label), label)
        for attr, fam in SCALAR:
            self._bind("cdtm.specialfn", attr, functools.partial(self._scalar, fam), "specialfn." + attr)
        for attr, fam in ARRAY:
            self._bind("cdtm.specialfn", attr, functools.partial(self._array, fam), "specialfn." + attr)
        self._installed = True
        return self

    def __exit__(self, *exc):
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches = []
        self._installed = False
        return False

    # -- wrappers ---------------------------------------------------------

    def _name_id(self, label):
        if label not in self._name_ids:
            self._name_ids[label] = len(self.names)
            self.names.append(label)
        return self._name_ids[label]

    def _timed(self, label, fn):
        name_id = self._name_id(label)
        observe = _OBSERVERS.get(label)
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.op_id)
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, label, fn):
        observe = _OBSERVERS.get(label)
        counts = self.counts
        key = label + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += 1
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return wrapper

    def _scalar(self, fam, fn):
        cell = self.scalar[fam]

        def wrapper(x):
            cell[0] += 1
            return fn(x)

        return wrapper

    def _array(self, fam, fn):
        cell = self.scalar[fam]

        @functools.wraps(fn)
        def wrapper(x):
            before = cell[0]
            result = fn(x)
            cell[0] = before + int(np.size(x))
            return result

        return wrapper

    # -- results ----------------------------------------------------------

    def snapshot(self):
        """Counts so far: (named counters, scalar evaluations per family)."""
        return dict(self.counts), {fam: cell[0] for fam, cell in self.scalar.items()}

    def reset_counts(self):
        self.counts.clear()
        for cell in self.scalar.values():
            cell[0] = 0

    def span_table(self):
        """Closed spans as parallel arrays, with per-span self time."""
        rows = self.spans
        name = np.array([r[0] for r in rows], dtype=np.int64)
        start = np.array([r[1] for r in rows])
        end = np.array([r[2] for r in rows])
        parent = np.array([r[3] for r in rows], dtype=np.int64)
        op = np.array([r[4] for r in rows], dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {"name": name, "start": start, "end": end, "parent": parent, "op": op,
                "dur": dur, "self": dur - child}

    def write_spans(self, path):
        table = self.span_table()
        np.savez_compressed(path, names=np.array(self.names), **table)


def _obs_estep(counts, args, kwargs, result):
    if isinstance(result, tuple) and len(result) == 2 and not result[1]:
        counts["inference.estep_document.unconverged"] += 1


def _obs_newton(counts, args, kwargs, result):
    if getattr(result, "stepped", False):
        counts["inference.newton_coordinate_step.accepted"] += 1
    if getattr(result, "stalled", False):
        counts["inference.newton_coordinate_step.stalls"] += 1


def _obs_slow_mode(counts, args, kwargs, result):
    if isinstance(result, tuple) and len(result) == 2 and result[1] > 0.0:
        counts["inference._slow_mode_step.moved"] += 1


def _obs_fit(counts, args, kwargs, result):
    counts["inference.fit.em_iterations"] += getattr(result, "iterations_run", 0)


def _obs_count_windows(counts, args, kwargs, result):
    targets = args[2] if len(args) > 2 else kwargs.get("target_words", ())
    counts["corpus.count_windows.targets"] += len(set(int(w) for w in targets))
    counts["corpus.count_windows.windows"] += getattr(result, "total_windows", 0)


_OBSERVERS = {
    "inference.estep_document": _obs_estep,
    "inference.newton_coordinate_step": _obs_newton,
    "inference._slow_mode_step": _obs_slow_mode,
    "inference.fit": _obs_fit,
    "corpus.count_windows": _obs_count_windows,
}


def unit_of(name):
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith(".sweeps_per_call"):
        return "1"
    return "count"


def per_layer_metrics(tracer, counts, n_ops, untraced_op_s, traced_op_s):
    """Per-layer figures from one traced run.

    Inside the timed operations, seconds (".s", ".self_s") and counts are
    totals per operation.  Set-up spans (op id -1) give the median seconds
    of one call, evaluation spans (op id -2) the mean seconds of one call.
    ``untraced_op_s`` and ``traced_op_s`` are the paired operation times:
    the same item run untraced and then traced, one after the other.  All
    seconds here are raw wall seconds, like the spans.
    """
    table = tracer.span_table()
    out = {}
    ids = {label: i for i, label in enumerate(tracer.names)}
    for _, _, label in TIMED_IN_OPS:
        sel = table["name"] == ids.get(label, -1)
        in_ops = sel & (table["op"] >= 0)
        out[label + ".calls"] = float(in_ops.sum()) / n_ops
        out[label + ".s"] = float(table["dur"][in_ops].sum()) / n_ops
        out[label + ".self_s"] = float(table["self"][in_ops].sum()) / n_ops
    for label in ("corpus.build_corpus", "model.load_model"):
        sel = (table["name"] == ids.get(label, -1)) & (table["op"] == -1)
        out[label + ".s"] = float(np.median(table["dur"][sel])) if sel.any() else 0.0
    sel = (table["name"] == ids.get("inference.perplexity", -1)) & (table["op"] == -2)
    out["inference.perplexity.s"] = float(table["dur"][sel].mean()) if sel.any() else 0.0

    named, scalar = counts

    def per_op(key):
        return named.get(key, 0.0) / n_ops

    for _, _, label in COUNTED:
        out[label + ".calls"] = per_op(label + ".calls")
    for _, fam in SCALAR:
        out["specialfn.scalar_evals." + fam] = scalar[fam] / n_ops
    out["inference.fit.em_iterations"] = per_op("inference.fit.em_iterations")
    out["corpus.count_windows.targets"] = per_op("corpus.count_windows.targets")
    out["corpus.count_windows.windows"] = per_op("corpus.count_windows.windows")

    def ratio(num, den):
        return num / den if den else 0.0

    estep_calls = out["inference.estep_document.calls"]
    out["inference.estep_document.unconverged_frac"] = ratio(
        per_op("inference.estep_document.unconverged"), estep_calls)
    out["inference.estep_document.sweeps_per_call"] = ratio(
        out["inference.update_phi.calls"], estep_calls)
    out["inference.newton_coordinate_step.accepted_frac"] = ratio(
        per_op("inference.newton_coordinate_step.accepted"),
        out["inference.newton_coordinate_step.calls"])
    out["inference.newton_coordinate_step.stalls"] = per_op("inference.newton_coordinate_step.stalls")
    out["inference._slow_mode_step.moved_frac"] = ratio(
        per_op("inference._slow_mode_step.moved"), out["inference._slow_mode_step.calls"])

    untraced = float(np.median(untraced_op_s)) if untraced_op_s else 0.0
    overhead = float(np.median(np.subtract(traced_op_s, untraced_op_s))) if traced_op_s else 0.0
    out["trace.absent_targets"] = float(len(tracer.absent))
    out["trace.ops"] = float(n_ops)
    out["trace.spans"] = float(len(table["dur"]))
    out["trace.untraced_op_s"] = untraced
    out["trace.traced_op_s"] = float(np.median(traced_op_s)) if traced_op_s else 0.0
    out["trace.overhead_s"] = overhead
    out["trace.overhead_frac"] = ratio(overhead, untraced)
    return out

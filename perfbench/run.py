"""Seeded benchmark for cdtm: fit, held-out inference and C_V.

Run from the repository root:

    python3 perfbench/run.py --workload train-lda --seed 1 --seconds 20 --trace 0

One run is one process and one workload.  It builds the program's state
from seeded text (set-up), repeats the workload's operation for about
``--seconds`` seconds, checks every output against independent oracles
outside the timed region, and prints one JSON object as its last line.
With ``--trace 0`` that object holds the end-to-end metrics; with
``--trace 1`` the run alternates each operation untraced and traced (the
calls into each cdtm module wrapped) and reports per-layer figures and the
tracing overhead.  The line before it is a JSON detail record: machine,
sample counts, raw wall seconds, quality figures, digest and any failures.

Reported times are reference seconds: each raw time is scaled by the speed
of the machine measured with a fixed kernel on both sides of it
(yardstick.py), because the speed of a shared host drifts during a run.

The library is imported from ``src/`` of the checkout only; without it the
run exits with status 2 and prints no result.
"""

import os
import sys
import time

_T_START = time.perf_counter()

# Pin BLAS / OpenMP pools before numpy loads, so runs measure one core.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import yardstick  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")
SETUP_REPEATS = 7
IMPORT_REPEATS = 7
EXIT_NO_PROGRAM = 2


def _import_library():
    if not os.path.isfile(os.path.join(SRC, "cdtm", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import cdtm

    if os.path.dirname(os.path.abspath(cdtm.__file__)) != os.path.join(SRC, "cdtm"):
        return None
    return cdtm


def _source_fingerprint():
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "cdtm"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def _commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        # The ceiling keeps git from reporting a repository that merely
        # encloses a checkout which is not one itself.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, stdin=subprocess.DEVNULL)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _environment():
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count()
    return {
        "commit": _commit(),
        "source_fingerprint": _source_fingerprint(),
        "nproc": cores,
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def fresh_import_seconds():
    """Fresh interpreters that import numpy and cdtm: raw and reference seconds each."""
    code = "import sys; sys.path.insert(0, %r); import numpy, cdtm" % SRC
    raw, ref = [], []
    before = yardstick.sample()
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        subprocess.run([sys.executable, "-c", code], check=True, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        raw.append(time.perf_counter() - t0)
        after = yardstick.sample()
        ref.append(raw[-1] * yardstick.scale(before, after))
        before = after
    return raw, ref


def percentile(values, p):
    """Percentile with linear interpolation between order statistics (p50 is the median)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))


class Samples:
    """What a loop of operations measured, one entry per successful operation.

    ``raw`` holds wall seconds and ``ref`` the same in reference seconds
    (see yardstick.py); ``plain`` holds the raw wall seconds of the untraced
    twin of each traced operation.  ``latency`` has one reference-second
    sample per document for infer-short and one per operation otherwise.
    """

    def __init__(self):
        self.raw, self.ref, self.plain, self.tokens, self.latency = [], [], [], [], []


class Run:
    """Repeats a workload's operation, timing each call and checking its output."""

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.first = {}  # item index -> first output
        self.item_digest = {}
        self.item_ok = {}
        self.failures = []
        self.attempted = 0
        self.failed = 0

    def fail(self, message):
        self.failures.append(message)
        print("FAIL %s: %s" % (self.wl.name, message), file=sys.stderr)

    def _attempt(self, i, k):
        """One operation on item k: (latencies, seconds); latencies is None when it failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out, lat = self.wl.op(self.wl.items[k])
        except Exception:  # an operation that raises is a failed operation
            seconds = time.perf_counter() - t0
            self.fail("operation %d raised:\n%s" % (i, traceback.format_exc()))
            self.failed += 1
            return None, seconds
        seconds = time.perf_counter() - t0
        if not self._verify(k, self.wl.items[k], out):
            self.failed += 1
            return None, seconds
        return (lat if lat is not None else [seconds]), seconds

    def loop(self, seconds, min_ops, paired=False):
        """Run operations until the next one would end past ``seconds``.

        The reference kernel runs before the first operation and after each
        one, so every operation is scaled by the machine speed measured on
        both sides of it.  With ``paired`` each step runs the operation
        untraced, then once more on the same item with the tracer installed;
        the two outputs must have the same digest.
        """
        wl, tracer, smp = self.wl, self.tracer, Samples()
        began = time.perf_counter()
        speed = yardstick.sample()
        i = 0
        while True:
            k = i % len(wl.items)
            plain_s = None
            if paired:
                plain_lat, plain_s = self._attempt(i, k)
                tracer.op_id = i
                with tracer:
                    lat, op_s = self._attempt(i, k)
                tracer.op_id = -1
                if plain_lat is None:
                    lat = None
            else:
                lat, op_s = self._attempt(i, k)
            after = yardstick.sample()
            factor = yardstick.scale(speed, after)
            speed = after
            i += 1
            if lat is not None:
                smp.raw.append(op_s)
                smp.ref.append(op_s * factor)
                if paired:
                    smp.plain.append(plain_s)
                smp.tokens.append(wl.item_tokens[k])
                smp.latency.extend(x * factor for x in lat)
            step = op_s + (plain_s or 0.0)
            if i >= min_ops and time.perf_counter() - began + step > seconds:
                return smp

    def _verify(self, k, item, out):
        """Full checks on an item's first output; a repeat must match its digest.

        A repeat with the same digest is the same output, so it inherits the
        first output's verdict.
        """
        d = self.wl.digest(item, out)
        if k not in self.first:
            self.first[k] = out
            self.item_digest[k] = d
            messages = self.wl.check(item, out)
            self.item_ok[k] = not messages
            for message in messages:
                self.fail(message)
        elif d != self.item_digest[k]:
            self.fail("item %d: repeated operation gave a different digest" % k)
        return self.item_ok[k] and d == self.item_digest[k]

    def evaluate(self):
        """Quality figures and the run digest, from the items' first outputs.

        The digest covers the workload's fixed ``digest_items``, so it does
        not depend on how many operations fit in the run.  Counts as one
        more attempted operation; skipped when the run missed one of them.
        """
        wl = self.wl
        if any(k not in self.first for k in wl.digest_items):
            return {}, None
        self.attempted += 1
        try:
            values, fails, extra = wl.quality(self.first)
        except Exception:  # counted as a failed operation, like a raising op
            self.failed += 1
            self.fail("quality evaluation raised:\n%s" % traceback.format_exc())
            return {}, None
        for message in fails:
            self.fail(message)
        if fails:
            self.failed += 1
        return values, checks.combine([self.item_digest[k] for k in wl.digest_items], *extra)


def _record_digest(key, run_digest, run):
    """Runs of one source tree with one seed must agree; the first run records."""
    path = os.path.join(OUT, "digests.json")
    try:
        with open(path, encoding="utf-8") as fh:
            known = json.load(fh)
    except (OSError, ValueError):
        known = {}
    if key in known:
        if known[key] != run_digest:
            run.fail("determinism digest %s differs from an earlier run's %s" % (run_digest, known[key]))
            return False
        return True
    known[key] = run_digest
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return True


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if _import_library() is None:
        print("perfbench: no cdtm package under %s" % SRC, file=sys.stderr)
        return EXIT_NO_PROGRAM
    import workloads

    in_process_import_s = time.perf_counter() - _T_START
    if args.workload not in workloads.NAMES:
        parser.error("unknown workload %r (choose from %s)" % (args.workload, ", ".join(workloads.NAMES)))
    os.makedirs(OUT, exist_ok=True)
    import_raw, import_ref = fresh_import_seconds()

    wl = workloads.make(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    run = Run(wl, tracer)

    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        setup_raw, setup_ref = [], []
        before = yardstick.sample()
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            if tracer is not None:
                with tracer:
                    wl.setup(workdir)
            else:
                wl.setup(workdir)
            setup_raw.append(time.perf_counter() - t0)
            after = yardstick.sample()
            setup_ref.append(setup_raw[-1] * yardstick.scale(before, after))
            before = after

    if tracer is None:
        # Reach every digest item; for infer-short that is all 1000 documents.
        smp = run.loop(args.seconds, min_ops=max(wl.digest_items) + 1)
        quality, run_digest = run.evaluate()
    else:
        tracer.reset_counts()  # per-layer counts cover the timed operations only
        smp = run.loop(args.seconds, min_ops=max(wl.digest_items) + 1, paired=True)
        layer_counts = tracer.snapshot()
        tracer.op_id = -2
        with tracer:
            quality, run_digest = run.evaluate()

    if run_digest is not None:
        key = "%s:%s:%d" % (_source_fingerprint(), wl.name, args.seed)
        if not _record_digest(key, run_digest, run):
            run.failed += 1

    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = _median(import_ref) + _median(setup_ref)
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": _environment(),
        "reference_kernel_s": yardstick.REFERENCE_S,
        "samples": {"ops": len(smp.ref), "latency": len(smp.latency), "setups": len(setup_ref),
                    "imports": len(import_ref)},
        "doc_latency_tail_percentile": wl.latency_tail,
        "raw_seconds": {
            "setup_s": _median(import_raw) + _median(setup_raw),
            "wall_s": _median(smp.raw),
            "fresh_import_s": import_raw,
            "setup_repeats_s": setup_raw,
            "op_s": smp.raw,
            "in_process_import_s": in_process_import_s,
        },
        "ref_seconds": {"fresh_import_s": import_ref, "setup_repeats_s": setup_ref, "op_s": smp.ref},
        "quality": quality,
        "digest": run_digest,
        "failures": run.failures,
    }

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (_median(smp.ref), "s"),
            "tokens_per_s": (_median([n / t for n, t in zip(smp.tokens, smp.ref)]), "1/s"),
            "doc_latency_p50_ms": (1e3 * percentile(smp.latency, 50.0) if smp.latency else 0.0, "ms"),
            "doc_latency_tail_ms": (1e3 * percentile(smp.latency, wl.latency_tail) if smp.latency else 0.0, "ms"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    else:
        layer = tracing.per_layer_metrics(tracer, layer_counts, max(1, len(smp.raw)), smp.plain, smp.raw)
        metrics = {name: (value, tracing.unit_of(name)) for name, value in layer.items()}
        detail["absent_targets"] = tracer.absent
        spans_path = os.path.join(OUT, "spans-%s-seed%d.npz" % (wl.name, args.seed))
        tracer.write_spans(spans_path)
        detail["spans_file"] = os.path.relpath(spans_path, ROOT)

    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

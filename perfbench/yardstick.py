"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the same code can run at very different speeds from one
minute to the next (the host this benchmark was built on alternated between
two regimes about 1.7x apart, each lasting tens of seconds to minutes, with
process CPU time tracking wall time).  The benchmark therefore times this
kernel next to every operation and reports each time scaled to the speed at
which the kernel takes ``REFERENCE_S``:

    reported = raw seconds * REFERENCE_S / (kernel seconds around the op)

The kernel never calls cdtm, so no change to the library can move it.  It
mixes the three kinds of work the library does: scalar float recurrences
(the special functions), dict counting of integer pairs (window counting)
and small numpy array updates (the E-step).  Measured next to
``count_windows``, ``estep_document`` and ``infer_document`` over four
minutes, their raw times moved by up to 60% while the scaled times stayed
within about 5%.
"""

import math
import statistics
import time

import numpy as np

# Kernel seconds on an uncontended core of the machine the baseline was
# recorded on (x86_64, 2 cores, Python 3.11, numpy 2.4), so that reported
# times read close to that machine's unhindered wall times.
REFERENCE_S = 0.005
SAMPLE_REPEATS = 3


def kernel():
    acc = 0.0
    for i in range(1500):
        x = 0.3 + (i % 97) * 0.05
        while x < 6.0:
            acc -= 1.0 / x
            x += 1.0
        acc += math.log(x) - 0.5 / x
    counts = {}
    seq = [(i * 7919) % 211 for i in range(1200)]
    for j in range(len(seq) - 8):
        a = seq[j]
        for b in seq[j + 1 : j + 8]:
            key = (a, b) if a < b else (b, a)
            counts[key] = counts.get(key, 0) + 1
    v = np.linspace(0.1, 1.0, 20)
    m = np.full((30, 20), 1.0 / 20.0)
    for _ in range(150):
        p = m * np.exp(v - v.max())
        p /= p.sum(axis=1, keepdims=True)
        v = 0.5 * v + 0.5 * np.log(p.sum(axis=0) + 1.0)
    return acc + len(counts) + float(v.sum())


def sample():
    """Seconds of one kernel call now: the median of ``SAMPLE_REPEATS`` calls."""
    times = []
    for _ in range(SAMPLE_REPEATS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(before, after):
    """Factor from raw seconds to reference seconds for work between two samples."""
    return REFERENCE_S / (0.5 * (before + after))

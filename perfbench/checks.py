"""Output checks and the determinism digest, independent of the library code.

Each check returns a list of failure messages (empty when the output
passes).  None of them calls into cdtm: the window counter and C_V here are
written from the definitions, with a different algorithm than the library,
so they can serve as oracles for it.
"""

import hashlib
import math

import numpy as np

SIMPLEX_TOL = 1e-9
LDA_FIXED_POINT_TOL = 1e-5
ELBO_MONOTONE_RTOL = 1e-8
CV_TOL = 1e-10
NPMI_EPS = 1e-12  # same smoothing as the definition of NPMI the library documents


def finite_positive_gamma(gamma, what):
    g = np.asarray(gamma, dtype=np.float64)
    if not np.all(np.isfinite(g)):
        return ["%s: gamma has non-finite entries" % what]
    if np.any(g <= 0.0):
        return ["%s: gamma has entries <= 0" % what]
    return []


def simplex_rows(mat, what):
    m = np.asarray(mat, dtype=np.float64)
    if m.ndim == 1:
        m = m[None, :]
    if not np.all(np.isfinite(m)):
        return ["%s: non-finite entries" % what]
    if np.any(m < 0.0):
        return ["%s: negative entries" % what]
    worst = float(np.abs(m.sum(axis=1) - 1.0).max())
    if worst > SIMPLEX_TOL:
        return ["%s: row sums off the simplex by %.3g" % (what, worst)]
    return []


def doc_state(gamma, phi, what):
    """gamma finite and positive; phi and theta = gamma / sum(gamma) on the simplex."""
    fails = finite_positive_gamma(gamma, what)
    if fails:
        return fails
    g = np.asarray(gamma, dtype=np.float64)
    return simplex_rows(phi, what + " phi") + simplex_rows(g / g.sum(), what + " theta")


def fixed_point_gaps(zeta, states):
    """max_i |gamma_i - (zeta_i + sum_n phi_ni)| per document state.

    At lambda = 0 a converged E-step sits at gamma = zeta + colsums(phi).
    """
    return np.array([float(np.abs(vp.gamma - (zeta + vp.phi.sum(axis=0))).max()) for vp in states])


def elbo_non_decreasing(totals):
    for it, (prev, cur) in enumerate(zip(totals, totals[1:]), start=2):
        if not (math.isfinite(cur) and cur >= prev - ELBO_MONOTONE_RTOL * abs(prev)):
            return ["ELBO decreased at EM iteration %d: %r -> %r" % (it, prev, cur)]
    return []


# ---------------------------------------------------------------------------
# Window counts and C_V from the definitions


def window_joint(token_lists, window_size, targets):
    """(total windows, joint) with joint[a, b] = windows holding targets a and b.

    Window t of a document covers positions [t, t + window_size); a document
    no longer than the window is one window.  Target a is in window t iff its
    next occurrence at or after t is before t + window_size; the next
    occurrences come from one reversed running minimum per document.
    """
    targets = np.asarray(sorted(set(int(w) for w in targets)), dtype=np.int64)
    n_t = targets.shape[0]
    # float64 products of 0/1 matrices are exact integers far below 2**53.
    joint = np.zeros((n_t, n_t))
    total = 0
    for tokens in token_lists:
        tokens = np.asarray(tokens, dtype=np.int64)
        n = tokens.shape[0]
        if n == 0:
            continue
        slot = np.searchsorted(targets, tokens)
        slot[slot == n_t] = 0
        is_target = targets[slot] == tokens
        pos = np.full((n + 1, n_t), n, dtype=np.int64)  # row n: never occurs
        pos[np.nonzero(is_target)[0], slot[is_target]] = np.nonzero(is_target)[0]
        nxt = np.minimum.accumulate(pos[::-1], axis=0)[::-1]
        if n <= window_size:
            present = (nxt[:1] < n).astype(np.float64)
            total += 1
        else:
            starts = np.arange(n - window_size + 1)
            present = (nxt[starts] < (starts + window_size)[:, None]).astype(np.float64)
            total += starts.shape[0]
        joint += present.T @ present
    return total, targets, np.rint(joint).astype(np.int64)


def window_count_mismatches(counts, token_lists, window_size, targets):
    """Compare the library's WindowCounts with window_joint, exactly."""
    total, tgt, joint = window_joint(token_lists, window_size, targets)
    fails = []
    if counts.total_windows != total:
        fails.append("window count: %d windows, oracle %d" % (counts.total_windows, total))
    want_uni = {int(w): int(joint[a, a]) for a, w in enumerate(tgt) if joint[a, a]}
    if dict(counts.unigram) != want_uni:
        fails.append("window count: unigram counts differ from the oracle")
    ia, ib = np.triu_indices(tgt.shape[0], k=1)
    nz = joint[ia, ib] > 0
    want_pair = {(int(tgt[a]), int(tgt[b])): int(joint[a, b]) for a, b in zip(ia[nz], ib[nz])}
    if dict(counts.pair) != want_pair:
        fails.append("window count: pair counts differ from the oracle")
    return fails


def cv_from_joint(words, total, targets, joint):
    """C_V of one topic: NPMI vectors of its words against their sum, mean cosine."""
    idx = np.searchsorted(targets, np.asarray(words, dtype=np.int64))
    sub = joint[np.ix_(idx, idx)].astype(np.float64)
    c = np.diag(sub).copy()
    p = sub / total
    with np.errstate(divide="ignore"):
        num = np.log(p + NPMI_EPS) - np.log(np.outer(c, c) / (total * total) + NPMI_EPS)
        mat = np.clip(num / -np.log(p + NPMI_EPS), -1.0, 1.0)
    mat[sub == total] = 1.0
    diag = np.arange(len(words))
    mat[diag, diag] = np.where(c > 0, 1.0, mat[diag, diag])
    topic_vec = mat.sum(axis=0)
    norms = np.linalg.norm(mat, axis=1) * np.linalg.norm(topic_vec)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos = np.where(norms > 0, np.clip(mat @ topic_vec / norms, -1.0, 1.0), 0.0)
    return float(cos.mean())


def cv_mismatches(report, oracle):
    total, targets, joint = oracle
    fails = []
    want = {t.topic_id: cv_from_joint(t.words, total, targets, joint) for t in report.topics}
    worst = max(abs(report.per_topic[k] - v) for k, v in want.items())
    worst = max(worst, abs(report.mean_cv - sum(want.values()) / len(want)))
    if not worst <= CV_TOL:
        fails.append("C_V differs from the oracle rebuilt from window counts by %.3g" % worst)
    return fails


# ---------------------------------------------------------------------------
# Determinism


def combine(digests, *parts):
    """One digest over earlier digests (hex strings) and further array parts."""
    h = hashlib.sha256()
    for d in digests:
        h.update(d.encode())
    h.update(digest(*parts).encode())
    return h.hexdigest()


def digest(*parts):
    """sha256 over float64 bytes of arrays (and lists of arrays), in order."""
    h = hashlib.sha256()
    for part in parts:
        items = part if isinstance(part, (list, tuple)) else [part]
        for item in items:
            arr = np.ascontiguousarray(np.asarray(item, dtype=np.float64))
            h.update(str(arr.shape).encode())
            h.update(arr.tobytes())
    return h.hexdigest()

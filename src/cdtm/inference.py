"""Penalized variational EM.

The E-step fits the variational state of a whole batch of documents at
once.  The batch is one CSR bag of words: each document's distinct word
ids and their counts (the layout of Hoffman, Blei & Bach, Online Learning
for LDA, NeurIPS 2010), so phi is computed once per distinct word and its
column sums weight each row by its count.  Every sweep updates phi, then
gamma; the entropy penalty enters only the gamma objective.  At lam = 0
(standard LDA) gamma is closed-form: gamma = zeta + phi column sums, taken
in that paper's phinorm form, which forms phi only where the stop rule or
the result reads it (_sweep_lda).  Only at lam > 0 does gamma take one
joint Newton step per sweep (newton_step), in t = log gamma: the penalty
lifts the dominant gamma far above the document length, and a step in log
gamma scales it by a factor per sweep where a step in gamma adds a bounded
amount.  The log gamma Hessian H_t is a diagonal plus rank-2 terms, built
from gamma_grad_hess.  Where -H_t is positive definite one batched Cholesky
factorization shows it and the step is the exact Newton step; only where
it is not are the eigenvalues of H_t flipped to negative.  No coordinate
moves by more than LOG_STEP_MAX in log gamma, and an Armijo backtrack
guards the step.

Near an optimum the phi/gamma alternation at lam > 0 can contract at ~0.95
per sweep.  So once a document's step at fixed phi is taken in full and is
the exact Newton step of a negative definite Hessian, moving every log
gamma by less than WARM_STEP, the document turns warm: from then on it
steps on the profiled objective L(gamma), phi optimized out
(profiled_objective), with the same guard.  The gradient is unchanged and
the Hessian gains D M D; where minus that Hessian has no Cholesky factor
in t, the step falls back to the fixed-phi Hessian (Cholesky, then the
flip), so a warm document never takes a flipped-eigenvalue step on L,
which can leave for a lower optimum than the alternation's.  The fixed-phi
curvature overstates L's there, so such a fallback step's line search
starts up to LIFT_MAX times further along its direction, with no log gamma
moved by more than LOG_STEP_MAX: its step size can exceed 1.  Until a
document turns warm its steps are those of update_phi and newton_step.
Every lam > 0 sweep is one _gamma_step, cold and warm documents alike.  Its
line search computes phi, and the phinorm terms of L, at every trial point,
so each sweep reads them at the gamma the previous sweep's accepted trial
reached (where no step was taken they stay); outside a line search phi is
computed only once, at the start gamma.  Every operation acts on each
document's rows alone, and a document leaves the batch once it converges
(at lam = 0 its columns stay, masked, until the retired rows are
COMPACT_SHARE of the batch's), so its result does not depend on the
batch it shares.  The tests hold the Newton solver at lam = 0 to the
same closed form.  The M-step (a scatter of counts * phi) and the ELBO
(phi terms weighted by counts) read the same rows: fit builds its bag
once and expands phi per token only for the states it returns;
perplexity never does.  The public mstep and penalized_elbo pass each
token as a row of count 1.

Layout.  Every per-row array of the E-step (the eta columns eta[:, ids],
prod, phi, the trial phi and counts * phi) is topic-major: C-ordered (K,
rows), one column per bag row, each document's columns contiguous.  The
sum over topics that normalizes phi (phinorm at lam = 0) adds K
contiguous planes (_topic_sum keeps that order for a lone column too),
and np.add.reduceat sums each document's segment along contiguous
memory.  Columns are gathered with .take(..., axis=1), .repeat or
.compress(..., axis=1), never with a[:, index], which returns an
F-ordered copy and quietly undoes the layout.  The sweeps reduce with
ufunc reductions (np.add.reduce(a, 1), np.maximum.reduce, ...), the loops
that ndarray .sum/.max reach through numpy's Python _methods layer,
called directly; they test a mask for any or all True entries with
np.count_nonzero, whose C loop skips a reduction's set-up.  The lam = 0
sweep keeps gamma topic-major too: C-ordered (K, B), one column per
document, without its sum S, which it never reads.  Psi, the weights
exp(Psi - max over topics) and the column sums np.add.reduceat returns
are then all (K, B), so no sweep transposes or copies them into another
layout; only retirement reads gamma.T.  The lam > 0 sweep is row-major on
the gamma side: [g | S] and its column sums are C-ordered (B, K + 1) and
(B, K) rows, one per document, and it carries lnGamma, Psi, Psi' and
Psi'' as one stacked (4, B, K + 1) array, whose Psi _weights reads as the
transposed (K, B) view.  D M D reads phi row-major: each call copies the warm
documents' rows to (rows, K) once, so every document's BLAS product runs
at leading dimension K; taken from the (K, rows) array, its leading
dimension would be the batch's row count, and its rounding would depend
on the batch.  phi is transposed to one (N_d, K) row per token only at
the public API: update_phi, mstep, penalized_elbo and the DocVariational
states that estep_batch and fit return.

Objective pieces handled here, for one document with S = sum(gamma):

    L_[gamma] = sum_i (Psi(g_i) - Psi(S)) (zeta_i + colsum_i - g_i)
                - lnGamma(S) + sum_i lnGamma(g_i)
                + lam * (sum_l g_l Psi(g_l)/S - Psi(S) + (K-1)/S)

gamma_grad_hess gives its gradient and Hessian, and the test suite checks
both against central finite differences of this function, and those of
profiled_objective against differences of the gradient with phi re-solved.
elbo_gamma_part, gamma_grad_hess and newton_step also take a (B, K) batch
of gamma rows, one document per row.
"""

import logging
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
# Batched Cholesky that returns a NaN factor for a matrix that is not
# positive definite; np.linalg.cholesky raises for the whole batch instead.
from numpy.linalg._umath_linalg import cholesky_lo as _cholesky_lo

from .model import ETA_FLOOR, DocVariational, init_model
from .specialfn import (
    _checked,
    _digamma,
    _evaluate,
    _neg_entropy,
    digamma,
)

logger = logging.getLogger(__name__)

HESS_EPS = 1e-12  # in the eigenvalue flip, |Hessian eigenvalue| below this counts as numerically zero
LOG_STEP_MAX = 2.0  # largest Newton move of one log gamma coordinate per sweep
LIFT_MAX = 4.0  # largest lift of a fallback step's first trial (see _newton_rows)
WARM_STEP = 0.25  # a full, exact Newton step moving no log gamma by this much turns a document warm
GAMMA_FLOOR = 1e-8  # no gamma coordinate goes below this
ARMIJO_DELTA = 0.01  # delta: sufficient-decrease constant
BACKTRACK_RHO = 0.5  # rho: step-size shrink factor
MAX_BACKTRACKS = 60
COMPACT_SHARE = 0.25  # the lam = 0 sweep drops retired documents' columns once they are this share of its rows


class NumericalError(RuntimeError):
    """Raised when an update produces non-finite intermediate values."""


@dataclass
class ElboBreakdown:
    log_likelihood_terms: float  # E_q[ln p(theta, Z, W | zeta, eta)]
    entropy_of_q: float  # -E_q[ln q]
    penalty_term: float  # sum_d lam_d * E_q[sum_i theta_i log theta_i], <= 0
    total: float


@dataclass
class FitResult:
    model: object
    per_doc: list
    elbo_trace: list
    iterations_run: int
    converged: bool
    # Per EM iteration: how many document E-steps hit estep_max_iters.
    unconverged_esteps: list


# One step accepted by newton_step's line search, as passed to step_monitor:
# value = gamma * exp(step_size * direction), direction in log gamma.  In
# the E-step a warm document's fallback step can have step_size > 1.
NewtonStep = namedtuple(
    "NewtonStep", "value step_size direction objective_before objective_after"
)
# What _newton_rows did to each row: its largest move, the step size it took
# (0 for none; above 1 for a lifted fallback step), whether its direction
# was near (see _Newton), and that direction in log gamma.
_Steps = namedtuple("_Steps", "move alpha near direction")
# _log_newton per row: the gradient in t, the direction, whether H_t is
# negative definite (-H_t has a Cholesky factor, or, where it has none,
# the largest eigenvalue is <= -HESS_EPS), and whether the direction is
# near: the exact Newton step of a negative definite H_t, moving every log
# gamma by less than WARM_STEP; and fallback, the mask of the rows the first
# of several candidates covered but could not factor, which took a later
# candidate's step (None where there are none such, as with one candidate).
_Newton = namedtuple("_Newton", "grad direction concave near fallback")


def _weights(psi_g):
    """exp(E[log theta]) up to a factor per document from the topic-major psi_g = Psi(gamma), (K, B) in and out; and psi_g's (B,) column maxima.

    phi normalizes the factor away.  Each document is scaled so its largest
    entry is 1: at large K a short document's exp(E[log theta]) can
    underflow in every topic.  The maxima are that scale, in log space.
    The result keeps psi_g's memory order: C-ordered from the lam = 0
    sweep, a transposed (B, K) view's from the lam > 0 one.
    """
    top = np.maximum.reduce(psi_g, 0)
    return np.exp(psi_g - top), top


def _spread(weights, n_rows):
    """The (K, B) weights repeated for each of document j's n_rows[j] rows: (K, rows); one document's broadcast as they are."""
    return weights.repeat(n_rows, axis=1) if weights.shape[1] > 1 else weights


def _topic_sum(a):
    """The sum over the topic axis of (K, n) a, adding its K planes in order whatever n is.

    numpy adds the planes one by one for n > 1, but sums a lone column
    pairwise; a row's sum must not depend on how many rows share the array.
    """
    return np.add.reduce(a, 0) if a.shape[1] > 1 else sum(a)


def _colsums(weighted, starts):
    """The (K, rows) weighted summed over each document's rows, as C-ordered (B, K) rows like gamma's."""
    return np.ascontiguousarray(np.add.reduceat(weighted, starts, axis=1).T)


def _phi_rows(eta_rows, weights):
    """phi ∝ eta[:, w] * weights, normalized over topics (see _weights), and its norms; (K, rows) in and out."""
    phi = eta_rows * weights
    norm = _topic_sum(phi)
    if np.count_nonzero(norm > 0.0) < len(norm):
        raise NumericalError("phi row with no positive mass; eta must be smoothed")
    phi /= norm
    return phi, norm


def update_phi(doc, gamma, model):
    """Closed-form phi update, one row per token: row n ∝ eta[:, w_n] * exp(E[log theta])."""
    eta_rows = np.take(model.eta, doc.tokens, axis=1)
    return _phi_rows(eta_rows, _weights(digamma(np.atleast_2d(gamma)).T)[0])[0].T


def _phi_curvature(psi1_g, phi_t, counts, colsums, starts, ends):
    """D M D per document: the Hessian of L minus that of elbo_gamma_part at phi(gamma).

    D = diag(Psi'(g)) and M = diag(colsums) - sum_r counts_r phi_r phi_r^T
    = d colsums / d E[log theta].  phi_t holds the documents' phi rows as a
    C-ordered (rows, K) copy and counts their counts; document j owns rows
    starts[j]:ends[j].  M 1 = 0, so the Psi'(S) part of d E[log theta] /
    d gamma drops out.  Each document's sum is one product of its own rows
    at leading dimension K, so it does not depend on the batch.
    """
    B, K = colsums.shape
    weighted = phi_t * counts[:, None]
    m = np.empty((B, K, K))
    for j, (start, end) in enumerate(zip(starts.tolist(), ends.tolist())):
        np.matmul(weighted[start:end].T, phi_t[start:end], out=m[j])
    m.reshape(B, -1)[:, :: K + 1] -= colsums
    m *= psi1_g[:, :, None] * -psi1_g[:, None, :]
    return m


def _with_sum(g):
    """[g | S]: the (B, K) rows of g with their sums appended as column K."""
    return np.concatenate((g, np.add.reduce(g, 1, keepdims=True)), axis=1)


def _lams(lam, n):
    """The penalty weights lam as n float64 weights, one per document; a scalar serves all n.

    ValueError naming lambda unless there is one weight per document and
    every weight is finite and >= 0.  Each E-step, each public gamma
    function and the ELBO check once per call, never inside a sweep.
    """
    lam = np.asarray(lam, dtype=np.float64)
    if lam.ndim and lam.size != n:
        raise ValueError("lambda needs one weight per document: got %d weights for %d documents" % (lam.size, n))
    if np.count_nonzero((lam >= 0.0) & (lam < math.inf)) < lam.size:  # NaN fails both
        raise ValueError("lambda weights must be finite and >= 0")
    return lam.reshape(n) if lam.ndim else np.broadcast_to(lam, (n,))


def _rows(gamma, lam, name):
    """[g | S] of gamma's (B, K) rows, lam as B weights, and whether gamma was one row.

    Both are checked for the public function name: every g and S must be
    positive and finite, lam a scalar or B weights (see _lams).
    """
    g = np.asarray(gamma, dtype=np.float64)
    rows = np.atleast_2d(g)
    lam = _lams(lam, len(rows))
    with np.errstate(over="ignore"):  # an S that overflows fails the check
        ext = _with_sum(rows)
    return _checked(ext, name), lam, g.ndim == 1


def _objective(ext, target, lam, psi, lg):
    """elbo_gamma_part of each row of ext = [g | S].

    target = zeta + colsums; psi and lg are Psi and lnGamma at ext.
    """
    elog = psi[:, :-1] - psi[:, -1:]
    total = np.add.reduce(elog * (target - ext[:, :-1]) + lg[:, :-1], 1) - lg[:, -1]
    return total + lam * _neg_entropy(ext, psi)


def elbo_gamma_part(gamma, zeta, phi_colsums, lam):
    """The gamma-dependent part of the penalized ELBO for one document.

    gamma may also be a (B, K) batch, with colsums (B, K) and lam scalar
    or (B,); the result is then one value per row.
    """
    ext, lam, single = _rows(gamma, lam, "elbo_gamma_part")
    lg, psi = _evaluate(ext)[:2]
    values = _objective(ext, zeta + phi_colsums, lam, psi, lg)
    return float(values[0]) if single else values


def _grad_hess(ext, target, lam, psi, psi1, psi2):
    """Gradient (B, K) and Hessian (B, K, K) of elbo_gamma_part per row.

    ext = [g | S]; target = zeta + colsums; psi, psi1, psi2 = Psi, Psi',
    Psi'' at ext; lam has one entry per row.
    """
    g, s = ext[:, :-1], ext[:, -1:]
    B, K = g.shape
    lam = lam[:, None]
    psi_g = psi[:, :-1]
    psi1_g, psi1_s = psi1[:, :-1], psi1[:, -1:]
    psi2_g, psi2_s = psi2[:, :-1], psi2[:, -1:]
    a = target - g
    A = np.add.reduce(a, 1, keepdims=True)
    u = psi_g + g * psi1_g
    s2 = s * s
    c = (np.add.reduce(g * psi_g, 1, keepdims=True) + (K - 1.0)) / s2
    grad = psi1_g * a - psi1_s * A + lam * (u / s - c - psi1_s)
    diag = psi2_g * a - psi1_g + lam * (2.0 * psi1_g + g * psi2_g) / s
    common = psi1_s - psi2_s * A + lam * (2.0 * c / s - psi2_s)
    hess = common[:, :, None] - (lam / s2)[:, :, None] * (u[:, :, None] + u[:, None, :])
    hess.reshape(B, K * K)[:, :: K + 1] += diag
    return grad, hess


def gamma_grad_hess(gamma, zeta, phi_colsums, lam):
    """Gradient vector and full K x K Hessian of elbo_gamma_part.

    With a_i = zeta_i + colsum_i - g_i, A = sum a_i, S = sum g_i,
    gpsi = sum g_i Psi(g_i) and u_i = Psi(g_i) + g_i Psi'(g_i):

        dL/dg_i = Psi'(g_i) a_i - Psi'(S) A
                  + lam [ u_i/S - (gpsi + K - 1)/S^2 - Psi'(S) ]

        H_ij = delta_ij (Psi''(g_i) a_i - Psi'(g_i))
               + Psi'(S) - Psi''(S) A
               + lam [ delta_ij u_i'/S - (u_i + u_j)/S^2
                       + (2 (gpsi + K - 1)/S^3 - Psi''(S)) ]

    with u_i' = 2 Psi'(g_i) + g_i Psi''(g_i): a diagonal plus terms in
    1 1^T and (u 1^T + 1 u^T).  A (B, K) batch gives (B, K) gradients and
    (B, K, K) Hessians.
    """
    ext, lam, single = _rows(gamma, lam, "gamma_grad_hess")
    psi, psi1, psi2 = _evaluate(ext)[1:]
    grad, hess = _grad_hess(ext, zeta + phi_colsums, lam, psi, psi1, psi2)
    return (grad[0], hess[0]) if single else (grad, hess)


def profiled_objective(doc, gamma, model, lam):
    """L(gamma): the gamma objective of one document with phi optimized out.

    With one row r per distinct word w_r of the document, of count c_r,

        L(gamma) = sum_r c_r log sum_k eta[k, w_r] exp(E[log theta_k])
                   + sum_k (zeta_k - g_k) E[log theta_k] - lnGamma(S)
                   + sum_k lnGamma(g_k) + lam E[sum_k theta_k log theta_k],

    which is elbo_gamma_part plus the phi terms of the ELBO at phi =
    update_phi(gamma), the phi that maximizes them (the phinorm form of
    Hoffman, Blei & Bach, Online Learning for LDA, 2010).  By the envelope
    theorem its gradient is that of gamma_grad_hess at those phi column
    sums; its Hessian adds D M D (see _phi_curvature).  Returns (L,
    gradient, Hessian).
    """
    ext, lam, single = _rows(gamma, lam, "profiled_objective")
    if not single:
        raise ValueError("profiled_objective takes the gamma of one document")
    active = _Active(_Bags([doc], model.V), np.zeros(1, dtype=np.int64), model.eta)
    lg, psi, psi1, psi2 = _evaluate(ext)
    _, phi, phinorm = active.phi_and_norm(slice(None), psi)
    colsums = _colsums(phi * active.counts, active.starts)
    grad, hess = _grad_hess(ext, model.zeta + colsums, lam, psi, psi1, psi2)
    hess += _phi_curvature(psi1[:, :-1], phi.T.copy(), active.counts, colsums, active.starts, active.ends)
    value = _objective(ext, model.zeta, lam, psi, lg) + phinorm
    return float(value[0]), grad[0], hess[0]


def _subset(mask):
    """Index of the True rows of mask: a slice (no copy) when that is all of them, None for none."""
    index = mask.nonzero()[0]
    n = len(index)
    if n == len(mask):
        return slice(None)
    return index if n else None


def _columns(a, rows):
    """The columns rows (a _subset index) of the (K, n) a, C-ordered: a itself for a slice."""
    return a if isinstance(rows, slice) else a.take(rows, axis=1)


def _compose(outer, inner):
    """The index outer[inner], for indices made by _subset."""
    if isinstance(inner, slice):
        return outer
    if isinstance(outer, slice):
        return inner
    return outer[inner]


def _log_newton(g, grad, candidates):
    """The modified Newton direction in t = log gamma of each row of g, as a _Newton (see newton_step).

    grad is the gamma-space gradient.  candidates lists (rows, hess) in
    order of preference: hess is a gamma-space Hessian of the rows rows of
    g (a _subset index), and the last pair covers every row.  A row takes
    the exact Newton step of the first of its candidates whose -H_t has a
    Cholesky factor; a row with none takes the eigenvalue-modified step of
    its last.
    """
    grad_t = grad * g
    direction = np.empty(g.shape)
    concave = np.zeros(len(g), dtype=bool)
    fallback = None
    for i, (rows, hess) in enumerate(candidates):
        if i and np.count_nonzero(concave):  # rows an earlier candidate served keep its step
            keep = _subset(~concave[rows])
            if keep is None:
                continue
            rows, hess = _compose(rows, keep), hess[keep]
        g_rows, grad_rows = g[rows], grad_t[rows]
        neg = hess * -(g_rows[:, :, None] * g_rows[:, None, :])  # -H_t
        neg.reshape(len(g_rows), -1)[:, :: g.shape[1] + 1] -= grad_rows
        with np.errstate(invalid="ignore"):  # a row that is not positive definite factors to NaN
            factored = ~np.isnan(_cholesky_lo(neg)[:, -1, -1])
        ok = _subset(factored)
        if ok is not None:
            at = _compose(rows, ok)
            direction[at] = np.linalg.solve(neg[ok], grad_rows[ok][:, :, None])[:, :, 0]
            concave[at] = True
        if i == 0 and len(candidates) > 1 and not isinstance(ok, slice):
            fallback = np.zeros(len(g), dtype=bool)
            fallback[rows] = ~factored
    if np.count_nonzero(concave) < len(g):  # the rows no candidate factors, on the last
        flat = _subset(~factored)
        at = _compose(rows, flat)
        evals, evecs = np.linalg.eigh(-neg[flat])
        scaled = np.add.reduce(evecs * grad_t[at][:, :, None], 1) / np.maximum(np.abs(evals), HESS_EPS)
        direction[at] = np.add.reduce(evecs * scaled[:, None, :], 2)
        concave[at] = evals[:, -1] <= -HESS_EPS  # eigh sorts the eigenvalues ascending
    longest = np.maximum.reduce(np.abs(direction), 1)
    near = concave & (longest < WARM_STEP)
    direction *= (LOG_STEP_MAX / np.maximum(longest, LOG_STEP_MAX))[:, None]
    return _Newton(grad_t, direction, concave, near, fallback)


def _newton_rows(ext, newton, special, obj0, objective, config, step_monitor):
    """One newton_step on every row of ext = [g | S] along newton = _log_newton(g, ...), in place.

    obj0 holds each row's objective at ext; objective(index, trial ext,
    trial special) gives its values at trial points of the rows index (a
    _subset index).  special = the stacked [lnGamma, Psi, Psi', Psi''] at
    ext, updated along with it, so the next sweep reuses the values of the
    accepted trial.  The mask pending holds the rows still backtracking.
    A row of newton.fallback that is not quick is lifted: its trial point
    is g * exp(alpha s d), s = max(1, min(LIFT_MAX, LOG_STEP_MAX / max|d|)),
    and Armijo asks for alpha s ARMIJO_DELTA g_t.d; every other row has s
    = 1.  Its step size, in the _Steps and for step_monitor, is alpha s
    along the unscaled d.  Returns the _Steps.
    """
    grad_t, direction, concave, near, fallback = newton
    g = ext[:, :-1].copy()
    step = np.maximum.reduce(g * np.abs(direction), 1)  # first-order gamma move
    move = np.zeros(len(step))
    taken = np.zeros(len(step))
    steps = _Steps(move, taken, near, direction)  # move and taken are filled in below
    pending = step >= config.newton_tol
    if not np.count_nonzero(pending):
        return steps
    slope = np.add.reduce(grad_t * direction, 1)  # >= 0
    decrease = ARMIJO_DELTA * slope
    # Near the optimum of a concave objective the predicted gain falls below
    # the float resolution of L: such a full step skips the value comparison
    # (see newton_step).
    quick = concave & (0.5 * slope < 1e-11 * (1.0 + np.abs(obj0)))
    search, scale = direction, None
    if fallback is not None:
        lift = np.maximum(1.0, LOG_STEP_MAX / np.maximum(np.maximum.reduce(np.abs(direction), 1), LOG_STEP_MAX / LIFT_MAX))
        scale = np.where(fallback & ~quick, lift, 1.0)
        search, decrease = direction * scale[:, None], decrease * scale

    alpha, scaled, gain = 1.0, search, decrease  # alpha * search and alpha * decrease, exact at alpha = 1
    for _ in range(MAX_BACKTRACKS):
        trial = g * np.exp(scaled)
        at = _subset(pending & (np.minimum.reduce(trial, 1) >= GAMMA_FLOOR))
        if at is not None:
            t_ext = _with_sum(trial[at])
            t_special = _evaluate(t_ext)
            before = obj0[at]
            after = objective(at, t_ext, t_special)
            armijo = after >= before + gain[at]
            fast = quick[at]
            checked = armijo & ~fast
            lowered = checked & (after < before)
            if np.count_nonzero(lowered):
                j = np.flatnonzero(lowered)[0]
                raise NumericalError(
                    "accepted Newton step lowered the gamma objective: %r < %r"
                    % (float(after[j]), float(before[j]))
                )
            took = _subset(armijo | fast)
            if took is not None:
                done = _compose(at, took)
                moved = np.maximum.reduce(np.abs(trial[done] - g[done]), 1)
                move[done] = np.where(fast[took], step[done], moved)
                taken[done] = alpha if scale is None else alpha * scale[done]
                ext[done] = t_ext[took]
                special[:, done] = t_special[:, took]
                pending[done] = False
            if step_monitor is not None:
                for j in checked.nonzero()[0].tolist():
                    step_monitor(NewtonStep(
                        t_ext[j, :-1], float(taken[at][j]), direction[at][j], float(before[j]), float(after[j])
                    ))
        if not np.count_nonzero(pending):
            break
        quick[:] = False
        alpha *= BACKTRACK_RHO
        scaled, gain = alpha * search, alpha * decrease
    return steps


def newton_step(gamma, zeta, phi_colsums, lam, config, step_monitor=None):
    """One guarded joint Newton ascent step on elbo_gamma_part, in t = log gamma.

    In t the gradient is g_t = gamma * grad and the Hessian is H_t =
    diag(gamma) H diag(gamma) + diag(g_t), so the stationary points are
    those of gamma.  Where -H_t is positive definite, as its Cholesky
    factorization shows, the direction is the exact Newton step d =
    -H_t^{-1} g_t.  Only where it is not is d the eigenvalue-modified
    Newton step (Nocedal & Wright, Numerical Optimization, 2006, sec. 3.4):
    with H_t = V diag(e) V^T, d = V diag(1 / max(|e_i|, HESS_EPS)) V^T g_t,
    still an ascent direction.  d is scaled down so that
    max |d| <= LOG_STEP_MAX: without that bound a short document's dominant
    gamma can overshoot to ~1e19, where Psi(g_k) - Psi(S) is rounding noise.
    The trial point is gamma * exp(alpha d); alpha backtracks from 1 by
    BACKTRACK_RHO until the Armijo condition (with ARMIJO_DELTA) holds and
    every coordinate stays >= GAMMA_FLOOR.  No step is taken when the
    first-order gamma move max gamma |d| < newton_tol.

    Near the optimum of a concave H_t the predicted gain 0.5 g_t^T d falls
    below the float resolution of L itself while the position error can
    still be ~1e-5, so a value comparison there is noise: such a step is
    taken on gradient evidence alone and is not passed to step_monitor.
    Every step accepted by the line search is.  Returns the new gamma and
    the largest per-coordinate move (0.0 when no step is taken).  Raises
    NumericalError if an accepted step lowered the objective.  A (B, K)
    batch takes one step per row, each on its own, and returns (B, K)
    gammas and (B,) moves.
    """
    ext, lam, single = _rows(gamma, lam, "newton_step")
    special = lg, psi, psi1, psi2 = _evaluate(ext)
    target = np.broadcast_to(zeta + phi_colsums, ext[:, :-1].shape)
    grad, hess = _grad_hess(ext, target, lam, psi, psi1, psi2)

    def objective(index, t_ext, t_special):
        return _objective(t_ext, target[index], lam[index], t_special[1], t_special[0])

    newton = _log_newton(ext[:, :-1], grad, [(slice(None), hess)])
    obj0 = _objective(ext, target, lam, psi, lg)
    move = _newton_rows(ext, newton, special, obj0, objective, config, step_monitor).move
    return (ext[0, :-1], float(move[0])) if single else (ext[:, :-1], move)


class _Bags:
    """A batch of documents as rows: document doc[r], word id ids[r], count counts[r].

    Rows are sorted by document, and document d owns n_rows[d] of them.
    By default they are the bag of words, one row per distinct word of a
    document, and token_rows maps every token, documents concatenated, to
    its row.  per_token=True makes every token a row of count 1 (the public
    mstep and penalized_elbo); the M-step and the ELBO read either layout.
    """

    def __init__(self, documents, V, per_token=False):
        self.lengths = np.array([len(doc) for doc in documents], dtype=np.int64)
        tokens = np.concatenate([doc.tokens for doc in documents]) if documents else self.lengths
        if tokens.size and (np.minimum.reduce(tokens) < 0 or np.maximum.reduce(tokens) >= V):
            raise ValueError("word ids must lie in [0, %d)" % V)
        doc = np.arange(len(documents), dtype=np.int64).repeat(self.lengths)
        if per_token:
            self.doc, self.ids, self.counts, self.n_rows = doc, tokens, np.ones(len(tokens)), self.lengths
            return
        if self.lengths.size and np.minimum.reduce(self.lengths) < 1:
            empty = documents[int(np.argmin(self.lengths))]
            raise ValueError("cannot run the E-step on empty document %r" % empty.id)
        uniq, self.token_rows, counts = np.unique(doc * V + tokens, return_inverse=True, return_counts=True)
        self.ids = uniq % V
        self.doc = uniq // V
        self.counts = counts.astype(np.float64)
        self.n_rows = np.bincount(self.doc, minlength=len(documents))

    def expand(self, gamma, phi):
        """One DocVariational per document, its (K, rows) phi expanded to one (N_d, K) row per token."""
        token_phi = phi.T[self.token_rows]
        ends = np.concatenate(([0], self.lengths.cumsum()))
        return [DocVariational(gamma[d].copy(), token_phi[ends[d] : ends[d + 1]]) for d in range(len(gamma))]


class _Active:
    """The documents of one _sweep_lda or _sweep_penalized call still in its arrays, and their bag rows.

    docs holds their indices in the bag and rows their bag rows, document
    by document, with the (K, rows) eta_rows = eta[:, ids] and counts
    alongside.  row_doc maps each row to its document's position in docs;
    document j owns rows starts[j]:ends[j].
    """

    def __init__(self, bags, docs, eta):
        member = np.zeros(len(bags.lengths), dtype=bool)
        member[docs] = True
        self.docs, self.n_rows, self.lengths = docs, bags.n_rows[docs], bags.lengths[docs]
        self.rows = member[bags.doc].nonzero()[0]
        self.eta_rows, self.counts = eta.take(bags.ids[self.rows], axis=1), bags.counts[self.rows]
        self._index()

    def _index(self):
        self.row_doc = np.arange(len(self.docs)).repeat(self.n_rows)
        self.ends = self.n_rows.cumsum()
        self.starts = self.ends - self.n_rows

    def retire(self, leaving, row_leaving, done, gamma, phi, out):
        """Write into out the (B, K) gamma rows of the documents in the mask leaving, the (K, rows) phi of their rows row_leaving = leaving[row_doc], and the flags of done."""
        gamma_out, phi_out, converged = out
        gamma_out[self.docs[leaving]] = gamma[leaving]
        phi_out[:, self.rows[row_leaving]] = phi
        converged[self.docs[done]] = True

    def keep(self, keep):
        """Drop the documents outside the mask keep; return the mask of the rows kept."""
        row_keep = keep[self.row_doc]
        self.docs, self.n_rows, self.lengths = self.docs[keep], self.n_rows[keep], self.lengths[keep]
        self.rows, self.counts = self.rows[row_keep], self.counts[row_keep]
        self.eta_rows = self.eta_rows.compress(row_keep, axis=1)
        self._index()
        return row_keep

    def segments(self, sub):
        """The rows of the documents sub (a _subset index): their index, and each document's row count, start and end among them."""
        if isinstance(sub, slice):
            return sub, self.n_rows, self.starts, self.ends
        member = np.zeros(len(self.docs), dtype=bool)
        member[sub] = True
        n = self.n_rows[sub]
        ends = n.cumsum()
        return member[self.row_doc].nonzero()[0], n, ends - n, ends

    def phi_and_norm(self, sub, psi, terms=True):
        """(K, rows) phi of the documents sub (a _subset index) at psi = Psi([g | S]), with their row index and phinorm terms.

        A document's term is sum_r counts_r log sum_k eta[k, w_r] exp(E[log
        theta_k]), the value phi contributes to the profiled objective.
        terms=False skips them and returns None in their place.
        """
        rows, n_rows, starts, _ = self.segments(sub)
        weights, top = _weights(psi[:, :-1].T)
        phi, norm = _phi_rows(_columns(self.eta_rows, rows), _spread(weights, n_rows))
        if not terms:
            return rows, phi, None
        terms = np.add.reduceat(self.counts[rows] * np.log(norm), starts) + self.lengths[sub] * (top - psi[:, -1])
        return rows, phi, terms


def _gamma_step(active, lam, ext, special, phi, terms, warm, zeta, config, step_monitor):
    """One gamma step of every active document at lam > 0, in place.

    phi is phi at ext, and terms the phinorm terms there (see
    _Active.phi_and_norm); only a warm document's term is read.  A
    document not in the mask warm takes newton_step's step at fixed phi.
    A warm one steps on L(gamma), elbo_gamma_part at target zeta plus its
    term: along the exact Newton direction of the Hessian H + D M D of L
    where minus that has a Cholesky factor in t, and of the fixed-phi H
    elsewhere (see _log_newton); that fallback step's line search starts
    lifted (see _newton_rows), so its step size can exceed 1.  Every trial
    point computes phi, and the terms unless no document is warm or near.
    A document whose step is taken in full (step size 1) and is near turns
    warm in warm.  Returns the _Steps, and phi and the terms at each
    document's new gamma.
    """
    lg, psi, psi1, psi2 = special
    colsums = _colsums(phi * active.counts, active.starts)
    target = zeta + colsums
    grad, hess = _grad_hess(ext, target, lam, psi, psi1, psi2)
    candidates = [(slice(None), hess)]
    hot = _subset(warm)
    if hot is not None:
        rows, _, starts, ends = active.segments(hot)
        phi_t = np.ascontiguousarray(phi.T[rows])  # (rows, K): one copy of the warm documents' rows
        curved = hess[hot] + _phi_curvature(psi1[hot, :-1], phi_t, active.counts[rows], colsums[hot], starts, ends)
        candidates.insert(0, (hot, curved))
        target[hot] = zeta  # L is the objective of a warm document, less its phinorm term
    newton = _log_newton(ext[:, :-1], grad, candidates)
    obj0 = _objective(ext, target, lam, psi, lg)
    if hot is not None:
        obj0[hot] += terms[hot]
    new_phi, new_terms = np.empty(phi.shape), np.empty(terms.shape)
    # The terms are read only for warm documents: a step in which no
    # document is warm or near (none can turn warm) skips them.
    track = hot is not None or np.count_nonzero(newton.near) > 0

    def objective(index, t_ext, t_special):
        values = _objective(t_ext, target[index], lam[index], t_special[1], t_special[0])
        rows, new_phi[:, rows], phinorm = active.phi_and_norm(index, t_special[1], track)
        if track:
            new_terms[index] = phinorm
        return values if hot is None else np.where(warm[index], values + phinorm, values)

    steps = _newton_rows(ext, newton, special, obj0, objective, config, step_monitor)
    if np.count_nonzero(steps.alpha) < len(steps.alpha):  # where gamma stays, so do phi and the terms
        failed = steps.alpha == 0.0
        row_failed = failed[active.row_doc]
        new_phi[:, row_failed], new_terms[failed] = phi.compress(row_failed, axis=1), terms[failed]
    if track:
        warm |= (steps.alpha == 1.0) & steps.near
    return steps, new_phi, new_terms


def _phi(prod, phinorm, rows):
    """phi = prod / phinorm in the columns rows (a segments index) of the (K, rows) prod: _phi_rows's bytes."""
    return _columns(prod, rows) / phinorm[rows]


def _sweep_lda(bags, docs, model, config, out):
    """E-step the documents docs of bags at lam = 0 (see _sweep_penalized for out).

    Every sweep takes gamma = max(zeta + phi column sums, GAMMA_FLOOR) in
    the phinorm form: with prod = eta[:, w_r] * exp(E[log theta]) and
    phinorm_r its sum over topics, phi_r = prod_r / phinorm_r, so the
    column sums are those of prod * counts / phinorm and phi itself is not
    formed.  It is formed only where the stop rule or the output reads it:
    for the documents whose gamma moved by less than newton_tol, at this
    sweep and the one before (from its kept prod and phinorm), and for the
    leaving ones.  gamma is C-ordered (K, B), like the row arrays (see
    Layout in the module docstring), and retire reads gamma.T.  A retired
    document stays in the arrays, masked out of the stop rule and of
    retirement, until the retired rows make up COMPACT_SHARE of them; each
    document's columns enter only its own sums, so the masked ones change
    no other document's result.
    """
    K, zeta = model.K, model.zeta[:, None]
    active = _Active(bags, docs, model.eta)
    gamma = zeta + active.lengths / K
    live = np.ones(len(docs), dtype=bool)
    prev = None  # prod and phinorm of the last sweep; phi is uniform before the first
    for sweep in range(config.estep_max_iters):
        prod = active.eta_rows * _spread(_weights(_digamma(gamma))[0], active.n_rows)
        phinorm = _topic_sum(prod)
        if np.count_nonzero(phinorm > 0.0) < len(phinorm):
            raise NumericalError("phi row with no positive mass; eta must be smoothed")
        new_gamma = np.add.reduceat(prod * (active.counts / phinorm), active.starts, axis=1)
        new_gamma += zeta
        np.maximum(new_gamma, GAMMA_FLOOR, out=new_gamma)
        done = live & (np.maximum.reduce(np.abs(new_gamma - gamma), 0) < config.newton_tol)
        gamma = new_gamma
        candidates = _subset(done)
        if candidates is not None:  # and the mean |delta phi| over the document's tokens and topics below phi_tol
            rows, _, starts, _ = active.segments(candidates)
            old_phi = 1.0 / K if prev is None else _phi(*prev, rows)
            change = _topic_sum(np.abs(_phi(prod, phinorm, rows) - old_phi))
            change = np.add.reduceat(change * active.counts[rows], starts)
            done[candidates] = change / (active.lengths[candidates] * float(K)) < config.phi_tol
        prev = prod, phinorm
        leaving = live if sweep == config.estep_max_iters - 1 else done
        if not np.count_nonzero(leaving):
            continue
        row_leaving = leaving[active.row_doc]
        phi = prod.compress(row_leaving, axis=1)
        phi /= phinorm[row_leaving]
        active.retire(leaving, row_leaving, done, gamma.T, phi, out)
        live &= ~leaving
        if not np.count_nonzero(live):
            return
        if np.add.reduce(active.n_rows[~live]) >= COMPACT_SHARE * len(active.rows):
            row_keep = active.keep(live)
            gamma, prev = gamma.compress(live, axis=1), (prod.compress(row_keep, axis=1), phinorm[row_keep])
            live = np.ones(gamma.shape[1], dtype=bool)


def _sweep_penalized(bags, docs, model, lam, config, step_monitor, out):
    """E-step the documents docs of bags, all at lam > 0, their weights lam.

    Writes each document's gamma, phi rows and converged flag into out =
    (gamma, phi, converged) once it converges or the sweep cap ends it.
    Every sweep is one _gamma_step, and a document turns warm once its step
    is taken in full and is near (see _Newton).  phi at the start gamma is
    computed once; after that, each sweep reads phi and the phinorm terms
    from the previous sweep's line search.  The stop rule compares each
    sweep's phi with the last one's, the scalar 1/K before the first sweep,
    as in _sweep_lda.
    """
    K, zeta = model.K, model.zeta
    active = _Active(bags, docs, model.eta)
    ext = _with_sum(zeta + active.lengths[:, None] / K)
    special = _evaluate(ext)
    phi = 1.0 / K
    _, carried, _ = active.phi_and_norm(slice(None), special[1], terms=False)
    terms, warm = np.zeros(len(lam)), np.zeros(len(lam), dtype=bool)  # no term is read before a document is warm
    for sweep in range(config.estep_max_iters):
        old_phi, phi = phi, carried
        steps, carried, terms = _gamma_step(active, lam, ext, special, phi, terms, warm, zeta, config, step_monitor)
        done = steps.move < config.newton_tol
        last = sweep == config.estep_max_iters - 1
        if np.count_nonzero(done):  # and the mean |delta phi| over the document's tokens and topics below phi_tol
            change = np.add.reduceat(_topic_sum(np.abs(phi - old_phi)) * active.counts, active.starts)
            done &= change / (active.lengths * float(K)) < config.phi_tol
            if not (last or np.count_nonzero(done)):
                continue
        elif not last:
            continue
        # A document that stops because its near Newton step moves gamma
        # by less than newton_tol, so the step was not taken, returns the
        # step's end point: within newton_tol of gamma, and stationary.
        g, end = ext[:, :-1], ext[:, :-1] * np.exp(steps.direction)
        short = done & steps.near & (steps.alpha == 0.0) & (np.minimum.reduce(end, 1) >= GAMMA_FLOOR)
        short &= np.maximum.reduce(g * np.abs(steps.direction), 1) < config.newton_tol
        g[short] = end[short]
        leaving = np.ones(len(lam), dtype=bool) if last else done
        row_leaving = leaving[active.row_doc]
        active.retire(leaving, row_leaving, done, g, phi.compress(row_leaving, axis=1), out)
        if np.count_nonzero(leaving) == len(leaving):
            return
        keep = ~leaving
        row_keep = active.keep(keep)
        lam, ext, phi = lam[keep], ext[keep], phi.compress(row_keep, axis=1)
        special, terms, warm = special.compress(keep, axis=1), terms[keep], warm[keep]
        carried = carried.compress(row_keep, axis=1)


def _estep(bags, model, lams, config, step_monitor=None):
    """estep_batch on a bag of words: (gamma (D, K), phi (K, bag rows), converged flags)."""
    D, K = len(bags.lengths), model.K
    lams = _lams(lams, D)
    out = np.empty((D, K)), np.empty((K, len(bags.ids))), np.zeros(D, dtype=bool)
    plain, penalized = (lams == 0.0).nonzero()[0], (lams > 0.0).nonzero()[0]
    if plain.size:
        _sweep_lda(bags, plain, model, config, out)
    if penalized.size:
        _sweep_penalized(bags, penalized, model, lams[penalized], config, step_monitor, out)
    return out


def estep_batch(documents, model, lams, config, step_monitor=None):
    """Fit the variational state of a batch of documents against fixed model parameters.

    Per document, alternates the full phi update with a gamma update until
    both the largest per-coordinate gamma move and the mean absolute phi
    change fall below their tolerances, or estep_max_iters is reached.  At
    lam_d = 0 (plain LDA) gamma has the closed form zeta + phi column sums
    (Blei, Ng & Jordan 2003, eq. 7), clamped at GAMMA_FLOOR and summed in
    the phinorm form, phi formed only where the stop rule or the result
    reads it; at lam_d > 0 it takes one newton_step, until that step is a
    full, exact Newton step moving no log gamma by WARM_STEP; from then on
    the step is on profiled_objective wherever its Hessian is negative
    definite, and elsewhere on the fixed-phi Hessian from a first trial up
    to LIFT_MAX times the full step; a document that stops on a near step
    shorter than newton_tol returns its end point.  At lam_d > 0 phi is
    re-solved inside the line search: each sweep's phi is the one the
    previous sweep's accepted step computed.
    All documents sweep together on one bag of words, phi held once per
    distinct word, and each document's result is the one it gets alone.
    Returns (list of DocVariational, with phi expanded to one row per
    token, and a bool array of converged flags).
    """
    bags = _Bags(documents, model.V)
    gamma, phi, converged = _estep(bags, model, lams, config, step_monitor)
    return bags.expand(gamma, phi), converged


def estep_document(doc, model, lam_d, config, step_monitor=None):
    """The E-step of one document: estep_batch on a batch of one.

    Returns (DocVariational, converged flag).
    """
    per_doc, converged = estep_batch([doc], model, [lam_d], config, step_monitor)
    return per_doc[0], bool(converged[0])


def _mstep(bags, phi, V):
    """eta from the (K, rows) phi of bags: eta_ij ∝ sum_r counts_r phi_ir [ids_r = j]."""
    sstats = np.array([np.bincount(bags.ids, weights=w, minlength=V) for w in phi * bags.counts])
    sstats += ETA_FLOOR
    sstats /= sstats.sum(axis=1, keepdims=True)
    return sstats


def mstep(corpus, phis):
    """Re-estimate eta from phi statistics: eta_ij ∝ sum_d sum_n phi_dni [w_dn = j].

    The accumulator is smoothed additively by ETA_FLOOR before row
    normalization so no entry is exactly zero.
    """
    bags = _Bags(corpus.documents, corpus.n_words, per_token=True)
    return _mstep(bags, np.concatenate(phis).T, corpus.n_words)


def _elbo_terms(bags, phi, gamma, model):
    """Summed (log-likelihood terms, entropy of q) of the documents of bags, penalty excluded.

    phi is (K, rows); each row's phi terms and phi entropy are weighted by
    its count.  Also returns the per-document E[sum theta log theta] for
    the penalty.
    """
    ext = _with_sum(gamma)
    lg, psi = _evaluate(ext)[:2]
    elog = psi[:, :-1] - psi[:, -1:]
    weighted = phi * bags.counts
    zeta = model.zeta

    lg_zeta = _evaluate(_with_sum(zeta[None, :]))[0, 0]  # lnGamma at [zeta | sum zeta]; ModelParams checked zeta
    ll = len(gamma) * (float(lg_zeta[-1]) - float(lg_zeta[:-1].sum()))
    ll += float(((zeta - 1.0) * elog).sum())
    ll += float((weighted * _spread(elog.T, bags.n_rows)).sum())
    ll += float((weighted * np.log(np.take(model.eta, bags.ids, axis=1))).sum())

    ent = -float((lg[:, -1] - lg[:, :-1].sum(axis=1) + ((gamma - 1.0) * elog).sum(axis=1)).sum())
    xlogx = phi * np.log(phi, out=np.zeros(phi.shape), where=phi > 0.0)  # 0 log 0 = 0
    ent -= float((xlogx * bags.counts).sum())
    return ll, ent, _neg_entropy(ext, psi)


def _penalized_elbo(bags, phi, gamma, model, lam):
    """penalized_elbo from the (K, rows) phi of bags and the (D, K) gamma."""
    lam_arr = _lams(lam, len(gamma))
    ll, ent, neg_entropy = _elbo_terms(bags, phi, gamma, model)
    pen = float(np.where(lam_arr != 0.0, lam_arr * neg_entropy, 0.0).sum())
    return ElboBreakdown(ll, ent, pen, ll + ent + pen)


def penalized_elbo(corpus, model, per_doc, lam):
    """Full penalized ELBO over the corpus (phi one row per token), broken into its three parts."""
    bags = _Bags(corpus.documents, corpus.n_words, per_token=True)
    phi = np.concatenate([vp.phi for vp in per_doc]).T
    gamma = np.array([vp.gamma for vp in per_doc], dtype=np.float64)
    with np.errstate(over="ignore"):  # an S that overflows fails the check
        ext = _with_sum(gamma)
    _checked(ext, "penalized_elbo")  # the rows and sums _elbo_terms evaluates
    return _penalized_elbo(bags, phi, gamma, model, lam)


def fit(corpus, config):
    """Run penalized variational EM to convergence.

    Alternates a full E-step over all documents with the eta M-step until
    the relative change of the total penalized ELBO drops below
    config.em_rel_tol, or em_max_iters is reached.  All three read phi per
    row of one bag of words; per_doc holds it expanded per token.
    Deterministic for a fixed config.seed.  A corpus with no documents, or
    with an empty one, is a ValueError.
    """
    config.validate()
    if corpus.n_docs == 0:
        raise ValueError("cannot fit a corpus with no documents")
    lams = config.doc_lams(corpus.n_docs)
    bags = _Bags(corpus.documents, corpus.n_words)
    model = init_model(corpus, config)
    trace = []
    unconverged_trace = []
    prev_total = None
    converged = False
    iterations = 0
    for it in range(config.em_max_iters):
        gamma, phi, estep_converged = _estep(bags, model, lams, config)
        unconverged = int(np.count_nonzero(~estep_converged))
        model.eta = _mstep(bags, phi, model.V)
        breakdown = _penalized_elbo(bags, phi, gamma, model, lams)
        trace.append(breakdown)
        unconverged_trace.append(unconverged)
        iterations = it + 1
        logger.debug("EM iteration %d: elbo %.6f", iterations, breakdown.total)
        logger.info(
            "EM iteration %d: %d of %d E-steps hit estep_max_iters=%d",
            iterations, unconverged, corpus.n_docs, config.estep_max_iters,
        )
        if prev_total is not None:
            rel = abs(breakdown.total - prev_total) / max(abs(prev_total), 1e-12)
            if rel < config.em_rel_tol:
                converged = True
                break
        prev_total = breakdown.total
    return FitResult(model, bags.expand(gamma, phi), trace, iterations, converged, unconverged_trace)


def infer_document(doc, model, lam_d, config):
    """Held-out inference: the document E-step with eta frozen.

    The document must already be encoded against the model vocabulary with
    unknown tokens dropped; a document left empty by that is an error.
    """
    if len(doc) < 1:
        raise ValueError("document %r has no in-vocabulary tokens" % doc.id)
    vp, _ = estep_document(doc, model, lam_d, config)
    return vp


def perplexity(test_corpus, model, config):
    """Bound-based per-word perplexity: exp(-sum_d bound_d / sum_d N_d).

    bound_d is the per-document ELBO with the penalty term excluded,
    evaluated after held-out inference (the penalty weight still shapes the
    inferred gamma when lam > 0).  Empty documents are skipped; the rest
    are inferred as one bag of words, and the bound reads phi per distinct
    word.  Lower is better.
    """
    config.validate()
    kept = [d for d, doc in enumerate(test_corpus.documents) if len(doc) > 0]
    if not kept:
        raise ValueError("perplexity requires a non-empty test corpus")
    lams = config.doc_lams(test_corpus.n_docs)[kept]
    bags = _Bags([test_corpus.documents[d] for d in kept], model.V)
    gamma, phi, _ = _estep(bags, model, lams, config)
    ll, ent, _ = _elbo_terms(bags, phi, gamma, model)
    return math.exp(-(ll + ent) / bags.lengths.sum())

"""Penalized variational EM.

The E-step fits the variational state of a whole batch of documents at
once.  The batch is one CSR bag of words: each document's distinct word
ids and their counts (the layout of Hoffman, Blei & Bach, Online Learning
for LDA, NeurIPS 2010), so phi is computed once per distinct word and its
column sums weight each row by its count.  Every sweep updates phi for all
active documents, then gamma; the entropy penalty enters only the gamma
objective.  At lam = 0 (standard LDA) gamma is closed-form: gamma = zeta +
phi column sums.  Only at lam > 0 does gamma take one joint Newton step
per sweep (newton_step), in t = log gamma: the penalty lifts the dominant
gamma far above the document length, and a step in log gamma scales it by
a factor per sweep where a step in gamma adds a bounded amount.  The log
gamma Hessian is a diagonal plus rank-2 terms, built from gamma_grad_hess;
its eigenvalues are flipped to negative where the objective is not
concave, no coordinate moves by more than LOG_STEP_MAX in log gamma, and
an Armijo backtrack guards the step.  Every
operation acts on each document's rows alone, and a document leaves the
batch once it converges, so its result does not depend on the batch it
shares.  The tests hold the Newton solver at lam = 0 to the same closed
form.  The M-step (a scatter of counts * phi) and the ELBO (phi terms
weighted by counts) read the same rows: fit builds its bag once and expands
phi per token only for the states it returns; perplexity never does.  The
public mstep and penalized_elbo pass each token as a row of count 1.

Objective pieces handled here, for one document with S = sum(gamma):

    L_[gamma] = sum_i (Psi(g_i) - Psi(S)) (zeta_i + colsum_i - g_i)
                - lnGamma(S) + sum_i lnGamma(g_i)
                + lam * (sum_l g_l Psi(g_l)/S - Psi(S) + (K-1)/S)

gamma_grad_hess gives its gradient and Hessian, and the test suite checks
both against central finite differences of this function.
elbo_gamma_part, gamma_grad_hess and newton_step also take a (B, K) batch
of gamma rows, one document per row.
"""

import logging
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .model import DocVariational, init_model
from .specialfn import (
    LGAMMA,
    PSI,
    PSI1,
    PSI2,
    _evaluate,
    digamma,
    log_gamma,
)

logger = logging.getLogger(__name__)

HESS_EPS = 1e-12  # |Hessian eigenvalue| below this counts as numerically zero
LOG_STEP_MAX = 2.0  # largest Newton move of one log gamma coordinate per sweep


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
# value = gamma * exp(step_size * direction), direction in log gamma.
NewtonStep = namedtuple(
    "NewtonStep", "value step_size direction objective_before objective_after"
)


def _weights(psi_g):
    """exp(E[log theta]) per row up to a factor, from psi_g = Psi(gamma).

    phi normalizes the factor away.  Each row is scaled so its largest entry
    is 1: at large K a short document's exp(E[log theta]) can underflow in
    every topic.
    """
    return np.exp(psi_g - psi_g.max(axis=1, keepdims=True))


def _phi_rows(eta_rows, weights):
    """phi rows proportional to eta[:, w] * weights, normalized (see _weights)."""
    phi = eta_rows * weights
    norm = phi.sum(axis=1, keepdims=True)
    if not (norm > 0.0).all():
        raise NumericalError("phi row with no positive mass; eta must be smoothed")
    phi /= norm
    return phi


def update_phi(doc, gamma, model):
    """Closed-form phi update, one row per token: row n ∝ eta[:, w_n] * exp(E[log theta])."""
    return _phi_rows(model.eta[:, doc.tokens].T, _weights(digamma(np.atleast_2d(gamma))))


def _with_sum(g):
    """[g | S]: the (B, K) rows of g with their sums appended as column K."""
    return np.concatenate((g, g.sum(axis=1, keepdims=True)), axis=1)


def _rows(gamma, lam):
    """gamma as (B, K) rows, lam as B checked weights, and whether gamma was one row."""
    g = np.asarray(gamma, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    if np.any(lam < 0):
        raise ValueError("lambda must be >= 0")
    rows = np.atleast_2d(g)
    return rows, np.broadcast_to(lam, rows.shape[:1]), g.ndim == 1


def _neg_entropy(ext, psi):
    """E[sum_i theta_i log theta_i] for each row of ext = [g | S], from psi = Psi(ext)."""
    g, s = ext[:, :-1], ext[:, -1]
    return (g * psi[:, :-1]).sum(axis=1) / s - psi[:, -1] + (g.shape[1] - 1.0) / s


def _objective(ext, target, lam, psi, lg):
    """elbo_gamma_part of each row of ext = [g | S].

    target = zeta + colsums; psi and lg are Psi and lnGamma at ext.
    """
    elog = psi[:, :-1] - psi[:, -1:]
    total = (elog * (target - ext[:, :-1]) + lg[:, :-1]).sum(axis=1) - lg[:, -1]
    return total + lam * _neg_entropy(ext, psi)


def elbo_gamma_part(gamma, zeta, phi_colsums, lam):
    """The gamma-dependent part of the penalized ELBO for one document.

    gamma may also be a (B, K) batch, with colsums (B, K) and lam scalar
    or (B,); the result is then one value per row.
    """
    g, lam, single = _rows(gamma, lam)
    ext = _with_sum(g)
    lg, psi = _evaluate(ext, "elbo_gamma_part", [LGAMMA, PSI])
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
    A = a.sum(axis=1, keepdims=True)
    u = psi_g + g * psi1_g
    s2 = s * s
    c = ((g * psi_g).sum(axis=1, keepdims=True) + (K - 1.0)) / s2
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
    g, lam, single = _rows(gamma, lam)
    ext = _with_sum(g)
    psi, psi1, psi2 = _evaluate(ext, "gamma_grad_hess", [PSI, PSI1, PSI2])
    grad, hess = _grad_hess(ext, zeta + phi_colsums, lam, psi, psi1, psi2)
    return (grad[0], hess[0]) if single else (grad, hess)


def _subset(mask):
    """Index of the True rows of mask: a slice (no copy) when that is all of them, None for none."""
    n = np.count_nonzero(mask)
    if n == len(mask):
        return slice(None)
    return np.flatnonzero(mask) if n else None


def _compose(outer, inner):
    """The index outer[inner], for indices made by _subset."""
    if isinstance(inner, slice):
        return outer
    if isinstance(outer, slice):
        return inner
    return outer[inner]


def _newton_rows(ext, target, lam, special, config, step_monitor):
    """One newton_step on every row of ext = [g | S], in place.

    special = [lnGamma, Psi, Psi', Psi''] at ext, updated along with it,
    so the next sweep reuses the values of the accepted trial.  Returns the
    largest move of each row.
    """
    lg, psi, psi1, psi2 = special
    g = ext[:, :-1].copy()
    grad, hess = _grad_hess(ext, target, lam, psi, psi1, psi2)
    grad *= g  # gradient and Hessian in t = log gamma
    hess *= g[:, :, None] * g[:, None, :]
    hess.reshape(len(g), -1)[:, :: g.shape[1] + 1] += grad
    evals, evecs = np.linalg.eigh(hess)
    scaled = (evecs * grad[:, :, None]).sum(axis=1) / np.maximum(np.abs(evals), HESS_EPS)
    direction = (evecs * scaled[:, None, :]).sum(axis=2)
    direction *= (LOG_STEP_MAX / np.maximum(np.abs(direction).max(axis=1), LOG_STEP_MAX))[:, None]
    step = (g * np.abs(direction)).max(axis=1)  # first-order gamma move
    move = np.zeros(len(step))
    rows = _subset(step >= config.newton_tol)
    if rows is None:
        return move
    g, target, lam, direction, step = g[rows], target[rows], lam[rows], direction[rows], step[rows]
    obj0 = _objective(ext[rows], target, lam, psi[rows], lg[rows])
    slope = (grad[rows] * direction).sum(axis=1)  # >= 0
    decrease = config.armijo_delta * slope
    # Near the optimum of a concave objective the predicted gain falls below
    # the float resolution of L: such a full step skips the value comparison
    # (see newton_step).  eigh sorts the eigenvalues ascending.
    quick = (evals[rows, -1] <= -HESS_EPS) & (0.5 * slope < 1e-11 * (1.0 + np.abs(obj0)))

    alpha = 1.0
    for _ in range(config.max_backtracks):
        trial = g * np.exp(alpha * direction)
        at = _subset(trial.min(axis=1) >= config.gamma_floor)
        if at is not None:
            t_ext = _with_sum(trial[at])
            t_special = _evaluate(t_ext, "newton_step", [LGAMMA, PSI, PSI1, PSI2])
            before = obj0[at]
            after = _objective(t_ext, target[at], lam[at], t_special[1], t_special[0])
            armijo = after >= before + alpha * decrease[at]
            fast = quick[at]
            checked = armijo & ~fast
            lowered = np.flatnonzero(checked & (after < before))
            if lowered.size:
                j = lowered[0]
                raise NumericalError(
                    "accepted Newton step lowered the gamma objective: %r < %r"
                    % (float(after[j]), float(before[j]))
                )
            if step_monitor is not None:
                for j in np.flatnonzero(checked).tolist():
                    step_monitor(NewtonStep(
                        t_ext[j, :-1], alpha, direction[at][j], float(before[j]), float(after[j])
                    ))
            took = _subset(armijo | fast)
            if took is not None:
                done = _compose(at, took)
                moved = np.abs(trial[done] - g[done]).max(axis=1)
                into = _compose(rows, done)
                move[into] = np.where(fast[took], step[done], moved)
                ext[into] = t_ext[took]
                for arr, new in zip(special, t_special):
                    arr[into] = new[took]
                if isinstance(done, slice):
                    break
                left = np.ones(len(g), dtype=bool)
                left[done] = False
                left = np.flatnonzero(left)
                rows = _compose(rows, left)
                g, target, lam, direction, step = g[left], target[left], lam[left], direction[left], step[left]
                obj0, decrease = obj0[left], decrease[left]
        quick = np.zeros(len(g), dtype=bool)
        alpha *= config.backtrack_rho
    return move


def newton_step(gamma, zeta, phi_colsums, lam, config, step_monitor=None):
    """One guarded joint Newton ascent step on elbo_gamma_part, in t = log gamma.

    In t the gradient is g_t = gamma * grad and the Hessian is H_t =
    diag(gamma) H diag(gamma) + diag(g_t), so the stationary points are
    those of gamma.  The direction is the eigenvalue-modified Newton step
    (Nocedal & Wright, Numerical Optimization, 2006, sec. 3.4): with H_t =
    V diag(e) V^T, d = V diag(1 / max(|e_i|, HESS_EPS)) V^T g_t.  Where H_t
    is negative definite this is the exact Newton step -H_t^{-1} g_t; where
    it is not, d is still an ascent direction.  d is scaled down so that
    max |d| <= LOG_STEP_MAX: without that bound a short document's dominant
    gamma can overshoot to ~1e19, where Psi(g_k) - Psi(S) is rounding noise.
    The trial point is gamma * exp(alpha d); alpha backtracks from 1 by
    backtrack_rho until the Armijo condition holds and every coordinate
    stays >= gamma_floor.  No step is taken when the first-order gamma move
    max gamma |d| < newton_tol.

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
    g, lam, single = _rows(gamma, lam)
    ext = _with_sum(g)
    special = _evaluate(ext, "newton_step", [LGAMMA, PSI, PSI1, PSI2])
    target = np.broadcast_to(zeta + phi_colsums, g.shape)
    move = _newton_rows(ext, target, lam, special, config, step_monitor)
    return (ext[0, :-1], float(move[0])) if single else (ext[:, :-1], move)


class _Bags:
    """A batch of documents as rows: document doc[r], word id ids[r], count counts[r].

    Rows are sorted by document.  By default they are the bag of words, one
    row per distinct word of a document: document d owns n_rows[d] rows,
    and token_rows maps every token, documents concatenated, to its row.
    per_token=True makes every token a row of count 1 (the public mstep
    and penalized_elbo); the M-step and the ELBO read either layout.
    """

    def __init__(self, documents, V, per_token=False):
        self.lengths = np.array([len(doc) for doc in documents], dtype=np.int64)
        tokens = np.concatenate([doc.tokens for doc in documents]) if documents else self.lengths
        if tokens.size and (tokens.min() < 0 or tokens.max() >= V):
            raise ValueError("word ids must lie in [0, %d)" % V)
        doc = np.repeat(np.arange(len(documents), dtype=np.int64), self.lengths)
        if per_token:
            self.doc, self.ids, self.counts = doc, tokens, np.ones(len(tokens))
            return
        if self.lengths.size and self.lengths.min() < 1:
            empty = documents[int(np.argmin(self.lengths))]
            raise ValueError("cannot run the E-step on empty document %r" % empty.id)
        uniq, self.token_rows, counts = np.unique(doc * V + tokens, return_inverse=True, return_counts=True)
        self.ids = uniq % V
        self.doc = uniq // V
        self.counts = counts.astype(np.float64)
        self.n_rows = np.bincount(self.doc, minlength=len(documents))

    def expand(self, gamma, phi):
        """One DocVariational per document, its phi rows expanded to one per token."""
        token_phi = phi[self.token_rows]
        ends = np.concatenate(([0], np.cumsum(self.lengths)))
        return [DocVariational(gamma[d].copy(), token_phi[ends[d] : ends[d + 1]]) for d in range(len(gamma))]


def _sweep_group(bags, group, model, lams, config, step_monitor, gamma_out, phi_out, converged):
    """E-step the documents of bags in the mask group: all lam = 0 or all lam > 0.

    Writes each document's gamma, phi rows and converged flag into the
    output arrays once it converges or the sweep cap ends it.
    """
    K = model.K
    zeta = model.zeta
    docs = np.flatnonzero(group)
    penalized = bool(lams[docs[0]] > 0.0)
    lam = lams[docs]
    n_rows = bags.n_rows[docs]
    rows = np.flatnonzero(group[bags.doc])
    eta_rows, counts = model.eta.T[bags.ids[rows]], bags.counts[rows]
    row_doc = np.repeat(np.arange(len(docs)), n_rows)
    starts = np.cumsum(n_rows) - n_rows
    norm = bags.lengths[docs] * float(K)

    ext = _with_sum(zeta + bags.lengths[docs][:, None] / K)
    if penalized:
        special = _evaluate(ext, "estep", [LGAMMA, PSI, PSI1, PSI2])
        psi = special[1]
    else:
        psi = digamma(ext)
    phi = np.full((len(rows), K), 1.0 / K)
    for sweep in range(config.estep_max_iters):
        weights = _weights(psi[:, :-1])
        new_phi = _phi_rows(eta_rows, weights[row_doc] if len(docs) > 1 else weights)
        colsums = np.add.reduceat(new_phi * counts[:, None], starts, axis=0)
        phi_change = np.add.reduceat(np.abs(new_phi - phi).sum(axis=1) * counts, starts) / norm
        phi = new_phi
        target = zeta + colsums
        if penalized:
            max_move = _newton_rows(ext, target, lam, special, config, step_monitor)
        else:
            new_gamma = np.maximum(target, config.gamma_floor)
            max_move = np.abs(new_gamma - ext[:, :-1]).max(axis=1)
            ext = _with_sum(new_gamma)
            psi = digamma(ext)
        done = (max_move < config.newton_tol) & (phi_change < config.phi_tol)
        last = sweep == config.estep_max_iters - 1
        if not (last or done.any()):
            continue
        leaving = np.ones(len(docs), dtype=bool) if last else done
        row_leaving = leaving[row_doc]
        gamma_out[docs[leaving]] = ext[leaving, :-1]
        phi_out[rows[row_leaving]] = phi[row_leaving]
        converged[docs[done]] = True
        if last or done.all():
            break
        keep, row_keep = ~leaving, ~row_leaving
        docs, lam, n_rows, norm = docs[keep], lam[keep], n_rows[keep], norm[keep]
        ext = ext[keep]
        if penalized:
            special = [arr[keep] for arr in special]
            psi = special[1]
        else:
            psi = psi[keep]
        rows, eta_rows, counts, phi = rows[row_keep], eta_rows[row_keep], counts[row_keep], phi[row_keep]
        row_doc = np.repeat(np.arange(len(docs)), n_rows)
        starts = np.cumsum(n_rows) - n_rows


def _estep(bags, model, lams, config, step_monitor=None):
    """estep_batch on a bag of words: (gamma (D, K), phi per bag row, converged flags)."""
    lams = np.asarray(lams, dtype=np.float64).reshape(len(bags.lengths))
    if not np.all(lams >= 0.0):
        raise ValueError("lambda must be >= 0")
    gamma = np.empty((len(bags.lengths), model.K))
    phi = np.empty((len(bags.ids), model.K))
    converged = np.zeros(len(bags.lengths), dtype=bool)
    for group in (lams == 0.0, lams > 0.0):
        if group.any():
            _sweep_group(bags, group, model, lams, config, step_monitor, gamma, phi, converged)
    return gamma, phi, converged


def estep_batch(documents, model, lams, config, step_monitor=None):
    """Fit the variational state of a batch of documents against fixed model parameters.

    Per document, alternates the full phi update with a gamma update until
    both the largest per-coordinate gamma move and the mean absolute phi
    change fall below their tolerances, or estep_max_iters is reached.  At
    lam_d = 0 (plain LDA) gamma has the closed form zeta + phi column sums
    (Blei, Ng & Jordan 2003, eq. 7), clamped at gamma_floor; at lam_d > 0
    it takes one newton_step.  All documents sweep together on one bag of
    words, phi held once per distinct word, and each document's result is
    the one it gets alone.  Returns (list of DocVariational, with phi
    expanded to one row per token, and a bool array of converged flags).
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


def _mstep(bags, phi, V, eta_floor):
    """eta from the phi rows of bags: eta_ij ∝ sum_r counts_r phi_ri [ids_r = j]."""
    sstats = np.zeros((phi.shape[1], V))
    np.add.at(sstats.T, bags.ids, phi * bags.counts[:, None])
    sstats += eta_floor
    sstats /= sstats.sum(axis=1, keepdims=True)
    return sstats


def mstep(corpus, phis, eta_floor=1e-12):
    """Re-estimate eta from phi statistics: eta_ij ∝ sum_d sum_n phi_dni [w_dn = j].

    The accumulator is smoothed additively by eta_floor before row
    normalization so no entry is exactly zero.
    """
    bags = _Bags(corpus.documents, corpus.n_words, per_token=True)
    return _mstep(bags, np.concatenate(phis), corpus.n_words, eta_floor)


def _xlogx(arr):
    return np.where(arr > 0, arr * np.log(np.where(arr > 0, arr, 1.0)), 0.0)


def _elbo_terms(bags, phi, gamma, model):
    """Summed (log-likelihood terms, entropy of q) of the documents of bags, penalty excluded.

    Each row's phi terms and phi entropy are weighted by its count.  Also
    returns the per-document E[sum theta log theta] for the penalty.
    """
    ext = _with_sum(gamma)
    lg, psi = _evaluate(ext, "penalized_elbo", [LGAMMA, PSI])
    elog = psi[:, :-1] - psi[:, -1:]
    counts = bags.counts[:, None]
    weighted = phi * counts
    zeta = model.zeta

    ll = len(gamma) * (log_gamma(zeta.sum()) - log_gamma(zeta).sum())
    ll += float(((zeta - 1.0) * elog).sum())
    ll += float((weighted * elog[bags.doc]).sum())
    ll += float((weighted * np.log(model.eta[:, bags.ids].T)).sum())

    ent = -float((lg[:, -1] - lg[:, :-1].sum(axis=1) + ((gamma - 1.0) * elog).sum(axis=1)).sum())
    ent -= float((_xlogx(phi) * counts).sum())
    return ll, ent, _neg_entropy(ext, psi)


def _penalized_elbo(bags, phi, gamma, model, lam):
    """penalized_elbo from the phi rows of bags and the (D, K) gamma."""
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    if lam_arr.shape[0] not in (1, len(gamma)):
        raise ValueError("lambda must be scalar or one weight per document")
    ll, ent, neg_entropy = _elbo_terms(bags, phi, gamma, model)
    pen = float(np.where(lam_arr != 0.0, lam_arr * neg_entropy, 0.0).sum())
    return ElboBreakdown(ll, ent, pen, ll + ent + pen)


def penalized_elbo(corpus, model, per_doc, lam):
    """Full penalized ELBO over the corpus (phi one row per token), broken into its three parts."""
    bags = _Bags(corpus.documents, corpus.n_words, per_token=True)
    phi = np.concatenate([vp.phi for vp in per_doc])
    return _penalized_elbo(bags, phi, np.array([vp.gamma for vp in per_doc]), model, lam)


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
    config.check_lam_length(corpus.n_docs)
    bags = _Bags(corpus.documents, corpus.n_words)
    model = init_model(corpus, config)
    lams = [config.lam_for_doc(d) for d in range(corpus.n_docs)]
    trace = []
    unconverged_trace = []
    prev_total = None
    converged = False
    iterations = 0
    for it in range(config.em_max_iters):
        gamma, phi, estep_converged = _estep(bags, model, lams, config)
        unconverged = int(np.count_nonzero(~estep_converged))
        model.eta = _mstep(bags, phi, model.V, config.eta_floor)
        breakdown = _penalized_elbo(bags, phi, gamma, model, config.lam)
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
    config.check_lam_length(test_corpus.n_docs)
    bags = _Bags([test_corpus.documents[d] for d in kept], model.V)
    gamma, phi, _ = _estep(bags, model, [config.lam_for_doc(d) for d in kept], config)
    ll, ent, _ = _elbo_terms(bags, phi, gamma, model)
    return math.exp(-(ll + ent) / bags.lengths.sum())


# ---------------------------------------------------------------------------
# Fit artifacts


def write_gamma_tsv(corpus, per_doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        for doc, vp in zip(corpus.documents, per_doc):
            vals = "\t".join("%.17g" % v for v in vp.gamma)
            fh.write("%s\t%s\n" % (doc.id, vals))


def read_gamma_tsv(path):
    ids, rows = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            ids.append(parts[0])
            rows.append([float(v) for v in parts[1:]])
    if not rows:
        raise ValueError("gamma file %s holds no rows" % path)
    return ids, np.asarray(rows)


def write_elbo_trace_csv(trace, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iteration,ll_terms,q_entropy,penalty,total\n")
        for it, bd in enumerate(trace, start=1):
            fh.write(
                "%d,%.17g,%.17g,%.17g,%.17g\n"
                % (it, bd.log_likelihood_terms, bd.entropy_of_q, bd.penalty_term, bd.total)
            )

"""Penalized variational EM.

Per document, the E-step alternates a closed-form update of the word
assignment probabilities phi with an update of the Dirichlet parameter
gamma; the entropy penalty enters only the gamma objective.  lam = 0
reduces everything to standard LDA, where gamma is closed-form as well:
gamma = zeta + phi column sums.  Only at lam > 0 does gamma take one
joint Newton step per phi update (newton_step): the Hessian is a diagonal
plus rank-2 terms (gamma_grad_hess), its eigenvalues are flipped to
negative where the objective is not concave, and an Armijo backtrack
guards the step.  The tests hold that solver at lam = 0 to the same closed
form.  The M-step re-estimates the topic rows from the accumulated phi
statistics.

Objective pieces handled here, for one document with S = sum(gamma):

    L_[gamma] = sum_i (Psi(g_i) - Psi(S)) (zeta_i + colsum_i - g_i)
                - lnGamma(S) + sum_i lnGamma(g_i)
                + lam * (sum_l g_l Psi(g_l)/S - Psi(S) + (K-1)/S)

gamma_grad_hess gives its gradient and Hessian; grad_gamma /
hess_gamma_diag read one coordinate of them, and the test suite checks all
three against central finite differences of this function.
"""

import logging
import math
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import DocVariational, init_model
from .specialfn import (
    _lgamma,
    _psi,
    _psi1,
    _psi2,
    digamma,
    expected_log_theta,
    expected_neg_entropy,
    tetragamma,
    trigamma,
)

logger = logging.getLogger(__name__)

HESS_EPS = 1e-12  # |Hessian eigenvalue| below this counts as numerically zero


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


# One step accepted by newton_step's line search, as passed to step_monitor.
NewtonStep = namedtuple(
    "NewtonStep", "value step_size direction objective_before objective_after"
)


def update_phi(doc, gamma, model, _log_eta_tokens=None):
    """Closed-form phi update: row n proportional to eta[:, w_n] * exp(E[log theta]).

    Computed in log space and normalized per row.  _log_eta_tokens is a
    performance hook: log(eta[:, doc.tokens].T) precomputed once per E-step
    instead of re-sliced every sweep.
    """
    elog = expected_log_theta(gamma)
    if _log_eta_tokens is None:
        _log_eta_tokens = np.log(model.eta[:, doc.tokens].T)
    logphi = _log_eta_tokens + elog
    peak = logphi.max(axis=1, keepdims=True)
    if not np.all(np.isfinite(peak)):
        raise NumericalError("phi row with no positive mass; eta must be smoothed")
    phi = np.exp(logphi - peak)
    phi /= phi.sum(axis=1, keepdims=True)
    return phi


def elbo_gamma_part(gamma, zeta, phi_colsums, lam):
    """The gamma-dependent part of the penalized ELBO for one document."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    gl = np.asarray(gamma, dtype=np.float64).tolist()
    zl = np.asarray(zeta, dtype=np.float64).tolist()
    cl = np.asarray(phi_colsums, dtype=np.float64).tolist()
    s = math.fsum(gl)
    psi_s = _psi(s)
    total = -_lgamma(s)
    gpsi = 0.0
    for gi, zi, ci in zip(gl, zl, cl):
        psi_gi = _psi(gi)
        total += (psi_gi - psi_s) * (zi + ci - gi) + _lgamma(gi)
        gpsi += gi * psi_gi
    if lam != 0.0:
        total += lam * (gpsi / s - psi_s + (len(gl) - 1.0) / s)
    return total


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
    1 1^T and (u 1^T + 1 u^T).
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    g = np.asarray(gamma, dtype=np.float64)
    K = g.shape[0]
    a = np.asarray(zeta, dtype=np.float64) + np.asarray(phi_colsums, dtype=np.float64) - g
    s = math.fsum(g.tolist())
    A = math.fsum(a.tolist())
    psi1_g, psi2_g = trigamma(g), tetragamma(g)
    psi1_s, psi2_s = _psi1(s), _psi2(s)
    grad = psi1_g * a - psi1_s * A
    diag = psi2_g * a - psi1_g
    common = psi1_s - psi2_s * A
    if lam == 0.0:
        return grad, np.diag(diag) + common
    psi_g = digamma(g)
    u = psi_g + g * psi1_g
    c = (float(np.dot(g, psi_g)) + K - 1.0) / (s * s)
    grad = grad + lam * (u / s - c - psi1_s)
    diag = diag + lam * (2.0 * psi1_g + g * psi2_g) / s
    common += lam * (2.0 * c / s - psi2_s)
    hess = np.diag(diag) + common - (lam / (s * s)) * (u[:, None] + u[None, :])
    return grad, hess


def grad_gamma(gamma, zeta, phi_colsums, lam, i):
    """First partial of elbo_gamma_part in coordinate i."""
    return float(gamma_grad_hess(gamma, zeta, phi_colsums, lam)[0][i])


def hess_gamma_diag(gamma, zeta, phi_colsums, lam, i):
    """Second partial of elbo_gamma_part in coordinate i (diagonal term)."""
    return float(gamma_grad_hess(gamma, zeta, phi_colsums, lam)[1][i, i])


def newton_step(gamma, zeta, phi_colsums, lam, config, step_monitor=None):
    """One guarded joint Newton ascent step on elbo_gamma_part.

    The direction is the eigenvalue-modified Newton step (Nocedal & Wright,
    Numerical Optimization, 2006, sec. 3.4): with H = V diag(e) V^T,
    d = V diag(1 / max(|e_i|, HESS_EPS)) V^T grad.  Where H is negative
    definite this is the exact Newton step -H^{-1} grad; where it is not, d
    is still an ascent direction.  The step size backtracks from 1 by
    backtrack_rho until the Armijo condition holds and every coordinate
    stays >= gamma_floor.  No step is taken when max |d| < newton_tol.

    Near the optimum of a concave H the predicted gain 0.5 grad^T d falls
    below the float resolution of L itself while the position error can
    still be ~1e-5, so a value comparison there is noise: such a step is
    taken on gradient evidence alone and is not passed to step_monitor.
    Every step accepted by the line search is.  Returns the new gamma and
    the largest per-coordinate move (0.0 when no step is taken).  Raises
    NumericalError if an accepted step lowered the objective.
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    grad, hess = gamma_grad_hess(gamma, zeta, phi_colsums, lam)
    evals, evecs = np.linalg.eigh(hess)
    direction = evecs @ ((evecs.T @ grad) / np.maximum(np.abs(evals), HESS_EPS))
    if float(np.abs(direction).max()) < config.newton_tol:
        return gamma, 0.0

    obj0 = elbo_gamma_part(gamma, zeta, phi_colsums, lam)
    slope = float(grad @ direction)  # >= 0
    trial = gamma + direction
    if (
        evals[-1] <= -HESS_EPS  # eigh sorts ascending: H is negative definite
        and 0.5 * slope < 1e-11 * (1.0 + abs(obj0))
        and float(trial.min()) >= config.gamma_floor
    ):
        return trial, float(np.abs(direction).max())

    decrease = config.armijo_delta * slope
    alpha = 1.0
    for _ in range(config.max_backtracks):
        trial = gamma + alpha * direction
        if float(trial.min()) >= config.gamma_floor:
            obj_t = elbo_gamma_part(trial, zeta, phi_colsums, lam)
            if obj_t >= obj0 + alpha * decrease:
                if obj_t < obj0:
                    raise NumericalError(
                        "accepted Newton step lowered the gamma objective: %r < %r"
                        % (obj_t, obj0)
                    )
                if step_monitor is not None:
                    step_monitor(NewtonStep(trial, alpha, direction, obj0, obj_t))
                return trial, float(np.abs(trial - gamma).max())
        alpha *= config.backtrack_rho
    return gamma, 0.0


def estep_document(doc, model, lam_d, config, step_monitor=None):
    """Fit the variational state of one document against fixed model parameters.

    Alternates the full phi update with a gamma update until both the
    largest per-coordinate gamma move and the mean absolute phi change fall
    below their tolerances, or estep_max_iters is reached.  At lam_d = 0
    (plain LDA) gamma has the closed form zeta + phi column sums (Blei, Ng &
    Jordan 2003, eq. 7), clamped at gamma_floor; at lam_d > 0 it takes one
    newton_step.  Returns (DocVariational, converged flag).
    """
    n = len(doc)
    if n < 1:
        raise ValueError("cannot run the E-step on an empty document")
    K = model.K
    zeta = model.zeta
    gamma = zeta + n / K
    phi = np.full((n, K), 1.0 / K)
    log_eta_tok = np.log(model.eta[:, doc.tokens].T)

    converged = False
    for _ in range(config.estep_max_iters):
        new_phi = update_phi(doc, gamma, model, _log_eta_tokens=log_eta_tok)
        phi_change = float(np.abs(new_phi - phi).mean())
        phi = new_phi
        colsums = phi.sum(axis=0)

        if lam_d == 0.0:
            new_gamma = np.maximum(zeta + colsums, config.gamma_floor)
            max_move = float(np.abs(new_gamma - gamma).max())
            gamma = new_gamma
        else:
            gamma, max_move = newton_step(
                gamma, zeta, colsums, lam_d, config, step_monitor
            )
        if max_move < config.newton_tol and phi_change < config.phi_tol:
            converged = True
            break
    return DocVariational(gamma, phi), converged


def mstep(corpus, phis, eta_floor=1e-12):
    """Re-estimate eta from phi statistics: eta_ij ∝ sum_d sum_n phi_dni [w_dn = j].

    The accumulator is smoothed additively by eta_floor before row
    normalization so no entry is exactly zero.
    """
    K = phis[0].shape[1]
    sstats = np.zeros((K, corpus.n_words))
    for doc, phi in zip(corpus.documents, phis):
        np.add.at(sstats.T, doc.tokens, phi)
    sstats += eta_floor
    sstats /= sstats.sum(axis=1, keepdims=True)
    return sstats


def _xlogx(arr):
    return np.where(arr > 0, arr * np.log(np.where(arr > 0, arr, 1.0)), 0.0)


def _doc_elbo_terms(doc, model, vp):
    """(log-likelihood terms, entropy of q) for one document, penalty excluded."""
    gl = vp.gamma.tolist()
    s = math.fsum(gl)
    psi_s = _psi(s)
    elog = np.array([_psi(g) - psi_s for g in gl])
    zl = model.zeta.tolist()
    colsums = vp.phi.sum(axis=0)

    ll = _lgamma(math.fsum(zl)) - math.fsum(_lgamma(z) for z in zl)
    ll += float(np.dot(model.zeta - 1.0, elog))
    ll += float(np.dot(colsums, elog))
    ll += float(np.sum(vp.phi * np.log(model.eta[:, doc.tokens].T)))

    ent = -(
        _lgamma(s)
        - math.fsum(_lgamma(g) for g in gl)
        + float(np.dot(vp.gamma - 1.0, elog))
    )
    ent -= float(np.sum(_xlogx(vp.phi)))
    return ll, ent


def penalized_elbo(corpus, model, per_doc, lam):
    """Full penalized ELBO over the corpus, broken into its three parts."""
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    if lam_arr.shape[0] not in (1, corpus.n_docs):
        raise ValueError("lambda must be scalar or one weight per document")
    ll_total, ent_total, pen_total = 0.0, 0.0, 0.0
    for d, (doc, vp) in enumerate(zip(corpus.documents, per_doc)):
        ll, ent = _doc_elbo_terms(doc, model, vp)
        ll_total += ll
        ent_total += ent
        lam_d = float(lam_arr[0] if lam_arr.shape[0] == 1 else lam_arr[d])
        if lam_d != 0.0:
            pen_total += lam_d * expected_neg_entropy(vp.gamma)
    return ElboBreakdown(ll_total, ent_total, pen_total, ll_total + ent_total + pen_total)


def _estep_chunk(docs, lams, model, config):
    return [estep_document(doc, model, lam, config) for doc, lam in zip(docs, lams)]


def _estep_corpus(corpus, model, config, n_workers):
    """E-step every document; returns (per-document states, unconverged count)."""
    docs = corpus.documents
    lams = [config.lam_for_doc(d) for d in range(len(docs))]
    if n_workers <= 1 or len(docs) < 2 * n_workers:
        results = _estep_chunk(docs, lams, model, config)
    else:
        # Documents are independent, so farming chunks out to worker
        # processes and flattening in document order gives results identical
        # to the serial path regardless of worker count.
        bounds = np.array_split(np.arange(len(docs)), n_workers)
        results = []
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            futures = [
                pool.submit(
                    _estep_chunk,
                    [docs[i] for i in idx],
                    [lams[i] for i in idx],
                    model,
                    config,
                )
                for idx in bounds
                if len(idx)
            ]
            for fut in futures:
                results.extend(fut.result())
    per_doc = [vp for vp, _ in results]
    unconverged = sum(1 for _, converged in results if not converged)
    return per_doc, unconverged


def fit(corpus, config, n_workers=1):
    """Run penalized variational EM to convergence.

    Alternates a full E-step over all documents with the eta M-step until
    the relative change of the total penalized ELBO drops below
    config.em_rel_tol, or em_max_iters is reached.  Deterministic for a
    fixed config.seed and fixed n_workers.
    """
    config.validate()
    config.check_lam_length(corpus.n_docs)
    for doc in corpus.documents:
        if len(doc) < 1:
            raise ValueError("training document %r is empty" % doc.id)
    model = init_model(corpus, config)
    trace = []
    unconverged_trace = []
    prev_total = None
    converged = False
    iterations = 0
    for it in range(config.em_max_iters):
        per_doc, unconverged = _estep_corpus(corpus, model, config, n_workers)
        model.eta = mstep(corpus, [vp.phi for vp in per_doc], config.eta_floor)
        breakdown = penalized_elbo(corpus, model, per_doc, config.lam)
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
    return FitResult(model, per_doc, trace, iterations, converged, unconverged_trace)


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
    inferred gamma when lam > 0).  Lower is better.
    """
    config.validate()
    docs = [doc for doc in test_corpus.documents if len(doc) > 0]
    if not docs:
        raise ValueError("perplexity requires a non-empty test corpus")
    config.check_lam_length(test_corpus.n_docs)
    bound_total = 0.0
    n_words = 0
    for d, doc in enumerate(test_corpus.documents):
        if len(doc) == 0:
            continue
        vp, _ = estep_document(doc, model, config.lam_for_doc(d), config)
        ll, ent = _doc_elbo_terms(doc, model, vp)
        bound_total += ll + ent
        n_words += len(doc)
    return math.exp(-bound_total / n_words)


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

"""Penalized variational EM.

Per document, the E-step alternates a closed-form update of the word
assignment probabilities phi with an update of the Dirichlet parameter
gamma; the entropy penalty enters only the gamma objective.  lam = 0
reduces everything to standard LDA, where gamma is closed-form as well:
gamma = zeta + phi column sums.  Only at lam > 0 is gamma found by
coordinate-wise Newton updates plus a ridge line search (newton_sweep);
the tests hold that solver at lam = 0 to the same closed form.  The M-step
re-estimates the topic rows from the accumulated phi statistics.

Objective pieces handled here, for one document with S = sum(gamma):

    L_[gamma] = sum_i (Psi(g_i) - Psi(S)) (zeta_i + colsum_i - g_i)
                - lnGamma(S) + sum_i lnGamma(g_i)
                + lam * (sum_l g_l Psi(g_l)/S - Psi(S) + (K-1)/S)

grad_gamma / hess_gamma_diag are its first and second partials in one
coordinate; both are checked against central finite differences of this
function in the test suite.
"""

import logging
import math
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import DocVariational, init_model
from .specialfn import _lgamma, _psi, _psi1, _psi2, expected_log_theta, expected_neg_entropy

logger = logging.getLogger(__name__)

HESS_EPS = 1e-12  # |L''| below this counts as numerically zero


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


NewtonStep = namedtuple(
    "NewtonStep",
    "value stepped stalled step_size direction objective_before objective_after",
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


class _GammaObjective:
    """L_[gamma] for one document, with O(1) single-coordinate re-evaluation.

    Keeps running sums over coordinates (S, A = sum a_i with
    a_i = zeta_i + colsum_i - gamma_i, P = sum Psi(g_i) a_i,
    G = sum lnGamma(g_i), gpsi = sum g_i Psi(g_i)) so that trial values,
    partials, and committed coordinate updates cost a handful of special
    function calls instead of a full pass.  The public elbo_gamma_part /
    grad_gamma / hess_gamma_diag wrappers below are the plain-reference
    spellings of the same algebra; the test suite pins the two against each
    other and against finite differences.  Instances are rebuilt each sweep
    (colsums change anyway), so incremental drift never accumulates.
    """

    __slots__ = ("z", "c", "lam", "K", "g", "psi_g", "lg_g", "s", "A", "P", "G", "gpsi")

    def __init__(self, gamma, zeta, phi_colsums, lam):
        if lam < 0:
            raise ValueError("lambda must be >= 0")
        self.g = np.asarray(gamma, dtype=np.float64).tolist()
        self.z = np.asarray(zeta, dtype=np.float64).tolist()
        self.c = np.asarray(phi_colsums, dtype=np.float64).tolist()
        self.lam = lam
        self.K = len(self.g)
        self.psi_g = [_psi(g) for g in self.g]
        self.lg_g = [_lgamma(g) for g in self.g]
        self.s = math.fsum(self.g)
        self.A = math.fsum(z + c - g for g, z, c in zip(self.g, self.z, self.c))
        self.P = math.fsum(
            p * (z + c - g) for g, z, c, p in zip(self.g, self.z, self.c, self.psi_g)
        )
        self.G = math.fsum(self.lg_g)
        self.gpsi = math.fsum(g * p for g, p in zip(self.g, self.psi_g))

    def _total(self, s, A, P, G, gpsi):
        val = P - _psi(s) * A - _lgamma(s) + G
        if self.lam != 0.0:
            val += self.lam * (gpsi / s - _psi(s) + (self.K - 1.0) / s)
        return val

    def value(self):
        return self._total(self.s, self.A, self.P, self.G, self.gpsi)

    def value_with(self, i, x):
        """Objective with coordinate i replaced by x; nothing is committed."""
        gi, psi_x = self.g[i], _psi(x)
        a_old = self.z[i] + self.c[i] - gi
        a_new = self.z[i] + self.c[i] - x
        return self._total(
            self.s + (x - gi),
            self.A - (x - gi),
            self.P - self.psi_g[i] * a_old + psi_x * a_new,
            self.G - self.lg_g[i] + _lgamma(x),
            self.gpsi - gi * self.psi_g[i] + x * psi_x,
        )

    def set(self, i, x):
        """Commit coordinate i := x, updating the running sums."""
        gi, psi_x, lg_x = self.g[i], _psi(x), _lgamma(x)
        a_old = self.z[i] + self.c[i] - gi
        self.s += x - gi
        self.A -= x - gi
        self.P += psi_x * (a_old - (x - gi)) - self.psi_g[i] * a_old
        self.G += lg_x - self.lg_g[i]
        self.gpsi += x * psi_x - gi * self.psi_g[i]
        self.g[i], self.psi_g[i], self.lg_g[i] = x, psi_x, lg_x

    def grad(self, i):
        gi = self.g[i]
        a_i = self.z[i] + self.c[i] - gi
        psi1_gi, psi1_s = _psi1(gi), _psi1(self.s)
        val = psi1_gi * a_i - psi1_s * self.A
        if self.lam != 0.0:
            s = self.s
            val += self.lam * (
                (self.psi_g[i] + gi * psi1_gi) / s
                - self.gpsi / (s * s)
                - psi1_s
                - (self.K - 1.0) / (s * s)
            )
        return val

    def hess(self, i):
        gi = self.g[i]
        a_i = self.z[i] + self.c[i] - gi
        s = self.s
        psi1_gi, psi2_gi = _psi1(gi), _psi2(gi)
        val = psi2_gi * a_i - psi1_gi - _psi2(s) * self.A + _psi1(s)
        if self.lam != 0.0:
            val += self.lam * (
                (2.0 * psi1_gi + gi * psi2_gi) / s
                - 2.0 * (self.psi_g[i] + gi * psi1_gi) / (s * s)
                + 2.0 * (self.K - 1.0 + self.gpsi) / (s * s * s)
                - _psi2(s)
            )
        return val

    def slope_along(self, d):
        """Directional derivative sum_i d_i * dL/dgamma_i in one pass."""
        psi1_s = _psi1(self.s)
        total = 0.0
        lam_common = 0.0
        if self.lam != 0.0:
            s = self.s
            lam_common = -self.gpsi / (s * s) - psi1_s - (self.K - 1.0) / (s * s)
        for i in range(self.K):
            gi = self.g[i]
            psi1_gi = _psi1(gi)
            val = psi1_gi * (self.z[i] + self.c[i] - gi) - psi1_s * self.A
            if self.lam != 0.0:
                val += self.lam * ((self.psi_g[i] + gi * psi1_gi) / self.s + lam_common)
            total += float(d[i]) * val
        return total

    def curv_along(self, d):
        """Second directional derivative d^T H d in one pass.

        The Hessian splits into a diagonal plus terms built from outer
        products of 1 and u_i = Psi(g_i) + g_i Psi'(g_i):

            H_ij = delta_ij (Psi''(g_i) a_i - Psi'(g_i))
                   + Psi'(S) - Psi''(S) A
                   + lam [ delta_ij u_i'/S - (u_i + u_j)/S^2
                           + (2 (gpsi + K - 1)/S^3 - Psi''(S)) ]

        with u_i' = 2 Psi'(g_i) + g_i Psi''(g_i), so the quadratic form
        needs only sum d_i, sum d_i u_i, and two per-coordinate passes.
        """
        s = self.s
        d_sum = 0.0
        diag = 0.0
        du = 0.0
        for i in range(self.K):
            gi = self.g[i]
            di = float(d[i])
            psi1_gi, psi2_gi = _psi1(gi), _psi2(gi)
            d_sum += di
            diag += di * di * (psi2_gi * (self.z[i] + self.c[i] - gi) - psi1_gi)
            if self.lam != 0.0:
                diag += di * di * self.lam * (2.0 * psi1_gi + gi * psi2_gi) / s
                du += di * (self.psi_g[i] + gi * psi1_gi)
        psi2_s = _psi2(s)
        total = diag + d_sum * d_sum * (_psi1(s) - psi2_s * self.A)
        if self.lam != 0.0:
            total += self.lam * (
                -2.0 * du * d_sum / (s * s)
                + d_sum * d_sum * (2.0 * (self.gpsi + self.K - 1.0) / (s ** 3) - psi2_s)
            )
        return total

    def ceiling(self):
        return 1.25 * (math.fsum(self.z) + math.fsum(self.c)) + 5.0


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


def grad_gamma(gamma, zeta, phi_colsums, lam, i):
    """First partial of elbo_gamma_part in coordinate i."""
    return _GammaObjective(gamma, zeta, phi_colsums, lam).grad(i)


def hess_gamma_diag(gamma, zeta, phi_colsums, lam, i):
    """Second partial of elbo_gamma_part in coordinate i (diagonal term)."""
    return _GammaObjective(gamma, zeta, phi_colsums, lam).hess(i)


def newton_coordinate_step(gamma, i, zeta, phi_colsums, lam, config, _obj=None):
    """One guarded Newton update of gamma[i].

    Computes the step -L'/L'' (falling back to a clipped gradient direction
    where the objective is not locally concave), then backtracks the step
    size from 1 by factor rho until the Armijo sufficient-decrease condition
    on -L holds and the trial coordinate stays inside the feasible interval
    [gamma_floor, ceiling].  The ceiling (see _GammaObjective.ceiling) is a
    heuristic bound, 1.25 * (sum zeta + sum colsums) + 5, meant to block
    slow divergence of coordinate ascent along the objective's scale ridge
    (gamma growing proportionally with the objective nearly flat).  It can
    cut off the optimum: at lam > 0 the objective may still rise above it
    (dL/dgamma_i > 0 there), and the dominant coordinate then ends pinned
    on the ceiling.  A trial that moves the coordinate downward is accepted
    even from above the ceiling, so an infeasible starting point can
    re-enter the interval.  Returns a NewtonStep; .stepped is False when
    |step| < newton_tol (converged) and .stalled is True when
    the line search ran out of backtracks.  An accepted step never
    decreases the objective.  Nothing is committed to gamma itself.

    _obj is a performance hook: an existing _GammaObjective for the same
    (gamma, zeta, colsums, lam) saves rebuilding one.
    """
    obj = _obj if _obj is not None else _GammaObjective(gamma, zeta, phi_colsums, lam)
    gi = obj.g[i]
    obj0 = obj.value()
    slope_i = obj.grad(i)
    curv_i = obj.hess(i)
    if curv_i < 0.0 and abs(curv_i) >= HESS_EPS:
        delta = -slope_i / curv_i
    else:
        delta = math.copysign(min(abs(slope_i), 1.0), slope_i)
    if abs(delta) < config.newton_tol:
        return NewtonStep(gi, False, False, 0.0, delta, obj0, obj0)

    ceiling = obj.ceiling()
    decrease = config.armijo_delta * slope_i * delta  # >= 0 for both directions
    alpha = 1.0
    for _ in range(config.max_backtracks):
        cand = gi + alpha * delta
        if cand >= config.gamma_floor and (cand <= ceiling or cand < gi):
            obj_t = obj.value_with(i, cand)
            if -obj_t <= -obj0 - alpha * decrease:
                return NewtonStep(cand, True, False, alpha, delta, obj0, obj_t)
        alpha *= config.backtrack_rho
    return NewtonStep(gi, False, True, 0.0, delta, obj0, obj0)


def _slow_mode_step(gamma, zeta, phi_colsums, lam, config, _obj=None):
    """One Armijo-guarded Newton step along the flat mode of L_[gamma].

    The gamma curvature is a stiff diagonal plus a rank-one coupling, which
    leaves one near-null direction, d_i = 1 / Psi'(gamma_i) (proportional to
    gamma for coordinates well above zeta).  Coordinate-wise Newton resolves
    that direction poorly: near convergence the residual error lies almost
    exactly along it, and every single-coordinate slope is tiny even when
    the joint move needed is ~1e-3.  This solves the 1-D problem along d
    (slope and curvature both analytic, see slope_along / curv_along) and
    keeps every coordinate inside the feasible interval.  Returns the new
    gamma and the largest per-coordinate move (0.0 when no step is taken).
    """
    obj = _obj if _obj is not None else _GammaObjective(gamma, zeta, phi_colsums, lam)
    g = np.asarray(gamma, dtype=np.float64)
    d = 1.0 / np.array([_psi1(gi) for gi in obj.g])
    d /= d.max()

    slope = obj.slope_along(d)
    curv = obj.curv_along(d)
    concave = curv < 0.0 and abs(curv) >= HESS_EPS
    if concave:
        step = -slope / curv
    else:
        # Positive-curvature pocket on the ridge: propose a scale-sized
        # move and let the backtracking find how much of it is an ascent.
        step = math.copysign(obj.s, slope)
    if abs(step) < config.newton_tol:
        return g, 0.0

    ceiling = obj.ceiling()
    obj0 = obj.value()
    if concave:
        # Near the optimum the flat mode's predicted gain, slope^2/(2|curv|),
        # drops below the float resolution of L itself while the *position*
        # error is still ~1e-5; a value-based acceptance test is pure noise
        # there, so take the (ascent-by-concavity) Newton step on gradient
        # evidence alone.
        predicted_gain = 0.5 * slope * step
        if predicted_gain < 1e-11 * (1.0 + abs(obj0)):
            trial = g + step * d
            if float(trial.min()) >= config.gamma_floor and bool(
                np.all((trial <= ceiling) | (trial < g))
            ):
                return trial, float(np.abs(trial - g).max())
            return g, 0.0

    decrease = config.armijo_delta * slope * step  # >= 0
    alpha = 1.0
    for _ in range(config.max_backtracks):
        trial = g + (alpha * step) * d
        if float(trial.min()) >= config.gamma_floor and bool(
            np.all((trial <= ceiling) | (trial < g))
        ):
            obj_t = _GammaObjective(trial, zeta, phi_colsums, lam).value()
            if -obj_t <= -obj0 - alpha * decrease:
                if obj_t < obj0 - 1e-12 * (1.0 + abs(obj0)):
                    raise NumericalError(
                        "accepted slow-mode step lowered the gamma objective: %r < %r"
                        % (obj_t, obj0)
                    )
                return trial, float(np.abs(trial - g).max())
        alpha *= config.backtrack_rho
    return g, 0.0


def newton_sweep(gamma, zeta, phi_colsums, lam, config, step_monitor=None):
    """One ascent sweep of the gamma objective with phi held fixed.

    Runs guarded coordinate Newton solves over every coordinate in turn,
    then one guarded line search along the soft (near-null) curvature
    direction (see _slow_mode_step), which the coordinate solves crawl
    along.  Every accepted step is passed to step_monitor.  Returns the new
    gamma (a fresh array) and the largest per-coordinate move.  Raises
    NumericalError if an accepted coordinate step lowered the objective.
    """
    gamma = np.array(gamma, dtype=np.float64)
    K = gamma.shape[0]
    max_move = 0.0
    obj = _GammaObjective(gamma, zeta, phi_colsums, lam)
    for i in range(K):
        before = gamma[i]
        for _ in range(config.newton_max_iters):
            st = newton_coordinate_step(
                gamma, i, zeta, phi_colsums, lam, config, _obj=obj
            )
            if not st.stepped:
                break
            # Armijo acceptance guarantees this on the computed values.
            if st.objective_after < st.objective_before:
                raise NumericalError(
                    "accepted Newton step lowered the gamma objective: %r < %r"
                    % (st.objective_after, st.objective_before)
                )
            moved = abs(st.value - gamma[i])
            gamma[i] = st.value
            obj.set(i, st.value)
            if step_monitor is not None:
                step_monitor(st)
            if moved < config.newton_tol:
                # Progress has collapsed (e.g. the line search is pinned at
                # the feasibility ceiling); let other coordinates move.
                break
        max_move = max(max_move, abs(gamma[i] - before))

    new_gamma, scale_move = _slow_mode_step(
        gamma, zeta, phi_colsums, lam, config, _obj=obj
    )
    if scale_move > 0.0:
        gamma = new_gamma
    return gamma, max(max_move, scale_move)


def estep_document(doc, model, lam_d, config, step_monitor=None):
    """Fit the variational state of one document against fixed model parameters.

    Alternates the full phi update with a gamma update until both the
    largest per-coordinate gamma move and the mean absolute phi change fall
    below their tolerances, or estep_max_iters is reached.  At lam_d = 0
    (plain LDA) gamma has the closed form zeta + phi column sums (Blei, Ng &
    Jordan 2003, eq. 7), clamped at gamma_floor; at lam_d > 0 it takes one
    newton_sweep.  Returns (DocVariational, converged flag).
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
            gamma, max_move = newton_sweep(
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

"""Inference-engine tests.

Oracle lineup, most independent first:
  * scipy.special digamma/gammaln/betaln plus scipy.integrate quadrature —
    an external library's spelling of every expectation the ELBO needs;
  * closed-form LDA identities (gamma = zeta + phi column sums at lam=0,
    and the concavity value -Psi'(g_i) + Psi'(S) at that point);
  * central finite differences of elbo_gamma_part (via conftest helpers);
  * brute-force triple-loop re-implementations (mstep accumulation).
"""

import dataclasses
import logging
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import betaln, digamma as sp_digamma, gammaln

from conftest import (
    block_topics,
    derivative_fd_errors,
    entropy_of,
    make_synth,
    random_gamma_states,
)
import cdtm.inference
from cdtm.cli import main, read_gamma_tsv, write_table
from cdtm.corpus import Corpus, Document, Vocabulary, write_encoded_corpus, write_vocabulary_tsv
from cdtm.inference import (
    BACKTRACK_RHO,
    GAMMA_FLOOR,
    HESS_EPS,
    LOG_STEP_MAX,
    MAX_BACKTRACKS,
    _Active,
    _cholesky_lo,
    _log_newton,
    elbo_gamma_part,
    estep_batch,
    estep_document,
    fit,
    gamma_grad_hess,
    infer_document,
    mstep,
    newton_step,
    penalized_elbo,
    perplexity,
    profiled_objective,
    update_phi,
)
from cdtm.model import ETA_FLOOR, DocVariational, ModelParams, TrainConfig, init_model
from cdtm.specialfn import digamma, trigamma

# ---------------------------------------------------------------------------
# Oracles


def oracle_update_phi(doc, gamma, eta):
    """Direct transcription: row n ∝ eta[i, w_n] * exp(digamma terms)."""
    elog = sp_digamma(gamma) - sp_digamma(gamma.sum())
    out = np.empty((len(doc), gamma.shape[0]))
    for n, w in enumerate(doc.tokens.tolist()):
        row = eta[:, w] * np.exp(elog)
        out[n] = row / row.sum()
    return out


def oracle_lda_estep(doc, model, config):
    """Direct transcription of the lam = 0 E-step of one document, phi one row per token.

    From gamma = zeta + N/K, each sweep takes phi = update_phi(gamma), then
    gamma = max(zeta + phi column sums, floor), and stops once no gamma
    coordinate moved by newton_tol, or at the sweep cap.  Returns (gamma,
    phi, converged, the sweep it stopped at).
    """
    gamma = model.zeta + len(doc) / model.K
    for sweep in range(config.estep_max_iters):
        phi = update_phi(doc, gamma, model)
        new_gamma = np.maximum(model.zeta + phi.sum(axis=0), GAMMA_FLOOR)
        moved = np.abs(new_gamma - gamma).max() >= config.newton_tol
        gamma = new_gamma
        if not moved:
            return gamma, phi, True, sweep
    return gamma, phi, False, sweep


def oracle_mstep(corpus, phis, K, V, eta_floor):
    """Triple-loop accumulation of eta_ij ∝ sum_d sum_n phi_dni [w_dn = j]."""
    acc = np.zeros((K, V))
    for doc, phi in zip(corpus.documents, phis):
        for n, w in enumerate(doc.tokens.tolist()):
            for i in range(K):
                acc[i, w] += phi[n, i]
    acc += eta_floor
    return acc / acc.sum(axis=1, keepdims=True)


def oracle_single_word_elbo(g1, g2, zeta, eta_col, phi_row, lam):
    """Quadrature evaluation of the K=2, one-word-document penalized ELBO.

    theta_1 ~ Beta(g1, g2) under q; every expectation reduces to a 1-D
    integral against that density.  Returns (ll, entropy, penalty).
    """

    def pdf(t):
        return math.exp(
            (g1 - 1.0) * math.log(t) + (g2 - 1.0) * math.log(1.0 - t) - betaln(g1, g2)
        )

    def expect(f):
        val, _ = integrate.quad(lambda t: f(t) * pdf(t), 0.0, 1.0, limit=200)
        return val

    e_ln1 = expect(math.log)
    e_ln2 = expect(lambda t: math.log(1.0 - t))
    e_neg_ent = expect(lambda t: t * math.log(t) + (1.0 - t) * math.log(1.0 - t))

    ll = (
        gammaln(zeta.sum())
        - gammaln(zeta).sum()
        + (zeta[0] - 1.0) * e_ln1
        + (zeta[1] - 1.0) * e_ln2
        + phi_row[0] * e_ln1
        + phi_row[1] * e_ln2
        + phi_row[0] * math.log(eta_col[0])
        + phi_row[1] * math.log(eta_col[1])
    )
    ent = -(
        gammaln(g1 + g2)
        - gammaln(g1)
        - gammaln(g2)
        + (g1 - 1.0) * e_ln1
        + (g2 - 1.0) * e_ln2
    )
    ent -= phi_row[0] * math.log(phi_row[0]) + phi_row[1] * math.log(phi_row[1])
    return ll, ent, lam * e_neg_ent


def two_block_corpus(seed, n_docs=12, vocab_size=10, lo=60, hi=90, mix_conc=3.0):
    """Two near-disjoint 5-word topics; each document mixes them."""
    rng = np.random.default_rng(seed)
    topics = np.zeros((2, vocab_size))
    topics[0, :5] = 0.98 / 5
    topics[0, 5:] = 0.02 / 5
    topics[1, 5:] = 0.98 / 5
    topics[1, :5] = 0.02 / 5
    vocab = Vocabulary(["w%d" % j for j in range(vocab_size)])
    docs = []
    for d in range(n_docs):
        n = int(rng.integers(lo, hi))
        mix = rng.dirichlet([mix_conc, mix_conc])
        word_p = mix @ topics
        docs.append(Document("t%02d" % d, rng.choice(vocab_size, size=n, p=word_p)))
    return Corpus(vocab, docs)


def make_model(seed=0, K=2, V=10):
    rng = np.random.default_rng(seed)
    eta = rng.uniform(0.05, 1.0, size=(K, V))
    eta /= eta.sum(axis=1, keepdims=True)
    return ModelParams(eta, np.full(K, 1.0 / K))


def batched_gamma_states(n_states, seed):
    """random_gamma_states grouped by K into (B, K) batches of two rows or more.

    Each batch is (gamma, zeta, colsums, lam) with lam one weight per row,
    so a batch mixes lam = 0 rows with lam > 0 rows.
    """
    groups = {}
    for state in random_gamma_states(n_states, seed):
        groups.setdefault(state[0].shape[0], []).append(state)
    return [
        tuple(np.array(column) for column in zip(*rows))
        for rows in groups.values()
        if len(rows) > 1
    ]


def rel_errors(analytic, fd):
    """|analytic - fd| over max(|analytic|, |fd|, 1), the measure of derivative_fd_errors."""
    return np.abs(analytic - fd) / np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1.0)


# ---------------------------------------------------------------------------
# update_phi


def test_update_phi_symmetry():
    eta = np.full((2, 4), 0.25)
    model = ModelParams(eta, np.array([0.5, 0.5]))
    doc = Document("x", [0, 3])
    phi = update_phi(doc, np.array([2.0, 2.0]), model)
    assert np.allclose(phi, 0.5)


def test_update_phi_dominance():
    eta = np.array([[0.9, 0.1], [1e-12, 1.0 - 1e-12]])
    model = ModelParams(eta, np.array([0.5, 0.5]))
    phi = update_phi(Document("x", [0]), np.array([2.0, 2.0]), model)
    assert phi[0, 0] > 1.0 - 1e-10
    assert phi[0, 1] == pytest.approx(1e-12 / 0.9, rel=1e-6)


def test_update_phi_matches_transcription_oracle():
    rng = np.random.default_rng(31)
    eta = rng.uniform(0.01, 1.0, size=(3, 8))
    eta /= eta.sum(axis=1, keepdims=True)
    model = ModelParams(eta, np.full(3, 1 / 3))
    doc = Document("x", rng.integers(0, 8, size=12))
    gamma = rng.uniform(0.3, 6.0, size=3)
    phi = update_phi(doc, gamma, model)
    assert np.allclose(phi, oracle_update_phi(doc, gamma, eta), atol=1e-12)
    assert np.allclose(phi.sum(axis=1), 1.0, atol=1e-12)


def test_update_phi_zero_mass_row_raises():
    from cdtm.inference import NumericalError

    eta = np.array([[0.0, 1.0], [0.0, 1.0]])  # word 0 impossible in both topics
    model = ModelParams(eta, np.array([0.5, 0.5]))
    with np.errstate(divide="ignore"):
        with pytest.raises(NumericalError):
            update_phi(Document("x", [0]), np.array([1.0, 1.0]), model)


# ---------------------------------------------------------------------------
# The gamma objective and its derivatives


def test_elbo_gamma_penalty_block_at_uniform():
    # At gamma=(1,1) the penalty block is exactly -lam/2.
    gamma = np.array([1.0, 1.0])
    zeta = np.array([0.4, 0.6])
    colsums = np.array([2.0, 3.0])
    base = elbo_gamma_part(gamma, zeta, colsums, 0.0)
    for lam in (1.0, 5.0, 35.0):
        val = elbo_gamma_part(gamma, zeta, colsums, lam)
        assert val - base == pytest.approx(-0.5 * lam, abs=1e-12)


def test_gradient_vanishes_at_lda_fixed_point():
    rng = np.random.default_rng(37)
    for _ in range(10):
        k = int(rng.integers(2, 7))
        zeta = rng.uniform(0.1, 1.5, size=k)
        colsums = rng.dirichlet(np.ones(k)) * rng.integers(10, 200)
        gamma = zeta + colsums
        for i in range(k):
            assert abs(gamma_grad_hess(gamma, zeta, colsums, 0.0)[0][i]) < 1e-8


def test_hessian_closed_form_at_lda_fixed_point():
    zeta = np.array([0.5, 0.5, 0.5])
    colsums = np.array([40.0, 7.0, 1.0])
    gamma = zeta + colsums
    s = float(gamma.sum())
    for i in range(3):
        expected = -trigamma(gamma[i]) + trigamma(s)
        got = gamma_grad_hess(gamma, zeta, colsums, 0.0)[1][i, i]
        assert got == pytest.approx(expected, rel=1e-12)
        assert got < 0.0


def test_symmetric_inputs_give_identical_derivatives():
    gamma = np.full(4, 2.5)
    zeta = np.full(4, 0.25)
    colsums = np.full(4, 12.0)
    for lam in (0.0, 35.0):
        grads = [gamma_grad_hess(gamma, zeta, colsums, lam)[0][i] for i in range(4)]
        hesss = [gamma_grad_hess(gamma, zeta, colsums, lam)[1][i, i] for i in range(4)]
        assert max(grads) - min(grads) < 1e-12
        assert max(hesss) - min(hesss) < 1e-12


def test_derivatives_match_finite_differences():
    worst_grad, worst_hess = derivative_fd_errors(n_states=1000, seed=41)
    assert worst_grad < 1e-5
    assert worst_hess < 1e-4


def test_negative_lambda_rejected():
    g = np.array([1.0, 2.0])
    with pytest.raises(ValueError):
        elbo_gamma_part(g, g, g, -1.0)
    with pytest.raises(ValueError):
        gamma_grad_hess(g, g, g, -0.5)
    with pytest.raises(ValueError):
        estep_batch([Document("x", [0, 1])], make_model(), [-1.0], TrainConfig(K=2))


@pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan, -1.0])
def test_non_finite_or_negative_lambda_rejected(lam):
    # inf and NaN pass a bare lam >= 0 or lam < 0 test; each E-step, public
    # gamma function and penalized_elbo must refuse them before any sweep
    # or sum runs (penalized_elbo also took lam = -1, a positive penalty).
    g = np.array([1.0, 2.0])
    config = TrainConfig(K=2)
    doc = Document("x", [0, 1])
    calls = [
        lambda: elbo_gamma_part(g, g, g, lam),
        lambda: gamma_grad_hess(g, g, g, lam),
        lambda: newton_step(g, g, g, lam, config),
        lambda: newton_step(np.stack([g, g]), g, g, [1.0, lam], config),
        lambda: profiled_objective(doc, g, make_model(), lam),
        lambda: infer_document(doc, make_model(), lam, config),
        lambda: estep_batch([doc, doc], make_model(), [0.0, lam], config),
        lambda: penalized_elbo(
            Corpus(Vocabulary(["w%d" % j for j in range(10)]), [doc]),
            make_model(),
            [DocVariational(g, np.full((2, 2), 0.5))],
            lam,
        ),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="lambda"):
            call()


def test_lambda_count_must_match_the_documents():
    g = np.array([1.0, 2.0])
    docs = [Document("x", [0, 1]), Document("y", [1])]
    with pytest.raises(ValueError, match="lambda needs one weight per document"):
        estep_batch(docs, make_model(), [1.0, 2.0, 3.0], TrainConfig(K=2))
    with pytest.raises(ValueError, match="lambda needs one weight per document"):
        estep_batch(docs, make_model(), [1.0], TrainConfig(K=2))
    with pytest.raises(ValueError, match="lambda needs one weight per document"):
        elbo_gamma_part(np.stack([g, g]), g, g, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="lambda needs one weight per document"):
        gamma_grad_hess(g, g, g, [1.0, 2.0])
    # A scalar serves every document, as one weight per document would.
    (a, b), _ = estep_batch(docs, make_model(), 5.0, TrainConfig(K=2))
    (c, d), _ = estep_batch(docs, make_model(), [5.0, 5.0], TrainConfig(K=2))
    assert a.gamma.tobytes() == c.gamma.tobytes() and b.gamma.tobytes() == d.gamma.tobytes()


GAMMA_ENTRY_FUNCTIONS = {
    "elbo_gamma_part": lambda g: elbo_gamma_part(g, np.ones(3), np.ones(3), 5.0),
    "gamma_grad_hess": lambda g: gamma_grad_hess(g, np.ones(3), np.ones(3), 5.0),
    "newton_step": lambda g: newton_step(g, np.ones(3), np.ones(3), 5.0, TrainConfig(K=3)),
    "profiled_objective": lambda g: profiled_objective(Document("x", [0, 1, 1]), g, make_model(K=3), 5.0),
    "update_phi": lambda g: update_phi(Document("x", [0, 1, 1]), g, make_model(K=3)),
    "penalized_elbo": lambda g: penalized_elbo(
        Corpus(Vocabulary(["w%d" % j for j in range(10)]), [Document("x", [0, 1, 1])]),
        make_model(K=3),
        [DocVariational(g, np.full((3, 3), 1.0 / 3))],
        5.0,
    ),
}


@pytest.mark.parametrize("name", sorted(GAMMA_ENTRY_FUNCTIONS))
@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), 1e308])
def test_public_gamma_functions_reject_gamma_out_of_domain(name, bad):
    # The special functions check their arguments only at the public
    # boundary, so each public function taking a gamma must check it.
    # 1e308 twice is a gamma of finite entries whose sum S overflows: a
    # function that forms S rejects it with no overflow warning first.
    call = GAMMA_ENTRY_FUNCTIONS[name]
    call(np.array([1.0, 2.0, 3.0]))  # a valid gamma passes
    gamma = np.array([1.0, bad, bad if bad == 1e308 else 3.0])
    if bad == 1e308 and name == "update_phi":
        assert np.isfinite(call(gamma)).all()  # phi needs no S
    else:
        with pytest.raises(ValueError):
            call(gamma)


def test_hessian_matches_gradient_differences():
    # Every entry of the full Hessian, off-diagonal coupling included,
    # against a central difference of the gradient vector.
    worst = 0.0
    for gamma, zeta, colsums, lam in random_gamma_states(40, seed=61):
        _, hess = gamma_grad_hess(gamma, zeta, colsums, lam)
        assert np.array_equal(hess, hess.T)
        for j in range(gamma.shape[0]):
            h = 1e-5 * max(1.0, gamma[j])
            step = np.zeros_like(gamma)
            step[j] = h
            hi, _ = gamma_grad_hess(gamma + step, zeta, colsums, lam)
            lo, _ = gamma_grad_hess(gamma - step, zeta, colsums, lam)
            fd = (hi - lo) / (2.0 * h)
            rel = np.abs(hess[:, j] - fd) / np.maximum(
                np.maximum(np.abs(hess[:, j]), np.abs(fd)), 1.0
            )
            worst = max(worst, float(rel.max()))
    assert worst < 1e-4


def test_batched_derivatives_match_rows_and_finite_differences():
    # A (B, K) batch: every row equals its single-row evaluation exactly,
    # and every gradient and diagonal Hessian entry matches central
    # differences of the batched objective.
    worst_g, worst_h = 0.0, 0.0
    for gamma, zeta, colsums, lam in batched_gamma_states(200, seed=43):
        values = elbo_gamma_part(gamma, zeta, colsums, lam)
        grad, hess = gamma_grad_hess(gamma, zeta, colsums, lam)
        for b in range(gamma.shape[0]):
            g1, h1 = gamma_grad_hess(gamma[b], zeta[b], colsums[b], lam[b])
            assert np.array_equal(grad[b], g1)
            assert np.array_equal(hess[b], h1)
            assert values[b] == elbo_gamma_part(gamma[b], zeta[b], colsums[b], lam[b])
        for i in range(gamma.shape[1]):
            h = 1e-5 * np.maximum(1.0, gamma[:, i])
            step = np.zeros_like(gamma)
            step[:, i] = h
            hi = elbo_gamma_part(gamma + step, zeta, colsums, lam)
            lo = elbo_gamma_part(gamma - step, zeta, colsums, lam)
            worst_g = max(worst_g, float(rel_errors(grad[:, i], (hi - lo) / (2.0 * h)).max()))
            hi, _ = gamma_grad_hess(gamma + step, zeta, colsums, lam)
            lo, _ = gamma_grad_hess(gamma - step, zeta, colsums, lam)
            fd = (hi[:, i] - lo[:, i]) / (2.0 * h)
            worst_h = max(worst_h, float(rel_errors(hess[:, i, i], fd).max()))
    assert worst_g < 1e-5
    assert worst_h < 1e-4


def test_batched_hessian_matches_gradient_differences():
    worst = 0.0
    for gamma, zeta, colsums, lam in batched_gamma_states(40, seed=61):
        _, hess = gamma_grad_hess(gamma, zeta, colsums, lam)
        assert np.array_equal(hess, hess.transpose(0, 2, 1))
        for j in range(gamma.shape[1]):
            h = 1e-5 * np.maximum(1.0, gamma[:, j])
            step = np.zeros_like(gamma)
            step[:, j] = h
            hi, _ = gamma_grad_hess(gamma + step, zeta, colsums, lam)
            lo, _ = gamma_grad_hess(gamma - step, zeta, colsums, lam)
            fd = (hi - lo) / (2.0 * h[:, None])
            worst = max(worst, float(rel_errors(hess[:, :, j], fd).max()))
    assert worst < 1e-4


# ---------------------------------------------------------------------------
# newton_step


def test_newton_step_below_tolerance_is_a_no_op():
    zeta = np.array([0.5, 0.5])
    colsums = np.array([3.0, 4.0])
    gamma = zeta + colsums  # LDA fixed point: proposed step ~ 0
    new_gamma, max_move = newton_step(gamma, zeta, colsums, 0.0, TrainConfig(K=2))
    assert max_move == 0.0
    assert np.array_equal(new_gamma, gamma)


def test_newton_step_respects_gamma_floor():
    # Start far above the optimum: the Newton direction is strongly negative.
    zeta = np.array([0.5, 0.5])
    colsums = np.array([0.001, 5.0])
    gamma = np.array([30.0, 5.5])
    config = TrainConfig(K=2)
    seen = []
    new_gamma, max_move = newton_step(
        gamma, zeta, colsums, 0.0, config, step_monitor=seen.append
    )
    assert len(seen) == 1
    assert seen[0].direction[0] < 0.0
    assert max_move > 0.0
    assert np.all(new_gamma >= GAMMA_FLOOR)


def test_newton_steps_never_decrease_objective():
    config = TrainConfig(K=2)
    seen = []
    for gamma, zeta, colsums, lam in random_gamma_states(60, seed=67):
        newton_step(gamma, zeta, colsums, lam, config, step_monitor=seen.append)
    assert seen
    for st in seen:
        assert st.objective_after >= st.objective_before
        assert np.all(st.value >= GAMMA_FLOOR)


def test_newton_iteration_recovers_lda_coordinate():
    # All other coordinates at the fixed point: iterating the joint step
    # from one perturbed coordinate must converge to zeta + colsums.
    zeta = np.array([0.3, 0.4, 0.3])
    colsums = np.array([11.0, 2.0, 6.0])
    config = TrainConfig(K=3, newton_tol=1e-9)
    for start in (0.05, 1.0, 40.0):
        gamma = zeta + colsums
        gamma[1] = start
        for _ in range(200):
            gamma, max_move = newton_step(gamma, zeta, colsums, 0.0, config)
            if max_move == 0.0:
                break
        else:
            pytest.fail("newton_step still moving from start %g" % start)
        assert np.allclose(gamma, zeta + colsums, rtol=0.0, atol=1e-6)


def test_newton_step_reaches_lda_fixed_point():
    # The E-step does not run the solver at lam=0 (gamma is set in closed
    # form there), so the LDA fixed point gamma = zeta + colsums is the
    # oracle for the solver itself: with phi frozen at the E-step's first
    # update, repeated steps at lam=0 must settle on it.
    corpus = make_synth(11)
    config = TrainConfig(K=5, newton_tol=1e-7)
    model = init_model(corpus, config)
    worst = 0.0

    def monitor(st):
        assert st.objective_after >= st.objective_before

    for doc in corpus.documents:
        gamma = model.zeta + len(doc) / model.K
        colsums = update_phi(doc, gamma, model).sum(axis=0)
        for _ in range(200):
            gamma, max_move = newton_step(
                gamma, model.zeta, colsums, 0.0, config, step_monitor=monitor
            )
            if max_move < config.newton_tol:
                break
        else:
            pytest.fail("newton_step still moving on document %s" % doc.id)
        worst = max(worst, float(np.abs(gamma - (model.zeta + colsums)).max()))
    assert worst < 1e-5


def test_batched_newton_steps_never_decrease_objective():
    # One step on a (B, K) batch: every accepted step is monotone, and each
    # row ends where a step on that row alone ends.
    config = TrainConfig(K=2)
    seen = []
    for gamma, zeta, colsums, lam in batched_gamma_states(60, seed=67):
        new, moves = newton_step(gamma, zeta, colsums, lam, config, step_monitor=seen.append)
        assert new.shape == gamma.shape and moves.shape == lam.shape
        for b in range(gamma.shape[0]):
            alone, move = newton_step(gamma[b], zeta[b], colsums[b], lam[b], config)
            assert np.array_equal(new[b], alone)
            assert moves[b] == move
    assert seen
    for st in seen:
        assert st.objective_after >= st.objective_before
        assert np.all(st.value >= GAMMA_FLOOR)


def test_batched_newton_step_reaches_lda_fixed_point():
    # test_newton_step_reaches_lda_fixed_point with every document of the
    # corpus stepped as one batch.
    corpus = make_synth(11)
    config = TrainConfig(K=5, newton_tol=1e-7)
    model = init_model(corpus, config)

    def monitor(st):
        assert st.objective_after >= st.objective_before

    gamma = np.array([model.zeta + len(doc) / model.K for doc in corpus.documents])
    colsums = np.array(
        [update_phi(doc, g, model).sum(axis=0) for doc, g in zip(corpus.documents, gamma)]
    )
    for _ in range(200):
        gamma, moves = newton_step(gamma, model.zeta, colsums, 0.0, config, step_monitor=monitor)
        if moves.max() < config.newton_tol:
            break
    else:
        pytest.fail("newton_step still moving on the batch")
    assert float(np.abs(gamma - (model.zeta + colsums)).max()) < 1e-5


def log_gamma_derivatives(gamma, zeta, colsums, lam):
    """Gradient g_t and Hessian H_t of elbo_gamma_part in t = log gamma.

    By the chain rule, from the gamma-space derivatives: g_t = gamma * grad
    and H_t = diag(gamma) H diag(gamma) + diag(g_t).
    """
    grad, hess = gamma_grad_hess(gamma, zeta, colsums, lam)
    g_t = gamma * grad
    return g_t, gamma[:, None] * hess * gamma[None, :] + np.diag(g_t)


def backtrack_power(new, gamma, d):
    """The j with new = gamma * exp(rho^j d) to 1e-10 relative, or None."""
    for j in range(MAX_BACKTRACKS):
        want = gamma * np.exp(BACKTRACK_RHO**j * d)
        if np.abs(new / want - 1.0).max() < 1e-10:
            return j
    return None


@pytest.mark.parametrize("lam", [5.0, 35.0])
def test_newton_step_is_newton_in_log_gamma(lam):
    # Where H_t is negative definite the step is the exact Newton step in
    # log gamma, gamma * exp(-H_t^{-1} g_t).  Where that moves a coordinate
    # by more than 2 in log gamma, the direction is shortened to a largest
    # move of 2 and the line search backtracks along it.
    config = TrainConfig(K=2)
    full = capped = 0
    for gamma, zeta, colsums, _ in random_gamma_states(40, seed=61):
        g_t, h_t = log_gamma_derivatives(gamma, zeta, colsums, lam)
        if np.linalg.eigvalsh(h_t).max() >= 0.0:
            continue
        d = -np.linalg.solve(h_t, g_t)
        new, _ = newton_step(gamma, zeta, colsums, lam, config)
        if np.abs(d).max() <= 2.0:
            assert np.abs(new / (gamma * np.exp(d)) - 1.0).max() < 1e-10
            full += 1
        else:
            assert backtrack_power(new, gamma, 2.0 * d / np.abs(d).max()) is not None
            capped += 1
    assert full >= 3 and capped >= 3


def test_newton_step_caps_the_log_move():
    # The E-step's first gamma for a 13-token document at K = 20, lam = 35:
    # H_t is not negative definite there, and the eigenvalue-modified log
    # step moves a coordinate by more than 2.  The step taken runs along it
    # with no coordinate moved by more than a factor e^2, and does not lower
    # the objective.
    K, lam = 20, 35.0
    zeta = np.full(K, 1.0 / K)
    colsums = np.zeros(K)
    colsums[:2] = (12.5, 0.5)
    gamma = zeta + 13.0 / K
    config = TrainConfig(K=K)
    g_t, h_t = log_gamma_derivatives(gamma, zeta, colsums, lam)
    evals, evecs = np.linalg.eigh(h_t)
    assert evals.max() > 0.0
    d = evecs @ ((evecs.T @ g_t) / np.abs(evals))
    assert np.abs(d).max() > 2.0
    new, _ = newton_step(gamma, zeta, colsums, lam, config)
    assert np.abs(np.log(new / gamma)).max() <= 2.0 + 1e-12
    assert backtrack_power(new, gamma, 2.0 * d / np.abs(d).max()) is not None
    assert elbo_gamma_part(new, zeta, colsums, lam) >= elbo_gamma_part(gamma, zeta, colsums, lam)


def eigh_direction(g_t, h_t):
    """The eigenvalue-modified Newton direction of one row, capped at LOG_STEP_MAX, and whether H_t is negative definite.

    Where the largest eigenvalue of H_t is <= -HESS_EPS the direction is the
    exact Newton step -H_t^{-1} g_t; elsewhere it is V diag(1 / max(|e|,
    HESS_EPS)) V^T g_t.
    """
    evals, evecs = np.linalg.eigh(h_t)
    concave = evals.max() <= -HESS_EPS
    if concave:
        d = -np.linalg.solve(h_t, g_t)
    else:
        d = evecs @ ((evecs.T @ g_t) / np.maximum(np.abs(evals), HESS_EPS))
    return d * LOG_STEP_MAX / max(np.abs(d).max(), LOG_STEP_MAX), concave


def assert_directions(newton, rows, want):
    """Each listed row of a _Newton has the direction and concave flag of eigh_direction, to 1e-10 relative."""
    for j, (d, concave) in zip(rows, want):
        assert newton.concave[j] == concave
        assert np.abs(newton.direction[j] - d).max() <= 1e-10 * np.abs(d).max()


@pytest.mark.parametrize("lam", [5.0, 35.0])
def test_log_newton_factors_where_eigh_says_negative_definite(lam):
    # Random gamma states batched by K, with H_t and g_t built here from
    # gamma_grad_hess: the Cholesky test of _log_newton marks exactly the
    # rows whose largest eigenvalue is <= -HESS_EPS, those take the exact
    # Newton step and the others the eigenvalue-modified one.
    kinds = set()
    for gamma, zeta, colsums, _ in batched_gamma_states(200, seed=83):
        grad, hess = gamma_grad_hess(gamma, zeta, colsums, lam)
        newton = _log_newton(gamma, grad, [(slice(None), hess)])
        want = [eigh_direction(*log_gamma_derivatives(*state, lam)) for state in zip(gamma, zeta, colsums)]
        assert_directions(newton, range(len(gamma)), want)
        kinds |= {concave for _, concave in want}
    assert kinds == {True, False}
    # The factorization reports a matrix that is not positive definite as
    # NaN instead of raising, which _log_newton relies on.
    with np.errstate(invalid="ignore"):
        assert np.isnan(_cholesky_lo(np.array([[[1.0, 0.0], [0.0, -1.0]]]))).all()


def hand_built_candidates():
    """gamma = 1 and a gradient for four rows, and the Hessians H_t of two candidates.

    At gamma = 1, H_t = H + diag(grad), so each H is built from the H_t
    wanted.  The first candidate covers rows 0-2 and is negative definite
    only on row 2; the second covers every row and is negative definite on
    rows 0 and 3, not on row 1.
    """
    g = np.ones((4, 3))
    grad = np.array([[0.3, -0.2, 0.1], [0.2, 0.1, -0.3], [-0.1, 0.4, 0.2], [0.1, 0.1, 0.1]])
    nd = -np.array([[2.0, 0.5, 0.0], [0.5, 3.0, 0.4], [0.0, 0.4, 1.5]])
    indefinite = np.array([[1.0, 0.3, 0.0], [0.3, -2.0, 0.5], [0.0, 0.5, -1.0]])
    first_t = np.array([indefinite, indefinite, nd])
    second_t = np.array([nd - 0.5 * np.eye(3), 2.0 * indefinite, nd, 1.5 * nd])
    first = first_t - grad[:3, None, :] * np.eye(3)
    second = second_t - grad[:, None, :] * np.eye(3)
    return g, grad, [(np.arange(3), first), (slice(None), second)], first_t, second_t


def test_log_newton_takes_the_first_candidate_that_factors():
    # Row 2 takes its first candidate's exact Newton step; rows 0 and 3
    # that of the second; row 1, with no candidate negative definite, the
    # eigenvalue-modified step of the second.
    g, grad, candidates, first_t, second_t = hand_built_candidates()
    newton = _log_newton(g, grad, candidates)
    want = [eigh_direction(g_t, h_t) for g_t, h_t in zip(grad, (second_t[0], second_t[1], first_t[2], second_t[3]))]
    assert [concave for _, concave in want] == [True, False, True, True]
    assert_directions(newton, range(4), want)
    assert np.array_equal(newton.grad, grad)
    # The rows the first candidate covered and did not factor: 0 and 1.
    # There are none with one candidate, or on row 2 alone.
    assert newton.fallback.tolist() == [True, True, False, False]
    assert _log_newton(g, grad, candidates[1:]).fallback is None
    alone = [(slice(None), hess[[2]]) for _, hess in candidates]
    assert _log_newton(g[[2]], grad[[2]], alone).fallback is None


def test_log_newton_runs_eigh_only_where_no_candidate_factors(monkeypatch):
    # With eigh raising, a batch whose rows all have a candidate that
    # factors still gets its steps: rows 0, 2 and 3 of the hand-built batch,
    # and newton_step on random states whose H_t is negative definite.  Row
    # 1, which no candidate factors, reaches eigh alone.
    g, grad, candidates, _, _ = hand_built_candidates()
    want = _log_newton(g, grad, candidates)
    states = []
    for gamma, zeta, colsums, _ in batched_gamma_states(200, seed=83):
        h_t = [log_gamma_derivatives(*state, 35.0)[1] for state in zip(gamma, zeta, colsums)]
        rows = [j for j, h in enumerate(h_t) if np.linalg.eigvalsh(h).max() <= -HESS_EPS]
        if len(rows) > 1:
            states.append((gamma[rows], zeta[rows], colsums[rows]))
    assert states

    def no_eigh(a):
        raise AssertionError("eigh on %d rows" % len(a))

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    rows = np.array([0, 2, 3])
    first = (np.array([0, 1]), candidates[0][1][[0, 2]])  # sub-batch rows 0 and 1 are rows 0 and 2
    newton = _log_newton(g[rows], grad[rows], [first, (slice(None), candidates[1][1][rows])])
    assert np.array_equal(newton.direction, want.direction[rows])
    with pytest.raises(AssertionError, match="eigh on 1 rows"):
        _log_newton(g, grad, candidates)
    config = TrainConfig(K=2)
    for gamma, zeta, colsums in states:
        newton_step(gamma, zeta, colsums, 35.0, config)


# ---------------------------------------------------------------------------
# profiled_objective


def profiled_cases(seed):
    """(doc, gamma, model, lam) at random gammas: K = 5 and 20, the planted topics of make_synth."""
    rng = np.random.default_rng(seed)
    cases = []
    for K, V in ((5, 100), (20, 400)):
        model = ModelParams(block_topics(V, K), np.full(K, 1.0 / K))
        corpus = make_synth(seed, n_docs=4, vocab_size=V, k_true=K, len_lo=5, len_hi=120)
        for doc in corpus.documents:
            gamma = np.exp(rng.uniform(np.log(0.05), np.log(200.0), size=K))
            cases += [(doc, gamma, model, lam) for lam in (0.0, 5.0, 35.0)]
    return cases


def joint_objective(doc, gamma, model, lam, phi):
    """elbo_gamma_part plus the phi terms of the ELBO, with phi one row per token."""
    log_eta = np.log(model.eta[:, doc.tokens].T)
    return elbo_gamma_part(gamma, model.zeta, phi.sum(axis=0), lam) + float((phi * (log_eta - np.log(phi))).sum())


def envelope_grad(doc, gamma, model, lam):
    """gamma_grad_hess's gradient at the column sums of phi = update_phi(gamma)."""
    return gamma_grad_hess(gamma, model.zeta, update_phi(doc, gamma, model).sum(axis=0), lam)[0]


def test_profiled_objective_is_the_joint_objective_at_optimal_phi():
    # L(gamma) is the joint objective at phi = update_phi(gamma), its
    # maximum over phi: any other phi gives less.  Its gradient is the
    # fixed-phi gradient there (the envelope theorem).
    rng = np.random.default_rng(71)
    for doc, gamma, model, lam in profiled_cases(71):
        value, grad, _ = profiled_objective(doc, gamma, model, lam)
        phi = update_phi(doc, gamma, model)
        assert value == pytest.approx(joint_objective(doc, gamma, model, lam, phi), rel=1e-12)
        assert rel_errors(grad, envelope_grad(doc, gamma, model, lam)).max() < 1e-12
        other = rng.dirichlet(np.ones(model.K), size=len(doc))
        assert value > joint_objective(doc, gamma, model, lam, other)


def test_profiled_hessian_matches_envelope_gradient_differences():
    # Every entry of H + D M D against a central difference of the envelope
    # gradient, phi re-solved at each point.  The fixed-phi Hessian H alone
    # misses it by far: the D M D term carries the phi response.
    worst = worst_fixed = 0.0
    for doc, gamma, model, lam in profiled_cases(73):
        _, _, hess = profiled_objective(doc, gamma, model, lam)
        _, fixed = gamma_grad_hess(gamma, model.zeta, update_phi(doc, gamma, model).sum(axis=0), lam)
        for j in range(len(gamma)):
            step = np.zeros_like(gamma)
            step[j] = 1e-5 * max(1.0, gamma[j])
            hi = envelope_grad(doc, gamma + step, model, lam)
            lo = envelope_grad(doc, gamma - step, model, lam)
            fd = (hi - lo) / (2.0 * step[j])
            worst = max(worst, float(rel_errors(hess[:, j], fd).max()))
            worst_fixed = max(worst_fixed, float(rel_errors(fixed[:, j], fd).max()))
    assert worst < 1e-4
    assert worst_fixed > 1e-2


# ---------------------------------------------------------------------------
# estep_document


def lda_gap(doc, model, vp):
    colsums = vp.phi.sum(axis=0)
    return float(np.abs(vp.gamma - (model.zeta + colsums)).max())


def test_estep_lda_reduction_single_document():
    # A random near-uniform eta identifies the topics weakly, so the
    # phi/gamma alternation contracts slowly (~0.88 per sweep): reaching a
    # 1e-7 latch takes ~140 sweeps, hence the raised sweep cap.
    model = make_model(seed=2)
    doc = Document("x", np.random.default_rng(3).integers(0, 10, size=40))
    config = TrainConfig(K=2, newton_tol=1e-7, estep_max_iters=400)
    vp, converged = estep_document(doc, model, 0.0, config)
    assert converged
    assert lda_gap(doc, model, vp) < 1e-5
    assert np.allclose(vp.phi.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(vp.gamma >= GAMMA_FLOOR)


@pytest.mark.parametrize("newton_tol", [1e-5, 1e-2])
def test_lda_estep_batch_matches_transcription_oracle(newton_tol):
    # 24 documents against the model of one lam = 0 EM iteration, sweep cap
    # 40: they stop at many different sweeps and 9 hit the cap, so the
    # batch retires documents while others sweep on, and drops their
    # columns once they are a quarter of its rows.  newton_tol = 1e-2 is a
    # looser stop rule on the same documents.
    corpus = make_synth(5, n_docs=24)
    model = fit(corpus, TrainConfig(K=5, lam=0.0, em_max_iters=1)).model
    config = TrainConfig(K=5, estep_max_iters=40, newton_tol=newton_tol)
    per_doc, converged = estep_batch(corpus.documents, model, [0.0] * corpus.n_docs, config)
    stops = set()
    for doc, vp, flag in zip(corpus.documents, per_doc, converged):
        gamma, phi, want, sweep = oracle_lda_estep(doc, model, config)
        assert flag == want, doc.id
        np.testing.assert_allclose(vp.gamma, gamma, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(vp.phi, phi, rtol=0.0, atol=1e-12)
        stops.add(sweep if want else None)
    assert len(stops - {None}) >= 5 and None in stops


def test_lda_estep_retires_gamma_and_phi_of_one_sweep(monkeypatch):
    # Every document the lam = 0 E-step returns holds the gamma and phi of
    # one sweep: gamma = max(zeta + phi column sums, GAMMA_FLOOR), whether it
    # converged, hit the sweep cap, swept alone, or left a batch that then
    # dropped its retired columns.  A gamma retired from another sweep than
    # its phi is off by up to newton_tol.
    corpus = make_synth(5, n_docs=24)
    model = fit(corpus, TrainConfig(K=5, lam=0.0, em_max_iters=1)).model
    config = TrainConfig(K=5, estep_max_iters=40)
    compactions, keep = [], _Active.keep

    def counted_keep(self, mask):
        compactions.append(mask.size)
        return keep(self, mask)

    monkeypatch.setattr(_Active, "keep", counted_keep)
    per_doc, converged = estep_batch(corpus.documents, model, [0.0] * corpus.n_docs, config)
    assert compactions  # the batch dropped retired columns while documents swept on
    assert 0 < converged.sum() < corpus.n_docs  # converged and capped documents both occur
    alone = [estep_document(doc, model, 0.0, config)[0] for doc in corpus.documents[:3]]
    for vp in per_doc + alone:
        closed_form = np.maximum(model.zeta + vp.phi.sum(axis=0), GAMMA_FLOOR)
        np.testing.assert_allclose(vp.gamma, closed_form, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("cap", [3, 40])
def test_lda_estep_forms_phi_once_after_its_last_sweep(monkeypatch, cap):
    # Each lam = 0 sweep evaluates Psi once, on the gamma it reads, and phi
    # is formed in one pass after the last sweep: so an E-step evaluates Psi
    # once per sweep plus once, however many times documents retire.  At
    # cap 3 every document hits the cap; at cap 40 the documents that
    # converge by then retire at many different sweeps, and none is left
    # at the cap.
    corpus = make_synth(5, n_docs=24)
    model = fit(corpus, TrainConfig(K=5, lam=0.0, em_max_iters=1)).model
    config = TrainConfig(K=5, estep_max_iters=cap, newton_tol=1e-2)
    stops = {doc.id: oracle_lda_estep(doc, model, config)[2:] for doc in corpus.documents}
    docs = [doc for doc in corpus.documents if cap == 3 or stops[doc.id][0]]
    sweeps = max(stops[doc.id][1] for doc in docs) + 1
    calls, digamma_kernel = [], cdtm.inference._digamma
    monkeypatch.setattr(cdtm.inference, "_digamma", lambda x: calls.append(x.shape) or digamma_kernel(x))
    _, converged = estep_batch(docs, model, [0.0] * len(docs), config)
    if cap == 3:
        assert not converged.any() and sweeps == cap
    else:
        assert converged.all() and len({stops[doc.id][1] for doc in docs}) >= 5
    assert len(calls) == sweeps + 1
    assert calls[-1] == (5, len(docs))  # the one phi pass reads every document's gamma


def test_deprecated_phi_tol_changes_no_estep_byte():
    # phi_tol, the former phi-change stop tolerance, is still accepted by
    # TrainConfig (directly or through dataclasses.replace), with a warning
    # naming it, and ignored: lam = 0 and lam = 35 E-steps return the same
    # bytes as without it, even at a phi_tol that would have held every
    # document back.
    corpus = make_synth(5, n_docs=12)
    model = fit(corpus, TrainConfig(K=5, lam=0.0, em_max_iters=1)).model
    base = TrainConfig(K=5, estep_max_iters=40)
    with pytest.warns(DeprecationWarning, match="phi_tol"):
        direct = TrainConfig(K=5, estep_max_iters=40, phi_tol=1e-300)
    with pytest.warns(DeprecationWarning, match="phi_tol"):
        replaced = dataclasses.replace(base, phi_tol=1e-300)
    lams = [0.0, 35.0] * 6
    want, want_converged = estep_batch(corpus.documents, model, lams, base)
    for config in (direct, replaced):
        assert config == base
        per_doc, converged = estep_batch(corpus.documents, model, lams, config)
        assert converged.tolist() == want_converged.tolist()
        for vp, ref in zip(per_doc, want):
            assert vp.gamma.tobytes() == ref.gamma.tobytes()
            assert vp.phi.tobytes() == ref.phi.tobytes()


def fixed_phi_stationarity(doc, model, lam, config, sweeps):
    """gamma and its |dL/dgamma| after sweeps of the plain alternation: update_phi, then one newton_step."""
    gamma = model.zeta + len(doc) / model.K
    for _ in range(sweeps):
        colsums = update_phi(doc, gamma, model).sum(axis=0)
        gamma, _ = newton_step(gamma, model.zeta, colsums, lam, config)
    return gamma, float(np.abs(envelope_grad(doc, gamma, model, lam)).max())


def test_penalized_estep_converges_where_the_alternation_is_slow():
    # Document d017 of make_synth(2) against the model of two lam = 0 EM
    # iterations, whose closed-form gamma keeps the model independent of
    # the lam > 0 solver.  At lam = 35 the phi/gamma alternation contracts
    # so slowly near its optimum that 100 sweeps of it leave |dL/dgamma|
    # above 1e-4.  The E-step must converge within its default 100 sweeps,
    # stationary at phi = update_phi(gamma), and no lower in L than the
    # alternation got.
    corpus = make_synth(2)
    model = fit(corpus, TrainConfig(K=5, lam=0.0, seed=2, em_max_iters=2)).model
    doc, lam = corpus.documents[17], 35.0
    config = TrainConfig(K=5, lam=lam)
    slow, off = fixed_phi_stationarity(doc, model, lam, config, 100)
    assert off > 1e-4
    vp, converged = estep_document(doc, model, lam, config)
    assert converged
    assert np.abs(envelope_grad(doc, vp.gamma, model, lam)).max() <= 1e-5
    assert profiled_objective(doc, vp.gamma, model, lam)[0] >= profiled_objective(doc, slow, model, lam)[0]


def test_penalized_estep_ends_no_lower_than_the_alternation():
    # Document d027 of make_synth(1) against the model of one lam = 0 EM
    # iteration, at lam = 35.  From the start the phi/gamma alternation
    # climbs for ~30 sweeps through a region where L(gamma) is not concave,
    # to gamma ~ (0.18, 0.18, 153.7, 108.0, 0.18) with L = -885.110.  A
    # Newton step on L taken in that region (its Hessian eigenvalues flipped)
    # leaves for the corner gamma ~ (0.2, 0.2, 0.2, 408.7, 0.2), a lower
    # optimum at L = -885.896.  The E-step must end where the alternation
    # does, converged within its default 100 sweeps.
    corpus = make_synth(1)
    model = fit(corpus, TrainConfig(K=5, lam=0.0, seed=1, em_max_iters=1)).model
    doc, lam = corpus.documents[27], 35.0
    config = TrainConfig(K=5, lam=lam)
    plain, _ = fixed_phi_stationarity(doc, model, lam, config, 300)  # it stops moving after ~250
    vp, converged = estep_document(doc, model, lam, config)
    assert converged
    reached = profiled_objective(doc, plain, model, lam)[0]
    assert profiled_objective(doc, vp.gamma, model, lam)[0] >= reached - 1e-12 * abs(reached)
    assert np.abs(np.log(vp.gamma / plain)).max() < 1e-4


def test_lifted_estep_ends_no_lower_than_the_alternation():
    # The documents of make_synth(1) whose lam = 35 E-step takes a lifted
    # fallback step (step_size > 1; d027 above is one) against the same
    # model: each ends no lower in L than 300 sweeps of the alternation.  A
    # lift without the LIFT_MAX cap can leave for a lower optimum.
    corpus = make_synth(1)
    model = fit(corpus, TrainConfig(K=5, lam=0.0, seed=1, em_max_iters=1)).model
    lam = 35.0
    config = TrainConfig(K=5, lam=lam)
    lifted = 0
    for doc in corpus.documents:
        sizes = []
        vp, _ = estep_document(doc, model, lam, config, step_monitor=lambda st: sizes.append(st.step_size))
        if max(sizes) <= 1.0:
            continue
        lifted += 1
        plain, _ = fixed_phi_stationarity(doc, model, lam, config, 300)
        reached = profiled_objective(doc, plain, model, lam)[0]
        assert profiled_objective(doc, vp.gamma, model, lam)[0] >= reached - 1e-12 * abs(reached), doc.id
    assert lifted >= 3


@pytest.mark.parametrize("lam", [5.0, 35.0])
def test_profiled_steps_are_monotone(lam):
    # Every step passed to step_monitor raises its objective, and the
    # documents do reach the profiled step, whose objective is L(gamma).
    corpus = make_synth(7, n_docs=12)
    config = TrainConfig(K=5)
    model = fit(corpus, TrainConfig(K=5, lam=0.0, em_max_iters=1)).model
    profiled = 0
    for doc in corpus.documents:

        def monitor(st):
            nonlocal profiled
            assert st.objective_after >= st.objective_before
            assert np.all(st.value >= GAMMA_FLOOR)
            profiled += is_profiled(st, doc, model, lam)

        estep_document(doc, model, lam, config, step_monitor=monitor)
    assert profiled >= len(corpus.documents)


def step_kind(step, doc, model, lam):
    """0 for a warm step_monitor step, 1 for a cold one, told apart by the objective it compared.

    A warm step compares L(gamma) at its start and end point; a cold one
    compares elbo_gamma_part at the column sums of the phi it started
    from, phi at its start point gamma = value * exp(-step_size * direction).
    """
    start = step.value * np.exp(-step.step_size * step.direction)
    colsums = update_phi(doc, start, model).sum(axis=0)
    warm = [profiled_objective(doc, g, model, lam)[0] for g in (start, step.value)]
    cold = [elbo_gamma_part(g, model.zeta, colsums, lam) for g in (start, step.value)]
    seen = [step.objective_before, step.objective_after]
    matches = [np.allclose(seen, pair, rtol=1e-9, atol=0.0) for pair in (warm, cold)]
    assert any(matches), (seen, warm, cold)
    return matches.index(True)


@pytest.mark.parametrize("lam", [5.0, 35.0])
def test_each_step_compares_its_kinds_objective(lam):
    corpus = make_synth(7, n_docs=12)
    config = TrainConfig(K=5)
    model = fit(corpus, TrainConfig(K=5, lam=0.0, em_max_iters=1)).model
    kinds = []
    for doc in corpus.documents:
        estep_document(doc, model, lam, config, step_monitor=lambda st: kinds.append(step_kind(st, doc, model, lam)))
    assert set(kinds) == {0, 1}  # warm and cold steps both occur


def test_fallback_steps_start_their_line_search_longer():
    # At lam = 5 some warm steps whose H + D M D has no Cholesky factor take
    # the fixed-phi step with its first trial lifted: step_size > 1.  Each
    # is a warm step, its start and objective reconstruct from the record,
    # and no log gamma moves by more than LOG_STEP_MAX.
    corpus = make_synth(7, n_docs=12)
    config = TrainConfig(K=5)
    model = fit(corpus, TrainConfig(K=5, lam=0.0, em_max_iters=1)).model
    lam, lifted = 5.0, 0
    for doc in corpus.documents:
        seen = []
        estep_document(doc, model, lam, config, step_monitor=seen.append)
        for st in seen:
            if st.step_size > 1.0:
                lifted += 1
                assert step_kind(st, doc, model, lam) == 0
                assert st.step_size * np.abs(st.direction).max() <= LOG_STEP_MAX * (1.0 + 1e-12)
    assert lifted >= 3


def test_newton_step_never_lifts_its_step():
    # The public newton_step has one candidate Hessian, so no step of its
    # line search starts beyond the full Newton step.
    config = TrainConfig(K=2)
    sizes = []
    for gamma, zeta, colsums, lam in batched_gamma_states(200, seed=89):
        newton_step(gamma, zeta, colsums, lam, config, step_monitor=lambda st: sizes.append(st.step_size))
    assert sizes and max(sizes) == 1.0


def test_estep_penalty_concentrates_gamma():
    model = make_model(seed=5)
    doc = Document("x", np.random.default_rng(7).integers(0, 10, size=60))
    config = TrainConfig(K=2)
    vp0, _ = estep_document(doc, model, 0.0, config)
    vp100, _ = estep_document(doc, model, 100.0, config)
    assert entropy_of(vp100.gamma) < entropy_of(vp0.gamma)


@pytest.mark.parametrize("lam", [5.0, 35.0])
def test_estep_accepted_steps_are_monotone(lam):
    model = make_model(seed=11)
    doc = Document("x", np.random.default_rng(13).integers(0, 10, size=50))
    config = TrainConfig(K=2)
    seen = []

    def monitor(st):
        seen.append(st)
        assert st.objective_after >= st.objective_before
        assert np.all(st.value >= GAMMA_FLOOR)

    estep_document(doc, model, lam, config, step_monitor=monitor)
    assert seen  # the solver actually took steps


def test_estep_lda_gamma_respects_floor_for_tiny_prior():
    # zeta = 1e-12 plus a topic whose eta is at the smoothing floor on every
    # word of the document: zeta + colsums for that topic falls below the
    # special functions' domain, so the closed form must clamp at GAMMA_FLOOR.
    config = TrainConfig(K=2, zeta=[1e-12, 1e-12])
    floor = ETA_FLOOR
    eta = np.array([[0.2] * 5 + [floor] * 5, [floor] * 5 + [0.2] * 5])
    eta /= eta.sum(axis=1, keepdims=True)
    model = ModelParams(eta, config.resolved_zeta())
    doc = Document("x", [0, 1, 2, 3, 4, 0, 1])
    vp, _ = estep_document(doc, model, 0.0, config)
    assert np.all(vp.gamma >= GAMMA_FLOOR)
    assert float(vp.gamma.min()) == GAMMA_FLOOR
    update_phi(doc, vp.gamma, model)


@pytest.mark.parametrize(
    "K, zeta, tokens",
    [(10, np.full(10, 0.1), np.zeros(20, dtype=np.int64)), (2, np.ones(2), [0])],
    ids=["twenty-words", "one-word"],
)
def test_estep_first_sweep_formula(K, zeta, tokens):
    # The E-step starts from gamma_i = zeta_i + N/K with phi uniform, so one
    # sweep at lam=0 gives the closed form evaluated at that start, with
    # the column sums taken once per distinct word, weighted by its count.
    # The sweep takes them in the phinorm form: with prod = eta[:, w] *
    # exp(E[log theta]) (scaled so its largest weight is 1) and phinorm its
    # sum over topics, added in topic order, colsums = sum_w prod * (count /
    # phinorm).  That is gamma's bytes; the phi column-sum form agrees to
    # rounding.
    model = ModelParams(make_model(seed=4, K=K).eta, zeta)
    doc = Document("x", tokens)
    config = TrainConfig(K=K, estep_max_iters=1)
    vp, _ = estep_document(doc, model, 0.0, config)
    start = zeta + len(doc) / K
    words, counts = np.unique(doc.tokens, return_counts=True)
    psi = digamma(start)
    weights = np.exp(psi - psi.max())
    colsums = 0.0
    for w, count in zip(words.tolist(), counts.tolist()):
        prod = model.eta[:, w] * weights
        phinorm = 0.0
        for value in prod.tolist():
            phinorm += value
        colsums = colsums + prod * (count / phinorm)
    assert np.array_equal(vp.gamma, np.maximum(zeta + colsums, GAMMA_FLOOR))
    phi_words = update_phi(Document("x", words), start, model)
    phi_form = np.maximum(zeta + (counts[:, None] * phi_words).sum(axis=0), GAMMA_FLOOR)
    np.testing.assert_array_max_ulp(vp.gamma, phi_form, maxulp=2)
    assert np.array_equal(vp.phi, update_phi(doc, start, model))


def is_profiled(step, doc, model, lam):
    """Whether a step_monitor step went along the Newton direction of L(gamma)'s Hessian H + D M D.

    Every step of the E-step is on L, so the objective does not tell the
    kinds apart; the direction does.  From the step's start point, gamma =
    value * exp(-step_size * direction), the Newton step in log gamma of H
    + D M D and that of the fixed-phi Hessian H point in different
    directions on these documents.  A capped step is the Newton step
    scaled, so the two are compared up to scale.
    """
    gamma = step.value * np.exp(-step.step_size * step.direction)
    _, grad, hess = profiled_objective(doc, gamma, model, lam)
    grad_t = grad * gamma
    newton = -np.linalg.solve(hess * np.outer(gamma, gamma) + np.diag(grad_t), grad_t)
    d = step.direction
    return np.allclose(d / np.abs(d).max(), newton / np.abs(newton).max(), rtol=0.0, atol=1e-6)


def steps_before_profiled(doc, model, lam, config):
    """How many monitored steps a document's E-step takes before its first profiled one; None if none is."""
    kinds = []
    estep_document(doc, model, lam, config, step_monitor=lambda st: kinds.append(is_profiled(st, doc, model, lam)))
    return kinds.index(True) if True in kinds else None


def assert_batch_independent(corpus, model, config):
    """lam = 0 and lam = 35 documents mixed in one batch: each document's gamma
    and phi bytes and converged flag are the same alone, in the full batch
    and in a 17/33 split, and both flag values occur."""
    docs = corpus.documents
    lams = [35.0 if d % 3 else 0.0 for d in range(len(docs))]
    full, full_converged = estep_batch(docs, model, lams, config)
    halves = ((0, 17), (17, len(docs)))
    parts = [estep_batch(docs[lo:hi], model, lams[lo:hi], config) for lo, hi in halves]
    split = [vp for per_doc, _ in parts for vp in per_doc]
    split_converged = np.concatenate([flags for _, flags in parts])
    assert 0 < full_converged.sum() < len(docs)  # both outcomes occur
    for d, doc in enumerate(docs):
        alone, alone_converged = estep_document(doc, model, lams[d], config)
        for vp, converged in ((split[d], split_converged[d]), (alone, alone_converged)):
            assert vp.gamma.tobytes() == full[d].gamma.tobytes()
            assert vp.phi.tobytes() == full[d].phi.tobytes()
            assert converged == full_converged[d]


def test_estep_batch_results_do_not_depend_on_the_batch():
    corpus = make_synth(5)
    config = TrainConfig(K=5)
    assert_batch_independent(corpus, init_model(corpus, config), config)


def test_estep_batch_results_do_not_depend_on_when_documents_turn_warm():
    # Against the model of one lam = 0 EM iteration the lam = 35 documents
    # take their first profiled step after different numbers of steps, so
    # the batch holds warm and cold documents at once, and a document alone
    # does not.
    corpus = make_synth(5)
    config = TrainConfig(K=5)
    model = fit(corpus, TrainConfig(K=5, lam=0.0, em_max_iters=1)).model
    penalized = [doc for d, doc in enumerate(corpus.documents) if d % 3]
    switches = {steps_before_profiled(doc, model, 35.0, config) for doc in penalized}
    assert len(switches - {None}) >= 2
    assert_batch_independent(corpus, model, config)


def test_estep_batch_results_do_not_depend_on_the_batch_at_many_topics():
    # phi is stored topic-major, one column per bag row.  At K >= 8 numpy
    # sums the K entries of a lone column pairwise but adds the K planes of
    # a wider array one by one, and a document of one distinct word is such
    # a column when it sweeps alone.  Its bytes must still match the batch.
    K, V = 20, 30
    model = make_model(seed=3, K=K, V=V)
    rng = np.random.default_rng(4)
    docs = [Document("one%d" % d, [d] * (d + 1)) for d in range(4)]
    docs += [Document("d%d" % d, rng.integers(0, V, size=int(rng.integers(5, 40)))) for d in range(12)]
    config = TrainConfig(K=K)
    for lam in (0.0, 35.0):
        full, full_converged = estep_batch(docs, model, [lam] * len(docs), config)
        for d, doc in enumerate(docs):
            alone, converged = estep_document(doc, model, lam, config)
            assert alone.gamma.tobytes() == full[d].gamma.tobytes()
            assert alone.phi.tobytes() == full[d].phi.tobytes()
            assert converged == full_converged[d]


def test_estep_many_topics_short_document():
    # At K = 2000 a one-word document starts at gamma_i = 1e-3, where
    # exp(E[log theta]) underflows in every topic; phi must still be the
    # normalized eta[:, w] * exp(E[log theta]), here taken in log space.
    K = 2000
    model = make_model(seed=8, K=K, V=3)
    config = TrainConfig(K=K, estep_max_iters=1)
    vp, _ = estep_document(Document("x", [1]), model, 0.0, config)
    start = model.zeta + 1.0 / K
    logphi = np.log(model.eta[:, 1]) + sp_digamma(start) - sp_digamma(start.sum())
    want = np.exp(logphi - logphi.max())
    assert np.allclose(vp.phi[0], want / want.sum(), rtol=1e-12, atol=0.0)


def test_penalized_estep_short_documents_end_stationary():
    # 250 documents of 5-40 tokens against the planted K = 20 topics at
    # lam = 35, where the penalty lifts the dominant gamma far above the
    # document length.  An unbounded step in log gamma overshoots such a
    # document to gamma ~ 1e19, where Psi(g_k) - Psi(S) is rounding noise,
    # and stops "converged" with |dL/dgamma| ~ 1.  Every converged state must
    # be stationary in the gamma objective at phi = update_phi(gamma).
    K, V, lam = 20, 400, 35.0
    model = ModelParams(block_topics(V, K), np.full(K, 1.0 / K))
    corpus = make_synth(6, n_docs=250, vocab_size=V, k_true=K, len_lo=5, len_hi=40)
    config = TrainConfig(K=K, lam=lam)
    per_doc, converged = estep_batch(corpus.documents, model, [lam] * corpus.n_docs, config)
    assert converged.mean() > 0.9
    for doc, vp, done in zip(corpus.documents, per_doc, converged):
        if done:
            colsums = update_phi(doc, vp.gamma, model).sum(axis=0)
            grad, _ = gamma_grad_hess(vp.gamma, model.zeta, colsums, lam)
            assert np.abs(grad).max() <= 1e-5, doc.id


def test_penalized_estep_returns_the_end_of_its_last_short_step():
    # Document d129 of a third such corpus stops on a Newton step on
    # L(gamma) shorter than newton_tol, which the stop rule does not take;
    # the point before it is 9.1e-6 off stationary.  The E-step returns the
    # step's end point instead, stationary to rounding.
    K, V, lam = 20, 400, 35.0
    model = ModelParams(block_topics(V, K), np.full(K, 1.0 / K))
    doc = make_synth(8, n_docs=250, vocab_size=V, k_true=K, len_lo=5, len_hi=40).documents[129]
    vp, converged = estep_document(doc, model, lam, TrainConfig(K=K, lam=lam))
    assert converged
    assert np.abs(envelope_grad(doc, vp.gamma, model, lam)).max() <= 1e-9


def test_estep_empty_document_error():
    with pytest.raises(ValueError):
        estep_document(Document("x", []), make_model(), 0.0, TrainConfig(K=2))


# ---------------------------------------------------------------------------
# mstep


def test_mstep_matches_brute_force():
    corpus = two_block_corpus(17, n_docs=5, lo=8, hi=15)
    rng = np.random.default_rng(19)
    phis = []
    for doc in corpus.documents:
        p = rng.uniform(0.01, 1.0, size=(len(doc), 2))
        p /= p.sum(axis=1, keepdims=True)
        phis.append(p)
    eta = mstep(corpus, phis)
    oracle = oracle_mstep(corpus, phis, 2, corpus.n_words, 1e-12)
    assert np.allclose(eta, oracle, atol=1e-13)
    assert np.allclose(eta.sum(axis=1), 1.0, atol=1e-12)


def test_mstep_single_word_document():
    corpus = Corpus(Vocabulary(["a", "b", "c"]), [Document("x", [1])])
    eta = mstep(corpus, [np.array([[1.0, 0.0]])])
    assert eta[0, 1] == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(eta[1], 1.0 / 3.0, atol=1e-10)  # floor-only row: uniform


def test_mstep_uniform_phi_gives_word_frequencies():
    corpus = two_block_corpus(23, n_docs=4, lo=20, hi=30)
    phis = [np.full((len(doc), 2), 0.5) for doc in corpus.documents]
    eta = mstep(corpus, phis)
    freq = corpus.word_counts().astype(float)
    freq /= freq.sum()
    assert np.allclose(eta[0], freq, atol=1e-9)
    assert np.allclose(eta[1], freq, atol=1e-9)


def test_mstep_and_elbo_reject_word_ids_outside_the_vocabulary():
    # A negative id would otherwise index eta from the end: word -1 counted as word V-1.
    model = make_model(seed=3, V=3)
    for bad in (-1, 3):
        corpus = Corpus(Vocabulary(["a", "b", "c"]), [Document("x", [0, bad])])
        phi = np.full((2, 2), 0.5)
        with pytest.raises(ValueError, match="word ids"):
            mstep(corpus, [phi])
        with pytest.raises(ValueError, match="word ids"):
            penalized_elbo(corpus, model, [DocVariational(np.array([1.5, 1.5]), phi)], 0.0)


# ---------------------------------------------------------------------------
# fit


def test_fit_lda_trace_is_monotone():
    corpus = two_block_corpus(29)
    res = fit(corpus, TrainConfig(K=2, lam=0.0, seed=4, em_max_iters=25))
    totals = [b.total for b in res.elbo_trace]
    assert len(totals) >= 2
    for prev, cur in zip(totals, totals[1:]):
        assert cur >= prev - 1e-8 * abs(prev)
    for b in res.elbo_trace:
        assert b.penalty_term == 0.0
        assert b.total == pytest.approx(
            b.log_likelihood_terms + b.entropy_of_q + b.penalty_term, abs=1e-9
        )


def test_fit_respects_em_iteration_cap():
    corpus = two_block_corpus(31)
    res = fit(corpus, TrainConfig(K=2, lam=0.0, seed=4, em_max_iters=1))
    assert res.iterations_run == 1
    assert len(res.elbo_trace) == 1
    assert not res.converged


def test_fit_is_deterministic():
    corpus = two_block_corpus(37)
    config = TrainConfig(K=2, lam=5.0, seed=8, em_max_iters=6)
    a = fit(corpus, config)
    b = fit(corpus, config)
    assert [x.total for x in a.elbo_trace] == [x.total for x in b.elbo_trace]
    for va, vb in zip(a.per_doc, b.per_doc):
        assert np.array_equal(va.gamma, vb.gamma)
        assert np.array_equal(va.phi, vb.phi)
    assert np.array_equal(a.model.eta, b.model.eta)


def unconverged_in_split(corpus, config, cut):
    """Unconverged count of the first E-step of a fit, run as two batches."""
    model = init_model(corpus, config)
    lams = config.doc_lams(corpus.n_docs)
    flags = [
        estep_batch(corpus.documents[lo:hi], model, lams[lo:hi], config)[1]
        for lo, hi in ((0, cut), (cut, corpus.n_docs))
    ]
    return int(np.count_nonzero(~np.concatenate(flags)))


def test_fit_counts_unconverged_esteps(caplog):
    corpus = two_block_corpus(59)
    capped = TrainConfig(K=2, lam=5.0, seed=1, em_max_iters=3, estep_max_iters=1)
    with caplog.at_level(logging.INFO, logger="cdtm.inference"):
        serial = fit(corpus, capped)
    assert serial.iterations_run >= 2
    assert serial.unconverged_esteps == [corpus.n_docs] * serial.iterations_run
    assert "12 of 12 E-steps hit estep_max_iters=1" in caplog.text
    assert unconverged_in_split(corpus, capped, 5) == serial.unconverged_esteps[0]

    # A cap the first E-step's documents reach in part: a split batch still agrees.
    loose = TrainConfig(K=2, lam=5.0, seed=1, em_max_iters=3, estep_max_iters=16)
    counts = fit(corpus, loose).unconverged_esteps
    assert all(0 <= c <= corpus.n_docs for c in counts)
    assert 0 < counts[0] < corpus.n_docs
    assert unconverged_in_split(corpus, loose, 5) == counts[0]


def test_fit_rejects_empty_document():
    corpus = Corpus(Vocabulary(["a"]), [Document("x", [0]), Document("y", [])])
    with pytest.raises(ValueError):
        fit(corpus, TrainConfig(K=2))


def test_fit_rejects_empty_corpus():
    corpus = Corpus(Vocabulary(["a", "b"]), [])
    with pytest.raises(ValueError, match="no documents"):
        fit(corpus, TrainConfig(K=2))


def test_fit_penalized_trace_monotone():
    corpus = two_block_corpus(41)
    res = fit(corpus, TrainConfig(K=2, lam=35.0, seed=3, em_max_iters=20))
    totals = [b.total for b in res.elbo_trace]
    for prev, cur in zip(totals, totals[1:]):
        assert cur >= prev - 1e-8 * abs(prev)
    for b in res.elbo_trace:
        assert b.penalty_term <= 0.0


# ---------------------------------------------------------------------------
# penalized_elbo


def test_penalized_elbo_zero_lambda_has_zero_penalty():
    corpus = two_block_corpus(43, n_docs=3, lo=5, hi=9)
    model = make_model(seed=6)
    config = TrainConfig(K=2)
    per_doc = [estep_document(doc, model, 0.0, config)[0] for doc in corpus.documents]
    bk = penalized_elbo(corpus, model, per_doc, 0.0)
    assert bk.penalty_term == 0.0
    assert bk.total == pytest.approx(
        bk.log_likelihood_terms + bk.entropy_of_q, abs=1e-9
    )


def test_penalized_elbo_matches_quadrature_oracle():
    g1, g2 = 2.3, 0.9
    zeta = np.array([0.7, 1.1])
    eta = np.array([[0.8, 0.2], [0.3, 0.7]])
    phi = np.array([[0.35, 0.65]])
    lam = 4.5
    corpus = Corpus(Vocabulary(["x", "y"]), [Document("solo", [0])])
    model = ModelParams(eta, zeta)
    vp = DocVariational(np.array([g1, g2]), phi)
    bk = penalized_elbo(corpus, model, [vp], lam)
    ll, ent, pen = oracle_single_word_elbo(g1, g2, zeta, eta[:, 0], phi[0], lam)
    assert bk.log_likelihood_terms == pytest.approx(ll, abs=1e-9)
    assert bk.entropy_of_q == pytest.approx(ent, abs=1e-9)
    assert bk.penalty_term == pytest.approx(pen, abs=1e-9)
    assert bk.total == pytest.approx(ll + ent + pen, abs=1e-9)


def test_penalty_term_nonincreasing_in_lambda():
    corpus = two_block_corpus(47, n_docs=3, lo=5, hi=9)
    model = make_model(seed=9)
    config = TrainConfig(K=2)
    per_doc = [estep_document(doc, model, 0.0, config)[0] for doc in corpus.documents]
    pens = [penalized_elbo(corpus, model, per_doc, lam).penalty_term for lam in (0.0, 5.0, 35.0)]
    assert pens[0] >= pens[1] >= pens[2]
    assert all(p <= 0.0 for p in pens)


def test_penalized_elbo_lambda_length_validation():
    corpus = two_block_corpus(53, n_docs=3, lo=5, hi=9)
    model = make_model(seed=10)
    config = TrainConfig(K=2)
    per_doc = [estep_document(doc, model, 0.0, config)[0] for doc in corpus.documents]
    with pytest.raises(ValueError):
        penalized_elbo(corpus, model, per_doc, np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# infer_document and perplexity


def test_infer_matches_training_gamma_with_penalty():
    # With the penalty on, EM contracts to its fixed point quickly enough
    # that the training-time gamma and a fresh inference against the final
    # model agree to well below 1e-6.
    corpus = two_block_corpus(5)
    config = TrainConfig(
        K=2, lam=35.0, seed=2, em_max_iters=400, em_rel_tol=1e-13,
        newton_tol=1e-9, estep_max_iters=200,
    )
    res = fit(corpus, config)
    assert res.converged
    worst = 0.0
    for doc, vp in zip(corpus.documents, res.per_doc):
        vp2 = infer_document(doc, res.model, 35.0, config)
        worst = max(worst, float(np.abs(vp2.gamma - vp.gamma).max()))
    assert worst < 1e-6


def test_infer_matches_training_gamma_lda_measured_bound():
    # At lam=0 the EM objective is second-order flat at its optimum, so the
    # parameter residual scales like sqrt(ELBO tolerance): a 1e-12 relative
    # ELBO stop leaves ~1e-5-scale eta drift between the E-step that
    # produced per_doc and the final model.  The assertion pins the
    # measured bound for a deeply converged run.
    corpus = two_block_corpus(5, n_docs=10, lo=80, hi=120, mix_conc=0.1)
    config = TrainConfig(
        K=2, lam=0.0, seed=2, em_max_iters=300, em_rel_tol=1e-12,
        newton_tol=1e-8, estep_max_iters=150,
    )
    res = fit(corpus, config)
    assert res.converged
    worst = 0.0
    for doc, vp in zip(corpus.documents, res.per_doc):
        vp2 = infer_document(doc, res.model, 0.0, config)
        worst = max(worst, float(np.abs(vp2.gamma - vp.gamma).max()))
    assert worst < 1e-4


def test_infer_is_deterministic():
    model = make_model(seed=12)
    doc = Document("x", np.random.default_rng(15).integers(0, 10, size=30))
    config = TrainConfig(K=2, lam=5.0)
    a = infer_document(doc, model, 5.0, config)
    b = infer_document(doc, model, 5.0, config)
    assert np.array_equal(a.gamma, b.gamma)
    assert np.array_equal(a.phi, b.phi)


def test_infer_large_lambda_lowers_entropy():
    model = make_model(seed=14)
    doc = Document("x", np.random.default_rng(16).integers(0, 10, size=50))
    config = TrainConfig(K=2)
    base = infer_document(doc, model, 0.0, config)
    sharp = infer_document(doc, model, 50.0, config)
    assert entropy_of(sharp.gamma) <= entropy_of(base.gamma)


def test_infer_empty_document_error():
    with pytest.raises(ValueError):
        infer_document(Document("x", []), make_model(), 0.0, TrainConfig(K=2))


def test_perplexity_uniform_eta_equals_vocab_size():
    vocab_size = 10
    rng = np.random.default_rng(3)
    vocab = Vocabulary(["u%d" % j for j in range(vocab_size)])
    docs = [Document("p%d" % d, rng.integers(0, vocab_size, size=600)) for d in range(3)]
    corpus = Corpus(vocab, docs)
    uniform = ModelParams(
        np.full((2, vocab_size), 1.0 / vocab_size), np.array([0.5, 0.5])
    )
    pp = perplexity(corpus, uniform, TrainConfig(K=2, lam=0.0))
    assert abs(pp - vocab_size) / vocab_size < 0.01


def test_perplexity_on_training_subset():
    corpus = two_block_corpus(59)
    config = TrainConfig(K=2, lam=0.0, seed=5, em_max_iters=5)
    res = fit(corpus, config)
    subset = Corpus(corpus.vocabulary, corpus.documents[:4])
    a = perplexity(subset, res.model, config)
    b = perplexity(subset, res.model, config)
    assert a == b
    assert 0.0 < a < float("inf")


def test_perplexity_improves_with_more_training():
    corpus = two_block_corpus(61)
    short = fit(corpus, TrainConfig(K=2, lam=0.0, seed=5, em_max_iters=1))
    longer = fit(corpus, TrainConfig(K=2, lam=0.0, seed=5, em_max_iters=8))
    config = TrainConfig(K=2, lam=0.0)
    pp_short = perplexity(corpus, short.model, config)
    pp_long = perplexity(corpus, longer.model, config)
    assert pp_long <= pp_short * (1.0 + 1e-9)


def test_perplexity_empty_corpus_error():
    corpus = Corpus(Vocabulary(["a"]), [])
    with pytest.raises(ValueError):
        perplexity(corpus, make_model(), TrainConfig(K=2))


@pytest.mark.parametrize("lam", [0.0, 35.0, "per-document"])
def test_fit_and_perplexity_agree_with_per_token_definitions(lam):
    # fit and perplexity read phi once per distinct word of each document;
    # the public per-token mstep and penalized_elbo, held to the brute-force
    # and quadrature oracles above, must give the same numbers.
    corpus = make_synth(73, n_docs=16, vocab_size=30, k_true=3, len_lo=20, len_hi=60)
    test = make_synth(74, n_docs=16, vocab_size=30, k_true=3, len_lo=20, len_hi=60)
    if lam == "per-document":
        lam = np.where(np.arange(16) % 3 == 0, 0.0, np.linspace(5.0, 40.0, 16))
    config = TrainConfig(K=3, lam=lam, seed=6, em_max_iters=4)
    res = fit(corpus, config)

    bk = penalized_elbo(corpus, res.model, res.per_doc, lam)
    assert bk.total == pytest.approx(res.elbo_trace[-1].total, rel=1e-12)
    eta = mstep(corpus, [vp.phi for vp in res.per_doc])
    assert np.abs(eta - res.model.eta).max() <= 1e-15

    lams = config.doc_lams(test.n_docs)
    states, _ = estep_batch(test.documents, res.model, lams, config)
    bound = penalized_elbo(test, res.model, states, 0.0).total
    n_tokens = sum(len(doc) for doc in test.documents)
    assert perplexity(test, res.model, config) == pytest.approx(
        math.exp(-bound / n_tokens), rel=1e-12
    )


# ---------------------------------------------------------------------------
# Fit artifacts, written by the CLI


def test_gamma_tsv_round_trip(tmp_path):
    corpus = two_block_corpus(67, n_docs=4, lo=5, hi=9)
    rng = np.random.default_rng(71)
    per_doc = [
        DocVariational(rng.uniform(0.1, 30.0, size=2), np.full((len(doc), 2), 0.5))
        for doc in corpus.documents
    ]
    path = tmp_path / "gamma.tsv"
    write_table(path, [(doc.id, *vp.gamma) for doc, vp in zip(corpus.documents, per_doc)], sep="\t")
    ids, gammas = read_gamma_tsv(path)
    assert ids == [d.id for d in corpus.documents]
    for row, vp in zip(gammas, per_doc):
        assert np.array_equal(row, vp.gamma)  # 17-significant-digit round trip


def test_elbo_trace_csv(tmp_path):
    # train's elbo_trace.csv: a header, then one line per EM iteration of
    # the fit's ElboBreakdown, as %.17g.
    corpus = two_block_corpus(73, n_docs=6, lo=20, hi=30)
    enc = tmp_path / "enc"
    enc.mkdir()
    write_vocabulary_tsv(corpus, enc / "vocab.tsv")
    write_encoded_corpus(corpus, enc / "corpus.tsv")
    argv = ["train", "--input", str(enc), "--out", str(tmp_path / "run"), "--k", "2", "--em-max-iters", "3"]
    assert main(argv) == 0
    trace = fit(corpus, TrainConfig(K=2, em_max_iters=3)).elbo_trace
    lines = (tmp_path / "run" / "elbo_trace.csv").read_text().strip().split("\n")
    assert lines[0] == "iteration,ll_terms,q_entropy,penalty,total"
    assert len(lines) == 1 + len(trace) == 4
    for it, (line, bd) in enumerate(zip(lines[1:], trace), start=1):
        parts = (bd.log_likelihood_terms, bd.entropy_of_q, bd.penalty_term, bd.total)
        assert line == "%d,%.17g,%.17g,%.17g,%.17g" % (it, *parts)

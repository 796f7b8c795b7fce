"""Acceptance gate: nine checks covering the full engine, one per test.

Each test records a pass/fail line (printed in the terminal summary by
conftest) and asserts the same condition, so a red criterion shows up both
ways.  The heavy fixtures — one lam=0 and one lam=35 fit of the shared
synthetic corpus — are session-scoped and reused across criteria.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

import test_eval
from conftest import (
    cdtm_subprocess_env,
    derivative_fd_errors,
    entropy_of,
    make_synth,
    record_criterion,
)
from cdtm.corpus import Corpus, Document, Vocabulary
from cdtm.evaluate import coherence_report
from cdtm.inference import estep_document, fit
from cdtm.model import ModelParams, TrainConfig
from cdtm.specialfn import expected_neg_entropy

CORPUS_SEED = 11
TRAIN_SEED = 0
REP_SEEDS = (101, 202, 303, 404, 505)


def tight_config(lam):
    # The E-step tolerance is tightened past the default so the fixed-point
    # comparison in criterion 1 is measured against solver accuracy, not
    # stopping slack.
    return TrainConfig(
        K=5, lam=lam, seed=TRAIN_SEED,
        newton_tol=1e-7, em_max_iters=30, em_rel_tol=1e-6,
    )


@pytest.fixture(scope="module")
def synth_corpus():
    return make_synth(CORPUS_SEED)


@pytest.fixture(scope="module")
def fit_plain(synth_corpus):
    t0 = time.perf_counter()
    res = fit(synth_corpus, tight_config(0.0))
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def fit_penalized(synth_corpus):
    t0 = time.perf_counter()
    res = fit(synth_corpus, tight_config(35.0))
    return res, time.perf_counter() - t0


def test_criterion_1_lda_reduction(synth_corpus, fit_plain):
    res, seconds = fit_plain
    worst = 0.0
    for vp in res.per_doc:
        target = res.model.zeta + vp.phi.sum(axis=0)
        worst = max(worst, float(np.abs(vp.gamma - target).max()))
    ok = res.converged and worst < 1e-5 and seconds < 60.0
    record_criterion(
        1, ok,
        "lam=0 gamma vs zeta+phi-colsums: worst gap %.2e (< 1e-5), %.1fs (< 60s), converged=%s"
        % (worst, seconds, res.converged),
    )
    assert ok


def test_criterion_2_derivative_check():
    t0 = time.perf_counter()
    worst_grad, worst_hess = derivative_fd_errors(n_states=1000, seed=2024)
    seconds = time.perf_counter() - t0
    ok = worst_grad < 1e-5 and worst_hess < 1e-4
    record_criterion(
        2, ok,
        "1000 random states: grad rel err %.2e (< 1e-5), hess rel err %.2e (< 1e-4), %.1fs"
        % (worst_grad, worst_hess, seconds),
    )
    assert ok


def test_criterion_3_monte_carlo_identity():
    rng = np.random.default_rng(77)
    t0 = time.perf_counter()
    worst_z = 0.0
    for i in range(20):
        k = (2, 5, 10)[i % 3]
        g = np.exp(rng.uniform(np.log(0.2), np.log(20.0), size=k))
        draws = rng.dirichlet(g, size=1_000_000)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(draws > 0, draws * np.log(draws), 0.0)
        vals = terms.sum(axis=1)
        mc = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(vals.shape[0]))
        z = abs(expected_neg_entropy(g) - mc) / se
        worst_z = max(worst_z, z)
    seconds = time.perf_counter() - t0
    ok = worst_z <= 3.0 and seconds < 120.0
    record_criterion(
        3, ok,
        "20 gammas, K in {2,5,10}, 1e6 draws each: worst |z| %.2f (<= 3), %.1fs (< 120s)"
        % (worst_z, seconds),
    )
    assert ok


def test_criterion_4_monotonicity(synth_corpus, fit_plain):
    res, _ = fit_plain
    totals = [b.total for b in res.elbo_trace]
    trace_ok = all(
        cur >= prev - 1e-8 * abs(prev) for prev, cur in zip(totals, totals[1:])
    )

    step_violations = 0
    steps_seen = 0
    config = TrainConfig(K=5)
    for lam in (5.0, 35.0):
        for doc in synth_corpus.documents[:3]:
            def monitor(st):
                nonlocal step_violations, steps_seen
                steps_seen += 1
                if st.objective_after < st.objective_before:
                    step_violations += 1
            estep_document(doc, res.model, lam, config, step_monitor=monitor)
    ok = trace_ok and steps_seen > 0 and step_violations == 0
    record_criterion(
        4, ok,
        "lam=0 ELBO trace non-decreasing over %d iterations: %s; %d accepted steps at lam in {5,35}, %d decreased"
        % (len(totals), trace_ok, steps_seen, step_violations),
    )
    assert ok


def test_criterion_5_entropy_concentration(fit_plain, fit_penalized):
    res0, sec0 = fit_plain
    res35, sec35 = fit_penalized
    ent0 = float(np.mean([entropy_of(vp.gamma) for vp in res0.per_doc]))
    ent35 = float(np.mean([entropy_of(vp.gamma) for vp in res35.per_doc]))
    total = sec0 + sec35
    ok = ent35 < ent0 and total < 120.0
    record_criterion(
        5, ok,
        "mean doc-topic entropy %.4f at lam=35 vs %.4f at lam=0 (strictly less), both fits %.1fs (< 120s)"
        % (ent35, ent0, total),
    )
    assert ok


def test_criterion_6_coherence_direction():
    # One repetition = regenerate the synthetic corpus with the seed, fit
    # both lambda values from that same seed, and compare mean C_V on the
    # training corpus.  (Rerunning only the model init on a single frozen
    # corpus is not used: there coherence saturates near 0.997 for both
    # settings and the comparison measures init noise, not the penalty.)
    wins = 0
    details = []
    for seed in REP_SEEDS:
        corpus = make_synth(seed)
        scores = {}
        for lam in (0.0, 35.0):
            cfg = TrainConfig(K=5, lam=lam, seed=seed, em_max_iters=15, em_rel_tol=1e-5)
            res = fit(corpus, cfg)
            rep = coherence_report(res.model, corpus, top_n=10, window_size=110)
            scores[lam] = rep.mean_cv
        won = scores[35.0] >= scores[0.0]
        wins += won
        details.append("%d:%s %.12f vs %.12f%s" % (
            seed, "W" if won else "L", scores[35.0], scores[0.0],
            " (exact tie)" if scores[35.0] == scores[0.0] else "",
        ))
    ok = wins >= 4
    record_criterion(
        6, ok,
        "mean C_V at lam=35 >= lam=0 in %d/5 repetitions (need >= 4): %s"
        % (wins, "; ".join(details)),
    )
    assert ok


def test_criterion_7_cv_brute_force():
    # 48 tokens, two 5-word topics; top_n=5 lifts exactly each topic's words.
    rng = np.random.default_rng(7)
    eta = np.full((2, 10), 1e-4)
    eta[0, :5] = rng.uniform(0.5, 1.0, size=5)
    eta[1, 5:] = rng.uniform(0.5, 1.0, size=5)
    eta /= eta.sum(axis=1, keepdims=True)
    model = ModelParams(eta, np.array([0.5, 0.5]))

    token_lists = [rng.integers(0, 10, size=12).tolist() for _ in range(4)]
    assert sum(len(t) for t in token_lists) <= 50
    corpus = Corpus(
        Vocabulary(["v%d" % j for j in range(10)]),
        [Document("f%d" % i, toks) for i, toks in enumerate(token_lists)],
    )
    rep = coherence_report(model, corpus, top_n=5, window_size=5)

    worst = 0.0
    for k in range(2):
        want = test_eval.oracle_cv(rep.topics[k].words, token_lists, 5)
        worst = max(worst, abs(rep.per_topic[k] - want))
    oracle_mean = math.fsum(
        test_eval.oracle_cv(rep.topics[k].words, token_lists, 5) for k in range(2)
    ) / 2.0
    worst = max(worst, abs(rep.mean_cv - oracle_mean))
    ok = worst < 1e-10
    record_criterion(
        7, ok, "coherence_report vs window/NPMI/cosine enumeration: worst diff %.2e (< 1e-10)" % worst
    )
    assert ok


def test_criterion_8_invariants(synth_corpus, fit_plain, fit_penalized):
    worst_phi = worst_eta = 0.0
    gamma_ok = True
    ent_lo, ent_hi = float("inf"), -float("inf")
    cv_lo, cv_hi = float("inf"), -float("inf")
    log_k = math.log(5)
    for res, lam in ((fit_plain[0], 0.0), (fit_penalized[0], 35.0)):
        worst_eta = max(worst_eta, float(np.abs(res.model.eta.sum(axis=1) - 1.0).max()))
        for vp in res.per_doc:
            worst_phi = max(worst_phi, float(np.abs(vp.phi.sum(axis=1) - 1.0).max()))
            gamma_ok = gamma_ok and bool(np.all(vp.gamma > 0.0))
            ent = entropy_of(vp.gamma)
            ent_lo, ent_hi = min(ent_lo, ent), max(ent_hi, ent)
        rep = coherence_report(res.model, synth_corpus, top_n=10, window_size=110)
        for val in rep.per_topic.values():
            cv_lo, cv_hi = min(cv_lo, val), max(cv_hi, val)
    ok = (
        worst_phi < 1e-9
        and worst_eta < 1e-9
        and gamma_ok
        and ent_lo >= 0.0
        and ent_hi <= log_k + 1e-12
        and cv_lo >= -1.0
        and cv_hi <= 1.0
    )
    record_criterion(
        8, ok,
        "phi rows off by %.1e, eta rows by %.1e (< 1e-9); entropies in [%.3f, %.3f] within [0, log 5]; C_V in [%.3f, %.3f]"
        % (worst_phi, worst_eta, ent_lo, ent_hi, cv_lo, cv_hi),
    )
    assert ok


def test_criterion_9_cli_determinism(tmp_path, synth_corpus):
    text = tmp_path / "docs.txt"
    with open(text, "w", encoding="utf-8") as fh:
        for doc in synth_corpus.documents:
            fh.write(" ".join(synth_corpus.vocabulary.terms[t] for t in doc.tokens.tolist()) + "\n")

    def run(out_dir):
        return subprocess.run(
            [
                sys.executable, "-c",
                "import sys; from cdtm.cli import main; sys.exit(main(sys.argv[1:]))",
                "train",
                "--input", str(text),
                "--out", str(out_dir),
                "--k", "5",
                "--em-max-iters", "3",
                "--seed", "7",
                "--min-doc-freq", "1",
                "--stopwords", "none",
                "--max-doc-fraction", "1.0",
            ],
            capture_output=True,
            text=True,
            env=cdtm_subprocess_env(),
        )

    r1 = run(tmp_path / "run1")
    r2 = run(tmp_path / "run2")
    procs_ok = r1.returncode == 0 and r2.returncode == 0
    model_same = (
        procs_ok
        and (tmp_path / "run1" / "model.json").read_bytes()
        == (tmp_path / "run2" / "model.json").read_bytes()
    )
    gamma_same = (
        procs_ok
        and (tmp_path / "run1" / "gamma.tsv").read_bytes()
        == (tmp_path / "run2" / "gamma.tsv").read_bytes()
    )
    ok = procs_ok and model_same and gamma_same
    record_criterion(
        9, ok,
        "two fresh-process train runs, same seed: model bytes equal=%s, gamma bytes equal=%s"
        % (model_same, gamma_same),
    )
    assert ok, (r1.stderr, r2.stderr)

"""Special-function tests.

Oracles, in order of independence:
  * analytic anchor values (Psi(1) = -Euler-Mascheroni, Psi'(1) = pi^2/6,
    Psi''(1) = -2 zeta(3), lnGamma(1/2) = ln sqrt(pi)) hard-coded from
    closed forms;
  * mpmath's arbitrary-precision loggamma/psi as an independent
    high-precision evaluation;
  * central finite differences chaining each function to the previous one;
  * Monte-Carlo estimates over explicit Dirichlet draws for the two
    expectation formulas.
"""

import math

import mpmath
import numpy as np
import pytest

from cdtm.inference import GAMMA_FLOOR
from cdtm.specialfn import (
    LGAMMA,
    PSI,
    PSI1,
    PSI2,
    _digamma,
    _evaluate,
    digamma,
    expected_log_theta,
    expected_neg_entropy,
    log_gamma,
    tetragamma,
    trigamma,
)

EULER_MASCHERONI = 0.5772156649015329
APERY = 1.2020569031595942854  # zeta(3)

mpmath.mp.dps = 30


# ---------------------------------------------------------------------------
# Oracles


def oracle_lgamma(x):
    return float(mpmath.loggamma(x))


def oracle_psi(x, order=0):
    return float(mpmath.psi(order, x))


def oracle_mc_log_theta(gamma, n_samples, seed):
    """Monte-Carlo mean and standard error of log theta_i, theta ~ Dirichlet."""
    draws = np.random.default_rng(seed).dirichlet(gamma, size=n_samples)
    logs = np.log(draws)
    return logs.mean(axis=0), logs.std(axis=0, ddof=1) / math.sqrt(n_samples)


def oracle_mc_neg_entropy(gamma, n_samples, seed):
    """Monte-Carlo mean and standard error of sum_i theta_i log theta_i."""
    draws = np.random.default_rng(seed).dirichlet(gamma, size=n_samples)
    vals = np.sum(np.where(draws > 0, draws * np.log(draws), 0.0), axis=1)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_samples))


def central_diff(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# Anchor values and hand identities


def test_log_gamma_anchors():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-12)
    assert log_gamma(2.0) == pytest.approx(0.0, abs=1e-12)
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-12)


def test_digamma_anchors():
    assert digamma(1.0) == pytest.approx(-EULER_MASCHERONI, abs=1e-10)
    assert digamma(2.0) == pytest.approx(1.0 - EULER_MASCHERONI, abs=1e-10)


def test_trigamma_anchors():
    assert trigamma(1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-12)
    assert trigamma(2.0) == pytest.approx(math.pi**2 / 6.0 - 1.0, rel=1e-12)


def test_tetragamma_anchors():
    assert tetragamma(1.0) == pytest.approx(-2.0 * APERY, rel=1e-12)
    assert tetragamma(2.0) == pytest.approx(-2.0 * APERY + 2.0, rel=1e-10)


# GAMMA_FLOOR up to 1e15 spans the arguments the E-step reaches; 1e30 to
# 1e300 guard against intermediates that overflow at large arguments.
LARGE = [1e30, 1e100, 1e300]
LOG_GAMMA_GRID = [GAMMA_FLOOR, 1e-6, 1e-4, 0.1, 0.987, 6.0, 10.5, 444.4, 1e6, 1e12, 1e15] + LARGE
POLYGAMMA_GRID = [GAMMA_FLOOR, 1e-4, 0.03, 0.7, 5.999, 10.5, 777.0, 1e6, 1e12, 1e15] + LARGE


@pytest.mark.parametrize("x", LOG_GAMMA_GRID)
def test_log_gamma_against_high_precision(x):
    assert log_gamma(x) == pytest.approx(oracle_lgamma(x), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("x", POLYGAMMA_GRID)
def test_polygammas_against_high_precision(x):
    assert digamma(x) == pytest.approx(oracle_psi(x, 0), rel=1e-11, abs=1e-10)
    assert trigamma(x) == pytest.approx(oracle_psi(x, 1), rel=1e-10)
    assert tetragamma(x) == pytest.approx(oracle_psi(x, 2), rel=1e-10)


def test_high_precision_grids_as_2d_arrays():
    # The same grid points and tolerances, evaluated as one 2-D array each.
    lg_grid = np.array([LOG_GAMMA_GRID, LOG_GAMMA_GRID[::-1]])
    out = log_gamma(lg_grid)
    assert out.shape == lg_grid.shape
    for x, v in zip(lg_grid.ravel().tolist(), out.ravel().tolist()):
        assert v == pytest.approx(oracle_lgamma(x), rel=1e-12, abs=1e-12)
    grid = np.array([POLYGAMMA_GRID, POLYGAMMA_GRID[::-1]])
    for fn, order, tol in ((digamma, 0, dict(rel=1e-11, abs=1e-10)),
                           (trigamma, 1, dict(rel=1e-10)),
                           (tetragamma, 2, dict(rel=1e-10))):
        out = fn(grid)
        assert out.shape == grid.shape
        for x, v in zip(grid.ravel().tolist(), out.ravel().tolist()):
            assert v == pytest.approx(oracle_psi(x, order), **tol)


# ---------------------------------------------------------------------------
# Recurrences and the derivative chain (property tests)


def test_recurrences_on_random_arguments():
    xs = np.exp(np.random.default_rng(7).uniform(np.log(0.01), np.log(100.0), 1000))
    for x in xs.tolist():
        assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, abs=1e-10)
        assert trigamma(x + 1.0) - trigamma(x) == pytest.approx(
            -1.0 / x**2, rel=1e-9, abs=1e-10
        )
        assert tetragamma(x + 1.0) - tetragamma(x) == pytest.approx(
            2.0 / x**3, rel=1e-9, abs=1e-10
        )


def test_log_gamma_recurrence():
    xs = np.exp(np.random.default_rng(8).uniform(np.log(0.01), np.log(100.0), 200))
    for x in xs.tolist():
        assert log_gamma(x + 1.0) - log_gamma(x) == pytest.approx(
            math.log(x), rel=1e-12, abs=1e-11
        )


def test_derivative_chain_by_finite_differences():
    xs = np.exp(np.random.default_rng(9).uniform(np.log(0.5), np.log(50.0), 50))
    for x in xs.tolist():
        assert digamma(x) == pytest.approx(central_diff(log_gamma, x), rel=1e-5)
        assert trigamma(x) == pytest.approx(central_diff(digamma, x), rel=1e-5)
        assert tetragamma(x) == pytest.approx(central_diff(trigamma, x), rel=1e-5)


def test_sign_conventions():
    for x in (0.02, 0.5, 3.0, 40.0, 1e4):
        assert trigamma(x) > 0.0
        assert tetragamma(x) < 0.0


# ---------------------------------------------------------------------------
# Domain errors and array handling


@pytest.mark.parametrize("fn", [log_gamma, digamma, trigamma, tetragamma])
@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_domain_errors(fn, bad):
    with pytest.raises(ValueError):
        fn(bad)


@pytest.mark.parametrize("fn", [log_gamma, digamma, trigamma, tetragamma])
@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("position", [0, 4, 11])
def test_domain_errors_in_arrays(fn, bad, position):
    # One bad value anywhere in an array fails the whole call.
    xs = np.linspace(0.5, 30.0, 12)
    xs[position] = bad
    with pytest.raises(ValueError):
        fn(xs)
    with pytest.raises(ValueError):
        fn(xs.reshape(3, 4))


def test_array_arguments_match_scalars():
    xs = np.array([0.3, 1.0, 2.5, 11.0])
    for fn in (log_gamma, digamma, trigamma, tetragamma):
        out = fn(xs)
        assert out.shape == xs.shape
        for x, v in zip(xs.tolist(), out.tolist()):
            assert v == fn(x)
    grid = xs.reshape(2, 2)
    assert digamma(grid).shape == (2, 2)


FUNCTIONS = ((LGAMMA, log_gamma), (PSI, digamma), (PSI1, trigamma), (PSI2, tetragamma))


def test_values_do_not_depend_on_the_array_shape():
    # The E-step evaluates each document's gamma in batches of any size, and
    # its results are byte-identical across batches only if an element's
    # value is the same in a slice of any length, in a 2-D or 3-D array and
    # on its own.
    xs = np.exp(np.random.default_rng(31).uniform(np.log(GAMMA_FLOOR), np.log(1e15), 5000))
    full = _evaluate(xs)
    assert full.shape == (4, 5000)
    for f, fn in FUNCTIONS:
        want = fn(xs)
        assert want.tobytes() == full[f].tobytes()
        for n in (1, 2, 3, 5, 7, 13, 21, 64, 100, 1001):
            for offset in (0, 17, 333):
                part = slice(offset, offset + n)
                assert fn(xs[part]).tobytes() == want[part].tobytes()
                assert _evaluate(xs[part])[f].tobytes() == want[part].tobytes()
        assert fn(xs.reshape(50, 100)).tobytes() == want.tobytes()
        assert fn(xs.reshape(10, 20, 25)).tobytes() == want.tobytes()
        assert fn(xs[:4900:7].reshape(-1, 2)).tobytes() == want[:4900:7].tobytes()  # a strided view
        for i in (0, 17, 333, 4999):
            assert fn(float(xs[i])) == want[i]


# The kernels as they stood with six recurrence planes and z, 1/z computed
# on their own, written out for the byte comparison below.  Their bytes are
# the library's: the seventh plane and the stacked reciprocal powers change
# how many numpy calls a kernel makes, not one rounding.
_SIX = np.arange(6.0)[:, None]
_SERIES = np.array([
    [n / (d * 2 * m * (2 * m - 1)), n / (d * 2 * m), n / d, (2 * m + 1) * n / d]
    for m, (n, d) in enumerate(((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510)), start=1)
])


def _six_plane_estrin(y, y2, even, odd):
    s = even + odd * y
    s = s[0::2] + s[1::2] * y2
    return s[0] + s[1] * (y2 * y2)


def _six_plane_psi_finish(out, r, y, s, inv):
    out -= 0.5 * r
    out -= s * y
    out -= inv.sum(axis=0)
    return out


def six_plane_digamma(x):
    flat = x.reshape(-1)
    z = flat + 6.0
    r = 1.0 / z
    y = r * r
    s = _six_plane_estrin(y, y * y, _SERIES[0::2, PSI, None], _SERIES[1::2, PSI, None])
    return _six_plane_psi_finish(np.log(z), r, y, s, 1.0 / (flat + _SIX)).reshape(x.shape)


def six_plane_evaluate(x):
    flat = x.reshape(-1)
    points = flat + _SIX
    z = flat + 6.0
    r = 1.0 / z
    y = r * r
    y2 = y * y
    s = _six_plane_estrin(y, y2, _SERIES[0::2, :, None], _SERIES[1::2, :, None])
    logz = np.log(z)
    inv = 1.0 / points
    inv2 = inv * inv
    out = np.empty((4, flat.size))
    np.subtract((z - 6.5) * logz - z + 0.9189385332046727 + s[LGAMMA] * r, np.log((points * r).prod(axis=0)), out=out[LGAMMA])
    out[PSI] = logz
    _six_plane_psi_finish(out[PSI], r, y, s[PSI], inv)
    np.add(r + 0.5 * y + s[PSI1] * y * r, inv2.sum(axis=0), out=out[PSI1])
    np.subtract(-y - y * r - s[PSI2] * y2, 2.0 * (inv2 * inv).sum(axis=0), out=out[PSI2])
    return out.reshape((4,) + x.shape)


@pytest.mark.parametrize("shape", [(1, 21), (50, 6), (1000, 20)])
def test_kernels_keep_the_six_plane_bytes(shape):
    rng = np.random.default_rng(37)
    grid = np.concatenate([
        np.geomspace(1e-8, 1e15, 20000),
        np.linspace(5.9, 6.1, 2001),  # around the shift, where x + 6 and the planes meet
        np.nextafter(6.0, [0.0, np.inf]),
        [1e-8, 1.0, 6.0, 1e15],
    ])
    for _ in range(5):
        x = rng.choice(grid, size=shape)
        assert _evaluate(x).tobytes() == six_plane_evaluate(x).tobytes()
        assert _digamma(x).tobytes() == six_plane_digamma(x).tobytes()
    assert _evaluate(grid).tobytes() == six_plane_evaluate(grid).tobytes()
    assert _digamma(grid).tobytes() == six_plane_digamma(grid).tobytes()


# ---------------------------------------------------------------------------
# Dirichlet expectation formulas


def test_expected_log_theta_symmetric_cases():
    out = expected_log_theta(np.array([1.0, 1.0]))
    assert out[0] == pytest.approx(-1.0, abs=1e-10)
    assert out[1] == pytest.approx(-1.0, abs=1e-10)
    out3 = expected_log_theta(np.array([2.0, 2.0, 2.0]))
    assert np.allclose(out3, out3[0])
    assert np.all(np.isfinite(np.exp(out3)))


def test_expected_log_theta_against_monte_carlo():
    gamma = np.array([3.7, 1.2])
    mc_mean, mc_se = oracle_mc_log_theta(gamma, 300_000, seed=13)
    analytic = expected_log_theta(gamma)
    assert np.all(np.abs(analytic - mc_mean) <= 3.0 * mc_se)


def test_expected_neg_entropy_uniform_k2_closed_form():
    # gamma=(1,1): sum gi Psi(gi)/S - Psi(S) + (K-1)/S
    #            = -EM - (1 - EM) + 1/2 = -1/2.
    assert expected_neg_entropy(np.array([1.0, 1.0])) == pytest.approx(-0.5, abs=1e-12)


def test_expected_neg_entropy_concentrated_limit():
    val = expected_neg_entropy(np.array([1000.0, 0.01, 0.01, 0.01, 0.01]))
    assert -0.1 < val <= 0.0


def test_expected_neg_entropy_against_monte_carlo():
    gamma = np.full(10, 5.0)
    mc_mean, mc_se = oracle_mc_neg_entropy(gamma, 300_000, seed=17)
    assert abs(expected_neg_entropy(gamma) - mc_mean) <= 3.0 * mc_se


def test_expected_neg_entropy_permutation_invariant():
    rng = np.random.default_rng(23)
    for _ in range(20):
        gamma = rng.uniform(0.2, 8.0, size=6)
        base = expected_neg_entropy(gamma)
        perm = expected_neg_entropy(rng.permutation(gamma))
        assert perm == pytest.approx(base, rel=1e-12, abs=1e-12)


def test_expected_neg_entropy_range():
    rng = np.random.default_rng(29)
    for _ in range(50):
        k = int(rng.integers(2, 12))
        gamma = np.exp(rng.uniform(np.log(0.05), np.log(40.0), size=k))
        val = expected_neg_entropy(gamma)
        assert -math.log(k) - 1e-9 <= val <= 1e-9


def test_expectation_domain_errors():
    with pytest.raises(ValueError):
        expected_log_theta(np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        expected_neg_entropy(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        expected_neg_entropy(np.array([2.0]))  # needs K >= 2
    for fn in (expected_log_theta, expected_neg_entropy):
        with pytest.raises(ValueError):
            fn(np.array([1e308, 1e308]))  # finite entries, but S overflows

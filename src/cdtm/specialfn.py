"""Log-gamma / polygamma evaluations and Dirichlet expectation identities.

The four base functions are computed the classical way: shift the argument
into the asymptotic regime with the recurrence of each function, then apply
a truncated Stirling-type series.  Implementing the whole family in one
place keeps ``digamma``, ``trigamma`` and ``tetragamma`` mutually consistent
(each is the termwise derivative of the previous one), which the gamma
gradient and Hessian of :mod:`cdtm.inference` rely on.

All functions accept a float or an ndarray and return a matching shape.
Arguments must be positive and finite.
"""

import math

import numpy as np

__all__ = [
    "log_gamma",
    "digamma",
    "trigamma",
    "tetragamma",
    "expected_log_theta",
    "expected_neg_entropy",
]

_SHIFT = 6.0
_HALF_LOG_2PI = 0.9189385332046727  # 0.5 * ln(2*pi)

# B_{2m} / (2m*(2m-1)), m = 1..8: coefficients of x^{-(2m-1)} in the
# Stirling series for ln Gamma.
_LGAMMA_SERIES = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)

# B_{2m} / (2m): coefficients of x^{-2m} in the series for psi.
_DIGAMMA_SERIES = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
    -3617.0 / 8160.0,
)

# B_{2m}: coefficients of x^{-(2m+1)} in the series for psi'.
_TRIGAMMA_SERIES = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
)

# (2m+1) * B_{2m}: coefficients of x^{-(2m+2)} in the series for psi''.
_TETRAGAMMA_SERIES = (
    1.0 / 2.0,
    -1.0 / 6.0,
    1.0 / 6.0,
    -3.0 / 10.0,
    5.0 / 6.0,
    -691.0 / 210.0,
    35.0 / 2.0,
    -61489.0 / 510.0,
)


def _check_positive(x, name):
    # NaN fails the comparison too, which is what we want.
    if not (x > 0.0) or math.isinf(x):
        raise ValueError("%s requires a positive finite argument, got %r" % (name, x))


def _lgamma(x):
    _check_positive(x, "log_gamma")
    acc = 0.0
    while x < _SHIFT:
        acc -= math.log(x)
        x += 1.0
    r = 1.0 / x
    r2 = r * r
    s = 0.0
    for c in reversed(_LGAMMA_SERIES):
        s = s * r2 + c
    return acc + (x - 0.5) * math.log(x) - x + _HALF_LOG_2PI + s * r


def _psi(x):
    _check_positive(x, "digamma")
    acc = 0.0
    while x < _SHIFT:
        acc -= 1.0 / x
        x += 1.0
    r = 1.0 / x
    r2 = r * r
    s = 0.0
    for c in reversed(_DIGAMMA_SERIES):
        s = s * r2 + c
    return acc + math.log(x) - 0.5 * r - s * r2


def _psi1(x):
    _check_positive(x, "trigamma")
    acc = 0.0
    while x < _SHIFT:
        acc += 1.0 / (x * x)
        x += 1.0
    r = 1.0 / x
    r2 = r * r
    s = 0.0
    for c in reversed(_TRIGAMMA_SERIES):
        s = s * r2 + c
    return acc + r + 0.5 * r2 + s * r2 * r


def _psi2(x):
    _check_positive(x, "tetragamma")
    acc = 0.0
    while x < _SHIFT:
        acc -= 2.0 / (x * x * x)
        x += 1.0
    r = 1.0 / x
    r2 = r * r
    s = 0.0
    for c in reversed(_TETRAGAMMA_SERIES):
        s = s * r2 + c
    return acc - r2 - r2 * r - s * r2 * r2


def _apply(fn, x):
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        return fn(float(arr))
    out = np.array([fn(v) for v in arr.ravel().tolist()])
    return out.reshape(arr.shape)


def log_gamma(x):
    """ln Gamma(x) for positive finite x (scalar or array)."""
    return _apply(_lgamma, x)


def digamma(x):
    """Psi(x) = d/dx ln Gamma(x) for positive finite x."""
    return _apply(_psi, x)


def trigamma(x):
    """Psi'(x), the first derivative of the digamma function.  Positive on x > 0."""
    return _apply(_psi1, x)


def tetragamma(x):
    """Psi''(x), the second derivative of the digamma function.  Negative on x > 0."""
    return _apply(_psi2, x)


_GAMMA_MIN = 1e-10


def _check_gamma(g, name, min_len=1):
    if g.ndim != 1 or g.shape[0] < min_len:
        raise ValueError("%s expects a 1-D vector of length >= %d" % (name, min_len))
    if not np.all(np.isfinite(g)) or np.any(g < _GAMMA_MIN):
        raise ValueError(
            "%s requires finite gamma entries >= %g (callers should clamp first)"
            % (name, _GAMMA_MIN)
        )


def expected_log_theta(gamma):
    """E[log theta_i] for theta ~ Dirichlet(gamma): Psi(gamma_i) - Psi(sum gamma).

    Returns a vector of strictly negative entries.
    """
    g = np.asarray(gamma, dtype=np.float64)
    _check_gamma(g, "expected_log_theta")
    gl = g.tolist()
    ps = _psi(math.fsum(gl))
    return np.array([_psi(v) - ps for v in gl])


def expected_neg_entropy(gamma):
    """E[sum_i theta_i log theta_i] for theta ~ Dirichlet(gamma).

    Closed form: sum_i gamma_i Psi(gamma_i) / S  -  Psi(S)  +  (K - 1) / S,
    with S = sum_i gamma_i.  This is the negative expected Shannon entropy of
    theta, so the value lies in [-log K, 0].
    """
    g = np.asarray(gamma, dtype=np.float64)
    _check_gamma(g, "expected_neg_entropy", min_len=2)
    gl = g.tolist()
    s = math.fsum(gl)
    k = len(gl)
    acc = math.fsum(v * _psi(v) for v in gl)
    return acc / s - _psi(s) + (k - 1.0) / s

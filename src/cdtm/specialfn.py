"""Log-gamma / polygamma evaluations and Dirichlet expectation identities.

The four base functions are computed the classical way, on whole arrays:
move every argument x to z = x + 6 with the recurrence of each function,
then apply a truncated Stirling-type series at z.  The shift is
unconditional, which is exact for every x > 0, so all elements take the
same path and no Python loop runs over them.  The six recurrence points
x, ..., x + 5 lie along a leading axis, so each recurrence sum adds six
contiguous planes, and lnGamma's six logs are one log of the product of
(x + k) / z (each factor below 1, so the product cannot overflow).  The
series is a polynomial in 1/z^2, evaluated elementwise by Estrin's scheme.
Implementing the whole family in one place keeps ``digamma``, ``trigamma``
and ``tetragamma`` mutually consistent (each is the termwise derivative of
the previous one), which the gamma gradient and Hessian of
:mod:`cdtm.inference` rely on; ``_evaluate`` computes any of them at the
same points from one shift and one series pass, as one stacked array.
Every step acts on each element alone, so an element's value does not
depend on the shape of the array it is evaluated in.

All functions accept a float or an ndarray and return a matching shape (a
float for a scalar).  Arguments must be positive and finite: one bad
element anywhere raises ValueError.
"""

import math
from fractions import Fraction

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
_STEPS = np.arange(_SHIFT)[:, None]  # the recurrence points x + 0, ..., x + 5, down a leading axis
_HALF_LOG_2PI = 0.9189385332046727  # 0.5 * ln(2*pi)

# The Bernoulli numbers B_2, B_4, ..., B_16.  The Stirling-type series at z
# has, for m = 1..8, the coefficient B_{2m} / (2m (2m-1)) of z^{-(2m-1)} for
# ln Gamma, B_{2m} / (2m) of z^{-2m} for psi, B_{2m} of z^{-(2m+1)} for psi'
# and (2m+1) B_{2m} of z^{-(2m+2)} for psi''.  Each coefficient is exact
# rational arithmetic rounded to float once.
_BERNOULLI = tuple(Fraction(*b) for b in (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510)
))

LGAMMA, PSI, PSI1, PSI2 = range(4)
# Series coefficients, lowest power of 1/z^2 first, one column per function.
_SERIES = np.array([
    [float(b / (2 * m * (2 * m - 1))), float(b / (2 * m)), float(b), float((2 * m + 1) * b)]
    for m, b in enumerate(_BERNOULLI, start=1)
])
_ESTRIN = {}  # funcs -> the even and odd power coefficients for them, each (4, len(funcs), 1)


def _evaluate(x, name, funcs):
    """The functions funcs (LGAMMA, PSI, PSI1, PSI2) at x, stacked: shape (len(funcs), *x.shape).

    All of them share one recurrence shift and one series pass, and a
    function's values do not depend on which others are asked for.  The
    recurrence points x + k form a leading axis of six planes, which numpy
    adds (and multiplies) in order whatever the shape: it sums only eight
    or more terms pairwise.  The series is Estrin's scheme in y = 1/z^2
    (pairs a_2i + a_2i+1 y, then pairs of those in y^2, then y^4), one
    elementwise pass for all functions.
    """
    x = np.asarray(x, dtype=np.float64)
    # NaN fails both comparisons, which is what we want.
    if x.size and not (x.min() > 0.0 and x.max() < math.inf):
        bad = x[~((x > 0.0) & (x < math.inf))].flat[0]
        raise ValueError("%s requires positive finite arguments, got %r" % (name, float(bad)))
    key = tuple(funcs)
    if key not in _ESTRIN:
        table = _SERIES[:, list(key)][:, :, None]
        _ESTRIN[key] = table[0::2], table[1::2]
    even, odd = _ESTRIN[key]
    flat = x.reshape(-1)
    points = flat + _STEPS  # (6, n)
    z = flat + _SHIFT
    r = 1.0 / z
    y = r * r
    y2 = y * y
    s = even + odd * y  # (4, len(funcs), n)
    s = s[0::2] + s[1::2] * y2
    s = s[0] + s[1] * (y2 * y2)
    logz = np.log(z)
    if key != (LGAMMA,):
        inv = 1.0 / points
        inv2 = inv * inv if PSI1 in key or PSI2 in key else None
    out = np.empty((len(key), flat.size))
    for j, f in enumerate(key):
        if f == LGAMMA:
            # ln Gamma(z) - sum_k ln(x + k), with sum_k ln(x + k) = 6 ln z + ln prod_k (x + k) / z.
            np.subtract((z - (_SHIFT + 0.5)) * logz - z + _HALF_LOG_2PI + s[j] * r, np.log((points * r).prod(axis=0)), out=out[j])
        elif f == PSI:
            np.subtract(logz - 0.5 * r - s[j] * y, inv.sum(axis=0), out=out[j])
        elif f == PSI1:
            np.add(r + 0.5 * y + s[j] * y * r, inv2.sum(axis=0), out=out[j])
        else:
            np.subtract(-y - y * r - s[j] * y2, 2.0 * (inv2 * inv).sum(axis=0), out=out[j])
    return out.reshape((len(key),) + x.shape)


def _out(values):
    return float(values) if np.ndim(values) == 0 else values


def log_gamma(x):
    """ln Gamma(x) for positive finite x (scalar or array)."""
    return _out(_evaluate(x, "log_gamma", [LGAMMA])[0])


def digamma(x):
    """Psi(x) = d/dx ln Gamma(x) for positive finite x."""
    return _out(_evaluate(x, "digamma", [PSI])[0])


def trigamma(x):
    """Psi'(x), the first derivative of the digamma function.  Positive on x > 0."""
    return _out(_evaluate(x, "trigamma", [PSI1])[0])


def tetragamma(x):
    """Psi''(x), the second derivative of the digamma function.  Negative on x > 0."""
    return _out(_evaluate(x, "tetragamma", [PSI2])[0])


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
    psi = digamma(np.append(g, g.sum()))
    return psi[:-1] - psi[-1]


def expected_neg_entropy(gamma):
    """E[sum_i theta_i log theta_i] for theta ~ Dirichlet(gamma).

    Closed form: sum_i gamma_i Psi(gamma_i) / S  -  Psi(S)  +  (K - 1) / S,
    with S = sum_i gamma_i.  This is the negative expected Shannon entropy of
    theta, so the value lies in [-log K, 0].
    """
    g = np.asarray(gamma, dtype=np.float64)
    _check_gamma(g, "expected_neg_entropy", min_len=2)
    ext = np.append(g, g.sum())[None, :]
    return float(_neg_entropy(ext, digamma(ext))[0])


def _neg_entropy(ext, psi):
    """expected_neg_entropy of each row of ext = [g | S], from psi = Psi(ext)."""
    g, s = ext[:, :-1], ext[:, -1]
    return (g * psi[:, :-1]).sum(axis=1) / s - psi[:, -1] + (g.shape[1] - 1.0) / s

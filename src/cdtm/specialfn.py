"""Log-gamma / polygamma evaluations and Dirichlet expectation identities.

The four base functions are computed the classical way, on whole arrays:
move every argument x to z = x + 6 with the recurrence of each function,
then apply a truncated Stirling-type series at z.  The shift is
unconditional, which is exact for every x > 0, so all elements take the
same path and no Python loop runs over them.  The six recurrence points
x, ..., x + 5 lie along a leading axis, so each recurrence sum adds six
contiguous planes, and lnGamma's six logs are one log of the product of
(x + k) / z (each factor below 1, so the product cannot overflow).  A
seventh plane holds z = x + 6 itself: one add makes the recurrence points
and z, and one division their reciprocals and 1/z.  The series is a
polynomial in 1/z^2, evaluated elementwise by Estrin's scheme.
Implementing the whole family in one place keeps ``digamma``, ``trigamma``
and ``tetragamma`` mutually consistent (each is the termwise derivative of
the previous one), which the gamma gradient and Hessian of
:mod:`cdtm.inference` rely on; ``_evaluate`` computes the four at the
same points from one shift and one series pass, as one stacked array, and
``_digamma`` computes Psi alone with the same operations and no stack.
Every step acts on each element alone, so an element's value does not
depend on the shape of the array it is evaluated in.

All functions accept a float or an ndarray and return a matching shape (a
float for a scalar).  Arguments must be positive and finite: one bad
element anywhere raises ValueError.  The check runs at the public
boundary only: in the four base functions, in the two expectations (the
gamma checks of ``_check_gamma``) and in the public gamma functions of
:mod:`cdtm.inference`.  ``_evaluate`` and ``_digamma`` take float64 arrays
unchecked; the E-step calls them on gamma rows it keeps at or above its
positive floor.
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
_Z = int(_SHIFT)  # the plane of z = x + 6 on the recurrence axis; the planes before it are the recurrence points
_STEPS = np.arange(_SHIFT + 1.0)[:, None]  # x + 0, ..., x + 5 and z = x + 6, down a leading axis
_HALF_LOG_2PI = 0.9189385332046727  # 0.5 * ln(2*pi)

# The Bernoulli numbers B_2, B_4, ..., B_16 as (numerator, denominator).
# The Stirling-type series at z has, for m = 1..8, the coefficient
# B_{2m} / (2m (2m-1)) of z^{-(2m-1)} for ln Gamma, B_{2m} / (2m) of
# z^{-2m} for psi, B_{2m} of z^{-(2m+1)} for psi' and (2m+1) B_{2m} of
# z^{-(2m+2)} for psi''.  Each coefficient is one int / int true division,
# which Python rounds correctly: the exact rational rounded to float once.
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510))

LGAMMA, PSI, PSI1, PSI2 = range(4)  # the rows of _evaluate's stack
# Series coefficients, lowest power of 1/z^2 first, one column per function.
_SERIES = np.array([
    [n / (d * 2 * m * (2 * m - 1)), n / (d * 2 * m), n / d, (2 * m + 1) * n / d]
    for m, (n, d) in enumerate(_BERNOULLI, start=1)
])
_EVEN, _ODD = _SERIES[0::2, :, None], _SERIES[1::2, :, None]  # the four functions', each (4, 4, 1)
_PSI_EVEN, _PSI_ODD = _SERIES[0::2, PSI, None], _SERIES[1::2, PSI, None]  # Psi's alone, each (4, 1)


def _estrin(y, y2, even, odd):
    """The series at y = 1/z^2 (y2 = y^2) by Estrin's scheme: pairs a_2i + a_2i+1 y, then pairs of those in y^2, then y^4."""
    s = even + odd * y
    s = s[0::2] + s[1::2] * y2
    return s[0] + s[1] * (y2 * y2)


def _psi_finish(out, r, y, s, recurrence):
    """Psi in place: out holds ln z and becomes ln z - r/2 - s y - sum_k 1/(x + k), in that order.

    r = 1/z, y = r^2, s is Psi's series at y and recurrence the sum of the
    six recurrence planes 1/(x + k).
    """
    out -= 0.5 * r
    out -= s * y
    out -= recurrence
    return out


def _digamma(x):
    """Psi at the float64 array x, unchecked: the Psi of _evaluate, byte for byte."""
    flat = x.reshape(-1)
    planes = flat + _STEPS  # (7, n): the recurrence points, then z
    inv = 1.0 / planes
    r = inv[_Z]
    y = r * r
    s = _estrin(y, y * y, _PSI_EVEN, _PSI_ODD)
    return _psi_finish(np.log(planes[_Z]), r, y, s, np.add.reduce(inv[:_Z], 0)).reshape(x.shape)


def _evaluate(x):
    """lnGamma, Psi, Psi' and Psi'' at the float64 array x, unchecked, stacked in that order: shape (4, *x.shape).

    All four share one recurrence shift and one series pass.  The
    recurrence points x + k form a leading axis of six planes, which numpy
    adds (and multiplies) in order whatever the shape: it sums only eight
    or more terms pairwise.  z = x + 6 is a seventh plane behind them, so
    the stack of the planes' first three reciprocal powers holds 1/z, 1/z^2
    and 1/z^3 too, and one reduction takes the three recurrence sums.  The
    series is Estrin's scheme in y = 1/z^2, one elementwise pass for all
    four functions.
    """
    flat = x.reshape(-1)
    planes = flat + _STEPS  # (7, n)
    powers = np.empty((3,) + planes.shape)  # 1/(x + k), its square and its cube
    inv = np.divide(1.0, planes, out=powers[0])
    inv2 = np.multiply(inv, inv, out=powers[1])
    np.multiply(inv2, inv, out=powers[2])
    sums = np.add.reduce(powers[:, :_Z], 1)  # (3, n)
    z, r, y, yr = planes[_Z], inv[_Z], inv2[_Z], powers[2, _Z]
    y2 = y * y
    s = _estrin(y, y2, _EVEN, _ODD)  # (4, n)
    out = np.empty((4, flat.size))
    logz = np.log(z, out=out[PSI])  # Psi starts from ln z, after lnGamma has read it
    # ln Gamma(z) - sum_k ln(x + k), with sum_k ln(x + k) = 6 ln z + ln prod_k (x + k) / z.
    np.subtract((z - (_SHIFT + 0.5)) * logz - z + _HALF_LOG_2PI + s[LGAMMA] * r, np.log(np.multiply.reduce(planes[:_Z] * r, 0)), out=out[LGAMMA])
    _psi_finish(logz, r, y, s[PSI], sums[0])
    np.add(r + 0.5 * y + s[PSI1] * y * r, sums[1], out=out[PSI1])
    np.subtract(-y - yr - s[PSI2] * y2, 2.0 * sums[2], out=out[PSI2])
    return out.reshape((4,) + x.shape)


def _checked(x, name):
    """x as a float64 array; ValueError naming name unless every element is positive and finite."""
    x = np.asarray(x, dtype=np.float64)
    # NaN fails both comparisons, which is what we want.
    if x.size and not (x.min() > 0.0 and x.max() < math.inf):
        bad = x[~((x > 0.0) & (x < math.inf))].flat[0]
        raise ValueError("%s requires positive finite arguments, got %r" % (name, float(bad)))
    return x


def _out(values):
    return float(values) if np.ndim(values) == 0 else values


def log_gamma(x):
    """ln Gamma(x) for positive finite x (scalar or array)."""
    return _out(_evaluate(_checked(x, "log_gamma"))[LGAMMA])


def digamma(x):
    """Psi(x) = d/dx ln Gamma(x) for positive finite x."""
    return _out(_digamma(_checked(x, "digamma")))


def trigamma(x):
    """Psi'(x), the first derivative of the digamma function.  Positive on x > 0."""
    return _out(_evaluate(_checked(x, "trigamma"))[PSI1])


def tetragamma(x):
    """Psi''(x), the second derivative of the digamma function.  Negative on x > 0."""
    return _out(_evaluate(_checked(x, "tetragamma"))[PSI2])


_GAMMA_MIN = 1e-10


def _check_gamma(g, name, min_len=1):
    if g.ndim != 1 or g.shape[0] < min_len:
        raise ValueError("%s expects a 1-D vector of length >= %d" % (name, min_len))
    # A finite sum means finite entries, and a finite S for Psi(S).
    with np.errstate(over="ignore"):
        total = g.sum()
    if not np.isfinite(total) or np.any(g < _GAMMA_MIN):
        raise ValueError(
            "%s requires finite gamma entries >= %g, with a finite sum (callers should clamp first)"
            % (name, _GAMMA_MIN)
        )


def expected_log_theta(gamma):
    """E[log theta_i] for theta ~ Dirichlet(gamma): Psi(gamma_i) - Psi(sum gamma).

    Returns a vector of strictly negative entries.
    """
    g = np.asarray(gamma, dtype=np.float64)
    _check_gamma(g, "expected_log_theta")
    psi = _digamma(np.append(g, g.sum()))
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
    return float(_neg_entropy(ext, _digamma(ext))[0])


def _neg_entropy(ext, psi):
    """expected_neg_entropy of each row of ext = [g | S], from psi = Psi(ext)."""
    g, s = ext[:, :-1], ext[:, -1]
    return np.add.reduce(g * psi[:, :-1], 1) / s - psi[:, -1] + (g.shape[1] - 1.0) / s

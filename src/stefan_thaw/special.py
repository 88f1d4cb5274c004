"""Error-function machinery for the front equation.

Everything here reduces to the kernel integral

    g(p, y) = int_0^y exp(-r^2 + p*r*y) dr

and products of the form exp(+z^2)*erfc(z). Completing the square gives the
closed form

    g(p, y) = (sqrt(pi)/2) * exp(p^2 y^2 / 4)
              * (erf((1 - p/2) y) + erf((p/2) y)),

which overflows or cancels catastrophically in different (p, y) corners, so
evaluation is split into branches that route all exp(+z^2)*erfc(z) products
through erfcx. Functions accept scalars or numpy arrays in ``y`` (``p`` is
scalar) and are pure.
"""

from __future__ import annotations

import math

import numpy as np

from ._erf import erf, erfcx, scalar_or_array
from .errors import DomainError, NonFiniteInput, OverflowUnrepresentable

__all__ = [
    "g_eval", "g_partial", "partial_integrand", "g1_eval", "g2_eval",
    "lhs_convective", "lhs_temperature", "lhs_limit_at_zero", "rhs_eval",
]

_SQRT_PI_2 = math.sqrt(math.pi) / 2.0
_EXP_MAX = math.log(np.finfo(float).max)  # ~709.78


def _check_finite(name, value):
    if not np.all(np.isfinite(value)):
        raise NonFiniteInput(f"{name} must be finite")


def _check_y(y, allow_zero=True):
    y = np.asarray(y, dtype=float)
    _check_finite("y", y)
    if allow_zero:
        if np.any(y < 0.0):
            raise DomainError("y must be >= 0")
    else:
        if np.any(y <= 0.0):
            raise DomainError("y must be > 0")
    return y


def _g_and_log(p: float, y: np.ndarray):
    """Return (g, log g) elementwise; y >= 0.

    Where the naive closed form would overflow in double precision a
    scaled/log-space path is taken. The work is done on an array of at least
    one dimension, so a scalar y gets exactly the value it has inside a
    vector.
    """
    shape = np.shape(y)
    y = np.atleast_1d(y)
    c1 = 1.0 - 0.5 * p
    c2 = 0.5 * p
    e_sq = (c2 * y) ** 2  # completed-square exponent p^2 y^2 / 4

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if 0.0 <= p <= 2.0:
            # both erf arguments nonnegative: no cancellation
            s = _SQRT_PI_2 * (erf(c1 * y) + erf(c2 * y))
            log_g = np.where(s > 0.0, e_sq + np.log(np.where(s > 0.0, s, 1.0)), -np.inf)
            g = np.exp(e_sq) * s
            used = e_sq > _EXP_MAX
            g = np.where(used, np.exp(np.minimum(log_g, _EXP_MAX + 1.0)), g)
        elif p < 0.0:
            # g <= sqrt(pi)/2, never overflows; cancellation moves between
            # the erf and erfcx forms as |p| y / 2 crosses O(1)
            b = -c2 * y  # >= 0
            direct = _SQRT_PI_2 * np.exp(e_sq) * (erf(c1 * y) - erf(b))
            scaled = _SQRT_PI_2 * (erfcx(b) - erfcx(c1 * y) * np.exp((p - 1.0) * y * y))
            g = np.where(b < 1.0, direct, scaled)
            log_g = np.where(g > 0.0, np.log(np.where(g > 0.0, g, 1.0)), -np.inf)
        else:  # p > 2
            a = -c1 * y  # (p/2 - 1) y >= 0
            grow = (p - 1.0) * y * y
            # exact identity: g = sqrt(pi)/2 * (erfcx(a) e^{(p-1)y^2} - erfcx(py/2))
            log_arg = _SQRT_PI_2 * (erfcx(a) - erfcx(c2 * y) * np.exp(-grow))
            log_g_scaled = np.where(
                log_arg > 0.0, grow + np.log(np.where(log_arg > 0.0, log_arg, 1.0)), -np.inf
            )
            direct = _SQRT_PI_2 * np.exp(e_sq) * (erf(c2 * y) - erf(a))
            use_scaled = (a >= 1.0) | (e_sq > _EXP_MAX)
            g = np.where(
                use_scaled, np.exp(np.minimum(log_g_scaled, _EXP_MAX + 1.0)), direct
            )
            log_g_direct = np.where(
                direct > 0.0, np.log(np.where(direct > 0.0, direct, 1.0)), -np.inf
            )
            log_g = np.where(use_scaled, log_g_scaled, log_g_direct)

    return g.reshape(shape), log_g.reshape(shape)


def g_eval(p: float, y):
    """Kernel integral int_0^y exp(-r^2 + p r y) dr; zero iff y = 0.

    Returns +inf where the true value exceeds the double range.
    """
    _check_finite("p", p)
    y = _check_y(y, allow_zero=True)
    return scalar_or_array(_g_and_log(float(p), y)[0])


def g1_eval(p: float, y, k0):
    """G1(p, y) = exp((p-1) y^2) / (K0 + g(p, y)).

    Numerator and denominator exponentials are combined in log space before
    exponentiation, so the result is finite whenever the true value is.
    ``k0`` may be an array broadcasting against ``y``; K0 = 0 gives the
    fixed-wall block G1~ = exp((p-1) y^2) / g(p, y), undefined at y = 0.
    """
    _check_finite("p", p)
    k0 = np.asarray(k0, dtype=float)
    if not np.all(np.isfinite(k0) & (k0 >= 0.0)):
        raise NonFiniteInput(f"k0 must be finite and >= 0, got {k0}")
    y = _check_y(y, allow_zero=False)
    _, lg = _g_and_log(float(p), y)
    with np.errstate(divide="ignore"):
        log_den = np.logaddexp(np.log(k0), lg)  # K0 = 0 leaves log g
    if not np.all(k0 > 0.0) and np.any(np.isneginf(log_den)):
        raise DomainError("g(p, y) = 0 with K0 = 0: G1 undefined")
    exponent = (p - 1.0) * y * y - log_den
    if np.any(exponent > _EXP_MAX):
        raise OverflowUnrepresentable("G1 exceeds the double-precision range")
    return scalar_or_array(np.exp(exponent))


def g2_eval(y, gamma0: float):
    """G2(y) = exp(-gamma0^2 y^2) / erfc(gamma0 y) = 1 / erfcx(gamma0 y)."""
    if not (np.isfinite(gamma0) and gamma0 > 0.0):
        raise NonFiniteInput(f"gamma0 must be finite and > 0, got {gamma0}")
    y = _check_y(y, allow_zero=False)
    return scalar_or_array(1.0 / erfcx(gamma0 * y))


def rhs_eval(n: float, y):
    """Right side of the front equation: y + N y^3."""
    _check_finite("n", n)
    y = _check_y(y, allow_zero=False)
    return scalar_or_array(y + n * y ** 3)


def _lhs(y, dl, d1, wall, k0):
    """d1 (1 - (A M / wall) y^2) G1(p, y) - delta2 (1 + M y^2) G2(y), G1 with
    Robin group ``k0``: the fixed-wall equation is the convective one with
    delta1~, B0 and K0 = 0."""
    y = _check_y(y, allow_zero=False)
    m = dl.m_par
    g1 = g1_eval(dl.p_par, y, k0)
    g2 = g2_eval(y, dl.gamma0)
    ratio = dl.a_init * m / wall
    return scalar_or_array(d1 * (1.0 - ratio * y ** 2) * g1 - dl.delta2 * (1.0 + m * y ** 2) * g2)


def lhs_convective(y, dl, k0=None):
    """Left side of the convective front equation.

    delta1 (1 - (A M / B) y^2) G1(p, y) - delta2 (1 + M y^2) G2(y),
    with G1 built from the Robin coefficient through K0. ``k0`` replaces
    ``dl.k0`` and may be an array broadcasting against ``y``: the batched
    h0 sweep passes one K0 per row, so only the G1 term is evaluated per row.
    """
    if dl.k0 is None:
        raise DomainError("convective LHS needs h0-bearing parameters (k0)")
    return _lhs(y, dl, dl.delta1, dl.b_ext, dl.k0 if k0 is None else k0)


def lhs_temperature(y, dl):
    """Left side of the fixed-temperature front equation.

    delta1~ (1 - (A M / B0) y^2) G1~(p, y) - delta2 (1 + M y^2) G2(y);
    blows up like 1/g as y -> 0+.
    """
    if dl.delta1_tilde is None or dl.b0_wall is None:
        raise DomainError("temperature LHS needs B0-bearing parameters")
    return _lhs(y, dl, dl.delta1_tilde, dl.b0_wall, 0.0)


def lhs_limit_at_zero(dl) -> float:
    """Limit of the convective LHS as y -> 0+: delta1/K0 - delta2."""
    if dl.k0 is None:
        raise DomainError("limit needs h0-bearing parameters (k0)")
    return dl.delta1 / dl.k0 - dl.delta2


def g_partial(p: float, xi: float, eta):
    """Profile integral int_0^eta exp(-r^2 + p r xi) dr for eta in [0, xi].

    The cross term couples r to the front coefficient xi, not to the upper
    limit, so this is not g(p, eta). Closed form via the completed square
    with c = p xi / 2.
    """
    _check_finite("p", p)
    _check_finite("xi", xi)
    eta = np.asarray(eta, dtype=float)
    _check_finite("eta", eta)
    c = 0.5 * p * xi
    if c * c > _EXP_MAX:
        raise OverflowUnrepresentable("profile integral scale exp(c^2) overflows")
    return scalar_or_array(_SQRT_PI_2 * math.exp(c * c) * (erf(eta - c) + erf(c)))


def partial_integrand(p: float, xi: float, eta):
    """Integrand exp(-eta^2 + p eta xi) of the profile integral (for analytic
    spatial derivatives)."""
    eta = np.asarray(eta, dtype=float)
    return scalar_or_array(np.exp(-eta * eta + p * eta * xi))

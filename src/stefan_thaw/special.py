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
scalar) and are pure. Each input is checked once, where it enters: the LHS
checks ``y`` and a caller's ``k0`` and runs unchecked kernels.
"""

from __future__ import annotations

import math

import numpy as np

from ._erf import erf, erfcx, pointwise, scalar_or_array
from .errors import DomainError, NonFiniteInput, OverflowUnrepresentable

__all__ = [
    "g_eval", "partial_integrand", "g1_eval", "g2_eval",
    "lhs_convective", "lhs_temperature", "lhs_limit_at_zero", "rhs_eval",
]

_SQRT_PI_2 = math.sqrt(math.pi) / 2.0
_EXP_MAX = math.log(np.finfo(float).max)  # ~709.78


def _check_finite(name, value):
    # a float (np.float64 too) by math.isfinite, about 50 times cheaper than
    # the numpy reduction
    if not (math.isfinite(value) if isinstance(value, float) else np.all(np.isfinite(value))):
        raise NonFiniteInput(f"{name} must be finite")


def _check_y(y, allow_zero=True):
    y = np.asarray(y, dtype=float)
    _check_finite("y", y)
    if np.any(y < 0.0) if allow_zero else np.any(y <= 0.0):
        raise DomainError(f"y must be {'>=' if allow_zero else '>'} 0")
    return y


def _log_positive(x):
    """log x where x > 0, else -inf, without evaluating log there."""
    return np.where(x > 0.0, np.log(np.where(x > 0.0, x, 1.0)), -np.inf)


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
            log_g = e_sq + _log_positive(s)
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
            log_g = _log_positive(g)
        else:  # p > 2
            a = -c1 * y  # (p/2 - 1) y >= 0
            grow = (p - 1.0) * y * y
            # exact identity: g = sqrt(pi)/2 * (erfcx(a) e^{(p-1)y^2} - erfcx(py/2))
            log_arg = _SQRT_PI_2 * (erfcx(a) - erfcx(c2 * y) * np.exp(-grow))
            log_g_scaled = grow + _log_positive(log_arg)
            direct = _SQRT_PI_2 * np.exp(e_sq) * (erf(c2 * y) - erf(a))
            use_scaled = (a >= 1.0) | (e_sq > _EXP_MAX)
            g = np.where(use_scaled, np.exp(np.minimum(log_g_scaled, _EXP_MAX + 1.0)), direct)
            log_g = np.where(use_scaled, log_g_scaled, _log_positive(direct))

    return g.reshape(shape), log_g.reshape(shape)


def g_eval(p: float, y):
    """Kernel integral int_0^y exp(-r^2 + p r y) dr; zero iff y = 0.

    Returns +inf where the true value exceeds the double range.
    """
    _check_finite("p", p)
    y = _check_y(y, allow_zero=True)
    return scalar_or_array(_g_and_log(float(p), y)[0])


def _check_k0(k0):
    k0 = np.asarray(k0, dtype=float)
    if not np.all(np.isfinite(k0) & (k0 >= 0.0)):
        raise NonFiniteInput(f"k0 must be finite and >= 0, got {k0}")
    return k0


def _g1(p: float, y: np.ndarray, k0):
    """G1 on a checked y and K0, in the one (K0 x y) block that log(K0 + g)
    becomes: the exponent and then G1 are written into it."""
    _, lg = _g_and_log(float(p), y)
    with np.errstate(divide="ignore"):
        g1 = np.logaddexp(np.log(k0), lg)  # log(K0 + g); K0 = 0 leaves log g
    if not np.all(k0 > 0.0) and np.any(np.isneginf(g1)):
        raise DomainError("g(p, y) = 0 with K0 = 0: G1 undefined")
    out = g1 if g1.ndim else None          # a 0-d result is a numpy scalar
    g1 = np.subtract((p - 1.0) * y * y, g1, out=out)
    if np.any(g1 > _EXP_MAX):
        raise OverflowUnrepresentable("G1 exceeds the double-precision range")
    return np.exp(g1, out=out)


def g1_eval(p: float, y, k0):
    """G1(p, y) = exp((p-1) y^2) / (K0 + g(p, y)).

    Numerator and denominator exponentials are combined in log space before
    exponentiation, so the result is finite whenever the true value is.
    ``k0`` may be an array broadcasting against ``y``; K0 = 0 gives the
    fixed-wall block G1~ = exp((p-1) y^2) / g(p, y), undefined at y = 0.
    """
    _check_finite("p", p)
    k0 = _check_k0(k0)
    y = _check_y(y, allow_zero=False)
    return scalar_or_array(_g1(p, y, k0))


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
    """d1 (1 - (A M / wall) y^2) G1(p, y) - delta2 (1 + M y^2) G2(y) on a
    checked y and Robin group ``k0``, the G1 block finished in place: the
    fixed-wall equation is the convective one with delta1~, B0 and K0 = 0."""
    m = dl.m_par
    lhs = _g1(dl.p_par, y, k0)
    lhs *= d1 * (1.0 - dl.a_init * m / wall * y ** 2)
    lhs -= dl.delta2 * (1.0 + m * y ** 2) * (1.0 / erfcx(dl.gamma0 * y))
    return scalar_or_array(lhs)


def lhs_convective(y, dl, k0=None):
    """Left side of the convective front equation.

    delta1 (1 - (A M / B) y^2) G1(p, y) - delta2 (1 + M y^2) G2(y),
    with G1 built from the Robin coefficient through K0. ``k0`` replaces
    ``dl.k0`` and may be an array broadcasting against ``y``: the batched
    h0 sweep passes one K0 per row, so only the G1 term is evaluated per row.
    """
    if dl.k0 is None:
        raise DomainError("convective LHS needs h0-bearing parameters (k0)")
    y = _check_y(y, allow_zero=False)
    return _lhs(y, dl, dl.delta1, dl.b_ext, dl.k0 if k0 is None else _check_k0(k0))


def lhs_temperature(y, dl):
    """Left side of the fixed-temperature front equation.

    delta1~ (1 - (A M / B0) y^2) G1~(p, y) - delta2 (1 + M y^2) G2(y);
    blows up like 1/g as y -> 0+.
    """
    if dl.delta1_tilde is None or dl.b0_wall is None:
        raise DomainError("temperature LHS needs B0-bearing parameters")
    return _lhs(_check_y(y, allow_zero=False), dl, dl.delta1_tilde, dl.b0_wall, 0.0)


def lhs_limit_at_zero(dl) -> float:
    """Limit of the convective LHS as y -> 0+: delta1/K0 - delta2."""
    if dl.k0 is None:
        raise DomainError("limit needs h0-bearing parameters (k0)")
    return dl.delta1 / dl.k0 - dl.delta2


def _profile_integral(p: float, xi: float):
    """Profile integral int_0^eta exp(-r^2 + p r xi) dr for eta in [0, xi],
    as a function of eta (a float or an array) bound to (p, xi); the caller
    checks eta.

    The cross term couples r to the front coefficient xi, not to the upper
    limit, so this is not g(p, eta). Closed form via the completed square
    with c = p xi / 2, with math.erf on every element.
    """
    _check_finite("p", p)
    _check_finite("xi", xi)
    c = 0.5 * p * xi
    if c * c > _EXP_MAX:
        raise OverflowUnrepresentable("profile integral scale exp(c^2) overflows")
    scale = _SQRT_PI_2 * math.exp(c * c)
    erf_c = math.erf(c)
    return lambda eta: scale * (pointwise(math.erf, eta - c) + erf_c)


def _profile_integrand(p: float, xi: float):
    """exp(-eta^2 + p eta xi) bound to (p, xi), unchecked; np.exp on a float
    too, for the analytic u_x's last bits."""
    return lambda eta: scalar_or_array(np.exp(-eta * eta + p * eta * xi))


def partial_integrand(p: float, xi: float, eta):
    """Integrand exp(-eta^2 + p eta xi) of the profile integral (for analytic
    spatial derivatives)."""
    _check_finite("p", p)
    _check_finite("xi", xi)
    eta = np.asarray(eta, dtype=float)
    _check_finite("eta", eta)
    return _profile_integrand(p, xi)(eta)

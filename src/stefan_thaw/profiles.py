"""Closed-form temperature fields and the free boundary.

Both boundary problems share one solution type. The unfrozen-zone field is
u = c1 + c2 int_0^eta exp(-r^2 + p r xi) dr with eta = x / (2 alpha_U sqrt(t)),
so c1 = u(0, t) is the wall value: the fixed-wall problem prescribes it
(c1 = B0), the convective problem induces it through the Robin condition.
A convective solution is therefore the fixed-wall solution whose wall value
is its own c1. The frozen-zone field is affine in
erf(x / (2 alpha_F sqrt(t))), and the front is s(t) = 2 xi alpha_U sqrt(t).
Fields are only defined on their own phase region; out-of-region and
non-finite queries raise rather than extrapolate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._erf import pointwise
from .errors import DomainError, NonFiniteInput, OutOfPhaseRegion
from .model import DimensionlessParams, PhysicalParams
from .special import _profile_integral, _profile_integrand, g_eval

__all__ = [
    "Solution", "build_convective_solution", "build_temperature_solution",
    "eval_front", "unfrozen_field", "frozen_field",
]

_REL_SLACK = 1e-12  # tolerated relative overshoot at the front
_X_MAX = float(np.finfo(float).max)  # the frozen zone's upper end: every finite x


@dataclass(frozen=True)
class Solution:
    """Similarity solution of the convective or the fixed-wall problem.

    xi is the front coefficient; c1 = u(0, t) the wall value and c2 the
    coefficient of the profile integral in the unfrozen zone; c3, c4 the
    frozen-zone coefficients; g_xi = g(p, xi), kept for the equivalence
    maps. The interface temperature u(s(t), t) = A M xi^2 is time independent.
    """

    xi: float
    c1: float
    c2: float
    c3: float
    c4: float
    g_xi: float
    dimless: DimensionlessParams
    phys: PhysicalParams | None

    @property
    def interface_temp(self) -> float:
        return self.dimless.a_init * self.dimless.m_par * self.xi ** 2

    @property
    def wall_temp(self) -> float:
        """u(0, t) = c1, time independent."""
        return self.c1

    @property
    def omega(self) -> float:
        """The front coefficient under its fixed-wall name."""
        return self.xi


def _frozen_coefficients(dl: DimensionlessParams, front_coef: float):
    am_sq = dl.a_init * dl.m_par * front_coef ** 2
    denom = math.erfc(dl.gamma0 * front_coef)
    c3 = (am_sq + dl.a_init * math.erf(dl.gamma0 * front_coef)) / denom
    c4 = -(am_sq + dl.a_init) / denom
    return c3, c4


def build_convective_solution(phys: PhysicalParams, dl: DimensionlessParams,
                              xi: float) -> Solution:
    if dl.k0 is None:
        raise DomainError("convective solution needs h0-bearing parameters")
    if xi <= 0.0:
        raise DomainError(f"xi must be > 0, got {xi}")
    g_xi = g_eval(dl.p_par, xi)
    den = g_xi + dl.k0
    am_sq = dl.a_init * dl.m_par * xi ** 2
    c1 = (dl.b_ext * g_xi + am_sq * dl.k0) / den
    c2 = (am_sq - dl.b_ext) / den
    c3, c4 = _frozen_coefficients(dl, xi)
    return Solution(xi=xi, c1=c1, c2=c2, c3=c3, c4=c4, g_xi=g_xi, dimless=dl, phys=phys)


def build_temperature_solution(phys: PhysicalParams | None, dl: DimensionlessParams,
                               omega: float) -> Solution:
    if dl.b0_wall is None:
        raise DomainError("temperature solution needs B0-bearing parameters")
    if omega <= 0.0:
        raise DomainError(f"omega must be > 0, got {omega}")
    g_om = g_eval(dl.p_par, omega)
    am_sq = dl.a_init * dl.m_par * omega ** 2
    c2 = (am_sq - dl.b0_wall) / g_om
    c3, c4 = _frozen_coefficients(dl, omega)
    return Solution(xi=omega, c1=dl.b0_wall, c2=c2, c3=c3, c4=c4, g_xi=g_om, dimless=dl,
                    phys=phys)


def eval_front(sol: Solution, t: float) -> float:
    """Front position s(t) = 2 xi alpha_U sqrt(t)."""
    if not math.isfinite(t):
        raise NonFiniteInput(f"t must be finite, got {t}")
    if t < 0.0:
        raise DomainError(f"t must be >= 0, got {t}")
    return 2.0 * sol.xi * sol.dimless.alpha_u * math.sqrt(t)


def _scales(sol: Solution, alpha: float, t: float):
    """Check t for a field; return s(t) and the x -> eta scale 2 alpha sqrt(t)."""
    if math.isfinite(t) and t <= 0.0:      # eval_front rejects a non-finite t
        raise DomainError(f"t must be > 0, got {t}")
    return eval_front(sol, t), 2.0 * alpha * math.sqrt(t)


def _check_x(x, lo: float, hi: float, region: str):
    """x, a float or an array checked elementwise, must be finite and in [lo, hi];
    an array names its first non-finite element, else its first one outside."""
    if isinstance(x, np.ndarray):
        if ((lo <= x) & (x <= hi)).all():      # false for NaN and +-inf too
            return
        bad = ~np.isfinite(x)
        x = float(x[bad if bad.any() else (x < lo) | (x > hi)][0])
    if not math.isfinite(x):
        raise NonFiniteInput(f"x must be finite, got {x}")
    if not lo <= x <= hi:
        raise OutOfPhaseRegion(f"x = {x} {region}")


def unfrozen_field(sol: Solution, t: float):
    """u(., t) on 0 <= x <= s(t): t is checked and the t-dependent factors
    formed once, x (a float or an array) on every call; ``field(x, True)``
    is the analytic u_x."""
    s, half = _scales(sol, sol.dimless.alpha_u, t)
    limit, region = s * (1.0 + _REL_SLACK), f"is outside [0, s({t}) = {s}]"
    p, xi, c1, c2 = sol.dimless.p_par, sol.xi, sol.c1, sol.c2
    integral, integrand = _profile_integral(p, xi), _profile_integrand(p, xi)

    def field(x, derivative: bool = False):
        _check_x(x, 0.0, limit, region)
        eta = np.minimum(x / half, xi)
        if derivative:
            return c2 * integrand(eta) / half
        return c1 + c2 * integral(eta)

    return field


def frozen_field(sol: Solution, t: float):
    """v(., t) on x >= s(t), bound and checked as ``unfrozen_field`` is, with
    math.erf and math.exp on every element; ``field(x, True)`` is v_x."""
    s, half = _scales(sol, sol.dimless.alpha_f, t)
    limit, region = s * (1.0 - _REL_SLACK), f"is before the front s({t}) = {s}"
    c3, c4 = sol.c3, sol.c4

    def field(x, derivative: bool = False):
        _check_x(x, limit, _X_MAX, region)
        arg = x / half
        if derivative:
            return c4 * (2.0 / math.sqrt(math.pi)) * pointwise(math.exp, -arg * arg) / half
        return c3 + c4 * pointwise(math.erf, arg)

    return field


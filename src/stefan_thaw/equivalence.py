"""Mapping between the convective and fixed-temperature problems.

In the regime M > 0, N > 0, p <= 1 (with supercritical h0 for the
convective side) the two problems are two parametrizations of the same
solution: the wall value induced by the Robin condition turns the
convective solution into a fixed-temperature one with the same front, and
conversely a suitable heat-transfer coefficient recovers the Robin problem.
Operations refuse (HypothesesNotMet) outside that regime rather than
extrapolate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import HypothesesNotMet
from .model import DimensionlessParams
from .profiles import Solution, build_temperature_solution
from .solver import SolveOptions, solve_omega
from .special import g_eval, lhs_limit_at_zero

__all__ = [
    "InequalityResult",
    "b0_from_convective", "h0_from_temperature", "k0_from_temperature",
    "omega_inequality_check", "omega_inequality_limit_check",
    "omega_infinity", "temperature_counterpart",
]


@dataclass(frozen=True)
class InequalityResult:
    holds: bool
    margin: float   # lhs - rhs; positive margin = inequality satisfied
    lhs: float
    rhs: float


def _require_regime(dl: DimensionlessParams):
    if not (dl.m_par > 0.0 and dl.n_par > 0.0) and not dl.classical:
        raise HypothesesNotMet(
            f"requires M > 0 and N > 0, got M = {dl.m_par}, N = {dl.n_par}"
        )
    if dl.p_par > 1.0:
        raise HypothesesNotMet(f"requires p <= 1.0, got p = {dl.p_par}")


def b0_from_convective(sol: Solution) -> float:
    """Wall temperature induced by the convective solution.

    B0 = (B g(p, xi) + A M K0 xi^2) / (g(p, xi) + K0) = u(0, t), the
    solution's c1; satisfies A M xi^2 < B0 < B.
    """
    dl = sol.dimless
    _require_regime(dl)
    if lhs_limit_at_zero(dl) <= 0.0:
        raise HypothesesNotMet("requires h0 above the critical threshold")
    return sol.wall_temp


def k0_from_temperature(sol: Solution, b_ext: float) -> float:
    """Dimensionless Robin group K0 recovering the temperature solution:
    K0 = (B - B0) g(p, omega) / (B0 - A M omega^2)."""
    dl = sol.dimless
    _require_regime(dl)
    b0 = sol.wall_temp
    if b_ext <= b0:
        raise HypothesesNotMet(f"requires B > B0, got B = {b_ext}, B0 = {b0}")
    am_sq = dl.a_init * dl.m_par * sol.xi ** 2
    if b0 - am_sq <= 0.0:
        raise HypothesesNotMet("requires B0 > A M omega^2")
    return (b_ext - b0) * g_eval(dl.p_par, sol.xi) / (b0 - am_sq)


def h0_from_temperature(sol: Solution, b_ext: float) -> float:
    """Heat-transfer coefficient recovering the temperature solution:
    h0 = k_U (B0 - A M omega^2) / (2 alpha_U (B - B0) g(p, omega))."""
    if sol.phys is None:
        raise HypothesesNotMet("needs dimensional parameters (k_U) to express h0")
    k0 = k0_from_temperature(sol, b_ext)
    return sol.phys.k_u / (2.0 * sol.dimless.alpha_u * k0)


def omega_inequality_check(sol: Solution, b_ext: float) -> InequalityResult:
    """Front-coefficient inequality for the fixed-wall problem:

    (B0 - A M omega^2) / g(p, omega) > 2 alpha_U k_F A (B - B0)
                                       / (alpha_F k_U B sqrt(pi)).
    """
    dl = sol.dimless
    _require_regime(dl)
    b0 = sol.wall_temp
    if b_ext <= b0:
        raise HypothesesNotMet(f"requires B > B0, got B = {b_ext}, B0 = {b0}")
    am_sq = dl.a_init * dl.m_par * sol.xi ** 2
    lhs = (b0 - am_sq) / g_eval(dl.p_par, sol.xi)
    # 2 alpha_U k_F A / (alpha_F k_U sqrt(pi)) = (delta2 / delta1) * B
    rhs = (dl.delta2 / dl.delta1) * dl.b_ext * (b_ext - b0) / b_ext
    return InequalityResult(holds=lhs > rhs, margin=lhs - rhs, lhs=lhs, rhs=rhs)


def omega_inequality_limit_check(sol: Solution) -> InequalityResult:
    """B -> infinity form: (B0 - A M omega^2)/g(p, omega) > 2 alpha_U A k_F
    / (alpha_F k_U sqrt(pi))."""
    dl = sol.dimless
    _require_regime(dl)
    am_sq = dl.a_init * dl.m_par * sol.xi ** 2
    lhs = (sol.wall_temp - am_sq) / g_eval(dl.p_par, sol.xi)
    rhs = (dl.delta2 / dl.delta1) * dl.b_ext
    return InequalityResult(holds=lhs > rhs, margin=lhs - rhs, lhs=lhs, rhs=rhs)


def omega_infinity(dl: DimensionlessParams, opts: SolveOptions | None = None) -> float:
    """Front coefficient of the fixed-wall problem with wall value B.

    This is the h0 -> infinity limit of the convective problem; every
    convective front coefficient lies strictly below it, which is proven for
    p <= 1. For 1 < p <= 2 the fixed-wall root is still unique (solve_omega's
    report) but the bound is unproven, so this refuses p > 1.
    """
    _require_regime(dl)
    dl_b = dl.with_b0(dl.b_ext)
    roots = solve_omega(dl_b, opts)
    return roots.principal


def temperature_counterpart(sol: Solution,
                            opts: SolveOptions | None = None) -> Solution:
    """Solve the fixed-wall problem with the wall value induced by the
    convective solution; the fronts must coincide."""
    b0 = b0_from_convective(sol)
    dl_b0 = sol.dimless.with_b0(b0)
    roots = solve_omega(dl_b0, opts)
    return build_temperature_solution(sol.phys, dl_b0, roots.principal)

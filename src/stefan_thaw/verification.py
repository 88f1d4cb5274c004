"""Independent residual checks of a candidate similarity solution.

The closed forms are differenced numerically in the similarity variable
(eta for the unfrozen zone, x / (2 alpha_F sqrt(t)) for the frozen zone) and
mapped back to the governing equations, manufactured-solutions style. The
interface energy balance uses the analytic one-sided derivatives, so it is a
sharp detector: a front coefficient that does not solve the transcendental
equation fails it at first order. Both boundary problems run through one
check body; only the boundary condition at x = 0 differs, so
``verify_convective`` (Robin flux) and ``verify_temperature`` (wall value)
each pass theirs in.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, VerificationFailed
from .model import DimensionlessParams
from .profiles import Solution, eval_front, eval_u, eval_u_x, eval_v, eval_v_x
from .special import g1_eval, g2_eval

__all__ = [
    "VerifyConfig", "ResidualReport",
    "verify_convective", "verify_temperature", "asymptotic_suite",
]


@dataclass(frozen=True)
class VerifyConfig:
    eta_steps: tuple = (1e-2, 5e-3, 2.5e-3)   # FD steps in the similarity variable
    probe_times: tuple = (0.25, 1.0, 4.0)
    n_samples: int = 64
    gap_tol: float = 1e-8
    min_order: float = 1.8
    min_r2: float = 0.99
    farfield_eta: float = 40.0                 # in units of alpha_F sqrt(t)


@dataclass
class ResidualReport:
    levels: list[float]
    pde_u_residual: list[float]                # max-norm per level
    pde_v_residual: list[float]
    interface_temp_gap: float
    stefan_balance_gap: float
    boundary_gap: float                        # convective flux or wall value
    farfield_gap: float
    refinement_orders: dict = field(default_factory=dict)
    ok: bool = False

    def to_json(self) -> str:
        payload = {
            "levels": self.levels,
            "pde_u_residual": self.pde_u_residual,
            "pde_v_residual": self.pde_v_residual,
            "interface_temp_gap": self.interface_temp_gap,
            "stefan_balance_gap": self.stefan_balance_gap,
            "boundary_gap": self.boundary_gap,
            "farfield_gap": self.farfield_gap,
            "refinement_orders": self.refinement_orders,
            "ok": self.ok,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _fit_order(levels, residuals):
    """Least-squares slope of log residual vs log step, with R^2."""
    x = np.log(np.asarray(levels, dtype=float))
    y = np.log(np.asarray(residuals, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return float(slope), float(r2)


def _unfrozen_window(xi: float, steps, n: int):
    """n sample points on one eta-window [lo, xi - lo], and the steps to
    difference them with.

    Every refinement level samples the same points, so the fitted order
    sees only the step. On a shallow front, where the coarsest step exceeds
    0.2 xi, every step is scaled by one common factor to bring it to 0.2 xi;
    that shifts each log step equally and leaves the fitted order unchanged.
    """
    scale = min(1.0, 0.2 * xi / max(steps))
    steps = [h * scale for h in steps]
    lo = max(0.05 * xi, 2.0 * max(steps))
    return np.linspace(lo, xi - lo, n), steps


def _pde_residual_unfrozen(sol: Solution, etas, t: float, h: float) -> float:
    """Max-norm residual of the advection-diffusion equation on the unfrozen
    zone, differenced in eta: Phi'' + 2 (eta - b rho xi) Phi' = 0."""
    dl = sol.dimless
    half = 2.0 * dl.alpha_u * math.sqrt(t)

    def phi(e):
        return eval_u(sol, e * half, t)

    worst = 0.0
    drift = dl.b_coef * dl.rho_jump * sol.xi
    for e in etas:
        f_m, f_0, f_p = phi(e - h), phi(e), phi(e + h)
        d1 = (f_p - f_m) / (2.0 * h)
        d2 = (f_p - 2.0 * f_0 + f_m) / (h * h)
        res = (d2 + 2.0 * (e - drift) * d1) / (4.0 * t)
        worst = max(worst, abs(res))
    return worst


def _pde_residual_frozen(sol: Solution, t: float, h: float, n: int) -> float:
    """Max-norm residual of the diffusion equation on the frozen zone,
    differenced in eta_F: Psi'' + 2 eta_F Psi' = 0."""
    dl = sol.dimless
    start = dl.gamma0 * sol.xi
    etas = np.linspace(start + max(0.1, 2.0 * h), start + 2.5, n)
    half = 2.0 * dl.alpha_f * math.sqrt(t)

    def psi(e):
        return eval_v(sol, e * half, t)

    worst = 0.0
    for e in etas:
        f_m, f_0, f_p = psi(e - h), psi(e), psi(e + h)
        d1 = (f_p - f_m) / (2.0 * h)
        d2 = (f_p - 2.0 * f_0 + f_m) / (h * h)
        res = (d2 + 2.0 * e * d1) / (4.0 * t)
        worst = max(worst, abs(res))
    return worst


def _interface_gaps(sol: Solution, times):
    """(interface temperature gap, energy balance gap), max over probe times."""
    dl = sol.dimless
    phys = sol.phys
    if phys is None:
        raise DomainError("verification needs dimensional parameters (k_U, k_F)")
    temp_gap = 0.0
    balance_gap = 0.0
    for t in times:
        s = eval_front(sol, t)
        s_dot = sol.xi * dl.alpha_u / math.sqrt(t)
        pressure_temp = dl.d_coef * dl.rho_jump * s * s_dot
        temp_gap = max(
            temp_gap,
            abs(eval_u(sol, s, t) - pressure_temp),
            abs(eval_v(sol, s, t) - pressure_temp),
        )
        flux = phys.k_f * eval_v_x(sol, s, t) - phys.k_u * eval_u_x(sol, s, t)
        sink = dl.alpha_lat * s_dot + dl.beta_coef * dl.rho_jump * s * s_dot ** 2
        balance_gap = max(balance_gap, abs(flux - sink))
    return temp_gap, balance_gap


def _finish(report: ResidualReport, cfg: VerifyConfig, boundary_name: str):
    order_u, r2_u = _fit_order(report.levels, report.pde_u_residual)
    order_v, r2_v = _fit_order(report.levels, report.pde_v_residual)
    report.refinement_orders = {
        "pde_u": order_u, "pde_u_r2": r2_u,
        "pde_v": order_v, "pde_v_r2": r2_v,
    }
    checks = [
        ("interface_temp_gap", report.interface_temp_gap, cfg.gap_tol),
        ("stefan_balance_gap", report.stefan_balance_gap, cfg.gap_tol),
        (boundary_name, report.boundary_gap, cfg.gap_tol),
        ("farfield_gap", report.farfield_gap, cfg.gap_tol),
    ]
    # written as "not within bound" so that a NaN fails
    for name, value, tol in checks:
        if not value <= tol:
            raise VerificationFailed(name, value, tol, report=report)
    for name, order, r2 in (("pde_u", order_u, r2_u), ("pde_v", order_v, r2_v)):
        if not order >= cfg.min_order:
            raise VerificationFailed(f"{name}_order", order, cfg.min_order,
                                     report=report, lower_bound=True)
        if not r2 >= cfg.min_r2:
            raise VerificationFailed(f"{name}_fit_r2", r2, cfg.min_r2,
                                     report=report, lower_bound=True)
    report.ok = True
    return report


def _verify(sol: Solution, cfg: VerifyConfig | None, boundary_name: str,
            boundary_gap) -> ResidualReport:
    """Check a similarity solution against the full system; ``boundary_gap(t)``
    is the gap in the condition at x = 0 at time t."""
    cfg = cfg or VerifyConfig()
    dl = sol.dimless
    etas, u_steps = _unfrozen_window(sol.xi, cfg.eta_steps, cfg.n_samples)

    pde_u = [
        max(_pde_residual_unfrozen(sol, etas, t, h) for t in cfg.probe_times)
        for h in u_steps
    ]
    pde_v = [
        max(_pde_residual_frozen(sol, t, h, cfg.n_samples) for t in cfg.probe_times)
        for h in cfg.eta_steps
    ]
    temp_gap, balance_gap = _interface_gaps(sol, cfg.probe_times)
    bc_gap = 0.0
    far_gap = 0.0
    for t in cfg.probe_times:
        bc_gap = max(bc_gap, boundary_gap(t))
        x_far = cfg.farfield_eta * dl.alpha_f * math.sqrt(t)
        far_gap = max(far_gap, abs(eval_v(sol, x_far, t) + dl.a_init))

    report = ResidualReport(
        levels=list(cfg.eta_steps),
        pde_u_residual=pde_u, pde_v_residual=pde_v,
        interface_temp_gap=temp_gap, stefan_balance_gap=balance_gap,
        boundary_gap=bc_gap, farfield_gap=far_gap,
    )
    return _finish(report, cfg, boundary_name)


def verify_convective(sol: Solution, cfg: VerifyConfig | None = None) -> ResidualReport:
    """Check a solution of the convective problem: the Robin condition
    k_U u_x(0, t) = (h0 / sqrt(t)) (u(0, t) - B) at the wall."""
    phys = sol.phys

    def robin_gap(t):
        flux = phys.k_u * eval_u_x(sol, 0.0, t)
        robin = (phys.h0 / math.sqrt(t)) * (eval_u(sol, 0.0, t) - phys.b_ext)
        return abs(flux - robin)

    return _verify(sol, cfg, "convective_bc_gap", robin_gap)


def verify_temperature(sol: Solution, cfg: VerifyConfig | None = None) -> ResidualReport:
    """Check a solution of the fixed-wall problem: u(0, t) = B0."""
    b0 = sol.dimless.b0_wall
    if b0 is None:
        raise DomainError("the wall-value check needs B0-bearing parameters")
    return _verify(sol, cfg, "wall_bc_gap", lambda t: abs(eval_u(sol, 0.0, t) - b0))


def asymptotic_suite(dl: DimensionlessParams, y_far: float = 40.0,
                     y_ratio: float = 25.0, n_grid: int = 1000) -> dict:
    """Large-argument behavior of the two LHS building blocks.

    Evaluates the applicable limit/equivalent claims for the given p branch
    and the monotonicity of (1 + M y^2) G2(y) when M > 0. Reporting only:
    returns a dict of named checks with observed values and pass booleans.
    """
    m, p = dl.m_par, dl.p_par
    ratio_amb = dl.a_init * m / dl.b_ext
    checks: dict[str, dict] = {}

    def block_g1(y):
        return (1.0 - ratio_amb * y * y) * g1_eval(p, y, dl.k0 if dl.k0 is not None else 0.0)

    def block_g2(y):
        return (1.0 + m * y * y) * g2_eval(y, dl.gamma0)

    if p < 2.0:
        val = abs(block_g1(y_far))
        checks["g1_block_vanishes"] = {"value": val, "passed": val <= 1e-8}
    elif p == 2.0:
        target = -(2.0 * ratio_amb / math.sqrt(math.pi)) * y_ratio ** 2
        r = block_g1(y_ratio) / target
        checks["g1_block_equivalent_p2"] = {"ratio": r, "passed": 0.95 <= r <= 1.05}
    else:
        target = -(ratio_amb * (p - 2.0)) * y_ratio ** 3
        r = block_g1(y_ratio) / target
        checks["g1_block_equivalent_pgt2"] = {"ratio": r, "passed": 0.95 <= r <= 1.05}

    target2 = math.sqrt(math.pi) * dl.gamma0 * m * y_ratio ** 3
    r2 = block_g2(y_ratio) / target2 if target2 != 0.0 else float("nan")
    checks["g2_block_equivalent"] = {"ratio": r2, "passed": abs(r2 - 1.0) <= 0.02}

    sign_ok = math.copysign(1.0, block_g2(y_far)) == math.copysign(1.0, m) if m != 0.0 else True
    checks["g2_block_sign_at_infinity"] = {"passed": sign_ok}

    if m > 0.0:
        grid = np.geomspace(1e-3, y_ratio, n_grid)
        vals = (1.0 + m * grid ** 2) * g2_eval(grid, dl.gamma0)
        violations = int(np.sum(np.diff(vals) <= 0.0))
        checks["g2_block_increasing"] = {"violations": violations, "passed": violations == 0}

    checks["all_passed"] = {"passed": all(c.get("passed", True) for c in checks.values())}
    return checks

"""Independent residual checks of a candidate similarity solution.

The closed forms are differenced numerically in the similarity variable
(eta for the unfrozen zone, x / (2 alpha_F sqrt(t)) for the frozen zone) and
mapped back to the governing equations, manufactured-solutions style. The
interface energy balance uses the analytic one-sided derivatives, so it is a
sharp detector: a front coefficient that does not solve the transcendental
equation fails it at first order. One stencil differences both zones and
one body checks both boundary problems: ``verify_convective`` (Robin flux)
and ``verify_temperature`` (wall value) pass in only the condition at x = 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DomainError, VerificationFailed
from .model import DimensionlessParams
from .profiles import Solution, eval_front, frozen_field, unfrozen_field
from .special import g1_eval, g2_eval

__all__ = [
    "ResidualReport", "verify_convective", "verify_temperature", "asymptotic_suite",
]

_ETA_STEPS = (1e-2, 5e-3, 2.5e-3)       # FD steps in the similarity variable
_PROBE_TIMES = (0.25, 1.0, 4.0)
_N_SAMPLES = 64
_GAP_TOL = 1e-8
_MIN_ORDER = 1.8
_MIN_R2 = 0.99
_FARFIELD_ETA = 40.0                    # in units of alpha_F sqrt(t)
_Y_FAR, _Y_RATIO, _N_GRID = 40.0, 25.0, 1000  # asymptotic suite: limit, equivalents, grid


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
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _fit_order(levels, residuals):
    """Least-squares slope of log residual vs log step, with R^2, in closed
    form; a NaN or zero residual makes the slope NaN, so the order fails."""
    x = np.log(np.asarray(levels, dtype=float))
    y = np.log(np.asarray(residuals, dtype=float))
    dx, dy = x - np.mean(x), y - np.mean(y)
    slope = float(np.sum(dx * dy) / np.sum(dx * dx))
    ss_res = float(np.sum((dy - slope * dx) ** 2))
    ss_tot = float(np.sum(dy * dy))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return slope, r2


def _unfrozen_window(xi: float):
    """The sample points of one eta-window [lo, xi - lo], and the steps to
    difference them with.

    Every refinement level samples the same points, so the fitted order
    sees only the step. On a shallow front, where the coarsest step exceeds
    0.2 xi, every step is scaled by one common factor to bring it to 0.2 xi;
    that shifts each log step equally and leaves the fitted order unchanged.
    """
    scale = min(1.0, 0.2 * xi / max(_ETA_STEPS))
    steps = [h * scale for h in _ETA_STEPS]
    lo = max(0.05 * xi, 2.0 * max(steps))
    return np.linspace(lo, xi - lo, _N_SAMPLES), steps


def _frozen_window(start: float):
    """Frozen-zone samples from 0.1 (over twice any step) past the front at ``start``; steps."""
    return np.linspace(start + 0.1, start + 2.5, _N_SAMPLES), _ETA_STEPS


def _pde_residuals(field, alpha: float, etas, t: float, steps, drift: float = 0.0) -> list[float]:
    """Max-norm residual of f'' + 2 (eta - drift) f' = 0 at time t, one per
    step h, with f differenced in eta: the unfrozen zone's advection-diffusion
    equation (drift b rho xi) or the frozen zone's diffusion equation (0).

    ``field``, bound to t, takes x = eta 2 alpha sqrt(t) through its x checks
    in one call on the (samples x (1 + 2 len(steps))) stencil of centres, left
    and right sides: each distinct point once, with the per-point loop's
    arithmetic element by element. np.max keeps a NaN, so a NaN level fails.
    """
    half = 2.0 * alpha * math.sqrt(t)
    e, h, n = etas[:, None], np.asarray(steps), len(steps)
    f = field(np.concatenate([e, e - h, e + h], axis=1) * half)
    f_0, f_m, f_p = f[:, :1], f[:, 1:1 + n], f[:, 1 + n:]
    d1 = (f_p - f_m) / (2.0 * h)
    d2 = (f_p - 2.0 * f_0 + f_m) / (h * h)
    res = (d2 + 2.0 * (e - drift) * d1) / (4.0 * t)
    return np.max(np.abs(res), axis=0).tolist()


def _finish(report: ResidualReport, boundary_name: str):
    order_u, r2_u = _fit_order(report.levels, report.pde_u_residual)
    order_v, r2_v = _fit_order(report.levels, report.pde_v_residual)
    report.refinement_orders = {
        "pde_u": order_u, "pde_u_r2": r2_u,
        "pde_v": order_v, "pde_v_r2": r2_v,
    }
    gaps = [
        ("interface_temp_gap", report.interface_temp_gap),
        ("stefan_balance_gap", report.stefan_balance_gap),
        (boundary_name, report.boundary_gap),
        ("farfield_gap", report.farfield_gap),
    ]
    # written as "not within bound" so that a NaN fails
    for name, value in gaps:
        if not value <= _GAP_TOL:
            raise VerificationFailed(name, value, _GAP_TOL, report=report)
    for name, order, r2 in (("pde_u", order_u, r2_u), ("pde_v", order_v, r2_v)):
        if not order >= _MIN_ORDER:
            raise VerificationFailed(f"{name}_order", order, _MIN_ORDER,
                                     report=report, lower_bound=True)
        if not r2 >= _MIN_R2:
            raise VerificationFailed(f"{name}_fit_r2", r2, _MIN_R2,
                                     report=report, lower_bound=True)
    report.ok = True
    return report


def _verify(sol: Solution, boundary_name: str, boundary_gap) -> ResidualReport:
    """Check a similarity solution against the full system; ``boundary_gap(u, t)``
    is the gap in the condition at x = 0 at time t, u the field bound to t."""
    dl = sol.dimless
    phys = sol.phys
    if phys is None:
        raise DomainError("verification needs dimensional parameters (k_U, k_F)")
    u_etas, u_steps = _unfrozen_window(sol.xi)
    v_etas, v_steps = _frozen_window(dl.gamma0 * sol.xi)
    drift = dl.b_coef * dl.rho_jump * sol.xi

    # Both fields depend on (x, t) only through eta, so the stencil values
    # are the same at every probe time and the residual at time t is the one
    # at t0 times t0 / t: its max over the probe times is the value at t0.
    fields = {t: (unfrozen_field(sol, t), frozen_field(sol, t)) for t in _PROBE_TIMES}
    t0 = min(_PROBE_TIMES)
    pde_u = _pde_residuals(fields[t0][0], dl.alpha_u, u_etas, t0, u_steps, drift)
    pde_v = _pde_residuals(fields[t0][1], dl.alpha_f, v_etas, t0, v_steps)

    temp_gap = balance_gap = bc_gap = far_gap = 0.0
    for t, (u, v) in fields.items():
        s = eval_front(sol, t)
        s_dot = sol.xi * dl.alpha_u / math.sqrt(t)
        pressure_temp = dl.d_coef * dl.rho_jump * s * s_dot
        temp_gap = max(temp_gap, abs(u(s) - pressure_temp), abs(v(s) - pressure_temp))
        flux = phys.k_f * v(s, True) - phys.k_u * u(s, True)
        sink = dl.alpha_lat * s_dot + dl.beta_coef * dl.rho_jump * s * s_dot ** 2
        balance_gap = max(balance_gap, abs(flux - sink))
        bc_gap = max(bc_gap, boundary_gap(u, t))
        x_far = _FARFIELD_ETA * dl.alpha_f * math.sqrt(t)
        far_gap = max(far_gap, abs(v(x_far) + dl.a_init))

    report = ResidualReport(
        levels=list(_ETA_STEPS),
        pde_u_residual=pde_u, pde_v_residual=pde_v,
        interface_temp_gap=temp_gap, stefan_balance_gap=balance_gap,
        boundary_gap=bc_gap, farfield_gap=far_gap,
    )
    return _finish(report, boundary_name)


def verify_convective(sol: Solution) -> ResidualReport:
    """Check a solution of the convective problem: the Robin condition
    k_U u_x(0, t) = (h0 / sqrt(t)) (u(0, t) - B) at the wall."""
    phys = sol.phys

    def robin_gap(u, t):
        flux = phys.k_u * u(0.0, True)
        robin = (phys.h0 / math.sqrt(t)) * (u(0.0) - phys.b_ext)
        return abs(flux - robin)

    return _verify(sol, "convective_bc_gap", robin_gap)


def verify_temperature(sol: Solution) -> ResidualReport:
    """Check a solution of the fixed-wall problem: u(0, t) = B0."""
    b0 = sol.dimless.b0_wall
    if b0 is None:
        raise DomainError("the wall-value check needs B0-bearing parameters")
    return _verify(sol, "wall_bc_gap", lambda u, t: abs(u(0.0) - b0))


def asymptotic_suite(dl: DimensionlessParams) -> dict:
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
        val = abs(block_g1(_Y_FAR))
        checks["g1_block_vanishes"] = {"value": val, "passed": val <= 1e-8}
    elif p == 2.0:
        target = -(2.0 * ratio_amb / math.sqrt(math.pi)) * _Y_RATIO ** 2
        r = block_g1(_Y_RATIO) / target
        checks["g1_block_equivalent_p2"] = {"ratio": r, "passed": 0.95 <= r <= 1.05}
    else:
        target = -(ratio_amb * (p - 2.0)) * _Y_RATIO ** 3
        r = block_g1(_Y_RATIO) / target
        checks["g1_block_equivalent_pgt2"] = {"ratio": r, "passed": 0.95 <= r <= 1.05}

    target2 = math.sqrt(math.pi) * dl.gamma0 * m * _Y_RATIO ** 3
    r2 = block_g2(_Y_RATIO) / target2 if target2 != 0.0 else float("nan")
    checks["g2_block_equivalent"] = {"ratio": r2, "passed": abs(r2 - 1.0) <= 0.02}

    sign_ok = math.copysign(1.0, block_g2(_Y_FAR)) == math.copysign(1.0, m) if m != 0.0 else True
    checks["g2_block_sign_at_infinity"] = {"passed": sign_ok}

    if m > 0.0:
        grid = np.geomspace(1e-3, _Y_RATIO, _N_GRID)
        vals = (1.0 + m * grid ** 2) * g2_eval(grid, dl.gamma0)
        violations = int(np.sum(np.diff(vals) <= 0.0))
        checks["g2_block_increasing"] = {"violations": violations, "passed": violations == 0}

    checks["all_passed"] = {"passed": all(c.get("passed", True) for c in checks.values())}
    return checks

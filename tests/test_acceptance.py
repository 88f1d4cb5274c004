"""Acceptance suite: the end-to-end guarantees of the package, one criterion
per test, each printing a single PASS/FAIL line. Numerical claims are checked
against independent oracles (adaptive quadrature, dense scan + pure bisection)
rather than against the package's own evaluation paths.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import erf, erfcx

from stefan_thaw.equivalence import (
    b0_from_convective,
    h0_from_temperature,
    omega_inequality_check,
    omega_inequality_limit_check,
    omega_infinity,
    temperature_counterpart,
)
from stefan_thaw.errors import NoRootFound
from stefan_thaw.model import reduce_params
from stefan_thaw.profiles import (
    build_convective_solution,
    build_temperature_solution,
    eval_front,
    frozen_field,
    unfrozen_field,
)
from stefan_thaw.solver import SolveOptions, critical_h0, solve_omega, solve_xi
from stefan_thaw.special import g2_eval, g_eval, lhs_convective, rhs_eval
from stefan_thaw.verification import (
    VerificationFailed,
    asymptotic_suite,
    verify_convective,
)

from conftest import make_phys
from oracles import g_quad, scan_bisect_roots


def _report(name, budget_s):
    """Context manager printing one PASS/FAIL line with the elapsed time."""
    class _Ctx:
        def __enter__(self):
            self.t0 = time.time()
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.time() - self.t0
            status = "PASS" if exc_type is None else "FAIL"
            print(f"acceptance {name}: {status} ({elapsed:.1f}s)")
            if exc_type is None:
                assert elapsed < budget_s, f"{name} exceeded {budget_s}s budget"
            return False

    return _Ctx()


def test_criterion_1_special_function_fidelity():
    with _report("1 special-function fidelity", 5.0):
        for p in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
            for y in np.geomspace(0.01, 4.0, 30):
                assert g_eval(p, float(y)) == pytest.approx(
                    g_quad(p, float(y)), rel=1e-10)
        for gamma0 in (0.3, 0.5141, 1.0, 2.0):
            for y in np.geomspace(0.01, 25.0, 50):
                prod = g2_eval(float(y), gamma0) * erfcx(gamma0 * float(y))
                assert prod == pytest.approx(1.0, rel=1e-14)


def _random_phys(rng, quadrant):
    c_i = (rng.uniform(0.25, 0.75) if quadrant in ("pp", "mm")
           else rng.uniform(1.2, 1.8))
    gamma = rng.uniform(0.05, 0.3) * (1.0 if quadrant in ("pp", "pm") else -1.0)
    return make_phys(
        epsilon=rng.uniform(0.25, 0.55),
        c_i=c_i,
        gamma_cc=gamma,
        a_init=rng.uniform(1.0, 8.0),
        b_ext=rng.uniform(5.0, 15.0),
        h0=rng.uniform(0.02, 0.2),
        latent_l=rng.uniform(60.0, 90.0),
    )


def test_criterion_2_root_residual_and_oracle():
    with _report("2 transcendental residual + dense oracle", 60.0):
        rng = np.random.default_rng(7)
        for quadrant in ("pp", "pm", "mp", "mm"):
            for _ in range(50):
                dl = reduce_params(_random_phys(rng, quadrant))
                try:
                    roots, _ = solve_xi(dl)
                    found = roots.roots
                    scan_max = roots.scan_max
                except NoRootFound as err:
                    found = []
                    scan_max = err.root_set.scan_max
                for r in found:
                    assert abs(lhs_convective(r, dl)
                               - rhs_eval(dl.n_par, r)) <= 1e-10
                oracle = scan_bisect_roots(
                    lambda y: lhs_convective(y, dl) - rhs_eval(dl.n_par, y),
                    scan_max * 1e-12, scan_max)
                assert len(oracle) == len(found), (quadrant, found, oracle)
                for got, want in zip(sorted(found), oracle):
                    assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_criterion_3_existence_threshold_gate():
    with _report("3 existence iff h0 above critical", 30.0):
        phys = make_phys()
        crit = critical_h0(phys)
        dl_probe = reduce_params(phys)
        assert dl_probe.m_par > 0 and dl_probe.n_par > 0 and dl_probe.p_par <= 1
        for factor in np.geomspace(1.001, 50.0, 20):
            dl = reduce_params(make_phys(h0=crit * factor))
            roots, rep = solve_xi(dl)
            bound = math.sqrt(dl.b_ext / (dl.a_init * dl.m_par))
            assert len(roots.in_range(bound)) >= 1
        for factor in np.geomspace(0.02, 0.999, 20):
            dl = reduce_params(make_phys(h0=crit * factor))
            try:
                roots, rep = solve_xi(dl)
                bound = math.sqrt(dl.b_ext / (dl.a_init * dl.m_par))
                assert roots.in_range(bound) == []
            except NoRootFound as err:
                assert err.report.guarantee == "NoneInRange"


def test_criterion_4_monotone_in_h0_with_supremum():
    with _report("4 xi(h0) increasing, bounded by omega_inf", 30.0):
        phys = make_phys()
        crit = critical_h0(phys)
        om_inf = omega_infinity(reduce_params(phys))
        h0s = np.geomspace(crit * 1.05, crit * 1e6, 32)
        xis = []
        for h0 in h0s:
            xi = solve_xi(reduce_params(make_phys(h0=h0)))[0].principal
            xis.append(xi)
            assert xi < om_inf
        assert all(b > a for a, b in zip(xis, xis[1:]))
        assert om_inf - xis[-1] < 1e-4 * om_inf


def test_criterion_5_round_trips():
    with _report("5 convective/temperature round trips", 10.0):
        phys = make_phys()
        dl = reduce_params(phys)
        xi = solve_xi(dl)[0].principal
        sol = build_convective_solution(phys, dl, xi)

        tsol = temperature_counterpart(sol)
        assert abs(tsol.omega - xi) <= 1e-10

        h0_back = h0_from_temperature(tsol, phys.b_ext)
        assert abs(h0_back - phys.h0) <= 1e-8 * phys.h0
        dl_back = reduce_params(make_phys(h0=h0_back))
        xi_back = solve_xi(dl_back)[0].principal
        assert abs(xi_back - tsol.omega) <= 1e-10

        rng = np.random.default_rng(20240801)
        scale = max(phys.a_init, phys.b_ext)
        for _ in range(20):
            t = float(rng.uniform(0.25, 4.0))
            s = eval_front(sol, t)
            x_u = float(rng.uniform(0.0, s))
            x_f = s * float(rng.uniform(1.0, 4.0))
            assert abs(unfrozen_field(sol, t)(x_u) - unfrozen_field(tsol, t)(x_u)) <= 1e-9 * scale
            assert abs(frozen_field(sol, t)(x_f) - frozen_field(tsol, t)(x_f)) <= 1e-9 * scale


def test_criterion_6_front_inequalities():
    with _report("6 wall-value inequalities", 10.0):
        for b0 in (2.0, 3.0, 5.0):
            phys = make_phys(b0_wall=b0)
            dl = reduce_params(phys)
            tsol = build_temperature_solution(phys, dl, solve_omega(dl).principal)
            res = omega_inequality_check(tsol, phys.b_ext)
            assert res.holds and res.margin > 0.0
            lim = omega_inequality_limit_check(tsol)
            assert lim.holds and lim.margin > 0.0
        # zero density jump: the limit form reduces to an erf bound
        phys = make_phys(rho_i=1.0, b0_wall=3.0)
        dl = reduce_params(phys, classical=True)
        tsol = build_temperature_solution(phys, dl, solve_omega(dl).principal)
        d_u = phys.k_u / (phys.rho_u * phys.c_u)
        d_f = phys.k_f / (phys.rho_f * phys.c_f)
        bound = (tsol.wall_temp / phys.a_init) * (phys.k_u / phys.k_f) * math.sqrt(d_f / d_u)
        assert erf(tsol.omega) < bound


def test_criterion_7_pde_verification():
    with _report("7 finite-difference verification", 60.0):
        phys = make_phys()
        dl = reduce_params(phys)
        xi = solve_xi(dl)[0].principal
        report = verify_convective(build_convective_solution(phys, dl, xi))
        assert report.ok
        assert report.refinement_orders["pde_u"] >= 1.8
        assert report.refinement_orders["pde_v"] >= 1.8
        assert report.interface_temp_gap <= 1e-8
        assert report.stefan_balance_gap <= 1e-8
        assert report.boundary_gap <= 1e-8
        assert report.farfield_gap <= 1e-8
        with pytest.raises(VerificationFailed):
            verify_convective(build_convective_solution(phys, dl, xi * 1.01))


def test_criterion_8_asymptotic_suites():
    with _report("8 limit and asymptotic-equivalent checks", 10.0):
        import dataclasses
        dl = reduce_params(make_phys())
        seen = set()
        for p in (dl.p_par, 2.0, 3.0):
            checks = asymptotic_suite(dataclasses.replace(dl, p_par=p))
            assert checks["all_passed"]["passed"], checks
            seen.update(checks)
        assert {
            "g1_block_vanishes", "g1_block_equivalent_p2",
            "g1_block_equivalent_pgt2", "g2_block_equivalent",
            "g2_block_sign_at_infinity", "g2_block_increasing",
        } <= seen


def test_criterion_9_two_verified_roots():
    with _report("9 multiple fronts, each verified", 10.0):
        phys = make_phys(gamma_cc=-0.115)
        dl = reduce_params(phys)
        roots, rep = solve_xi(dl)
        assert rep.guarantee == "AtLeastTwo"
        bound = math.sqrt(1.0 / abs(dl.n_par))
        inside = roots.in_range(bound)
        assert len(inside) >= 2
        for r in inside:
            report = verify_convective(build_convective_solution(phys, dl, r))
            assert report.ok

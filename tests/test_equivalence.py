import math

import numpy as np
import pytest

from stefan_thaw.equivalence import (
    b0_from_convective,
    h0_from_temperature,
    k0_from_temperature,
    omega_inequality_check,
    omega_inequality_limit_check,
    omega_infinity,
    temperature_counterpart,
)
from stefan_thaw.errors import HypothesesNotMet
from stefan_thaw.model import reduce_params
from stefan_thaw.profiles import (
    build_convective_solution,
    eval_front,
    frozen_field,
    unfrozen_field,
)
from stefan_thaw.solver import critical_h0, solve_omega, solve_xi
from scipy.special import erf

from conftest import make_phys


def convective_solution(phys):
    dl = reduce_params(phys)
    roots, _ = solve_xi(dl)
    return build_convective_solution(phys, dl, roots.principal)


@pytest.fixture
def sol_pp(phys_pp):
    return convective_solution(phys_pp)


class TestInducedWallValue:
    def test_equals_wall_temperature(self, sol_pp):
        b0 = b0_from_convective(sol_pp)
        assert b0 == pytest.approx(sol_pp.wall_temp, rel=1e-13)
        for t in (0.25, 1.0, 4.0):
            assert b0 == pytest.approx(unfrozen_field(sol_pp, t)(0.0), rel=1e-13)

    def test_strictly_between_interface_and_ambient(self, sol_pp):
        b0 = b0_from_convective(sol_pp)
        assert sol_pp.interface_temp < b0 < sol_pp.dimless.b_ext

    def test_tends_to_ambient_as_h0_grows(self, phys_pp):
        gaps = []
        for h0 in (1.0, 10.0, 100.0):
            sol = convective_solution(make_phys(h0=h0))
            gaps.append(phys_pp.b_ext - b0_from_convective(sol))
        assert all(g > 0.0 for g in gaps)
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] <= 1e-2 * phys_pp.b_ext

    def test_subcritical_refused(self, sol_pp):
        import dataclasses
        dl_low = reduce_params(make_phys(h0=0.01))
        sol_bad = dataclasses.replace(sol_pp, dimless=dl_low)
        with pytest.raises(HypothesesNotMet, match="critical"):
            b0_from_convective(sol_bad)


class TestRoundTrips:
    def test_front_coefficients_coincide(self, sol_pp):
        counterpart = temperature_counterpart(sol_pp)
        assert counterpart.omega == pytest.approx(sol_pp.xi, rel=1e-10)

    def test_h0_recovered(self, sol_pp):
        counterpart = temperature_counterpart(sol_pp)
        h0_back = h0_from_temperature(counterpart, sol_pp.dimless.b_ext)
        assert h0_back == pytest.approx(sol_pp.phys.h0, rel=1e-8)

    def test_k0_recovered(self, sol_pp):
        counterpart = temperature_counterpart(sol_pp)
        k0_back = k0_from_temperature(counterpart, sol_pp.dimless.b_ext)
        assert k0_back == pytest.approx(sol_pp.dimless.k0, rel=1e-8)

    def test_profiles_coincide(self, sol_pp):
        counterpart = temperature_counterpart(sol_pp)
        rng = np.random.default_rng(20240801)
        for t in (0.25, 1.0, 4.0):
            s = eval_front(sol_pp, t)
            for frac in rng.uniform(0.0, 3.0, 20):
                x = frac * s
                ref = unfrozen_field(sol_pp, t)(x) if x <= s else frozen_field(sol_pp, t)(x)
                got = (unfrozen_field(counterpart, t)(x) if x <= eval_front(counterpart, t)
                       else frozen_field(counterpart, t)(x))
                assert abs(got - ref) <= 1e-9 * max(
                    sol_pp.dimless.a_init, sol_pp.dimless.b_ext)

    def test_transfer_coefficient_monotone_in_wall_value(self):
        # B -> B0+ forces h0 -> infinity; B -> infinity forces h0 -> 0
        phys = make_phys(b0_wall=3.0)
        dl = reduce_params(phys)
        from stefan_thaw.profiles import build_temperature_solution
        sol = build_temperature_solution(phys, dl, solve_omega(dl).principal)
        b0 = sol.wall_temp
        hs = [h0_from_temperature(sol, b) for b in (b0 * 1.001, b0 * 1.5, 50.0, 5000.0)]
        assert all(a > b for a, b in zip(hs, hs[1:]))
        assert hs[0] > 1e2 * hs[1]
        assert hs[-1] <= 1e-2 * hs[1]


class TestInequality:
    def test_holds_with_positive_margin(self):
        phys = make_phys(b0_wall=3.0)
        dl = reduce_params(phys)
        from stefan_thaw.profiles import build_temperature_solution
        sol = build_temperature_solution(phys, dl, solve_omega(dl).principal)
        res = omega_inequality_check(sol, phys.b_ext)
        assert res.holds and res.margin > 0.0
        lim = omega_inequality_limit_check(sol)
        assert lim.holds and lim.margin > 0.0
        # the limit form is the stronger requirement
        assert lim.rhs > res.rhs

    def test_classical_reduces_to_erf_bound(self):
        # zero density jump: the inequality collapses to
        # erf(omega) < (B0/A)(k_U/k_F) sqrt(d_F/d_U)
        phys = make_phys(rho_i=1.0, b0_wall=3.0)
        dl = reduce_params(phys, classical=True)
        from stefan_thaw.profiles import build_temperature_solution
        sol = build_temperature_solution(phys, dl, solve_omega(dl).principal)
        lim = omega_inequality_limit_check(sol)
        d_u = phys.k_u / (phys.rho_u * phys.c_u)
        d_f = phys.k_f / (phys.rho_f * phys.c_f)
        bound = (sol.wall_temp / phys.a_init) * (phys.k_u / phys.k_f) * math.sqrt(d_f / d_u)
        assert lim.holds == (erf(sol.omega) < bound)
        assert lim.holds

    def test_requires_b_above_b0(self):
        phys = make_phys(b0_wall=3.0)
        dl = reduce_params(phys)
        from stefan_thaw.profiles import build_temperature_solution
        sol = build_temperature_solution(phys, dl, solve_omega(dl).principal)
        with pytest.raises(HypothesesNotMet, match="B > B0"):
            omega_inequality_check(sol, 2.0)


class TestInfiniteTransferBound:
    def test_every_xi_below_omega_infinity(self, phys_pp):
        dl = reduce_params(phys_pp)
        om_inf = omega_infinity(dl)
        crit = critical_h0(phys_pp)
        for h0 in np.geomspace(crit * 1.05, crit * 1e4, 12):
            xi = solve_xi(reduce_params(make_phys(h0=h0)))[0].principal
            assert xi < om_inf

    def test_gap_shrinks_with_h0(self, phys_pp):
        dl = reduce_params(phys_pp)
        om_inf = omega_infinity(dl)
        gaps = []
        for h0 in (0.1, 1.0, 100.0, 1e6):
            xi = solve_xi(reduce_params(make_phys(h0=h0)))[0].principal
            gaps.append(om_inf - xi)
        assert all(g > 0.0 for g in gaps)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-4 * om_inf

    def test_regime_gating(self, phys_pm):
        dl = reduce_params(phys_pm)  # N < 0
        with pytest.raises(HypothesesNotMet, match="N > 0"):
            omega_infinity(dl)

    def test_large_p_refused(self, phys_pp):
        import dataclasses
        dl = dataclasses.replace(reduce_params(phys_pp), p_par=1.5)
        with pytest.raises(HypothesesNotMet, match="p <= 1"):
            omega_infinity(dl)


class TestRegimeGating:
    def test_counterpart_refused_outside_quadrant(self, phys_mm):
        sol = convective_solution(phys_mm)
        with pytest.raises(HypothesesNotMet):
            temperature_counterpart(sol)

    def test_large_p_refused(self, sol_pp):
        import dataclasses
        dl_hot = dataclasses.replace(sol_pp.dimless, p_par=1.5)
        sol_bad = dataclasses.replace(sol_pp, dimless=dl_hot)
        with pytest.raises(HypothesesNotMet, match="p <="):
            b0_from_convective(sol_bad)

import dataclasses
import json
import math

import pytest

from stefan_thaw.equivalence import temperature_counterpart
from stefan_thaw.errors import DomainError, VerificationFailed
from stefan_thaw.model import reduce_params
from stefan_thaw.profiles import (
    build_convective_solution,
    build_temperature_solution,
)
from stefan_thaw.solver import solve_omega, solve_xi
from stefan_thaw import verification
from stefan_thaw.verification import (
    ResidualReport,
    asymptotic_suite,
    verify_convective,
    verify_temperature,
)

from conftest import make_phys


def convective_solution(phys, classical=False):
    dl = reduce_params(phys, classical=classical)
    roots, _ = solve_xi(dl)
    return build_convective_solution(phys, dl, roots.principal)


class TestConvectiveVerification:
    def test_true_solution_passes(self, phys_pp):
        sol = convective_solution(phys_pp)
        report = verify_convective(sol)
        assert report.ok
        assert report.interface_temp_gap <= 1e-8
        assert report.stefan_balance_gap <= 1e-8
        assert report.boundary_gap <= 1e-8
        assert report.farfield_gap <= 1e-8
        assert report.refinement_orders["pde_u"] >= 1.8
        assert report.refinement_orders["pde_v"] >= 1.8
        assert report.refinement_orders["pde_u_r2"] >= 0.99
        assert report.refinement_orders["pde_v_r2"] >= 0.99

    def test_residuals_shrink_with_step(self, phys_pp):
        report = verify_convective(convective_solution(phys_pp))
        u_res, v_res = report.pde_u_residual, report.pde_v_residual
        assert u_res[0] > u_res[1] > u_res[2]
        assert v_res[0] > v_res[1] > v_res[2]

    def test_perturbed_front_rejected(self, phys_pp):
        sol = convective_solution(phys_pp)
        bad = build_convective_solution(phys_pp, sol.dimless, sol.xi * 1.01)
        with pytest.raises(VerificationFailed) as exc:
            verify_convective(bad)
        # only the energy balance sees the wrong front: the profile
        # coefficients are rebuilt consistently from the perturbed value
        assert exc.value.component == "stefan_balance_gap"
        assert exc.value.report.stefan_balance_gap > 1e-3

    def test_tiny_perturbation_still_detected(self, phys_pp):
        sol = convective_solution(phys_pp)
        bad = build_convective_solution(phys_pp, sol.dimless, sol.xi * (1 + 1e-5))
        with pytest.raises(VerificationFailed, match="stefan_balance_gap"):
            verify_convective(bad)

    def test_report_serializes(self, phys_pp):
        report = verify_convective(convective_solution(phys_pp))
        payload = json.loads(report.to_json())
        assert payload["ok"] is True
        assert set(payload) == {
            "levels", "pde_u_residual", "pde_v_residual", "interface_temp_gap",
            "stefan_balance_gap", "boundary_gap", "farfield_gap",
            "refinement_orders", "ok",
        }


class TestShallowFront:
    # a medium whose true front coefficient is shallow (xi ~ 0.043): a
    # sampling window that moved with the step made the fitted pde_u order
    # 1.61 < 1.8 and rejected this correct solution
    F2_MEDIUM = dict(
        epsilon=0.5212239649791841, rho_w=1.0, rho_i=0.917, c_w=1.0,
        c_i=0.6953389003056538, c_u=0.8, c_f=0.6, k_u=0.0014, k_f=0.0053,
        rho_u=1.2, rho_f=1.4, latent_l=69.9548808700423,
        gamma_cc=0.1938544759318886, mu=0.0179, perm_k=1e-7,
        a_init=3.1779742066221095, b_ext=6.083257112999655,
        h0=0.03143431182590702,
    )

    def test_true_solution_and_counterpart_pass(self):
        sol = convective_solution(make_phys(**self.F2_MEDIUM))
        assert sol.xi == pytest.approx(0.0429, rel=1e-2)
        report = verify_convective(sol)
        assert report.ok
        assert report.refinement_orders["pde_u"] >= 1.8
        assert verify_temperature(temperature_counterpart(sol)).ok

    @pytest.mark.parametrize("factor", [0.99, 1.01])
    def test_perturbed_fronts_rejected(self, factor):
        phys = make_phys(**self.F2_MEDIUM)
        sol = convective_solution(phys)
        bad = build_convective_solution(phys, sol.dimless, sol.xi * factor)
        with pytest.raises(VerificationFailed, match="stefan_balance_gap"):
            verify_convective(bad)


class TestSamplingWindows:
    def test_each_zone_samples_one_window_at_every_level(self, phys_pp, monkeypatch):
        calls = []
        stencil = verification._pde_residual

        def recorder(field, etas, t, h, drift=0.0):
            calls.append((drift, h, tuple(etas)))
            return stencil(field, etas, t, h, drift)

        monkeypatch.setattr(verification, "_pde_residual", recorder)
        sol = convective_solution(phys_pp)
        assert verify_convective(sol).ok
        unfrozen = [c for c in calls if c[0] != 0.0]
        frozen = [c for c in calls if c[0] == 0.0]
        # three levels at each of three probe times, per zone
        assert len(unfrozen) == len(frozen) == 9
        for zone in (unfrozen, frozen):
            assert len({h for _, h, _ in zone}) == 3
            assert len({etas for _, _, etas in zone}) == 1
        (u_etas,), (v_etas,) = {c[2] for c in unfrozen}, {c[2] for c in frozen}
        assert 0.0 < u_etas[0] < u_etas[-1] < sol.xi
        assert v_etas[0] == pytest.approx(sol.dimless.gamma0 * sol.xi + 0.1)


class TestClassicalVerification:
    def test_zero_density_jump(self):
        phys = make_phys(rho_i=1.0)
        report = verify_convective(convective_solution(phys, classical=True))
        assert report.ok
        # with no density jump the interface sits exactly at the phase-change
        # temperature on both sides
        assert report.interface_temp_gap <= 1e-12


class TestTemperatureVerification:
    def test_true_solution_passes(self):
        phys = make_phys(b0_wall=3.0)
        dl = reduce_params(phys)
        sol = build_temperature_solution(phys, dl, solve_omega(dl).principal)
        report = verify_temperature(sol)
        assert report.ok
        # the wall value is a coefficient of the closed form
        assert report.boundary_gap <= 1e-14

    def test_needs_wall_value(self, phys_pp):
        # a convective solution of a medium without B0 has no wall value to check
        with pytest.raises(DomainError):
            verify_temperature(convective_solution(phys_pp))

    def test_perturbed_front_rejected(self):
        phys = make_phys(b0_wall=3.0)
        dl = reduce_params(phys)
        om = solve_omega(dl).principal
        bad = build_temperature_solution(phys, dl, om * 1.01)
        with pytest.raises(VerificationFailed, match="stefan_balance_gap"):
            verify_temperature(bad)


class TestAsymptoticSuite:
    def test_small_p_branch(self, dl_pp):
        checks = asymptotic_suite(dl_pp)
        assert checks["all_passed"]["passed"]
        assert "g1_block_vanishes" in checks
        assert checks["g2_block_increasing"]["violations"] == 0

    def test_p_equal_two_branch(self, dl_pp):
        dl = dataclasses.replace(dl_pp, p_par=2.0)
        checks = asymptotic_suite(dl)
        assert checks["all_passed"]["passed"]
        assert "g1_block_equivalent_p2" in checks

    def test_p_above_two_branch(self, dl_pp):
        dl = dataclasses.replace(dl_pp, p_par=3.0)
        checks = asymptotic_suite(dl)
        assert checks["all_passed"]["passed"]
        assert "g1_block_equivalent_pgt2" in checks

    def test_negative_m_sign_check(self, phys_mm):
        checks = asymptotic_suite(reduce_params(phys_mm))
        assert checks["g2_block_sign_at_infinity"]["passed"]
        assert "g2_block_increasing" not in checks


def _passing_report(**changes):
    levels = [1e-2, 5e-3, 2.5e-3]
    fields = dict(
        levels=levels,
        pde_u_residual=[h * h for h in levels],
        pde_v_residual=[3.0 * h * h for h in levels],
        interface_temp_gap=0.0, stefan_balance_gap=0.0,
        boundary_gap=0.0, farfield_gap=0.0,
    )
    fields.update(changes)
    return ResidualReport(**fields)


class TestFailClosed:
    def test_clean_report_passes(self):
        assert verification._finish(_passing_report(), "wall_bc_gap").ok

    @pytest.mark.parametrize("field, component", [
        ("interface_temp_gap", "interface_temp_gap"),
        ("stefan_balance_gap", "stefan_balance_gap"),
        ("boundary_gap", "wall_bc_gap"),
        ("farfield_gap", "farfield_gap"),
    ])
    def test_nan_gap_fails(self, field, component):
        report = _passing_report(**{field: math.nan})
        with pytest.raises(VerificationFailed) as exc:
            verification._finish(report, "wall_bc_gap")
        assert exc.value.component == component
        assert not report.ok

    @pytest.mark.parametrize("field, component", [
        ("pde_u_residual", "pde_u_order"),
        ("pde_v_residual", "pde_v_order"),
    ])
    def test_nan_residual_fails(self, field, component):
        report = _passing_report(**{field: [1e-4, math.nan, 6.25e-6]})
        with pytest.raises(VerificationFailed) as exc:
            verification._finish(report, "wall_bc_gap")
        assert exc.value.component == component

    def test_nan_fit_quality_fails(self, monkeypatch):
        monkeypatch.setattr(verification, "_fit_order", lambda levels, res: (2.0, math.nan))
        with pytest.raises(VerificationFailed) as exc:
            verification._finish(_passing_report(), "wall_bc_gap")
        assert exc.value.component == "pde_u_fit_r2"


class TestFailureWording:
    def test_upper_bound_exceeds(self):
        report = _passing_report(farfield_gap=1e-3)
        with pytest.raises(VerificationFailed,
                           match=r"farfield_gap = 1\.000e-03 exceeds 1\.000e-08"):
            verification._finish(report, "wall_bc_gap")

    def test_lower_bound_is_below(self):
        levels = [1e-2, 5e-3, 2.5e-3]
        report = _passing_report(pde_u_residual=levels)   # first order
        with pytest.raises(VerificationFailed,
                           match=r"pde_u_order = 1\.000e\+00 is below 1\.800e\+00"):
            verification._finish(report, "wall_bc_gap")

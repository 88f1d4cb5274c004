import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from stefan_thaw.equivalence import temperature_counterpart
from stefan_thaw.errors import DomainError, OutOfPhaseRegion, VerificationFailed
from stefan_thaw.model import load_config, reduce_params
from stefan_thaw.profiles import (
    build_convective_solution,
    build_temperature_solution,
    frozen_field,
    unfrozen_field,
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

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
        stencil = verification._pde_residuals

        def recorder(field, alpha, etas, t, steps, drift=0.0):
            calls.extend((drift, h, tuple(etas), t) for h in steps)
            return stencil(field, alpha, etas, t, steps, drift)

        monkeypatch.setattr(verification, "_pde_residuals", recorder)
        sol = convective_solution(phys_pp)
        assert verify_convective(sol).ok
        unfrozen = [c for c in calls if c[0] != 0.0]
        frozen = [c for c in calls if c[0] == 0.0]
        # three levels, all differenced at the earliest probe time, per zone
        assert len(unfrozen) == len(frozen) == 3
        assert {t for _, _, _, t in calls} == {min(verification._PROBE_TIMES)}
        for zone in (unfrozen, frozen):
            assert len({h for _, h, _, _ in zone}) == 3
            assert len({etas for _, _, etas, _ in zone}) == 1
        (u_etas,), (v_etas,) = {c[2] for c in unfrozen}, {c[2] for c in frozen}
        assert 0.0 < u_etas[0] < u_etas[-1] < sol.xi
        assert v_etas[0] == pytest.approx(sol.dimless.gamma0 * sol.xi + 0.1)

    def test_each_stencil_point_evaluated_once(self, phys_pp, monkeypatch):
        stencils = {}

        def counting(build):
            def counting_build(sol, t):
                field = build(sol, t)

                def counted(x, derivative=False):
                    if isinstance(x, np.ndarray):
                        stencils.setdefault(build.__name__, []).append(x)
                    return field(x, derivative)

                return counted

            return counting_build

        for name in ("unfrozen_field", "frozen_field"):
            monkeypatch.setattr(verification, name, counting(getattr(verification, name)))
        assert verify_convective(convective_solution(phys_pp)).ok
        # one array call per zone: per sample, one centre value and the two
        # sides of each of 3 steps, every point distinct
        assert sorted(stencils) == ["frozen_field", "unfrozen_field"]
        for calls in stencils.values():
            (x,) = calls
            assert x.shape == (64, 7)
            assert np.unique(x).size == 64 * 7

    @pytest.mark.parametrize("unfrozen", [True, False])
    def test_stencil_points_pass_the_region_checks(self, phys_pp, unfrozen, monkeypatch):
        # move one side point of the coarsest step across the front: the
        # zone's field must reject it, not extrapolate the closed form
        window = verification._unfrozen_window if unfrozen else verification._frozen_window

        def crossing(edge):
            etas, steps = window(edge)
            etas = etas.copy()
            if unfrozen:
                etas[-1] = edge - 0.5 * steps[0]
            else:
                etas[0] = edge + 0.5 * steps[0]
            return etas, steps

        monkeypatch.setattr(verification, window.__name__, crossing)
        match = r"outside \[0, s" if unfrozen else "before the front"
        with pytest.raises(OutOfPhaseRegion, match=match):
            verify_convective(convective_solution(phys_pp))


def _max_over_probe_times(sol):
    """pde_u and pde_v residuals formed the long way: every level differenced
    afresh at every probe time, with the max taken over the times."""
    dl = sol.dimless
    u_etas, u_steps = verification._unfrozen_window(sol.xi)
    start = dl.gamma0 * sol.xi
    v_etas = np.linspace(start + 0.1, start + 2.5, verification._N_SAMPLES)
    drift = dl.b_coef * dl.rho_jump * sol.xi

    def worst(profile, alpha, etas, h, drift, t):
        half = 2.0 * alpha * math.sqrt(t)
        out = 0.0
        for e in etas:
            f_m, f_0, f_p = (profile(sol, t)(z * half) for z in (e - h, e, e + h))
            d1 = (f_p - f_m) / (2.0 * h)
            d2 = (f_p - 2.0 * f_0 + f_m) / (h * h)
            out = max(out, abs((d2 + 2.0 * (e - drift) * d1) / (4.0 * t)))
        return out

    times = verification._PROBE_TIMES
    pde_u = [max(worst(unfrozen_field, dl.alpha_u, u_etas, h, drift, t) for t in times)
             for h in u_steps]
    pde_v = [max(worst(frozen_field, dl.alpha_f, v_etas, h, 0.0, t) for t in times)
             for h in verification._ETA_STEPS]
    return pde_u, pde_v


def _reference_case(name):
    """A solution and the verifier for it, by case name."""
    if name == "shallow_f2":
        return convective_solution(make_phys(**TestShallowFront.F2_MEDIUM)), verify_convective
    if name == "two_roots":
        return convective_solution(load_config(CONFIGS / "thaw_two_roots.cfg")), verify_convective
    if name == "classical":
        phys = load_config(CONFIGS / "thaw_classical.cfg")
        return convective_solution(phys, classical=True), verify_convective
    phys = load_config(CONFIGS / "thaw_convective.cfg")
    if name == "temperature":
        dl = reduce_params(phys)
        return build_temperature_solution(phys, dl, solve_omega(dl).principal), verify_temperature
    if name == "near_critical":
        phys = dataclasses.replace(phys, h0=1.03 * phys.critical_h0())
    return convective_solution(phys), verify_convective


class TestSimilarityScaling:
    @pytest.mark.parametrize("name", [
        "convective", "temperature", "two_roots", "classical", "shallow_f2",
        "near_critical",
    ])
    def test_residuals_equal_max_over_probe_times(self, name):
        sol, verify = _reference_case(name)
        try:
            report = verify(sol)
        except VerificationFailed as err:
            # the shallow front at 1.03x critical is below the round-off floor
            assert name == "near_critical" and err.component == "pde_u_order"
            report = err.report
        else:
            assert name != "near_critical"
        pde_u, pde_v = _max_over_probe_times(sol)
        assert report.pde_u_residual == pde_u
        assert report.pde_v_residual == pde_v


def _per_point_residuals(field, alpha, etas, t, steps, drift=0.0):
    """The stencil as a loop over Python floats, one field call per point."""
    half = 2.0 * alpha * math.sqrt(t)
    worst = [0.0] * len(steps)
    for e in etas.tolist():
        f_0 = field(e * half)
        adv = 2.0 * (e - drift)
        for i, h in enumerate(steps):
            f_m, f_p = field((e - h) * half), field((e + h) * half)
            d1 = (f_p - f_m) / (2.0 * h)
            d2 = (f_p - 2.0 * f_0 + f_m) / (h * h)
            res = (d2 + adv * d1) / (4.0 * t)
            worst[i] = math.nan if math.isnan(res) else max(worst[i], abs(res))
    return worst


def _stencil_case(name):
    """A solution and its verifier, by case name: _reference_case's, and the
    fixed wall at B of thaw_subcritical.cfg, which has no convective front."""
    if name != "subcritical_wall":
        return _reference_case(name)
    phys = load_config(CONFIGS / "thaw_subcritical.cfg")
    dl = reduce_params(phys).with_b0(phys.b_ext)
    return build_temperature_solution(phys, dl, solve_omega(dl).principal), verify_temperature


class TestArrayStencil:
    @pytest.mark.parametrize("name", [
        "convective", "temperature", "two_roots", "classical", "subcritical_wall",
        "shallow_f2",
    ])
    def test_equals_per_point_loop(self, name, monkeypatch):
        # both zones, at every level, bit for bit: the verifier's stencils
        # are recorded as it runs and each is redone one point at a time
        sol, verify = _stencil_case(name)
        stencil = verification._pde_residuals
        seen = []

        def both(field, alpha, etas, t, steps, drift=0.0):
            got = stencil(field, alpha, etas, t, steps, drift)
            seen.append((got, _per_point_residuals(field, alpha, etas, t, steps, drift)))
            return got

        monkeypatch.setattr(verification, "_pde_residuals", both)
        report = verify(sol)
        assert report.ok
        assert len(seen) == 2
        (u_got, u_ref), (v_got, v_ref) = seen
        assert u_got == u_ref == report.pde_u_residual
        assert v_got == v_ref == report.pde_v_residual
        assert all(type(r) is float for r in u_got + v_got)

    def test_nan_value_matches_per_point_loop(self):
        # a NaN anywhere in the zone makes the same levels NaN in both forms
        sol = _stencil_case("convective")[0]
        t0 = min(verification._PROBE_TIMES)
        etas, steps = verification._unfrozen_window(sol.xi)
        field = unfrozen_field(sol, t0)
        half = 2.0 * sol.dimless.alpha_u * math.sqrt(t0)
        for bad_eta in (etas[3], etas[3] - steps[2], etas[-1] + steps[0]):
            bad = bad_eta * half

            def holed(x):
                if isinstance(x, np.ndarray):
                    return np.where(x == bad, math.nan, field(x))
                return math.nan if x == bad else field(x)

            got = verification._pde_residuals(holed, sol.dimless.alpha_u, etas, t0, steps)
            ref = _per_point_residuals(holed, sol.dimless.alpha_u, etas, t0, steps)
            assert [math.isnan(r) for r in got] == [math.isnan(r) for r in ref]
            assert any(math.isnan(r) for r in got)
            assert [r for r in got if not math.isnan(r)] == [r for r in ref if not math.isnan(r)]


class TestFitOrder:
    LEVELS = [1e-2, 5e-3, 2.5e-3]

    @pytest.mark.parametrize("residuals", [
        [1e-4, 2.5e-5, 6.25e-6],
        [3e-4, 8e-5, 1.9e-5],
        [4.7e-5, 1.16e-5, 2.95e-6],
        [1e-3, 9e-4, 1.1e-3],
        [2e-8, 3e-7, 1e-9],
    ])
    def test_matches_polyfit(self, residuals):
        x, y = np.log(self.LEVELS), np.log(residuals)
        slope, intercept = np.polyfit(x, y, 1)
        r2 = 1.0 - np.sum((y - (slope * x + intercept)) ** 2) / np.sum((y - y.mean()) ** 2)
        order, fit_r2 = verification._fit_order(self.LEVELS, residuals)
        assert order == pytest.approx(slope, rel=1e-12)
        assert fit_r2 == pytest.approx(r2, rel=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, 0.0])
    def test_nan_or_zero_level_gives_nan_order(self, bad):
        residuals = [1e-4, bad, 6.25e-6]
        with np.errstate(divide="ignore", invalid="ignore"):
            assert math.isnan(np.polyfit(np.log(self.LEVELS), np.log(residuals), 1)[0])
            assert math.isnan(verification._fit_order(self.LEVELS, residuals)[0])


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

    @staticmethod
    def _fail_with_one_nan_value(unfrozen, side, monkeypatch):
        """Verify thaw_convective.cfg with the zone's field NaN at the 7th
        sample point, or at its side point of the middle step; return the
        failure and the zone's residuals."""
        stencil = verification._pde_residuals

        def one_value_nan(field, alpha, etas, t, steps, drift=0.0):
            if (drift != 0.0) != unfrozen:
                return stencil(field, alpha, etas, t, steps, drift)
            bad = (etas.tolist()[6] + (steps[1] if side else 0.0)) * (2.0 * alpha * math.sqrt(t))

            def patched(x):
                assert np.count_nonzero(x == bad) == 1    # one array call: the stencil
                return np.where(x == bad, math.nan, field(x))

            return stencil(patched, alpha, etas, t, steps, drift)

        monkeypatch.setattr(verification, "_pde_residuals", one_value_nan)
        sol = convective_solution(load_config(CONFIGS / "thaw_convective.cfg"))
        with pytest.raises(VerificationFailed) as exc:
            verify_convective(sol)
        report = exc.value.report
        return exc.value, report.pde_u_residual if unfrozen else report.pde_v_residual

    @pytest.mark.parametrize("unfrozen, component", [
        (True, "pde_u_order"), (False, "pde_v_order"),
    ])
    def test_nan_stencil_value_fails(self, unfrozen, component, monkeypatch):
        # a centre value serves every level, so all three residuals are NaN
        err, residuals = self._fail_with_one_nan_value(unfrozen, False, monkeypatch)
        assert err.component == component
        assert all(math.isnan(r) for r in residuals)

    @pytest.mark.parametrize("unfrozen, component", [
        (True, "pde_u_order"), (False, "pde_v_order"),
    ])
    def test_nan_side_value_fails_its_level(self, unfrozen, component, monkeypatch):
        err, residuals = self._fail_with_one_nan_value(unfrozen, True, monkeypatch)
        assert err.component == component
        assert [math.isnan(r) for r in residuals] == [False, True, False]

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

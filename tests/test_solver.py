import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stefan_thaw import solver
from stefan_thaw.errors import (
    DomainError,
    NoRootFound,
    ToleranceNotReached,
    UniquenessViolation,
)
from stefan_thaw.model import load_config, reduce_params
from stefan_thaw.solver import (
    RootSet,
    SolveOptions,
    _find_roots,
    classify,
    critical_h0,
    monotonicity_sweep,
    solve_omega,
    solve_xi,
)
from stefan_thaw.special import lhs_convective, lhs_temperature, rhs_eval

from conftest import make_phys
from oracles import scan_bisect_roots

CONVECTIVE_CFG = Path(__file__).resolve().parent.parent / "configs" / "thaw_convective.cfg"


def oracle_q1(dl):
    """Smallest zero of the convective LHS by the dense bisection oracle, on
    the window solve_xi scans."""
    scan_max = solve_xi(dl)[0].scan_max
    return scan_bisect_roots(lambda y: lhs_convective(y, dl), scan_max * 1e-12, scan_max)[0]


class TestCriticalH0:
    def test_unit_combination(self):
        # A = B, k_F = 1, d_F = k_F/(rho_F c_F) = 1/pi  =>  threshold = 1
        phys = make_phys(a_init=4.0, b_ext=4.0, k_f=1.0, rho_f=math.pi, c_f=1.0)
        assert critical_h0(phys) == pytest.approx(1.0, rel=1e-14)

    def test_linear_in_initial_temperature(self):
        base = critical_h0(make_phys())
        assert critical_h0(make_phys(a_init=8.0)) == pytest.approx(2 * base, rel=1e-14)

    def test_hand_evaluation(self):
        phys = make_phys()
        d_f = phys.k_f / (phys.rho_f * phys.c_f)
        expect = (phys.a_init / phys.b_ext) * phys.k_f / math.sqrt(math.pi * d_f)
        assert critical_h0(phys) == pytest.approx(expect, rel=1e-14)
        assert critical_h0(phys) == pytest.approx(0.0150578, rel=1e-5)

    def test_threshold_matches_limit_sign(self):
        # sign(delta1/K0 - delta2) flips exactly at the threshold
        phys = make_phys()
        crit = critical_h0(phys)
        from stefan_thaw.special import lhs_limit_at_zero
        assert lhs_limit_at_zero(reduce_params(make_phys(h0=crit * 1.001))) > 0.0
        assert lhs_limit_at_zero(reduce_params(make_phys(h0=crit * 0.999))) < 0.0


class TestClassify:
    def test_pp_above_critical(self, dl_pp):
        rep = classify(dl_pp)
        assert (rep.m_sign, rep.n_sign) == ("+", "+")
        assert rep.p_class == "p<=1"
        assert rep.h0_condition == "above"
        assert rep.guarantee == "UniqueInRange"
        assert rep.citation == "pp-unique"
        lo, hi = rep.root_range
        assert lo == 0.0
        assert hi == pytest.approx(
            math.sqrt(dl_pp.b_ext / (dl_pp.a_init * dl_pp.m_par)), rel=1e-14)

    def test_pp_below_critical(self):
        dl = reduce_params(make_phys(h0=0.01))
        rep = classify(dl)
        assert rep.h0_condition == "below"
        assert rep.guarantee == "NoneInRange"
        assert rep.citation == "pp-none"

    def test_pm(self, phys_pm):
        dl = reduce_params(phys_pm)
        rep = classify(dl)
        assert (rep.m_sign, rep.n_sign) == ("+", "-")
        assert rep.extra_conditions["b_lt_am_over_abs_n"]
        assert rep.guarantee == "AtLeastOne"
        assert rep.citation == "pm-at-least-one"

    def test_mp_above(self, phys_mp):
        dl = reduce_params(phys_mp)
        rep = classify(dl)
        assert (rep.m_sign, rep.n_sign) == ("-", "+")
        assert rep.guarantee == "AtLeastOne"
        assert rep.citation == "mp-at-least-one"
        q1 = oracle_q1(dl)
        assert rep.root_range == (0.0, pytest.approx(q1, rel=1e-12))

    def test_mp_below(self, phys_mp):
        crit = critical_h0(phys_mp)
        dl = reduce_params(make_phys(gamma_cc=-0.115, c_i=1.5, h0=crit * 0.5))
        rep = classify(dl)
        assert rep.h0_condition == "below"
        assert rep.extra_conditions["n_lt_delta2_sqrt_pi_abs_m_gamma0"]
        assert rep.guarantee == "AtLeastOne"
        assert rep.citation == "mp-at-least-one-below"

    def test_mm_two_roots(self, phys_mm):
        dl = reduce_params(phys_mm)
        rep = classify(dl)
        assert (rep.m_sign, rep.n_sign) == ("-", "-")
        assert rep.extra_conditions["q1_lt_inv_sqrt_abs_n"]
        assert rep.guarantee == "AtLeastTwo"
        assert rep.citation == "mm-two"

    def test_mm_below_critical(self, phys_mm):
        crit = critical_h0(phys_mm)
        dl = reduce_params(make_phys(gamma_cc=-0.115, h0=crit * 0.5))
        rep = classify(dl)
        assert rep.guarantee == "AtLeastOne"
        assert rep.citation == "mm-at-least-one"

    def test_mm_at_boundary_value(self, phys_mm):
        # tune N to -1/q1^2 so the guaranteed root sits exactly at q1
        dl = reduce_params(phys_mm)
        q1 = oracle_q1(dl)
        dl_b = replace(dl, n_par=-1.0 / q1 ** 2)
        rep = classify(dl_b)
        assert rep.guarantee == "ExistsAtQ1"
        assert rep.citation == "mm-at-q1"
        roots, _ = solve_xi(dl_b)
        assert min(abs(r - q1) for r in roots.roots) <= 1e-9 * q1


class TestSolveXi:
    def test_pp_root_against_dense_oracle(self, dl_pp):
        roots, rep = solve_xi(dl_pp)
        assert rep.guarantee == "UniqueInRange"
        assert len(roots.in_range(rep.root_range[1])) == 1
        oracle = scan_bisect_roots(
            lambda y: lhs_convective(y, dl_pp) - rhs_eval(dl_pp.n_par, y),
            roots.scan_max * 1e-12, roots.scan_max)
        assert len(oracle) == len(roots.roots)
        for got, want in zip(roots.roots, oracle):
            assert got == pytest.approx(want, rel=1e-10)

    def test_residual_tiny(self, dl_pp):
        roots, _ = solve_xi(dl_pp)
        xi = roots.principal
        assert abs(lhs_convective(xi, dl_pp) - rhs_eval(dl_pp.n_par, xi)) <= 1e-10
        assert all(res <= 1e-10 for res in roots.residuals)

    def test_bracket_soundness(self, dl_pp):
        roots, _ = solve_xi(dl_pp)
        for r, (a, b) in zip(roots.roots, roots.brackets):
            assert a <= r <= b

    def test_classical_against_dense_oracle(self, phys_classical):
        dl = reduce_params(phys_classical, classical=True)
        roots, _ = solve_xi(dl)
        oracle = scan_bisect_roots(
            lambda y: lhs_convective(y, dl) - rhs_eval(dl.n_par, y),
            roots.scan_max * 1e-12, roots.scan_max)
        assert roots.principal == pytest.approx(oracle[0], rel=1e-10)

    def test_two_roots_in_mm_quadrant(self, phys_mm):
        dl = reduce_params(phys_mm)
        roots, rep = solve_xi(dl)
        assert rep.guarantee == "AtLeastTwo"
        bound = math.sqrt(1.0 / abs(dl.n_par))
        assert len(roots.in_range(bound)) >= 2

    def test_subcritical_raises_with_report(self):
        dl = reduce_params(make_phys(h0=0.01))
        with pytest.raises(NoRootFound, match="no phase change") as exc:
            solve_xi(dl)
        assert exc.value.report.guarantee == "NoneInRange"
        assert exc.value.root_set.roots == []

    def test_uniqueness_violation_raises_with_report(self, dl_pp, monkeypatch):
        # a root engine that finds two roots where M > 0, N > 0, p <= 1
        # guarantees exactly one
        two = RootSet(roots=[0.1, 0.2], brackets=[(0.09, 0.11), (0.19, 0.21)],
                      residuals=[0.0, 0.0], scan_max=4.0, scan_points=2048)
        monkeypatch.setattr(solver, "_find_roots", lambda *args, **kwargs: [two])
        with pytest.raises(UniquenessViolation, match="2 roots inside") as exc:
            solve_xi(dl_pp)
        assert exc.value.report.guarantee == "UniqueInRange"
        assert exc.value.root_set is two

    def test_one_lhs_scan_per_solve(self, phys_mm, monkeypatch):
        # q1 and the two fronts come from one evaluation of the LHS on the grid
        dl = reduce_params(phys_mm)
        grid_calls = []

        def counted(y, *args, **kwargs):
            grid_calls.append(np.size(y) == SolveOptions().scan_points)
            return lhs_convective(y, *args, **kwargs)

        monkeypatch.setattr(solver, "lhs_convective", counted)
        roots, rep = solve_xi(dl)
        assert rep.guarantee == "AtLeastTwo"
        assert len(roots.roots) == 2
        assert sum(grid_calls) == 1

    def test_solutions_scale_free_in_time(self, dl_pp):
        # the front equation knows nothing about t; options changes that keep
        # the root inside the window must reproduce it exactly
        a, _ = solve_xi(dl_pp)
        b, _ = solve_xi(dl_pp, SolveOptions(scan_max=2.0, scan_points=4096))
        assert a.principal == pytest.approx(b.principal, rel=1e-12)


class TestRootEngine:
    # a medium whose root y ~ 15.98 has |LHS - RHS| ~ 3.6e-12 at full
    # convergence: the terms there are large, so an absolute 1e-12 rejects it
    F1_MEDIUM = dict(
        epsilon=0.4, rho_w=1.0, rho_i=0.917, c_w=1.0, c_i=6.207436735262693,
        c_u=0.8, c_f=0.6, k_u=0.0014, k_f=0.0053, rho_u=1.2, rho_f=1.4,
        latent_l=0.17628045036819887, gamma_cc=0.013327427236916925,
        mu=0.0179, perm_k=1e-7, a_init=73.95134849987143,
        b_ext=5784.912816202971, h0=3.642679400222342,
    )

    def test_large_terms_accepted_at_converged_roots(self):
        dl = reduce_params(make_phys(**self.F1_MEDIUM))
        roots, _ = solve_xi(dl)
        oracle = scan_bisect_roots(
            lambda y: lhs_convective(y, dl) - rhs_eval(dl.n_par, y),
            roots.scan_max * 1e-12, roots.scan_max)
        assert roots.roots == pytest.approx(oracle, rel=1e-10)
        assert roots.roots == pytest.approx([1.7802, 15.9787], rel=1e-4)
        assert roots.residuals[1] > 1e-12

    def test_pole_sign_change_raises(self):
        def pole(y, _):
            return 1.0 / (y - 0.7), 0.0
        with pytest.raises(ToleranceNotReached, match=r"residual .* at root ~0\.7"):
            _find_roots(pole, 1e-3, 10.0, 64, 1e-12)

    def test_nonfinite_cells_reported(self):
        grid = np.geomspace(1e-3, 10.0, 64)

        def hole(y, _):
            return np.where((y > 0.9) & (y < 1.1), np.nan, y - 1.0), 0.0

        roots = _find_roots(hole, 1e-3, 10.0, 64, 1e-12)[0]
        assert roots.roots == []             # the root at 1 sits in the hole
        nan_points = int(np.sum((grid > 0.9) & (grid < 1.1)))
        assert nan_points > 0
        assert roots.nonfinite_cells == nan_points + 1

        def clean(y, _):
            return y - 1.0, 0.0

        roots = _find_roots(clean, 1e-3, 10.0, 64, 1e-12)[0]
        assert roots.nonfinite_cells == 0
        assert roots.roots == [pytest.approx(1.0, rel=1e-15)]

    def test_rows_solved_independently(self):
        def shifted(y, rows):
            return y - (1.0 + rows), 0.0

        sets = _find_roots(shifted, 1e-3, 10.0, 256, 1e-12, n_rows=3)
        assert [s.roots for s in sets] == [[pytest.approx(c, rel=1e-15)] for c in (1, 2, 3)]


class TestSolveOmega:
    def test_unique_in_guaranteed_interval(self):
        dl = reduce_params(make_phys(b0_wall=3.0))
        roots = solve_omega(dl)
        bound = math.sqrt(dl.b0_wall / (dl.a_init * dl.m_par))
        assert len(roots.in_range(bound)) == 1
        om = roots.principal
        assert abs(lhs_temperature(om, dl) - rhs_eval(dl.n_par, om)) <= 1e-10

    def test_against_dense_oracle(self):
        dl = reduce_params(make_phys(b0_wall=3.0))
        roots = solve_omega(dl)
        oracle = scan_bisect_roots(
            lambda y: lhs_temperature(y, dl) - rhs_eval(dl.n_par, y),
            roots.scan_max * 1e-12, roots.scan_max)
        assert roots.principal == pytest.approx(oracle[0], rel=1e-10)

    def test_matches_infinite_transfer_limit(self):
        # wall pinned at the ambient value B: the convective root with huge h0
        # converges to the temperature root
        dl_t = reduce_params(make_phys(b0_wall=10.0))
        omega = solve_omega(dl_t).principal
        dl_c = reduce_params(make_phys(h0=1e8))
        xi = solve_xi(dl_c)[0].principal
        assert abs(omega - xi) <= 1e-6

    def test_zero_cubic_term(self):
        dl = reduce_params(make_phys(c_i=1.0, b0_wall=3.0), classical=True)
        assert dl.n_par == 0.0
        roots = solve_omega(dl)
        om = roots.principal
        assert abs(lhs_temperature(om, dl) - om) <= 1e-10

    def test_missing_wall_value(self, dl_pp):
        with pytest.raises(DomainError):
            solve_omega(dl_pp)

    def test_report_bound_from_fixed_wall_clause(self):
        # a window that stops short of the root: the report comes with the error
        dl = reduce_params(load_config(CONVECTIVE_CFG))
        omega = solve_omega(dl).principal
        with pytest.raises(NoRootFound, match="temperature front equation") as exc:
            solve_omega(dl, SolveOptions(scan_max=0.5 * omega))
        rep = exc.value.report
        assert rep.guarantee == "UniqueInRange"
        assert rep.root_range == (0.0, math.sqrt(dl.b0_wall / (dl.a_init * dl.m_par)))
        assert omega < rep.root_range[1]
        assert exc.value.root_set.roots == []

    @pytest.mark.parametrize("found", [[0.1, 0.2], []])
    def test_uniqueness_violation_raises_with_report(self, found, monkeypatch):
        # two roots, or none, inside (0, sqrt(B0/(A M))) where M > 0, N > 0,
        # p <= 2 make the fixed-wall root unique
        dl = reduce_params(make_phys(b0_wall=3.0))
        bound = math.sqrt(dl.b0_wall / (dl.a_init * dl.m_par))
        roots = found or [2.0 * bound]
        got = RootSet(roots=roots, brackets=[(r, r) for r in roots],
                      residuals=[0.0] * len(roots), scan_max=4.0 * bound, scan_points=2048)
        monkeypatch.setattr(solver, "_find_roots", lambda *args, **kwargs: [got])
        with pytest.raises(UniquenessViolation,
                           match=f"{len(found)} roots inside .* temperature problem") as exc:
            solve_omega(dl)
        assert exc.value.report.guarantee == "UniqueInRange"
        assert exc.value.report.root_range == (0.0, bound)
        assert exc.value.root_set is got

    def test_unclassified_outside_fixed_wall_clause(self):
        dl = reduce_params(make_phys(c_i=1.5, b0_wall=3.0))
        assert dl.m_par > 0.0 > dl.n_par
        with pytest.raises(NoRootFound) as exc:
            solve_omega(dl, SolveOptions(scan_max=1e-3))
        assert exc.value.report.guarantee == "Unclassified"
        assert exc.value.report.root_range is None


class TestMonotonicitySweep:
    def test_increasing_over_grid(self, phys_pp):
        crit = critical_h0(phys_pp)
        h0s = np.geomspace(crit * 1.05, crit * 200.0, 32)
        pairs = monotonicity_sweep(phys_pp, h0s)
        xis = [x for _, x in pairs]
        assert all(b > a for a, b in zip(xis, xis[1:]))
        # every xi stays below the infinite-transfer bound
        dl_t = reduce_params(make_phys(b0_wall=phys_pp.b_ext))
        omega_inf = solve_omega(dl_t).principal
        assert all(x < omega_inf for x in xis)

    def test_near_degenerate_spacing(self, phys_pp):
        crit = critical_h0(phys_pp)
        h0s = [crit * 2.0, crit * 2.0 * (1.0 + 1e-9), crit * 2.0 * (1.0 + 2e-9)]
        pairs = monotonicity_sweep(phys_pp, h0s)
        assert len(pairs) == 3

    def test_batched_matches_per_point(self, phys_pp):
        crit = critical_h0(phys_pp)
        h0s = np.geomspace(crit * 1.05, crit * 1e6, 32)
        pairs = monotonicity_sweep(phys_pp, h0s)
        for h, xi in pairs:
            single = solve_xi(reduce_params(replace(phys_pp, h0=h)))[0].principal
            assert abs(xi - single) <= 4.0 * np.spacing(single)

    def test_rejects_subcritical_points(self, phys_pp):
        crit = critical_h0(phys_pp)
        with pytest.raises(DomainError):
            monotonicity_sweep(phys_pp, [crit * 0.5, crit * 2.0])

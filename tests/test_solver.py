import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stefan_thaw import solver, special
from stefan_thaw.errors import (
    DomainError,
    InvalidParameter,
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
CLASSICAL_CFG = CONVECTIVE_CFG.with_name("thaw_classical.cfg")


def oracle_q1(dl):
    """Smallest zero of the convective LHS by the dense bisection oracle, on
    the window solve_xi scans."""
    scan_max = solve_xi(dl)[0].scan_max
    return scan_bisect_roots(lambda y: lhs_convective(y, dl), scan_max * 1e-12, scan_max)[0]


class TestSolveOptions:
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_bad_scan_max_rejected(self, bad):
        # 0 used to scan the default window silently, as a falsy value
        with pytest.raises(DomainError, match=r"^scan_max must be finite and > 0"):
            SolveOptions(scan_max=bad)

    @pytest.mark.parametrize("bad", [0.0, -1e-12, math.nan, math.inf])
    def test_bad_tolerance_rejected(self, bad):
        # an infinite tolerance would accept any sign change, a pole included
        with pytest.raises(DomainError, match=r"^tolerance must be finite and > 0"):
            SolveOptions(tolerance=bad)


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


class TestCheckedOnce:
    """Each LHS call checks y once; the RHS and the kernels check nothing."""

    @staticmethod
    def _count(monkeypatch, lhs_names):
        counts = dict.fromkeys(["check", *lhs_names], 0)

        def wrap(key, fn):
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(special, "_check_y", wrap("check", special._check_y))
        for name in lhs_names:
            monkeypatch.setattr(solver, name, wrap(name, getattr(solver, name)))
        return counts

    @pytest.mark.parametrize("fixture", ["phys_pp", "phys_mm"])
    def test_solve_xi(self, fixture, request, monkeypatch):
        dl = reduce_params(request.getfixturevalue(fixture))
        counts = self._count(monkeypatch, ["lhs_convective"])
        solve_xi(dl)
        assert counts["check"] == counts["lhs_convective"] >= 2

    def test_solve_omega_and_sweep(self, phys_pp, monkeypatch):
        dl = reduce_params(replace(phys_pp, b0_wall=3.0))
        counts = self._count(monkeypatch, ["lhs_convective", "lhs_temperature"])
        solve_omega(dl)
        crit = critical_h0(phys_pp)
        monotonicity_sweep(phys_pp, [2.0 * crit, 4.0 * crit])
        assert counts["check"] == counts["lhs_convective"] + counts["lhs_temperature"]
        assert counts["lhs_convective"] >= 2 and counts["lhs_temperature"] >= 2


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

    def test_lhs_viewing_the_grid_is_not_overwritten(self):
        # the scan subtracts the RHS in place only into an LHS of its own
        sets = _find_roots(lambda y, rows: (y, 1.0), 0.1, 10.0, 64, 1e-12)
        assert sets[0].roots == [pytest.approx(1.0, rel=1e-15)]
        lo, hi = sets[0].brackets[0]
        assert lo < 1.0 < hi and hi / lo == pytest.approx(100.0 ** (1 / 63), rel=1e-12)

    def test_scan_masks_match_sign_products(self):
        # f is linear in each cell between set values at the grid points:
        # exact zeros (-0.0 too), +-inf and NaN, sign changes beside them
        grid = np.geomspace(1e-3, 10.0, 24)
        inf, nan = math.inf, math.nan
        table = np.array([
            [1, 0, -1, -2, 0, 1, 2, -0.0, 3, -1, 1, 0, nan,
             1, 0, 2, -1, 1, -1, -1, 0, 0, 1, -2],
            [2, inf, -3, -1, -inf, 1, nan, -1, 1, nan, 1, -1, 2,
             -inf, inf, -1, 0, nan, 0, -1, 1, 2, -inf, 1],
            [nan, -1, 1, nan, nan, 1, 1, 2, -1, -2, inf, 0, -1,
             1, -1, nan, -1, 1, 0, -1, -2, 3, -3, nan],
        ])

        def f(y, rows):
            j = np.clip(np.searchsorted(grid, y, side="right") - 1, 0, grid.size - 2)
            t = (y - grid[j]) / (grid[j + 1] - grid[j])
            a, b = table[rows, j], table[rows, j + 1]
            return np.where(t == 0.0, a, np.where(t == 1.0, b, a + t * (b - a))), 0.0

        sets = _find_roots(f, grid[0], grid[-1], grid.size, 1e-12, n_rows=3)
        ok = np.isfinite(table)
        both = ok[:, :-1] & ok[:, 1:]
        lo, hi = table[:, :-1], table[:, 1:]
        with np.errstate(invalid="ignore"):
            change = both & (np.sign(lo) * np.sign(hi) < 0.0)
        zero = both & (lo == 0.0)
        assert zero[0, 1] and not change[0, 1]     # zero at a cell's left end: once
        for r, roots in enumerate(sets):
            cells = np.flatnonzero(change[r] | zero[r])
            assert roots.brackets == [(grid[i], grid[i + 1] if change[r, i] else grid[i])
                                      for i in cells]
            for x, i in zip(roots.roots, cells):
                if zero[r, i]:
                    assert x == grid[i]
                else:
                    dy = grid[i + 1] - grid[i]
                    want = grid[i] - lo[r, i] * dy / (hi[r, i] - lo[r, i])
                    assert x == pytest.approx(want, rel=1e-14, abs=0.0)
            assert roots.nonfinite_cells == int((~both[r]).sum())

    @staticmethod
    def _polish_residual_cases():
        """(label, lhs(y, row), rhs(y, row), root sets) for each shipped config,
        an M < 0 medium that solves its q1 row too, and a 32-row h0 sweep."""
        cases = []
        for name, classical in (("thaw_convective", False), ("thaw_two_roots", False),
                                ("thaw_classical", True)):
            dl = reduce_params(load_config(CONVECTIVE_CFG.with_name(f"{name}.cfg")),
                               classical=classical)
            cases.append((name, lambda y, _, dl=dl: lhs_convective(y, dl),
                          lambda y, _, dl=dl: rhs_eval(dl.n_par, y), [solve_xi(dl)[0]]))
        # the subcritical medium has no convective front; its fixed wall at B has
        dl = reduce_params(load_config(CONVECTIVE_CFG.with_name("thaw_subcritical.cfg")))
        dl = dl.with_b0(dl.b_ext)
        cases.append(("thaw_subcritical wall", lambda y, _, dl=dl: lhs_temperature(y, dl),
                      lambda y, _, dl=dl: rhs_eval(dl.n_par, y), [solve_omega(dl)]))
        dl = reduce_params(make_phys(gamma_cc=-0.115))
        assert solver._reads_q1(dl)
        cases.append(("M < 0 with its q1 row", lambda y, _, dl=dl: lhs_convective(y, dl),
                      lambda y, row, dl=dl: row * rhs_eval(dl.n_par, y),
                      solver._scan(lambda y, _: lhs_convective(y, dl), dl, SolveOptions(),
                                   dl.b_ext, 2, q1_row=True)))
        phys = load_config(CONVECTIVE_CFG)
        dl = reduce_params(phys)
        crit = critical_h0(phys)
        k0 = phys.k_u / (2.0 * dl.alpha_u * np.geomspace(crit * 1.05, crit * 1e6, 32))
        cases.append(("32-row sweep", lambda y, row: lhs_convective(y, dl, k0[row]),
                      lambda y, _: rhs_eval(dl.n_par, y),
                      solver._scan(lambda y, rows: lhs_convective(y, dl, k0[rows]), dl,
                                   SolveOptions(), dl.b_ext, 32)))
        return cases

    def test_residuals_are_fresh_evaluations(self):
        # the residual of each root comes from the polish's last evaluation;
        # it must equal |LHS - RHS| evaluated afresh at the root, bit for bit
        checked = 0
        for label, lhs, rhs, sets in self._polish_residual_cases():
            for row, roots in enumerate(sets):
                for root, residual in zip(roots.roots, roots.residuals):
                    y = np.array([root])
                    fresh = float(np.abs(lhs(y, row) - rhs(y, row))[0])
                    assert residual == fresh, (label, row, root)
                    checked += 1
        assert checked >= 6 + 32

    @staticmethod
    def _count_evaluations(f, monkeypatch):
        """f wrapped to count its calls, and the counts (total, inside _polish)."""
        counts = {"all": 0, "polish": 0}
        polish = solver._polish

        def counted(y, rows):
            counts["all"] += 1
            return f(y, rows)

        def counted_polish(*args):
            before = counts["all"]
            try:
                return polish(*args)
            finally:
                counts["polish"] += counts["all"] - before

        monkeypatch.setattr(solver, "_polish", counted_polish)
        return counted, counts

    @pytest.mark.parametrize("problem", ["convective", "temperature"])
    def test_no_evaluation_after_the_polish(self, problem, monkeypatch):
        # one scan and the polish's own steps: no separate residual call
        dl = reduce_params(load_config(CONVECTIVE_CFG))
        name = "lhs_convective" if problem == "convective" else "lhs_temperature"
        counted, counts = self._count_evaluations(getattr(solver, name), monkeypatch)
        monkeypatch.setattr(solver, name, lambda y, dl: counted(y, dl))
        roots = solve_xi(dl)[0] if problem == "convective" else solve_omega(dl)
        assert len(roots.roots) == 1 and counts["polish"] >= 2
        assert counts["all"] == 1 + counts["polish"]

    def test_root_left_at_a_scan_end_is_evaluated_again(self, monkeypatch):
        # the root lies 0.4 ulp above a grid point, so that end of the cell
        # has the smaller |f|; the scan gave no |LHS| + |RHS| there
        grid = np.geomspace(1e-3, 10.0, 64)
        shift = 0.4 * math.ulp(grid[40])

        def f(y, _):
            return y - grid[40] - shift, 0.0

        counted, counts = self._count_evaluations(f, monkeypatch)
        roots = _find_roots(counted, 1e-3, 10.0, 64, 1e-12)[0]
        assert roots.roots == [grid[40]]
        assert roots.brackets == [(grid[40], grid[41])]
        assert roots.residuals == [float(abs(f(np.array([grid[40]]), 0)[0][0]))]
        assert counts["all"] == 1 + counts["polish"] + 1

    @pytest.mark.parametrize("name", ["thaw_convective", "thaw_two_roots"])
    def test_tolerance_failure_unchanged(self, name):
        dl = reduce_params(load_config(CONVECTIVE_CFG.with_name(f"{name}.cfg")))
        with pytest.raises(ToleranceNotReached,
                           match=r"^residual \S+ > tolerance 1\.000e-300 at root ~0\.\d+$"):
            solve_xi(dl, SolveOptions(tolerance=1e-300))


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

    def test_batched_memory_peak(self):
        # one (rows x grid) float block and its boolean masks: the G1 block is
        # finished in place, not copied through each factor of the LHS
        phys = load_config(CONVECTIVE_CFG)
        crit = critical_h0(phys)
        h0s = np.geomspace(crit * 1.05, crit * 1e6, 32)
        monotonicity_sweep(phys, h0s)
        tracemalloc.start()
        try:
            monotonicity_sweep(phys, h0s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 32 * 2048 * 8

    def test_rejects_subcritical_points(self, phys_pp):
        crit = critical_h0(phys_pp)
        with pytest.raises(DomainError):
            monotonicity_sweep(phys_pp, [crit * 0.5, crit * 2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_h0(self, phys_pp, bad):
        crit = critical_h0(phys_pp)
        with pytest.raises(InvalidParameter, match="h0"):
            monotonicity_sweep(phys_pp, [crit * 2.0, bad])

    @pytest.mark.parametrize("classical", [False, True])
    def test_batched_k0_equals_per_point(self, phys_pp, classical, monkeypatch):
        phys = load_config(CLASSICAL_CFG) if classical else phys_pp
        crit = critical_h0(phys)
        h0s = np.geomspace(crit * 1.05, crit * 1e6, 32)
        seen = []
        lhs = solver.lhs_convective

        def recorder(y, dl, k0=None):
            seen.extend(np.ravel(k0).tolist())
            return lhs(y, dl, k0)

        monkeypatch.setattr(solver, "lhs_convective", recorder)
        monotonicity_sweep(phys, h0s, classical=classical)
        per_point = [reduce_params(replace(phys, h0=float(h)), classical=classical).k0
                     for h in h0s]
        assert set(seen) == set(per_point)
        assert len(set(per_point)) == 32

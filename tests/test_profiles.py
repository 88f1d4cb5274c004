import math
from dataclasses import replace

import numpy as np
import pytest

from stefan_thaw.errors import DomainError, NonFiniteInput, OutOfPhaseRegion
from stefan_thaw.model import reduce_params
from stefan_thaw.profiles import (
    build_convective_solution,
    build_temperature_solution,
    eval_front,
    frozen_field,
    unfrozen_field,
)
from stefan_thaw.solver import solve_omega, solve_xi
from stefan_thaw.special import g_eval

from conftest import make_phys


@pytest.fixture
def sol_pp(phys_pp, dl_pp):
    roots, _ = solve_xi(dl_pp)
    return build_convective_solution(phys_pp, dl_pp, roots.principal)


@pytest.fixture
def sol_temp():
    phys = make_phys(b0_wall=3.0)
    dl = reduce_params(phys)
    return build_temperature_solution(phys, dl, solve_omega(dl).principal)


class TestInterfaceAndWall:
    def test_both_phases_meet_at_interface_value(self, sol_pp):
        dl = sol_pp.dimless
        expect = dl.a_init * dl.m_par * sol_pp.xi ** 2
        for t in (0.25, 1.0, 4.0):
            s = eval_front(sol_pp, t)
            assert unfrozen_field(sol_pp, t)(s) == pytest.approx(expect, rel=1e-12)
            assert frozen_field(sol_pp, t)(s) == pytest.approx(expect, rel=1e-12)
        assert sol_pp.interface_temp == pytest.approx(expect, rel=1e-15)

    def test_wall_coefficient_two_forms_agree(self, sol_pp):
        # display form (B g + A M K0 xi^2)/(g + K0) versus the Robin-balance
        # form B + K0 c2
        dl = sol_pp.dimless
        g_xi = g_eval(dl.p_par, sol_pp.xi)
        am_sq = dl.a_init * dl.m_par * sol_pp.xi ** 2
        display = (dl.b_ext * g_xi + am_sq * dl.k0) / (g_xi + dl.k0)
        proof = dl.b_ext + dl.k0 * sol_pp.c2
        assert sol_pp.c1 == pytest.approx(display, rel=1e-12)
        assert sol_pp.c1 == pytest.approx(proof, rel=1e-12)
        assert sol_pp.wall_temp == sol_pp.c1

    def test_robin_condition_via_fd_refinement(self, sol_pp):
        phys, t = sol_pp.phys, 1.3
        target = (phys.h0 / math.sqrt(t)) * (unfrozen_field(sol_pp, t)(0.0) - phys.b_ext)
        # analytic derivative satisfies the balance exactly
        assert phys.k_u * unfrozen_field(sol_pp, t)(0.0, True) == pytest.approx(target, rel=1e-12)
        # one-sided differences converge to the same number
        gaps = []
        for h in (1e-3, 1e-4, 1e-5):
            fd = (unfrozen_field(sol_pp, t)(h) - unfrozen_field(sol_pp, t)(0.0)) / h
            gaps.append(abs(phys.k_u * fd - target))
        assert gaps[1] < gaps[0] and gaps[2] < gaps[1]
        assert gaps[2] <= abs(target) * 1e-3

    def test_temperature_wall_value_exact(self, sol_temp):
        for t in (0.25, 1.0, 4.0):
            assert unfrozen_field(sol_temp, t)(0.0) == sol_temp.dimless.b0_wall
            assert sol_temp.wall_temp == sol_temp.dimless.b0_wall


class TestFarField:
    def test_frozen_zone_tends_to_minus_a(self, sol_pp):
        a = sol_pp.dimless.a_init
        for t in (0.25, 1.0, 4.0):
            x_far = 40.0 * sol_pp.dimless.alpha_f * math.sqrt(t)
            assert abs(frozen_field(sol_pp, t)(x_far) + a) <= 1e-8 * a
            assert abs(frozen_field(sol_pp, t)(x_far, True)) <= 1e-8

    def test_initial_condition_recovered(self, sol_pp):
        # fixed x > 0, t -> 0+: the point is deep in the frozen zone
        a = sol_pp.dimless.a_init
        assert frozen_field(sol_pp, 1e-8)(1.0) == pytest.approx(-a, rel=1e-10)

    def test_temperature_problem_far_field(self, sol_temp):
        a = sol_temp.dimless.a_init
        x_far = 40.0 * sol_temp.dimless.alpha_f
        assert abs(frozen_field(sol_temp, 1.0)(x_far) + a) <= 1e-8 * a


class TestFront:
    def test_zero_at_zero(self, sol_pp):
        assert eval_front(sol_pp, 0.0) == 0.0

    def test_unit_example(self, sol_pp, phys_pp):
        dl_unit = replace(sol_pp.dimless, alpha_u=1.0)
        sol = build_convective_solution(phys_pp, dl_unit, 0.5)
        assert eval_front(sol, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_sqrt_t_scaling(self, sol_pp):
        for t in (0.3, 1.0, 2.7):
            assert eval_front(sol_pp, 4.0 * t) == pytest.approx(
                2.0 * eval_front(sol_pp, t), rel=1e-14)
        assert eval_front(sol_pp, 1.0) == pytest.approx(
            2.0 * sol_pp.xi * sol_pp.dimless.alpha_u, rel=1e-15)

    def test_negative_time_rejected(self, sol_pp):
        with pytest.raises(DomainError):
            eval_front(sol_pp, -1.0)


class TestSelfSimilarity:
    def test_unfrozen_zone(self, sol_pp):
        t = 0.8
        s = eval_front(sol_pp, t)
        for frac in np.linspace(0.0, 1.0, 9):
            x = frac * s
            assert unfrozen_field(sol_pp, 4 * t)(2 * x) == pytest.approx(
                unfrozen_field(sol_pp, t)(x), rel=1e-13, abs=1e-13)
            assert unfrozen_field(sol_pp, 4 * t)(2 * x, True) == pytest.approx(
                0.5 * unfrozen_field(sol_pp, t)(x, True), rel=1e-12, abs=1e-15)

    def test_frozen_zone(self, sol_pp):
        t = 0.8
        s = eval_front(sol_pp, t)
        for mult in (1.0, 1.5, 3.0, 10.0):
            x = mult * s
            assert frozen_field(sol_pp, 4 * t)(2 * x) == pytest.approx(
                frozen_field(sol_pp, t)(x), rel=1e-13, abs=1e-13)

    def test_temperature_problem(self, sol_temp):
        t = 0.8
        s = eval_front(sol_temp, t)
        for field, x in ((bound_u, 0.3 * s), (bound_u, 0.9 * s), (bound_v, 2.0 * s)):
            assert field(sol_temp, 2 * x, 4 * t) == pytest.approx(
                field(sol_temp, x, t), rel=1e-13, abs=1e-13)


def bound_u(sol, x, t):
    return unfrozen_field(sol, t)(x)


def bound_u_x(sol, x, t):
    return unfrozen_field(sol, t)(x, True)


def bound_v(sol, x, t):
    return frozen_field(sol, t)(x)


def bound_v_x(sol, x, t):
    return frozen_field(sol, t)(x, True)


# each zone's field bound to (solution, t)
UNFROZEN = [(bound_u, bound_u_x)]
FROZEN = [(bound_v, bound_v_x)]


class TestPhaseRegions:
    def test_unfrozen_query_beyond_front(self, sol_pp):
        s = eval_front(sol_pp, 1.0)
        for u, u_x in UNFROZEN:
            with pytest.raises(OutOfPhaseRegion):
                u(sol_pp, 1.01 * s, 1.0)
            with pytest.raises(OutOfPhaseRegion):
                u_x(sol_pp, 1.01 * s, 1.0)
            with pytest.raises(OutOfPhaseRegion):
                u(sol_pp, -0.1, 1.0)

    def test_frozen_query_before_front(self, sol_pp):
        s = eval_front(sol_pp, 1.0)
        for v, v_x in FROZEN:
            with pytest.raises(OutOfPhaseRegion):
                v(sol_pp, 0.99 * s, 1.0)
            with pytest.raises(OutOfPhaseRegion):
                v_x(sol_pp, 0.99 * s, 1.0)

    def test_front_itself_belongs_to_both(self, sol_pp):
        s = eval_front(sol_pp, 1.0)
        for (u, _), (v, _) in zip(UNFROZEN, FROZEN):
            u(sol_pp, s, 1.0)
            v(sol_pp, s, 1.0)

    def test_zero_time_rejected(self, sol_pp):
        for t in (0.0, -1.0):
            for field in (bound_u, bound_v):
                with pytest.raises(DomainError):
                    field(sol_pp, 0.0, t)
            for build in (unfrozen_field, frozen_field):  # checked when bound
                with pytest.raises(DomainError):
                    build(sol_pp, t)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("coord", ["x", "t"])
    @pytest.mark.parametrize("field, mult, as_array", [
        # eval_*: x a float; bound_*: x an array, the bad value among good ones
        pytest.param(bound_u, 0.5, False, id="eval_u-0.5"),
        pytest.param(bound_u_x, 0.5, False, id="eval_u_x-0.5"),
        pytest.param(bound_v, 2.0, False, id="eval_v-2.0"),
        pytest.param(bound_v_x, 2.0, False, id="eval_v_x-2.0"),
        pytest.param(bound_u, 0.5, True, id="bound_u-0.5"),
        pytest.param(bound_u_x, 0.5, True, id="bound_u_x-0.5"),
        pytest.param(bound_v, 2.0, True, id="bound_v-2.0"),
        pytest.param(bound_v_x, 2.0, True, id="bound_v_x-2.0"),
    ])
    def test_nonfinite_coordinate_rejected(self, sol_pp, field, mult, as_array, coord, bad):
        # a NaN must not pass the region checks, nor +inf reach erf(inf)
        x, t = mult * eval_front(sol_pp, 1.0), 1.0
        x, t = (bad, t) if coord == "x" else (x, bad)
        if as_array:
            good = mult * eval_front(sol_pp, 1.0)
            x = np.array([good, x, good])
        with pytest.raises(NonFiniteInput):
            field(sol_pp, x, t)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_time_rejected_by_front(self, sol_pp, bad):
        with pytest.raises(NonFiniteInput):
            eval_front(sol_pp, bad)

    def test_builders_reject_nonpositive_front_coefficient(self, phys_pp, dl_pp):
        with pytest.raises(DomainError):
            build_convective_solution(phys_pp, dl_pp, 0.0)
        with pytest.raises(DomainError):
            build_temperature_solution(None, dl_pp.with_b0(3.0), -1.0)


class TestTemperatureDerivative:
    def test_matches_fd(self, sol_temp):
        t = 1.0
        s = eval_front(sol_temp, t)
        x, h = 0.4 * s, 1e-7 * s
        fd = (unfrozen_field(sol_temp, t)(x + h) - unfrozen_field(sol_temp, t)(x - h)) / (2 * h)
        assert unfrozen_field(sol_temp, t)(x, True) == pytest.approx(fd, rel=1e-6)


class TestArrayFields:
    """A bound field takes an array of x: each element gets exactly the value
    its float gives, and the array's checks are the float's, elementwise."""

    @staticmethod
    def _points(sol, t, unfrozen):
        # 2-D, through the whole zone, the wall or the front at the ends
        s = eval_front(sol, t)
        xs = np.linspace(0.0, s, 35) if unfrozen else s * np.linspace(1.0, 30.0, 35)
        return xs.reshape(5, 7)

    @pytest.mark.parametrize("t", [0.25, 1.0, 3.7])
    @pytest.mark.parametrize("derivative", [False, True])
    @pytest.mark.parametrize("unfrozen", [True, False])
    @pytest.mark.parametrize("which", ["convective", "temperature"])
    def test_equals_float_values(self, sol_pp, sol_temp, which, unfrozen, derivative, t):
        sol = sol_pp if which == "convective" else sol_temp
        field = (unfrozen_field if unfrozen else frozen_field)(sol, t)
        xs = self._points(sol, t, unfrozen)
        got = field(xs, derivative)
        assert got.shape == xs.shape and got.dtype == np.float64
        want = [field(x, derivative) for x in xs.ravel().tolist()]
        assert got.ravel().tolist() == want
        assert all(type(w) is float for w in want)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("unfrozen", [True, False])
    def test_nonfinite_element_rejected(self, sol_pp, unfrozen, bad):
        field = (unfrozen_field if unfrozen else frozen_field)(sol_pp, 1.0)
        xs = self._points(sol_pp, 1.0, unfrozen)
        for kind in (float, np.float64):
            with pytest.raises(NonFiniteInput):
                field(kind(bad))
        xs[2, 3] = bad
        for x in (xs, xs.ravel(), np.array(bad)):
            for derivative in (False, True):
                with pytest.raises(NonFiniteInput, match=f"got {bad}"):
                    field(x, derivative)
        xs[0, 1] = -1.0 if unfrozen else 0.0    # outside too: non-finite is named first
        with pytest.raises(NonFiniteInput):
            field(xs)

    @pytest.mark.parametrize("unfrozen", [True, False])
    def test_out_of_region_element_rejected(self, sol_pp, unfrozen):
        s = eval_front(sol_pp, 1.0)
        field = (unfrozen_field if unfrozen else frozen_field)(sol_pp, 1.0)
        outside = (1.01 * s, -0.1) if unfrozen else (0.99 * s, 0.0)
        for x in outside:
            with pytest.raises(OutOfPhaseRegion):
                field(x)
            xs = self._points(sol_pp, 1.0, unfrozen)
            xs[4, 6] = x
            for derivative in (False, True):
                with pytest.raises(OutOfPhaseRegion, match=f"x = {x} "):
                    field(xs, derivative)

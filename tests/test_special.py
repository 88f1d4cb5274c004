import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf, erfcx

from stefan_thaw import _erf
from stefan_thaw import special as sp
from stefan_thaw.errors import DomainError, NonFiniteInput

from oracles import g_quad

SQRT_PI_2 = math.sqrt(math.pi) / 2.0


class TestKernelIntegral:
    def test_zero_at_zero(self):
        for p in (-3.0, 0.0, 0.5, 2.0, 5.0):
            assert sp.g_eval(p, 0.0) == 0.0

    def test_p0_y1(self):
        assert sp.g_eval(0.0, 1.0) == pytest.approx(SQRT_PI_2 * erf(1.0), rel=1e-14)
        assert sp.g_eval(0.0, 1.0) == pytest.approx(0.7468241328, rel=1e-9)

    def test_p2_y1(self):
        # substitution u = r - y collapses to e^{y^2} (sqrt(pi)/2) erf(y)
        expect = math.e * SQRT_PI_2 * erf(1.0)
        assert sp.g_eval(2.0, 1.0) == pytest.approx(expect, rel=1e-14)
        assert sp.g_eval(2.0, 1.0) == pytest.approx(g_quad(2.0, 1.0), rel=1e-12)
        assert sp.g_eval(2.0, 1.0) == pytest.approx(2.0300, rel=1e-4)

    @pytest.mark.parametrize("p", [-2.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    def test_closed_form_vs_quadrature(self, p):
        for y in np.geomspace(0.01, 4.0, 25):
            assert sp.g_eval(p, float(y)) == pytest.approx(g_quad(p, float(y)), rel=1e-10)

    def test_vectorized_matches_scalar(self):
        ys = np.linspace(0.1, 3.0, 7)
        vals = sp.g_eval(1.3, ys)
        for y, v in zip(ys, vals):
            assert v == sp.g_eval(1.3, float(y))

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteInput):
            sp.g_eval(math.nan, 1.0)
        with pytest.raises(NonFiniteInput):
            sp.g_eval(1.0, math.inf)
        with pytest.raises(DomainError):
            sp.g_eval(1.0, -1.0)

    @given(p=st.floats(min_value=-3.0, max_value=3.0),
           y=st.floats(min_value=1e-3, max_value=4.0))
    @settings(max_examples=80, deadline=None)
    def test_positive_and_accurate(self, p, y):
        got = sp.g_eval(p, y)
        assert got > 0.0
        assert got == pytest.approx(g_quad(p, y), rel=1e-9)

    def test_log_space_flag_and_value(self):
        # p = 1.9, y = 45: exp(p^2 y^2 / 4) alone overflows, and so does the
        # true value; the log-space branch returns +inf rather than nan
        assert math.isinf(sp.g_eval(1.9, 45.0))


class TestG1:
    def test_limit_at_zero_is_inverse_k0(self):
        k0 = 0.366
        assert sp.g1_eval(0.5, 1e-8, k0) == pytest.approx(1.0 / k0, rel=1e-6)

    def test_p1_decreasing(self):
        k0 = 0.7
        ys = np.linspace(0.1, 3.0, 20)
        vals = [sp.g1_eval(1.0, float(y), k0) for y in ys]
        for y, v in zip(ys, vals):
            assert v == pytest.approx(1.0 / (k0 + sp.g_eval(1.0, float(y))), rel=1e-13)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_deep_underflow_handled(self):
        # true value ~ e^{-900}: underflows cleanly to 0, no 0/0
        assert sp.g1_eval(0.0, 30.0, 0.5) == 0.0

    def test_tiny_value_through_log_space(self):
        # true value ~ e^{-625}: numerator and denominator are combined in
        # logs, and the result keeps full relative accuracy
        with mpmath.workdps(60):
            g_ref = mpmath.quad(lambda r: mpmath.exp(-r * r), [0, 25])
            ref = mpmath.exp(-mpmath.mpf(625)) / (mpmath.mpf("0.5") + g_ref)
        assert sp.g1_eval(0.0, 25.0, 0.5) == pytest.approx(float(ref), rel=1e-12)

    def test_tilde_is_k0_to_zero_limit(self):
        for p, y in ((0.3, 0.7), (1.5, 2.0), (-1.0, 1.2)):
            tilde = sp.g1_eval(p, y, 0.0)
            near = sp.g1_eval(p, y, 1e-14)
            assert abs(tilde - near) / tilde <= 1e-10

    def test_tilde_values(self):
        assert sp.g1_eval(1.0, 1.0, 0.0) == pytest.approx(1.0 / sp.g_eval(1.0, 1.0), rel=1e-14)
        assert sp.g1_eval(2.0, 2.0, 0.0) == pytest.approx(
            math.exp(4.0) / g_quad(2.0, 2.0), rel=1e-11)

    def test_tilde_undefined_at_zero(self):
        with pytest.raises(DomainError):
            sp.g1_eval(0.5, 0.0, 0.0)

    # p from -6 to 6, K0 from the fixed wall to far above g, y over 14 decades
    GRID_P = np.linspace(-6.0, 6.0, 11)
    GRID_K0 = np.array([0.0, 1e-14, 1e-6, 1.0, 1e6])
    GRID_Y = np.geomspace(1e-12, 60.0, 429)

    @staticmethod
    def _g_exact(p, y):
        """g(p, y) at mpmath's precision, the erf sum written as an erfc
        difference where it cancels."""
        a, c = (1 - p / 2) * y, p / 2 * y
        if a >= 0 and c >= 0:
            s = mpmath.erf(a) + mpmath.erf(c)
        elif c < 0:
            s = mpmath.erfc(-c) - mpmath.erfc(a)
        else:
            s = mpmath.erfc(-a) - mpmath.erfc(c)
        return mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(c * c) * s

    def test_accuracy_against_mpmath(self):
        # log g sets the error of exp((p-1) y^2 - log(K0 + g))
        worst = 0.0
        with mpmath.workdps(60):
            for p in map(float, self.GRID_P):
                got = sp.g1_eval(p, self.GRID_Y, self.GRID_K0[:, None])
                for j, y in enumerate(map(mpmath.mpf, self.GRID_Y.tolist())):
                    g = self._g_exact(mpmath.mpf(p), y)
                    num = mpmath.exp((p - 1) * y * y)
                    for i, k0 in enumerate(self.GRID_K0.tolist()):
                        want = num / (k0 + g)
                        if want < 1e-300:
                            continue      # below the normal double range
                        worst = max(worst, float(abs(got[i, j] / want - 1)))
        assert worst <= 2e-12

    @pytest.mark.parametrize("y", [1e-310, 5e-324])
    def test_subnormal_y(self, y):
        # g is subnormal or zero here, and K0 + g is K0
        assert sp.g1_eval(0.5, y, 1.0) == 1.0
        assert sp.g1_eval(-3.0, y, 1.0) == 1.0

    def test_domain_error_where_g_vanishes(self):
        assert sp.g_eval(-3.0, 5e-324) == 0.0
        with pytest.raises(DomainError):
            sp.g1_eval(-3.0, 5e-324, 0.0)
        with pytest.raises(DomainError):
            sp.g1_eval(-3.0, np.array([1.0, 5e-324]), np.array([[1.0], [0.0]]))

    YS = np.concatenate([[5e-324, 1e-310, 1e-200], np.geomspace(1e-12, 60.0, 97)])
    K0S = np.array([0.0, 1e-14, 0.37, 1e6, 1e200])

    @pytest.mark.parametrize("p", [-3.0, 0.07, 1.0, 1.9, 4.5])
    def test_scalar_equals_vector_element(self, p):
        for k0 in self.K0S[1:].tolist():
            vals = sp.g1_eval(p, self.YS, k0)
            assert vals.tolist() == [sp.g1_eval(p, y, k0) for y in self.YS.tolist()]

    @pytest.mark.parametrize("p", [-3.0, 0.07, 1.0, 1.9, 4.5])
    def test_k0_rows_equal_scalar_k0_calls(self, p):
        # with K0 = 0, exp((p-1) y^2) / g overflows or is undefined at subnormal y
        for k0s, ys in ((self.K0S[1:], self.YS), (self.K0S, self.YS[2:])):
            rows = sp.g1_eval(p, ys, k0s[:, None])
            for k0, row in zip(k0s.tolist(), rows):
                assert row.tolist() == sp.g1_eval(p, ys, k0).tolist()


class TestG2:
    def test_limit_one_at_zero(self):
        assert sp.g2_eval(1e-12, 1.0) == pytest.approx(1.0, rel=1e-10)

    def test_large_argument_asymptote(self):
        # G2(y) ~ sqrt(pi) gamma0 y for large y; within 1% at y = 10
        val = sp.g2_eval(10.0, 1.0)
        assert val == pytest.approx(math.sqrt(math.pi) * 10.0, rel=0.01)
        with mpmath.workdps(40):
            ref = float(1.0 / mpmath.erfc(10) / mpmath.exp(100))
        assert val == pytest.approx(ref, rel=1e-13)

    def test_monotone_increasing(self):
        assert sp.g2_eval(2.0, 1.0) > sp.g2_eval(1.0, 1.0)
        ys = np.geomspace(0.01, 20.0, 200)
        vals = sp.g2_eval(ys, 0.7)
        assert np.all(np.diff(vals) > 0.0)

    def test_erfcx_identity(self):
        for g0 in (0.3, 1.0, 2.0):
            for y in np.geomspace(0.01, 26.0, 40):
                prod = sp.g2_eval(float(y), g0) * erfcx(g0 * float(y))
                assert prod == pytest.approx(1.0, rel=1e-14)


class TestFrontEquationSides:
    def test_rhs(self):
        assert sp.rhs_eval(0.0, 2.0) == 2.0
        assert sp.rhs_eval(-1.0, 1.0) == 0.0  # positive zero at sqrt(1/|N|)
        assert sp.rhs_eval(3.0, 2.0) == 26.0

    def test_limit_at_zero(self, dl_pp):
        assert sp.lhs_limit_at_zero(dl_pp) == pytest.approx(
            dl_pp.delta1 / dl_pp.k0 - dl_pp.delta2, rel=1e-15)
        # the limit is approached numerically
        assert sp.lhs_convective(1e-9, dl_pp) == pytest.approx(
            sp.lhs_limit_at_zero(dl_pp), rel=1e-6)

    def test_prefactor_zero_makes_lhs_negative(self, dl_pp):
        y_star = math.sqrt(dl_pp.b_ext / (dl_pp.a_init * dl_pp.m_par))
        val = sp.lhs_convective(y_star, dl_pp)
        expect = -dl_pp.delta2 * (1.0 + dl_pp.m_par * y_star ** 2) * sp.g2_eval(
            y_star, dl_pp.gamma0)
        assert val == pytest.approx(expect, rel=1e-12)
        assert val < 0.0

    def test_sign_change_bracket(self, dl_pp):
        y_star = math.sqrt(dl_pp.b_ext / (dl_pp.a_init * dl_pp.m_par))
        assert sp.lhs_convective(1e-6, dl_pp) > 0.0
        assert sp.lhs_convective(y_star, dl_pp) < 0.0

    def test_k0_rows_broadcast(self, dl_pp):
        ys = np.geomspace(1e-6, 3.0, 50)
        k0s = dl_pp.k0 * np.array([0.01, 1.0, 100.0])
        rows = sp.lhs_convective(ys[None, :], dl_pp, k0s[:, None])
        for k0, row in zip(k0s, rows):
            single = sp.lhs_convective(ys, dataclasses.replace(dl_pp, k0=float(k0)))
            assert row == pytest.approx(single, rel=1e-15, abs=0.0)

    def test_temperature_lhs_blows_up_at_zero(self, dl_pp):
        dl = dl_pp.with_b0(3.0)
        assert sp.lhs_temperature(1e-6, dl) > 1e4

    def test_temperature_lhs_negative_at_prefactor_zero(self, dl_pp):
        dl = dl_pp.with_b0(3.0)
        y_star = math.sqrt(dl.b0_wall / (dl.a_init * dl.m_par))
        assert sp.lhs_temperature(y_star, dl) < 0.0

    def test_lhs_checks_y_and_a_callers_k0(self, dl_pp):
        # the messages of the checks the LHS made through g1_eval and g2_eval
        with pytest.raises(NonFiniteInput, match=r"^y must be finite$"):
            sp.lhs_convective(np.array([0.1, math.nan]), dl_pp)
        with pytest.raises(DomainError, match=r"^y must be > 0$"):
            sp.lhs_temperature(0.0, dl_pp.with_b0(3.0))
        with pytest.raises(NonFiniteInput, match=r"^k0 must be finite and >= 0, got "):
            sp.lhs_convective(0.1, dl_pp, np.array([[1.0], [-1.0]]))


class TestLargeArgumentBehavior:
    """Limits and asymptotic equivalents of the two LHS building blocks."""

    @pytest.mark.parametrize("p", [-1.0, 0.0, 0.5, 1.0, 1.5])
    def test_g1_block_vanishes_for_small_p(self, p, dl_pp):
        y = 40.0
        m = dl_pp.m_par
        block = (1.0 - dl_pp.a_init * m / dl_pp.b_ext * y * y) * sp.g1_eval(p, y, dl_pp.k0)
        assert abs(block) <= 1e-8

    def test_g1_block_equivalent_p2(self, dl_pp):
        y = 25.0
        ratio_amb = dl_pp.a_init * dl_pp.m_par / dl_pp.b_ext
        block = (1.0 - ratio_amb * y * y) * sp.g1_eval(2.0, y, dl_pp.k0)
        target = -(2.0 * ratio_amb / math.sqrt(math.pi)) * y * y
        assert 0.95 <= block / target <= 1.05

    def test_g1_block_equivalent_p3(self, dl_pp):
        y = 25.0
        ratio_amb = dl_pp.a_init * dl_pp.m_par / dl_pp.b_ext
        block = (1.0 - ratio_amb * y * y) * sp.g1_eval(3.0, y, dl_pp.k0)
        target = -(ratio_amb * (3.0 - 2.0)) * y ** 3
        assert 0.95 <= block / target <= 1.05

    def test_g2_block_equivalent_and_monotone(self, dl_pp):
        m, g0 = dl_pp.m_par, dl_pp.gamma0
        y = 25.0
        block = (1.0 + m * y * y) * sp.g2_eval(y, g0)
        target = math.sqrt(math.pi) * g0 * m * y ** 3
        assert abs(block / target - 1.0) <= 0.02
        grid = np.geomspace(1e-3, 25.0, 1000)
        vals = (1.0 + m * grid ** 2) * sp.g2_eval(grid, g0)
        assert np.all(np.diff(vals) > 0.0)


class TestFiniteCheck:
    """One contract for every input type: floats take the math.isfinite path,
    everything else the numpy reduction, with the same error."""

    KINDS = [float, np.float64, np.float32, np.array, lambda v: np.array([1.0, v])]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, kind, bad):
        with pytest.raises(NonFiniteInput, match=r"^p must be finite$"):
            sp._check_finite("p", kind(bad))

    @pytest.mark.parametrize("kind", KINDS + [int, np.int64])
    def test_finite_accepted(self, kind):
        sp._check_finite("p", kind(-3))
        sp._check_finite("p", kind(0))

    def test_float_skips_numpy(self, monkeypatch):
        def refuse(value):
            raise AssertionError("np.isfinite called on a float")

        monkeypatch.setattr(sp.np, "isfinite", refuse)
        sp._check_finite("p", 0.5)
        sp._check_finite("p", np.float64(0.5))


def profile_integral(p, xi, eta):
    """The profile integral through special._profile_integral, which the
    unfrozen field binds to (p, xi)."""
    return sp._profile_integral(p, xi)(eta)


class TestProfileIntegral:
    def test_not_the_kernel_integral(self):
        # the exponent couples r to the front coefficient, not to the upper
        # limit: the profile integral at eta != g(p, eta) unless eta == xi
        p, xi, eta = 0.8, 1.5, 0.7
        partial = profile_integral(p, xi, eta)
        ref, _ = __import__("scipy.integrate", fromlist=["quad"]).quad(
            lambda r: np.exp(-r * r + p * r * xi), 0.0, eta, epsabs=1e-13, epsrel=1e-13)
        assert partial == pytest.approx(ref, rel=1e-12)
        assert partial != pytest.approx(sp.g_eval(p, eta), rel=1e-3)

    def test_full_upper_limit_recovers_kernel(self):
        for p, xi in ((0.5, 0.8), (-1.2, 2.0), (2.5, 1.1)):
            assert profile_integral(p, xi, xi) == pytest.approx(sp.g_eval(p, xi), rel=1e-12)

    def test_integrand_is_derivative(self):
        p, xi, eta, h = 0.6, 1.2, 0.5, 1e-6
        fd = (profile_integral(p, xi, eta + h) - profile_integral(p, xi, eta - h)) / (2 * h)
        assert fd == pytest.approx(sp.partial_integrand(p, xi, eta), rel=1e-9)


class TestProfileFloatPath:
    """A float eta skips numpy in the profile integral, and an array eta gets
    math.erf on every element, so both give the same bits."""

    P, XI = 0.07, 0.3

    def test_float_equals_zero_d_array(self):
        rng = np.random.default_rng(13)
        etas = rng.uniform(0.0, self.XI, 1000).tolist() + [0.0, self.XI]
        integral = sp._profile_integral(self.P, self.XI)
        whole = integral(np.array(etas))
        for e, in_array in zip(etas, whole.tolist()):
            got = integral(e)
            assert type(got) is float
            assert got == integral(np.asarray(e)) == in_array, e
            assert sp.partial_integrand(self.P, self.XI, e) == \
                sp.partial_integrand(self.P, self.XI, np.asarray(e)), e

    @pytest.mark.parametrize("fn", [sp.partial_integrand])
    @pytest.mark.parametrize("kind", [float, np.float64])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_eta_rejected(self, fn, kind, bad):
        with pytest.raises(NonFiniteInput, match=r"^eta must be finite$"):
            fn(self.P, self.XI, kind(bad))

    @pytest.mark.parametrize("fn", [profile_integral, sp.partial_integrand])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_p_and_xi_rejected(self, fn, bad):
        # partial_integrand used to return NaN with a RuntimeWarning
        with pytest.raises(NonFiniteInput, match=r"^p must be finite$"):
            fn(bad, self.XI, 0.1)
        with pytest.raises(NonFiniteInput, match=r"^xi must be finite$"):
            fn(self.P, bad, 0.1)

    def test_float_call_makes_no_numpy_call(self, monkeypatch):
        etas = (0.0, 0.1, np.float64(0.2), self.XI)
        want = [profile_integral(self.P, self.XI, np.asarray(e)) for e in etas]

        def refuse(*args, **kwargs):
            raise AssertionError("numpy called on a float eta")

        monkeypatch.setattr(sp.np, "asarray", refuse)
        monkeypatch.setattr(sp.np, "isfinite", refuse)
        assert [profile_integral(self.P, self.XI, e) for e in etas] == want

    def test_array_call_works_and_validates(self):
        etas = np.linspace(0.0, self.XI, 14).reshape(2, 7)
        got = profile_integral(self.P, self.XI, etas)
        assert got.shape == (2, 7)
        for e, g in zip(etas.ravel().tolist(), got.ravel().tolist()):
            assert g == profile_integral(self.P, self.XI, e)
        assert sp.partial_integrand(self.P, self.XI, etas).shape == (2, 7)
        # the profile integral leaves eta to its caller, the bound field
        # (tests/test_profiles.py TestArrayFields); the integrand checks it
        with pytest.raises(NonFiniteInput, match=r"^eta must be finite$"):
            sp.partial_integrand(self.P, self.XI, np.array([0.1, math.nan]))


class TestErrorFunctions:
    """The package's own erf and erfcx against mpmath at 40 digits."""

    POINTS = np.concatenate([
        np.linspace(-30.0, 30.0, 241), np.geomspace(1e-300, 26.0, 120),
        -np.geomspace(1e-300, 26.0, 120), [0.46875, 4.0, -0.46875, -4.0],
    ])

    @staticmethod
    def _rel(got, want):
        return float(abs((mpmath.mpf(float(got)) - want) / want)) if want != 0 else abs(got)

    @pytest.mark.parametrize("name, exact", [
        ("erf", mpmath.erf),
        ("erfcx", lambda x: mpmath.exp(x * x) * mpmath.erfc(x)),
    ])
    def test_against_mpmath(self, name, exact):
        fn = getattr(_erf, name)
        vals = fn(self.POINTS)
        with mpmath.workdps(40):
            for x, v in zip(self.POINTS, vals):
                want = exact(mpmath.mpf(float(x)))
                if abs(want) < 1e-300 or abs(want) > 1e300:
                    continue          # outside the normal double range
                assert self._rel(v, want) <= 2e-15, (name, x, v)
                assert self._rel(fn(float(x)), want) <= 2e-15, (name, x)

    def test_special_values(self):
        x = np.array([0.0, np.inf, -np.inf, np.nan, -30.0, 1e300])
        with np.errstate(all="raise"):
            erf, erfcx = _erf.erf(x), _erf.erfcx(x)
        np.testing.assert_array_equal(erf, [0.0, 1.0, -1.0, np.nan, -1.0, 1.0])
        np.testing.assert_array_equal(erfcx[:4], [1.0, 0.0, np.inf, np.nan])
        assert erfcx[4] == np.inf
        assert erfcx[5] == pytest.approx(1.0 / (math.sqrt(math.pi) * 1e300), rel=1e-15)

    def test_shapes(self):
        grid = np.geomspace(0.1, 10.0, 12).reshape(3, 4)
        for fn in (_erf.erf, _erf.erfcx):
            assert fn(grid).shape == (3, 4)
            assert isinstance(fn(0.5), float)
        # erfcx takes one code path for scalars and arrays, strided or not
        part = grid[1:, ::2]
        assert _erf.erfcx(part).ravel().tolist() == [_erf.erfcx(v) for v in part.ravel()]

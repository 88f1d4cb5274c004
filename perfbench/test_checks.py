"""Tests of the benchmark's own checker: it must reject what is wrong.

Run: python3 -m pytest perfbench/test_checks.py
"""

import math

import checks
import media

TWO_ROOTS = media.CLI_MEDIA["two_roots"]      # M < 0, N < 0: two fronts


def _roots(params):
    f = checks.np_front(params)
    return checks.oracle_roots(f, 1e-12 * 40.0, 40.0)


def test_oracle_finds_both_fronts_of_the_two_root_medium():
    roots = _roots(TWO_ROOTS)
    assert len(roots) == 2
    front = checks.MpFront(TWO_ROOTS)
    assert all(front.brackets(r) for r in roots)


def test_root_perturbed_by_1e6_relative_is_rejected():
    front = checks.MpFront(media.BASE)
    (root,) = _roots(media.BASE)
    assert front.brackets(root)
    assert not front.brackets(root * (1 + 1e-6))
    assert not front.brackets(root * (1 - 1e-6))
    assert not checks.roots_match([root * (1 + 1e-6)], [root])


def test_non_positive_or_non_finite_root_is_rejected():
    front = checks.MpFront(media.BASE)
    assert not front.brackets(math.nan)
    assert not front.brackets(-0.1)


def test_temperature_front_equation():
    front = checks.MpFront(media.BASE, b0=media.BASE["b_ext"])
    # omega_inf of the shipped convective medium lies just above the sweep's
    # top xi (0.31315521573218 at 1e3 times critical)
    lo, hi = 0.313, 0.32
    assert (front(lo) < 0) != (front(hi) < 0)


def test_sweep_checks():
    om = 1.0
    good = [0.5, 0.9, 0.99995]
    assert checks.sweep_problems(good, om) == []
    assert checks.sweep_problems([0.5, 0.4, 0.99995], om)        # not monotone
    assert checks.sweep_problems([0.5, 0.5, 0.99995], om)        # not strict
    assert checks.sweep_problems([0.5, 0.9, 1.0], om)            # reaches omega_inf
    assert checks.sweep_problems([0.5, 0.9, 0.99], om)           # top not within 1e-4


def test_critical_h0_of_shipped_medium():
    # `stefan-thaw classify configs/thaw_convective.cfg` prints this value
    assert math.isclose(media.critical_h0(media.BASE), 0.015057838428089129, rel_tol=1e-14)


if __name__ == "__main__":
    import pytest
    raise SystemExit(pytest.main([__file__, "-q"]))

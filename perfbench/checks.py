"""Independent checks of the program's outputs.

Nothing here imports stefan_thaw. The dimensionless groups are recomputed
from the physical parameters by their definitions. Two evaluators of the
front equation are built on them:

* ``MpFront`` evaluates the closed form in mpmath at 50 digits. It decides
  whether a returned root is one: the front equation must change sign
  across r(1 - 1e-9) and r(1 + 1e-9).
* ``np_front`` evaluates the same equation in double precision through a
  different route than the program (log-erfc differences instead of erfcx
  branches). It drives a dense-scan bisection oracle that counts roots.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.special import erf, erfcx

mp.mp.dps = 50

ROOT_REL = 1e-9       # sign change must show across r(1 -/+ ROOT_REL)
ORACLE_POINTS = 100_000
ORACLE_MATCH = 1e-8   # |program - oracle| <= ORACLE_MATCH * max(1, |oracle|)


def groups(params: dict, classical: bool = False, b0: float | None = None) -> dict:
    """The dimensionless groups of the front equation, computed in mpmath.

    ``b0`` (the wall value) selects the fixed-temperature problem; without
    it the convective one, with K0 from h0.
    """
    P = {k: mp.mpf(v) for k, v in params.items() if v is not None}
    d_u = P["k_u"] / (P["rho_u"] * P["c_u"])
    d_f = P["k_f"] / (P["rho_f"] * P["c_f"])
    b = P["epsilon"] * P["rho_w"] * P["c_w"] / (P["rho_u"] * P["c_u"])
    d = P["epsilon"] * P["gamma_cc"] * P["mu"] / P["perm_k"]
    rho = (P["rho_w"] - P["rho_i"]) / P["rho_w"]
    alpha = P["epsilon"] * P["rho_i"] * P["latent_l"]
    beta = P["epsilon"] * d * P["rho_i"] * (P["c_w"] - P["c_i"])
    if classical:
        m = n = p = mp.mpf(0)
    else:
        m = 2 * d * rho * d_u / P["a_init"]
        n = 2 * beta * rho * d_u / alpha
        p = 2 * b * rho
    wall = P["b_ext"] if b0 is None else mp.mpf(b0)
    g = dict(
        m=m, n=n, p=p, a=P["a_init"], wall=wall,
        delta1=P["k_u"] * wall / (2 * alpha * d_u),
        delta2=P["k_f"] * P["a_init"] / (alpha * mp.sqrt(d_u) * mp.sqrt(d_f) * mp.sqrt(mp.pi)),
        gamma0=mp.sqrt(d_u) / mp.sqrt(d_f),
        k0=None if b0 is not None else P["k_u"] / (2 * mp.sqrt(d_u) * P["h0"]),
    )
    return g


def _mp_kernel(p, y):
    """g(p, y) = (sqrt(pi)/2) e^{p^2 y^2/4} (erf((1 - p/2) y) + erf(p y / 2)),
    with the erf sum written as an erfc difference where it cancels."""
    a = (1 - p / 2) * y
    b = p * y / 2
    if a >= 0 and b >= 0:
        s = mp.erf(a) + mp.erf(b)
    elif b < 0:
        s = mp.erfc(-b) - mp.erfc(a)
    else:
        s = mp.erfc(-a) - mp.erfc(b)
    return mp.sqrt(mp.pi) / 2 * mp.exp(b * b) * s


class MpFront:
    """LHS(y) - (y + N y^3) of the convective or fixed-temperature front
    equation at 50 digits."""

    def __init__(self, params: dict, classical: bool = False, b0: float | None = None):
        self.g = groups(params, classical=classical, b0=b0)

    def __call__(self, y) -> mp.mpf:
        g = self.g
        y = mp.mpf(y)
        kern = _mp_kernel(g["p"], y)
        den = kern if g["k0"] is None else g["k0"] + kern
        g1 = mp.exp((g["p"] - 1) * y * y) / den
        z = g["gamma0"] * y
        g2 = mp.exp(-z * z) / mp.erfc(z)
        lhs = (g["delta1"] * (1 - g["a"] * g["m"] / g["wall"] * y * y) * g1
               - g["delta2"] * (1 + g["m"] * y * y) * g2)
        return lhs - y - g["n"] * y ** 3

    def brackets(self, r: float, rel: float = ROOT_REL) -> bool:
        """True if the equation is zero at r or changes sign across r(1 -/+ rel)."""
        if not (math.isfinite(r) and r > 0.0):
            return False
        r = mp.mpf(r)
        lo, hi = self(r * (1 - rel)), self(r * (1 + rel))
        return lo == 0 or hi == 0 or (lo < 0) != (hi < 0)


def _log_erfc(x):
    return np.log(erfcx(x)) - x * x


def _log_erfc_diff(lo, hi):
    """log(erfc(lo) - erfc(hi)) for 0 <= lo < hi."""
    la, lb = _log_erfc(lo), _log_erfc(hi)
    return la + np.log1p(-np.exp(lb - la))


def np_front(params: dict):
    """Vectorised convective front equation in double precision."""
    g = {k: float(v) for k, v in groups(params).items()}
    p, m, n = g["p"], g["m"], g["n"]
    ratio = g["a"] * m / g["wall"]
    log_k0 = math.log(g["k0"])

    def f(y):
        y = np.asarray(y, dtype=float)
        a, b = (1.0 - 0.5 * p) * y, 0.5 * p * y
        with np.errstate(all="ignore"):
            if p < 0.0:
                log_s = np.where(-b >= 1.0, _log_erfc_diff(-b, a),
                                 np.log(erf(a) - erf(-b)))
            elif p > 2.0:
                log_s = np.where(-a >= 1.0, _log_erfc_diff(-a, b),
                                 np.log(erf(b) - erf(-a)))
            else:
                log_s = np.log(erf(a) + erf(b))
            log_kern = math.log(math.sqrt(math.pi) / 2.0) + b * b + log_s
            g1 = np.exp((p - 1.0) * y * y - np.logaddexp(log_k0, log_kern))
            g2 = 1.0 / erfcx(g["gamma0"] * y)
            return (g["delta1"] * (1.0 - ratio * y * y) * g1
                    - g["delta2"] * (1.0 + m * y * y) * g2 - y - n * y ** 3)

    return f


def oracle_roots(f, lo: float, hi: float, n_points: int = ORACLE_POINTS) -> list[float]:
    """All sign changes of f on a geometric grid, each bisected to 1e-13."""
    grid = np.geomspace(lo, hi, n_points)
    vals = f(grid)
    ok = np.isfinite(vals)
    roots = [float(grid[i]) for i in np.nonzero(ok & (vals == 0.0))[0]]
    change = ok[:-1] & ok[1:] & (np.sign(vals[:-1]) * np.sign(vals[1:]) < 0.0)
    for i in np.nonzero(change)[0]:
        a, b, fa = float(grid[i]), float(grid[i + 1]), float(vals[i])
        while b - a > 1e-13 * b:
            mid = 0.5 * (a + b)
            fm = float(f(np.array([mid]))[0])
            if fm == 0.0:
                a = b = mid
            elif (fm < 0.0) == (fa < 0.0):
                a, fa = mid, fm
            else:
                b = mid
        roots.append(0.5 * (a + b))
    return sorted(roots)


def roots_match(found, oracle, rel: float = ORACLE_MATCH) -> bool:
    found = sorted(found)
    return len(found) == len(oracle) and all(
        abs(x - y) <= rel * max(1.0, abs(y)) for x, y in zip(found, oracle))


def sweep_problems(xis, om_inf: float) -> list[str]:
    """The paper's monotony result: xi(h0) strictly increasing, below the
    fixed-wall coefficient omega_inf, and within 1e-4 of it at the top."""
    problems = []
    for i, (a, b) in enumerate(zip(xis, xis[1:])):
        if not b > a:
            problems.append(f"xi not increasing at grid point {i + 1}: {a!r} -> {b!r}")
    for i, x in enumerate(xis):
        if not x < om_inf:
            problems.append(f"xi[{i}] = {x!r} not below omega_inf = {om_inf!r}")
    if xis and not om_inf - xis[-1] < 1e-4 * om_inf:
        problems.append(f"omega_inf - xi_last = {om_inf - xis[-1]!r} >= 1e-4 omega_inf")
    return problems

"""erf and erfcx = exp(x^2) erfc(x) without a compiled special
function library: importing scipy.special costs about 0.45 s and 25 MB of
resident memory, more than the rest of the package together.

Arrays use W. J. Cody's rational Chebyshev approximations (Math. Comp.
23:631, 1969; the CALERF routine of SPECFUN) in numpy, accurate to a few
ulp over the whole double range.
"""

from __future__ import annotations

import numpy as np

_SQRPI = 5.6418958354775628695e-1     # 1 / sqrt(pi)
_THRESH = 0.46875
_XNEG = -26.628                        # erfcx(x) overflows below
_BLOCK = 16384

# erf(x) = x A(x^2) / B(x^2) for |x| <= 0.46875
_A = (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
      3.20937758913846947e03, 1.85777706184603153e-1)
_B = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
      2.84423683343917062e03)
# erfcx(x) = C(x) / D(x) for 0.46875 < x <= 4
_C = (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
      2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
      2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8)
_D = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
      1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
      3.43936767414372164e03, 1.23033935480374942e03)
# erfcx(x) = (1/sqrt(pi) - z P(z) / Q(z)) / x, z = 1/x^2, for x > 4
_P = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
      1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2)
_Q = (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
      6.05183413124413191e-2, 2.33520497626869185e-3)


def _rational(num, den, z):
    """Cody's nested evaluation: num[-1] leads, num[-2] and den[-1] are the
    constant terms. In place, as the arrays may be long."""
    xnum, xden = num[-1] * z, z + den[0]
    xnum += num[0]
    xnum *= z
    xden *= z
    for a, b in zip(num[1:-2], den[1:-1]):
        xnum += a
        xnum *= z
        xden += b
        xden *= z
    xnum += num[-2]
    xden += den[-1]
    xnum /= xden
    return xnum


def _exp_sq(x, sign: float):
    """exp(sign x^2), with x^2 split so that its rounding error is not
    amplified by the exponential."""
    head = np.trunc(x * 16.0) / 16.0
    return np.exp(sign * head * head) * np.exp(sign * (x - head) * (x + head))


def _from_erfcx(x, r, scaled: bool):
    """erfcx (``scaled``) or erf of x from r = erfcx(|x|), for |x| > 0.46875."""
    if scaled:
        r = np.where(x < 0.0, 2.0 * _exp_sq(x, 1.0) - r, r)
        r[x < _XNEG] = np.inf
        return r
    r = np.where(np.isinf(x), 0.0, _exp_sq(x, -1.0) * r)       # erfc(|x|)
    return np.copysign((0.5 - r) + 0.5, x)


def _calerf(x, scaled: bool) -> np.ndarray:
    """erfcx (``scaled``) or erf, elementwise; NaN stays NaN."""
    shape = np.shape(x)
    x = np.asarray(x, dtype=float).ravel()
    if x.size > _BLOCK:
        # blocks that stay in cache: a pass over a long array is memory bound
        blocks = np.array_split(x, -(-x.size // _BLOCK))
        return np.concatenate([_calerf(b, scaled) for b in blocks]).reshape(shape)
    with np.errstate(all="ignore"):
        # the |x| <= 0.46875 form on every element, then the rest replaced:
        # on a geometric grid most elements are small
        z = x * x
        out = x * _rational(_A, _B, z)           # erf
        if scaled:
            out = 1.0 - out
            out *= np.exp(z)
        large = np.flatnonzero(np.abs(x) > _THRESH)
        if large.size:
            xl = x[large]
            yl = np.abs(xl)
            r = np.empty(yl.shape)                       # erfcx(|x|)
            mid = yl <= 4.0
            if mid.any():
                r[mid] = _rational(_C, _D, yl[mid])
            if not mid.all():
                yb = yl[~mid]
                zb = 1.0 / (yb * yb)
                r[~mid] = (_SQRPI - zb * _rational(_P, _Q, zb)) / yb
            out[large] = _from_erfcx(xl, r, scaled)
    return out.reshape(shape)


def pointwise(fn, x):
    """fn of a float, or of each element of an array as a float: an array
    gives exactly the values its elements give one by one."""
    if isinstance(x, float):
        return fn(x)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def erf(x):
    """erf, by one path for scalars and arrays."""
    return scalar_or_array(_calerf(x, False))


def erfcx(x):
    """exp(x^2) erfc(x), finite for every x above -26.6."""
    return scalar_or_array(_calerf(x, True))


def scalar_or_array(out):
    """A 0-d result as a Python float, an array unchanged. Tested by type, as
    np.ndim of a Python float first builds an array (about 2 us a call)."""
    return out if isinstance(out, np.ndarray) and out.ndim else float(out)

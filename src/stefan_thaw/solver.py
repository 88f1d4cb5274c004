"""Root enumeration for the front equations and regime classification.

The front coefficient solves LHS(y) = y + N y^3. The LHS can have poles and
steep boundary layers near y = 0 (temperature problem), so one bracketed
engine finds every root: a geometric-grid sign scan evaluated as one numpy
array, then Chandrupatla's interpolation polish applied to all sign-change
cells at once. The h0 sweep uses the same engine with one row per h0. All
roots found in the scan window are returned, smallest first (the principal
root).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DomainError,
    MonotonicityViolation,
    NoRootFound,
    ToleranceNotReached,
    UniquenessViolation,
)
from .model import DimensionlessParams, PhysicalParams, reduce_params
from .special import lhs_convective, lhs_limit_at_zero, lhs_temperature, rhs_eval

__all__ = [
    "SolveOptions", "RootSet", "RegimeReport",
    "critical_h0", "classify", "fixed_wall_report", "solve_xi", "solve_omega",
    "monotonicity_sweep",
]

_EPS = np.finfo(float).eps
_POLISH_ULPS = 4.0      # a polished bracket is at most this many ulp wide
_MAX_POLISH = 200       # bisection alone needs < 64 steps from a scan cell


@dataclass(frozen=True)
class SolveOptions:
    scan_max: float | None = None   # default derived from the data, see _default_scan_max
    scan_points: int = 2048
    tolerance: float = 1e-12        # on |LHS - RHS| / max(1, |LHS| + |RHS|) at a root

    def __post_init__(self):
        if self.scan_points < 8:
            raise DomainError("scan_points must be >= 8")
        if self.tolerance <= 0.0:
            raise DomainError("tolerance must be > 0")


@dataclass
class RootSet:
    """All roots found in the scan window, strictly increasing.

    ``nonfinite_cells`` counts scan cells skipped because the equation was
    not finite at one of their ends; a root inside such a cell is not seen.
    """

    roots: list[float]
    brackets: list[tuple[float, float]]
    residuals: list[float]
    scan_max: float
    scan_points: int
    nonfinite_cells: int = 0

    @property
    def principal(self) -> float:
        if not self.roots:
            raise NoRootFound("root set is empty")
        return self.roots[0]

    def in_range(self, hi: float) -> list[float]:
        return [r for r in self.roots if r < hi]


@dataclass
class RegimeReport:
    """Which existence/uniqueness clause fires for the given signs of M, N.

    ``citation`` is a short clause label: pp/pm/mp/mm encode the signs of
    (M, N); the suffix names the guarantee. ``extra_conditions`` records
    every hypothesis boolean that was evaluated (None = could not be
    verified numerically, e.g. no LHS zero inside the scan window).
    """

    m_sign: str
    n_sign: str
    p_class: str
    h0_condition: str | None        # 'above' | 'equal' | 'below' vs critical
    extra_conditions: dict = field(default_factory=dict)
    guarantee: str = "Unclassified"
    citation: str = ""
    root_range: tuple[float, float] | None = None
    notes: list[str] = field(default_factory=list)


def critical_h0(phys: PhysicalParams) -> float:
    """Heat-transfer threshold (A/B) k_F / sqrt(pi d_F)."""
    return phys.critical_h0()


def _default_scan_max(dl: DimensionlessParams, b_like: float) -> float:
    cands = [1.0]
    if dl.m_par != 0.0:
        cands.append(math.sqrt(b_like / (dl.a_init * abs(dl.m_par))))
    if dl.n_par != 0.0:
        cands.append(math.sqrt(1.0 / abs(dl.n_par)))
    return 4.0 * max(cands)


def _polish(f, x1, x2, f1, f2, rows):
    """Chandrupatla's method (Adv. Eng. Software 28:145, 1997) on every
    bracket [x1, x2] at once, f1 and f2 of opposite signs. Each bracket
    stops when it is _POLISH_ULPS wide, f is zero or f is not finite;
    returns the end with the smaller |f| of each final bracket."""
    out = np.empty_like(x1)
    idx = np.arange(x1.size)
    t = np.full_like(x1, 0.5)
    for _ in range(_MAX_POLISH):
        xt = x1 + t * (x2 - x1)
        ft = _residual(f, xt, rows)
        same = np.sign(ft) == np.sign(f1)
        # keep the new point and the old end of opposite sign; x3 is dropped
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = xt, ft
        xm = np.where(np.abs(f1) < np.abs(f2), x1, x2)
        xtol = _POLISH_ULPS * _EPS * np.abs(xm)
        dx = np.abs(x2 - x1)
        done = (f1 == 0.0) | (dx <= xtol) | ~np.isfinite(ft)
        out[idx[done]] = xm[done]
        if done.all():
            return out
        keep = ~done
        x1, x2, x3, f1, f2, f3, xm, xtol, dx, idx, rows = (
            a[keep] for a in (x1, x2, x3, f1, f2, f3, xm, xtol, dx, idx, rows))
        # inverse quadratic interpolation where the three points allow it
        xi = (x1 - x2) / (x3 - x2)
        phi = (f1 - f2) / (f3 - f2)
        iqi = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
        alpha = (x3 - x1) / (x2 - x1)
        t = np.where(iqi, f1 / (f1 - f2) * f3 / (f3 - f2)
                     - alpha * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
        tl = 0.5 * xtol / dx
        t = np.clip(t, tl, 1.0 - tl)
    out[idx] = xm
    return out


def _residual(f, y, rows):
    lhs, rhs = f(y, rows)
    return np.asarray(lhs - rhs, dtype=float)


def _find_roots(f, scan_min: float, scan_max: float, n_points: int, tol: float,
                n_rows: int = 1) -> list[RootSet]:
    """Every root of ``f`` in the scan window, for each of ``n_rows`` rows.

    ``f(y, rows)`` returns the pair (LHS, RHS) of the equation, broadcasting
    ``y`` against the row indices ``rows``. The scan evaluates f once on a
    (rows x grid) array; each root is accepted when
    |LHS - RHS| <= tol * max(1, |LHS| + |RHS|), else ToleranceNotReached.
    """
    grid = np.geomspace(scan_min, scan_max, n_points)
    with np.errstate(all="ignore"):
        vals = np.broadcast_to(
            _residual(f, grid[None, :], np.arange(n_rows)[:, None]), (n_rows, n_points))
        ok = np.isfinite(vals)
        both = ok[:, :-1] & ok[:, 1:]
        lo, hi = vals[:, :-1], vals[:, 1:]
        change = both & (np.sign(lo) * np.sign(hi) < 0.0)
        zero = both & (lo == 0.0)
        rows, cells = np.nonzero(change | zero)
        polish = change[rows, cells]
        roots = grid[cells]
        res = scale = np.zeros(roots.shape)        # exact zeros of the scan
        if polish.any():
            r, i = rows[polish], cells[polish]
            roots[polish] = _polish(f, grid[i], grid[i + 1], lo[r, i], hi[r, i], r)
            lhs, rhs = f(roots, rows)
            res = np.where(polish, np.abs(lhs - rhs), 0.0)
            scale = np.abs(lhs) + np.abs(rhs)
    bound = tol * np.maximum(1.0, scale)
    bad = np.nonzero(~(res <= bound))[0]
    if bad.size:
        i = bad[0]
        raise ToleranceNotReached(
            f"residual {res[i]:.3e} > tolerance {bound[i]:.3e} at root ~{roots[i]:.6g}")
    skipped = (~both).sum(axis=1)
    sets = [RootSet(roots=[], brackets=[], residuals=[], scan_max=float(scan_max),
                    scan_points=int(n_points), nonfinite_cells=int(skipped[r]))
            for r in range(n_rows)]
    for r, i, root, rs, pol in zip(rows.tolist(), cells.tolist(), roots.tolist(),
                                   res.tolist(), polish.tolist()):
        s = sets[r]
        s.roots.append(root)
        s.brackets.append((float(grid[i]), float(grid[i + 1 if pol else i])))
        s.residuals.append(rs)
    return sets


def _scan(lhs, dl: DimensionlessParams, opts: SolveOptions, wall: float, n_rows: int = 1,
          q1_row: bool = False) -> list[RootSet]:
    """Roots of LHS = RHS, the LHS from ``lhs(y, rows)``, in one _find_roots
    call on the options' window (by default set by the data and the
    wall-side value ``wall``, B or B0). With ``q1_row`` the RHS is weighted
    by the row index: row 0 solves LHS = 0, whose smallest root is q1, and
    row 1 LHS = RHS, on one LHS evaluation."""
    def f(y, rows):
        rhs = rhs_eval(dl.n_par, y)
        return lhs(y, rows), rows * rhs if q1_row else rhs

    scan_max = opts.scan_max or _default_scan_max(dl, wall)
    return _find_roots(f, scan_max * 1e-12, scan_max, opts.scan_points, opts.tolerance,
                       n_rows)


def _p_class(p: float) -> str:
    if p <= 1.0:
        return "p<=1"
    if p <= 2.0:
        return "1<p<=2"
    return "p>2"


def _sign_label(x: float) -> str:
    return "+" if x > 0.0 else ("-" if x < 0.0 else "0")


def _bare_report(dl: DimensionlessParams) -> RegimeReport:
    """An Unclassified report with the signs of M, N and the class of p."""
    return RegimeReport(m_sign=_sign_label(dl.m_par), n_sign=_sign_label(dl.n_par),
                        p_class=_p_class(dl.p_par), h0_condition=None)


def _reads_q1(dl: DimensionlessParams) -> bool:
    """Whether a convective clause reads q1: M < 0, N != 0, h0 above critical."""
    return (dl.k0 is not None and dl.m_par < 0.0 and dl.n_par != 0.0
            and lhs_limit_at_zero(dl) > 0.0)


def classify(dl: DimensionlessParams, opts: SolveOptions | None = None) -> RegimeReport:
    """Total classification of the convective front equation by the signs of
    M and N; records every hypothesis it evaluates. Where a clause needs q1,
    the smallest zero of the LHS, the LHS alone is scanned for it."""
    q1 = None
    if _reads_q1(dl):
        zeros = _scan(lambda y, _: lhs_convective(y, dl), dl, opts or SolveOptions(),
                      dl.b_ext, q1_row=True)[0]
        q1 = next(iter(zeros.roots), None)
    return _convective_report(dl, q1)


def _convective_report(dl: DimensionlessParams, q1: float | None) -> RegimeReport:
    """classify's clauses; q1 is None where no LHS zero was found or none is read."""
    m, n, p = dl.m_par, dl.n_par, dl.p_par
    rep = _bare_report(dl)
    if dl.k0 is None:
        rep.notes.append("no h0 given; classification needs the convective problem")
        return rep

    gap = lhs_limit_at_zero(dl)  # delta1/K0 - delta2, same sign as h0 - critical
    rep.h0_condition = "above" if gap > 0.0 else ("equal" if gap == 0.0 else "below")
    above = gap > 0.0
    rep.extra_conditions["h0_above_critical"] = above

    if m == 0.0 or n == 0.0:
        rep.notes.append("M = 0 or N = 0: outside the four-quadrant classification")
        return rep

    b_over_am = dl.b_ext / (dl.a_init * m) if m > 0.0 else None

    if m > 0.0 and n > 0.0:
        if above:
            rep.root_range = (0.0, math.sqrt(b_over_am))
            if p <= 1.0:
                rep.guarantee, rep.citation = "UniqueInRange", "pp-unique"
            else:
                rep.guarantee, rep.citation = "AtLeastOne", "pp-at-least-one"
        elif p <= 1.0:  # p > 1 below threshold: no clause applies
            rep.guarantee, rep.citation = "NoneInRange", "pp-none"
            rep.root_range = (0.0, math.sqrt(b_over_am))
        return rep

    if m > 0.0:  # n < 0
        cond = dl.b_ext < dl.a_init * m / abs(n)
        rep.extra_conditions["b_lt_am_over_abs_n"] = cond
        if above and cond:
            rep.guarantee, rep.citation = "AtLeastOne", "pm-at-least-one"
            rep.root_range = (0.0, math.sqrt(b_over_am))
        return rep

    if above:  # m < 0: the clauses read q1
        rep.extra_conditions["lhs_has_positive_zeros"] = True if q1 is not None else None
        if q1 is None:
            rep.notes.append("no LHS zero inside scan window: hypothesis unverified")
        elif n > 0.0:
            rep.guarantee, rep.citation = "AtLeastOne", "mp-at-least-one"
            rep.root_range = (0.0, q1)
        else:
            bound = math.sqrt(1.0 / abs(n))
            rep.extra_conditions["q1_lt_inv_sqrt_abs_n"] = q1 < bound
            if abs(q1 - bound) <= 1e-9 * bound:
                rep.guarantee, rep.citation = "ExistsAtQ1", "mm-at-q1"
                rep.root_range = (0.0, bound)
            elif q1 < bound:
                rep.guarantee, rep.citation = "AtLeastTwo", "mm-two"
                rep.root_range = (0.0, bound)
    elif n > 0.0:
        cond = n < dl.delta2 * math.sqrt(math.pi) * abs(m) * dl.gamma0
        rep.extra_conditions["n_lt_delta2_sqrt_pi_abs_m_gamma0"] = cond
        if cond:
            rep.guarantee, rep.citation = "AtLeastOne", "mp-at-least-one-below"
    elif gap < 0.0:
        rep.guarantee, rep.citation = "AtLeastOne", "mm-at-least-one"
    return rep


def fixed_wall_report(dl: DimensionlessParams) -> RegimeReport:
    """For M > 0, N > 0, p <= 2 the fixed-wall root is unique in
    (0, sqrt(B0/(A M))) (Fasano, Primicerio and Tarzia, Math. Models Meth.
    Appl. Sci. 9 (1999) 1-10); no other clause is known."""
    rep = _bare_report(dl)
    if dl.m_par > 0.0 and dl.n_par > 0.0 and dl.p_par <= 2.0:
        rep.guarantee, rep.citation = "UniqueInRange", "pp-wall-unique"
        rep.root_range = (0.0, math.sqrt(dl.b0_wall / (dl.a_init * dl.m_par)))
    return rep


_NO_ROOT = {"convective": "no root in scan window",
            "temperature": "no root of the temperature front equation in scan window"}


def _solve(dl: DimensionlessParams, opts: SolveOptions | None, problem: str, wall: float,
           lhs, regime, q1_row: bool = False):
    """Roots of one problem's front equation and its report ``regime(q1)``,
    q1 from the same scan where ``q1_row``. Raises NoRootFound when no root
    lies in the window and UniquenessViolation when the report guarantees a
    unique root in its range but not exactly one is found there; both carry
    the report and the root set as attributes."""
    sets = _scan(lambda y, _: lhs(y, dl), dl, opts or SolveOptions(), wall, 1 + q1_row,
                 q1_row)
    roots = sets[-1]
    report = regime(next(iter(sets[0].roots), None) if q1_row else None)
    inside = (len(roots.in_range(report.root_range[1]))
              if report.guarantee == "UniqueInRange" else 1)
    if not roots.roots:
        err = NoRootFound(_NO_ROOT[problem] + (": no phase change, h0 <= critical"
                                              if report.guarantee == "NoneInRange" else ""))
    elif inside != 1:
        err = UniquenessViolation(
            f"{inside} roots inside (0, {report.root_range[1]:.6g}) where the "
            f"{problem} problem has a unique solution")
    else:
        return roots, report
    err.report, err.root_set = report, roots
    raise err


def solve_xi(dl: DimensionlessParams, opts: SolveOptions | None = None):
    """Enumerate roots of the convective front equation.

    Returns (RootSet, RegimeReport); raises as _solve does.
    """
    if dl.k0 is None:
        raise DomainError("convective solve needs h0-bearing parameters")
    return _solve(dl, opts, "convective", dl.b_ext, lhs_convective,
                  lambda q1: _convective_report(dl, q1), _reads_q1(dl))


def solve_omega(dl: DimensionlessParams, opts: SolveOptions | None = None) -> RootSet:
    """Enumerate roots of the fixed-temperature front equation; raises as
    _solve does, against the fixed-wall report."""
    if dl.delta1_tilde is None or dl.b0_wall is None:
        raise DomainError("temperature solve needs B0-bearing parameters")
    return _solve(dl, opts, "temperature", dl.b0_wall, lhs_temperature,
                  lambda _: fixed_wall_report(dl))[0]


def monotonicity_sweep(phys: PhysicalParams, h0_values, opts: SolveOptions | None = None,
                       classical: bool = False):
    """Principal root xi as a function of h0; must be strictly increasing.

    All h0 values must exceed the critical threshold. Only K0 depends on
    h0, so every point is solved in one batched pass with one row per h0;
    the returned list is ordered by h0.
    """
    h0_values = sorted(float(h) for h in h0_values)
    crit = critical_h0(phys)
    for h in h0_values:
        if h <= crit:
            raise DomainError(f"h0 = {h:.6g} is not above the critical value {crit:.6g}")
    if not h0_values:
        return []
    opts = opts or SolveOptions()
    dls = [reduce_params(replace(phys, h0=h), classical=classical) for h in h0_values]
    dl = dls[0]
    k0 = np.array([d.k0 for d in dls])
    sets = _scan(lambda y, rows: lhs_convective(y, dl, k0[rows]), dl, opts, dl.b_ext,
                 len(dls))
    for h, roots in zip(h0_values, sets):
        if not roots.roots:
            raise NoRootFound(f"no root in scan window at h0 = {h:.6g}")
    pairs = [(h, roots.roots[0]) for h, roots in zip(h0_values, sets)]
    for (h_a, x_a), (h_b, x_b) in zip(pairs, pairs[1:]):
        if x_b < x_a - opts.tolerance:
            raise MonotonicityViolation(
                f"xi({h_b:.6g}) = {x_b:.12g} < xi({h_a:.6g}) = {x_a:.12g}"
            )
    return pairs

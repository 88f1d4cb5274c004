"""Command-line surface: config ingestion, solve/classify/profile/sweep/
equiv/verify subcommands, CSV/JSON emission.

Exit codes: 0 success, 1 input error, 2 no-solution regime, 3 verification
(or monotonicity) failure. Output is deterministic: floats are printed with
shortest round-trip decimals, so identical config + flags give byte-identical
files.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import equivalence, profiles, solver, verification
from .errors import (
    ConfigError,
    InvalidParameter,
    MonotonicityViolation,
    NoRootFound,
    StefanThawError,
    VerificationFailed,
)
from .model import load_config, reduce_params

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_SOLUTION = 2
EXIT_VERIFY = 3


def _fmt(x) -> str:
    return repr(float(x))


def _write_lines(path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _load(args):
    phys = load_config(args.config)
    classical = args.mode == "classical"
    dl = reduce_params(phys, classical=classical)
    return phys, dl


def _opts(args) -> solver.SolveOptions:
    kwargs = {}
    if args.scan_max is not None:
        kwargs["scan_max"] = args.scan_max
    if args.scan_points is not None:
        kwargs["scan_points"] = args.scan_points
    if args.tol is not None:
        kwargs["tolerance"] = args.tol
    return solver.SolveOptions(**kwargs)


def _print_dimless(dl) -> None:
    print(f"M = {_fmt(dl.m_par)}  N = {_fmt(dl.n_par)}  p = {_fmt(dl.p_par)}")
    print(f"delta1 = {_fmt(dl.delta1)}  delta2 = {_fmt(dl.delta2)}  "
          f"gamma0 = {_fmt(dl.gamma0)}")
    if dl.k0 is not None:
        print(f"K0 = {_fmt(dl.k0)}")
    if dl.delta1_tilde is not None:
        print(f"delta1_tilde = {_fmt(dl.delta1_tilde)}")


def _print_report(rep) -> None:
    print(f"regime: M {rep.m_sign}, N {rep.n_sign}, {rep.p_class}, "
          f"h0 {rep.h0_condition or 'n/a'} critical")
    for key, val in rep.extra_conditions.items():
        print(f"  {key}: {val}")
    print(f"guarantee: {rep.guarantee}"
          + (f" [{rep.citation}]" if rep.citation else ""))
    if rep.root_range is not None:
        print(f"root range: (0, {_fmt(rep.root_range[1])})")
    for note in rep.notes:
        print(f"note: {note}")


def cmd_solve(args) -> int:
    phys, dl = _load(args)
    opts = _opts(args)
    _print_dimless(dl)
    temperature = args.mode == "temperature"
    if (dl.b0_wall if temperature else dl.k0) is None:
        need = "temperature mode needs b0_wall" if temperature else "convective mode needs h0"
        print(f"error: {need} in the config", file=sys.stderr)
        return EXIT_INPUT
    try:
        if temperature:
            roots, report = solver.solve_omega(dl, opts), solver.fixed_wall_report(dl)
        else:
            roots, report = solver.solve_xi(dl, opts)
    except NoRootFound as err:
        report = getattr(err, "report", None)
        if report is not None:
            _print_report(report)
        if report is not None and report.guarantee == "NoneInRange":
            print("no phase change: h0 <= critical")
        else:
            print(f"no root found: {err}")
        return EXIT_NO_SOLUTION
    _print_report(report)
    print(f"principal {'omega' if temperature else 'xi'} = {_fmt(roots.principal)}")
    for r in roots.roots[1:]:
        print(f"secondary root = {_fmt(r)}")
    return EXIT_OK


def cmd_classify(args) -> int:
    phys, dl = _load(args)
    rep = solver.classify(dl, opts=_opts(args))
    _print_dimless(dl)
    print(f"critical h0 = {_fmt(solver.critical_h0(phys))}")
    _print_report(rep)
    return EXIT_OK


def _solve_solution(phys, dl, args, opts, factor: float = 1.0):
    """Solve the problem --mode names; ``factor`` scales the front coefficient
    before the solution is built."""
    if args.mode == "temperature":
        roots = solver.solve_omega(dl, opts)
        return profiles.build_temperature_solution(phys, dl, roots.principal * factor)
    roots, _ = solver.solve_xi(dl, opts)
    return profiles.build_convective_solution(phys, dl, roots.principal * factor)


def cmd_profile(args) -> int:
    phys, dl = _load(args)
    opts = _opts(args)
    try:
        sol = _solve_solution(phys, dl, args, opts)
    except NoRootFound:
        print("no root found; nothing to profile", file=sys.stderr)
        return EXIT_NO_SOLUTION
    t = args.time
    s = profiles.eval_front(sol, t)
    x_max = args.x_max if args.x_max is not None else 2.0 * s
    xs = np.linspace(0.0, x_max, args.points)
    lines = ["t,x,region,value"]
    for x in xs:
        if math.isclose(x, s, rel_tol=1e-12):
            region, val = "front", sol.interface_temp
        elif x < s:
            region, val = "U", profiles.eval_u(sol, x, t)
        else:
            region, val = "F", profiles.eval_v(sol, x, t)
        lines.append(f"{_fmt(t)},{_fmt(x)},{region},{_fmt(val)}")
    _write_lines(args.out, lines)
    return EXIT_OK


def cmd_sweep(args) -> int:
    phys, dl = _load(args)
    opts = _opts(args)
    crit = solver.critical_h0(phys)
    h0_lo = args.h0_min if args.h0_min is not None else 1.01 * crit
    h0_hi = args.h0_max if args.h0_max is not None else 1000.0 * crit
    grid = np.geomspace(h0_lo, h0_hi, args.h0_points)
    try:
        pairs = solver.monotonicity_sweep(
            phys, grid, opts, classical=args.mode == "classical")
    except MonotonicityViolation as err:
        print(f"monotonicity: FAIL ({err})")
        return EXIT_VERIFY
    lines = ["h0,xi"] + [f"{_fmt(h)},{_fmt(x)}" for h, x in pairs]
    _write_lines(args.out, lines)
    print("monotonicity: PASS")
    return EXIT_OK


def cmd_equiv(args) -> int:
    phys, dl = _load(args)
    opts = _opts(args)
    if dl.k0 is None:
        print("error: equiv needs h0 in the config", file=sys.stderr)
        return EXIT_INPUT
    roots, _ = solver.solve_xi(dl, opts)
    sol = profiles.build_convective_solution(phys, dl, roots.principal)
    b0 = equivalence.b0_from_convective(sol)
    tsol = equivalence.temperature_counterpart(sol, opts)
    h0_back = equivalence.h0_from_temperature(tsol, phys.b_ext)

    rng = np.random.default_rng(20240801)
    gap = 0.0
    for _ in range(20):
        t = float(rng.uniform(0.25, 4.0))
        s = profiles.eval_front(sol, t)
        x_u = float(rng.uniform(0.0, s))
        x_f = s + float(rng.uniform(0.0, 3.0)) * dl.alpha_f * math.sqrt(t)
        gap = max(
            gap,
            abs(profiles.eval_u(sol, x_u, t) - profiles.eval_u(tsol, x_u, t)),
            abs(profiles.eval_v(sol, x_f, t) - profiles.eval_v(tsol, x_f, t)),
        )
    lines = [
        "h0,xi,b0,omega,roundtrip_h0,max_profile_gap",
        ",".join(_fmt(v) for v in
                 (phys.h0, sol.xi, b0, tsol.xi, h0_back, gap)),
    ]
    _write_lines(args.out, lines)
    return EXIT_OK


def cmd_verify(args) -> int:
    phys, dl = _load(args)
    opts = _opts(args)
    try:
        sol = _solve_solution(phys, dl, args, opts, args.perturb_front)
    except NoRootFound:
        print("no root found; nothing to verify", file=sys.stderr)
        return EXIT_NO_SOLUTION
    verify = (verification.verify_temperature if args.mode == "temperature"
              else verification.verify_convective)
    try:
        report = verify(sol)
    except VerificationFailed as err:
        if err.report is not None and args.out:
            Path(args.out).write_text(err.report.to_json() + "\n")
        print(f"verification: FAIL ({err})")
        return EXIT_VERIFY
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n")
    else:
        print(report.to_json())
    print("verification: PASS")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stefan-thaw",
        description="Similarity solutions of the two-phase thawing problem "
                    "with density jump",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="flat key=value parameter file")
        p.add_argument("--mode", choices=("convective", "temperature", "classical"),
                       default="convective")
        p.add_argument("--tol", type=float, default=None,
                       help="residual tolerance at returned roots")
        p.add_argument("--scan-max", type=float, default=None)
        p.add_argument("--scan-points", type=int, default=None)
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("solve", help="solve the front equation")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("classify", help="existence/uniqueness regime report")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("profile", help="temperature profile grid as CSV")
    common(p)
    p.add_argument("--time", type=float, default=1.0)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--x-max", type=float, default=None)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("sweep", help="front coefficient vs heat-transfer coefficient")
    common(p)
    p.add_argument("--h0-min", type=float, default=None)
    p.add_argument("--h0-max", type=float, default=None)
    p.add_argument("--h0-points", type=int, default=32)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("equiv", help="convective/temperature round trip as CSV")
    common(p)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("verify", help="finite-difference residual verification")
    common(p)
    p.add_argument("--perturb-front", type=float, default=1.0,
                   help="multiply the front coefficient before verifying")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InvalidParameter, FileNotFoundError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except NoRootFound as err:
        print(f"no solution: {err}", file=sys.stderr)
        return EXIT_NO_SOLUTION
    except VerificationFailed as err:
        print(f"verification failure: {err}", file=sys.stderr)
        return EXIT_VERIFY
    except StefanThawError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

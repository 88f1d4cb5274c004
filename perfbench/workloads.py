"""The four workloads: the operations of one round, how each runs, and how
its output is checked.

An operation runs with ``op.run(op.rec)``: it writes what it produced into
``rec`` as it goes, so an operation that raises still leaves its partial
output for the checks. Checks import ``checks`` (and so mpmath) lazily and
run after the timed phase.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import media
from stefan_thaw import cli
from stefan_thaw.equivalence import h0_from_temperature, omega_infinity, temperature_counterpart
from stefan_thaw.errors import NoRootFound, ToleranceNotReached, VerificationFailed
from stefan_thaw.model import PhysicalParams, reduce_params
from stefan_thaw.profiles import build_convective_solution
from stefan_thaw.solver import critical_h0, monotonicity_sweep, solve_xi
from stefan_thaw.verification import verify_convective, verify_temperature

HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    kind: str
    inp: object
    run: Callable[[dict], None]
    rec: dict = field(default_factory=dict)
    error: BaseException | None = None
    seconds: float = 0.0


# ---------------------------------------------------------------- population

BLOCKS_PER_ROUND = 4
ORACLE_EVERY = 32        # dense-scan oracle on every 32nd block


def solve_set(params: dict, rec: dict) -> None:
    """reduce_params -> solve_xi -> build_convective_solution for every root."""
    phys = PhysicalParams(**params)
    dl = reduce_params(phys)
    try:
        roots, report = solve_xi(dl)
    except NoRootFound as err:
        rec.update(roots=[], guarantee=err.report.guarantee,
                   root_range=err.report.root_range, scan_max=err.root_set.scan_max)
        return
    rec.update(roots=list(roots.roots), guarantee=report.guarantee,
               root_range=report.root_range, scan_max=roots.scan_max)
    rec["wall"] = [build_convective_solution(phys, dl, r).wall_temp for r in roots.roots]


def run_block(block, rec: dict) -> None:
    rec["sets"] = []
    for _, params in block:
        out = {}
        rec["sets"].append(out)
        solve_set(params, out)


class Population:
    name = "population"
    trace_rounds = 8

    def round(self, seed: int, r: int) -> list[Op]:
        ops = []
        for k in range(BLOCKS_PER_ROUND):
            index = r * BLOCKS_PER_ROUND + k
            block = media.population_block(seed, index)
            ops.append(Op("block", (index, block), lambda rec, b=block: run_block(b, rec)))
        ops.append(Op("f1", media.F1_MEDIUM, lambda rec: solve_set(media.F1_MEDIUM, rec)))
        return ops

    def warmup(self) -> None:
        for params in (media.BASE, media.CLI_MEDIA["two_roots"]):
            solve_set(params, {})

    def check(self, op: Op) -> list[str]:
        if op.kind == "f1":
            if op.error is not None:
                return check_f1_failure(op.error)
            return check_set("f1", media.F1_MEDIUM, op.rec, oracle=True)
        index, block = op.inp
        problems = []
        for (cls, params), out in zip(block, op.rec["sets"]):
            problems += [f"block {index} {cls}: {p}" for p in
                         check_set(cls, params, out, oracle=index % ORACLE_EVERY == 0)]
        return problems


# (least, most) roots inside the report's root range for each guarantee
GUARANTEED_ROOTS = {"UniqueInRange": (1, 1), "AtLeastOne": (1, math.inf),
                    "ExistsAtQ1": (1, math.inf), "AtLeastTwo": (2, math.inf),
                    "NoneInRange": (0, 0)}


def check_set(cls: str, params: dict, out: dict, oracle: bool) -> list[str]:
    import checks
    problems = []
    front = checks.MpFront(params)
    g = front.g
    roots = out["roots"]
    for r in roots:
        if not front.brackets(r):
            problems.append(f"root {r!r} is not a root of the front equation")
    for r, c1 in zip(roots, out.get("wall", [])):
        kern = checks._mp_kernel(g["p"], r)
        want = (g["wall"] * kern + g["a"] * g["m"] * r * r * g["k0"]) / (kern + g["k0"])
        if abs(c1 - want) > 1e-9 * abs(want):
            problems.append(f"wall value {c1!r} at root {r!r}, expected {float(want)!r}")
    need = GUARANTEED_ROOTS.get(out["guarantee"])
    if need is not None:
        hi = out["root_range"][1]
        inside = sum(r < hi for r in roots)
        if not need[0] <= inside <= need[1]:
            problems.append(f"guarantee {out['guarantee']} but {inside} roots below {hi!r}")
    if cls == "sub":
        bound = math.sqrt(params["b_ext"] / (params["a_init"] * float(g["m"])))
        if not (g["m"] > 0 and g["n"] > 0 and g["p"] <= 1
                and params["h0"] < media.critical_h0(params)):
            problems.append("subcritical draw outside M > 0, N > 0, p <= 1, h0 < critical")
        if [r for r in roots if r < bound]:
            problems.append(f"subcritical h0 but roots {roots} below {bound!r}")
    if oracle:
        want = checks.oracle_roots(checks.np_front(params), out["scan_max"] * 1e-12, out["scan_max"])
        if not checks.roots_match(roots, want):
            problems.append(f"roots {roots} differ from the dense-scan oracle {want}")
    return problems


def check_f1_failure(err: BaseException) -> list[str]:
    """The kept F1 fault: the rejected root must be a true root."""
    import checks
    match = re.search(r"at root ~(\S+)", str(err))
    if not isinstance(err, ToleranceNotReached) or match is None:
        return [f"F1 medium failed in an unexpected way: {type(err).__name__}: {err}"]
    if not checks.MpFront(media.F1_MEDIUM).brackets(float(match.group(1)), rel=1e-5):
        return [f"F1 rejected root ~{match.group(1)} is not a root of the front equation"]
    return []


# ------------------------------------------------------------------ h0_sweep

SWEEP_POINTS = 32
SWEEP_LO, SWEEP_HI = 1.05, 1e6


def run_sweep(params: dict, rec: dict) -> None:
    """What scripts/h0_sweep.py does for one medium."""
    phys = PhysicalParams(**params)
    crit = critical_h0(phys)
    rec["crit"] = crit
    rec["omega_inf"] = omega_infinity(reduce_params(phys))
    h0s = np.geomspace(crit * SWEEP_LO, crit * SWEEP_HI, SWEEP_POINTS)
    pairs = monotonicity_sweep(phys, h0s)
    rec["h0s"] = [h for h, _ in pairs]
    rec["xis"] = [x for _, x in pairs]


class H0Sweep:
    name = "h0_sweep"
    trace_rounds = 8

    def round(self, seed: int, r: int) -> list[Op]:
        params = media.sweep_medium(seed, r)
        return [Op("sweep", params, lambda rec: run_sweep(params, rec))]

    def warmup(self) -> None:
        phys = PhysicalParams(**media.BASE)
        omega_infinity(reduce_params(phys))
        crit = critical_h0(phys)
        monotonicity_sweep(phys, np.geomspace(crit * 1.1, crit * 1e3, 4))

    def check(self, op: Op) -> list[str]:
        import checks
        params, rec = op.inp, op.rec
        problems = checks.sweep_problems(rec["xis"], rec["omega_inf"])
        crit = media.critical_h0(params)
        if abs(rec["crit"] - crit) > 1e-12 * crit:
            problems.append(f"critical h0 {rec['crit']!r}, expected {crit!r}")
        if not checks.MpFront(params, b0=params["b_ext"]).brackets(rec["omega_inf"]):
            problems.append(f"omega_inf {rec['omega_inf']!r} is not a root")
        for h, x in zip(rec["h0s"], rec["xis"]):
            if not checks.MpFront(dict(params, h0=h)).brackets(x):
                problems.append(f"xi {x!r} at h0 {h!r} is not a root")
        return problems


# -------------------------------------------------------------------- verify

FRESH_PER_ROUND = 4
PERTURB_EVERY = 8       # the 1.01-scaled front is checked on every 8th medium


def run_verify(params: dict, rec: dict) -> None:
    """The `verify` plus `equiv` path for one medium."""
    phys = PhysicalParams(**params)
    dl = reduce_params(phys)
    roots, _ = solve_xi(dl)
    rec["xi"] = roots.principal
    sol = build_convective_solution(phys, dl, rec["xi"])
    rec["conv_ok"] = verify_convective(sol).ok
    tsol = temperature_counterpart(sol)
    rec["omega"] = tsol.omega
    rec["temp_ok"] = verify_temperature(tsol).ok
    rec["h0_back"] = h0_from_temperature(tsol, phys.b_ext)


class Verify:
    name = "verify"
    trace_rounds = 4

    def round(self, seed: int, r: int) -> list[Op]:
        ops = []
        for k in range(FRESH_PER_ROUND):
            index = r * FRESH_PER_ROUND + k
            params = media.verify_medium(seed, index)
            ops.append(Op("medium", (index, params), lambda rec, p=params: run_verify(p, rec)))
        ops.append(Op("f2", (None, media.F2_MEDIUM),
                      lambda rec: run_verify(media.F2_MEDIUM, rec)))
        return ops

    def warmup(self) -> None:
        run_verify(media.BASE, {})

    def check(self, op: Op) -> list[str]:
        import checks
        index, params = op.inp
        rec = op.rec
        problems = []
        if "xi" in rec and not checks.MpFront(params).brackets(rec["xi"]):
            problems.append(f"xi {rec['xi']!r} is not a root")
        if op.error is not None:
            if not (op.kind == "f2" and isinstance(op.error, VerificationFailed)
                    and op.error.component == "pde_u_order"):
                problems.append(f"unexpected failure: {type(op.error).__name__}: {op.error}")
            return problems
        if not (rec["conv_ok"] and rec["temp_ok"]):
            problems.append("verification report not ok")
        if abs(rec["omega"] - rec["xi"]) > 1e-10:
            problems.append(f"|omega - xi| = {abs(rec['omega'] - rec['xi']):.3e} > 1e-10")
        if abs(rec["h0_back"] - params["h0"]) > 1e-8 * params["h0"]:
            problems.append(f"h0 round trip {rec['h0_back']!r} vs {params['h0']!r}")
        if index is not None and index % PERTURB_EVERY == 0:
            phys = PhysicalParams(**params)
            dl = reduce_params(phys)
            try:
                verify_convective(build_convective_solution(phys, dl, rec["xi"] * 1.01))
                problems.append("front scaled by 1.01 passed verification")
            except VerificationFailed:
                pass
        return problems


# ----------------------------------------------------------------------- cli

XI_LINE = re.compile(r"^(?:principal xi|secondary root) = (\S+)$", re.M)


class Cli:
    """One op is one fresh ``python -m stefan_thaw.cli`` process."""

    name = "cli"
    trace_rounds = 1

    def __init__(self, src: Path, run_dir: Path, traced: bool = False):
        self.run_dir, self.traced = run_dir, traced
        self.env = dict(os.environ, PYTHONPATH=str(src))

    def round(self, seed: int, r: int) -> list[Op]:
        ops = []
        for k, (cmd, medium, flags, code) in enumerate(media.CLI_CYCLE):
            index = r * len(media.CLI_CYCLE) + k
            params = media.cli_medium(seed, index, medium)
            base = self.run_dir / f"cli-{seed}-{index}"
            Path(f"{base}.cfg").write_text(media.config_text(params))
            if self.traced:
                argv = [sys.executable, str(HERE / "cli_child.py"), f"{base}.json"]
            else:
                argv = [sys.executable, "-m", "stefan_thaw.cli"]
            argv += [cmd, f"{base}.cfg", *flags]
            ops.append(Op(cmd, (medium, params, code, base),
                          lambda rec, a=argv, b=base: self.spawn(a, b, rec)))
        return ops

    def spawn(self, argv, base, rec: dict) -> None:
        out = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        pid = os.posix_spawn(argv[0], argv, self.env, file_actions=[
            (os.POSIX_SPAWN_OPEN, 1, f"{base}.out", out, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, f"{base}.err", out, 0o644),
        ])
        _, status, usage = os.wait4(pid, 0)
        rec["exit"] = os.waitstatus_to_exitcode(status)
        rec["maxrss_kb"] = usage.ru_maxrss

    def warmup(self) -> None:
        cfg = self.run_dir / "warmup.cfg"
        cfg.write_text(media.config_text(media.CLI_MEDIA["convective"]))
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["solve", str(cfg)])

    def check(self, op: Op) -> list[str]:
        import checks
        medium, params, code, base = op.inp
        text = Path(f"{base}.out").read_text()
        rec = op.rec
        if rec["exit"] != code:
            err = Path(f"{base}.err").read_text()[-300:]
            return [f"{op.kind} {medium}: exit {rec['exit']}, expected {code}: {err}"]
        problems = []
        front = checks.MpFront(params, classical=medium == "classical")
        if op.kind == "solve" and medium == "subcritical":
            if "no phase change" not in text:
                problems.append("no phase change not reported")
        elif op.kind == "solve":
            xis = [float(x) for x in XI_LINE.findall(text)]
            if len(xis) < (2 if medium == "two_roots" else 1):
                problems.append(f"roots {xis}")
            problems += [f"{x!r} is not a root" for x in xis if not front.brackets(x)]
        elif op.kind == "classify":
            crit = float(re.search(r"critical h0 = (\S+)", text).group(1))
            if abs(crit - media.critical_h0(params)) > 1e-12 * crit:
                problems.append(f"critical h0 {crit!r}")
            if "guarantee: UniqueInRange" not in text:
                problems.append("guarantee is not UniqueInRange")
        elif op.kind == "verify":
            report = json.loads(text[:text.rindex("}") + 1])
            if not (report["ok"] and text.rstrip().endswith("verification: PASS")):
                problems.append("report not ok")
        elif op.kind == "equiv":
            h0, xi, _, omega, h0_back, _ = map(float, text.splitlines()[1].split(","))
            if not front.brackets(xi):
                problems.append(f"xi {xi!r} is not a root")
            if abs(omega - xi) > 1e-10 or abs(h0_back - h0) > 1e-8 * h0 or h0 != params["h0"]:
                problems.append(f"round trip {text.splitlines()[1]}")
        elif op.kind == "sweep":
            pairs = [tuple(map(float, line.split(","))) for line in text.splitlines()
                     if line and line[0].isdigit()]
            xis = [x for _, x in pairs]
            if len(pairs) != 32 or not all(b > a for a, b in zip(xis, xis[1:])):
                problems.append(f"{len(pairs)} points, not strictly increasing")
            problems += [f"xi {x!r} at h0 {h!r} is not a root" for h, x in pairs
                         if not checks.MpFront(dict(params, h0=h)).brackets(x)]
            if "monotonicity: PASS" not in text:
                problems.append("monotonicity not PASS")
        return [f"{op.kind} {medium}: {p}" for p in problems]


def make(name: str, src: Path, run_dir: Path, traced: bool = False):
    if name == "cli":
        return Cli(src, run_dir, traced)
    return {"population": Population, "h0_sweep": H0Sweep, "verify": Verify}[name]()

#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of stefan_thaw.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload population --seed 1 --seconds 20 --trace 0

Workloads: population, h0_sweep, verify, cli (see perfbench/README.md).
With ``--trace 0`` the workload runs in a closed loop, one operation at a
time, until ``--seconds`` have passed (whole rounds only), and the end-to-end
metrics are printed. With ``--trace 1`` a fixed number of rounds runs
untraced and as many fresh rounds run under the layer tracer, and the
per-layer metrics are printed. Either way every output is checked after the
timed phase, and the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
SETUP_PROBES = 4          # fresh interpreters timed for setup_s
TRACE_SETUP_PROBES = 3    # fresh interpreters timed for cli.import_ms
KEPT_FAULTS = ("f1", "f2")   # op kinds of the kept faults F1 and F2


def measure_setup(workload: str, probes: int) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(RUN_DIR)],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


def run_rounds(workload, seed: int, first: int, more) -> tuple[list, float]:
    """Run whole rounds, one op at a time, while ``more(rounds_done,
    elapsed_s)`` holds. Returns the ops and the wall time."""
    ops = []
    start = time.perf_counter()
    r = first
    while more(r - first, time.perf_counter() - start):
        for op in workload.round(seed, r):
            t0 = time.perf_counter()
            try:
                op.run(op.rec)
            except Exception as err:  # a failed op is counted, not fatal
                op.error = err
            op.seconds = time.perf_counter() - t0
            ops.append(op)
        r += 1
    return ops, time.perf_counter() - start


def latency_stats(ops) -> dict:
    lat = sorted(1e3 * op.seconds for op in ops if op.error is None)
    n = len(lat)
    if n > 10:
        tail, pct = lat[n - 11], 100.0 * (n - 10) / n
    else:
        tail, pct = lat[-1], 100.0
    return {"p50": statistics.median(lat), "tail": tail, "tail_pct": pct, "n": n}


def check_outputs(workload, ops) -> tuple[list[str], list[str]]:
    """(problems, unexpected failures). Completed ops and kept-fault ops get
    their outputs checked; any other failed op is reported, not checked."""
    problems, unexpected = [], []
    for op in ops:
        if op.error is not None and op.kind not in KEPT_FAULTS:
            unexpected.append(f"{op.kind}: " + "".join(
                traceback.format_exception_only(type(op.error), op.error)).strip())
            continue
        problems += workload.check(op)
    return problems, unexpected


def summary_line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:<32} {value:>14.6g} {unit}" + (f"  ({note})" if note else "")


def untraced(args, workload) -> tuple[dict, list, dict]:
    setup = measure_setup(args.workload, SETUP_PROBES)
    workload.warmup()
    ops, wall = run_rounds(workload, args.seed, 0, lambda k, elapsed: elapsed < args.seconds)
    if args.workload == "cli":
        peak_kb = max(op.rec["maxrss_kb"] for op in ops)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    done = sum(op.error is None for op in ops)
    lat = latency_stats(ops)
    setup_s = statistics.median(s["import_s"] + s["warmup_s"] for s in setup)
    metrics = {
        "ops_per_s": (done / wall, "1/s", f"{done} ops in {wall:.3f} s"),
        "op_ms_p50": (lat["p50"], "ms", f"median of {lat['n']} ops"),
        "op_ms_tail": (lat["tail"], "ms", f"p{lat['tail_pct']:.2f} of {lat['n']} ops"),
        "setup_s": (setup_s, "s", f"median of {len(setup)} fresh interpreters"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB", "max resident set of the process running the program"),
    }
    detail = {"wall_s": wall, "latency": lat, "setup_samples": setup}
    return metrics, ops, detail


def traced(args, workload) -> tuple[dict, list, dict]:
    import layertrace
    import workloads

    rounds = workload.trace_rounds
    setup = [] if args.workload == "cli" else measure_setup(args.workload, TRACE_SETUP_PROBES)
    workload.warmup()
    ops_u, wall_u = run_rounds(workload, args.seed, 0, lambda k, _: k < rounds)
    if args.workload == "cli":
        workload = workloads.make("cli", SRC, RUN_DIR, traced=True)
        ops_t, wall_t = run_rounds(workload, args.seed, rounds, lambda k, _: k < rounds)
        totals, import_s, main_s = {}, [], []
        for op in ops_t:
            child = json.loads(Path(f"{op.inp[3]}.json").read_text())
            layertrace.merge(totals, child["trace"])
            import_s.append(child["import_s"])
            main_s.append(child["main_s"])
        cli_ms = (1e3 * statistics.fmean(import_s), 1e3 * statistics.fmean(main_s))
    else:
        tracer = layertrace.LayerTracer()
        tracer.start()
        ops_t, wall_t = run_rounds(workload, args.seed, rounds, lambda k, _: k < rounds)
        tracer.stop()
        totals = tracer.to_dict()
        cli_ms = (1e3 * statistics.median(s["import_s"] for s in setup), 0.0)
    values = layertrace.layer_metrics(totals, len(ops_t))
    values["cli.import_ms"], values["cli.main_ms"] = cli_ms
    values["trace.ops_per_s_untraced"] = sum(op.error is None for op in ops_u) / wall_u
    values["trace.ops_per_s_traced"] = sum(op.error is None for op in ops_t) / wall_t
    metrics = {name: (values[name], unit, "") for name, unit, _ in layertrace.LAYER_METRICS}
    detail = {"rounds": rounds, "traced_ops": len(ops_t), "totals": totals}
    return metrics, ops_u + ops_t, detail


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("population", "h0_sweep", "verify", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "stefan_thaw" / "__init__.py").is_file():
        print(f"error: no stefan_thaw package under {SRC}; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    RUN_DIR.mkdir(exist_ok=True)
    sys.path.insert(1, str(SRC))

    import stefan_thaw
    import workloads
    if Path(stefan_thaw.__file__).resolve().parent != SRC / "stefan_thaw":
        print(f"error: stefan_thaw imported from {stefan_thaw.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workload = workloads.make(args.workload, SRC, RUN_DIR)
    try:
        metrics, ops, detail = (traced if args.trace else untraced)(args, workload)
        problems, unexpected = check_outputs(workload, ops)
    finally:
        for leftover in RUN_DIR.glob(f"cli-{args.seed}-*"):
            leftover.unlink()
    attempted = len(ops)
    failed = sum(op.error is not None for op in ops)
    kept = sum(op.error is not None and op.kind in KEPT_FAULTS for op in ops)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} ops attempted, {failed} failed ({kept} kept-fault ops)")
    for name, (value, unit, note) in metrics.items():
        print(summary_line(name, value, unit, note))
    for line in unexpected:
        print(f"unexpected failure: {line}", file=sys.stderr)
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(f"checks: {attempted - failed + kept} outputs checked, {len(problems)} problems")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, problems=problems, unexpected=unexpected,
                  detail=detail)
    kind = "trace" if args.trace else "result"
    (RUN_DIR / f"{kind}-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

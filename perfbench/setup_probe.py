"""Set-up time of one workload in a fresh interpreter: the import of
stefan_thaw (with every module the workloads use) and the workload's first
call on a fixed warm-up input. Prints one JSON line.

Usage: python3 perfbench/setup_probe.py WORKLOAD RUN_DIR
(with the checkout's src directory on PYTHONPATH)
"""

import json
import sys
import time

t0 = time.perf_counter()
import stefan_thaw  # noqa: E402,F401
import stefan_thaw.cli  # noqa: E402,F401
t1 = time.perf_counter()

from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    name, run_dir = sys.argv[1], Path(sys.argv[2])
    workload = workloads.make(name, Path(stefan_thaw.__file__).parents[1], run_dir)
    t2 = time.perf_counter()
    workload.warmup()
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "warmup_s": t3 - t2}))


if __name__ == "__main__":
    main()

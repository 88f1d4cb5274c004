"""Run one stefan-thaw command in this process, timing ``import
stefan_thaw.cli`` and ``cli.main(argv)`` apart, with the layer tracer on
during ``main``. Writes the timings and the trace to TIMING_JSON and exits
with the command's exit code.

Usage: python3 perfbench/cli_child.py TIMING_JSON SUBCOMMAND CONFIG [FLAGS...]
"""

import json
import sys
import time

t0 = time.perf_counter()
import stefan_thaw.cli as cli  # noqa: E402
t1 = time.perf_counter()

from layertrace import LayerTracer  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = LayerTracer()
    tracer.start()
    t2 = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        t3 = time.perf_counter()
        tracer.stop()
    with open(out, "w") as fh:
        json.dump({"import_s": t1 - t0, "main_s": t3 - t2, "trace": tracer.to_dict()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""One invocation of a benchmark workload in a fresh interpreter.

    python3 -I bench/invoke.py WORKLOAD SEED INDEX OUTFILE [SPANFILE]

Imports pathecc from the checkout's ``src``, builds the inputs, runs the
workload and writes its outputs to OUTFILE.  With SPANFILE the calls into
pathecc are traced and the spans written there.  The last stdout line is a
JSON record with CLOCK_MONOTONIC stamps taken when set-up ended and when
the outputs were written; the caller compares them with its own stamp from
before the process started.
"""

from __future__ import annotations

import contextlib
import functools
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
now = functools.partial(time.clock_gettime, time.CLOCK_MONOTONIC)


def main(argv: list[str]) -> int:
    workload, seed, index, out_path = argv[1], int(argv[2]), int(argv[3]), Path(argv[4])
    span_path = Path(argv[5]) if len(argv) > 5 else None
    sys.path[:0] = [str(SRC), str(BENCH)]
    import pathecc

    if Path(pathecc.__file__).resolve().parent != SRC / "pathecc":
        print(f"invoke: imported pathecc from {pathecc.__file__}, not {SRC}", file=sys.stderr)
        return 3
    import workloads

    if workload in workloads.CLI_WORKLOADS:
        import pathecc.cli as cli

        argv_cli = workloads.cli_argv(workload)
    else:
        inputs = workloads.library_inputs(workload, seed, index)

    tracer = None
    if span_path is not None:
        import spans

        tracer = spans.Tracer(f"{workload}:{seed}:{index}")
        tracer.install()

    latencies: list[float] = []
    rc = 0
    t_setup = now()
    with open(out_path, "w", encoding="utf-8") as fh:
        if workload in workloads.CLI_WORKLOADS:
            with contextlib.redirect_stdout(fh):
                rc = cli.cli_main(argv_cli)
        else:
            json.dump(workloads.run_library(*inputs, now, latencies), fh)
    t_done = now()

    record = {
        "t_setup": t_setup,
        "t_done": t_done,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rc": rc,
        "latencies": latencies,
    }
    if tracer is not None:
        tracer.uninstall()
        record["wrappers_left"] = spans.leftover_wrappers()
        tracer.write(span_path)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

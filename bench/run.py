"""pathecc benchmark: one workload, measured end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each invocation of the workload is a fresh interpreter (``bench/invoke.py``),
because pathecc keeps unbounded ``lru_cache``s that a second call in one
process would find warm, which no CLI user does.  Invocations run back to
back, one at a time (a closed loop with one client), until the next one
would end past ``--seconds``.  Every output is checked (``bench/checks.py``)
outside the measured region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced invocation on the same inputs and reports the
per-layer metrics of the traced one, the tracing overhead, and on the suite
an untraced two-worker time.  The last
stdout line is the JSON result; the lines before it name every metric with
its unit and sample count.  The benchmark exits 2 without a result when the
checkout has no ``src/pathecc``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
now = functools.partial(time.clock_gettime, time.CLOCK_MONOTONIC)

# graphs each CLI invocation completes: hunt searches the 853 graphs with
# n = 7, the suite checks all 996 with n <= 7
CLI_GRAPHS = {"hunt-exhaustive7": 853, "suite-corpus7": 996}
# fixed so that every run has at least ten samples beyond it; on the CLI
# workloads an instance is a whole invocation and the tail is the maximum
TAIL_PERCENTILE = {"hunt-exhaustive7": 100, "suite-corpus7": 100, "pe-hard12": 80, "kat-scale30": 90}
MIN_INVOCATIONS = {"hunt-exhaustive7": 3, "suite-corpus7": 6, "pe-hard12": 3, "kat-scale30": 3}
INVOCATION_TIMEOUT_S = 40


@dataclass
class Invocation:
    index: int
    wall_s: float = 0.0
    setup_s: float = 0.0
    record: dict = field(default_factory=dict)
    output: str = ""
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error


def invoke(workload: str, seed: int, index: int, threads: int | None,
           span_path: Path | None = None) -> Invocation:
    """Run one invocation; threads=None leaves CPK_THREADS unset."""
    inv = Invocation(index)
    out_path = WORK / f"{workload}.{'traced' if span_path else 'plain'}.out"
    env = dict(os.environ)
    env.pop("CPK_THREADS", None)
    if threads is not None:
        env["CPK_THREADS"] = str(threads)
    cmd = [sys.executable, "-I", str(BENCH / "invoke.py"), workload, str(seed),
           str(index), str(out_path)]
    if span_path is not None:
        cmd.append(str(span_path))
    start = now()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=INVOCATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        inv.error = f"timed out after {INVOCATION_TIMEOUT_S} s"
        return inv
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        inv.error = f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
        return inv
    inv.record = json.loads(lines[-1])
    inv.wall_s = inv.record["t_done"] - start
    inv.setup_s = inv.record["t_setup"] - start
    inv.output = out_path.read_text(encoding="utf-8")
    return inv


def closed_loop(seconds: float, min_count: int, step) -> list:
    """Call step(i) for i = 0, 1, ... until the next call would overrun."""
    deadline = now() + seconds
    done: list = []
    last = 0.0
    while len(done) < min_count or now() + last <= deadline:
        t = now()
        done.append(step(len(done)))
        last = now() - t
    return done


def verify(workload: str, seed: int, inv: Invocation) -> tuple[int, list[str]]:
    """Operations attempted, and one line for each that failed its check."""
    import checks  # imports pathecc, which main() puts on sys.path

    if workload in CLI_GRAPHS:
        if not inv.ok:
            return 1, [inv.error]
        if workload == "hunt-exhaustive7":
            found = checks.check_hunt(inv.output, inv.record["rc"])
        else:
            found = checks.check_suite(inv.output, inv.record["rc"], workloads.SUITE_PROPS)
        return 1, ["; ".join(found)] if found else []
    pe, kat, matrices = workloads.library_inputs(workload, seed, inv.index)
    attempted = len(pe) + len(kat) + len(matrices)
    if not inv.ok:
        return attempted, [inv.error] * attempted
    try:
        outs = json.loads(inv.output)
        pe_outs, kat_outs = outs["pe"], outs["kat"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return attempted, [f"outputs are not the expected JSON: {exc}"] * attempted
    if len(pe_outs) != len(pe) or len(kat_outs) != len(kat) + len(matrices):
        return attempted, ["outputs do not match the inputs one to one"] * attempted
    found = [checks.check_pe(g, out) for g, out in zip(pe, pe_outs)]
    found += [checks.check_kat_graph(g, out) for g, out in zip(kat, kat_outs)]
    found += [
        checks.check_matrix(m, out, c1p)
        for m, out, c1p in zip(matrices, kat_outs[len(kat):], (True, False))
    ]
    return attempted, ["; ".join(f) for f in found if f]


def percentile(values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(values)
    idx = max(0, math.ceil(p / 100 * len(ordered)) - 1)
    return ordered[idx], len(ordered) - idx - 1


def _metric(metrics: dict, lines: list, name: str, value: float, unit: str, note: str) -> None:
    metrics[name] = {"value": value, "unit": unit}
    lines.append(f"{name:<50} {value:>14.6f} {unit:<6} {note}")


def measure(workload: str, seed: int, seconds: float):
    import checks

    invs = closed_loop(
        seconds, MIN_INVOCATIONS[workload], lambda i: invoke(workload, seed, i, 1)
    )
    attempted, problems = 0, []
    if workload == "suite-corpus7":
        attempted += 1
        found = checks.check_corpus(workloads.CORPUS.read_bytes())
        problems += ["; ".join(found)] if found else []
    for inv in invs:
        a, p = verify(workload, seed, inv)
        attempted += a
        problems += p

    ones = [inv for inv in invs if inv.ok]
    if not ones:
        raise RuntimeError(f"no invocation completed: {problems[:3]}")
    n = len(ones)
    metrics: dict = {}
    lines: list[str] = []
    _metric(metrics, lines, "wall_s", statistics.median(i.wall_s for i in ones), "s",
            f"median of {n} invocations, process start to outputs written")
    _metric(metrics, lines, "setup_s", statistics.median(i.setup_s for i in ones), "s",
            f"median of {n} invocations, process start to first measured call")
    if workload in CLI_GRAPHS:
        rates = [CLI_GRAPHS[workload] / (i.wall_s - i.setup_s) for i in ones]
        samples = [1000 * (i.record["t_done"] - i.record["t_setup"]) for i in ones]
        kind = "invocations"
    else:
        rates = [len(i.record["latencies"]) / (i.wall_s - i.setup_s) for i in ones]
        samples = [1000 * t for i in ones for t in i.record["latencies"]]
        kind = "instances"
    _metric(metrics, lines, "graphs_per_s", statistics.median(rates), "1/s",
            f"median of {n} invocations")
    _metric(metrics, lines, "instance_p50_ms", statistics.median(samples), "ms",
            f"p50 of {len(samples)} {kind}")
    p = TAIL_PERCENTILE[workload]
    tail, beyond = percentile(samples, p)
    _metric(metrics, lines, "instance_tail_ms", tail, "ms",
            f"p{p} of {len(samples)} {kind}, {beyond} beyond it")
    _metric(metrics, lines, "peak_rss_mb",
            statistics.median(i.record["maxrss_kb"] / 1024 for i in ones), "MB",
            f"median of {n} invocations")
    lines.append("invocation walls: " + " ".join(f"{i.wall_s:.3f}" for i in invs if i.ok))
    lines.append(f"{'fail_ratio':<50} {len(problems) / attempted:>14.6f} {'ratio':<6} "
                 f"{len(problems)} failed of {attempted} operations")
    return attempted, problems, metrics, lines


def _comparable(workload: str, output: str):
    if workload == "suite-corpus7":
        import checks

        try:
            return checks.comparable_suite(json.loads(output))
        except json.JSONDecodeError:
            return output
    return output


def trace(workload: str, seed: int, seconds: float):
    import spans

    span_path = WORK / f"{workload}.spans"

    def step(i: int):
        plain = invoke(workload, seed, i, None)
        # only the suite reads CPK_THREADS; its parallel run is timed here,
        # untraced, so that the measured runs spend all their time on wall_s
        two = invoke(workload, seed, i, 2) if workload == "suite-corpus7" else None
        traced = invoke(workload, seed, i, None, span_path)
        layer = None
        if traced.ok:
            measured = traced.record["t_done"] - traced.record["t_setup"]
            layer = spans.layer_metrics(spans.read(span_path), measured)
        return plain, two, traced, layer

    runs = closed_loop(seconds, 1, step)
    attempted, problems = 0, []
    for plain, two, traced, _ in runs:
        for inv in (plain, two) if two else (plain,):
            a, p = verify(workload, seed, inv)
            attempted += a
            problems += p
        attempted += 1
        if not traced.ok:
            problems.append(f"traced invocation failed: {traced.error}")
        elif _comparable(workload, traced.output) != _comparable(workload, plain.output):
            problems.append("traced outputs differ from untraced outputs")
        elif traced.record["wrappers_left"]:
            problems.append(f"{traced.record['wrappers_left']} traced wrappers left installed")

    done = [(plain, traced, layer) for plain, _, traced, layer in runs if layer and plain.ok]
    if not done:
        raise RuntimeError(f"no traced invocation completed: {problems[:3]}")
    n = len(done)
    metrics: dict = {}
    lines: list[str] = []
    for name in done[0][2]:
        value = statistics.median(layer[name] for _, _, layer in done)
        unit = ("s" if name.endswith("_s") else
                "ratio" if name.endswith(("_ratio", "_share", "_per_search")) else "count")
        _metric(metrics, lines, name, value, unit, f"median of {n} traced invocations")
    skipped = 0
    if workload == "suite-corpus7":
        skipped = sum(r["skipped"] for r in json.loads(done[0][0].output)["results"])
    _metric(metrics, lines, "suite.skipped", skipped, "count", "from the suite report")
    twos = [two.wall_s for _, two, _, _ in runs if two and two.ok]
    _metric(metrics, lines, "suite.wall_2w_s", statistics.median(twos) if twos else 0.0, "s",
            f"median of {len(twos)} untraced invocations with CPK_THREADS=2; "
            f"1 worker: {statistics.median(p.wall_s for p, _, _ in done):.6f} s")
    overhead = statistics.median(t.wall_s - p.wall_s for p, t, _ in done)
    _metric(metrics, lines, "trace.overhead_s", overhead, "s",
            f"median of {n} pairs: traced wall_s minus untraced wall_s")
    return attempted, problems, metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pathecc" / "__init__.py").is_file():
        print(f"bench: no pathecc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    WORK.mkdir(exist_ok=True)

    started = now()
    run = trace if args.trace else measure
    attempted, problems, metrics, lines = run(args.workload, args.seed, args.seconds)
    for line in lines:
        print(line)
    print(f"run took {now() - started:.1f} s, checks included")
    for problem in problems[:20]:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of mgumt: one workload per process, one caller in a closed loop.

    python3 perfbench/run.py --workload session|produce|understand \\
        --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from `src/`.  The
run sets up SETUPS times (imports, input generation, warm-up) and reports
the median as `setup_s`.  It then runs whole rounds of the workload until
`--seconds` have passed, times every operation, checks every output, and
prints a summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
run wraps the layers (see spans.py) and the metrics are per-layer counts and
times per operation.  Results and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUPS = 5
# Never start another round after this long, whatever --seconds says.
HARD_STOP_S = 150.0
_OWN_MODULES = ("checks", "workloads", "spans")


def set_up(workload: str, seed: int):
    """Import the program and the benchmark afresh, draw round 0 and warm
    up; returns the workload object and its first round."""
    for name in list(sys.modules):
        if name == "mgumt" or name.startswith("mgumt.") or name in _OWN_MODULES:
            del sys.modules[name]
    workloads = importlib.import_module("workloads")
    wl = workloads.WORKLOADS[workload](seed)
    first = wl.round(0)
    wl.warm_up()
    return wl, first


def tail(latencies: list[float]):
    """Highest whole percentile with at least ten operations beyond it, by
    nearest rank; None below forty operations."""
    n = len(latencies)
    if n < 40:
        return None
    pct = math.floor(100 * (1 - 10 / n))
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100 * n))
    return pct, ordered[rank - 1], n - rank


def _untraced(_name, fn, *args):
    return fn(*args)


def measure(wl, first, seconds: float, tracer):
    step = _untraced if tracer is None else tracer.run
    latencies, busy = [], 0.0
    attempted = failed = unexpected = 0
    seen, repeats = set(), 0
    faults: dict[str, int] = {}
    start = time.perf_counter()
    index, groups = 0, first
    round_ops = []
    while True:
        ops_before, busy_before = attempted, busy
        for group in groups:
            t0 = time.perf_counter()
            context = step("bench.prepare", group.prepare)
            busy += time.perf_counter() - t0
            for op in group.ops:
                result = exc = None
                t0 = time.perf_counter()
                try:
                    result = step("bench.operation", op.call, context)
                except Exception as error:  # the check decides what is right
                    exc = error
                elapsed = time.perf_counter() - t0
                busy += elapsed
                latencies.append(elapsed)
                attempted += 1
                if op.lexicon is not None:
                    repeats += op.lexicon in seen
                    seen.add(op.lexicon)
                if not op.check(result, exc):
                    failed += 1
                    if op.kept_fault is None:
                        unexpected += 1
                        print(f"unexpected failure on {op.label!r}: {exc!r}",
                              file=sys.stderr)
                    else:
                        faults[op.kept_fault] = faults.get(op.kept_fault, 0) + 1
                del result, exc
        round_ops.append((attempted - ops_before, busy - busy_before))
        index += 1
        elapsed_total = time.perf_counter() - start
        if elapsed_total >= seconds or elapsed_total >= HARD_STOP_S:
            break
        groups = wl.round(index)
    return {
        "latencies": latencies, "round_ops": round_ops,
        "attempted": attempted, "failed": failed, "unexpected": unexpected,
        "repeats": repeats, "faults": faults,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("session", "produce", "understand"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mgumt" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'mgumt'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setups = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        wl, first = set_up(args.workload, args.seed)
        setups.append(time.perf_counter() - t0)

    tracer = None
    if args.trace:
        tracer = importlib.import_module("spans").Tracer()
        tracer.install()
    try:
        run = measure(wl, first, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    lat = run["latencies"]
    ops = run["attempted"]
    lines = [f"workload {args.workload}  seed {args.seed}  rounds {len(run['round_ops'])}"
             f"  operations {ops}  failed {run['failed']}"
             f"  unexpected {run['unexpected']}"]
    for fault, count in sorted(run["faults"].items()):
        lines.append(f"kept fault: {fault}: {count} operations")
    lines.append(f"lexicon already seen: {run['repeats']} of {ops} operations")
    lines.append("loop seconds per round: "
                 + " ".join(f"{busy:.3f}" for _, busy in run["round_ops"]))
    if tracer is None:
        metrics = {
            "p50_ms": (statistics.median(lat) * 1000, "ms"),
            "ops_per_s": (statistics.median(
                n / busy for n, busy in run["round_ops"]), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
        got = tail(lat)
        if got is None:
            lines.append(f"tail_ms: not reported, {ops} operations < 40")
        else:
            pct, value, beyond = got
            lines.append(f"tail_ms (p{pct} of {ops}, {beyond} beyond): "
                         f"{value * 1000:.3f} ms")
    else:
        lines.append(f"p50_ms under tracing: {statistics.median(lat) * 1000} ms")
        spans = importlib.import_module("spans")
        metrics = {name: (value, spans.unit(name))
                   for name, value in tracer.per_layer(ops).items()}
    for name, (value, unit) in metrics.items():
        lines.append(f"{name}: {value} {unit}")
    print("\n".join(lines))

    summary = {
        "correct": run["unexpected"] == 0,
        "attempted": ops,
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(summary) + "\n",
                                      encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

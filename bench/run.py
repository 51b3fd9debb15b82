"""odrleval benchmark: one seeded workload, closed loop, one client.

    python3 bench/run.py --workload audit-log --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; odrleval is imported from its ``src/``.

The run is split over four worker processes, one after the other, with the
fixed hash seeds in HASH_SEEDS. odrleval keeps rule conditions in frozensets,
whose iteration order -- and so the order in which a match evaluates
conditions and stops early -- follows the interpreter's hash seed and moves
operation latency by up to a third. Pooling four fixed seeds measures the
same mix of orders in every run. The workers are pinned in turn to the CPUs
this process may use, because on a shared machine one CPU can run a fifth
slower than another for minutes at a time; every run then samples each CPU
alike.

Each worker imports odrleval, writes its inputs and runs one warm-up
operation (its set-up time), then runs whole passes over the inputs until
its share of ``--seconds`` has passed, checking every answer against the one
the generator planted. Before each worker, SETUPS - 1 processes with the
same hash seed and CPU only set up and exit, so ``setup_s`` is the median
of 4 * SETUPS cold set-ups spread over the run; latencies are pooled. The run prints one line per metric and then a
JSON result line.

With ``--trace 1`` one worker alternates untraced passes and passes with
spans (``spans.py``) and reports the per-layer metrics; the spans are
written to ``bench/_work/spans-<workload>-seed<n>.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import spans
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / "_work"
HASH_SEEDS = (1, 2, 3, 4)
SETUPS = 3          # cold set-ups timed per hash seed
DEADLINE_S = 170
MODULES = ("cli", "policyio", "model", "matching", "evaluation", "saturation",
           "comparison", "sqlgen")
END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"), ("events_per_s", "1/s"), ("peak_rss_mb", "MB"),
)


def import_odrleval() -> SimpleNamespace:
    """Import odrleval from this checkout's sources, never an installed copy."""
    package = SRC / "odrleval"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no odrleval sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module(f"odrleval.{m}") for m in MODULES}
    if Path(mods["cli"].__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: odrleval was imported from {mods['cli'].__file__}")
    return SimpleNamespace(**mods)


class Loop:
    """Closed loop over whole passes of a workload's inputs."""

    def __init__(self):
        self.latencies, self.events, self.failed, self.wall = [], 0, 0, 0.0

    def record(self, call) -> None:
        start = time.perf_counter()
        try:
            ok, events = call()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok, events = False, 0
        self.latencies.append(time.perf_counter() - start)
        self.events += events
        self.failed += not ok

    def passes(self, pool, seconds: float, call) -> None:
        """Run ``call(op, op_id)`` over the pool until ``seconds`` have passed,
        finishing the pass in progress, so every input runs equally often.
        Operation ids count from 0 in the order the operations ran."""
        start = time.perf_counter()
        while True:
            for op in pool:
                op_id = len(self.latencies)
                self.record(lambda: call(op, op_id))
            if time.perf_counter() - start >= seconds:
                break
        self.wall += time.perf_counter() - start


def tail(latencies) -> tuple:
    """The highest percentile with at least 10 samples beyond it, which is
    the 11th slowest sample, at percentile 100 * (n - 10) / n by nearest
    rank: (percentile, value, samples beyond)."""
    ordered = sorted(latencies)
    rank = max(len(ordered) - 10, 1)
    return 100 * rank / len(ordered), ordered[rank - 1], len(ordered) - rank


def set_up(cls, seed: int, work: Path, start: float):
    odr = import_odrleval()
    workload = cls(odr, seed, work)
    warm = Loop()
    warm.record(lambda: workload.run(workload.pool[0]))
    return time.perf_counter() - start, workload, warm


def worker(cls, seed: int, seconds: float, trace: bool, setup_only: bool,
           start: float) -> dict:
    """One worker's share of the run, as a JSON-ready dict."""
    work = WORK / f"{cls.name}-seed{seed}-{os.getpid()}"
    try:
        setup_s, workload, warm = set_up(cls, seed, work, start)
        if setup_only:
            return {"setup_s": setup_s, "attempted": 1, "failed": warm.failed}
        if trace:
            return traced(workload, seed, seconds, warm)
        loop = Loop()
        loop.passes(workload.pool, seconds, lambda op, _: workload.run(op))
        return {"setup_s": setup_s, "latencies": loop.latencies, "events": loop.events,
                "wall": loop.wall, "attempted": 1 + len(loop.latencies),
                "failed": warm.failed + loop.failed,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def traced(workload, seed: int, seconds: float, warm) -> dict:
    """Alternate untraced and traced passes, so both sample the same stretch
    of time, until ``seconds`` have passed."""
    tracer = spans.Tracer()

    def call(op, op_id):
        tracer.op = op_id
        return workload.trace(op, tracer)

    plain, loop = Loop(), Loop()
    while plain.wall + loop.wall < seconds:
        plain.passes(workload.pool, 0, lambda op, _: workload.run(op))
        loop.passes(workload.pool, 0, call)
    values = spans.summarize(tracer, range(len(workload.pool)))
    values[spans.OVERHEAD[0]] = 100 * (statistics.median(tracer.op_durations())
                                       / statistics.median(plain.latencies) - 1)
    out = WORK / f"spans-{workload.name}-seed{seed}.json"
    out.write_text(json.dumps(tracer.to_document()), encoding="utf-8")
    return {"values": values,
            "attempted": 1 + len(plain.latencies) + len(loop.latencies),
            "failed": warm.failed + plain.failed + loop.failed}


def spawn(args, hash_seed: int, cpu: int, seconds: float, deadline: float,
          setup_only: bool = False) -> dict:
    """Run one worker process on ``cpu`` and wait for it; its result is its
    last line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds),
           "--trace", str(args.trace), "--worker", "--cpu", str(cpu)]
    cmd += ["--setup-only"] if setup_only else []
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"bench: worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(workload: str, results, setups) -> list:
    latencies = [x for r in results for x in r["latencies"]]
    wall = sum(r["wall"] for r in results)
    p, tail_s, beyond = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latencies) / wall,
        # Per worker, then averaged: each hash seed's condition order counts
        # equally, and the value does not jump between the workers' levels.
        "op_p50_ms": 1e3 * statistics.fmean(statistics.median(r["latencies"])
                                            for r in results),
        "op_tail_ms": 1e3 * tail_s,
        "events_per_s": sum(r["events"] for r in results) / wall,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }
    notes = {
        "setup_s": "median of %d set-ups: %s" % (
            len(setups), ", ".join("%.3f" % s for s in setups)),
        "op_tail_ms": f"p{p:.1f} of {len(latencies)} operations, {beyond} beyond it",
        "events_per_s": ("witness-domain probe events" if workload == "negotiate"
                         else "log events"),
    }
    return [(name, metrics[name], unit, notes.get(name, "")) for name, unit in END_TO_END]


def per_layer(results) -> list:
    units = {name: unit for name, unit, _, _ in spans.PER_LAYER}
    units[spans.OVERHEAD[0]] = spans.OVERHEAD[1]
    return [(name, results[0]["values"][name], unit, "") for name, unit in units.items()]


def main(argv=None) -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--cpu", type=int, default=-1, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        if args.cpu >= 0:
            os.sched_setaffinity(0, {args.cpu})
        WORK.mkdir(exist_ok=True)
        result = worker(WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace), args.setup_only, start)
        print(json.dumps(result))
        return 0

    # Turn a termination request into an exception, so the running worker is
    # killed and waited for before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    hash_seeds = HASH_SEEDS[:1] if args.trace else HASH_SEEDS
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [-1]
    results, setup_only = [], []
    for i, h in enumerate(hash_seeds):
        cpu = cpus[i % len(cpus)]
        if not args.trace:
            setup_only += [spawn(args, h, cpu, 0, deadline, setup_only=True)
                           for _ in range(SETUPS - 1)]
        results.append(spawn(args, h, cpu, args.seconds / len(hash_seeds), deadline))
    if args.trace:
        lines = per_layer(results)
    else:
        setups = [r["setup_s"] for r in setup_only + results]
        lines = end_to_end(args.workload, results, setups)
    attempted = sum(r["attempted"] for r in setup_only + results)
    failed = sum(r["failed"] for r in setup_only + results)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  python {sys.version.split()[0]}  nproc {os.cpu_count()}")
    for name, value, unit, note in lines:
        print(f"{name:32s} {value:14.4f} {unit:6s} {note}".rstrip())
    print(f"{'error_rate':32s} {failed / attempted:14.4f} {'':6s} "
          f"{failed} failed of {attempted} attempted")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in lines},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Repeat the benchmark over seeds and summarize the spread.

    python3 bench/baseline.py --seeds 1-10 --out bench/results/set-a.json

Runs ``bench/run.py`` (trace 0) once per seed and workload of
BENCHMARK.json, one run at a time, then one traced run per workload on
TRACE_SEED. For every
end-to-end metric it records each run's value, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (Q3 - Q1) / median,
next to the metric's bound from BENCHMARK.json. The traced run's per-layer
values are stored as they were printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACE_SEED = 1


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    print(proc.stdout, end="", flush=True)
    return json.loads(proc.stdout.splitlines()[-1])


def commit() -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True)
    return proc.stdout.strip() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="a seed or a range a-b")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    # Exit through an exception on termination, so the running benchmark is
    # stopped and waited for.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {
        "commit": commit(), "python": platform.python_version(), "nproc": os.cpu_count(),
        "machine": platform.machine(), "run_seconds": seconds, "seeds": seeds(args.seeds),
        "trace_seed": TRACE_SEED, "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [bench(workload, s, seconds, 0) for s in summary["seeds"]]
        table = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            table[name] = {"unit": runs[0]["metrics"][name]["unit"], "values": values,
                           "median": median, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / median, "bound": bound}
        traced = bench(workload, TRACE_SEED, seconds, 1)
        summary["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": table,
            "per_layer": traced["metrics"],
        }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")

    print(f"\n{'workload':12s} {'metric':14s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for workload, entry in summary["workloads"].items():
        for name, row in entry["end_to_end"].items():
            print(f"{workload:12s} {name:14s} {row['median']:12.4f} "
                  f"{row['spread']:8.4f} {row['bound']:6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

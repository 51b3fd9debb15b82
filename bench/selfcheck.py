"""Self-check of the benchmark's answer check.

    python3 bench/selfcheck.py

For each workload: one pass over its inputs must count no failure; then one
planted answer is made wrong and the same pass must count exactly one
failure, which the benchmark reports as ``error_rate``. Also checks that the
metric names and units in BENCHMARK.json are the ones ``run.py`` prints.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
import spans
from workloads import WORKLOADS


def check_answers() -> bool:
    odr = run.import_odrleval()
    ok = True
    for name, cls in WORKLOADS.items():
        work = run.WORK / f"selfcheck-{name}"
        try:
            workload = cls(odr, 7, work)
            rates = []
            for corrupt in (False, True):
                if corrupt:
                    workload.corrupt()
                loop = run.Loop()
                loop.passes(workload.pool, 0, lambda op, _: workload.run(op))
                rates.append((loop.failed, len(loop.latencies)))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        caught = rates[0][0] == 0 and rates[1][0] == 1
        ok &= caught
        print(f"{name:12s} error_rate {rates[0][0]}/{rates[0][1]} as planted, "
              f"{rates[1][0]}/{rates[1][1]} with one wrong answer: "
              f"{'caught' if caught else 'NOT CAUGHT'}")
    return ok


def check_declared_metrics() -> bool:
    declared = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    printed = {
        "end_to_end": [(n, u) for n, u in run.END_TO_END],
        "per_layer": [(n, u) for n, u, _, _ in spans.PER_LAYER] + [spans.OVERHEAD[:2]],
    }
    ok = True
    for key, metrics in printed.items():
        names = [(m["name"], m["unit"]) for m in declared[key]]
        same = names == [tuple(m) for m in metrics]
        ok &= same
        print(f"BENCHMARK.json {key}: {'matches' if same else 'DIFFERS from'} run.py")
    return ok


if __name__ == "__main__":
    run.WORK.mkdir(exist_ok=True)
    sys.exit(0 if check_answers() & check_declared_metrics() else 1)

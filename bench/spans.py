"""In-memory spans for the traced run, and the per-layer metrics built from
them.

A span records a name, start, end, parent span and operation id. Spans are
recorded only from benchmark code, around its calls into odrleval's public
functions. Where a step happens inside a library call (ordering inside
``evaluate_full``, the consistency check inside ``asymmetric_conflict``), the
benchmark calls the same public function again after that call returns and
records the result as a child span of the call. A span's self time is its
duration minus the durations of its children, which for children nested in
time is the part of its interval they cover.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

OP = "op"   # the operation span: exactly the work an untraced operation does

# name, unit, better, how it is computed from the spans and counts:
#   ("total", span)  median of the summed span durations over the traced
#                    operations that record the span
#   ("self", span)   the same with self times
#   ("mean", count)  mean per operation over the first pass over the inputs
#   ("max", count)   largest value over the first pass
#   ("ns_per", span, count)  median over operations of span time per count unit
PER_LAYER = (
    ("policyio.parse_policy_ms", "ms", "lower", ("total", "policyio.parse_policy")),
    ("policyio.parse_world_ms", "ms", "lower", ("total", "policyio.parse_world")),
    ("policyio.rows", "count", "higher", ("mean", "rows")),
    ("policyio.render_ms", "ms", "lower", ("total", "policyio.render")),
    ("model.conform_ms", "ms", "lower", ("total", "model.conform")),
    ("model.order_ms", "ms", "lower", ("total", "model.order")),
    ("saturation.saturate_ms", "ms", "lower", ("total", "saturation.saturate")),
    ("saturation.rules_out", "count", "lower", ("mean", "rules_out")),
    ("matching.wellformed_ms", "ms", "lower", ("total", "matching.wellformed")),
    ("matching.match_pass_ms", "ms", "lower", ("total", "matching.match_pass")),
    ("matching.pairs", "count", "lower", ("mean", "pairs")),
    ("matching.ns_per_pair", "ns", "lower", ("ns_per", "matching.match_pass", "pairs")),
    ("evaluation.evaluate_ms", "ms", "lower", ("total", "evaluation.evaluate")),
    ("evaluation.self_ms", "ms", "lower", ("self", "evaluation.evaluate")),
    ("evaluation.findings", "count", "higher", ("mean", "findings")),
    ("comparison.consistency_ms", "ms", "lower", ("total", "comparison.consistency")),
    ("comparison.normalize_ms", "ms", "lower", ("total", "comparison.normalize")),
    ("comparison.normalized_share", "ratio", "higher", ("mean", "normalized")),
    ("comparison.domain_build_ms", "ms", "lower", ("total", "comparison.domain_build")),
    ("comparison.domain_events_mean", "count", "lower", ("mean", "domain_events")),
    ("comparison.domain_events_max", "count", "lower", ("max", "domain_events")),
    ("comparison.decide_ms", "ms", "lower", ("self", "comparison.compare")),
    ("comparison.conflict_share", "ratio", "higher", ("mean", "conflict")),
    ("sqlgen.emit_ms", "ms", "lower", ("total", "sqlgen.emit")),
    ("sqlgen.insert_build_ms", "ms", "lower", ("total", "sqlgen.insert_build")),
    ("sqlgen.statements", "count", "lower", ("mean", "statements")),
    ("sqlgen.load_ms", "ms", "lower", ("total", "sqlgen.load")),
    ("sqlgen.query_ms", "ms", "lower", ("total", "sqlgen.query")),
    ("cli.overhead_ms", "ms", "lower", ("self", OP)),
)
OVERHEAD = ("trace.overhead_pct", "%", "lower")


class Tracer:
    def __init__(self):
        self.spans = []     # [name, start, end, parent, op]
        self.counts = []    # (op, name, value)
        self.op = None
        self._open = []

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        """Record a span; its parent is ``parent`` when given, else the
        innermost open span, else none."""
        if parent is None and self._open:
            parent = self._open[-1]
        sid = len(self.spans)
        record = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self._open.append(sid)
        try:
            yield sid
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def last(self, name: str) -> int:
        """The id of the latest span named ``name``."""
        return next(sid for sid in range(len(self.spans) - 1, -1, -1)
                    if self.spans[sid][0] == name)

    def count(self, name: str, value) -> None:
        self.counts.append((self.op, name, value))

    def op_durations(self) -> list:
        return [end - start for name, start, end, _, _ in self.spans if name == OP]

    def to_document(self) -> dict:
        return {"fields": ["name", "start", "end", "parent", "op"],
                "spans": self.spans,
                "counts": [list(c) for c in self.counts]}


def summarize(tracer: Tracer, first_pass_ops) -> dict:
    """Per-layer values, in PER_LAYER order; counts come from the operations
    in ``first_pass_ops``, one per input."""
    child_time = defaultdict(float)
    for name, start, end, parent, op in tracer.spans:
        if parent is not None:
            child_time[parent] += end - start
    total = defaultdict(lambda: defaultdict(float))   # op -> span name -> s
    self_ = defaultdict(lambda: defaultdict(float))
    for sid, (name, start, end, parent, op) in enumerate(tracer.spans):
        total[op][name] += end - start
        self_[op][name] += end - start - child_time[sid]
    counts = defaultdict(lambda: defaultdict(float))  # op -> count name -> value
    for op, name, value in tracer.counts:
        counts[op][name] += value
    ops = sorted(total)
    first = list(first_pass_ops)

    out = {}
    for metric, _, _, rule in PER_LAYER:
        kind = rule[0]
        if kind in ("total", "self"):
            table = total if kind == "total" else self_
            per = [table[op][rule[1]] for op in ops if rule[1] in table[op]]
            value = 1e3 * statistics.median(per) if per else 0.0
        elif kind == "mean":
            value = statistics.fmean(counts[op][rule[1]] for op in first)
        elif kind == "max":
            value = max(counts[op][rule[1]] for op in first)
        else:
            per = [1e9 * total[op][rule[1]] / counts[op][rule[2]]
                   for op in ops if counts[op][rule[2]]]
            value = statistics.median(per) if per else 0.0
        out[metric] = value
    return out

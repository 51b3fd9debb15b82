"""The three workloads: inputs, one operation, its answer check, and the
traced form of the operation.

Every operation goes through ``odrleval.cli.main`` in-process with stdout
captured, as a user of the documented command would. ``run`` performs one
operation and ``trace`` performs the same operation inside an ``op`` span,
then calls the public functions of each module on the same inputs, timing
each call as a span (see ``spans.py``). Both return whether the answer
matched the planted one and how many events the operation processed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sqlite3
from pathlib import Path

import gen


def _cli(odr, argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = odr.cli.main(argv)
    return code, out.getvalue()


def _read_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


class AuditLog:
    """``odrleval evaluate`` of a saturated ODRL full policy on one log."""

    name = "audit-log"

    def __init__(self, odr, seed: int, work: Path):
        self.odr = odr
        self.planted = gen.audit_log(seed, work)
        f = self.planted["files"]
        self.argv = ["evaluate", "--policy", f["policy"], "--world", f["world"],
                     "--schema", f["schema"], "--vocab", f["vocab"]]
        self.expected = sorted((list(x) for x in self.planted["findings"]), key=repr)
        self.pool = [0]

    def _check(self, code: int, out: str) -> bool:
        report = json.loads(out)
        got = sorted(([x["clause"], tuple(x["rules"]),
                       x["witnesses"][0][gen.DT] if x["witnesses"] else None]
                      for x in report["findings"]), key=repr)
        return code == (1 if self.expected else 0) and got == self.expected

    def run(self, op) -> tuple:
        return self._check(*_cli(self.odr, self.argv)), self.planted["events"]

    def trace(self, op, tr) -> tuple:
        o, f = self.odr, self.planted["files"]
        with tr.span("op") as top:
            code, out = _cli(o, self.argv)
        docs = {k: _read_json(f[k]) for k in ("schema", "vocab", "policy")}
        text = Path(f["world"]).read_text(encoding="utf-8")
        with tr.span("policyio.parse_policy", top):
            schema = o.policyio.parse_schema_document(docs["schema"])
            vocab = o.policyio.parse_vocabulary_document(docs["vocab"])
            policy = o.policyio.parse_policy_document(docs["policy"], schema)
        with tr.span("policyio.parse_world", top) as parse:
            world = o.policyio.parse_world_text(text, schema)
        # parse_world_text conforms every event (World.of with a schema).
        with tr.span("model.conform", parse):
            o.model.conform_world(world, schema)
        with tr.span("saturation.saturate", top):
            policy = o.saturation.saturate(policy, vocab, schema)
        with tr.span("evaluation.evaluate", top) as ev:
            report = o.evaluation.evaluate_full(policy, world, schema)
        # evaluate_full (evaluation.py) conforms the world once and orders it
        # twice: in _lite_findings and again for the duty, remedy and
        # consequence clauses.
        with tr.span("model.conform", ev):
            o.model.conform_world(world, schema)
        with tr.span("model.order", ev):
            events = world.ordered()
            world.ordered()
        with tr.span("matching.wellformed", ev):
            for rule in policy.all_rules():
                o.matching.check_well_formed(rule, schema)
        with tr.span("matching.match_pass", ev):
            pairs = _match_pass(o, policy, events, schema)
        with tr.span("policyio.render", top):
            json.dumps(o.policyio.report_to_document(report, schema), indent=2)
        tr.count("rows", len(world))
        tr.count("rules_out", len(policy.all_rules()))
        tr.count("pairs", pairs)
        tr.count("findings", len(report.findings))
        return self._check(code, out), self.planted["events"]

    def corrupt(self) -> None:
        """Plant a wrong expected answer: one finding goes missing."""
        self.expected = self.expected[1:]


def _match_pass(o, policy, events, schema) -> int:
    """``match_unchecked`` over the ordered events for every rule the full
    evaluation tests, with the same early exits: the first matching
    permission per event, the first matching event per obligation. Returns
    the number of calls."""
    match, ordered = o.matching.match_unchecked, o.model.ordered_rules
    lite = policy.lite
    calls = 0
    permissions = ordered(lite.permissions)
    for e in events:
        for k, tau in enumerate(permissions, 1):
            if match(tau, e, schema):
                break
        calls += k
    for tau in ordered(lite.prohibitions):
        for e in events:
            match(tau, e, schema)
        calls += len(events)
    for tau in ordered(lite.obligations):
        for k, e in enumerate(events, 1):
            if match(tau, e, schema):
                break
        calls += k
    scanned = [r for tuples in (policy.duty_pairs, policy.duty_consequence_triples,
                                policy.remedy_pairs, policy.obligation_consequence_pairs)
               for t in tuples for r in t]
    for tau in scanned:
        for e in events:
            match(tau, e, schema)
        calls += len(events)
    return calls


class Negotiate:
    """``odrleval compare`` over a pool of requester/provider pairs."""

    name = "negotiate"

    def __init__(self, odr, seed: int, work: Path):
        self.odr = odr
        self.planted = gen.negotiate(seed, work)
        self.pool = self.planted["pairs"]

    def _argv(self, pair) -> list:
        argv = ["compare", "--requester", pair["requester"], "--provider",
                pair["provider"], "--schema", self.planted["schema"], "--mode", pair["mode"]]
        return argv + (["--normalize"] if pair["normalize"] else [])

    @staticmethod
    def _check(pair, code: int, out: str) -> bool:
        verdict = json.loads(out)
        got = {k: verdict[k] for k in pair["answer"]}
        return code == (1 if pair["answer"]["conflict"] else 0) and got == pair["answer"]

    def run(self, pair) -> tuple:
        return self._check(pair, *_cli(self.odr, self._argv(pair))), pair["nominal_events"]

    def trace(self, pair, tr) -> tuple:
        o = self.odr
        with tr.span("op") as top:
            code, out = _cli(o, self._argv(pair))
        docs = [_read_json(p) for p in
                (self.planted["schema"], pair["requester"], pair["provider"])]
        with tr.span("policyio.parse_policy", top) as parse:
            schema = o.policyio.parse_schema_document(docs[0])
            requester = o.policyio.parse_policy_document(docs[1], schema)
            provider = o.policyio.parse_policy_document(docs[2], schema)
        rules = tuple(requester.all_rules()) + tuple(provider.all_rules())
        with tr.span("matching.wellformed", parse):
            for rule in rules:
                o.matching.check_well_formed(rule, schema)
        symmetric = pair["mode"] == "symmetric"
        compare = (o.comparison.symmetric_conflict if symmetric
                   else o.comparison.asymmetric_conflict)
        with tr.span("comparison.compare", top) as cmp:
            verdict = compare(requester, provider, schema,
                              auto_normalize=pair["normalize"])
        # asymmetric_conflict checks both sides for consistency, normalizing
        # an inconsistent one; symmetric_conflict does that in each direction.
        compared = []
        for _ in range(2 if symmetric else 1):
            compared = []
            for p in (requester, provider):
                with tr.span("comparison.consistency", cmp):
                    consistent = o.comparison.is_consistent(p, schema)
                if not consistent and pair["normalize"]:
                    with tr.span("comparison.normalize", cmp):
                        p = o.comparison.normalize(p, schema)
                compared.append(p)
        with tr.span("policyio.render", top):
            json.dumps(o.policyio.verdict_to_document(verdict, schema), indent=2)
        rules = tuple(compared[0].all_rules()) + tuple(compared[1].all_rules())
        with tr.span("comparison.domain_build"):
            domain = o.comparison.WitnessDomain.for_rules(schema, rules)
            events = list(domain.events())
        with tr.span("matching.match_pass"):
            for rule in rules:
                for e in events:
                    o.matching.match_unchecked(rule, e, schema)
        tr.count("pairs", len(rules) * len(events))
        tr.count("domain_events", domain.event_count())
        tr.count("normalized", int(any(a is not b for a, b in
                                       zip(compared, (requester, provider)))))
        tr.count("conflict", int(verdict.conflict))
        return self._check(pair, code, out), pair["nominal_events"]

    def corrupt(self) -> None:
        """Plant a wrong expected answer: the first pair's verdict flips."""
        answer = self.pool[0]["answer"]
        answer["conflict"] = not answer["conflict"]


class SqlOffload:
    """``odrleval emit-query`` for the lite projection of the audit-log
    policy, then the log loaded into sqlite with ``world_insert_sql`` and
    every emitted query run."""

    name = "sql-offload"

    def __init__(self, odr, seed: int, work: Path):
        self.odr = odr
        self.planted = gen.audit_log(seed, work)
        f = self.planted["files"]
        self.out_dir = work / "queries"
        self.argv = ["emit-query", "--policy", f["lite"], "--schema", f["schema"],
                     "--out-dir", str(self.out_dir)]
        self.expected = {k: list(v) for k, v in self.planted["lite"].items()}
        self.pool = [0]

    def _check(self, code: int, results: dict) -> bool:
        return code == 0 and results == self.expected

    def _sql(self, out: str, text: str, span=None) -> tuple:
        """Load the log and run every emitted query, timing each step with
        ``span`` when given; returns the results, the world, the schema and
        the number of statements."""
        o, span = self.odr, span or _no_span
        manifest = json.loads(out)
        ddl = (self.out_dir / manifest["ddl"]).read_text(encoding="utf-8")
        queries = {name: (self.out_dir / fn).read_text(encoding="utf-8")
                   for name, fn in manifest["queries"].items()}
        with span("policyio.parse_world"):
            schema = o.policyio.parse_schema_document(
                _read_json(self.planted["files"]["schema"]))
            world = o.policyio.parse_world_text(text, schema)
        with span("sqlgen.insert_build"):
            statements = o.sqlgen.world_insert_sql(world, schema)
        con = sqlite3.connect(":memory:")
        try:
            with span("sqlgen.load"):
                con.executescript(ddl)
                con.executescript("\n".join(statements))
            results = {}
            with span("sqlgen.query"):
                for name, sql in queries.items():
                    rows = con.execute(sql).fetchall()
                    # Witness rows carry event_id first, then the timestamp;
                    # the obligations query returns flag rows.
                    results[name] = sorted(r[1] if len(r) > 1 else r[0] for r in rows)
        finally:
            con.close()
        return results, world, schema, len(statements)

    def run(self, op) -> tuple:
        text = Path(self.planted["files"]["world"]).read_text(encoding="utf-8")
        code, out = _cli(self.odr, self.argv)
        return self._check(code, self._sql(out, text)[0]), self.planted["events"]

    def trace(self, op, tr) -> tuple:
        o, f = self.odr, self.planted["files"]
        with tr.span("op") as top:
            text = Path(f["world"]).read_text(encoding="utf-8")
            code, out = _cli(o, self.argv)
            results, world, schema, statements = self._sql(out, text, tr.span)
        # parse_world_text conforms every event (World.of with a schema);
        # world_insert_sql (sqlgen.py) orders the events once.
        with tr.span("model.conform", tr.last("policyio.parse_world")):
            o.model.conform_world(world, schema)
        with tr.span("model.order", tr.last("sqlgen.insert_build")):
            world.ordered()
        tr.count("rows", len(world))
        tr.count("statements", statements)
        docs = [_read_json(f[k]) for k in ("schema", "lite")]
        with tr.span("policyio.parse_policy", top):
            schema = o.policyio.parse_schema_document(docs[0])
            policy = o.policyio.parse_policy_document(docs[1], schema)
        with tr.span("sqlgen.emit", top) as emit:
            o.sqlgen.emit_violation_queries(policy, schema)
        with tr.span("matching.wellformed", emit):
            for rule in policy.all_rules():
                o.matching.check_well_formed(rule, schema)
        return self._check(code, results), self.planted["events"]

    def corrupt(self) -> None:
        """Plant a wrong expected answer: one unpermitted event goes missing."""
        self.expected["permissions-violation"] = self.expected["permissions-violation"][1:]


@contextlib.contextmanager
def _no_span(name):
    yield


WORKLOADS = {w.name: w for w in (AuditLog, Negotiate, SqlOffload)}

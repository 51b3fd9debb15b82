"""SQL emission and its agreement with the in-memory evaluator."""

from __future__ import annotations

import json
import math
import sqlite3
from pathlib import Path
from random import Random

import pytest

from odrleval import (
    Clause,
    EventRule,
    FullPolicy,
    LitePolicy,
    Operator,
    QueryEmitError,
    SimpleCondition,
    Value,
    World,
    emit_full_violation_queries,
    emit_violation_queries,
    evaluate_full,
    evaluate_lite,
    world_insert_sql,
)
from odrleval.matching import match_unchecked, strip_deadline_conditions
from odrleval.model import deadline_conditions
from odrleval.policyio import parse_policy_document, parse_world_text
from odrleval.sqlgen import create_table_sql, sanitize_name
from conftest import (
    ACTION,
    ACTOR,
    ASSET,
    PAGES,
    RESOLUTION,
    boolean_policy_document,
    eq,
    make_event,
    num,
    ts,
)
from generators import random_full_policy


def run_clauses(emitted, world, schema):
    """Execute the emitted queries on a materialized world; returns the
    per-clause row results keyed by clause name."""
    con = sqlite3.connect(":memory:")
    con.executescript(emitted.ddl)
    for stmt in world_insert_sql(world, schema):
        con.execute(stmt)
    results = {}
    for name, sql in emitted.queries:
        results[name] = con.execute(sql.rstrip(";\n")).fetchall()
    con.close()
    return results


def clause_events(rows, world):
    ordered = world.ordered()
    return {ordered[row[0]] for row in rows}


def agree_with_evaluator(policy, world, schema):
    emitted = emit_violation_queries(policy, schema)
    results = run_clauses(emitted, world, schema)
    report = evaluate_lite(policy, world, schema)

    sql_perm = clause_events(results["permissions-violation"], world)
    mem_perm = {f.witnesses[0] for f in report.by_clause(Clause.PERMISSIONS)}
    assert sql_perm == mem_perm, "permissions clause disagrees"

    sql_proh = clause_events(results["prohibitions-violation"], world)
    mem_proh = {f.witnesses[0] for f in report.by_clause(Clause.PROHIBITIONS)}
    assert sql_proh == mem_proh, "prohibitions clause disagrees"

    sql_obl = bool(results["obligations-violation"])
    mem_obl = bool(report.by_clause(Clause.OBLIGATIONS))
    assert sql_obl == mem_obl, "obligations clause disagrees"


def test_prohibition_query_finds_no_rows_on_demo_world(schema, world, f1):
    policy = LitePolicy.of((), {f1}, ())
    emitted = emit_violation_queries(policy, schema)
    results = run_clauses(emitted, world, schema)
    assert results["prohibitions-violation"] == []


def test_empty_permissions_select_every_row(schema, world):
    emitted = emit_violation_queries(LitePolicy.of(), schema)
    results = run_clauses(emitted, world, schema)
    assert len(results["permissions-violation"]) == len(world)


def test_demo_policy_permission_rows(schema, world, example_policy, e2, e3):
    emitted = emit_violation_queries(example_policy, schema)
    results = run_clauses(emitted, world, schema)
    assert clause_events(results["permissions-violation"], world) == {e2, e3}
    assert results["obligations-violation"] == []


def test_emission_is_deterministic(schema, example_policy):
    a = emit_violation_queries(example_policy, schema)
    b = emit_violation_queries(example_policy, schema)
    assert a == b
    assert a.ddl == b.ddl
    assert a.queries == b.queries


def test_one_emitter_for_lite_and_full_policies(schema, example_policy):
    lite_names = [f"{c.value}-violation" for c in list(Clause)[:3]]
    lite = emit_violation_queries(example_policy, schema)
    assert [name for name, _ in lite.queries] == lite_names
    full = emit_full_violation_queries(example_policy, schema)
    assert [name for name, _ in full.queries] == [f"{c.value}-violation" for c in Clause]
    assert full.queries[:3] == lite.queries and full.ddl == lite.ddl
    policy = random_full_policy(Random(5))
    assert emit_violation_queries(policy, schema) == \
        emit_full_violation_queries(policy, schema)


def test_null_dominance_in_sql(schema):
    # a null resolution must not satisfy "not equal" under negation either
    rule = EventRule.of(eq(ACTION, "Print"), num(RESOLUTION, Operator.NEQ, 1),
                        label="odd")
    world = World.of((make_event(1, "Print", "Alice", "Picture"),))
    agree_with_evaluator(LitePolicy.of({rule}), world, schema)


def test_identifier_order_comparison_compiles_to_false():
    from test_conditions import set_event, set_schema
    s = set_schema()
    rule = EventRule.of(
        eq(1, "Read"),
        SimpleCondition(6, Operator.GTEQ, Value.identifier("laptop")))
    world = World.of((set_event(device="phone"),))
    emitted = emit_violation_queries(LitePolicy.of((), {rule}), s)
    results = run_clauses(emitted, world, s)
    report = evaluate_lite(LitePolicy.of((), {rule}), world, s)
    assert results["prohibitions-violation"] == []
    assert report.by_clause(Clause.PROHIBITIONS) == ()


def test_is_a_on_exactly_the_declared_class_holds_on_every_route():
    # A feature that declares exactly the one class an isA names: its
    # classes equal the isA's members, so the class test holds, and only a
    # null value makes the isA false.
    from odrleval import eval_simple
    from odrleval.matching import MatchTable
    from odrleval.model import conform_world
    from odrleval.policyio import parse_schema_document
    s = parse_schema_document({"format": "feature-schema/1", "features": [
        {"index": 0, "name": "Datetime", "datatype": "timestamp", "component": "rule"},
        {"index": 1, "name": "Action", "datatype": "identifier", "component": "action"},
        {"index": 2, "name": "Kind", "datatype": "identifier", "component": "rule",
         "classes": ["Book"]}]})
    is_book = SimpleCondition(2, Operator.IS_A, Value.identifier("Book"))
    world = parse_world_text("Datetime,Action,Kind\n1,Read,Novel\n2,Read,null\n", s)
    present, null = world.ordered()
    assert [eval_simple(is_book, e, s) for e in (present, null)] == [True, False]
    assert MatchTable(conform_world(world, s), s).condition(is_book) == 0b01
    policy = LitePolicy.of((), {EventRule.of(eq(ACTION, "Read"), is_book)})
    results = run_clauses(emit_violation_queries(policy, s), world, s)
    assert clause_events(results["prohibitions-violation"], world) == {present}


def test_sanitize_names():
    assert sanitize_name("Book.Pages") == "book_pages"
    assert sanitize_name("Print.Resolution") == "print_resolution"
    assert sanitize_name("9lives") == "f_9lives"


def test_sanitize_collision_raises():
    from odrleval import ComponentTag, Datatype, FeatureDecl, FeatureSchema
    schema = FeatureSchema((
        FeatureDecl(0, "Datetime", Datatype.TIMESTAMP, ComponentTag.RULE),
        FeatureDecl(1, "Action", Datatype.IDENTIFIER, ComponentTag.ACTION),
        FeatureDecl(2, "a.b", Datatype.NUMERIC, ComponentTag.RULE),
        FeatureDecl(3, "a_b", Datatype.NUMERIC, ComponentTag.RULE),
    ))
    with pytest.raises(QueryEmitError):
        emit_violation_queries(LitePolicy.of(), schema)


def test_set_encoding_round_trip():
    from test_conditions import set_event, set_schema
    s = set_schema()
    rules = {
        EventRule.of(eq(1, "Read"),
                     SimpleCondition(4, Operator.HAS_PART,
                                     Value.identifier_set({"red", "blue"})),
                     label="has-both"),
        EventRule.of(eq(1, "Read"),
                     SimpleCondition(4, Operator.IS_PART_OF,
                                     Value.identifier_set({"red", "blue", "green"})),
                     label="within"),
        EventRule.of(eq(1, "Read"),
                     SimpleCondition(4, Operator.IS_ALL_OF,
                                     Value.identifier_set({"red"})),
                     label="exactly-red"),
        EventRule.of(eq(1, "Read"),
                     SimpleCondition(6, Operator.IS_A,
                                     Value.identifier("Mobile")),
                     label="mobile-device"),
        EventRule.of(eq(1, "Read"),
                     SimpleCondition(7, Operator.IS_A,
                                     Value.identifier("red")),
                     label="red-peer"),
        EventRule.of(eq(1, "Read"),
                     SimpleCondition(6, Operator.IS_ANY_OF,
                                     Value.identifier_set({"phone", "tablet"})),
                     label="handheld"),
        EventRule.of(eq(1, "Read"),
                     SimpleCondition(6, Operator.IS_NONE_OF,
                                     Value.identifier_set({"kiosk"})),
                     label="not-kiosk"),
    }
    world = World.of((
        set_event(tags={"red", "blue"}, asset_classes={"Novel"}, device="phone"),
        set_event(tags={"red"}, asset_classes={"Text"}, peer="p1"),
        set_event(tags=frozenset(), asset_classes=None, device="kiosk", peer="p2"),
        set_event(tags=None, asset_classes={"Novel"}, actor=None, device="tablet"),
    ))
    for rule in rules:
        policy = LitePolicy.of((), {rule}, ())
        emitted = emit_violation_queries(policy, s)
        results = run_clauses(emitted, world, s)
        report = evaluate_lite(policy, world, s)
        assert (clause_events(results["prohibitions-violation"], world)
                == {f.witnesses[0] for f in report.by_clause(Clause.PROHIBITIONS)}), \
            rule.label


def test_full_policy_duty_clause(schema):
    perm = EventRule.of(eq(ACTION, "Print"), eq(ACTOR, "Alice"),
                        eq(ASSET, "Book"), label="alice-print")
    duty = EventRule.of(eq(ACTION, "Read"), eq(ACTOR, "Bob"),
                        eq(ASSET, "Book"), label="bob-read")
    policy = FullPolicy.of(LitePolicy.of({perm, duty}),
                           duty_pairs={(perm, duty)})
    emitted = emit_full_violation_queries(policy, schema)

    violating = World.of((
        make_event(1, "Print", "Alice", "Book"),
        make_event(2, "Read", "Bob", "Book"),
    ))
    results = run_clauses(emitted, violating, schema)
    assert clause_events(results["permission-duties-violation"], violating) \
        == {make_event(1, "Print", "Alice", "Book")}
    assert not evaluate_full(policy, violating, schema).valid

    clean = World.of((
        make_event(1, "Read", "Bob", "Book"),
        make_event(2, "Print", "Alice", "Book"),
    ))
    results = run_clauses(emitted, clean, schema)
    assert results["permission-duties-violation"] == []
    assert evaluate_full(policy, clean, schema).valid


def test_full_policy_oc_clause(schema):
    obligation = EventRule.of(eq(ACTION, "Read"), eq(ACTOR, "Bob"),
                              eq(ASSET, "Book"), ts(Operator.LTEQ, 2),
                              label="read-by-2")
    consequence = EventRule.of(eq(ACTION, "Pay"), eq(ACTOR, "Bob"),
                               label="bob-pays")
    lite = LitePolicy.of({consequence,
                          EventRule.of(eq(ACTION, "Read"), label="any-read"),
                          EventRule.of(eq(ACTION, "Pay"), label="any-pay")})
    policy = FullPolicy.of(
        lite, obligation_consequence_pairs={(obligation, consequence)})
    emitted = emit_full_violation_queries(policy, schema)

    made_up = World.of((
        make_event(5, "Read", "Bob", "Book"),
        make_event(6, "Pay", "Bob", None),
    ))
    assert run_clauses(emitted, made_up, schema)["obligation-consequences-violation"] == []

    ignored = World.of((make_event(5, "Read", "Bob", "Book"),))
    assert run_clauses(emitted, ignored, schema)["obligation-consequences-violation"] \
        == [(1,)]


def random_world(rng: Random) -> World:
    events = []
    for _ in range(rng.randint(0, 5)):
        events.append(make_event(
            rng.randint(0, 6),
            rng.choice(("Print", "Read")),
            rng.choice(("Alice", "Bob", "Carol", None)),
            rng.choice(("Picture", "Book", None)),
            resolution=rng.choice((None, 100, 400, 500)),
            pages=rng.choice((None, 100, 250, 300, 450)),
        ))
    return World.of(events)


def random_rule(rng: Random) -> EventRule:
    conds = [eq(ACTION, rng.choice(("Print", "Read")))]
    if rng.random() < 0.7:
        conds.append(eq(ACTOR, rng.choice(("Alice", "Bob"))))
    if rng.random() < 0.7:
        conds.append(eq(ASSET, rng.choice(("Picture", "Book"))))
        if rng.random() < 0.5:
            conds.append(num(PAGES, rng.choice(
                (Operator.GT, Operator.LTEQ, Operator.EQ, Operator.NEQ)),
                rng.choice((100, 250, 450))))
    if rng.random() < 0.4:
        conds.append(num(RESOLUTION,
                         rng.choice((Operator.LT, Operator.GTEQ)),
                         rng.choice((100, 400, 500))))
    if rng.random() < 0.4:
        conds.append(ts(rng.choice((Operator.LTEQ, Operator.GTEQ,
                                    Operator.LT, Operator.GT)),
                        rng.randint(0, 6)))
    return EventRule(frozenset(conds))


def test_random_differential_smoke(schema):
    rng = Random(11)
    for _ in range(50):
        policy = LitePolicy.of(
            [random_rule(rng) for _ in range(rng.randint(0, 2))],
            [random_rule(rng) for _ in range(rng.randint(0, 2))],
            [random_rule(rng) for _ in range(rng.randint(0, 2))],
        )
        agree_with_evaluator(policy, random_world(rng), schema)


# -- extreme legal values and nested boolean structure ---------------------------

EXTREME_INTS = (2 ** 63 - 1, -(2 ** 63 - 1), 0)
EXTREME_NUMBERS = EXTREME_INTS + (1e-300, -1e-300, 0.5, 1e300)
EXTREME_TEXTS = ("", "O'Brien", "it''s", "Zo\u00eb", "\u6771\u4eac", "'; --")
EXTREME_ATOMS = ("a'b", "\u00fc", "plain")
EXTREME_SETS = ((), ("a'b",), ("\u00fc", "a'b"), EXTREME_ATOMS)
EXTREME_ACTORS = ("O'Brien", "Zo\u00eb")
AMOUNT, NOTE, TAGS, PEER = 4, 5, 6, 7


def extreme_schema():
    from odrleval import ComponentTag, Datatype, FeatureDecl, FeatureSchema
    return FeatureSchema((
        FeatureDecl(0, "Datetime", Datatype.TIMESTAMP, ComponentTag.RULE),
        FeatureDecl(1, "Action", Datatype.IDENTIFIER, ComponentTag.ACTION),
        FeatureDecl(2, "Actor", Datatype.IDENTIFIER, ComponentTag.PARTY,
                    party_role="assignee"),
        FeatureDecl(3, "Asset", Datatype.IDENTIFIER, ComponentTag.ASSET),
        FeatureDecl(AMOUNT, "Amount", Datatype.NUMERIC, ComponentTag.RULE),
        FeatureDecl(NOTE, "Note", Datatype.STRING, ComponentTag.RULE),
        FeatureDecl(TAGS, "Tags", Datatype.IDENTIFIER_SET, ComponentTag.RULE),
        FeatureDecl(PEER, "Peer", Datatype.IDENTIFIER, ComponentTag.RULE,
                    class_feature=TAGS),
    ))


def extreme_world(rng: Random) -> World:
    from odrleval import NULL, Event

    def maybe(v):
        return NULL if rng.random() < 0.25 else v

    return World.of(Event((
        Value.timestamp(rng.choice(EXTREME_INTS)),
        Value.identifier(rng.choice(("Print", "Read"))),
        maybe(Value.identifier(rng.choice(EXTREME_ACTORS))),
        maybe(Value.identifier("Book")),
        maybe(Value.number(rng.choice(EXTREME_NUMBERS))),
        maybe(Value.text(rng.choice(EXTREME_TEXTS))),
        maybe(Value.identifier_set(rng.choice(EXTREME_SETS))),
        maybe(Value.identifier(rng.choice(EXTREME_ATOMS))),
    )) for _ in range(rng.randint(0, 6)))


def extreme_condition(rng: Random, depth: int):
    """A rule-wide condition tree: nested xor, not, or and and over the
    timestamp, number, text, set and class features."""
    from odrleval import And, Not, Or, Xor
    if depth == 0 or rng.random() < 0.3:
        feature = rng.choice((0, AMOUNT, NOTE, TAGS, PEER))
        ordered = (Operator.EQ, Operator.NEQ, Operator.LT, Operator.LTEQ,
                   Operator.GT, Operator.GTEQ)
        if feature == 0:
            return ts(rng.choice(ordered), rng.choice(EXTREME_INTS))
        if feature == AMOUNT:
            return num(AMOUNT, rng.choice(ordered), rng.choice(EXTREME_NUMBERS))
        if feature == NOTE:
            if rng.random() < 0.3:
                return SimpleCondition(
                    NOTE, rng.choice((Operator.IS_ANY_OF, Operator.IS_NONE_OF)),
                    Value.identifier_set(rng.choice(EXTREME_SETS[:2] + (EXTREME_TEXTS,))))
            return SimpleCondition(NOTE, rng.choice(ordered),
                                   Value.text(rng.choice(EXTREME_TEXTS)))
        if feature == TAGS:
            return SimpleCondition(
                TAGS, rng.choice((Operator.HAS_PART, Operator.IS_PART_OF,
                                  Operator.IS_ALL_OF)),
                Value.identifier_set(rng.choice(EXTREME_SETS)))
        return SimpleCondition(PEER, Operator.IS_A,
                               Value.identifier(rng.choice(EXTREME_ATOMS)))
    kind = rng.choice(("xor", "not", "or", "and"))
    if kind == "not":
        return Not(extreme_condition(rng, depth - 1))
    left, right = extreme_condition(rng, depth - 1), extreme_condition(rng, depth - 1)
    return {"xor": Xor, "or": lambda a, b: Or((a, b)),
            "and": lambda a, b: And((a, b))}[kind](left, right)


def extreme_rule(rng: Random) -> EventRule:
    conds = [eq(ACTION, rng.choice(("Print", "Read")))]
    if rng.random() < 0.5:
        conds.append(eq(ACTOR, rng.choice(EXTREME_ACTORS)))
    conds += [extreme_condition(rng, 3) for _ in range(rng.randint(0, 2))]
    return EventRule(frozenset(conds))


def test_random_differential_extreme_values_and_nested_xor():
    schema = extreme_schema()
    rng = Random(6302)
    for _ in range(150):
        policy = LitePolicy.of(
            [extreme_rule(rng) for _ in range(rng.randint(0, 2))],
            [extreme_rule(rng) for _ in range(rng.randint(0, 2))],
            [extreme_rule(rng) for _ in range(rng.randint(0, 2))],
        )
        agree_with_evaluator(policy, extreme_world(rng), schema)


def _late_fulfilment_world(policy, rng: Random) -> World:
    """For the policy's obligation-consequence pair: the obligation met only
    after its deadline t, and an event exactly at t that its consequence
    permission pins."""
    (tau, consequence), = policy.obligation_consequence_pairs

    def pinned_event(rule, at):
        pins = {c.feature: c.value.raw for c in rule.conditions
                if isinstance(c, SimpleCondition) and c.op is Operator.EQ}
        return make_event(at, pins[ACTION], pins[ACTOR],
                          pins.get(ASSET, rng.choice(("Picture", "Book"))))
    t = deadline_conditions(tau)[0].value.raw
    return World.of((pinned_event(tau, rng.randint(t + 1, 6)), pinned_event(consequence, t)))


def _consequence_only_at_missed_deadline(policy, world, schema) -> bool:
    """Whether the obligation is unmet by its deadline t, met later, and
    every event its consequence matches sits exactly at t."""
    for tau, consequence in policy.obligation_consequence_pairs:
        t = deadline_conditions(tau)[0].value.raw
        late = strip_deadline_conditions(tau)
        if (not any(match_unchecked(tau, e, schema) for e in world.events)
                and any(match_unchecked(late, e, schema) for e in world.events)
                and {e.timestamp for e in world.events
                     if match_unchecked(consequence, e, schema)} == {t}):
            return True
    return False


def test_full_clause_differential(schema):
    from odrleval import Clause
    clause_for = {
        "permission-duties-violation": Clause.PERMISSION_DUTIES,
        "permission-duties-with-consequences-violation":
            Clause.PERMISSION_DUTIES_WITH_CONSEQUENCES,
        "prohibition-remedies-violation": Clause.PROHIBITION_REMEDIES,
    }

    def agree(policy, world):
        emitted = emit_full_violation_queries(policy, schema)
        results = run_clauses(emitted, world, schema)
        report = evaluate_full(policy, world, schema)
        for name, clause in clause_for.items():
            sql_rows = clause_events(results[name], world)
            mem_rows = {f.witnesses[0] for f in report.by_clause(clause)}
            assert sql_rows == mem_rows, (name, policy, world.ordered())
        sql_flag = bool(results["obligation-consequences-violation"])
        mem_flag = bool(report.by_clause(Clause.OBLIGATION_CONSEQUENCES))
        assert sql_flag == mem_flag, (policy, world.ordered())

    rng, planting = Random(77077), Random(77078)
    at_deadline = 0
    for _ in range(120):
        policy = random_full_policy(rng)
        world = World.of((
            make_event(rng.randint(0, 5),
                       rng.choice(("Print", "Read", "Pay")),
                       rng.choice(("Alice", "Bob", None)),
                       rng.choice(("Picture", "Book", None)),
                       pages=rng.choice((None, 100, 300)))
            for _ in range(rng.randint(0, 5))
        ))
        worlds = [world]
        if policy.obligation_consequence_pairs:
            # a consequence at the deadline itself restores validity
            worlds.append(_late_fulfilment_world(policy, planting))
        for w in worlds:
            agree(policy, w)
            at_deadline += _consequence_only_at_missed_deadline(policy, w, schema)
    assert at_deadline > 0


def test_pairing_queries_take_linear_steps_in_the_log(schema):
    # A correlated NOT EXISTS per row made these three queries quadratic:
    # 4x the log took about 15x the sqlite VM steps. Steps, unlike time,
    # are the same on every run of one sqlite build.
    golden = Path(__file__).resolve().parent / "golden" / "full-policy.json"
    policy = parse_policy_document(json.loads(golden.read_text(encoding="utf-8")), schema)
    pairing = ("permission-duties-violation",
               "permission-duties-with-consequences-violation",
               "prohibition-remedies-violation")
    queries = [(name, sql) for name, sql in emit_violation_queries(policy, schema).queries
               if name in pairing]
    rotation = (("Reproduce", "Alice", "Picture"), ("Use", "Bob", "Book"),
                ("Print", "Alice", "Picture", 2000))

    def steps(n: int) -> dict:
        # every permitted event lacks a prior duty, and every Print breach
        # scans the log for the one remedy at its end
        world = World.of([make_event(t, *rotation[t % 3]) for t in range(n)]
                         + [make_event(n, "Pay", "Alice", "Picture")])
        con = sqlite3.connect(":memory:")
        con.executescript(create_table_sql(schema))
        for stmt in world_insert_sql(world, schema):
            con.execute(stmt)
        counts = {}
        for name, sql in queries:
            ticks = []
            con.set_progress_handler(lambda: ticks.append(1), 100)
            con.execute(sql).fetchall()
            counts[name] = len(ticks)
        con.close()
        return counts

    small, large = steps(300), steps(1200)
    for name in pairing:
        assert large[name] < 6 * small[name], (name, small[name], large[name])


def bob_reads_pages(op, pages) -> EventRule:
    return EventRule.of(eq(ACTION, "Read"), eq(ACTOR, "Bob"), eq(ASSET, "Book"),
                        num(PAGES, op, pages))


@pytest.mark.parametrize("big", [2 ** 63, 2 ** 63 + 1, 2 ** 70, -2 ** 63 - 1])
def test_integers_outside_64_bits_are_rejected(schema, big):
    # sqlite holds such integers as reals: Pages = 2**63 + 1 was not above
    # 2**63 there, nor 2**70 above 2**70 - 1, while the evaluator flagged both.
    policy = LitePolicy.of((), {bob_reads_pages(Operator.GT, big)}, ())
    with pytest.raises(QueryEmitError):
        emit_violation_queries(policy, schema)
    world = World.of((make_event(1, "Read", "Bob", "Book", pages=big),))
    with pytest.raises(QueryEmitError):
        world_insert_sql(world, schema)


def test_integers_at_the_64_bit_bounds_agree_with_evaluator(schema):
    top, bottom = 2 ** 63 - 1, -2 ** 63
    policy = LitePolicy.of(
        {bob_reads_pages(Operator.LT, top)}, {bob_reads_pages(Operator.GT, bottom)}, ())
    world = World.of(tuple(make_event(t, "Read", "Bob", "Book", pages=x)
                           for t, x in enumerate((top, top - 1, bottom, bottom + 1))))
    agree_with_evaluator(policy, world, schema)


def test_canonical_or_xor_const_agree_with_evaluator(schema):
    policy = parse_policy_document(boolean_policy_document(), schema)
    queries = dict(emit_violation_queries(policy, schema).queries)
    assert "(1=1)" in queries["permissions-violation"]
    assert "(1=0)" in queries["prohibitions-violation"]
    rng = Random(8)
    for _ in range(40):
        agree_with_evaluator(policy, random_world(rng), schema)


@pytest.mark.parametrize("condition", [
    SimpleCondition(NOTE, Operator.HAS_PART, Value.identifier("a'b")),
    SimpleCondition(AMOUNT, Operator.IS_ANY_OF, Value.identifier_set({"0.5", "0"})),
    SimpleCondition(PEER, Operator.GT, Value.identifier("a'b")),
    SimpleCondition(NOTE, Operator.IS_A, Value.identifier("plain")),
], ids=["hasPart-on-text", "isAnyOf-on-number", "gt-on-identifier", "isA-without-classes"])
def test_statically_false_conditions_agree_with_evaluator(condition):
    # These compile to a constant false; negated, they hold on every event.
    from odrleval import Not
    schema = extreme_schema()
    rng = Random(5)
    for part in (condition, Not(condition)):
        rule = EventRule.of(eq(ACTION, "Read"), part)
        policy = LitePolicy.of({rule}, {rule}, {rule})
        queries = dict(emit_violation_queries(policy, schema).queries)
        assert "(1=0)" in queries["prohibitions-violation"]
        for _ in range(20):
            agree_with_evaluator(policy, extreme_world(rng), schema)


def test_nul_in_a_string_is_rejected(schema):
    # sqlite refuses a statement holding U+0000, so none is emitted.
    policy = LitePolicy.of({EventRule.of(eq(ACTION, "Read"), eq(ACTOR, "Ali\x00ce"))})
    with pytest.raises(QueryEmitError, match="U\\+0000"):
        emit_violation_queries(policy, schema)
    world = parse_world_text(
        "Datetime,Action,Actor,Asset,Print.Resolution,Book.Pages\n"
        "1,Read,Ali\x00ce,Book,null,null\n", schema)
    with pytest.raises(QueryEmitError, match="U\\+0000"):
        world_insert_sql(world, schema)


def test_lone_surrogate_in_a_string_is_rejected(schema):
    # UTF-8 cannot encode a lone surrogate, and sqlite refuses a statement
    # holding one, so none is emitted.
    policy = LitePolicy.of({EventRule.of(eq(ACTION, "Read"), eq(ACTOR, "Ali\ud800ce"))})
    with pytest.raises(QueryEmitError, match="surrogate"):
        emit_violation_queries(policy, schema)
    world = World.of([make_event(1, "Read", "Ali\ud800ce", "Book")], schema)
    with pytest.raises(QueryEmitError, match="surrogate"):
        world_insert_sql(world, schema)


def test_world_insert_sql_checks_conformance(schema):
    from odrleval import Event, WorldConformanceError
    short = Event((Value.timestamp(1), Value.identifier("Read")))
    wrong_kind = make_event(1, "Read", "Bob", "Book")
    wrong_kind = Event(wrong_kind.values[:2] + (Value.number(7),) + wrong_kind.values[3:])
    for event in (short, wrong_kind):
        with pytest.raises(WorldConformanceError):
            world_insert_sql(World((event,)), schema)


# -- loading a world -------------------------------------------------------------

CHUNK = 500   # rows per INSERT statement
CHUNK_NUMBERS = EXTREME_NUMBERS + (-0.0, 2 ** 60, float(2 ** 60), 1, 1.0)
CHUNK_SETS = EXTREME_SETS + (("b", "c", "d", "e"),)


def chunk_world(n: int, rng: Random) -> World:
    """``n`` events over ``extreme_schema`` with every extreme legal value, a
    quarter of the optional cells null, and ties on the timestamp."""
    from odrleval import NULL, Event

    def maybe(v):
        return NULL if rng.random() < 0.25 else v

    events = [Event((
        Value.timestamp(i // 2 if i % 3 else rng.choice(EXTREME_INTS)),
        Value.identifier(rng.choice(("Print", "Read"))),
        maybe(Value.identifier(rng.choice(EXTREME_ACTORS))),
        maybe(Value.identifier("Book")),
        maybe(Value.number(rng.choice(CHUNK_NUMBERS))),
        maybe(Value.text(rng.choice(EXTREME_TEXTS))),
        maybe(Value.identifier_set(rng.choice(CHUNK_SETS))),
        Value.identifier(f"peer-{i}"),   # keeps the n events distinct
    )) for i in range(n)]
    return World.of(events, extreme_schema())


def loaded_tables(con) -> tuple:
    """Both tables in insertion order, each cell by its repr, so that a
    cell's storage class counts: text '1', integer 1 and real 0.5 differ.
    Under NUMERIC affinity sqlite stores 1.0 and -0.0 as integers, so this
    cannot tell 1 from 1.0; the literal test below does."""
    return tuple([tuple(map(repr, row)) for row in
                  con.execute(f"SELECT * FROM {table} ORDER BY rowid")]
                 for table in ("world_events", "world_set_members"))


def load_with_inserts(world, schema) -> tuple:
    con = sqlite3.connect(":memory:")
    con.executescript(create_table_sql(schema))
    con.executescript("\n".join(world_insert_sql(world, schema)))
    tables = loaded_tables(con)
    con.close()
    return tables


def load_with_parameters(world, schema) -> tuple:
    """The reference load: the world's values bound as parameters, a row per
    event and a row per set member, with no SQL text built from a value."""
    from odrleval import ValueKind
    cols = [sanitize_name(decl.name) for decl in schema.features]
    rows, members = [], []
    for event_id, event in enumerate(world.ordered()):
        row = [event_id]
        for col, v in zip(cols, event.values):
            if v.kind is ValueKind.IDENTIFIER_SET:
                row.append("set")
                members += [(event_id, col, m) for m in sorted(v.raw)]
            else:
                row.append(v.raw)
        rows.append(row)
    con = sqlite3.connect(":memory:")
    con.executescript(create_table_sql(schema))
    marks = ", ".join("?" * (len(cols) + 1))
    con.executemany(f"INSERT INTO world_events VALUES ({marks})", rows)
    con.executemany("INSERT INTO world_set_members VALUES (?, ?, ?)", members)
    tables = loaded_tables(con)
    con.close()
    return tables


def test_world_loads_as_with_bound_parameters_across_chunk_boundaries():
    schema = extreme_schema()
    for n, seed in ((1201, 1), (CHUNK, 2), (CHUNK + 1, 3), (7, 4)):
        world = chunk_world(n, Random(seed))
        assert len(world) == n
        expected = load_with_parameters(world, schema)
        if n > CHUNK:
            assert len(expected[1]) > CHUNK
        assert load_with_inserts(world, schema) == expected, n


def test_world_loads_one_statement_at_a_time_under_sqlites_default_length_limit():
    """Statements stay within sqlite's default SQLITE_LIMIT_SQL_LENGTH of
    1,000,000 bytes even when 500 rows would not, and a row longer than the
    character budget still loads, in a statement of its own."""
    from odrleval import NULL, Event
    schema = extreme_schema()
    note = {"ascii": "x" * 2100, "3-byte": "\u20ac" * 2100,
            "4-byte": "\U0001d11e" * 2100, "alone": "y" * 210_000}
    events = [Event((
        Value.timestamp(i), Value.identifier("Read"), NULL, NULL, NULL,
        Value.text(note[("ascii", "3-byte", "4-byte")[i % 3]]
                   if i != 700 else note["alone"]),
        Value.identifier_set((f"m{i}",)), Value.identifier(f"peer-{i}"),
    )) for i in range(1300)]
    # 500 of these rows take more than 1,000,000 bytes
    assert sum(len(e.value(NOTE).raw.encode()) for e in events[:500]) > 10 ** 6
    world = World.of(events, schema)
    statements = world_insert_sql(world, schema)
    con = sqlite3.connect(":memory:")
    con.setlimit(sqlite3.SQLITE_LIMIT_SQL_LENGTH, 10 ** 6)
    con.executescript(create_table_sql(schema))
    for s in statements:
        con.execute(s)
    assert [s.count("\n") for s in statements if note["alone"] in s] == [1]
    assert loaded_tables(con) == load_with_parameters(world, schema)
    con.close()


def test_world_insert_sql_writes_each_numbers_own_literal():
    """1 and 1.0, and 0.0 and -0.0, are equal numbers with different literals;
    each cell carries the literal of its own value, whichever came first."""
    from odrleval import NULL, Event
    schema = extreme_schema()
    amounts = (1, 1.0, 1, 0.0, -0.0, 0.0, 0, -0.0, 1.0, float(2 ** 60), 2 ** 60,
               float(2 ** 60), 1e-300, -1e-300)
    world = World.of((Event((
        Value.timestamp(t), Value.identifier("Read"), NULL, NULL,
        Value.number(x), NULL, NULL, Value.identifier(f"p{t}"),
    )) for t, x in enumerate(amounts)), schema)
    [statement] = world_insert_sql(world, schema)
    rows = statement.split(" VALUES\n", 1)[1].rstrip(";").split(",\n")
    assert rows == [f"({t}, {t}, 'Read', NULL, NULL, {x!r}, NULL, NULL, 'p{t}')"
                    for t, x in enumerate(amounts)]


def test_world_insert_sql_agrees_on_parsed_and_built_worlds(schema):
    """A parsed world's view has a code per cell text, a world built from
    events a code per literal: both load the same rows."""
    golden = (Path(__file__).parent / "golden" / "full-world.csv").read_text()
    mixed = ("Datetime,Action,Actor,Asset,Print.Resolution,Book.Pages\n"
             + "".join(f"{t},Read,Bob,Book,{x},{y}\n" for t, (x, y) in enumerate(
                 (("1", "-0.0"), ("1.0", "0"), ("-0.0", "0.0"), ("01", "1.0"),
                  (" 1 ", "null"), ("0.0", "-0.0"), ("1.0", "1")))))
    for text in (golden, mixed):
        world = parse_world_text(text, schema)
        statements = world_insert_sql(world, schema)
        assert statements == world_insert_sql(World.of(world.ordered(), schema), schema)
    assert "(0, 0, 'Read', 'Bob', 'Book', 1, -0.0)" in statements[0]
    assert "(4, 4, 'Read', 'Bob', 'Book', 1, NULL)" in statements[0]


def test_world_insert_sql_writes_at_most_500_rows_per_statement(schema, world):
    extreme = extreme_schema()
    big = chunk_world(1201, Random(1))
    m = sum(len(e.value(TAGS).raw) for e in big.events if not e.value(TAGS).is_null)
    statements = world_insert_sql(big, extreme)
    assert len(statements) == math.ceil(1201 / CHUNK) + math.ceil(m / CHUNK)
    con = sqlite3.connect(":memory:")
    con.executescript(create_table_sql(extreme))
    loaded = [(s.split(" (", 1)[0], con.execute(s).rowcount) for s in statements]
    con.close()

    def chunks(table, rows):
        return [(f"INSERT INTO {table}", min(CHUNK, rows - start))
                for start in range(0, rows, CHUNK)]

    assert loaded == chunks("world_events", 1201) + chunks("world_set_members", m)
    assert world_insert_sql(World(()), extreme) == []
    # no set feature, or no set member: no world_set_members statement
    assert [s.split(" (", 1)[0] for s in world_insert_sql(world, schema)] \
        == ["INSERT INTO world_events"]
    from odrleval import NULL, Event
    memberless = World.of(Event(e.values[:TAGS] + (
        NULL if i % 2 else Value.identifier_set(()),) + e.values[TAGS + 1:])
        for i, e in enumerate(big.ordered()))
    assert len(world_insert_sql(memberless, extreme)) == math.ceil(1201 / CHUNK)


def test_world_load_errors_name_the_first_offending_event():
    from odrleval import Event, WorldConformanceError
    schema = extreme_schema()
    # timestamps 0..999, so each event keeps its place when a cell changes
    events = [Event((Value.timestamp(t),) + e.values[1:])
              for t, e in enumerate(chunk_world(1000, Random(9)).ordered())]

    def with_cells(event, **cells):
        slots = list(event.values)
        for feature, v in cells.items():
            slots[{"amount": AMOUNT, "note": NOTE, "tags": TAGS}[feature]] = v
        return Event(slots)

    too_big = Value.number(2 ** 63)
    nul_text = Value.text("a\x00b")
    nul_set = Value.identifier_set({"a\x00", "b\x00"})
    for cells, match in (({"amount": too_big}, "64-bit"),
                         ({"note": nul_text}, r"'a\\x00b'"),
                         ({"tags": nul_set}, r"'a\\x00'"),
                         ({"amount": too_big, "note": nul_text}, "64-bit"),
                         ({"note": nul_text, "tags": nul_set}, r"'a\\x00b'")):
        world = World.of(events[:-1] + [with_cells(events[-1], **cells)], schema)
        with pytest.raises(QueryEmitError, match=match):
            world_insert_sql(world, schema)
    # of two offending events, the earlier one is named
    for early, late, match in (({"note": nul_text}, {"amount": too_big}, "U\\+0000"),
                               ({"amount": too_big}, {"note": nul_text}, "64-bit")):
        world = World.of(events[:-2] + [with_cells(events[-2], **early),
                                        with_cells(events[-1], **late)], schema)
        with pytest.raises(QueryEmitError, match=match):
            world_insert_sql(world, schema)
    # conformance is checked before any value is encoded
    wrong_kind = with_cells(events[-1], note=Value.number(7))
    world = World(events[:-1] + [with_cells(events[0], amount=too_big), wrong_kind])
    with pytest.raises(WorldConformanceError):
        world_insert_sql(world, schema)

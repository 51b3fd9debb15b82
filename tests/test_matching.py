"""Well-formedness, match, and softmatch."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import strategies
from odrleval import (
    ComponentTag,
    Datatype,
    Event,
    EventRule,
    FeatureDecl,
    FeatureSchema,
    IllFormedRuleError,
    NULL,
    Not,
    Operator,
    Or,
    RULE_WIDE,
    SimpleCondition,
    Value,
    WitnessDomain,
    World,
    check_well_formed,
    eval_complex,
    match,
    rule_contains,
    softmatch,
    strip_deadline_conditions,
)
from odrleval.conditions import eval_value
from odrleval.matching import MatchTable, bit_positions, match_unchecked
from odrleval.model import (
    EventColumns,
    MEMBERSHIP_OPERATORS,
    SCALAR_OPERATORS,
    ValueKind,
    features_of,
    simple_conditions_of,
)
from conftest import (
    ACTION,
    ACTOR,
    ASSET,
    PAGES,
    RESOLUTION,
    bounds_rule,
    eq,
    make_event,
    make_schema,
    num,
    ts,
    under_hash_seeds,
)


def test_example_rules_are_well_formed(schema, p1, f1, o1):
    for rule in (p1, f1, o1):
        report = check_well_formed(rule, schema)
        assert report.ok, report.violations


def test_missing_action_equality_violates_item_1(schema):
    rule = EventRule.of(eq(ACTOR, "Alice"))
    report = check_well_formed(rule, schema)
    assert not report.ok
    assert any(v.item == 1 for v in report.violations)


def test_component_used_without_pin_violates_item_2(schema):
    # Book.Pages refines Asset, but no Asset equality is present.
    rule = EventRule.of(eq(ACTION, "Read"), num(PAGES, Operator.GT, 250))
    report = check_well_formed(rule, schema)
    assert any(v.item == 2 and v.features == (ASSET,) for v in report.violations)


def test_component_pinned_twice_violates_item_2(schema):
    rule = EventRule.of(eq(ACTION, "Read"), eq(ASSET, "Book"),
                        eq(ASSET, "Picture"))
    report = check_well_formed(rule, schema)
    assert any(v.item == 2 and v.features == (ASSET,) for v in report.violations)


def test_component_reused_in_other_condition_violates_item_2(schema):
    rule = EventRule.of(eq(ACTION, "Read"), Not(eq(ACTION, "Print")))
    report = check_well_formed(rule, schema)
    assert any(v.item == 2 and v.features == (ACTION,) for v in report.violations)


def test_mixed_component_combination_violates_item_3(schema):
    rule = EventRule.of(
        eq(ACTION, "Print"), eq(ASSET, "Book"),
        Or((num(PAGES, Operator.GT, 250), num(RESOLUTION, Operator.LT, 300))),
    )
    report = check_well_formed(rule, schema)
    assert any(v.item == 3 for v in report.violations)


def _walker_says_well_formed(rule, schema) -> bool:
    """Independent structural re-check of the three items, written against the
    raw condition trees rather than the matcher's helpers."""
    simple_at_top = [c for c in rule.conditions if isinstance(c, SimpleCondition)]
    # item 1
    if not any(c.feature == ACTION and c.op is Operator.EQ for c in simple_at_top):
        return False
    # item 2
    used = set()
    for c in rule.conditions:
        used |= features_of(c)
    for i in used:
        gamma = schema.gamma(i)
        if gamma is RULE_WIDE:
            continue
        mentioning = [c for c in rule.conditions if gamma in features_of(c)]
        pinning = [c for c in mentioning
                   if isinstance(c, SimpleCondition) and c.op is Operator.EQ
                   and c.feature == gamma]
        if len(pinning) != 1 or len(mentioning) != 1:
            return False
    # item 3
    for c in rule.conditions:
        if isinstance(c, SimpleCondition):
            continue
        gammas = {schema.gamma(sc.feature) for sc in simple_conditions_of(c)}
        if len(gammas) > 1:
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(strategies.conditions(max_depth=4))
def test_checker_agrees_with_independent_walker(condition):
    import conftest
    schema = conftest.make_schema()
    rule = EventRule.of(eq(ACTION, "Read"), eq(ACTOR, "Bob"), eq(ASSET, "Book"),
                        condition)
    assert check_well_formed(rule, schema).ok == _walker_says_well_formed(rule, schema)


def test_match_example_matrix(schema, p1, f1, o1, e1, e2, e3):
    assert match(p1, e1, schema) is True
    assert match(p1, e2, schema) is False
    assert match(p1, e3, schema) is False
    assert match(f1, e1, schema) is False
    assert match(f1, e2, schema) is False
    assert match(f1, e3, schema) is False
    assert match(o1, e1, schema) is False
    assert match(o1, e2, schema) is True
    assert match(o1, e3, schema) is False


def test_match_requires_well_formed(schema, e1):
    with pytest.raises(IllFormedRuleError):
        match(EventRule.of(eq(ACTOR, "Alice")), e1, schema)


def test_gate_names_first_ill_formed_rule_in_canonical_order():
    # Six rules without an action pin; each entry point must name bad0,
    # whatever order the hash seed gives the policy's frozensets.
    code = """
from conftest import ACTOR, eq, make_schema
from odrleval import (EMPTY_VOCABULARY, EventRule, IllFormedRuleError, LitePolicy,
                      World, emit_violation_queries, evaluate_lite, is_consistent,
                      normalize, saturate)
schema = make_schema()
p = LitePolicy.of([EventRule.of(eq(ACTOR, f"a{k}"), label=f"bad{k}") for k in range(6)])
for call in (lambda: evaluate_lite(p, World.of(()), schema),
             lambda: is_consistent(p, schema),
             lambda: normalize(p, schema),
             lambda: emit_violation_queries(p, schema),
             lambda: saturate(p, EMPTY_VOCABULARY, schema)):
    try:
        call()
    except IllFormedRuleError as exc:
        print(exc)
"""
    expected = "rule bad0: well-formedness item 1 violated by features [1]\n" * 5
    assert under_hash_seeds(code) == [expected] * 3


def test_gate_verdict_belongs_to_its_schema(e1):
    # Print.Resolution refines Action in the demo schema but Asset here,
    # so the same rule is well-formed under one schema and not the other.
    rule = EventRule.of(eq(ACTION, "Print"), num(RESOLUTION, Operator.GT, 100))
    base = make_schema().features
    moved = FeatureSchema(base[:RESOLUTION] + (
        FeatureDecl(RESOLUTION, "Print.Resolution", Datatype.NUMERIC,
                    ComponentTag.REFINES, refines=ASSET),) + base[RESOLUTION + 1:])
    for _ in range(2):
        assert match(rule, e1, make_schema()) is True
        with pytest.raises(IllFormedRuleError, match="item 2 violated by features"):
            match(rule, e1, moved)


def test_gate_names_each_rule_by_its_own_label(schema, e1):
    # The two rules are equal, since labels take no part in equality; the
    # second still gets its own label although its verdict is already known.
    for label in ("first", "second", "first"):
        rule = EventRule.of(eq(ACTOR, "Alice"), label=label)
        with pytest.raises(IllFormedRuleError) as exc:
            match(rule, e1, schema)
        assert str(exc.value).startswith(f"rule {label}: ")
        assert {v.rule_label for v in exc.value.violations} == {label}


def test_softmatch_keeps_strict_deadline(schema, o1, e2):
    # o1 ends in <Datetime, <, 3>, which is not a <= deadline, so it stays.
    assert softmatch(o1, e2, schema) is True
    late = make_event(4, "Read", "Bob", "Book", pages=450)
    assert softmatch(o1, late, schema) is False


def test_softmatch_removes_lteq_deadline(schema):
    rule = EventRule.of(eq(ACTION, "Read"), eq(ACTOR, "Bob"), eq(ASSET, "Book"),
                        ts(Operator.LTEQ, 1))
    e = make_event(2, "Read", "Bob", "Book")
    assert match(rule, e, schema) is False
    assert softmatch(rule, e, schema) is True


def test_softmatch_equals_match_without_deadlines(schema, p1, e1, e2, e3):
    for e in (e1, e2, e3):
        assert softmatch(p1, e, schema) == match(p1, e, schema)


def test_strip_reaches_nested_deadlines(schema):
    nested = Or((ts(Operator.LTEQ, 1), num(PAGES, Operator.GT, 1000)))
    rule = EventRule.of(eq(ACTION, "Read"), eq(ASSET, "Book"), nested)
    stripped = strip_deadline_conditions(rule)
    # the disjunction collapses to true and the conjunct disappears
    assert stripped.conditions == frozenset(
        {eq(ACTION, "Read"), eq(ASSET, "Book")})


@settings(max_examples=150, deadline=None)
@given(strategies.well_formed_rules(), strategies.events())
def test_match_implies_softmatch(rule, e):
    import conftest
    schema = conftest.make_schema()
    if match(rule, e, schema):
        assert softmatch(rule, e, schema)


def test_negated_deadline_is_retained_by_softmatch(schema):
    # blanking a deadline under negation would strengthen the rule, so it
    # stays; softmatch may only be more permissive than match
    rule = EventRule.of(eq(ACTION, "Read"), Not(ts(Operator.LTEQ, 5)))
    early = make_event(2, "Read", "Bob", "Book")
    late = make_event(9, "Read", "Bob", "Book")
    assert match(rule, late, schema) is True
    assert softmatch(rule, late, schema) is True
    assert match(rule, early, schema) is False
    assert softmatch(rule, early, schema) is False


def test_xor_shielded_deadline_is_retained_by_softmatch(schema):
    from odrleval import Xor
    rule = EventRule.of(
        eq(ACTION, "Read"),
        Xor(ts(Operator.LTEQ, 5), ts(Operator.GTEQ, 8)))
    for when, expected in ((4, True), (6, False), (9, True)):
        e = make_event(when, "Read", "Bob", "Book")
        assert match(rule, e, schema) is expected
        # mixed polarity: the deadline stays, so soft and full match agree
        assert softmatch(rule, e, schema) is expected


# -- the match table against the interpreter ----------------------------------

def tagged_bob(*tags):
    return Event(make_event(1, "Read", "Bob", "Book").values
                 + (Value.identifier_set(tags),))


@settings(max_examples=400, deadline=None)
@given(st.lists(strategies.tagged_events(), min_size=1, max_size=12),
       st.lists(strategies.tagged_conditions(), min_size=1, max_size=3))
# isA reads Actor and its class feature, and a later condition reads Actor
# again: each must see its own feature's column
@example([tagged_bob("Staff"), tagged_bob("Guest")],
         [SimpleCondition(ACTOR, Operator.IS_A, Value.identifier("Staff")),
          eq(ACTOR, "Bob")])
def test_match_table_agrees_with_eval_complex(events, conditions):
    schema = strategies.tagged_schema()
    table = MatchTable(EventColumns(tuple(events)), schema)
    for c in conditions:
        expected = [eval_complex(c, e, schema) for e in events]
        assert [bool(table.condition(c) >> j & 1) for j in range(len(events))] == expected
    rule = EventRule(frozenset(conditions))
    expected = [j for j, e in enumerate(events) if match_unchecked(rule, e, schema)]
    assert list(bit_positions(table.rule(rule))) == expected


# -- the match table over a witness domain ------------------------------------

def assert_domain_table_equals_listed(rules, schema):
    """The table computed from the domain's product structure gives every
    condition the bitset of the table over its listed events."""
    domain = WitnessDomain.for_rules(schema, rules)
    events = tuple(domain.events())
    assert len(domain) == len(events)
    assert [domain[j] for j in range(len(events))] == list(events)
    with pytest.raises(IndexError):
        domain[len(events)]
    product, listed = MatchTable(domain, schema), MatchTable(EventColumns(events), schema)
    for c in {c for r in rules for top in r.conditions
              for c in (top, *simple_conditions_of(top))}:
        assert product.condition(c) == listed.condition(c), c
    for r in rules:
        assert product.rule(r) == listed.rule(r)


@settings(max_examples=150, deadline=None)
@given(st.lists(strategies.well_formed_rules(), min_size=1, max_size=2))
def test_domain_table_equals_listed_table(rules):
    import conftest
    assert_domain_table_equals_listed(rules, conftest.make_schema())


@settings(max_examples=150, deadline=None)
@given(st.lists(strategies.tagged_conditions(), min_size=1, max_size=3))
def test_domain_table_equals_listed_table_with_classes(conditions):
    # isA reads two features: the condition's own and its class feature
    assert_domain_table_equals_listed(
        [EventRule(frozenset(conditions))], strategies.tagged_schema())


def test_domain_table_with_class_feature_declared_first():
    # isA on Actor (3) reads Tags (2), a feature declared before its own.
    base = make_schema().features
    schema = FeatureSchema(base[:2] + (
        FeatureDecl(2, "Tags", Datatype.IDENTIFIER_SET, ComponentTag.RULE),
        FeatureDecl(3, "Actor", Datatype.IDENTIFIER, ComponentTag.PARTY,
                    party_role="assignee", class_feature=2)))

    def is_a(*classes):
        return SimpleCondition(3, Operator.IS_A, Value.identifier_set(classes))
    rules = [
        EventRule.of(eq(ACTION, "Read"), is_a("Staff"), Not(is_a("Guest"))),
        EventRule.of(eq(ACTION, "Read"), eq(3, "Bob"),
                     SimpleCondition(2, Operator.HAS_PART,
                                     Value.identifier_set(["Guest"]))),
    ]
    assert_domain_table_equals_listed(rules, schema)


def test_domain_table_lists_no_events(schema, monkeypatch):
    # The 60-bound rule's domain holds 89,304 events; the table reads each
    # feature's probes and builds no event.
    built = []
    post_init = Event.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Event, "__post_init__", counting)
    rule = bounds_rule(60)
    assert rule_contains(rule, rule, schema)
    assert len(built) == 0


# -- lookups and bisections against the per-value test ----------------------

def _column_values():
    """Values of every kind for one column, with equal values written
    differently (1 and 1.0, 0.0 and -0.0) and text holding U+0000."""
    strings = ("", "\x00", "a", "a\x00", "b")
    return st.one_of(
        st.just(NULL),
        st.integers(-2, 2).map(Value.timestamp),
        st.sampled_from((-1, 0, 0.0, -0.0, 1, 1.0, 2.5, 2 ** 60)).map(Value.number),
        st.sampled_from(strings).map(Value.text),
        st.sampled_from(strings).map(Value.identifier),
        st.frozensets(st.sampled_from(strings), max_size=2).map(Value.identifier_set))


def _lookup_conditions():
    scalar = _column_values().filter(
        lambda v: not v.is_null and v.kind is not ValueKind.IDENTIFIER_SET)
    members = st.frozensets(st.sampled_from(("", "\x00", "a", "a\x00", "b", "c")),
                            max_size=3).map(Value.identifier_set)
    return st.one_of(
        st.builds(SimpleCondition, st.just(ACTOR),
                  st.sampled_from(sorted(SCALAR_OPERATORS)), scalar),
        st.builds(SimpleCondition, st.just(ACTOR),
                  st.sampled_from(sorted(MEMBERSHIP_OPERATORS)), members))


def _single_column_sequences(values):
    """A world's event list and a witness domain whose Actor column holds
    ``values``; every other feature holds one value."""
    def event(t, v):
        return Event((Value.timestamp(t), Value.identifier("Read"), v, NULL, NULL, NULL))
    events = [event(t, v) for t, v in enumerate(values)]
    domain = WitnessDomain(make_schema(), ((Value.timestamp(0),), (Value.identifier("Read"),),
                                           tuple(values), (NULL,), (NULL,), (NULL,)))
    return events, domain


@settings(max_examples=400, deadline=None)
@given(st.lists(_column_values(), min_size=1, max_size=10),
       st.lists(_lookup_conditions(), min_size=1, max_size=4))
@example([Value.number(1), Value.number(1.0), Value.number(-0.0), Value.number(0)],
         [num(ACTOR, op, x) for op in (Operator.EQ, Operator.GT, Operator.LTEQ)
          for x in (1, 0.0)])
@example([Value.text("a"), Value.identifier("a"), Value.text("a\x00"), NULL],
         [SimpleCondition(ACTOR, op, Value.identifier_set({"a"}))
          for op in (Operator.IS_ANY_OF, Operator.IS_NONE_OF)]
         + [SimpleCondition(ACTOR, Operator.GT, Value.text("a"))])
def test_lookup_masks_equal_value_test_masks(values, conditions):
    # A world's column holds each value once; a witness-domain column may
    # repeat a value, and a lookup must flag every position holding it.
    schema = make_schema()
    events, domain = _single_column_sequences(values)
    for source, sequence in ((EventColumns(tuple(events)), events),
                             (domain, list(domain.events()))):
        table = MatchTable(source, schema)
        for c in conditions:
            expected = sum(1 << j for j, e in enumerate(sequence)
                           if eval_value(c, e.value(ACTOR)))
            assert table.condition(c) == expected, c


def test_order_condition_makes_no_value_tests(schema, monkeypatch):
    calls = []
    monkeypatch.setattr("odrleval.matching.eval_value",
                        lambda c, v: calls.append((c, v)) or eval_value(c, v))
    events = tuple(make_event(t, "Read", "Bob", "Book") for t in range(2000))
    table = MatchTable(EventColumns(events), schema)
    assert bit_positions(table.condition(ts(Operator.GTEQ, 1500))) == list(range(1500, 2000))
    assert calls == []


@settings(max_examples=150, deadline=None)
@given(st.lists(strategies.events(), max_size=20))
def test_ordered_world_follows_event_sort_key(events):
    # Few distinct timestamps, so most worlds hold timestamp ties.
    world = World(frozenset(events))
    assert world.ordered() == tuple(sorted(world.events, key=Event.sort_key))

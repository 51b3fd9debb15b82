"""Well-formedness, match, and softmatch."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies
from odrleval import (
    Event,
    EventRule,
    IllFormedRuleError,
    Not,
    Operator,
    Or,
    RULE_WIDE,
    SimpleCondition,
    World,
    check_well_formed,
    eval_complex,
    match,
    softmatch,
    strip_deadline_conditions,
)
from odrleval.matching import MatchTable, bit_positions, match_unchecked
from odrleval.model import features_of, simple_conditions_of
from conftest import (
    ACTION,
    ACTOR,
    ASSET,
    PAGES,
    RESOLUTION,
    eq,
    make_event,
    num,
    ts,
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

@settings(max_examples=400, deadline=None)
@given(st.lists(strategies.tagged_events(), min_size=1, max_size=12),
       st.lists(strategies.tagged_conditions(), min_size=1, max_size=3))
def test_match_table_agrees_with_eval_complex(events, conditions):
    schema = strategies.tagged_schema()
    table = MatchTable(events, schema)
    for c in conditions:
        expected = [eval_complex(c, e, schema) for e in events]
        assert [bool(table.condition(c) >> j & 1) for j in range(len(events))] == expected
    rule = EventRule(frozenset(conditions))
    expected = [j for j, e in enumerate(events) if match_unchecked(rule, e, schema)]
    assert list(bit_positions(table.rule(rule))) == expected


@settings(max_examples=150, deadline=None)
@given(st.lists(strategies.events(), max_size=20))
def test_ordered_world_follows_event_sort_key(events):
    # Few distinct timestamps, so most worlds hold timestamp ties.
    world = World(frozenset(events))
    assert world.ordered() == tuple(sorted(world.events, key=Event.sort_key))

"""Violation evaluation for lite and full policies."""

from __future__ import annotations

import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

import strategies
from odrleval import (
    Clause,
    EventRule,
    FullPolicy,
    LitePolicy,
    Operator,
    World,
    emit_violation_queries,
    evaluate_full,
    evaluate_lite,
    is_valid,
)
from conftest import ACTION, ACTOR, ASSET, eq, make_event, ts
from test_sqlgen import clause_events, run_clauses


def test_example_policy_violates_demo_world(schema, example_policy, world, e2, e3):
    report = evaluate_lite(example_policy, world, schema)
    assert not report.valid
    permissions = report.by_clause(Clause.PERMISSIONS)
    witnesses = {f.witnesses[0] for f in permissions}
    assert witnesses == {e2, e3}
    assert report.by_clause(Clause.PROHIBITIONS) == ()
    assert report.by_clause(Clause.OBLIGATIONS) == ()


def test_empty_policy_on_empty_world_is_valid(schema):
    policy = LitePolicy.of()
    report = evaluate_lite(policy, World.of(()), schema)
    assert report.valid


def test_obligation_on_empty_world_fires(schema, o1):
    policy = LitePolicy.of((), (), {o1})
    report = evaluate_lite(policy, World.of(()), schema)
    assert not report.valid
    (finding,) = report.findings
    assert finding.clause is Clause.OBLIGATIONS
    assert finding.rules == ("o1",)
    assert finding.missing


def test_empty_permission_set_rejects_every_event(schema, world):
    report = evaluate_lite(LitePolicy.of(), world, schema)
    assert len(report.by_clause(Clause.PERMISSIONS)) == len(world)


def test_findings_are_ordered_by_clause(schema, o1, world):
    prohibition = EventRule.of(eq(ACTION, "Print"), eq(ACTOR, "Alice"),
                               eq(ASSET, "Picture"), label="no-print")
    policy = LitePolicy.of((), {prohibition}, {EventRule.of(
        eq(ACTION, "Read"), eq(ACTOR, "Carol"), label="unmet")})
    report = evaluate_lite(policy, world, schema)
    clauses = [f.clause for f in report.findings]
    assert clauses == sorted(clauses, key=list(Clause).index)
    assert Clause.PERMISSIONS in clauses
    assert Clause.PROHIBITIONS in clauses
    assert Clause.OBLIGATIONS in clauses


def test_is_valid_examples(schema, example_policy, world):
    assert is_valid(example_policy, world, schema) is False
    assert is_valid(LitePolicy.of(), World.of(()), schema) is True


def test_prohibition_witnesses_are_world_members(schema, world):
    prohibition = EventRule.of(eq(ACTION, "Print"), label="no-print")
    report = evaluate_lite(LitePolicy.of((), {prohibition}), world, schema)
    for f in report.by_clause(Clause.PROHIBITIONS):
        assert f.witnesses[0] in world


# -- full policies -----------------------------------------------------------

def evaluated_both_ways(policy, world, schema):
    """``evaluate_full``'s report, once the emitted SQL has found the same
    pairing witnesses and the same obligation-consequence verdict."""
    report = evaluate_full(policy, world, schema)
    results = run_clauses(emit_violation_queries(policy, schema), world, schema)
    for clause in (Clause.PERMISSION_DUTIES, Clause.PERMISSION_DUTIES_WITH_CONSEQUENCES,
                   Clause.PROHIBITION_REMEDIES):
        assert (clause_events(results[f"{clause.value}-violation"], world)
                == {f.witnesses[0] for f in report.by_clause(clause)}), clause
    assert (bool(results["obligation-consequences-violation"])
            == bool(report.by_clause(Clause.OBLIGATION_CONSEQUENCES)))
    return report


def duty_policy():
    perm = EventRule.of(eq(ACTION, "Print"), eq(ACTOR, "Alice"),
                        eq(ASSET, "Book"), label="alice-print")
    duty = EventRule.of(eq(ACTION, "Read"), eq(ACTOR, "Bob"),
                        eq(ASSET, "Book"), label="bob-read")
    lite = LitePolicy.of({perm, duty})
    return FullPolicy.of(lite, duty_pairs={(perm, duty)})


def test_duty_after_permission_is_a_violation(schema):
    world = World.of((
        make_event(1, "Print", "Alice", "Book"),
        make_event(2, "Read", "Bob", "Book"),
    ))
    report = evaluate_full(duty_policy(), world, schema)
    duties = report.by_clause(Clause.PERMISSION_DUTIES)
    assert len(duties) == 1
    assert duties[0].witnesses[0].timestamp == 1
    assert not report.valid


def test_duty_before_permission_is_clean(schema):
    world = World.of((
        make_event(1, "Read", "Bob", "Book"),
        make_event(2, "Print", "Alice", "Book"),
    ))
    report = evaluate_full(duty_policy(), world, schema)
    assert report.valid


def test_simultaneous_duty_counts_as_prior(schema):
    world = World.of((
        make_event(2, "Read", "Bob", "Book"),
        make_event(2, "Print", "Alice", "Book"),
    ))
    assert evaluate_full(duty_policy(), world, schema).valid


def dpc_policy():
    perm = EventRule.of(eq(ACTION, "Print"), eq(ACTOR, "Alice"),
                        eq(ASSET, "Book"), label="alice-print")
    duty = EventRule.of(eq(ACTION, "Read"), eq(ACTOR, "Bob"),
                        eq(ASSET, "Book"), label="bob-read")
    consequence = EventRule.of(eq(ACTION, "Pay"), eq(ACTOR, "Alice"),
                               label="alice-pays")
    lite = LitePolicy.of({perm, duty, consequence})
    return FullPolicy.of(lite, duty_consequence_triples={(perm, duty, consequence)})


def test_dpc_prior_duty_clears(schema):
    world = World.of((
        make_event(1, "Read", "Bob", "Book"),
        make_event(2, "Print", "Alice", "Book"),
    ))
    assert evaluate_full(dpc_policy(), world, schema).valid


def test_dpc_late_duty_with_consequence_clears(schema):
    world = World.of((
        make_event(1, "Print", "Alice", "Book"),
        make_event(2, "Read", "Bob", "Book"),
        make_event(3, "Pay", "Alice", None),
    ))
    assert evaluate_full(dpc_policy(), world, schema).valid


def test_dpc_late_duty_and_simultaneous_consequence_clear(schema):
    world = World.of((
        make_event(2, "Print", "Alice", "Book"),
        make_event(2, "Pay", "Alice", None),
        make_event(3, "Read", "Bob", "Book"),
    ))
    assert evaluated_both_ways(dpc_policy(), world, schema).valid


def test_dpc_late_duty_without_consequence_fires(schema):
    world = World.of((
        make_event(1, "Print", "Alice", "Book"),
        make_event(2, "Read", "Bob", "Book"),
    ))
    report = evaluate_full(dpc_policy(), world, schema)
    assert report.by_clause(Clause.PERMISSION_DUTIES_WITH_CONSEQUENCES)


def test_dpc_consequence_without_late_duty_fires(schema):
    world = World.of((
        make_event(1, "Print", "Alice", "Book"),
        make_event(3, "Pay", "Alice", None),
    ))
    report = evaluate_full(dpc_policy(), world, schema)
    assert report.by_clause(Clause.PERMISSION_DUTIES_WITH_CONSEQUENCES)


def test_dpc_finding_names_what_is_missing_after_the_event(schema):
    def missing(*events):
        report = evaluate_full(dpc_policy(), World.of(events), schema)
        return [f.missing for f in report.by_clause(Clause.PERMISSION_DUTIES_WITH_CONSEQUENCES)]
    permitted = make_event(1, "Print", "Alice", "Book")
    assert missing(permitted, make_event(2, "Read", "Bob", "Book")) == [
        "no prior duty event and no subsequent consequence event"]
    assert missing(permitted, make_event(3, "Pay", "Alice", None)) == [
        "no prior duty event and no subsequent duty event"]


def remedy_policy():
    prohibition = EventRule.of(eq(ACTION, "Print"), eq(ACTOR, "Bob"),
                               label="bob-no-print")
    remedy = EventRule.of(eq(ACTION, "Pay"), eq(ACTOR, "Bob"), label="bob-pays")
    anything = [EventRule.of(eq(ACTION, a), label=f"any-{a}")
                for a in ("Print", "Pay")]
    lite = LitePolicy.of(set(anything) | {remedy})
    return FullPolicy.of(lite, remedy_pairs={(prohibition, remedy)})


def test_remedy_after_breach_clears(schema):
    world = World.of((
        make_event(1, "Print", "Bob", None),
        make_event(2, "Pay", "Bob", None),
    ))
    assert evaluate_full(remedy_policy(), world, schema).valid


def test_remedy_at_the_breach_timestamp_clears(schema):
    world = World.of((
        make_event(1, "Print", "Bob", None),
        make_event(1, "Pay", "Bob", None),
    ))
    assert evaluated_both_ways(remedy_policy(), world, schema).valid


def test_missing_remedy_fires(schema):
    world = World.of((make_event(1, "Print", "Bob", None),))
    report = evaluate_full(remedy_policy(), world, schema)
    assert report.by_clause(Clause.PROHIBITION_REMEDIES)


def test_remedy_before_breach_does_not_count(schema):
    world = World.of((
        make_event(1, "Pay", "Bob", None),
        make_event(2, "Print", "Bob", None),
    ))
    report = evaluate_full(remedy_policy(), world, schema)
    assert report.by_clause(Clause.PROHIBITION_REMEDIES)


def oc_policy():
    obligation = EventRule.of(eq(ACTION, "Read"), eq(ACTOR, "Bob"),
                              eq(ASSET, "Book"), ts(Operator.LTEQ, 2),
                              label="read-by-2")
    consequence = EventRule.of(eq(ACTION, "Pay"), eq(ACTOR, "Bob"), label="bob-pays")
    anything = [EventRule.of(eq(ACTION, a), label=f"any-{a}")
                for a in ("Read", "Pay")]
    lite = LitePolicy.of(set(anything) | {consequence})
    return FullPolicy.of(
        lite, obligation_consequence_pairs={(obligation, consequence)})


def test_oc_late_fulfilment_with_consequence_clears(schema):
    world = World.of((
        make_event(5, "Read", "Bob", "Book"),
        make_event(6, "Pay", "Bob", None),
    ))
    report = evaluate_full(oc_policy(), world, schema)
    assert report.by_clause(Clause.OBLIGATION_CONSEQUENCES) == ()
    assert report.valid


def test_oc_consequence_at_the_deadline_clears_and_one_tick_earlier_does_not(schema):
    # oc_policy's deadline is timestamp 2
    at_deadline = World.of((
        make_event(2, "Pay", "Bob", None),
        make_event(5, "Read", "Bob", "Book"),
    ))
    assert evaluated_both_ways(oc_policy(), at_deadline, schema).valid
    before = World.of((
        make_event(1, "Pay", "Bob", None),
        make_event(5, "Read", "Bob", "Book"),
    ))
    report = evaluated_both_ways(oc_policy(), before, schema)
    assert [f.clause for f in report.findings] == [Clause.OBLIGATION_CONSEQUENCES]


def test_oc_without_consequence_fires(schema):
    world = World.of((make_event(5, "Read", "Bob", "Book"),))
    report = evaluate_full(oc_policy(), world, schema)
    assert len(report.by_clause(Clause.OBLIGATION_CONSEQUENCES)) == 1


def test_oc_fulfilled_in_time_is_clean(schema):
    world = World.of((make_event(1, "Read", "Bob", "Book"),))
    report = evaluate_full(oc_policy(), world, schema)
    assert report.by_clause(Clause.OBLIGATION_CONSEQUENCES) == ()


def test_full_with_empty_extras_equals_lite(schema, example_policy, world):
    full = FullPolicy.of(example_policy)
    assert (evaluate_full(full, world, schema).findings
            == evaluate_lite(example_policy, world, schema).findings)


@settings(max_examples=60, deadline=None)
@given(st.lists(strategies.events(), min_size=0, max_size=4),
       st.lists(strategies.well_formed_rules(), min_size=0, max_size=2),
       st.lists(strategies.well_formed_rules(), min_size=0, max_size=2))
def test_full_empty_extras_matches_lite_on_random_inputs(events, perms, prohibs):
    import conftest
    schema = conftest.make_schema()
    world = World.of(events)
    lite = LitePolicy.of(perms, prohibs)
    assert (evaluate_full(FullPolicy.of(lite), world, schema).findings
            == evaluate_lite(lite, world, schema).findings)


@settings(max_examples=60, deadline=None)
@given(st.lists(strategies.events(), min_size=1, max_size=3),
       strategies.events(),
       st.lists(strategies.well_formed_rules(), min_size=1, max_size=2))
def test_adding_events_never_removes_prohibition_findings(events, extra, prohibs):
    import conftest
    schema = conftest.make_schema()
    policy = LitePolicy.of((), prohibs)
    before = evaluate_lite(policy, World.of(events), schema)
    after = evaluate_lite(policy, World.of(events + [extra]), schema)
    before_keys = {(f.rules, f.witnesses) for f in before.by_clause(Clause.PROHIBITIONS)}
    after_keys = {(f.rules, f.witnesses) for f in after.by_clause(Clause.PROHIBITIONS)}
    assert before_keys <= after_keys


@settings(max_examples=60, deadline=None)
@given(st.lists(strategies.events(), min_size=0, max_size=4))
def test_permissions_clause_unfalsifiable_with_universal_permissions(events):
    import conftest
    schema = conftest.make_schema()
    universal = {EventRule.of(eq(ACTION, a), label=f"any-{a}")
                 for a in strategies.ACTIONS}
    report = evaluate_lite(LitePolicy.of(universal), World.of(events), schema)
    assert report.by_clause(Clause.PERMISSIONS) == ()
    assert report.valid


def test_deadline_evaluation_memory_is_linear_in_log_size(schema):
    """A deadline condition compiles a Datetime match set over a log whose
    timestamps are all distinct; the table must stay linear in the log."""
    n = 100_000
    world = World.of(tuple(
        make_event(10 + j, "Read", "Bob", "Book") if j % 2
        else make_event(10 + j, "Pay", "Bob", None) for j in range(n)))
    tracemalloc.start()
    try:
        report = evaluate_full(oc_policy(), world, schema)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.valid
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.0f} MiB for {n} events"

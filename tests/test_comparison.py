"""Containment, overlap, consistency, normalization and conflict detection."""

from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings

import strategies
from generators import (
    pairwise_set_contains,
    random_consistent_policy,
    random_full_policy,
    random_raw_policy,
    representative_worlds,
)
from odrleval import (
    And,
    DomainTooLargeError,
    EngineError,
    Event,
    EventRule,
    FullPolicy,
    InconsistentPolicyError,
    LitePolicy,
    NormalizationError,
    Not,
    Operator,
    SimpleCondition,
    Value,
    WitnessDomain,
    World,
    asymmetric_conflict,
    brute_force_containment,
    evaluate_full,
    is_consistent,
    is_valid,
    normalize,
    rule_contains,
    rule_satisfiable,
    rules_overlap,
    set_contains,
    symmetric_conflict,
)
from odrleval import comparison
from odrleval.comparison import (
    CAUSE_OBLIGATIONS,
    CAUSE_PERMISSIONS,
    _facts,
    _judged_rules,
    _reference_valid,
)
from odrleval.model import PAIRINGS, ordered_rules
from conftest import (
    ACTION,
    ACTOR,
    ASSET,
    PAGES,
    RESOLUTION,
    bounds_rule,
    eq,
    make_event,
    num,
    ts,
)


def bob_read_book(*extra, label=None) -> EventRule:
    return EventRule.of(eq(ACTION, "Read"), eq(ACTOR, "Bob"), eq(ASSET, "Book"),
                        *extra, label=label)


def alice_print_picture(*extra, label=None) -> EventRule:
    return EventRule.of(eq(ACTION, "Print"), eq(ACTOR, "Alice"),
                        eq(ASSET, "Picture"), *extra, label=label)


# -- an independent grid oracle for the derived containment facts ------------

def grid_events():
    """A plain nested-loop event grid, independent of the witness-domain
    machinery, dense enough for the constants used in these tests."""
    for t in range(0, 12):
        for action in ("Print", "Read"):
            for actor in ("Alice", "Bob", "Zoe", None):
                for asset in ("Picture", "Book", None):
                    for resolution in (None, 100, 400, 401, 500):
                        for pages in (None, 150, 200, 225, 250, 251, 300):
                            yield make_event(t, action, actor, asset,
                                             resolution=resolution, pages=pages)


def grid_implies(rule_a, rule_b, schema) -> bool:
    from odrleval.matching import match_unchecked
    return all(match_unchecked(rule_b, e, schema)
               for e in grid_events() if match_unchecked(rule_a, e, schema))


def test_containment_is_reflexive(schema, p1, f1, o1):
    for rule in (p1, f1, o1):
        assert rule_contains(rule, rule, schema)


def test_containment_narrow_range_in_wide_range(schema):
    narrow = bob_read_book(
        And((ts(Operator.GTEQ, 3), ts(Operator.LTEQ, 5))),
        num(PAGES, Operator.GT, 250))
    wide = bob_read_book(
        And((ts(Operator.GTEQ, 1), ts(Operator.LTEQ, 10))),
        num(PAGES, Operator.GT, 200))
    # expected values frozen from the independent grid oracle
    assert grid_implies(narrow, wide, schema) is True
    assert grid_implies(wide, narrow, schema) is False
    assert rule_contains(narrow, wide, schema) is True
    assert rule_contains(wide, narrow, schema) is False


def test_containment_fails_against_added_refinement(schema):
    plain = alice_print_picture()
    capped = alice_print_picture(num(RESOLUTION, Operator.LTEQ, 400))
    assert grid_implies(plain, capped, schema) is False
    assert rule_contains(plain, capped, schema) is False
    assert rule_contains(capped, plain, schema) is True


def test_overlap_disjoint_equalities(schema, p1, f1):
    assert rules_overlap(p1, f1, schema) is False


def test_overlap_with_self(schema, p1):
    assert rule_satisfiable(p1, schema)
    assert rules_overlap(p1, p1, schema) is True


def test_overlap_at_shared_boundary(schema):
    a = bob_read_book(And((ts(Operator.GTEQ, 3), ts(Operator.LTEQ, 5))))
    b = bob_read_book(And((ts(Operator.GTEQ, 5), ts(Operator.LTEQ, 9))))
    assert rules_overlap(a, b, schema) is True
    c = bob_read_book(And((ts(Operator.GTEQ, 6), ts(Operator.LTEQ, 9))))
    assert rules_overlap(a, c, schema) is False


@settings(max_examples=40, deadline=None)
@given(strategies.well_formed_rules(), strategies.well_formed_rules(),
       strategies.well_formed_rules())
def test_containment_is_transitive(a, b, c):
    import conftest
    schema = conftest.make_schema()
    if rule_contains(a, b, schema) and rule_contains(b, c, schema):
        assert rule_contains(a, c, schema)


@settings(max_examples=40, deadline=None)
@given(strategies.well_formed_rules(), strategies.well_formed_rules(),
       strategies.well_formed_rules())
def test_contained_rule_transfers_overlap(a, b, c):
    import conftest
    schema = conftest.make_schema()
    if rule_contains(a, b, schema) and rules_overlap(a, c, schema):
        assert rules_overlap(b, c, schema)


def test_pairwise_shortcut_is_sound(schema):
    rng = Random(7)
    for _ in range(30):
        p = random_consistent_policy(rng)
        q = random_consistent_policy(rng)
        if pairwise_set_contains(p.permissions, q.permissions, schema):
            assert set_contains(p.permissions, q.permissions, schema)


# -- consistency --------------------------------------------------------------

def test_consistent_disjoint_policy(schema):
    p = LitePolicy.of({alice_print_picture()}, {bob_read_book()}, ())
    assert is_consistent(p, schema) is True


def test_permission_equal_to_prohibition_is_inconsistent(schema):
    r = alice_print_picture()
    assert is_consistent(LitePolicy.of({r}, {r}, ()), schema) is False


def test_unpermitted_obligation_is_inconsistent(schema):
    p = LitePolicy.of((), (), {bob_read_book()})
    assert is_consistent(p, schema) is False


# -- normalization ------------------------------------------------------------

def worlds_for(schema, p, q, max_size):
    return representative_worlds(
        schema, (p.all_rules(), q.all_rules()), max_size)


def assert_equivalent(schema, p, q, max_size):
    for world in worlds_for(schema, p, q, max_size):
        assert is_valid(p, world, schema) == is_valid(q, world, schema), \
            world.ordered()


def test_normalize_consistent_policy_drops_only_prohibitions(schema):
    p = LitePolicy.of({alice_print_picture(label="p")},
                      {bob_read_book(num(PAGES, Operator.GT, 250), label="f")},
                      ())
    out = normalize(p, schema)
    assert out.permissions == p.permissions
    assert out.obligations == p.obligations
    assert out.prohibitions == frozenset()
    assert is_consistent(out, schema)
    assert_equivalent(schema, p, out, 2)


def test_normalize_carves_forbidden_refinement(schema):
    permission = alice_print_picture(label="print")
    banned = alice_print_picture(num(RESOLUTION, Operator.GT, 1000), label="hi-res")
    p = LitePolicy.of({permission}, {banned}, ())
    out = normalize(p, schema)
    expected = EventRule(
        permission.conditions | {Not(num(RESOLUTION, Operator.GT, 1000))})
    assert out.permissions == frozenset({expected})
    assert out.prohibitions == frozenset()
    assert is_consistent(out, schema)
    # the carved permission still admits the null-resolution branch
    null_res = make_event(1, "Print", "Alice", "Picture")
    from odrleval import match
    assert match(expected, null_res, schema) is True
    assert_equivalent(schema, p, out, 2)


def test_normalize_drops_fully_unpermitted_obligation(schema):
    p = LitePolicy.of((), (), {bob_read_book(label="o")})
    out = normalize(p, schema)
    assert out.obligations == frozenset()
    assert out.permissions == frozenset()
    assert is_consistent(out, schema)


def test_normalize_restricts_partially_permitted_obligation(schema):
    perm = bob_read_book(num(PAGES, Operator.GT, 250), label="perm")
    p = LitePolicy.of({perm}, (), {bob_read_book(label="o")})
    out = normalize(p, schema)
    (obligation,) = out.obligations
    # the obligation narrowed to its permitted part
    assert obligation.conditions == perm.conditions | bob_read_book().conditions
    assert is_consistent(out, schema)


def test_normalize_inexpressible_core_gap_raises(schema):
    # the prohibition pins Actor, which the permission leaves open; the
    # difference "anyone but Bob" has no well-formed rule form
    p = LitePolicy.of({EventRule.of(eq(ACTION, "Read"), label="anyone")},
                      {bob_read_book(label="not-bob")}, ())
    with pytest.raises(NormalizationError) as err:
        normalize(p, schema)
    assert err.value.kind == "inexpressible-difference"


def test_normalize_blowup_cap(schema):
    permission = bob_read_book(label="p")
    # two non-pin conditions give two disjuncts, exceeding a cap of one
    prohibition = bob_read_book(num(PAGES, Operator.GT, 250),
                                ts(Operator.GTEQ, 3), label="f")
    with pytest.raises(NormalizationError) as err:
        normalize(LitePolicy.of({permission}, {prohibition}, ()),
                  schema, max_rules=1)
    assert err.value.kind == "normalization-blowup"


def test_normalize_total_permission_cap(schema):
    # each permission carves to itself, but together they pass a cap of one
    p = LitePolicy.of({bob_read_book(label="p"), alice_print_picture(label="q")})
    with pytest.raises(NormalizationError, match="more than 1 permissions") as err:
        normalize(p, schema, max_rules=1)
    assert err.value.kind == "normalization-blowup"


def test_normalize_obligation_complement_mixing_components_raises(schema):
    # the prohibition's non-pin conditions read the timestamp (rule-wide)
    # and the page count (a refinement of Asset): negated as one block they
    # would mix components, so the obligation cannot stay one rule
    prohibition = bob_read_book(ts(Operator.LTEQ, 5), num(PAGES, Operator.GT, 250),
                                label="f")
    p = LitePolicy.of({bob_read_book(label="p")}, {prohibition},
                      {bob_read_book(label="o")})
    with pytest.raises(NormalizationError, match="mixes components") as err:
        normalize(p, schema)
    assert err.value.kind == "inexpressible-difference"


def test_normalize_obligation_split_across_permissions_raises(schema):
    # the obligation is permitted only in two disjoint page ranges, held by
    # two permissions; its permitted part is no single well-formed rule
    p = LitePolicy.of({bob_read_book(num(PAGES, Operator.LTEQ, 100), label="few"),
                       bob_read_book(num(PAGES, Operator.GT, 200), label="many")},
                      (), {bob_read_book(label="o")})
    with pytest.raises(NormalizationError, match="across several permissions") as err:
        normalize(p, schema)
    assert err.value.kind == "inexpressible-difference"


def test_normalize_output_obligation_survives_carving(schema):
    p = LitePolicy.of(
        {bob_read_book(label="p")},
        {bob_read_book(num(PAGES, Operator.GT, 250), label="f")},
        {bob_read_book(label="o")})
    out = normalize(p, schema)
    assert is_consistent(out, schema)
    (obligation,) = out.obligations
    assert Not(num(PAGES, Operator.GT, 250)) in obligation.conditions
    assert_equivalent(schema, p, out, 3)


# -- conflicts ----------------------------------------------------------------

def test_asymmetric_permission_gap(schema):
    requester = LitePolicy.of({alice_print_picture(label="req")})
    provider = LitePolicy.of(
        {alice_print_picture(num(RESOLUTION, Operator.LTEQ, 400), label="prov")})
    verdict = asymmetric_conflict(requester, provider, schema)
    assert verdict.conflict
    assert verdict.cause == CAUSE_PERMISSIONS
    assert verdict.witness is not None
    assert not is_valid(provider, verdict.witness, schema)
    assert is_valid(requester, verdict.witness, schema)


def test_asymmetric_reflexive_no_conflict(schema, example_policy):
    requester = LitePolicy.of({alice_print_picture(label="req")})
    assert asymmetric_conflict(requester, requester, schema).conflict is False


def test_asymmetric_missing_obligation_agreement(schema):
    shared = {alice_print_picture(label="p"), bob_read_book(label="p2")}
    requester = LitePolicy.of(shared)
    provider = LitePolicy.of(shared, (), {bob_read_book(ts(Operator.LT, 3),
                                                        label="o")})
    verdict = asymmetric_conflict(requester, provider, schema)
    assert verdict.conflict
    assert verdict.cause == CAUSE_OBLIGATIONS
    # the proof's counterexample world: empty, since the requester has no
    # obligations of its own
    assert verdict.witness is not None and len(verdict.witness) == 0
    assert is_valid(requester, verdict.witness, schema)
    assert not is_valid(provider, verdict.witness, schema)


def test_asymmetric_rejects_inconsistent_without_flag(schema):
    r = alice_print_picture()
    inconsistent = LitePolicy.of({r}, {r}, ())
    with pytest.raises(InconsistentPolicyError):
        asymmetric_conflict(inconsistent, LitePolicy.of({r}), schema)
    # normalized, the requester permits nothing, so only the empty world is
    # valid for it, and that world satisfies any obligation-free provider
    verdict = asymmetric_conflict(inconsistent, LitePolicy.of({r}), schema,
                                  auto_normalize=True)
    assert verdict.conflict is False


def test_symmetric_no_conflict_on_equal_policies(schema):
    p = LitePolicy.of({alice_print_picture(label="a")})
    assert symmetric_conflict(p, p, schema).conflict is False


def test_symmetric_conflict_single_direction(schema):
    requester = LitePolicy.of({alice_print_picture()})
    provider = LitePolicy.of(
        {alice_print_picture(num(RESOLUTION, Operator.LTEQ, 400))})
    verdict = symmetric_conflict(requester, provider, schema)
    assert verdict.conflict
    assert verdict.failing_directions == ("requester-to-provider",)


def test_symmetric_conflict_from_provider_obligation(schema):
    shared = {alice_print_picture(label="p"), bob_read_book(label="p2")}
    requester = LitePolicy.of(shared)
    provider = LitePolicy.of(shared, (), {bob_read_book(label="o")})
    verdict = symmetric_conflict(requester, provider, schema)
    assert verdict.conflict
    assert "requester-to-provider" in verdict.failing_directions


def test_brute_force_self_containment(schema, example_policy):
    p = LitePolicy.of({alice_print_picture(label="a")})
    assert brute_force_containment(p, p, schema) is True


def test_brute_force_detects_obligation_gap(schema):
    shared = {alice_print_picture(label="p"), bob_read_book(label="p2")}
    requester = LitePolicy.of(shared)
    provider = LitePolicy.of(shared, (), {bob_read_book(label="o")})
    assert brute_force_containment(requester, provider, schema) is False
    assert (asymmetric_conflict(requester, provider, schema).conflict
            is True)


def test_unsatisfiable_requester_obligation_is_vacuously_contained(schema):
    impossible = bob_read_book(num(PAGES, Operator.GT, 10),
                               num(PAGES, Operator.LT, 5), label="impossible")
    requester = LitePolicy.of({bob_read_book(label="p")}, (), {impossible})
    provider = LitePolicy.of({alice_print_picture(label="other")})
    verdict = asymmetric_conflict(requester, provider, schema)
    assert verdict.conflict is False
    assert brute_force_containment(requester, provider, schema) is True


def test_witness_replay_on_random_pairs(schema):
    rng = Random(2024)
    for _ in range(40):
        requester = random_consistent_policy(rng)
        provider = random_consistent_policy(rng)
        verdict = asymmetric_conflict(requester, provider, schema)
        if verdict.conflict:
            assert is_valid(requester, verdict.witness, schema)
            assert not is_valid(provider, verdict.witness, schema)


def test_conflict_check_agrees_with_oracle_smoke(schema):
    rng = Random(99)
    for _ in range(25):
        requester = random_consistent_policy(rng)
        provider = random_consistent_policy(rng)
        assert is_consistent(requester, schema)
        assert is_consistent(provider, schema)
        conflict = asymmetric_conflict(requester, provider, schema).conflict
        contained = brute_force_containment(requester, provider, schema)
        assert conflict == (not contained)


def test_domain_cap_raises(schema):
    narrow = bob_read_book(num(PAGES, Operator.GT, 250))
    with pytest.raises(Exception) as err:
        rule_contains(narrow, narrow, schema, max_events=3)
    from odrleval import DomainTooLargeError
    assert isinstance(err.value, DomainTooLargeError)


def test_domain_cap_message_names_probe_counts(schema):
    rule = bounds_rule(60)
    with pytest.raises(DomainTooLargeError) as err:
        rule_contains(rule, rule, schema, max_events=89_303)
    assert str(err.value) == (
        "witness domain holds 89304 events (Datetime 1 × Action 2 × "
        "Actor 1 × Asset 3 × Print.Resolution 122 × Book.Pages 122), "
        "cap is 89303")
    assert rule_contains(rule, rule, schema, max_events=89_304)


def test_fresh_atom_avoids_mentioned_names():
    # Rules may mention the names the domain uses for "any other value"; the
    # fresh probe must still differ from every mentioned value.
    schema = strategies.tagged_schema()
    other = EventRule.of(eq(ACTION, "Read"), eq(ACTOR, "~other-Actor"))
    probes = WitnessDomain.for_rules(schema, [other]).probes[ACTOR]
    assert {Value.identifier("~other-Actor"), Value.identifier("~other-Actor'")} <= set(probes)
    # Tags holding ~other-Tags and something else needs a second atom.
    atom = Value.identifier_set(["~other-Tags"])
    wider = EventRule.of(
        eq(ACTION, "Read"), SimpleCondition(strategies.TAGS, Operator.HAS_PART, atom),
        Not(SimpleCondition(strategies.TAGS, Operator.IS_PART_OF, atom)))
    assert rule_satisfiable(wider, schema)


def test_set_atom_cap_raises():
    from test_conditions import set_schema
    from odrleval import DomainTooLargeError, SimpleCondition
    s = set_schema()
    big = EventRule.of(
        eq(1, "Read"),
        SimpleCondition(4, Operator.HAS_PART, Value.identifier_set(
            {f"atom-{i}" for i in range(9)})))
    with pytest.raises(DomainTooLargeError):
        rule_contains(big, big, s)


def test_witness_domain_covers_an_is_a_class_test():
    # isA on Role reads its class set from Tags, so the domain must hold a
    # Tags probe with the class in it; without one the rule is unsatisfiable.
    from odrleval import ComponentTag, Datatype, FeatureDecl, FeatureSchema
    from conftest import make_schema
    schema = FeatureSchema(make_schema().features + (
        FeatureDecl(6, "Role", Datatype.IDENTIFIER, ComponentTag.RULE, class_feature=7),
        FeatureDecl(7, "Tags", Datatype.IDENTIFIER_SET, ComponentTag.RULE)))
    staff = EventRule.of(
        eq(ACTION, "Read"), SimpleCondition(6, Operator.IS_A, Value.identifier("Staff")))
    tagged = EventRule.of(
        eq(ACTION, "Read"), SimpleCondition(7, Operator.HAS_PART, Value.identifier("Staff")))
    assert rule_satisfiable(staff, schema)
    assert rule_contains(staff, tagged, schema)
    assert not rule_contains(tagged, staff, schema)


def test_witness_domain_probe_structure(schema):
    from odrleval import WitnessDomain, NULL
    narrow = bob_read_book(num(PAGES, Operator.GT, 250))
    wide = bob_read_book(num(PAGES, Operator.GT, 200))
    domain = WitnessDomain.for_rules(schema, (narrow, wide))
    pages_probes = {v.raw for v in domain.probes[PAGES] if not v.is_null}
    # both constants, a representative between them, one below, one above
    assert {200, 250} <= pages_probes
    assert any(200 < r < 250 for r in pages_probes)
    assert any(r < 200 for r in pages_probes)
    assert any(r > 250 for r in pages_probes)
    assert NULL in domain.probes[PAGES]
    # identifier features carry the mentioned atoms plus a fresh one and null
    actor_probes = [v for v in domain.probes[ACTOR]]
    raws = {v.raw for v in actor_probes if not v.is_null}
    assert "Bob" in raws
    assert any(r not in ("Alice", "Bob") for r in raws)
    assert NULL in actor_probes
    # the timestamp slot never holds null
    assert all(not v.is_null for v in domain.probes[0])


BIG = 2 ** 60


def test_satisfiable_between_large_numbers(schema):
    # The float midpoint of 2**60 and 2**60 + 2 rounds onto 2**60, and
    # 1e20 - 1 and 1e20 + 1 round onto 1e20; each probe must still land
    # strictly inside its region.
    between = bob_read_book(num(PAGES, Operator.GT, BIG), num(PAGES, Operator.LT, BIG + 2))
    assert rule_satisfiable(between, schema) is True
    assert rule_satisfiable(bob_read_book(num(PAGES, Operator.LT, 1e20)), schema) is True
    assert rule_satisfiable(bob_read_book(num(PAGES, Operator.GT, 1e20)), schema) is True


@pytest.mark.parametrize("top", [sys.float_info.max, int(sys.float_info.max)],
                         ids=["float", "int"])
def test_constant_at_float_max_bounds_the_domain(schema, top):
    # No number lies past ±max float, so the region beyond a constant there
    # gets no probe; a probe such as ceil(max) + 1 is no Value and would
    # break every witness-domain call.
    for op, c, holds in [(Operator.GT, top, False), (Operator.LT, -top, False),
                         (Operator.GTEQ, top, True), (Operator.LTEQ, -top, True),
                         (Operator.EQ, top, True), (Operator.EQ, -top, True),
                         (Operator.LTEQ, top, True), (Operator.GTEQ, -top, True)]:
        assert rule_satisfiable(bob_read_book(num(PAGES, op, c)), schema) is holds, (op, c)
    requester = LitePolicy.of({alice_print_picture(num(RESOLUTION, Operator.LTEQ, top))})
    provider = LitePolicy.of({EventRule.of(eq(ACTION, "Print"))})
    verdict = symmetric_conflict(requester, provider, schema)
    assert verdict.conflict and verdict.failing_directions == ("provider-to-requester",)
    assert asymmetric_conflict(requester, provider, schema).conflict is False
    assert brute_force_containment(requester, provider, schema) is True
    assert normalize(requester, schema) == requester


def test_consistency_sees_overlap_between_large_integers(schema):
    from odrleval import Clause, World, evaluate_lite
    permission = bob_read_book(num(PAGES, Operator.GT, BIG), label="p")
    prohibition = bob_read_book(num(PAGES, Operator.LT, BIG + 2), label="f")
    policy = LitePolicy.of({permission}, {prohibition}, ())
    assert is_consistent(policy, schema) is False
    world = World.of((make_event(1, "Read", "Bob", "Book", pages=BIG + 1),))
    report = evaluate_lite(policy, world, schema)
    assert [f.clause for f in report.findings] == [Clause.PROHIBITIONS]


def test_brute_force_full_policies(schema):
    perm = EventRule.of(eq(ACTION, "Print"), eq(ACTOR, "Alice"),
                        eq(ASSET, "Book"), label="alice-print")
    duty = EventRule.of(eq(ACTION, "Read"), eq(ACTOR, "Bob"),
                        eq(ASSET, "Book"), label="bob-read")
    lite = LitePolicy.of({perm, duty})
    from odrleval import FullPolicy
    with_duty = FullPolicy.of(lite, duty_pairs={(perm, duty)})
    without = FullPolicy.of(lite)
    # the duty only restricts, so the constrained policy is contained in the
    # unconstrained one but not conversely
    assert brute_force_containment(with_duty, without, schema) is True
    assert brute_force_containment(without, with_duty, schema) is False
    assert brute_force_containment(with_duty, with_duty, schema) is True


def test_brute_force_full_policies_with_deadline_consequence(schema):
    # An obligation-consequence pair and a timestamp condition make the
    # oracle add probes around the deadline and the bound.
    from odrleval import FullPolicy
    read = EventRule.of(eq(ACTION, "Read"), eq(ACTOR, "Bob"), ts(Operator.GTEQ, 2),
                        label="read")
    pay = EventRule.of(eq(ACTION, "Pay"), eq(ACTOR, "Bob"), label="pay")
    deadline = EventRule.of(eq(ACTION, "Read"), eq(ACTOR, "Bob"), ts(Operator.LTEQ, 4),
                            label="read-by-4")
    lite = LitePolicy.of({read, pay})
    owed = FullPolicy.of(lite, obligation_consequence_pairs={(deadline, pay)})
    free = FullPolicy.of(lite)
    rules = lite.all_rules() | {deadline}
    plain = WitnessDomain.for_rules(schema, rules)
    extra = WitnessDomain.for_rules(schema, rules, extra_timestamps=(7,))
    assert [v.raw for v in plain.probes[0]] == [1, 2, 3, 4, 5]
    assert [v.raw for v in extra.probes[0]] == [1, 2, 3, 4, 5, 7, 8]
    # the empty world is valid without the pair and misses the deadline with it
    assert brute_force_containment(owed, free, schema) is True
    assert brute_force_containment(free, owed, schema) is False
    assert brute_force_containment(owed, owed, schema) is True


def test_brute_force_orders_events_between_two_bounds(schema):
    # Both rules hold only strictly between timestamps 1 and 5, where the
    # plain domain has one probe (3). Printing before reading is valid for
    # the first policy and not for the second, which also wants a read at or
    # before each print; only the pairing probes 2 and 4 can order them.
    read = bob_read_book(ts(Operator.GT, 1), ts(Operator.LT, 5), label="read")
    print_ = alice_print_picture(ts(Operator.GT, 1), ts(Operator.LT, 5), label="print")
    lite = LitePolicy.of({read, print_}, (), {read, print_})
    one_way = FullPolicy.of(lite, duty_pairs={(read, print_)})
    both_ways = FullPolicy.of(lite, duty_pairs={(read, print_), (print_, read)})
    assert brute_force_containment(both_ways, one_way, schema) is True
    assert brute_force_containment(one_way, both_ways, schema) is False


def action(name: str, *extra, label=None) -> EventRule:
    return EventRule.of(eq(ACTION, name), *extra, label=label)


def test_default_bound_reaches_a_late_duty_and_consequence(schema):
    # No Pay can come before an early Print, so a valid world holding one
    # also holds a later Pay and a later Read: three events, one more than
    # obligations + pairings + 1.
    lead = action("Print", ts(Operator.LTEQ, 5), label="print")
    duty = action("Pay", ts(Operator.GTEQ, 10), label="pay")
    consequence = action("Read", label="read")
    p = FullPolicy.of(LitePolicy.of({lead, duty, consequence}),
                      duty_consequence_triples={(lead, duty, consequence)})
    q = LitePolicy.of({duty, consequence})
    witness = World.of((make_event(5, "Print", None, None),
                        make_event(10, "Pay", None, None),
                        make_event(10, "Read", None, None)))
    assert is_valid(p, witness, schema) and not is_valid(q, witness, schema)
    assert brute_force_containment(p, q, schema) is False


def test_default_bound_reaches_a_late_fulfilment_and_consequence(schema):
    # The lead can never be met, so a valid world needs a late Pay and a
    # Read; a Print is then a third event.
    lead = action("Pay", ts(Operator.LTEQ, 5), label="pay-by-5")
    consequence = action("Read", label="read")
    late_pay = action("Pay", ts(Operator.GTEQ, 10), label="pay")
    p = FullPolicy.of(LitePolicy.of({action("Print", label="print"), consequence, late_pay}),
                      obligation_consequence_pairs={(lead, consequence)})
    q = LitePolicy.of({consequence, late_pay})
    witness = World.of((make_event(1, "Print", None, None),
                        make_event(10, "Pay", None, None),
                        make_event(10, "Read", None, None)))
    assert is_valid(p, witness, schema) and not is_valid(q, witness, schema)
    assert brute_force_containment(p, q, schema) is False


# -- the oracle's own check of the seven clauses -------------------------------

def event_for(rng: Random, rule: EventRule) -> Event:
    """An event on the rule's pinned action, actor and asset, at a timestamp
    from 0 to 5, with the rest drawn and often null; now and then the actor
    is blanked, so the event matches nothing that pins it."""
    pins = {c.feature: c.value.raw for c in rule.conditions
            if isinstance(c, SimpleCondition) and c.op is Operator.EQ}
    actor = None if rng.random() < 0.1 else pins.get(ACTOR, rng.choice(("Alice", None)))
    return make_event(rng.randint(0, 5), pins.get(ACTION, "Read"), actor,
                      pins.get(ASSET, rng.choice(("Picture", "Book", None))),
                      pages=rng.choice((None, 100)))


def test_reference_check_agrees_with_evaluator(schema):
    # The oracle judges each candidate world with its own formulas over
    # (timestamp, matched rules) pairs; on every world they must give
    # evaluate_full's verdict. Worlds of up to six events at timestamps 0-5
    # tie on timestamps and fall before, at and after the deadlines (1-4).
    rng = Random(31337)
    seen = Counter()
    for _ in range(300):
        policy = random_full_policy(rng)
        judged, stripped = _judged_rules(policy)
        rules = ordered_rules(policy.all_rules())
        for _ in range(10):
            world = World.of(event_for(rng, rng.choice(rules))
                             for _ in range(rng.randint(0, 6)))
            valid = evaluate_full(policy, world, schema).valid
            facts = [_facts(e, judged, schema) for e in world.events]
            assert _reference_valid(policy, facts, stripped) == valid, (
                policy, world.ordered())
            seen.update((pairing.field, valid) for pairing in PAIRINGS
                        if getattr(policy, pairing.field))
    # each pairing was judged on valid and on violating worlds
    assert len(seen) == 2 * len(PAIRINGS), seen


def all_pairings_policy() -> FullPolicy:
    read, pay = bob_read_book(label="read"), alice_print_picture(label="pay")
    return FullPolicy.of(
        LitePolicy.of({read, pay}), duty_pairs={(read, pay)},
        duty_consequence_triples={(pay, read, pay)},
        remedy_pairs={(bob_read_book(num(PAGES, Operator.GT, 250)), pay)},
        obligation_consequence_pairs={(bob_read_book(ts(Operator.LTEQ, 3)), pay)})


def test_oracle_reaches_no_evaluator_or_match_table(schema, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle reached the engine it checks")
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "odrleval":
            for attr in ("evaluate_full", "evaluate_lite", "MatchTable"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    shared = {alice_print_picture(label="p"), bob_read_book(label="p2")}
    assert brute_force_containment(
        LitePolicy.of(shared), LitePolicy.of(shared, (), {bob_read_book(label="o")}),
        schema) is False
    full = all_pairings_policy()
    assert brute_force_containment(full, full.lite, schema) is True
    assert brute_force_containment(full.lite, full, schema) is False


def test_comparison_imports_nothing_from_evaluation():
    tree = ast.parse(Path(comparison.__file__).read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for a in node.names}
    assert not {m for m in imported if m and m.split(".")[-1] == "evaluation"}


def test_containment_over_text_ordered_feature():
    # codepoint-ordered strings get region probes like numbers do
    from odrleval import ComponentTag, Datatype, Event, FeatureDecl, \
        FeatureSchema, SimpleCondition, Value
    s = FeatureSchema((
        FeatureDecl(0, "Datetime", Datatype.TIMESTAMP, ComponentTag.RULE),
        FeatureDecl(1, "Action", Datatype.IDENTIFIER, ComponentTag.ACTION),
        FeatureDecl(2, "Note", Datatype.STRING, ComponentTag.RULE),
    ))
    def note(op, text):
        return EventRule.of(eq(1, "Read"),
                            SimpleCondition(2, op, Value.text(text)))
    strict = note(Operator.LT, "m")
    loose = note(Operator.LTEQ, "m")
    assert rule_contains(strict, loose, s) is True
    assert rule_contains(loose, strict, s) is False
    between = note(Operator.GT, "a")
    upto = note(Operator.LT, "b")
    assert rules_overlap(between, upto, s) is True
    assert rule_contains(between, upto, s) is False


def test_evaluation_rejects_nonconforming_world(schema):
    from odrleval import Event, Value, WorldConformanceError, World, evaluate_lite
    bad = Event((Value.timestamp(1), Value.identifier("Print"),
                 Value.number(9), Value.identifier("Picture"),
                 Value.number(1), Value.number(1)))
    with pytest.raises(WorldConformanceError):
        evaluate_lite(LitePolicy.of(), World((bad,)), schema)


def dense_grid(schema, rules):
    """Region-free control oracle: every constant plus half-step offsets."""
    from odrleval.model import ValueKind, simple_conditions_of
    nums, tss = {0, 1}, {0, 1}
    for r in rules:
        for c in r.conditions:
            for sc in simple_conditions_of(c):
                v = sc.value
                if v.kind is ValueKind.NUMBER:
                    nums |= {v.raw - 1, v.raw - 0.5, v.raw, v.raw + 0.5, v.raw + 1}
                if v.kind is ValueKind.TIMESTAMP:
                    tss |= {v.raw - 1, v.raw, v.raw + 1}
    return [
        make_event(int(t), action, actor, asset, resolution=res, pages=pages)
        for t in sorted(tss)
        for action in ("Print", "Read", "Zap")
        for actor in ("Alice", "Bob", "Quinn", None)
        for asset in ("Picture", "Book", "Disk", None)
        for res in sorted(nums) + [None]
        for pages in sorted(nums) + [None]
    ]


def test_witness_domain_agrees_with_dense_grid(schema):
    from odrleval.matching import match_unchecked
    import test_sqlgen
    rng = Random(20260809)
    for _ in range(30):
        a = test_sqlgen.random_rule(rng)
        b = test_sqlgen.random_rule(rng)
        grid = dense_grid(schema, (a, b))
        grid_contains = all(match_unchecked(b, e, schema)
                            for e in grid if match_unchecked(a, e, schema))
        grid_overlap = any(
            match_unchecked(a, e, schema) and match_unchecked(b, e, schema)
            for e in grid)
        assert rule_contains(a, b, schema) == grid_contains
        assert rules_overlap(a, b, schema) == grid_overlap


def test_symmetric_verdict_agrees_with_oracle(schema):
    rng = Random(555)
    for _ in range(60):
        p = random_consistent_policy(rng)
        q = random_consistent_policy(rng)
        verdict = symmetric_conflict(p, q, schema)
        equivalent = (brute_force_containment(p, q, schema)
                      and brute_force_containment(q, p, schema))
        assert verdict.conflict == (not equivalent)


# -- one witness domain per comparison -----------------------------------------

def count_domain_builds(monkeypatch) -> list:
    builds = []
    for_rules = WitnessDomain.for_rules

    def counting(*args, **kwargs):
        builds.append(args)
        return for_rules(*args, **kwargs)

    monkeypatch.setattr(WitnessDomain, "for_rules", staticmethod(counting))
    return builds


def test_one_domain_per_comparison(schema, monkeypatch):
    builds = count_domain_builds(monkeypatch)
    requester = LitePolicy.of({alice_print_picture(label="req")})
    provider = LitePolicy.of(
        {alice_print_picture(num(RESOLUTION, Operator.LTEQ, 400), label="prov")})
    assert asymmetric_conflict(requester, provider, schema).conflict
    assert len(builds) == 1
    assert symmetric_conflict(requester, provider, schema).failing_directions == (
        "requester-to-provider",)
    assert len(builds) == 2


def test_normalized_comparison_builds_a_second_domain(schema, monkeypatch):
    builds = count_domain_builds(monkeypatch)
    r = alice_print_picture()
    inconsistent = LitePolicy.of({r}, {r}, ())
    assert not asymmetric_conflict(inconsistent, LitePolicy.of({r}), schema,
                                   auto_normalize=True).conflict
    assert len(builds) == 2
    verdict = symmetric_conflict(inconsistent, LitePolicy.of({r}), schema,
                                 auto_normalize=True)
    assert verdict.failing_directions == ("provider-to-requester",)
    assert len(builds) == 4


def test_symmetric_verdict_combines_both_directions(schema):
    rng = Random(4242)
    for k in range(40):
        p = random_raw_policy(rng) if k % 2 else random_consistent_policy(rng)
        q = random_raw_policy(rng) if k % 3 else random_consistent_policy(rng)
        for auto in (False, True):
            try:
                forward = asymmetric_conflict(p, q, schema, auto_normalize=auto)
            except EngineError as exc:
                with pytest.raises(type(exc)) as err:
                    symmetric_conflict(p, q, schema, auto_normalize=auto)
                assert str(err.value) == str(exc)
                continue
            backward = asymmetric_conflict(q, p, schema, auto_normalize=auto)
            verdict = symmetric_conflict(p, q, schema, auto_normalize=auto)
            directions = tuple(
                d for d, v in (("requester-to-provider", forward),
                               ("provider-to-requester", backward)) if v.conflict)
            assert verdict.conflict == bool(directions)
            assert verdict.failing_directions == directions
            if directions:
                first = forward if forward.conflict else backward
                assert (verdict.cause, verdict.witness, verdict.detail) == (
                    first.cause, first.witness, first.detail)


def test_domain_cap_precedes_inconsistency(schema):
    # A comparison builds one domain over both sides' original rules before
    # it checks either side, so an oversized union domain is reported even
    # when a side is also inconsistent, cannot be normalized, or would have
    # fit the cap once normalized. Each side's domain alone fits the cap.
    unpermitted = LitePolicy.of((), (), {bob_read_book(label="o")})
    inexpressible = LitePolicy.of({EventRule.of(eq(ACTION, "Read"), label="any")},
                                  {bob_read_book(label="not-bob")}, ())
    provider = LitePolicy.of(
        {alice_print_picture(num(RESOLUTION, Operator.LTEQ, 400), label="prov")})
    for compare in (asymmetric_conflict, symmetric_conflict):
        for requester, auto in ((unpermitted, False), (unpermitted, True),
                                (inexpressible, True)):
            with pytest.raises(DomainTooLargeError):
                compare(requester, provider, schema, auto_normalize=auto,
                        max_events=100)
        # each fault alone keeps its own error
        with pytest.raises(InconsistentPolicyError):
            compare(unpermitted, provider, schema)
        with pytest.raises(NormalizationError):
            compare(inexpressible, provider, schema, auto_normalize=True)
        with pytest.raises(DomainTooLargeError):
            compare(provider, provider, schema, max_events=40)

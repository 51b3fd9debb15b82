"""Containment, overlap, consistency, normalization and conflict detection."""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings

import strategies
from generators import (
    pairwise_set_contains,
    random_consistent_policy,
    representative_worlds,
)
from odrleval import (
    And,
    EventRule,
    InconsistentPolicyError,
    LitePolicy,
    NormalizationError,
    Not,
    Operator,
    Value,
    asymmetric_conflict,
    brute_force_containment,
    is_consistent,
    is_valid,
    normalize,
    rule_contains,
    rule_satisfiable,
    rules_overlap,
    set_contains,
    symmetric_conflict,
)
from odrleval.comparison import CAUSE_OBLIGATIONS, CAUSE_PERMISSIONS
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

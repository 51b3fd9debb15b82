"""Materialisation of vocabulary-implied permissions."""

from __future__ import annotations

from odrleval import (
    ActionVocabulary,
    Clause,
    EMPTY_VOCABULARY,
    EventRule,
    FullPolicy,
    LitePolicy,
    World,
    evaluate_lite,
    saturate,
)
from conftest import ACTION, ACTOR, ASSET, eq, make_event, under_hash_seeds


def play_policy():
    return LitePolicy.of({EventRule.of(
        eq(ACTION, "Play"), eq(ACTOR, "Alice"), eq(ASSET, "X"), label="play")})


def test_display_copy_is_added(schema):
    vocab = ActionVocabulary.of([("Display", "Play")])
    out = saturate(play_policy(), vocab, schema)
    expected = EventRule.of(eq(ACTION, "Display"), eq(ACTOR, "Alice"),
                            eq(ASSET, "X"))
    assert expected in out.permissions
    assert len(out.permissions) == 2


def test_empty_vocabulary_is_identity(schema):
    policy = play_policy()
    assert saturate(policy, EMPTY_VOCABULARY, schema) == policy


def test_transitive_chain(schema):
    vocab = ActionVocabulary.of([("Print", "Reproduce"), ("Reproduce", "Use")])
    policy = LitePolicy.of({EventRule.of(eq(ACTION, "Use"), label="use")})
    out = saturate(policy, vocab, schema)
    actions = set()
    for rule in out.permissions:
        for c in rule.conditions:
            actions.add(c.value.raw)
    assert actions == {"Use", "Reproduce", "Print"}


def test_saturation_is_monotone_and_idempotent(schema):
    vocab = ActionVocabulary.of([("Display", "Play"), ("Play", "Use")])
    policy = LitePolicy.of(
        {EventRule.of(eq(ACTION, "Use"), label="use")},
        {EventRule.of(eq(ACTION, "Play"), label="no-play")},
        {EventRule.of(eq(ACTION, "Use"), label="must-use")},
    )
    once = saturate(policy, vocab, schema)
    assert policy.permissions <= once.permissions
    assert saturate(once, vocab, schema) == once


def test_vocabulary_order_independence(schema):
    edges = [("Display", "Play"), ("Play", "Use"), ("Print", "Use")]
    policy = LitePolicy.of({EventRule.of(eq(ACTION, "Use"), label="use")})
    a = saturate(policy, ActionVocabulary.of(edges), schema)
    b = saturate(policy, ActionVocabulary.of(reversed(edges)), schema)
    assert a == b


def test_prohibitions_and_obligations_untouched(schema):
    vocab = ActionVocabulary.of([("Display", "Play")])
    policy = LitePolicy.of(
        {EventRule.of(eq(ACTION, "Play"), label="play")},
        {EventRule.of(eq(ACTION, "Play"), eq(ACTOR, "Bob"), label="bob-no")},
        {EventRule.of(eq(ACTION, "Play"), eq(ACTOR, "Alice"), label="alice-must")},
    )
    out = saturate(policy, vocab, schema)
    assert out.prohibitions == policy.prohibitions
    assert out.obligations == policy.obligations


def test_duty_pairs_follow_their_permission(schema):
    perm = EventRule.of(eq(ACTION, "Play"), eq(ACTOR, "Alice"), label="play")
    duty = EventRule.of(eq(ACTION, "Pay"), eq(ACTOR, "Alice"), label="pay")
    fine = EventRule.of(eq(ACTION, "Pay"), eq(ACTOR, "Bob"), label="fine")
    policy = FullPolicy.of(LitePolicy.of({perm, duty, fine}),
                           duty_pairs={(perm, duty)},
                           duty_consequence_triples={(perm, duty, fine)})
    vocab = ActionVocabulary.of([("Display", "Play")])
    out = saturate(policy, vocab, schema)
    display_copy = EventRule.of(eq(ACTION, "Display"), eq(ACTOR, "Alice"))
    assert (display_copy, duty) in out.duty_pairs
    assert (perm, duty) in out.duty_pairs
    # the duty position itself is not specialized
    assert all(pair[1] == duty for pair in out.duty_pairs)
    # a triple is copied once per specialized permission, duty and
    # consequence unchanged
    assert out.duty_consequence_triples == {
        (perm, duty, fine), (display_copy, duty, fine)}


def test_saturation_keeps_one_label_under_every_hash_seed():
    # p1@Transform@Annotate equals p1@Annotate, and p1@Play@Stream equals
    # p1@Stream: the copy of the canonically first original is kept, and the
    # duty pair points at that kept permission.
    code = """
from conftest import ACTION, ACTOR, eq, make_schema
from odrleval import ActionVocabulary, EventRule, FullPolicy, LitePolicy, saturate
from odrleval.policyio import policy_to_document
schema = make_schema()
vocab = ActionVocabulary.of([("Annotate", "Transform"), ("Transform", "Use"),
                             ("Stream", "Play"), ("Play", "Use")])
def rule(action, label):
    return EventRule.of(eq(ACTION, action), eq(ACTOR, "Alice"), label=label)
transform, pay = rule("Transform", "p1@Transform"), rule("Pay", "pay")
policy = FullPolicy.of(
    LitePolicy.of([rule("Use", "p1"), transform, rule("Play", "p1@Play"), pay]),
    duty_pairs=[(transform, pay)])
once = saturate(policy, vocab, schema)
twice = saturate(once, vocab, schema)
print(sorted(r.label for r in once.lite.permissions))
print(sorted(t[0].label for t in once.duty_pairs))
print(policy_to_document(twice, schema) == policy_to_document(once, schema))
"""
    expected = ("['p1', 'p1@Annotate', 'p1@Play', 'p1@Stream', 'p1@Transform', 'pay']\n"
                "['p1@Annotate', 'p1@Transform']\n"
                "True\n")
    assert under_hash_seeds(code, seeds=("1", "2", "3", "4")) == [expected] * 4


def test_saturated_display_event_becomes_permitted(schema):
    world = World.of((make_event(1, "Display", "Alice", "X"),))
    policy = play_policy()
    before = evaluate_lite(policy, world, schema)
    assert before.by_clause(Clause.PERMISSIONS)
    vocab = ActionVocabulary.of([("Display", "Play")])
    after = evaluate_lite(saturate(policy, vocab, schema), world, schema)
    assert after.valid

"""Construction-time invariants of the domain model."""

from __future__ import annotations

import pytest

from odrleval import (
    ActionVocabulary,
    ComponentTag,
    Datatype,
    Event,
    EventRule,
    FeatureDecl,
    FeatureSchema,
    FullPolicy,
    LitePolicy,
    ModelInvariantError,
    NULL,
    Operator,
    PolicyInvariantError,
    RULE_WIDE,
    SchemaError,
    SimpleCondition,
    Value,
    VocabularyError,
    World,
    feature_component,
    validate_schema,
)
from conftest import ACTOR, ASSET, make_event, make_schema, eq, ts


def test_demo_schema_is_valid(schema):
    assert validate_schema(schema) is schema


def test_validate_schema_is_idempotent(schema):
    assert validate_schema(validate_schema(schema)) is schema


def test_wrong_datetime_slot():
    with pytest.raises(SchemaError) as err:
        FeatureSchema((
            FeatureDecl(0, "Datetime", Datatype.NUMERIC, ComponentTag.RULE),
            FeatureDecl(1, "Action", Datatype.IDENTIFIER, ComponentTag.ACTION),
        ))
    assert err.value.kind == "wrong-datetime-slot"


def test_wrong_action_slot():
    with pytest.raises(SchemaError) as err:
        FeatureSchema((
            FeatureDecl(0, "Datetime", Datatype.TIMESTAMP, ComponentTag.RULE),
            FeatureDecl(1, "Action", Datatype.NUMERIC, ComponentTag.ACTION),
        ))
    assert err.value.kind == "wrong-action-slot"


def test_dangling_refinement_target():
    with pytest.raises(SchemaError) as err:
        FeatureSchema((
            FeatureDecl(0, "Datetime", Datatype.TIMESTAMP, ComponentTag.RULE),
            FeatureDecl(1, "Action", Datatype.IDENTIFIER, ComponentTag.ACTION),
            FeatureDecl(2, "Broken", Datatype.NUMERIC, ComponentTag.REFINES,
                        refines=99),
        ))
    assert err.value.kind == "bad-gamma-target"
    assert err.value.feature == 2


def test_refinement_of_refinement_rejected():
    with pytest.raises(SchemaError) as err:
        FeatureSchema((
            FeatureDecl(0, "Datetime", Datatype.TIMESTAMP, ComponentTag.RULE),
            FeatureDecl(1, "Action", Datatype.IDENTIFIER, ComponentTag.ACTION),
            FeatureDecl(2, "A", Datatype.NUMERIC, ComponentTag.REFINES, refines=1),
            FeatureDecl(3, "B", Datatype.NUMERIC, ComponentTag.REFINES, refines=2),
        ))
    assert err.value.kind == "bad-gamma-target"


def test_noncontiguous_indices_rejected():
    with pytest.raises(SchemaError) as err:
        FeatureSchema((
            FeatureDecl(0, "Datetime", Datatype.TIMESTAMP, ComponentTag.RULE),
            FeatureDecl(2, "Action", Datatype.IDENTIFIER, ComponentTag.ACTION),
        ))
    assert err.value.kind == "duplicate-index"


def test_feature_component_refinement(schema):
    assert feature_component(schema, 5) == ASSET      # Book.Pages refines Asset
    assert feature_component(schema, 4) == 1          # Print.Resolution refines Action


def test_feature_component_rule_wide(schema):
    assert feature_component(schema, 0) is RULE_WIDE


def test_feature_component_core_maps_to_itself(schema):
    assert feature_component(schema, ACTOR) == ACTOR


def test_event_requires_timestamp_and_action():
    with pytest.raises(ModelInvariantError):
        Event((NULL, Value.identifier("Print")))
    with pytest.raises(ModelInvariantError):
        Event((Value.timestamp(1), NULL))


def test_event_equality_is_value_equality():
    a = make_event(1, "Print", "Alice", "Picture", resolution=500)
    b = make_event(1, "Print", "Alice", "Picture", resolution=500)
    assert a == b and hash(a) == hash(b)


def test_world_deduplicates():
    a = make_event(1, "Print", "Alice", "Picture")
    b = make_event(1, "Print", "Alice", "Picture")
    assert len(World.of((a, b))) == 1


def test_world_checks_conformance(schema):
    bad = Event((Value.timestamp(1), Value.identifier("Print"),
                 Value.number(7),  # Actor slot holds a number
                 NULL, NULL, NULL))
    from odrleval import WorldConformanceError
    with pytest.raises(WorldConformanceError):
        World.of((bad,), schema)


def test_value_kind_checks():
    with pytest.raises(ModelInvariantError):
        Value.timestamp("three")
    with pytest.raises(ModelInvariantError):
        Value(Value.number(1).kind, "nan-string")


@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_number_rejected(x):
    with pytest.raises(ModelInvariantError):
        Value.number(x)


def test_condition_operator_arity():
    with pytest.raises(ModelInvariantError):
        SimpleCondition(2, Operator.GT, Value.identifier_set({"a"}))
    with pytest.raises(ModelInvariantError):
        SimpleCondition(2, Operator.IS_ANY_OF, Value.identifier("a"))
    with pytest.raises(ModelInvariantError):
        SimpleCondition(2, Operator.EQ, NULL)


def test_rule_label_is_metadata_only():
    a = EventRule.of(eq(1, "Print"), label="one")
    b = EventRule.of(eq(1, "Print"), label="two")
    assert a == b
    assert len({a, b}) == 1


def test_full_policy_duty_must_be_permitted():
    perm = EventRule.of(eq(1, "Print"), label="perm")
    duty = EventRule.of(eq(1, "Pay"), label="duty")
    lite = LitePolicy.of({perm})
    with pytest.raises(PolicyInvariantError):
        FullPolicy.of(lite, duty_pairs={(perm, duty)})
    ok = FullPolicy.of(LitePolicy.of({perm, duty}), duty_pairs={(perm, duty)})
    assert (perm, duty) in ok.duty_pairs


def test_full_policy_remedied_prohibition_not_in_f():
    prohibition = EventRule.of(eq(1, "Print"), label="never")
    remedy = EventRule.of(eq(1, "Pay"), label="pay")
    lite = LitePolicy.of({remedy}, {prohibition})
    with pytest.raises(PolicyInvariantError):
        FullPolicy.of(lite, remedy_pairs={(prohibition, remedy)})
    assert FullPolicy.of(LitePolicy.of({remedy}),
                         remedy_pairs={(prohibition, remedy)})


def test_full_policy_oc_needs_deadline_and_fresh_obligation():
    consequence = EventRule.of(eq(1, "Pay"), label="pay")
    no_deadline = EventRule.of(eq(1, "Read"), label="read")
    lite = LitePolicy.of({consequence})
    with pytest.raises(PolicyInvariantError):
        FullPolicy.of(lite, obligation_consequence_pairs={(no_deadline, consequence)})
    with_deadline = EventRule.of(eq(1, "Read"), ts(Operator.LTEQ, 3), label="read")
    assert FullPolicy.of(
        lite, obligation_consequence_pairs={(with_deadline, consequence)})
    in_o = LitePolicy.of({consequence}, (), {with_deadline})
    with pytest.raises(PolicyInvariantError):
        FullPolicy.of(in_o, obligation_consequence_pairs={(with_deadline, consequence)})


def test_vocabulary_cycle_rejected():
    with pytest.raises(VocabularyError):
        ActionVocabulary.of([("a", "b"), ("b", "c"), ("c", "a")])


def test_vocabulary_descendants_transitive():
    vocab = ActionVocabulary.of([("Print", "Reproduce"), ("Reproduce", "Use"),
                                 ("Display", "Play")])
    assert vocab.descendants_of("Use") == {"Use", "Reproduce", "Print"}
    assert vocab.descendants_of("Play") == {"Play", "Display"}
    assert vocab.descendants_of("Print") == {"Print"}


def test_schema_matches_demo_layout():
    # Header layout of the demo log: Datetime, Action, Actor, Asset, then the
    # two numeric refinements attached to Action and Asset.
    s = make_schema()
    assert [d.name for d in s.features] == [
        "Datetime", "Action", "Actor", "Asset", "Print.Resolution", "Book.Pages"]

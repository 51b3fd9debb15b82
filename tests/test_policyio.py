"""Document parsing and serialization: schema, world, vocabulary, policies."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from odrleval import DocumentError, FullPolicy, LitePolicy, NULL, Operator
from odrleval.policyio import (
    event_to_object,
    parse_policy_document,
    parse_schema_document,
    parse_value,
    parse_vocabulary_document,
    parse_world_text,
    policy_to_document,
    schema_to_document,
    vocabulary_to_document,
    world_to_text,
)
from odrleval.model import Datatype
from conftest import ACTOR, RESOLUTION, eq, make_f1, make_o1, make_p1, ts

DEMO = Path(__file__).resolve().parent.parent / "demo"


# -- schema -------------------------------------------------------------------

def test_schema_document_round_trip(schema):
    doc = schema_to_document(schema)
    assert parse_schema_document(doc) == schema


def test_demo_schema_file_matches_fixture(schema):
    doc = json.loads((DEMO / "schema.json").read_text())
    assert parse_schema_document(doc) == schema


def test_schema_unknown_field_rejected(schema):
    doc = schema_to_document(schema)
    doc["features"][0]["color"] = "red"
    with pytest.raises(DocumentError) as err:
        parse_schema_document(doc)
    assert err.value.kind == "unknown-field"


def test_vocabulary_round_trip():
    doc = json.loads((DEMO / "vocabulary.json").read_text())
    vocab = parse_vocabulary_document(doc)
    assert vocabulary_to_document(vocab) == {
        "format": "action-vocabulary/1",
        "includedIn": [["Display", "Play"], ["Play", "Use"],
                       ["Print", "Reproduce"], ["Reproduce", "Use"]],
    }
    doc["extra"] = 1
    with pytest.raises(DocumentError):
        parse_vocabulary_document(doc)


# -- world logs ---------------------------------------------------------------

def test_demo_world_parses_to_three_events(schema, e1, e2, e3):
    world = parse_world_text((DEMO / "world.csv").read_text(), schema)
    assert world.events == frozenset({e1, e2, e3})
    # the read event carries an unspecified resolution
    assert e2.value(RESOLUTION) is NULL or e2.value(RESOLUTION).is_null


def test_world_round_trip(schema, world):
    assert parse_world_text(world_to_text(world, schema), schema) == world


def test_empty_world_file(schema):
    header = "Datetime,Action,Actor,Asset,Print.Resolution,Book.Pages\n"
    assert len(parse_world_text(header, schema)) == 0


def test_world_header_any_order(schema, e2):
    text = ("Action,Datetime,Actor,Asset,Book.Pages,Print.Resolution\n"
            "Read,2,Bob,Book,450,null\n")
    world = parse_world_text(text, schema)
    assert world.events == frozenset({e2})


def test_world_header_mismatch(schema):
    with pytest.raises(DocumentError) as err:
        parse_world_text("Datetime,Action,Actor\n", schema)
    assert err.value.kind == "header-mismatch"


def test_world_arity_mismatch(schema):
    text = ("Datetime,Action,Actor,Asset,Print.Resolution,Book.Pages\n"
            "1,Print,Alice,Picture,500\n")
    with pytest.raises(DocumentError) as err:
        parse_world_text(text, schema)
    assert err.value.kind == "arity-mismatch"
    assert "row 0" in str(err.value)


def test_world_unparsable_value_has_coordinates(schema):
    text = ("Datetime,Action,Actor,Asset,Print.Resolution,Book.Pages\n"
            "1,Print,Alice,Picture,many,null\n")
    with pytest.raises(DocumentError) as err:
        parse_world_text(text, schema)
    assert err.value.kind == "unparsable-value"
    assert "Print.Resolution" in str(err.value)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
def test_world_non_finite_number_rejected(schema, cell):
    text = ("Datetime,Action,Actor,Asset,Print.Resolution,Book.Pages\n"
            f"1,Print,Alice,Picture,{cell},null\n")
    with pytest.raises(DocumentError) as err:
        parse_world_text(text, schema)
    assert err.value.kind == "unparsable-value"


@pytest.mark.parametrize("token", ["NaN", "Infinity", "1e999"])
def test_policy_non_finite_constant_rejected(schema, token):
    constant = json.loads(token)
    canonical = {
        "format": "policy/1", "kind": "lite",
        "permissions": [{"label": "x", "conditions": [
            {"feature": "Action", "op": "eq", "value": "Print"},
            {"feature": "Print.Resolution", "op": "gt", "value": constant}]}],
    }
    odrl = {
        "@context": "http://www.w3.org/ns/odrl.jsonld", "@type": "Set",
        "permission": [{
            "assignee": "Alice", "target": "Picture",
            "action": {"value": "Print", "refinement": [
                {"leftOperand": "Print.Resolution", "operator": "gt",
                 "rightOperand": constant}]}}],
    }
    for doc in (canonical, odrl):
        with pytest.raises(DocumentError) as err:
            parse_policy_document(doc, schema)
        assert err.value.kind == "unparsable-value"


def test_world_duplicate_rows_collapse(schema):
    text = ("Datetime,Action,Actor,Asset,Print.Resolution,Book.Pages\n"
            "1,Print,Alice,Picture,500,null\n"
            "1,Print,Alice,Picture,500,null\n")
    assert len(parse_world_text(text, schema)) == 1


def test_iso_timestamps_map_to_epoch_seconds():
    v = parse_value("1970-01-01T00:01:40+00:00", Datatype.TIMESTAMP, "here")
    assert v.raw == 100
    naive = parse_value("1970-01-01T00:01:40", Datatype.TIMESTAMP, "here")
    assert naive.raw == 100  # naive timestamps are read as UTC


def test_set_cells_split_on_pipe():
    v = parse_value("red|blue", Datatype.IDENTIFIER_SET, "here")
    assert v.raw == frozenset({"red", "blue"})
    assert parse_value("", Datatype.IDENTIFIER_SET, "here").raw == frozenset()


# -- canonical policies ---------------------------------------------------------

def test_canonical_policy_round_trip(schema, example_policy):
    doc = policy_to_document(example_policy, schema)
    parsed = parse_policy_document(doc, schema)
    assert parsed == example_policy
    again = parse_policy_document(policy_to_document(parsed, schema), schema)
    assert again == parsed


def test_canonical_full_policy_round_trip(schema):
    from odrleval import EventRule
    perm = make_p1()
    duty = make_o1()
    deadline_obligation = EventRule(
        make_o1().conditions | {ts(Operator.LTEQ, 9)}, label="dl")
    full = FullPolicy.of(
        LitePolicy.of({perm, duty}),
        duty_pairs={(perm, duty)},
        remedy_pairs={(make_f1(), perm)},
        obligation_consequence_pairs={(deadline_obligation, duty)},
    )
    doc = policy_to_document(full, schema)
    parsed = parse_policy_document(doc, schema)
    assert parsed == full


def test_canonical_rejects_unknown_condition_shape(schema):
    doc = {
        "format": "policy/1",
        "kind": "lite",
        "permissions": [{"label": "x", "conditions": [{"nand": []}]}],
    }
    with pytest.raises(DocumentError):
        parse_policy_document(doc, schema)


def test_parse_enforces_well_formedness(schema):
    doc = {
        "format": "policy/1",
        "kind": "lite",
        "permissions": [{
            "label": "refinement-without-pin",
            "conditions": [
                {"feature": "Action", "op": "eq", "value": "Read"},
                {"feature": "Book.Pages", "op": "gt", "value": 100},
            ],
        }],
    }
    with pytest.raises(DocumentError) as err:
        parse_policy_document(doc, schema)
    assert err.value.kind == "ill-formed-rule"


# -- ODRL ingestion -------------------------------------------------------------

def test_odrl_demo_policy_matches_example(schema, example_policy):
    doc = json.loads((DEMO / "policy.json").read_text())
    assert parse_policy_document(doc, schema) == example_policy


def test_odrl_and_sequence_rejected(schema):
    doc = {
        "@context": "http://www.w3.org/ns/odrl.jsonld",
        "@type": "Set",
        "permission": [{
            "assignee": "Alice", "action": "Print", "target": "Picture",
            "constraint": [{"andSequence": [
                {"leftOperand": "Datetime", "operator": "lteq", "rightOperand": 5},
            ]}],
        }],
    }
    with pytest.raises(DocumentError) as err:
        parse_policy_document(doc, schema)
    assert err.value.kind == "unsupported-operator"
    assert "andSequence" in str(err.value)


def test_odrl_empty_policy(schema):
    doc = {"@context": "http://www.w3.org/ns/odrl.jsonld", "@type": "Set"}
    assert parse_policy_document(doc, schema) == LitePolicy.of()


def test_odrl_unknown_left_operand(schema):
    doc = {
        "@context": "http://www.w3.org/ns/odrl.jsonld",
        "@type": "Set",
        "permission": [{
            "assignee": "Alice", "action": "Print", "target": "Picture",
            "constraint": [
                {"leftOperand": "Lunar.Phase", "operator": "eq",
                 "rightOperand": "full"}],
        }],
    }
    with pytest.raises(DocumentError) as err:
        parse_policy_document(doc, schema)
    assert err.value.kind == "unknown-left-operand"


def test_odrl_policy_level_assignee_applies_to_rules(schema):
    doc = {
        "@context": "http://www.w3.org/ns/odrl.jsonld",
        "@type": "Set",
        "assignee": "Alice",
        "permission": [{"action": "Print", "target": "Picture"}],
    }
    policy = parse_policy_document(doc, schema)
    (rule,) = policy.permissions
    assert eq(ACTOR, "Alice") in rule.conditions


def test_odrl_duty_maps_to_duty_pair(schema):
    duty_rule = {"assignee": "Bob", "action": "Read", "target": "Book"}
    doc = {
        "@context": "http://www.w3.org/ns/odrl.jsonld",
        "@type": "Set",
        "permission": [
            {"assignee": "Alice", "action": "Print", "target": "Book",
             "duty": [duty_rule]},
            duty_rule,
        ],
    }
    policy = parse_policy_document(doc, schema)
    assert isinstance(policy, FullPolicy)
    assert len(policy.duty_pairs) == 1
    ((tau, duty),) = policy.duty_pairs
    assert eq(ACTOR, "Alice") in tau.conditions
    assert eq(ACTOR, "Bob") in duty.conditions


def test_odrl_dangling_duty_rejected(schema):
    doc = {
        "@context": "http://www.w3.org/ns/odrl.jsonld",
        "@type": "Set",
        "permission": [
            {"assignee": "Alice", "action": "Print", "target": "Book",
             "duty": [{"assignee": "Bob", "action": "Read", "target": "Book"}]},
        ],
    }
    with pytest.raises(DocumentError) as err:
        parse_policy_document(doc, schema)
    assert err.value.kind == "dangling-duty"


def test_odrl_duty_with_consequence_maps_to_triple(schema):
    duty = {"assignee": "Bob", "action": "Read", "target": "Book"}
    consequence = {"assignee": "Bob", "action": "Print", "target": "Book"}
    duty_with_consequence = dict(duty, consequence=[consequence])
    doc = {
        "@context": "http://www.w3.org/ns/odrl.jsonld",
        "@type": "Set",
        "permission": [
            {"assignee": "Alice", "action": "Print", "target": "Book",
             "duty": [duty_with_consequence]},
            duty, consequence,
        ],
    }
    policy = parse_policy_document(doc, schema)
    assert len(policy.duty_consequence_triples) == 1
    assert policy.duty_pairs == frozenset()


def test_odrl_remedy_maps_to_remedy_pair(schema):
    remedy = {"assignee": "Bob", "action": "Print", "target": "Book"}
    doc = {
        "@context": "http://www.w3.org/ns/odrl.jsonld",
        "@type": "Set",
        "permission": [remedy],
        "prohibition": [
            {"assignee": "Bob", "action": "Read", "target": "Book",
             "remedy": [remedy]},
        ],
    }
    policy = parse_policy_document(doc, schema)
    assert len(policy.remedy_pairs) == 1
    # the remedied prohibition is kept out of F
    assert policy.lite.prohibitions == frozenset()


def test_odrl_obligation_consequence_maps_to_oc(schema):
    consequence = {"assignee": "Bob", "action": "Print", "target": "Book"}
    doc = {
        "@context": "http://www.w3.org/ns/odrl.jsonld",
        "@type": "Set",
        "permission": [consequence],
        "obligation": [
            {"assignee": "Bob", "action": "Read", "target": "Book",
             "constraint": [
                 {"leftOperand": "Datetime", "operator": "lteq",
                  "rightOperand": 3}],
             "consequence": [consequence]},
        ],
    }
    policy = parse_policy_document(doc, schema)
    assert len(policy.obligation_consequence_pairs) == 1
    assert policy.lite.obligations == frozenset()


def test_odrl_requires_known_context(schema):
    doc = {"@context": "https://example.org/other.jsonld", "@type": "Set"}
    with pytest.raises(DocumentError):
        parse_policy_document(doc, schema)


def test_odrl_misplaced_refinement_rejected(schema):
    # Book.Pages refines the asset, so it cannot appear under action refinement
    doc = {
        "@context": "http://www.w3.org/ns/odrl.jsonld",
        "@type": "Set",
        "permission": [{
            "assignee": "Alice",
            "action": {"value": "Print", "refinement": [
                {"leftOperand": "Book.Pages", "operator": "gt",
                 "rightOperand": 10}]},
            "target": "Book",
        }],
    }
    with pytest.raises(DocumentError) as err:
        parse_policy_document(doc, schema)
    assert err.value.kind == "unknown-left-operand"


# -- reports --------------------------------------------------------------------

def test_event_to_object(schema, e2):
    assert event_to_object(e2, schema) == {
        "Datetime": 2, "Action": "Read", "Actor": "Bob", "Asset": "Book",
        "Print.Resolution": None, "Book.Pages": 450,
    }


def test_odrl_misplaced_sub_rule_key_rejected(schema):
    doc = {
        "@context": "http://www.w3.org/ns/odrl.jsonld",
        "@type": "Set",
        "permission": [{
            "assignee": "Alice", "action": "Print", "target": "Picture",
            "remedy": [{"action": "Pay"}],  # remedies belong to prohibitions
        }],
    }
    with pytest.raises(DocumentError) as err:
        parse_policy_document(doc, schema)
    assert err.value.kind == "unknown-field"


def test_odrl_rdf_value_action_form(schema):
    doc = {
        "@context": "http://www.w3.org/ns/odrl.jsonld",
        "@type": "Set",
        "permission": [{
            "assignee": "Alice",
            "action": {"rdf:value": {"@id": "Print"}, "refinement": [
                {"leftOperand": "Print.Resolution", "operator": "lt",
                 "rightOperand": 300}]},
            "target": "Picture",
        }],
    }
    policy = parse_policy_document(doc, schema)
    (rule,) = policy.permissions
    assert eq(1, "Print") in rule.conditions
    assert any(getattr(c, "feature", None) == RESOLUTION
               for c in rule.conditions)

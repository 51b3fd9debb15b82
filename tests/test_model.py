"""Construction-time invariants of the domain model."""

from __future__ import annotations

import pytest

from odrleval import (
    ActionVocabulary,
    And,
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
    Or,
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
from conftest import ACTOR, ASSET, PAGES, make_event, make_schema, eq, ts, under_hash_seeds


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


@pytest.mark.parametrize("index", [1.0, True])
def test_schema_index_must_be_an_integer(index):
    # 1.0 and True compare equal to 1, the position they sit at
    with pytest.raises(SchemaError) as err:
        FeatureSchema((
            FeatureDecl(0, "Datetime", Datatype.TIMESTAMP, ComponentTag.RULE),
            FeatureDecl(index, "Action", Datatype.IDENTIFIER, ComponentTag.ACTION),
        ))
    assert err.value.kind == "duplicate-index"


@pytest.mark.parametrize("field, target", [
    ("refines", 1.0), ("refines", True), ("class_feature", 6.0)])
def test_schema_targets_must_be_integers(field, target):
    tags = FeatureDecl(6, "Tags", Datatype.IDENTIFIER_SET, ComponentTag.RULE)
    if field == "refines":
        decl = FeatureDecl(7, "X", Datatype.NUMERIC, ComponentTag.REFINES,
                           refines=target)
    else:
        decl = FeatureDecl(7, "X", Datatype.IDENTIFIER, ComponentTag.RULE,
                           class_feature=target)
    with pytest.raises(SchemaError) as err:
        FeatureSchema(make_schema().features + (tags, decl))
    assert err.value.kind == "bad-gamma-target"


def test_duplicate_feature_name_rejected():
    with pytest.raises(SchemaError) as err:
        FeatureSchema((
            FeatureDecl(0, "Datetime", Datatype.TIMESTAMP, ComponentTag.RULE),
            FeatureDecl(1, "Action", Datatype.IDENTIFIER, ComponentTag.ACTION),
            FeatureDecl(2, "X", Datatype.NUMERIC, ComponentTag.RULE),
            FeatureDecl(3, "X", Datatype.STRING, ComponentTag.RULE),
        ))
    assert err.value.kind == "duplicate-name"
    assert err.value.feature == 3
    assert "'X'" in str(err.value)


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


def test_conform_world_returns_the_order_it_checked(schema):
    from odrleval.model import conform_world
    world = World.of(make_event(t, action, "Alice", "Book")
                     for t in (3, 1, 2, 1) for action in ("Read", "Print"))
    assert conform_world(world, schema).events == world.ordered()
    assert [e.timestamp for e in world.ordered()] == [1, 1, 2, 2, 3, 3]


def test_conformance_names_first_offender_in_canonical_order():
    # Two events carry the wrong kind in the Actor slot; each entry point
    # names the earlier one, whatever order the hash seed gives the world.
    # The Print.Resolution slot is null, which hashes the same in every run.
    code = """
from conftest import ACTOR, make_event, make_p1, make_schema
from odrleval import (Event, LitePolicy, Value, World, WorldConformanceError,
                      evaluate_lite, world_insert_sql)
schema = make_schema()
def actor(t, v):
    values = list(make_event(t, "Print", None, "Book", None, 300).values)
    values[ACTOR] = v
    return Event(values)
world = World.of((actor(2, Value.number(7)), actor(3, Value.text("Bob"))))
for call in (lambda: evaluate_lite(LitePolicy.of({make_p1()}), world, schema),
             lambda: world_insert_sql(world, schema)):
    try:
        call()
    except WorldConformanceError as exc:
        print(exc)
"""
    expected = "feature 2 (Actor) expects identifier, event carries number\n" * 2
    assert under_hash_seeds(code) == [expected] * 3


def test_value_hash_repeats_under_one_hash_seed():
    # hash(None) follows the object's address, so a null slot once moved
    # hash(NULL) and the order of a world's events from run to run.
    code = """
from conftest import make_schema
from odrleval import NULL, Event, Value, World
def event(t, actor):
    return Event((Value.timestamp(t), Value.identifier("Read"), actor,
                  Value.identifier("Book"), NULL, NULL))
world = World.of((event(2, Value.number(7)), event(3, Value.text("Bob"))))
print(hash(NULL), [e.timestamp for e in world.events])
"""
    outs = under_hash_seeds(code, seeds=("2", "2", "2"))
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("a, b", [
    (Value.number(1), Value.number(1.0)),
    (Value.number(0.0), Value.number(-0.0)),
    (Value.identifier_set(["a", "b"]), Value.identifier_set(["b", "a"])),
    (NULL, Value(NULL.kind, None)),
])
def test_equal_values_hash_equal(a, b):
    assert a == b and hash(a) == hash(b)


def test_value_hash_survives_pickling_across_hash_seeds():
    # A value's hash is cached, so unpickling must compute it again under
    # the new process's string hashing.
    import pickle
    data = pickle.dumps((Value.text("Bob"), Value.identifier("Read"), NULL))
    code = f"""
import pickle
from odrleval import NULL, Value
values = pickle.loads({data!r})
fresh = (Value.text("Bob"), Value.identifier("Read"), NULL)
print(values == fresh, [hash(v) for v in values] == [hash(v) for v in fresh])
"""
    assert under_hash_seeds(code) == ["True True\n"] * 3


def test_value_kind_checks():
    with pytest.raises(ModelInvariantError):
        Value.timestamp("three")
    with pytest.raises(ModelInvariantError):
        Value(Value.number(1).kind, "nan-string")


@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf"), 10 ** 400])
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


@pytest.mark.parametrize(
    "op", [Operator.HAS_PART, Operator.IS_PART_OF, Operator.IS_ALL_OF, Operator.IS_A])
def test_set_and_class_operators_take_only_string_scalars(op):
    # A number constant here lifted to {5} in the evaluator but to the empty
    # set in the emitted SQL and the witness domain, so the paths disagreed.
    for constant in (Value.number(5), Value.timestamp(3)):
        with pytest.raises(ModelInvariantError):
            SimpleCondition(2, op, constant)
    for constant in (Value.identifier("a"), Value.text("a")):
        assert SimpleCondition(2, op, constant).members == frozenset({"a"})
    assert SimpleCondition(2, op, Value.identifier_set({"a", "b"})).members == {"a", "b"}


def test_rule_label_is_metadata_only():
    a = EventRule.of(eq(1, "Print"), label="one")
    b = EventRule.of(eq(1, "Print"), label="two")
    assert a == b
    assert len({a, b}) == 1


@pytest.mark.parametrize("label", [5, True, ["one"]])
def test_rule_label_must_be_a_string(label):
    with pytest.raises(ModelInvariantError):
        EventRule.of(eq(1, "Print"), label=label)


def test_full_policy_duty_must_be_permitted():
    perm = EventRule.of(eq(1, "Print"), label="perm")
    duty = EventRule.of(eq(1, "Pay"), label="duty")
    lite = LitePolicy.of({perm})
    with pytest.raises(PolicyInvariantError):
        FullPolicy.of(lite, duty_pairs={(perm, duty)})
    ok = FullPolicy.of(LitePolicy.of({perm, duty}), duty_pairs={(perm, duty)})
    assert (perm, duty) in ok.duty_pairs


def test_full_policy_names_first_offending_pairing_in_canonical_order():
    # One pairing holds a non-permission first, the other second; the
    # message names the one rendered first, whatever the hash seed.
    code = """
from conftest import eq
from odrleval import EventRule, FullPolicy, LitePolicy, PolicyInvariantError
p, d, x = (EventRule.of(eq(1, a), label=a) for a in ("Print", "Pay", "Read"))
try:
    FullPolicy.of(LitePolicy.of({p, d}), duty_pairs={(x, d), (p, x)})
except PolicyInvariantError as exc:
    print(exc)
"""
    expected = "dutyPairs: every duty must be a permission\n"
    assert under_hash_seeds(code, seeds=("1", "2", "3", "4", "5", "6")) == [expected] * 6


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


def test_vocabulary_long_chain_checked_without_recursion():
    # A recursive search went one call deeper per link of the chain.
    chain = [(f"a{i}", f"a{i + 1}") for i in range(20000)]
    assert ActionVocabulary.of(chain).descendants_of("a20000") == {
        f"a{i}" for i in range(20001)}
    with pytest.raises(VocabularyError, match="cyclic-vocabulary"):
        ActionVocabulary.of(chain + [("a20000", "a0")])


def test_vocabulary_cycle_named_in_sorted_order():
    # The first cycle in sorted edge order is named, by itself: the edge
    # leading into it is no part of the message.
    cases = {
        (("a", "b"), ("b", "c"), ("c", "a"), ("d", "e"), ("e", "d")): "a -> b -> c -> a",
        (("x", "b"), ("b", "c"), ("c", "b")): "b -> c -> b",
        (("z", "z"),): "z -> z",
    }
    for edges, path in cases.items():
        with pytest.raises(VocabularyError) as err:
            ActionVocabulary.of(reversed(edges))
        head = path.split(" ")[0]
        assert str(err.value) == (
            f"cyclic-vocabulary: action {head!r} is included in itself via {path}")


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


# -- typed refusals of malformed model objects ---------------------------------

DATETIME_DECL = FeatureDecl(0, "Datetime", Datatype.TIMESTAMP, ComponentTag.RULE)
ACTION_DECL = FeatureDecl(1, "Action", Datatype.IDENTIFIER, ComponentTag.ACTION)


@pytest.mark.parametrize("fields, text", [
    ({"component": ComponentTag.REFINES}, "refinement without a target"),
    ({"refines": 1}, "refines is only valid on refinements"),
    ({"party_role": "assignee"}, "party_role on a non-party feature"),
    ({"component": ComponentTag.PARTY, "classes": frozenset({"a"}), "class_feature": 3},
     "both static classes and a class feature"),
], ids=["refinement-without-target", "refines-on-core", "role-on-asset",
        "classes-and-class-feature"])
def test_feature_decl_invariants(fields, text):
    with pytest.raises(ModelInvariantError, match=text):
        FeatureDecl(**{"index": 2, "name": "Asset", "datatype": Datatype.IDENTIFIER,
                       "component": ComponentTag.ASSET, **fields})


def test_declaration_of_unknown_index(schema):
    with pytest.raises(SchemaError) as err:
        schema.declaration(len(schema))
    assert err.value.kind == "bad-gamma-target"


@pytest.mark.parametrize("features, kind", [
    ((), "wrong-datetime-slot"),
    (("Datetime",), "bad-gamma-target"),
    ((DATETIME_DECL,), "wrong-action-slot"),
    ((DATETIME_DECL, ACTION_DECL,
      FeatureDecl(2, "Act", Datatype.IDENTIFIER, ComponentTag.ACTION)), "wrong-action-slot"),
], ids=["no-features", "not-a-declaration", "no-action", "second-action"])
def test_schema_shape_refused(features, kind):
    with pytest.raises(SchemaError) as err:
        FeatureSchema(features)
    assert err.value.kind == kind


@pytest.mark.parametrize("values", [
    (Value.timestamp(1),),
    (Value.timestamp(1), "Read"),
], ids=["one-slot", "non-value-slot"])
def test_event_shape_refused(values):
    with pytest.raises(ModelInvariantError):
        Event(values)


def test_condition_constant_must_be_a_value():
    with pytest.raises(ModelInvariantError, match="must be Value instances"):
        SimpleCondition(ACTOR, Operator.EQ, "Alice")


@pytest.mark.parametrize("build, text", [
    (lambda: And(()), "at least one operand"),
    (lambda: Or((eq(ACTOR, "Alice"), "Bob")), "is not a condition"),
    (lambda: EventRule(frozenset({"Alice"})), "is not a condition"),
    (lambda: LitePolicy.of(permissions=(eq(ACTOR, "Alice"),)),
     "permissions must contain event rules"),
], ids=["empty-combinator", "non-condition-operand", "rule-of-non-conditions",
        "policy-of-non-rules"])
def test_non_conditions_and_non_rules_refused(build, text):
    with pytest.raises(ModelInvariantError, match=text):
        build()


def test_pairing_tuple_of_wrong_arity_refused():
    permission = EventRule.of(eq(1, "Read"), label="read")
    with pytest.raises(PolicyInvariantError, match="every entry is a"):
        FullPolicy.of(LitePolicy.of({permission}), duty_pairs={(permission,)})


def test_rule_and_event_hashes_survive_pickling_across_hash_seeds():
    # Rules and events cache their hashes too: a rule pickled under one
    # hash seed and loaded under another must hash as a fresh one does.
    build = """
from conftest import make_event, make_f1
rule, event = make_f1(), make_event(1, "Read", "Bob", "Book", pages=300)
"""
    dumped = under_hash_seeds(build + """
import pickle
print(pickle.dumps((rule, event)).hex())
""", seeds=("1",))[0]
    loaded = under_hash_seeds(build + f"""
import pickle
loaded = pickle.loads(bytes.fromhex({dumped.strip()!r}))
print(loaded == (rule, event), [hash(x) for x in loaded] == [hash(rule), hash(event)],
      loaded[0].label, loaded[0] in {{rule}}, loaded[1] in {{event}})
""", seeds=("2",))
    assert loaded == ["True True f1 True True\n"]


def test_trusted_constructors_hash_as_public_ones():
    from odrleval.model import ValueKind
    values = (Value.timestamp(3), Value.identifier("Read"), NULL,
              Value.identifier("Book"), Value.number(1.0), Value.number(2))
    trusted = tuple(Value._trusted(v.kind, v.raw) for v in values)
    assert trusted == values
    assert [hash(v) for v in trusted] == [hash(v) for v in values]
    assert Value._trusted(ValueKind.NUMBER, 1) == Value.number(1.0)
    event = Event._trusted(trusted)
    assert event == Event(values) and hash(event) == hash(Event(values))


def test_world_view_takes_no_part_in_equality_repr_or_pickling():
    import pickle
    events = [make_event(t, "Read", "Bob", "Book") for t in (2, 1, 2)]
    world, bare = World.of(events), World.of(events)
    assert world.ordered() == tuple(sorted(world.events, key=Event.sort_key))
    assert world == bare and hash(world) == hash(bare) and repr(world) == repr(bare)
    copy = pickle.loads(pickle.dumps(world))
    assert "_encoded" not in vars(copy) and copy == world
    assert copy.ordered() == world.ordered()


def test_world_view_gives_each_numeric_literal_its_own_code():
    # 1 and 1.0, 0.0 and -0.0 are equal values written differently: each
    # literal gets a code, and the column lists it as it was written.
    schema = make_schema()
    pages = (1, 1.0, 0.0, -0.0, 1.0, -0.0, 1, 0.0)
    world = World.of((make_event(t, "Read", "Bob", "Book", pages=x)
                      for t, x in enumerate(pages)), schema)
    values, codes = world._encoded.codes(PAGES)
    assert [repr(v.raw) for v in values] == ["1", "1.0", "0.0", "-0.0"]
    assert codes == [0, 1, 2, 3, 1, 3, 0, 2]
    assert [repr(values[c].raw) for c in codes] == list(map(repr, pages))


def test_expander_matches_the_string_join():
    # The old expansion: one "0"/"1" per code, the last event highest.
    from random import Random
    from odrleval.model import expander
    rng = Random(5)
    for distinct in (0, 1, 255, 256, 257):
        codes = list(range(distinct)) + [rng.randrange(distinct) for _ in range(distinct and 40)]
        rng.shuffle(codes)
        expand = expander(codes)
        for flags in (bytearray(distinct), bytearray([1]) * distinct,
                      bytearray(rng.randrange(2) for _ in range(distinct))):
            bits = "".join(map("01".__getitem__, flags))
            joined = int("".join(bits[c] for c in reversed(codes)) or "0", 2)
            assert expand(flags) == joined, distinct
    # a column may list values no event holds any more
    assert expander([1, 0, 1])(bytearray([0, 1]) + bytearray(300)) == 0b101
    # one event whose code is past the one-bytes layout
    for code in (0, 255, 256, 300):
        flags = bytearray(301)
        assert expander([code])(flags) == 0
        flags[code] = 1
        assert expander([code])(flags) == 1

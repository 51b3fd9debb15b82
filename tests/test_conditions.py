"""Condition evaluation: comparison semantics, null-dominance, boolean
combinations, and xor desugaring."""

from __future__ import annotations

from hypothesis import given, settings

import strategies
from odrleval import (
    And,
    ComponentTag,
    Constant,
    Datatype,
    Event,
    FeatureDecl,
    FeatureSchema,
    Not,
    NULL,
    Operator,
    Or,
    SimpleCondition,
    Value,
    Xor,
    desugar_xor,
    eval_complex,
    eval_simple,
    negate,
    simplify,
)
from odrleval.conditions import class_condition
from conftest import ACTOR, DATETIME, PAGES, RESOLUTION, make_event, num, ts


def test_resolution_equality_on_print_event(schema, e1):
    c = num(RESOLUTION, Operator.EQ, 500)
    assert eval_simple(c, e1, schema) is True


def test_null_feature_evaluates_false(schema, e2):
    c = num(RESOLUTION, Operator.EQ, 500)
    assert eval_simple(c, e2, schema) is False


def test_pages_comparison(schema, e3):
    assert eval_simple(num(PAGES, Operator.GT, 250), e3, schema) is True


def test_identifier_order_comparison_is_false(schema, e1):
    c = SimpleCondition(ACTOR, Operator.GTEQ, Value.identifier("Alice"))
    assert eval_simple(c, e1, schema) is False


def test_cross_kind_comparison_is_false(schema, e1):
    # text constant against a numeric feature: incomparable, so false
    c = SimpleCondition(RESOLUTION, Operator.EQ, Value.text("500"))
    assert eval_simple(c, e1, schema) is False


def test_null_dominance_covers_negative_operators(schema, e2):
    # e2 has a null resolution: even "not equal" and "none of" are false
    assert eval_simple(num(RESOLUTION, Operator.NEQ, 1), e2, schema) is False
    c = SimpleCondition(ACTOR, Operator.IS_NONE_OF,
                        Value.identifier_set({"Carol"}))
    null_actor = make_event(1, "Read", None, "Book")
    assert eval_simple(c, null_actor, schema) is False
    assert eval_simple(c, e2, schema) is True  # Bob is not Carol


@settings(max_examples=120, deadline=None)
@given(strategies.simple_conditions())
def test_null_dominance_property(c):
    schema = __import__("conftest").make_schema()
    blank = make_event(1, "Read", None, None, resolution=None, pages=None)
    if c.feature in (DATETIME, 1):
        return  # timestamp and action slots cannot be null
    assert eval_simple(c, blank, schema) is False


def test_datetime_range_outside(schema, e2):
    rng = And((ts(Operator.LTEQ, 5), ts(Operator.GTEQ, 3)))
    assert eval_complex(rng, e2, schema) is False


def test_datetime_range_inside(schema, e3):
    rng = And((ts(Operator.LTEQ, 5), ts(Operator.GTEQ, 3)))
    assert eval_complex(rng, e3, schema) is True


def test_excluded_middle_on_nonnull_feature(schema, e1):
    c = num(RESOLUTION, Operator.LT, 100)
    assert eval_complex(Or((c, Not(c))), e1, schema) is True


def test_de_morgan_and_double_negation_exhaustive(schema):
    a = num(RESOLUTION, Operator.GT, 300)
    b = num(PAGES, Operator.LTEQ, 250)
    events = [
        make_event(1, "Print", "Alice", "Picture", resolution=r, pages=p)
        for r in (None, 100, 300, 500)
        for p in (None, 100, 250, 400)
    ]
    for e in events:
        lhs = eval_complex(Not(And((a, b))), e, schema)
        rhs = eval_complex(Or((Not(a), Not(b))), e, schema)
        assert lhs == rhs
        assert eval_complex(Not(Not(a)), e, schema) == eval_complex(a, e, schema)


def test_desugar_structure():
    a = num(RESOLUTION, Operator.GT, 300)
    b = num(PAGES, Operator.LTEQ, 250)
    assert desugar_xor(Xor(a, b)) == Or((And((a, Not(b))), And((Not(a), b))))


def test_desugar_identity_without_xor():
    c = And((num(RESOLUTION, Operator.GT, 300), Not(num(PAGES, Operator.EQ, 1))))
    assert desugar_xor(c) is c


def test_xor_with_tautology_encodes_negation(schema):
    # <i,=,x> | <i,!=,x> is true exactly on events whose feature i is non-null,
    # so xor-ing against it complements c there.
    top = Or((num(RESOLUTION, Operator.EQ, 500),
              num(RESOLUTION, Operator.NEQ, 500)))
    c = num(RESOLUTION, Operator.GT, 400)
    for resolution in (100, 450, 500, 600):
        e = make_event(1, "Print", "Alice", "Picture", resolution=resolution)
        assert (eval_complex(Xor(c, top), e, schema)
                == eval_complex(Not(c), e, schema))
    # on a null feature the encoding is false while native negation is true
    e_null = make_event(1, "Print", "Alice", "Picture")
    assert eval_complex(Xor(c, top), e_null, schema) is False
    assert eval_complex(Not(c), e_null, schema) is True


@settings(max_examples=150, deadline=None)
@given(strategies.conditions(), strategies.events())
def test_desugar_preserves_evaluation(c, e):
    schema = __import__("conftest").make_schema()
    assert (eval_complex(desugar_xor(c), e, schema)
            == eval_complex(c, e, schema))


@settings(max_examples=200, deadline=None)
@given(strategies.tagged_conditions(), strategies.tagged_events())
def test_negate_and_simplify_preserve_evaluation(c, e):
    # tagged conditions hold truth constants and negations at any depth
    schema = strategies.tagged_schema()
    truth = eval_complex(c, e, schema)
    assert eval_complex(negate(c), e, schema) is not truth
    folded = simplify(c)
    assert eval_complex(folded, e, schema) is truth
    assert isinstance(folded, Constant) or not _has_constant(folded)


def test_negate_collapses_negation_and_constants():
    c = num(RESOLUTION, Operator.GT, 300)
    assert negate(Not(c)) is c
    assert negate(Constant(True)) == Constant(False)
    assert negate(c) == Not(c)


def test_simplify_drops_a_neutral_constant_in_any_position():
    a, b = num(RESOLUTION, Operator.GT, 300), num(PAGES, Operator.LTEQ, 250)
    for junction, neutral in ((And, Constant(True)), (Or, Constant(False))):
        for parts in ((neutral, a, b), (a, neutral, b), (a, b, neutral)):
            assert simplify(junction(parts)) == junction((a, b)), parts


def test_simplify_returns_an_unchanged_tree_itself():
    a, b = num(RESOLUTION, Operator.GT, 300), num(PAGES, Operator.LTEQ, 250)
    for c in (And((a, b)), Or((a, Not(b))), Not(And((a, b))), Xor(a, Or((a, b)))):
        assert simplify(c) is c


def _has_constant(c) -> bool:
    if isinstance(c, Constant):
        return True
    if isinstance(c, (And, Or)):
        return any(map(_has_constant, c.parts))
    if isinstance(c, Not):
        return _has_constant(c.part)
    if isinstance(c, Xor):
        return _has_constant(c.left) or _has_constant(c.right)
    return False


# -- set and class operators -------------------------------------------------

def set_schema() -> FeatureSchema:
    # Device carries a static class set; Peer reads its classes from the Tags
    # feature of the same event. Actor/Asset class declarations are exercised
    # at condition level only (rule-level use would break item 2).
    return FeatureSchema((
        FeatureDecl(0, "Datetime", Datatype.TIMESTAMP, ComponentTag.RULE),
        FeatureDecl(1, "Action", Datatype.IDENTIFIER, ComponentTag.ACTION),
        FeatureDecl(2, "Actor", Datatype.IDENTIFIER, ComponentTag.PARTY,
                    party_role="assignee",
                    classes=frozenset({"Person", "Employee"})),
        FeatureDecl(3, "Asset", Datatype.IDENTIFIER, ComponentTag.ASSET,
                    class_feature=5),
        FeatureDecl(4, "Tags", Datatype.IDENTIFIER_SET, ComponentTag.RULE),
        FeatureDecl(5, "AssetClasses", Datatype.IDENTIFIER_SET, ComponentTag.RULE),
        FeatureDecl(6, "Device", Datatype.IDENTIFIER, ComponentTag.RULE,
                    classes=frozenset({"Mobile", "Trusted"})),
        FeatureDecl(7, "Peer", Datatype.IDENTIFIER, ComponentTag.RULE,
                    class_feature=4),
    ))


def set_event(tags=None, asset_classes=None, actor="Alice", device=None,
              peer=None) -> Event:
    return Event((
        Value.timestamp(1),
        Value.identifier("Read"),
        NULL if actor is None else Value.identifier(actor),
        Value.identifier("Book"),
        NULL if tags is None else Value.identifier_set(tags),
        NULL if asset_classes is None else Value.identifier_set(asset_classes),
        NULL if device is None else Value.identifier(device),
        NULL if peer is None else Value.identifier(peer),
    ))


def test_set_operators():
    s = set_schema()
    e = set_event(tags={"red", "blue"})
    tags = 4

    def check(op, members, expected):
        c = SimpleCondition(tags, op, Value.identifier_set(members))
        assert eval_simple(c, e, s) is expected, (op, members)

    check(Operator.HAS_PART, {"red"}, True)
    check(Operator.HAS_PART, {"red", "green"}, False)
    check(Operator.IS_PART_OF, {"red", "blue", "green"}, True)
    check(Operator.IS_PART_OF, {"red"}, False)
    check(Operator.IS_ALL_OF, {"red", "blue"}, True)
    check(Operator.IS_ALL_OF, {"red"}, False)
    # scalar right operand lifts to a singleton
    c = SimpleCondition(tags, Operator.HAS_PART, Value.identifier("blue"))
    assert eval_simple(c, e, s) is True
    # null set feature: everything false
    e_null = set_event(tags=None)
    assert eval_simple(
        SimpleCondition(tags, Operator.IS_PART_OF, Value.identifier_set({"x"})),
        e_null, s) is False
    assert eval_simple(
        SimpleCondition(tags, Operator.HAS_PART, Value.identifier_set(())),
        e_null, s) is False


def test_membership_operators():
    s = set_schema()
    e = set_event(tags={"red"})
    any_of = SimpleCondition(2, Operator.IS_ANY_OF,
                             Value.identifier_set({"Alice", "Bob"}))
    none_of = SimpleCondition(2, Operator.IS_NONE_OF,
                              Value.identifier_set({"Alice", "Bob"}))
    assert eval_simple(any_of, e, s) is True
    assert eval_simple(none_of, e, s) is False
    carol = set_event(actor="Carol")
    assert eval_simple(any_of, carol, s) is False
    assert eval_simple(none_of, carol, s) is True


def test_is_a_static_classes():
    s = set_schema()
    e = set_event()
    is_person = SimpleCondition(2, Operator.IS_A, Value.identifier("Person"))
    is_robot = SimpleCondition(2, Operator.IS_A, Value.identifier("Robot"))
    assert eval_simple(is_person, e, s) is True
    assert eval_simple(is_robot, e, s) is False
    # null actor: false despite the static class set
    assert eval_simple(is_person, set_event(actor=None), s) is False


def test_is_a_companion_feature():
    s = set_schema()
    is_novel = SimpleCondition(3, Operator.IS_A, Value.identifier("Novel"))
    assert eval_simple(is_novel, set_event(asset_classes={"Novel", "Text"}), s) is True
    assert eval_simple(is_novel, set_event(asset_classes={"Text"}), s) is False
    # unknown class information (companion null) is an error, hence false
    assert eval_simple(is_novel, set_event(asset_classes=None), s) is False


def test_class_condition_is_built_once_per_condition_and_schema():
    s = set_schema()
    is_novel = SimpleCondition(3, Operator.IS_A, Value.identifier("Novel"))
    cc = class_condition(is_novel, s)
    assert cc == SimpleCondition(5, Operator.HAS_PART, Value.identifier_set({"Novel"}))
    assert class_condition(is_novel, s) is cc
    # an equal condition built anew finds the same class test
    assert class_condition(
        SimpleCondition(3, Operator.IS_A, Value.identifier("Novel")), s) is cc
    # a static class set is a constant class test; a non-isA condition reads
    # its own feature only
    assert class_condition(SimpleCondition(2, Operator.IS_A, Value.identifier("Person")),
                           s) == Constant(True)
    assert class_condition(SimpleCondition(3, Operator.EQ, Value.identifier("Novel")),
                           s) is None
    # every event evaluates against the one class test
    for classes in ({"Novel"}, {"Text"}, None):
        eval_simple(is_novel, set_event(asset_classes=classes), s)
    assert s.class_conditions == {
        is_novel: cc,
        SimpleCondition(2, Operator.IS_A, Value.identifier("Person")): Constant(True)}


def test_is_a_without_any_class_source():
    s = set_schema()
    c = SimpleCondition(1, Operator.IS_A, Value.identifier("Anything"))
    assert eval_simple(c, set_event(), s) is False


def test_integer_and_decimal_compare_numerically(schema, e3):
    # 300 pages match both the integer and the decimal rendering
    assert eval_simple(num(PAGES, Operator.EQ, 300.0), e3, schema) is True
    assert eval_simple(num(PAGES, Operator.GTEQ, 299.5), e3, schema) is True


def test_evaluation_is_deterministic(schema, e1):
    c = num(RESOLUTION, Operator.GT, 300)
    assert all(eval_simple(c, e1, schema) is True for _ in range(5))

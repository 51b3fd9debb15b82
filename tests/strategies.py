"""Hypothesis strategies over the demo schema: values, events, conditions,
and well-formed rules; plus a tagged variant of the schema with class
information for ``isA``."""

from __future__ import annotations

import dataclasses

from hypothesis import strategies as st

from odrleval import (
    And,
    ComponentTag,
    Constant,
    Datatype,
    Event,
    EventRule,
    FeatureDecl,
    FeatureSchema,
    NULL,
    Not,
    Operator,
    Or,
    SimpleCondition,
    Value,
    Xor,
)
from odrleval.model import SCALAR_OPERATORS
from conftest import (
    ACTION,
    ACTOR,
    ASSET,
    DATETIME,
    PAGES,
    RESOLUTION,
    make_event,
    make_schema,
)

ACTIONS = ("Print", "Read")
ACTORS = ("Alice", "Bob", "Carol")
ASSETS = ("Picture", "Book")
TIMESTAMPS = tuple(range(0, 7))
NUMBERS = (0, 100, 250, 300, 450, 500, 600, 1000)

ORDER_OPS = (Operator.EQ, Operator.NEQ, Operator.GT, Operator.GTEQ,
             Operator.LT, Operator.LTEQ)


def events():
    return st.builds(
        make_event,
        st.sampled_from(TIMESTAMPS),
        st.sampled_from(ACTIONS),
        st.sampled_from(ACTORS + (None,)),
        st.sampled_from(ASSETS + (None,)),
        resolution=st.sampled_from(NUMBERS + (None,)),
        pages=st.sampled_from(NUMBERS + (None,)),
    )


def _scalar_condition(feature: int, constants, make_value):
    return st.builds(
        SimpleCondition,
        st.just(feature),
        st.sampled_from(ORDER_OPS),
        st.sampled_from([make_value(c) for c in constants]),
    )


def simple_conditions():
    return st.one_of(
        _scalar_condition(DATETIME, TIMESTAMPS, Value.timestamp),
        st.builds(SimpleCondition, st.just(ACTION),
                  st.sampled_from((Operator.EQ, Operator.NEQ)),
                  st.sampled_from([Value.identifier(a) for a in ACTIONS])),
        st.builds(SimpleCondition, st.just(ACTOR),
                  st.sampled_from((Operator.EQ, Operator.NEQ)),
                  st.sampled_from([Value.identifier(a) for a in ACTORS])),
        st.builds(SimpleCondition, st.just(ACTOR), st.just(Operator.IS_ANY_OF),
                  st.just(Value.identifier_set({"Alice", "Bob"}))),
        st.builds(SimpleCondition, st.just(ACTOR), st.just(Operator.IS_NONE_OF),
                  st.just(Value.identifier_set({"Carol"}))),
        _scalar_condition(RESOLUTION, NUMBERS, Value.number),
        _scalar_condition(PAGES, NUMBERS, Value.number),
    )


def conditions(max_depth: int = 3):
    return st.recursive(
        simple_conditions(),
        lambda children: st.one_of(
            st.builds(lambda a, b: And((a, b)), children, children),
            st.builds(lambda a, b: Or((a, b)), children, children),
            st.builds(Not, children),
            st.builds(Xor, children, children),
        ),
        max_leaves=max_depth,
    )


def _component_refinements(feature: int, constants, make_value):
    """Zero or more same-component conditions, possibly one boolean combine."""
    leaf = _scalar_condition(feature, constants, make_value)
    combined = st.one_of(
        leaf,
        st.builds(lambda a, b: And((a, b)), leaf, leaf),
        st.builds(lambda a, b: Or((a, b)), leaf, leaf),
        st.builds(Not, leaf),
    )
    return st.lists(combined, max_size=1)


@st.composite
def well_formed_rules(draw):
    """Rules satisfying all three well-formedness items by construction:
    every used component is pinned, and combinations stay within a component."""
    conds = [SimpleCondition(ACTION, Operator.EQ,
                             Value.identifier(draw(st.sampled_from(ACTIONS))))]
    if draw(st.booleans()):
        conds.append(SimpleCondition(
            ACTOR, Operator.EQ, Value.identifier(draw(st.sampled_from(ACTORS)))))
    pin_asset = draw(st.booleans())
    if pin_asset:
        conds.append(SimpleCondition(
            ASSET, Operator.EQ, Value.identifier(draw(st.sampled_from(ASSETS)))))
        conds.extend(draw(_component_refinements(PAGES, NUMBERS, Value.number)))
    conds.extend(draw(_component_refinements(RESOLUTION, NUMBERS, Value.number)))
    conds.extend(draw(_component_refinements(DATETIME, TIMESTAMPS, Value.timestamp)))
    return EventRule(frozenset(conds))


# -- the tagged schema: the demo features plus a per-event class set ----------

TAGS = 6
CLASSES = ("Staff", "Guest")


def tagged_schema() -> FeatureSchema:
    """Actor classes come from the ``Tags`` feature; Asset has static classes."""
    base = make_schema().features
    actor = dataclasses.replace(base[ACTOR], class_feature=TAGS)
    asset = dataclasses.replace(base[ASSET], classes=frozenset({"Media"}))
    tags = FeatureDecl(TAGS, "Tags", Datatype.IDENTIFIER_SET, ComponentTag.RULE)
    return FeatureSchema(base[:ACTOR] + (actor, asset) + base[ASSET + 1:] + (tags,))


def _class_sets():
    return st.frozensets(st.sampled_from(CLASSES + ("Media",))).map(Value.identifier_set)


def tagged_events():
    return st.builds(lambda e, tags: Event(e.values + (tags,)),
                     events(), st.one_of(st.just(NULL), _class_sets()))


_CONSTANTS = (Value.timestamp(3), Value.number(250), Value.text("Bob"),
              Value.identifier("Bob"), Value.identifier("Book"),
              Value.identifier("Staff"), Value.identifier("Media"))
_SCALAR_CONSTANT_OPS = tuple(
    op for op in Operator if op not in (Operator.IS_ANY_OF, Operator.IS_NONE_OF))
_SET_CONSTANT_OPS = tuple(op for op in Operator if op not in SCALAR_OPERATORS)


def _any_simple_conditions():
    """Every operator on every tagged feature, with constants of every kind,
    so most triples compare mismatched kinds."""
    features = st.integers(0, TAGS)
    return st.one_of(
        st.builds(SimpleCondition, features, st.sampled_from(_SCALAR_CONSTANT_OPS),
                  st.sampled_from(_CONSTANTS)),
        st.builds(SimpleCondition, features, st.sampled_from(_SET_CONSTANT_OPS),
                  _class_sets()),
    )


def _is_a_conditions():
    """isA through the class feature (Actor) and static classes (Asset)."""
    return st.builds(SimpleCondition, st.sampled_from((ACTOR, ASSET)),
                     st.just(Operator.IS_A),
                     st.sampled_from([Value.identifier(c) for c in CLASSES + ("Media",)])
                     | _class_sets())


def tagged_conditions(max_leaves: int = 4):
    """Condition trees over the tagged schema: every operator, null-blind and
    kind-mismatched comparisons, class tests, xor and truth constants."""
    leaves = st.one_of(simple_conditions(), _any_simple_conditions(),
                       _is_a_conditions(), st.builds(Constant, st.booleans()))
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.builds(lambda a, b: And((a, b)), children, children),
            st.builds(lambda a, b: Or((a, b)), children, children),
            st.builds(Not, children),
            st.builds(Xor, children, children),
        ),
        max_leaves=max_leaves,
    )

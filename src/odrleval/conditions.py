"""Condition evaluation on single events.

Comparison semantics follow SPARQL filter evaluation: a comparison that
errors (incomparable kinds, missing class information) simply evaluates to
false, and a condition on a feature whose event value is null is false no
matter the operator. The result is strictly two-valued, so negation is plain
complement.

``eval_value`` decides operators by table: a scalar operator is one of
``operator.eq/ne/gt/ge/lt/le`` on the raw values, false unless both kinds
agree and an order operator meets an ordered kind (timestamps, numbers
across int/float, text by codepoint); a set operator is ``ge/le/eq`` on
member sets. An ``isA`` is "value present" and the class test
``class_condition`` gives: the ``hasPart`` test on the feature's class
feature, or a constant for its static classes; every route (per event,
match table, SQL, witness domain) reads that class test through
``class_condition``.

A node's operands are its ``parts``, owned by ``model``: the walkers here
read them there, rebuild a node with ``with_parts``, and dispatch on a
node's type only where its meaning matters.
"""

from __future__ import annotations

import operator

from .model import (
    And,
    Condition,
    Constant,
    Event,
    FeatureSchema,
    MEMBERSHIP_OPERATORS,
    Not,
    ORDERED_KINDS,
    ORDER_OPERATORS,
    Operator,
    Or,
    STRING_KINDS,
    SimpleCondition,
    Value,
    ValueKind,
    Xor,
)

_SCALAR = {Operator.EQ: operator.eq, Operator.NEQ: operator.ne, Operator.GT: operator.gt,
           Operator.GTEQ: operator.ge, Operator.LT: operator.lt, Operator.LTEQ: operator.le}
_SET = {Operator.HAS_PART: operator.ge, Operator.IS_PART_OF: operator.le,
        Operator.IS_ALL_OF: operator.eq}


def class_condition(c: SimpleCondition, s: FeatureSchema) -> Condition | None:
    """The class test of an ``isA``: ``<class feature, hasPart, members>``
    when its feature has a class feature, else the constant "the feature's
    static classes include the members", false when it declares none. None
    for any other condition, which reads its own feature only. Built once
    per condition and schema: the result is kept in ``s.class_conditions``."""
    if c.op is not Operator.IS_A:
        return None
    memo = s.class_conditions
    try:
        return memo[c]
    except KeyError:
        decl = s.declaration(c.feature)
        if decl.class_feature is None:
            cc = Constant(decl.classes is not None and decl.classes >= c.members)
        else:
            cc = SimpleCondition(decl.class_feature, Operator.HAS_PART,
                                 Value.identifier_set(c.members))
        memo[c] = cc
        return cc


def eval_value(c: SimpleCondition, v: Value) -> bool:
    """The part of ``eval_simple`` that reads the condition's own feature,
    with value ``v``. For an ``isA`` this only asks that the value is
    present; ``class_condition`` is its class test."""
    if v.is_null:
        return False

    compare = _SCALAR.get(c.op)
    if compare is not None:
        if v.kind is not c.value.kind or (
                c.op in ORDER_OPERATORS and v.kind not in ORDERED_KINDS):
            return False
        return compare(v.raw, c.value.raw)

    compare = _SET.get(c.op)
    if compare is not None:
        return v.kind is ValueKind.IDENTIFIER_SET and compare(v.raw, c.members)

    if c.op in MEMBERSHIP_OPERATORS:
        # Membership over identifier atoms; a set-valued or non-atom event
        # value is an evaluation error, so false for both operators.
        if v.kind not in STRING_KINDS:
            return False
        hit = v.raw in c.value.raw
        return hit if c.op is Operator.IS_ANY_OF else not hit

    return True   # isA: the value is present


def eval_simple(c: SimpleCondition, e: Event, s: FeatureSchema) -> bool:
    """Evaluate one comparison triple on one event.

    False whenever the feature value is null, the kinds are incomparable, or
    class information for ``isA`` is unavailable.
    """
    cc = class_condition(c, s)
    return eval_value(c, e.value(c.feature)) and (cc is None or eval_complex(cc, e, s))


def eval_complex(c: Condition, e: Event, s: FeatureSchema) -> bool:
    """Evaluate any condition tree; boolean combinators work on the
    two-valued results of their children."""
    if isinstance(c, SimpleCondition):
        return eval_simple(c, e, s)
    if isinstance(c, And):
        return all(eval_complex(p, e, s) for p in c.parts)
    if isinstance(c, Or):
        return any(eval_complex(p, e, s) for p in c.parts)
    if isinstance(c, Not):
        return not eval_complex(c.parts[0], e, s)
    if isinstance(c, Xor):
        return eval_complex(c.parts[0], e, s) != eval_complex(c.parts[1], e, s)
    if isinstance(c, Constant):
        return c.truth
    raise AssertionError(f"unknown condition node {c!r}")


def desugar_xor(c: Condition) -> Condition:
    """Rewrite every xor node as (a & ~b) | (~a & b); other nodes unchanged.

    Returns the input object itself when nothing needed rewriting.
    """
    parts = tuple(map(desugar_xor, c.parts))
    if isinstance(c, Xor):
        a, b = parts
        return Or((And((a, Not(b))), And((Not(a), b))))
    return c.with_parts(parts)


def negate(c: Condition) -> Condition:
    """Complement of a condition, with double negations collapsed."""
    if isinstance(c, Not):
        return c.parts[0]
    if isinstance(c, Constant):
        return Constant(not c.truth)
    return Not(c)


def simplify(c: Condition) -> Condition:
    """Fold truth constants out of a condition tree.

    The result contains a Constant node only when the whole tree is constant,
    and is the input object itself when nothing folded.
    """
    parts = tuple(map(simplify, c.parts))
    if isinstance(c, (And, Or)):
        absorbing = isinstance(c, Or)  # Or absorbs True, And absorbs False
        if Constant(absorbing) in parts:
            return Constant(absorbing)
        parts = tuple(p for p in parts if not isinstance(p, Constant))  # neutral
        if len(parts) < 2:
            return parts[0] if parts else Constant(not absorbing)
    elif isinstance(c, Not) and isinstance(parts[0], Constant):
        return negate(parts[0])
    elif isinstance(c, Xor):
        # b is the constant operand, if either is one
        a, b = parts if isinstance(parts[1], Constant) else parts[::-1]
        if isinstance(b, Constant):
            return negate(a) if b.truth else a
    return c.with_parts(parts)

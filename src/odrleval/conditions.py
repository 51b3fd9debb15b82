"""Condition evaluation on single events.

Comparison semantics follow SPARQL filter evaluation: a comparison that
errors (incomparable kinds, missing class information) simply evaluates to
false, and a condition on a feature whose event value is null is false no
matter the operator. The result is strictly two-valued, so negation is plain
complement.
"""

from __future__ import annotations

from .model import (
    And,
    Condition,
    Constant,
    Event,
    FeatureSchema,
    Not,
    Operator,
    Or,
    SimpleCondition,
    Value,
    ValueKind,
    Xor,
)

_ORDERABLE = (ValueKind.TIMESTAMP, ValueKind.NUMBER, ValueKind.TEXT)


def _compare_scalar(op: Operator, left: Value, right: Value) -> bool:
    """Two-valued scalar comparison; kind mismatches are errors, hence false.

    Numbers compare numerically across int/float. Order comparisons are
    defined for timestamps, numbers and text (codepoint order); identifiers
    are opaque atoms and only support (in)equality.
    """
    lk, rk = left.kind, right.kind
    if op is Operator.EQ or op is Operator.NEQ:
        if lk is ValueKind.IDENTIFIER_SET or rk is ValueKind.IDENTIFIER_SET:
            return False
        if lk is not rk:
            return False
        same = left.raw == right.raw
        return same if op is Operator.EQ else not same
    if op in (Operator.GT, Operator.GTEQ, Operator.LT, Operator.LTEQ):
        if lk is not rk or lk not in _ORDERABLE:
            return False
        a, b = left.raw, right.raw
        if op is Operator.GT:
            return a > b
        if op is Operator.GTEQ:
            return a >= b
        if op is Operator.LT:
            return a < b
        return a <= b
    raise AssertionError(f"not a scalar operator: {op}")


def class_feature(c: SimpleCondition, s: FeatureSchema) -> int | None:
    """The companion feature holding the class set an ``isA`` condition
    reads, or None when the condition reads its own feature only."""
    return s.declaration(c.feature).class_feature if c.op is Operator.IS_A else None


def eval_value(c: SimpleCondition, v: Value, s: FeatureSchema) -> bool:
    """The part of ``eval_simple`` that reads the condition's own feature,
    with value ``v``. For an ``isA`` with a class feature this only asks
    that the value is present; ``eval_classes`` tests the class set."""
    if v.is_null:
        return False

    if c.op is Operator.IS_A:
        # <i, isA, v> is evaluated as <i_c, hasPart, {v}> over i's class set.
        decl = s.declaration(c.feature)
        if decl.class_feature is not None:
            return True
        return decl.classes is not None and decl.classes >= c.members

    if c.op in (Operator.HAS_PART, Operator.IS_PART_OF, Operator.IS_ALL_OF):
        if v.kind is not ValueKind.IDENTIFIER_SET:
            return False
        if c.op is Operator.HAS_PART:
            return v.raw >= c.members
        if c.op is Operator.IS_PART_OF:
            return v.raw <= c.members
        return v.raw == c.members

    if c.op in (Operator.IS_ANY_OF, Operator.IS_NONE_OF):
        # Membership over identifier atoms; a set-valued or non-atom event
        # value is an evaluation error, so false for both operators.
        if v.kind not in (ValueKind.TEXT, ValueKind.IDENTIFIER):
            return False
        hit = v.raw in c.value.raw
        return hit if c.op is Operator.IS_ANY_OF else not hit

    return _compare_scalar(c.op, v, c.value)


def eval_classes(c: SimpleCondition, v: Value) -> bool:
    """The class-feature part of an ``isA``: ``v`` is an identifier set
    holding every class the condition names."""
    return v.kind is ValueKind.IDENTIFIER_SET and v.raw >= c.members


def eval_simple(c: SimpleCondition, e: Event, s: FeatureSchema) -> bool:
    """Evaluate one comparison triple on one event.

    False whenever the feature value is null, the kinds are incomparable, or
    class information for ``isA`` is unavailable.
    """
    cf = class_feature(c, s)
    return eval_value(c, e.value(c.feature), s) and (
        cf is None or eval_classes(c, e.value(cf)))


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
        return not eval_complex(c.part, e, s)
    if isinstance(c, Xor):
        return eval_complex(c.left, e, s) != eval_complex(c.right, e, s)
    if isinstance(c, Constant):
        return c.truth
    raise AssertionError(f"unknown condition node {c!r}")


def desugar_xor(c: Condition) -> Condition:
    """Rewrite every xor node as (a & ~b) | (~a & b); other nodes unchanged.

    Returns the input object itself when nothing needed rewriting.
    """
    if isinstance(c, (SimpleCondition, Constant)):
        return c
    if isinstance(c, Xor):
        left = desugar_xor(c.left)
        right = desugar_xor(c.right)
        return Or((And((left, Not(right))), And((Not(left), right))))
    if isinstance(c, Not):
        part = desugar_xor(c.part)
        return c if part is c.part else Not(part)
    if isinstance(c, (And, Or)):
        parts = tuple(desugar_xor(p) for p in c.parts)
        if all(p is q for p, q in zip(parts, c.parts)):
            return c
        return And(parts) if isinstance(c, And) else Or(parts)
    raise AssertionError(f"unknown condition node {c!r}")


def negate(c: Condition) -> Condition:
    """Complement of a condition, with double negations collapsed."""
    if isinstance(c, Not):
        return c.part
    if isinstance(c, Constant):
        return Constant(not c.truth)
    return Not(c)


def simplify(c: Condition) -> Condition:
    """Fold truth constants out of a condition tree.

    The result contains a Constant node only when the whole tree is constant.
    """
    if isinstance(c, (SimpleCondition, Constant)):
        return c
    if isinstance(c, Not):
        part = simplify(c.part)
        if isinstance(part, Constant):
            return Constant(not part.truth)
        return c if part is c.part else Not(part)
    if isinstance(c, Xor):
        left, right = simplify(c.left), simplify(c.right)
        if isinstance(left, Constant) and isinstance(right, Constant):
            return Constant(left.truth != right.truth)
        if isinstance(left, Constant):
            return right if left.truth is False else negate(right)
        if isinstance(right, Constant):
            return left if right.truth is False else negate(left)
        return c if (left is c.left and right is c.right) else Xor(left, right)
    if isinstance(c, (And, Or)):
        absorbing = isinstance(c, Or)  # Or absorbs True, And absorbs False
        parts = []
        for p in c.parts:
            p = simplify(p)
            if isinstance(p, Constant):
                if p.truth is absorbing:
                    return Constant(absorbing)
                continue  # neutral element, drop
            parts.append(p)
        if not parts:
            return Constant(not absorbing)
        if len(parts) == 1:
            return parts[0]
        return And(tuple(parts)) if isinstance(c, And) else Or(tuple(parts))
    raise AssertionError(f"unknown condition node {c!r}")

"""Rule-level matching, well-formedness checking, and the match table.

A rule is well-formed when (1) it pins the action with a top-level equality,
(2) every core component it touches (directly or through a refinement) is
pinned by exactly one top-level equality and appears in no other condition,
and (3) no boolean combination mixes features of different components.

``match_unchecked`` is the reference semantics; ``MatchTable`` gives every
rule's match set over a whole event sequence as an ``int`` bitset. It reads
the sequence one feature at a time, through ``column(i)``: feature ``i``'s
values and a function from one flag per value to a bitset.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce

from .conditions import (
    class_feature,
    eval_classes,
    eval_complex,
    eval_value,
    simplify,
)
from .errors import IllFormedRuleError
from .model import (
    ACTION_FEATURE,
    And,
    Condition,
    Constant,
    Event,
    EventRule,
    FeatureSchema,
    Not,
    Operator,
    ORDERED_KINDS,
    ORDER_OPERATORS,
    Or,
    RULE_WIDE,
    STRING_KINDS,
    SimpleCondition,
    Value,
    ValueKind,
    Xor,
    features_of,
    is_deadline,
    ordered_rules,
)


@dataclass(frozen=True)
class WellFormednessViolation:
    rule_label: str
    item: int                 # which of the three well-formedness items
    features: tuple           # offending feature indices

    def render(self) -> str:
        return (f"rule {self.rule_label}: well-formedness item {self.item} "
                f"violated by features {list(self.features)}")


@dataclass(frozen=True)
class WellFormednessReport:
    ok: bool
    violations: tuple

    def __post_init__(self):
        assert self.ok == (not self.violations)


def top_level_equalities(rule: EventRule) -> dict:
    """feature -> the rule's top-level ``<i, =, v>`` conditions. A
    well-formed rule has exactly one for the action and for each core
    component it uses: its pins."""
    equalities = {}
    for c in rule.conditions:
        if isinstance(c, SimpleCondition) and c.op is Operator.EQ:
            equalities.setdefault(c.feature, []).append(c)
    return equalities


def check_well_formed(rule: EventRule, schema: FeatureSchema) -> WellFormednessReport:
    """Report-valued check of the three well-formedness items."""
    label = rule.display_label(schema)
    violations = []
    equalities = top_level_equalities(rule)

    # Item 1: some top-level <Action, =, a>.
    if ACTION_FEATURE not in equalities:
        violations.append(WellFormednessViolation(label, 1, (ACTION_FEATURE,)))

    features = {c: features_of(c) for c in rule.conditions}

    # Item 2: every core component in use is pinned by exactly one top-level
    # equality and referenced by no other condition.
    used_components = {schema.gamma(i) for fs in features.values()
                       for i in fs} - {RULE_WIDE}
    for k in sorted(used_components):
        pins = equalities.get(k, [])
        others = [
            c for c, fs in features.items()
            if k in fs and (not pins or c is not pins[0])
        ]
        if len(pins) != 1 or others:
            violations.append(WellFormednessViolation(label, 2, (k,)))

    # Item 3: complex conditions stay within a single component.
    for c, fs in features.items():
        if isinstance(c, SimpleCondition):
            continue
        if len({schema.gamma(i) for i in fs}) > 1:
            violations.append(WellFormednessViolation(label, 3, tuple(sorted(fs))))

    violations.sort(key=lambda v: (v.item, v.features))
    return WellFormednessReport(not violations, tuple(violations))


def is_well_formed(rule: EventRule, schema: FeatureSchema) -> bool:
    """``check_well_formed(rule, schema).ok``, decided once per rule and
    schema: the verdict is kept in ``schema.well_formed_verdicts``."""
    verdicts = schema.well_formed_verdicts
    ok = verdicts.get(rule)
    if ok is None:
        ok = verdicts[rule] = check_well_formed(rule, schema).ok
    return ok


def require_well_formed(rules, schema: FeatureSchema) -> None:
    """The well-formedness gate for a rule set: raise IllFormedRuleError
    for the first ill-formed rule in ``ordered_rules`` order. The report is
    built afresh, so it names that rule's own label."""
    ill = [r for r in rules if not is_well_formed(r, schema)]
    if ill:
        report = check_well_formed(ordered_rules(ill)[0], schema)
        raise IllFormedRuleError(
            "; ".join(v.render() for v in report.violations), report.violations)


def match(rule: EventRule, e: Event, schema: FeatureSchema) -> bool:
    """True when every condition of the rule holds on the event."""
    require_well_formed((rule,), schema)
    return match_unchecked(rule, e, schema)


def match_unchecked(rule: EventRule, e: Event, schema: FeatureSchema) -> bool:
    """``match`` without the well-formedness gate, for callers that validated
    the rule once and evaluate it against many events."""
    return all(eval_complex(c, e, schema) for c in rule.conditions)


def strip_deadline_conditions(rule: EventRule) -> EventRule:
    """The rule with its ``<Datetime, <=, t>`` comparisons removed.

    Top-level deadline conditions are dropped, and occurrences nested in
    monotone positions inside complex conditions are replaced by the truth
    constant and folded. Occurrences under negation or exclusive-or are kept:
    blanking there would strengthen the rule, and the soft match must never
    hold on fewer events than the full match.
    """
    kept = []
    for c in rule.conditions:
        rewritten = simplify(_blank_deadlines(c, positive=True))
        if isinstance(rewritten, Constant) and rewritten.truth:
            continue
        kept.append(rewritten)
    return EventRule(frozenset(kept), label=rule.label)


def _blank_deadlines(c: Condition, positive: bool | None) -> Condition:
    """Replace deadline leaves by True where the position is positive;
    ``positive`` is None inside exclusive-or, where polarity is mixed."""
    if is_deadline(c):
        return Constant(True) if positive is True else c
    if isinstance(c, (SimpleCondition, Constant)):
        return c
    if isinstance(c, And):
        return And(tuple(_blank_deadlines(p, positive) for p in c.parts))
    if isinstance(c, Or):
        return Or(tuple(_blank_deadlines(p, positive) for p in c.parts))
    if isinstance(c, Not):
        flipped = None if positive is None else not positive
        return Not(_blank_deadlines(c.part, flipped))
    if isinstance(c, Xor):
        return Xor(_blank_deadlines(c.left, None),
                   _blank_deadlines(c.right, None))
    raise AssertionError(f"unknown condition node {c!r}")


def softmatch(rule: EventRule, e: Event, schema: FeatureSchema) -> bool:
    """Time-independent match: the rule with its ``<=`` timestamp deadlines
    removed, evaluated on the event."""
    require_well_formed((rule,), schema)
    return match_unchecked(strip_deadline_conditions(rule), e, schema)


# ---------------------------------------------------------------------------
# Match table
# ---------------------------------------------------------------------------

def bit_positions(mask: int) -> list:
    """The set bits of ``mask``, lowest first."""
    return [j for j, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


# Order operator -> the bisection that splits a sorted column at the
# constant, and whether the values above that split hold.
_BISECT = {Operator.GT: (bisect_right, True), Operator.GTEQ: (bisect_left, True),
           Operator.LT: (bisect_left, False), Operator.LTEQ: (bisect_right, False)}


class EventList(tuple):
    """Events in a fixed order, with the column view ``MatchTable`` reads."""

    def column(self, i: int):
        """The distinct values of feature ``i`` in first-seen order, and a
        function from one flag per value to the bitset of the events
        holding it."""
        index = {}
        codes = [index.setdefault(e.values[i], len(index)) for e in self]
        codes.reverse()   # the last event is the highest bit

        def expand(flags) -> int:
            bits = "".join(map("01".__getitem__, flags))
            return int("".join(map(bits.__getitem__, codes)) or "0", 2)
        return tuple(index), expand


class MatchTable:
    """Match sets over one event sequence: bit ``j`` stands for ``events[j]``.
    Each distinct condition is compiled once, on first use.

    The sequence is a list of events, or any sequence with its own
    ``column`` view, such as a witness domain that computes its bitsets
    from its product structure without listing its events. ``column(i)``
    gives feature ``i``'s values and a function from one flag per value to
    the bitset of the events whose feature ``i`` holds a flagged value."""

    def __init__(self, events, schema: FeatureSchema):
        self.events = events if hasattr(events, "column") else EventList(events)
        self.schema = schema
        self.all = (1 << len(self.events)) - 1
        self._columns: dict = {}   # feature index -> (values, expand)
        self._lookups: dict = {}   # feature index -> {value: positions}
        self._sorted: dict = {}    # (feature index, kind) -> (raws, positions)
        self._masks: dict = {}     # condition -> match set

    def _column(self, i: int):
        col = self._columns.get(i)
        if col is None:
            col = self._columns[i] = self.events.column(i)
        return col

    def _mask(self, i: int, test) -> int:
        """The events whose feature ``i`` value passes ``test``."""
        values, expand = self._column(i)
        return expand([test(v) for v in values])

    def _flagged(self, i: int, positions) -> int:
        """The events whose feature ``i`` value sits at one of ``positions``
        of the column."""
        values, expand = self._column(i)
        flags = bytearray(len(values))
        for p in positions:
            flags[p] = 1
        return expand(flags)

    def _positions(self, i: int, v: Value) -> list:
        """The column positions of feature ``i`` holding a value equal to
        ``v``; equal values may be written differently, as 1 and 1.0."""
        lookup = self._lookups.get(i)
        if lookup is None:
            lookup = self._lookups[i] = {}
            for p, w in enumerate(self._column(i)[0]):
                lookup.setdefault(w, []).append(p)
        return lookup.get(v, [])

    def _ordered(self, i: int, kind: ValueKind) -> tuple:
        """Feature ``i``'s column values of ``kind`` in ascending order, as
        parallel lists of raw payloads and column positions."""
        key = (i, kind)
        ordered = self._sorted.get(key)
        if ordered is None:
            values = self._column(i)[0]
            order = sorted((p for p, v in enumerate(values) if v.kind is kind),
                           key=lambda p: values[p].raw)
            ordered = self._sorted[key] = ([values[p].raw for p in order], order)
        return ordered

    def _simple(self, c: SimpleCondition) -> int:
        """``eval_simple`` over a column: ``=`` and ``isAnyOf`` by lookup,
        the order operators by one bisection over the values of the
        constant's kind, any other operator by one value test per column
        value. An ``isA`` with a class feature is ANDed with one class-set
        test per value of that feature."""
        i, op, constant = c.feature, c.op, c.value
        if op is Operator.EQ:
            m = self._flagged(i, self._positions(i, constant))
        elif op is Operator.IS_ANY_OF:
            m = self._flagged(i, [p for member in constant.raw for kind in STRING_KINDS
                                  for p in self._positions(i, Value(kind, member))])
        elif op in ORDER_OPERATORS:
            if constant.kind in ORDERED_KINDS:
                raws, order = self._ordered(i, constant.kind)
                find, above = _BISECT[op]
                k = find(raws, constant.raw)
                m = self._flagged(i, order[k:] if above else order[:k])
            else:
                m = 0   # an order test on an unordered kind is false
        else:
            m = self._mask(i, lambda v: eval_value(c, v, self.schema))
        cf = class_feature(c, self.schema)
        if cf is not None:
            m &= self._mask(cf, lambda v: eval_classes(c, v))
        return m

    def condition(self, c: Condition) -> int:
        m = self._masks.get(c)
        if m is None:
            m = self._masks[c] = self._compile(c)
        return m

    def _compile(self, c: Condition) -> int:
        if isinstance(c, SimpleCondition):
            return self._simple(c)
        if isinstance(c, And):
            return reduce(operator.and_, map(self.condition, c.parts), self.all)
        if isinstance(c, Or):
            return reduce(operator.or_, map(self.condition, c.parts), 0)
        if isinstance(c, Not):
            return self.all ^ self.condition(c.part)
        if isinstance(c, Xor):
            return self.condition(c.left) ^ self.condition(c.right)
        if isinstance(c, Constant):
            return self.all if c.truth else 0
        raise AssertionError(f"unknown condition node {c!r}")

    def rule(self, rule: EventRule) -> int:
        """Events on which every condition of the rule holds."""
        return reduce(operator.and_, map(self.condition, rule.conditions), self.all)

    def any(self, rules) -> int:
        """Events matching at least one of the rules."""
        return reduce(operator.or_, map(self.rule, rules), 0)

"""Rule-level matching, well-formedness checking, and the match table.

A rule is well-formed when (1) it pins the action with a top-level equality,
(2) every core component it touches (directly or through a refinement) is
pinned by exactly one top-level equality and appears in no other condition,
and (3) no boolean combination mixes features of different components.

``match_unchecked`` is the reference semantics; ``MatchTable`` gives every
rule's match set over a whole event sequence as an ``int`` bitset.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce

from .conditions import eval_complex, eval_simple, simplify
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
    Or,
    RULE_WIDE,
    SimpleCondition,
    Xor,
    features_of,
    is_deadline,
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


def check_well_formed(rule: EventRule, schema: FeatureSchema) -> WellFormednessReport:
    """Report-valued check of the three well-formedness items."""
    label = rule.display_label(schema)
    violations = []
    equalities = {}   # feature -> its top-level <i, =, v> conditions
    for c in rule.conditions:
        if isinstance(c, SimpleCondition) and c.op is Operator.EQ:
            equalities.setdefault(c.feature, []).append(c)

    # Item 1: some top-level <Action, =, a>.
    if ACTION_FEATURE not in equalities:
        violations.append(WellFormednessViolation(label, 1, (ACTION_FEATURE,)))

    # Item 2: every core component in use is pinned by exactly one top-level
    # equality and referenced by no other condition.
    used_components = set()
    for i in rule.feature_set():
        gamma = schema.gamma(i)
        if gamma is not RULE_WIDE:
            used_components.add(gamma)
    for k in sorted(used_components):
        pins = equalities.get(k, [])
        others = [
            c for c in rule.conditions
            if k in features_of(c) and (not pins or c is not pins[0])
        ]
        if len(pins) != 1 or others:
            violations.append(WellFormednessViolation(label, 2, (k,)))

    # Item 3: complex conditions stay within a single component.
    for c in rule.conditions:
        if isinstance(c, SimpleCondition):
            continue
        gammas = {schema.gamma(i) for i in features_of(c)}
        if len(gammas) > 1:
            violations.append(
                WellFormednessViolation(label, 3, tuple(sorted(features_of(c)))))

    violations.sort(key=lambda v: (v.item, v.features))
    return WellFormednessReport(not violations, tuple(violations))


def require_well_formed(rule: EventRule, schema: FeatureSchema) -> None:
    report = check_well_formed(rule, schema)
    if not report.ok:
        raise IllFormedRuleError(
            "; ".join(v.render() for v in report.violations), report.violations)


def match(rule: EventRule, e: Event, schema: FeatureSchema) -> bool:
    """True when every condition of the rule holds on the event."""
    require_well_formed(rule, schema)
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
    require_well_formed(rule, schema)
    return match_unchecked(strip_deadline_conditions(rule), e, schema)


# ---------------------------------------------------------------------------
# Match table
# ---------------------------------------------------------------------------

def bit_positions(mask: int) -> list:
    """The set bits of ``mask``, lowest first."""
    return [j for j, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


class MatchTable:
    """Match sets over one event sequence: bit ``j`` stands for ``events[j]``.
    Each distinct condition is compiled once, on first use."""

    def __init__(self, events, schema: FeatureSchema):
        self.events = tuple(events)
        self.schema = schema
        self.all = (1 << len(self.events)) - 1
        self._columns: dict = {}   # features read -> (representatives, codes)
        self._masks: dict = {}     # condition -> match set

    def _column(self, read: tuple):
        """One representative event per distinct value of the features in
        ``read``, and each event's representative index, last event first."""
        col = self._columns.get(read)
        if col is None:
            key, index, reps, codes = operator.itemgetter(*read), {}, [], []
            for e in self.events:
                k = index.setdefault(key(e.values), len(index))
                if k == len(reps):
                    reps.append(e)
                codes.append(k)
            col = self._columns[read] = (reps, codes[::-1])
        return col

    def _simple(self, c: SimpleCondition) -> int:
        """``eval_simple`` runs once per distinct value of the features it
        reads: the condition's own, plus the class feature for ``isA``."""
        cf = self.schema.declaration(c.feature).class_feature \
            if c.op is Operator.IS_A else None
        reps, codes = self._column((c.feature,) if cf is None else (c.feature, cf))
        flags = ["1" if eval_simple(c, e, self.schema) else "0" for e in reps]
        return int("".join(map(flags.__getitem__, codes)) or "0", 2)

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

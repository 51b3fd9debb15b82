"""Policy evaluation on a state of the world.

A lite policy is violated when some event matches no permission, some event
matches a prohibition, or some obligation has no matching event. The full
policy adds four clauses over the timestamp order: duties that must precede
a permitted event, duties with make-up consequences, remedies that must
follow a prohibition breach, and consequences owed after a missed obligation
deadline.

Reports enumerate every finding rather than stopping at the first, so
monitoring and negotiation callers get complete diagnostics; ``is_valid``
gives the plain verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .matching import (
    MatchTable,
    bit_positions,
    lowest_bit,
    require_well_formed,
    strip_deadline_conditions,
)
from .model import (
    EventRule,
    FeatureSchema,
    FullPolicy,
    LitePolicy,
    Policy,
    World,
    conform_world,
    deadline_conditions,
    ordered_rules,
)


class Clause(Enum):
    """Violation clauses, in report order."""

    PERMISSIONS = "permissions"
    PROHIBITIONS = "prohibitions"
    OBLIGATIONS = "obligations"
    PERMISSION_DUTIES = "permission-duties"
    PERMISSION_DUTIES_WITH_CONSEQUENCES = "permission-duties-with-consequences"
    PROHIBITION_REMEDIES = "prohibition-remedies"
    OBLIGATION_CONSEQUENCES = "obligation-consequences"


_CLAUSE_ORDER = {c: i for i, c in enumerate(Clause)}


@dataclass(frozen=True)
class Finding:
    """One diagnosed violation.

    ``witnesses`` are events of the evaluated world demonstrating an
    existential clause; ``missing`` describes what a universal clause failed
    to find.
    """

    clause: Clause
    rules: tuple = ()
    witnesses: tuple = ()
    missing: str | None = None

    def sort_key(self):
        return (
            _CLAUSE_ORDER[self.clause],
            self.rules,
            tuple(e.sort_key() for e in self.witnesses),
            self.missing or "",
        )


@dataclass(frozen=True)
class ViolationReport:
    valid: bool
    findings: tuple

    def __post_init__(self):
        assert self.valid == (not self.findings)

    def by_clause(self, clause: Clause) -> tuple:
        return tuple(f for f in self.findings if f.clause is clause)


def _prepare(policy_rules, world: World, schema: FeatureSchema) -> MatchTable:
    """Validate the inputs; the match table over the timestamp-ordered world."""
    conform_world(world, schema)
    for rule in policy_rules:
        require_well_formed(rule, schema)
    return MatchTable(world.ordered(), schema)


def _lite_findings(p: LitePolicy, table: MatchTable, s: FeatureSchema) -> list:
    findings = []
    events = table.events

    # Permissions: an event no permission matches is a violation; with an
    # empty P the conjunction of negated matches is vacuously true.
    for j in bit_positions(table.all & ~table.any(p.permissions)):
        findings.append(Finding(Clause.PERMISSIONS, witnesses=(events[j],)))

    # Prohibitions: any (event, prohibition) match is a violation.
    for tau in ordered_rules(p.prohibitions):
        for j in bit_positions(table.rule(tau)):
            findings.append(Finding(
                Clause.PROHIBITIONS, rules=(tau.display_label(s),), witnesses=(events[j],)))

    # Obligations: an obligation with no matching event is a violation.
    for tau in ordered_rules(p.obligations):
        if not table.rule(tau):
            findings.append(Finding(
                Clause.OBLIGATIONS, rules=(tau.display_label(s),),
                missing=f"no event matches obligation {tau.display_label(s)}"))

    return findings


def evaluate_lite(p: LitePolicy, w: World, s: FeatureSchema) -> ViolationReport:
    """Evaluate the three lite clauses and report every finding."""
    table = _prepare(p.all_rules(), w, s)
    findings = _lite_findings(p, table, s)
    findings.sort(key=Finding.sort_key)
    return ViolationReport(not findings, tuple(findings))


def evaluate_full(p: FullPolicy, w: World, s: FeatureSchema) -> ViolationReport:
    """Evaluate the lite clauses plus duties, remedies and consequences."""
    table = _prepare(p.all_rules(), w, s)
    findings = _lite_findings(p.lite, table, s)
    events = table.events

    # Events are in timestamp order, so the lowest and highest bits of a
    # match set carry its earliest and latest timestamps.
    def first(rule: EventRule):
        m = table.rule(rule)
        return events[lowest_bit(m)].timestamp if m else math.inf

    def last(rule: EventRule):
        m = table.rule(rule)
        return events[m.bit_length() - 1].timestamp if m else -math.inf

    def matched(rule: EventRule):
        return [events[j] for j in bit_positions(table.rule(rule))]

    # Permission duties: a permitted event with no duty event at or before it.
    for labels, (tau_r, duty_r) in _labelled(p.duty_pairs, s):
        earliest = first(duty_r)
        for e in matched(tau_r):
            if earliest > e.timestamp:
                findings.append(Finding(
                    Clause.PERMISSION_DUTIES, rules=labels, witnesses=(e,),
                    missing=f"no event matching duty {labels[1]} at or before "
                            f"timestamp {e.timestamp}"))

    # Permission duties with consequences: no prior duty, and additionally no
    # subsequent duty or no subsequent consequence.
    for labels, (tau_r, duty_r, consequence_r) in _labelled(p.duty_consequence_triples, s):
        earliest, latest, latest_consequence = (
            first(duty_r), last(duty_r), last(consequence_r))
        for e in matched(tau_r):
            if earliest <= e.timestamp:
                continue
            later_duty = latest >= e.timestamp
            if not later_duty or latest_consequence < e.timestamp:
                which = "duty" if not later_duty else "consequence"
                findings.append(Finding(
                    Clause.PERMISSION_DUTIES_WITH_CONSEQUENCES,
                    rules=labels, witnesses=(e,),
                    missing=f"no prior duty event and no subsequent {which} event"))

    # Prohibition remedies: a matched prohibition with no remedy at or after it.
    for labels, (tau_r, remedy_r) in _labelled(p.remedy_pairs, s):
        latest = last(remedy_r)
        for e in matched(tau_r):
            if latest < e.timestamp:
                findings.append(Finding(
                    Clause.PROHIBITION_REMEDIES, rules=labels, witnesses=(e,),
                    missing=f"no event matching remedy {labels[1]} at or after "
                            f"timestamp {e.timestamp}"))

    # Obligation consequences: the deadline obligation was never met, and no
    # late fulfilment plus consequence at or after the deadline exists.
    for labels, (tau_r, consequence_r) in _labelled(p.obligation_consequence_pairs, s):
        if table.rule(tau_r):
            continue
        late = table.rule(strip_deadline_conditions(tau_r))
        for deadline in deadline_conditions(tau_r):
            t = deadline.value.raw
            if not late or last(consequence_r) < t:
                findings.append(Finding(
                    Clause.OBLIGATION_CONSEQUENCES, rules=labels,
                    missing=f"obligation unfulfilled by timestamp {t} and no late "
                            f"fulfilment with consequence {labels[1]} at or after {t}"))

    findings.sort(key=Finding.sort_key)
    return ViolationReport(not findings, tuple(findings))


def _labelled(tuples, s: FeatureSchema):
    """Deterministically ordered (label tuple, rule tuple) pairs."""
    out = [(tuple(r.display_label(s) for r in t), t) for t in tuples]
    out.sort(key=lambda lp: (lp[0], tuple(r.render() for r in lp[1])))
    return out


def is_valid(p: Policy, w: World, s: FeatureSchema) -> bool:
    """A world is valid with respect to a policy when it does not violate it."""
    if isinstance(p, FullPolicy):
        return evaluate_full(p, w, s).valid
    return evaluate_lite(p, w, s).valid

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
    Event,
    EventRule,
    FeatureSchema,
    FullPolicy,
    LitePolicy,
    Operator,
    Policy,
    SimpleCondition,
    TIMESTAMP_FEATURE,
    World,
    as_full,
    conform_world,
    deadline_conditions,
    require_lite,
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


def evaluate_lite(p: LitePolicy, w: World, s: FeatureSchema) -> ViolationReport:
    """Evaluate the three lite clauses and report every finding: the full
    evaluation of the policy with no pairings."""
    require_lite(p=p)
    return evaluate_full(FullPolicy.of(p), w, s)


def evaluate_full(p: FullPolicy, w: World, s: FeatureSchema) -> ViolationReport:
    """Evaluate the lite clauses plus duties, remedies and consequences."""
    view = conform_world(w, s)
    require_well_formed(p.all_rules(), s)
    events = view.events
    table = MatchTable(view, s)   # bit j stands for events[j]
    findings = []

    # Permissions: an event no permission matches is a violation; with an
    # empty P the conjunction of negated matches is vacuously true.
    for j in bit_positions(table.all & ~table.any(p.lite.permissions)):
        findings.append(Finding(Clause.PERMISSIONS, witnesses=(events[j],)))

    # Prohibitions: any (event, prohibition) match is a violation.
    for tau in p.lite.prohibitions:
        for j in bit_positions(table.rule(tau)):
            findings.append(Finding(
                Clause.PROHIBITIONS, rules=(tau.display_label(s),), witnesses=(events[j],)))

    # Obligations: an obligation with no matching event is a violation.
    for tau in p.lite.obligations:
        if not table.rule(tau):
            findings.append(Finding(
                Clause.OBLIGATIONS, rules=(tau.display_label(s),),
                missing=f"no event matches obligation {tau.display_label(s)}"))

    # The events before a rule's first match, and those after its last, as
    # timestamp conditions; every event when the rule matches none.
    def earlier(rule: EventRule) -> int:
        m = table.rule(rule)
        return table.condition(_stamp(Operator.LT, events[lowest_bit(m)])) if m else table.all

    def later(rule: EventRule) -> int:
        m = table.rule(rule)
        return table.condition(_stamp(Operator.GT, events[m.bit_length() - 1])) if m else table.all

    # Permission duties: a permitted event with no duty event at or before it.
    for labels, (tau_r, duty_r) in _labelled(p.duty_pairs, s):
        for j in bit_positions(table.rule(tau_r) & earlier(duty_r)):
            e = events[j]
            findings.append(Finding(
                Clause.PERMISSION_DUTIES, rules=labels, witnesses=(e,),
                missing=f"no event matching duty {labels[1]} at or before "
                        f"timestamp {e.timestamp}"))

    # Permission duties with consequences: no prior duty, and additionally no
    # subsequent duty or no subsequent consequence.
    for labels, (tau_r, duty_r, consequence_r) in _labelled(p.duty_consequence_triples, s):
        no_later_duty = later(duty_r)
        for j in bit_positions(table.rule(tau_r) & earlier(duty_r)
                               & (no_later_duty | later(consequence_r))):
            which = "duty" if no_later_duty >> j & 1 else "consequence"
            findings.append(Finding(
                Clause.PERMISSION_DUTIES_WITH_CONSEQUENCES,
                rules=labels, witnesses=(events[j],),
                missing=f"no prior duty event and no subsequent {which} event"))

    # Prohibition remedies: a matched prohibition with no remedy at or after it.
    for labels, (tau_r, remedy_r) in _labelled(p.remedy_pairs, s):
        for j in bit_positions(table.rule(tau_r) & later(remedy_r)):
            e = events[j]
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
            since = SimpleCondition(TIMESTAMP_FEATURE, Operator.GTEQ, deadline.value)
            if not late or not table.rule(consequence_r) & table.condition(since):
                findings.append(Finding(
                    Clause.OBLIGATION_CONSEQUENCES, rules=labels,
                    missing=f"obligation unfulfilled by timestamp {t} and no late "
                            f"fulfilment with consequence {labels[1]} at or after {t}"))

    findings.sort(key=Finding.sort_key)
    return ViolationReport(not findings, tuple(findings))


def _stamp(op: Operator, e: Event) -> SimpleCondition:
    """``<Datetime, op, t>`` with ``e``'s timestamp t."""
    return SimpleCondition(TIMESTAMP_FEATURE, op, e.value(TIMESTAMP_FEATURE))


def _labelled(tuples, s: FeatureSchema):
    """(label tuple, rule tuple) pairs in set order; the final
    ``Finding.sort_key`` sort, total over distinct findings, fixes report
    order."""
    return [(tuple(r.display_label(s) for r in t), t) for t in tuples]


def is_valid(p: Policy, w: World, s: FeatureSchema) -> bool:
    """A world is valid with respect to a policy when it does not violate it."""
    return evaluate_full(as_full(p), w, s).valid

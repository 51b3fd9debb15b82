"""Materialisation of permissions implied by the action hierarchy.

A permission on an action carries over to every action included in it, so
before evaluation or comparison each permission is copied once per
descendant action, with the action equality swapped. Prohibitions and
obligations are deliberately left untouched: there is no uncontroversial
reading of inheritance for them, so no inference is applied.

Duty pairs and duty-consequence triples follow their permission: each copy
of the permission gets its own tuple with the original duty rules, keeping
the "duties are permissions" invariant intact after saturation.
"""

from __future__ import annotations

from .matching import require_well_formed
from .model import (
    ACTION_FEATURE,
    ActionVocabulary,
    EventRule,
    FeatureSchema,
    FullPolicy,
    LitePolicy,
    Operator,
    PAIRINGS,
    Policy,
    SimpleCondition,
    Value,
    as_full,
)


def _action_equality(rule: EventRule) -> SimpleCondition:
    for c in rule.conditions:
        if (isinstance(c, SimpleCondition) and c.feature == ACTION_FEATURE
                and c.op is Operator.EQ):
            return c
    raise AssertionError("well-formed rules always pin the action")


def _specialize(rule: EventRule, action: str) -> EventRule:
    """Copy of the rule with its action equality replaced."""
    pin = _action_equality(rule)
    conditions = (rule.conditions - {pin}) | {
        SimpleCondition(ACTION_FEATURE, Operator.EQ, Value.identifier(action))}
    label = None if rule.label is None else f"{rule.label}@{action}"
    return EventRule(frozenset(conditions), label=label)


def saturate(policy: Policy, vocabulary: ActionVocabulary,
             schema: FeatureSchema) -> Policy:
    """Add every permission implied by the vocabulary; a fixpoint, since the
    closure is already reflexive and transitive."""
    full = as_full(policy)
    expansion = {}    # permission -> its specialized copies (original included)
    for tau in full.lite.permissions:
        require_well_formed(tau, schema)
        action = _action_equality(tau).value.raw
        expansion[tau] = [tau] + [
            _specialize(tau, sub)
            for sub in sorted(vocabulary.descendants_of(action) - {action})]
    lite = LitePolicy.of(
        permissions=(c for copies in expansion.values() for c in copies),
        prohibitions=full.lite.prohibitions,
        obligations=full.lite.obligations,
    )
    pairs = {}
    for pairing in PAIRINGS:
        tuples = getattr(full, pairing.field)
        if pairing.lead is None:
            # A tuple led by a permission follows it: one copy per specialization.
            tuples = {(copy, *t[1:]) for t in tuples for copy in expansion[t[0]]}
        pairs[pairing.field] = tuples
    return FullPolicy(lite, **pairs) if isinstance(policy, FullPolicy) else lite

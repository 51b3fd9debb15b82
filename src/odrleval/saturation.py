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

import itertools

from .matching import require_well_formed, top_level_equalities
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
    ordered_rules,
)


def _specialize(rule: EventRule, pin: SimpleCondition, action: str) -> EventRule:
    """Copy of the rule with its action pin replaced."""
    conditions = (rule.conditions - {pin}) | {
        SimpleCondition(ACTION_FEATURE, Operator.EQ, Value.identifier(action))}
    label = None if rule.label is None else f"{rule.label}@{action}"
    return EventRule(frozenset(conditions), label=label)


def saturate(policy: Policy, vocabulary: ActionVocabulary,
             schema: FeatureSchema) -> Policy:
    """Add every permission implied by the vocabulary; a fixpoint, since the
    closure is already reflexive and transitive."""
    full = as_full(policy)
    require_well_formed(full.lite.permissions, schema)
    originals = ordered_rules(full.lite.permissions)
    expansion = {}    # permission -> its specialized copies (original included)
    for tau in originals:
        pin, = top_level_equalities(tau)[ACTION_FEATURE]
        action = pin.value.raw
        expansion[tau] = [tau] + [
            _specialize(tau, pin, sub)
            for sub in sorted(vocabulary.descendants_of(action) - {action})]
    # Equal rules may carry different labels: keep the first met, the
    # originals in canonical order before any copy.
    kept = {}
    for rule in itertools.chain(originals, *expansion.values()):
        kept.setdefault(rule, rule)
    lite = LitePolicy.of(
        permissions=kept.values(),
        prohibitions=full.lite.prohibitions,
        obligations=full.lite.obligations,
    )
    pairs = {}
    for pairing in PAIRINGS:
        tuples = getattr(full, pairing.field)
        if pairing.lead is None:
            # A tuple led by a permission follows it: one copy per specialization.
            tuples = {(copy, *t[1:]) for t in tuples for copy in expansion[t[0]]}
        pairs[pairing.field] = {
            tuple(r if pairing.is_lead(j) else kept[r] for j, r in enumerate(t))
            for t in tuples}
    return FullPolicy(lite, **pairs) if isinstance(policy, FullPolicy) else lite

"""Seeded policy generators and bounded-world enumeration for the comparison,
normalization and SQL sweeps.

The oracle sweeps quantify over every world up to a size bound. Two worlds
whose events inhabit the same match-vector classes (identical rule-by-rule
match outcomes) are indistinguishable to every clause of both policies, so
the enumeration collapses the witness-domain events into one representative
per class; subsets of representatives then cover all bounded worlds exactly.
"""

from __future__ import annotations

import itertools
from random import Random

from odrleval import EventRule, FullPolicy, LitePolicy, Operator, World, rule_contains
from odrleval.comparison import WitnessDomain
from odrleval.matching import match_unchecked
from conftest import ACTION, ACTOR, ASSET, DATETIME, PAGES, eq, num, ts

SWEEP_ACTIONS = ("Print", "Read")
SWEEP_ACTORS = ("Alice", "Bob")
SWEEP_ASSETS = ("Picture", "Book")


def sweep_rule(action, actor, asset, dt) -> EventRule:
    conds = [eq(ACTION, action)]
    if actor is not None:
        conds.append(eq(ACTOR, actor))
    if asset is not None:
        conds.append(eq(ASSET, asset))
    if dt is not None:
        conds.append(ts(dt[0], dt[1]))
    return EventRule(frozenset(conds))


def sweep_policies() -> list:
    """A finite, exhaustively-paired family of consistent policies over the
    two-actor, two-action, two-asset, three-timestamp domain.

    Every rule pins its action and optionally an actor, an asset, and one
    timestamp bound at tick 2 (the sweep's probe set covers ticks 1-3).
    Policies are single-permission, with the obligation absent, equal to the
    permission, or the permission narrowed by a deadline; all are consistent
    by construction (no prohibitions, obligations contained in permissions).
    """
    dt_options = (None, (Operator.LTEQ, 2), (Operator.GTEQ, 2))
    rules = [
        sweep_rule(action, actor, asset, dt)
        for action in SWEEP_ACTIONS
        for actor in (None,) + SWEEP_ACTORS
        for asset in (None,) + SWEEP_ASSETS
        for dt in dt_options
    ]
    policies = []
    for r in rules:
        policies.append(LitePolicy.of({r}))
        if all(c.feature != DATETIME for c in r.conditions):
            policies.append(LitePolicy.of({r}, (), {r}))
            narrowed = EventRule(r.conditions | {ts(Operator.LTEQ, 2)})
            policies.append(LitePolicy.of({r}, (), {narrowed}))
    return policies


_NUMERIC_CONDS = (
    None,
    (Operator.GT, 250), (Operator.LTEQ, 250), (Operator.GTEQ, 500),
    (Operator.LT, 500), (Operator.EQ, 250),
)
_DT_CONDS = (None, (Operator.LTEQ, 2), (Operator.GTEQ, 2))


def _random_rule(rng: Random, *, with_extra: bool = False) -> EventRule:
    conds = [
        eq(ACTION, rng.choice(SWEEP_ACTIONS)),
        eq(ACTOR, rng.choice(SWEEP_ACTORS)),
        eq(ASSET, rng.choice(SWEEP_ASSETS)),
    ]
    pages = rng.choice(_NUMERIC_CONDS)
    if pages is not None:
        conds.append(num(PAGES, pages[0], pages[1]))
    dt = rng.choice(_DT_CONDS)
    if dt is not None:
        conds.append(ts(dt[0], dt[1]))
    return EventRule(frozenset(conds))


def random_consistent_policy(rng: Random) -> LitePolicy:
    """Numeric-constraint policies, consistent by construction: no
    prohibitions, and each obligation is a permission with extra conjuncts
    (hence contained in it)."""
    permissions = [_random_rule(rng) for _ in range(rng.randint(1, 2))]
    obligations = []
    if rng.random() < 0.6:
        base = rng.choice(permissions)
        if rng.random() < 0.5:
            op, t = rng.choice(_DT_CONDS[1:])
            cond = ts(op, t)
        else:
            op, x = rng.choice(_NUMERIC_CONDS[1:])
            cond = num(PAGES, op, x)
        obligations.append(EventRule(base.conditions | {cond}))
    return LitePolicy.of(permissions, (), obligations)


def random_raw_policy(rng: Random) -> LitePolicy:
    """Possibly-inconsistent input for the normalization sweep.

    Stays inside the fragment where the consistent form is expressible as
    well-formed rules: every rule pins actor, action and asset, and each
    prohibition carries at most one non-pin condition.
    """
    def pinned(action, actor, asset, extra=None):
        conds = [eq(ACTION, action), eq(ACTOR, actor), eq(ASSET, asset)]
        if extra is not None:
            conds.append(extra)
        return EventRule(frozenset(conds))

    def extra_cond():
        choice = rng.choice(_NUMERIC_CONDS)
        return None if choice is None else num(PAGES, choice[0], choice[1])

    triples = [(a, x, y)
               for a in SWEEP_ACTIONS for x in SWEEP_ACTORS for y in SWEEP_ASSETS]
    permissions = [
        pinned(*rng.choice(triples), extra=extra_cond())
        for _ in range(rng.randint(1, 2))
    ]
    prohibitions = [
        pinned(*rng.choice(triples), extra=extra_cond())
        for _ in range(rng.randint(0, 2))
    ]
    obligations = []
    if rng.random() < 0.5:
        base = rng.choice(permissions)
        extra = extra_cond()
        conds = base.conditions if extra is None else base.conditions | {extra}
        obligations.append(EventRule(conds))
    return LitePolicy.of(permissions, prohibitions, obligations)


def representative_worlds(schema, rule_sets, max_size: int):
    """All bounded worlds over the witness domain, up to match-vector
    equivalence: one representative event per class, subsets up to
    ``max_size``."""
    rules = [r for rs in rule_sets for r in rs]
    domain = WitnessDomain.for_rules(schema, rules)
    classes = {}
    for e in domain.events():
        vector = tuple(match_unchecked(r, e, schema) for r in rules)
        classes.setdefault(vector, e)
    reps = list(classes.values())
    for size in range(0, min(max_size, len(reps)) + 1):
        for combo in itertools.combinations(reps, size):
            yield World(frozenset(combo))


def pairwise_set_contains(rules, rules_prime, schema) -> bool:
    """Sound but incomplete shortcut for ``set_contains``: per-rule subsumption."""
    return all(any(rule_contains(t, tp, schema) for tp in rules_prime)
               for t in rules)


def random_full_policy(rng: Random) -> FullPolicy:
    def pinned(extra=None):
        conds = [eq(ACTION, rng.choice(("Print", "Read", "Pay"))),
                 eq(ACTOR, rng.choice(("Alice", "Bob")))]
        if rng.random() < 0.6:
            conds.append(eq(ASSET, rng.choice(("Picture", "Book"))))
        if extra is not None:
            conds.append(extra)
        return EventRule(frozenset(conds))

    permissions = [pinned() for _ in range(3)]
    duty_pairs = set()
    triples = set()
    remedies = set()
    oc_pairs = set()
    if rng.random() < 0.7:
        duty_pairs.add((rng.choice(permissions), rng.choice(permissions)))
    if rng.random() < 0.5:
        triples.add(tuple(rng.choice(permissions) for _ in range(3)))
    if rng.random() < 0.7:
        remedies.add((pinned(), rng.choice(permissions)))
    if rng.random() < 0.7:
        deadline = ts(Operator.LTEQ, rng.randint(1, 4))
        obligation = pinned(extra=deadline)
        oc_pairs.add((obligation, rng.choice(permissions)))
    lite = LitePolicy.of(permissions)
    return FullPolicy.of(lite, duty_pairs, triples, remedies, oc_pairs)

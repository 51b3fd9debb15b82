"""Rule containment and overlap, policy consistency, normalization to
consistent form, conflict detection, and the brute-force containment oracle.

Containment questions quantify over all events, so they are decided by
finite enumeration over a witness domain: per feature, every constant the
compared rules mention, a representative of every open region between
adjacent constants (plus one below and one above), a fresh identifier for
identifier features, every relevant subset for set features, and null.
Any event whatsoever can be collapsed, feature by feature, onto a probe
event with identical condition outcomes, so the enumeration is complete for
the operators supported here.

The domain is the product of the per-feature probes, and a match table over
it never lists that product: ``WitnessDomain.column(i)`` gives feature
``i``'s probes and lays one flag per probe out over the domain, so each
condition's bitset comes from the product structure. A witness bit is
decoded back into its event. The brute-force oracle still enumerates the
events.

Conflict detection follows the containment characterization for consistent
policies: the requester conflicts with the provider when its permissions are
not covered by the provider's, or some provider obligation has no agreeing
requester obligation. The independent oracle enumerates bounded worlds drawn
from the witness domain instead, and the two must agree on consistent input.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .conditions import negate
from .errors import (
    DomainTooLargeError,
    InconsistentPolicyError,
    NormalizationError,
)
from .evaluation import evaluate_full, evaluate_lite
from .matching import (
    MatchTable,
    is_well_formed,
    lowest_bit,
    match_unchecked,
    require_well_formed,
    top_level_equalities,
)
from .model import (
    ACTION_FEATURE,
    And,
    CORE_TAGS,
    Datatype,
    Event,
    EventRule,
    FeatureSchema,
    FullPolicy,
    LitePolicy,
    MEMBERSHIP_OPERATORS,
    NON_NULL_FEATURES,
    NULL,
    Operator,
    PAIRINGS,
    Policy,
    SET_OPERATORS,
    STRING_KINDS,
    TIMESTAMP_FEATURE,
    Value,
    ValueKind,
    World,
    as_full,
    deadline_conditions,
    ordered_rules,
    require_lite,
    simple_conditions_of,
)

DEFAULT_MAX_EVENTS = 200_000
DEFAULT_MAX_SET_ATOMS = 6
DEFAULT_MAX_RULES = 256


# ---------------------------------------------------------------------------
# Witness domain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessDomain:
    """Finite per-feature probe values covering every region two rule sets
    can distinguish."""

    schema: FeatureSchema
    probes: tuple   # probes[i] is the tuple of probe Values for feature i

    @staticmethod
    def for_rules(schema: FeatureSchema, rules, *, extra_timestamps=(),
                  max_set_atoms: int = DEFAULT_MAX_SET_ATOMS) -> "WitnessDomain":
        rules = tuple(rules)
        scalar_constants: dict = {i: set() for i in range(len(schema))}
        set_atoms: dict = {i: set() for i in range(len(schema))}
        touched = set()

        for rule in rules:
            for sc in (c for cond in rule.conditions
                       for c in simple_conditions_of(cond)):
                i = sc.feature
                decl = schema.declaration(i)
                touched.add(i)
                expected = schema.value_kinds[i]
                if sc.op is Operator.IS_A:
                    # isA reads the class set; per-event classes live on the
                    # companion feature, so its atoms must cover them.
                    if decl.class_feature is not None:
                        touched.add(decl.class_feature)
                        set_atoms[decl.class_feature].update(sc.members)
                elif sc.op in SET_OPERATORS:
                    if decl.datatype is Datatype.IDENTIFIER_SET:
                        set_atoms[i].update(sc.members)
                elif sc.op in MEMBERSHIP_OPERATORS:
                    if expected in STRING_KINDS:
                        scalar_constants[i].update(sc.members)
                elif sc.value.kind is expected:
                    scalar_constants[i].add(sc.value.raw)

        for t in extra_timestamps:
            scalar_constants[TIMESTAMP_FEATURE].add(int(t))
            touched.add(TIMESTAMP_FEATURE)

        probes = []
        for decl in schema.features:
            i = decl.index
            if i not in touched:
                probes.append(_untouched_probe(decl))
                continue
            if decl.datatype is Datatype.IDENTIFIER_SET:
                atoms = sorted(set_atoms[i])
                if len(atoms) + 1 > max_set_atoms:
                    raise DomainTooLargeError(
                        f"feature {decl.name}: {len(atoms)} set atoms exceed the "
                        f"cap of {max_set_atoms - 1}")
                atoms.append(_fresh_atom(f"~other-{decl.name}", atoms))
                vals = [Value.identifier_set(sub)
                        for k in range(len(atoms) + 1)
                        for sub in itertools.combinations(atoms, k)]
            elif decl.datatype is Datatype.IDENTIFIER:
                mentioned = sorted(scalar_constants[i])
                vals = [Value.identifier(m) for m in mentioned]
                vals.append(Value.identifier(
                    _fresh_atom(f"~other-{decl.name}", mentioned)))
            else:
                raws = _ordered_probe_raws(decl.datatype, sorted(scalar_constants[i]))
                vals = [Value(schema.value_kinds[i], r) for r in raws]
            if i not in NON_NULL_FEATURES:
                vals.append(NULL)
            probes.append(tuple(sorted(vals, key=Value.sort_key)))
        return WitnessDomain(schema, tuple(probes))

    def event_count(self) -> int:
        return math.prod(map(len, self.probes))

    __len__ = event_count

    def require_within(self, max_events: int) -> None:
        """Raise ``DomainTooLargeError`` when the product exceeds the cap,
        naming each feature's probe count."""
        if self.event_count() > max_events:
            counts = " × ".join(f"{d.name} {len(p)}" for d, p in
                                zip(self.schema.features, self.probes))
            raise DomainTooLargeError(
                f"witness domain holds {self.event_count()} events ({counts}), "
                f"cap is {max_events}")

    def events(self, max_events: int = DEFAULT_MAX_EVENTS):
        """Deterministic iterator over the full probe product."""
        self.require_within(max_events)
        for combo in itertools.product(*self.probes):
            yield Event(combo)

    def __getitem__(self, j: int) -> Event:
        """The ``j``-th event of ``events()``: ``j`` read in mixed radix,
        one probe index per feature, feature 0 slowest."""
        if not 0 <= j < self.event_count():
            raise IndexError(j)
        values = []
        for p in reversed(self.probes):
            j, k = divmod(j, len(p))
            values.append(p[k])
        return Event(tuple(reversed(values)))

    def column(self, i: int):
        """The ``MatchTable`` column view of feature ``i``, computed from the
        product structure: its probes, and a function from one flag per probe
        to the domain bitset where they hold. Each probe covers a run of
        ``inner`` bits; the block of all ``n * inner`` bits repeats ``outer``
        times, so one multiplication by the repunit with a bit at the start
        of every block lays it out."""
        sizes = [len(p) for p in self.probes]
        inner, outer = math.prod(sizes[i + 1:]), math.prod(sizes[:i])
        repunit = int(("0" * (sizes[i] * inner - 1) + "1") * outer, 2)
        runs = ("0" * inner, "1" * inner)

        def expand(flags) -> int:
            return int("".join(map(runs.__getitem__, reversed(flags))), 2) * repunit
        return self.probes[i], expand


def _fresh_atom(base: str, taken) -> str:
    name = base
    while name in taken:
        name += "'"
    return name


def _untouched_probe(decl) -> tuple:
    # Features no compared rule mentions cannot influence any match; one
    # probe suffices (a non-null one for the mandatory slots).
    if decl.index == TIMESTAMP_FEATURE:
        return (Value.timestamp(0),)
    if decl.index == ACTION_FEATURE:
        return (Value.identifier("~any-action"),)
    return (NULL,)


def _ordered_probe_raws(datatype: Datatype, constants: list) -> list:
    """Constants plus a representative of every region they induce."""
    if not constants:
        return [0] if datatype is not Datatype.STRING else ["s"]
    raws = list(constants)
    if datatype is Datatype.TIMESTAMP:
        raws.append(constants[0] - 1)
        raws.append(constants[-1] + 1)
        for a, b in zip(constants, constants[1:]):
            if b - a >= 2:
                raws.append((a + b) // 2)
    elif datatype is Datatype.NUMERIC:
        # Each region takes its first candidate strictly inside: float
        # arithmetic alone can land on a bound past 2**53 or between floats.
        lo, hi = constants[0], constants[-1]
        regions = [(-math.inf, lo, (lo - 1, math.floor(lo) - 1)),
                   (hi, math.inf, (hi + 1, math.ceil(hi) + 1))]
        regions += [(a, b, ((a + b) / 2, (math.floor(a) + math.ceil(b)) // 2,
                            math.nextafter(a, b)))
                    for a, b in zip(constants, constants[1:])]
        for a, b, xs in regions:
            raws.extend(itertools.islice((x for x in xs if a < x < b), 1))
    else:  # STRING: codepoint order; the successor of s is s + chr(0)
        if constants[0] > "":
            raws.append("")
        raws.append(constants[-1] + "\x00")
        for a, b in zip(constants, constants[1:]):
            succ = a + "\x00"
            if succ < b:
                raws.append(succ)
    return sorted(set(raws))


# ---------------------------------------------------------------------------
# Containment, overlap, consistency
# ---------------------------------------------------------------------------

def _domain(schema, rules, max_events=DEFAULT_MAX_EVENTS, extra_timestamps=()):
    """Well-formedness gate, then the rules' witness domain within the cap."""
    require_well_formed(rules, schema)
    domain = WitnessDomain.for_rules(schema, rules, extra_timestamps=extra_timestamps)
    domain.require_within(max_events)
    return domain


def rule_contains(tau: EventRule, tau_prime: EventRule, schema: FeatureSchema,
                  *, max_events: int = DEFAULT_MAX_EVENTS) -> bool:
    """True when every event matching ``tau`` also matches ``tau_prime``."""
    t = MatchTable(_domain(schema, (tau, tau_prime), max_events), schema)
    return not t.rule(tau) & ~t.rule(tau_prime)


def rules_overlap(tau: EventRule, tau_prime: EventRule, schema: FeatureSchema,
                  *, max_events: int = DEFAULT_MAX_EVENTS) -> bool:
    """True when some event matches both rules."""
    t = MatchTable(_domain(schema, (tau, tau_prime), max_events), schema)
    return bool(t.rule(tau) & t.rule(tau_prime))


def rule_satisfiable(tau: EventRule, schema: FeatureSchema,
                     *, max_events: int = DEFAULT_MAX_EVENTS) -> bool:
    """True when some event matches the rule at all."""
    return bool(MatchTable(_domain(schema, (tau,), max_events), schema).rule(tau))


def set_contains(rules, rules_prime, schema: FeatureSchema,
                 *, max_events: int = DEFAULT_MAX_EVENTS) -> bool:
    """Semantic set-lifted containment: every event matching some rule on the
    left matches some rule on the right."""
    rules, rules_prime = tuple(rules), tuple(rules_prime)
    t = MatchTable(_domain(schema, rules + rules_prime, max_events), schema)
    return not t.any(rules) & ~t.any(rules_prime)


def is_consistent(p: LitePolicy, schema: FeatureSchema,
                  *, max_events: int = DEFAULT_MAX_EVENTS) -> bool:
    """No permission or obligation overlaps a prohibition, and every
    obligation is covered by the permissions."""
    require_lite(p=p)
    t = MatchTable(_domain(schema, p.all_rules(), max_events), schema)
    return _consistent(t, p)


def _consistent(t: MatchTable, p: LitePolicy) -> bool:
    """``is_consistent`` on a table whose domain covers at least p's rules."""
    permitted, obliged = t.any(p.permissions), t.any(p.obligations)
    return not (t.any(p.prohibitions) & (permitted | obliged) or obliged & ~permitted)


# ---------------------------------------------------------------------------
# Normalization to consistent form
# ---------------------------------------------------------------------------

def _core_pins(rule: EventRule, schema: FeatureSchema) -> dict:
    """feature -> equality condition, over top-level core-component pins."""
    return {k: pins[0] for k, pins in top_level_equalities(rule).items()
            if schema.declaration(k).component in CORE_TAGS}


def _require_pin_cover(rule, prohibition, schema, which: str) -> None:
    """Raise unless the rule pins every core component the prohibition pins."""
    rule_pins = _core_pins(rule, schema)
    for k in _core_pins(prohibition, schema):
        if k not in rule_pins:
            raise NormalizationError(
                "inexpressible-difference",
                f"prohibition {prohibition.display_label(schema)} pins core feature "
                f"{schema.declaration(k).name}, which {which}")


def _carve_permission(rule: EventRule, prohibitions, schema, table,
                      max_rules: int) -> list:
    """The permission minus every prohibition, as a set of well-formed rules.

    Each overlapping prohibition contributes one disjunct per non-pin
    condition: the permission plus that condition's complement.
    """
    work = [rule]
    for f in prohibitions:
        nxt = []
        for piece in work:
            if not table.rule(piece) & table.rule(f):
                nxt.append(piece)
                continue
            _require_pin_cover(piece, f, schema, (
                f"permission {piece.display_label(schema)} leaves open; the "
                f"difference cannot be written as well-formed rules"))
            negatable = piece_complement_targets(f, schema)
            for idx, c in enumerate(negatable):
                candidate = EventRule(
                    piece.conditions | {negate(c)},
                    label=_piece_label(piece.label, idx, len(negatable)))
                if table.rule(candidate):
                    nxt.append(candidate)
        if len(nxt) > max_rules:
            raise NormalizationError(
                "normalization-blowup",
                f"carving produced more than {max_rules} rules")
        work = nxt
    return work


def piece_complement_targets(prohibition: EventRule, schema) -> list:
    """The prohibition's conditions other than its core pins, in stable order."""
    pins = set(_core_pins(prohibition, schema).values())
    return [c for c in prohibition.ordered_conditions() if c not in pins]


def _piece_label(label: str | None, idx: int, total: int) -> str | None:
    if label is None:
        return None
    return label if total == 1 else f"{label}~{idx}"


def _carve_obligation(rule: EventRule, prohibitions, schema, table):
    """The obligation minus every prohibition, kept as a single rule.

    Obligations demand one matching event each, so the carved match set must
    stay one rule: each overlapping prohibition's non-pin conditions are
    conjoined as one negated block, which is only well-formed when they share
    a component.
    """
    current = rule
    for f in prohibitions:
        if not table.rule(current) & table.rule(f):
            continue
        _require_pin_cover(current, f, schema,
                           f"obligation {rule.display_label(schema)} leaves open")
        targets = piece_complement_targets(f, schema)
        if not targets:
            return None  # prohibition swallows the obligation entirely
        block = targets[0] if len(targets) == 1 else And(tuple(targets))
        candidate = EventRule(current.conditions | {negate(block)}, label=rule.label)
        if not is_well_formed(candidate, schema):
            raise NormalizationError(
                "inexpressible-difference",
                f"complement of prohibition {f.display_label(schema)} mixes "
                f"components, so obligation {rule.display_label(schema)} cannot "
                f"stay a single well-formed rule")
        if not table.rule(candidate):
            return None
        current = candidate
    return current


def normalize(p: LitePolicy, schema: FeatureSchema, *,
              max_rules: int = DEFAULT_MAX_RULES,
              max_events: int = DEFAULT_MAX_EVENTS) -> LitePolicy:
    """Rewrite a policy into consistent form.

    Removes from permissions and obligations every part a prohibition
    forbids, removes from obligations every part the carved permissions do
    not cover, and drops the then-redundant prohibitions.
    """
    require_lite(p=p)
    table = MatchTable(_domain(schema, p.all_rules(), max_events), schema)
    return _normalize(table, p, max_rules)


def _normalize(table: MatchTable, p: LitePolicy, max_rules: int) -> LitePolicy:
    """``normalize`` on a table whose domain covers at least p's rules: the
    carved pieces only negate and conjoin those rules' conditions, so the
    domain stays region-complete for them."""
    schema = table.schema
    prohibitions = ordered_rules(p.prohibitions)

    new_permissions = []
    for tau in ordered_rules(p.permissions):
        new_permissions.extend(
            _carve_permission(tau, prohibitions, schema, table, max_rules))
    if len(new_permissions) > max_rules:
        raise NormalizationError(
            "normalization-blowup",
            f"normalized policy would hold more than {max_rules} permissions")

    new_obligations = []
    for o in ordered_rules(p.obligations):
        carved = _carve_obligation(o, prohibitions, schema, table)
        if carved is None:
            continue
        carved_mask = table.rule(carved)
        if not carved_mask & ~table.any(new_permissions):
            new_obligations.append(carved)
            continue
        overlapping = [t for t in new_permissions if carved_mask & table.rule(t)]
        if not overlapping:
            continue  # nothing of the obligation is permitted: drop it
        if len(overlapping) == 1:
            merged = EventRule(
                carved.conditions | overlapping[0].conditions, label=carved.label)
            assert is_well_formed(merged, schema)
            new_obligations.append(merged)
            continue
        raise NormalizationError(
            "inexpressible-difference",
            f"obligation {o.display_label(schema)} is only partially permitted "
            f"across several permissions; the permitted part is not expressible "
            f"as one well-formed rule")

    return LitePolicy.of(new_permissions, (), new_obligations)


# ---------------------------------------------------------------------------
# Conflict detection
# ---------------------------------------------------------------------------

CAUSE_PERMISSIONS = "permissions-not-contained"
CAUSE_OBLIGATIONS = "obligation-not-agreed"


@dataclass(frozen=True)
class ConflictVerdict:
    """Outcome of a policy comparison.

    For symmetric comparisons ``failing_directions`` names the direction(s)
    whose containment failed; ``cause`` and ``witness`` describe the first
    failure. A witness world is always valid for the policy on the contained
    side of the failed direction and violating for the other.
    """

    conflict: bool
    kind: str                               # "asymmetric" | "symmetric"
    cause: str | None = None
    witness: World | None = None
    failing_directions: tuple = ()
    detail: str | None = None


def _compared(requester: LitePolicy, provider: LitePolicy, schema,
              auto_normalize: bool, max_events: int):
    """One match table over both policies' rules, and both policies in
    consistent form: each side is checked, and normalized when allowed, on
    that table.

    The verdict is decided over the witness domain of the compared rules. A
    normalized side has no prohibitions, so that domain lacks their
    constants: when normalization changed a side, the table is rebuilt.
    """
    def table_over(p, q):
        rules = tuple(p.all_rules()) + tuple(q.all_rules())
        return MatchTable(_domain(schema, rules, max_events), schema)

    table = table_over(requester, provider)
    sides = []
    for p, who in ((requester, "requester"), (provider, "provider")):
        if not _consistent(table, p):
            if not auto_normalize:
                raise InconsistentPolicyError(
                    f"the {who} policy is not in consistent form; normalize it "
                    f"first (or pass auto_normalize=True)")
            p = _normalize(table, p, DEFAULT_MAX_RULES)
        sides.append(p)
    if sides != [requester, provider]:
        table = None   # release the first table before building the second
        table = table_over(*sides)
    return table, *sides


def asymmetric_conflict(requester: LitePolicy, provider: LitePolicy,
                        schema: FeatureSchema, *, auto_normalize: bool = False,
                        max_events: int = DEFAULT_MAX_EVENTS) -> ConflictVerdict:
    """Conflict when the requester policy is not contained in the provider's.

    For consistent policies this reduces to two checks: the requester's
    permissions must be covered by the provider's, and every provider
    obligation must contain some requester obligation.
    """
    require_lite(requester=requester, provider=provider)
    return _contained(*_compared(
        requester, provider, schema, auto_normalize, max_events))


def _contained(table: MatchTable, requester: LitePolicy,
               provider: LitePolicy) -> ConflictVerdict:
    """The asymmetric verdict for two consistent policies on one table."""
    events, schema = table.events, table.schema
    obligation_hits = [table.rule(tau) for tau in requester.obligations]

    # A requester obligation no event can satisfy makes every world invalid
    # for the requester, so the requester is vacuously contained.
    if not all(obligation_hits):
        return ConflictVerdict(
            False, "asymmetric",
            detail="requester policy is unsatisfiable; containment holds vacuously")

    # A witness takes, from each match set that shows the failure, its first
    # probe event in domain order: the lowest set bit.
    # Containment characterization, condition 1: permission coverage.
    gap = table.any(requester.permissions) & ~table.any(provider.permissions)
    if gap:
        witness_events = {events[lowest_bit(m)] for m in [gap] + obligation_hits}
        return ConflictVerdict(
            True, "asymmetric", cause=CAUSE_PERMISSIONS,
            witness=World(frozenset(witness_events)),
            detail="a requester-permitted event matches no provider permission")

    # Condition 2: every provider obligation is agreed to by containment.
    for tau_prime in ordered_rules(provider.obligations):
        outside = ~table.rule(tau_prime)
        if any(not m & outside for m in obligation_hits):
            continue
        return ConflictVerdict(
            True, "asymmetric", cause=CAUSE_OBLIGATIONS,
            witness=World(frozenset(
                events[lowest_bit(m & outside)] for m in obligation_hits)),
            detail=f"provider obligation {tau_prime.display_label(schema)} "
                   f"contains no requester obligation")

    return ConflictVerdict(False, "asymmetric")


def symmetric_conflict(p: LitePolicy, p_prime: LitePolicy, schema: FeatureSchema,
                       *, auto_normalize: bool = False,
                       max_events: int = DEFAULT_MAX_EVENTS) -> ConflictVerdict:
    """Conflict on any semantic difference: containment must hold both ways."""
    require_lite(p=p, p_prime=p_prime)
    table, p, p_prime = _compared(p, p_prime, schema, auto_normalize, max_events)
    forward, backward = _contained(table, p, p_prime), _contained(table, p_prime, p)
    directions = []
    if forward.conflict:
        directions.append("requester-to-provider")
    if backward.conflict:
        directions.append("provider-to-requester")
    if not directions:
        return ConflictVerdict(False, "symmetric")
    first = forward if forward.conflict else backward
    return ConflictVerdict(
        True, "symmetric", cause=first.cause, witness=first.witness,
        failing_directions=tuple(directions), detail=first.detail)


# ---------------------------------------------------------------------------
# Brute-force containment oracle
# ---------------------------------------------------------------------------

def brute_force_containment(p: Policy, p_prime: Policy, schema: FeatureSchema,
                            *, max_events: int = 20_000,
                            max_world_size: int | None = None) -> bool:
    """Containment by bounded-world enumeration.

    Enumerates every world of size up to one more than the number of
    obligations (the proof-guided bound: one event per obligation plus one
    extra), drawn from the witness-domain product, and reports False exactly
    when some such world is valid for ``p`` and violating for ``p_prime``.
    Full policies are handled best-effort with deadline-derived timestamp
    probes; completeness is only claimed for consistent lite policies.
    """
    full = isinstance(p, FullPolicy) or isinstance(p_prime, FullPolicy)
    if full:
        return _brute_force_full(p, p_prime, schema, max_events, max_world_size)
    return _brute_force_lite(p, p_prime, schema, max_events, max_world_size)


def _admits(p: LitePolicy, e: Event, schema) -> bool:
    """Some permission and no prohibition of ``p`` matches the event."""
    return (any(match_unchecked(r, e, schema) for r in p.permissions)
            and not any(match_unchecked(r, e, schema) for r in p.prohibitions))


def _oracle_pool(rules, p: LitePolicy, schema, max_events,
                 extra_timestamps=()) -> list:
    """The probe events of the rules' witness domain that ``p`` admits.

    A counterexample world is valid for p, so every event in it is
    p-permitted and p-unforbidden; restricting the pool to those events
    discards no candidate world.
    """
    domain = _domain(schema, rules, max_events, extra_timestamps)
    return [e for e in domain.events(max_events) if _admits(p, e, schema)]


def _brute_force_lite(p: LitePolicy, p_prime: LitePolicy, schema,
                      max_events, max_world_size) -> bool:
    rules = tuple(p.all_rules()) + tuple(p_prime.all_rules())
    pool = _oracle_pool(rules, p, schema, max_events)
    bound = (len(p.obligations) + 1) if max_world_size is None else max_world_size

    o_masks = [_mask(rule, pool, schema) for rule in ordered_rules(p.obligations)]
    bad_for_p_prime = [not _admits(p_prime, e, schema) for e in pool]
    o_prime_masks = [_mask(rule, pool, schema)
                     for rule in ordered_rules(p_prime.obligations)]

    for size in range(0, min(bound, len(pool)) + 1):
        for combo in itertools.combinations(range(len(pool)), size):
            wmask = 0
            for j in combo:
                wmask |= 1 << j
            if any(m & wmask == 0 for m in o_masks):
                continue  # p-obligation unfulfilled: not p-valid
            violates = (any(bad_for_p_prime[j] for j in combo)
                        or any(m & wmask == 0 for m in o_prime_masks))
            if violates:
                world = World(frozenset(pool[j] for j in combo))
                # Confirm through the evaluators; the bit tables must agree.
                assert evaluate_lite(p, world, schema).valid
                assert not evaluate_lite(p_prime, world, schema).valid
                return False
    return True


def _mask(rule, pool, schema) -> int:
    m = 0
    for j, e in enumerate(pool):
        if match_unchecked(rule, e, schema):
            m |= 1 << j
    return m


def _brute_force_full(p: Policy, p_prime: Policy, schema,
                      max_events, max_world_size) -> bool:
    p_full, q_full = as_full(p), as_full(p_prime)
    rules = tuple(p_full.all_rules()) + tuple(q_full.all_rules())

    # Deadline constants +/- 1 give the enumeration enough timestamp
    # resolution to order events around each deadline.
    extra = set()
    for rule in rules:
        for c in deadline_conditions(rule):
            extra.update((c.value.raw - 1, c.value.raw, c.value.raw + 1))
        for sc in (x for cond in rule.conditions for x in simple_conditions_of(cond)):
            if sc.feature == TIMESTAMP_FEATURE and sc.value.kind is ValueKind.TIMESTAMP:
                extra.update((sc.value.raw - 1, sc.value.raw + 1))

    pool = _oracle_pool(rules, p_full.lite, schema, max_events, extra)
    bound = max_world_size
    if bound is None:
        bound = len(p_full.lite.obligations) + 1 + sum(
            len(getattr(p_full, pairing.field)) for pairing in PAIRINGS)

    for size in range(0, min(bound, len(pool)) + 1):
        for combo in itertools.combinations(pool, size):
            world = World(frozenset(combo))
            if not evaluate_full(p_full, world, schema).valid:
                continue
            if not evaluate_full(q_full, world, schema).valid:
                return False
    return True

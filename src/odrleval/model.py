"""Domain model: feature schemas, events, worlds, conditions, rules, policies.

An event is a fixed-arity tuple of feature values; slot 0 is always the
timestamp and slot 1 the action identifier. A schema declares, for every
feature, its datatype and which ODRL component it belongs to: a feature is
either a core component itself (action, asset, or a party), a refinement of
one core component, or rule-wide (timestamps and plain constraints). Rules
are conjunctions of conditions over features; policies bundle permission,
prohibition and obligation rules, optionally extended with duty / remedy /
consequence pairings.

Everything here is immutable after construction, and constructors reject
invariant violations up front so downstream code never sees an ill-formed
value.
"""

from __future__ import annotations

import functools
import graphlib
import operator
import sys
from collections import Counter, deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Union

from .errors import (
    ModelInvariantError,
    PolicyInvariantError,
    SchemaError,
    VocabularyError,
    WorldConformanceError,
)


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

class Datatype(str, Enum):
    """Declared datatype of a feature."""

    TIMESTAMP = "timestamp"
    NUMERIC = "numeric"
    STRING = "string"
    IDENTIFIER = "identifier"
    IDENTIFIER_SET = "identifier-set"


class ValueKind(str, Enum):
    NULL = "null"
    TIMESTAMP = "timestamp"
    NUMBER = "number"
    TEXT = "text"
    IDENTIFIER = "identifier"
    IDENTIFIER_SET = "identifier-set"


# Kinds whose raw payload is a string, and kinds with a total order.
STRING_KINDS = frozenset({ValueKind.TEXT, ValueKind.IDENTIFIER})
ORDERED_KINDS = frozenset({ValueKind.TIMESTAMP, ValueKind.NUMBER, ValueKind.TEXT})

# Which value kind an event slot of a given datatype may hold (besides NULL).
KIND_FOR_DATATYPE = {
    Datatype.TIMESTAMP: ValueKind.TIMESTAMP,
    Datatype.NUMERIC: ValueKind.NUMBER,
    Datatype.STRING: ValueKind.TEXT,
    Datatype.IDENTIFIER: ValueKind.IDENTIFIER,
    Datatype.IDENTIFIER_SET: ValueKind.IDENTIFIER_SET,
}


_NULL_HASH = 0x6E756C6C
_new = object.__new__


@dataclass(frozen=True)
class Value:
    """A single feature value: null, a constant, or a finite set of constants.

    Timestamps are totally ordered integer ticks; identifiers are opaque
    atoms compared by exact string equality.
    """

    __slots__ = ("kind", "raw", "_hash")

    kind: ValueKind
    raw: Union[int, float, str, frozenset, None]

    def __post_init__(self):
        k, r = self.kind, self.raw
        ok = (
            (k is ValueKind.NULL and r is None)
            or (k is ValueKind.TIMESTAMP and isinstance(r, int) and not isinstance(r, bool))
            or (k is ValueKind.NUMBER and isinstance(r, (int, float)) and not isinstance(r, bool)
                and abs(r) <= sys.float_info.max)
            or (k in STRING_KINDS and isinstance(r, str))
            or (k is ValueKind.IDENTIFIER_SET and isinstance(r, frozenset)
                and all(isinstance(m, str) for m in r))
        )
        if not ok:
            raise ModelInvariantError(f"raw payload {r!r} does not fit value kind {k.value}")
        # Hashed once, from the payload alone: equal values (1 and 1.0, 0.0
        # and -0.0) share a hash, and null gets a constant, because
        # hash(None) follows its address and would move from run to run.
        object.__setattr__(self, "_hash", _NULL_HASH if r is None else hash(r))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # the cached hash of a string payload is only valid in this process
        return Value, (self.kind, self.raw)

    @staticmethod
    def _trusted(kind: ValueKind, raw) -> "Value":
        """A value whose payload the caller has already checked against
        ``kind``, built without a second check."""
        v = _new(Value)
        _set_kind(v, kind)
        _set_raw(v, raw)
        _set_value_hash(v, _NULL_HASH if raw is None else hash(raw))
        return v

    # -- constructors -------------------------------------------------------

    @staticmethod
    def timestamp(ticks: int) -> "Value":
        return Value(ValueKind.TIMESTAMP, ticks)

    @staticmethod
    def number(x: Union[int, float]) -> "Value":
        return Value(ValueKind.NUMBER, x)

    @staticmethod
    def text(s: str) -> "Value":
        return Value(ValueKind.TEXT, s)

    @staticmethod
    def identifier(s: str) -> "Value":
        return Value(ValueKind.IDENTIFIER, s)

    @staticmethod
    def identifier_set(members: Iterable[str]) -> "Value":
        return Value(ValueKind.IDENTIFIER_SET, frozenset(members))

    # -- helpers ------------------------------------------------------------

    @property
    def is_null(self) -> bool:
        return self.kind is ValueKind.NULL

    def sort_key(self):
        """Total order across all values, used only for deterministic output."""
        if self.kind is ValueKind.IDENTIFIER_SET:
            return (self.kind.value, tuple(sorted(self.raw)))
        if self.kind is ValueKind.NULL:
            return (self.kind.value, ())
        if self.kind is ValueKind.NUMBER:
            # present ints and floats in numeric order, ints first on ties;
            # the raw number keeps distinct ints past 2**53 apart
            return (self.kind.value,
                    (float(self.raw), isinstance(self.raw, float), self.raw))
        return (self.kind.value, (self.raw,))

    def render(self) -> str:
        if self.kind is ValueKind.NULL:
            return "null"
        if self.kind is ValueKind.IDENTIFIER_SET:
            return "{" + "|".join(sorted(self.raw)) + "}"
        if self.kind is ValueKind.TEXT:
            return repr(self.raw)
        return str(self.raw)


# Slot setters for the trusted constructors, past the frozen ``__setattr__``.
_set_kind, _set_raw, _set_value_hash = (
    Value.kind.__set__, Value.raw.__set__, Value._hash.__set__)

NULL = Value(ValueKind.NULL, None)


# ---------------------------------------------------------------------------
# Feature schema
# ---------------------------------------------------------------------------

class _RuleWide:
    """Singleton marker for rule-wide features (timestamp and constraints)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "RULE_WIDE"


RULE_WIDE = _RuleWide()

# A feature's component designator: the index of the core component it
# refines, its own index when it is a component itself, or RULE_WIDE.
Gamma = Union[int, _RuleWide]


class ComponentTag(str, Enum):
    """How a feature relates to the ODRL component structure."""

    RULE = "rule"          # rule-wide constraint (or the timestamp slot)
    ACTION = "action"      # the action component itself
    ASSET = "asset"        # an asset component
    PARTY = "party"        # a party component (assignee or assigner)
    REFINES = "refines"    # refinement of one core-component feature


CORE_TAGS = (ComponentTag.ACTION, ComponentTag.ASSET, ComponentTag.PARTY)

TIMESTAMP_FEATURE = 0
ACTION_FEATURE = 1
# The slots every event fills: no value there is ever null.
NON_NULL_FEATURES = frozenset({TIMESTAMP_FEATURE, ACTION_FEATURE})


@dataclass(frozen=True)
class FeatureDecl:
    """Declaration of one event feature.

    ``classes`` (static) or ``class_feature`` (index of a companion
    identifier-set feature carrying per-event class membership) back the
    ``isA`` operator; at most one of the two may be set.
    """

    index: int
    name: str
    datatype: Datatype
    component: ComponentTag
    refines: int | None = None
    party_role: str | None = None    # "assignee" | "assigner" for PARTY features
    classes: frozenset | None = None
    class_feature: int | None = None

    def __post_init__(self):
        if self.component is ComponentTag.REFINES:
            if self.refines is None:
                raise ModelInvariantError(
                    f"feature {self.index} ({self.name}): refinement without a target")
        elif self.refines is not None:
            raise ModelInvariantError(
                f"feature {self.index} ({self.name}): refines is only valid on refinements")
        if self.party_role is not None and self.component is not ComponentTag.PARTY:
            raise ModelInvariantError(
                f"feature {self.index} ({self.name}): party_role on a non-party feature")
        if self.party_role is not None and self.party_role not in ("assignee", "assigner"):
            raise ModelInvariantError(
                f"feature {self.index} ({self.name}): unknown party role {self.party_role!r}")
        if self.classes is not None and self.class_feature is not None:
            raise ModelInvariantError(
                f"feature {self.index} ({self.name}): both static classes and a class feature")

    @property
    def gamma(self) -> Gamma:
        if self.component is ComponentTag.RULE:
            return RULE_WIDE
        if self.component is ComponentTag.REFINES:
            return self.refines
        return self.index


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature declarations for one event shape.

    Feature names are metadata for serialization and diagnostics only; all
    semantics key on integer indices.
    """

    features: tuple

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        validate_schema(self)

    def __len__(self) -> int:
        return len(self.features)

    def declaration(self, i: int) -> FeatureDecl:
        if not (0 <= i < len(self.features)):
            raise SchemaError("bad-gamma-target", i, f"unknown feature index {i}")
        return self.features[i]

    def gamma(self, i: int) -> Gamma:
        """The component designator of feature ``i``: the index of the core
        component it refines, its own index for core components, or RULE_WIDE."""
        return self.declaration(i).gamma

    def by_name(self, name: str) -> FeatureDecl:
        for decl in self.features:
            if decl.name == name:
                return decl
        raise KeyError(name)

    @functools.cached_property
    def value_kinds(self) -> tuple:
        """The value kind each event slot holds when it is not null."""
        return tuple(KIND_FOR_DATATYPE[decl.datatype] for decl in self.features)

    @functools.cached_property
    def well_formed_verdicts(self) -> dict:
        """Memo of ``matching.is_well_formed``: rule -> whether it is
        well-formed under this schema. A rule's label takes no part in its
        equality or in the verdict, so only the verdict is kept."""
        return {}

    @functools.cached_property
    def class_conditions(self) -> dict:
        """Memo of ``conditions.class_condition``: ``isA`` condition -> its
        class test under this schema, or None."""
        return {}


def validate_schema(schema: FeatureSchema) -> FeatureSchema:
    """Return ``schema`` if every schema invariant holds, else raise SchemaError.

    Idempotent: schemas are re-checked cheaply and never rewritten.
    """
    feats = schema.features
    if not feats:
        raise SchemaError("wrong-datetime-slot", 0, "schema declares no features")
    names = set()
    for pos, decl in enumerate(feats):
        if not isinstance(decl, FeatureDecl):
            raise SchemaError("bad-gamma-target", pos, "feature declarations expected")
        if type(decl.index) is not int or decl.index != pos:
            raise SchemaError(
                "duplicate-index", decl.index,
                f"feature indices must be unique and contiguous; "
                f"found index {decl.index} at position {pos}")
        if decl.name in names:
            raise SchemaError(
                "duplicate-name", pos,
                f"feature names must be unique; feature {pos} repeats "
                f"the name {decl.name!r}")
        names.add(decl.name)
    dt = feats[TIMESTAMP_FEATURE]
    if dt.datatype is not Datatype.TIMESTAMP or dt.component is not ComponentTag.RULE:
        raise SchemaError(
            "wrong-datetime-slot", 0,
            "feature 0 must be the rule-wide timestamp (datatype timestamp)")
    if len(feats) < 2:
        raise SchemaError("wrong-action-slot", 1, "schema declares no action feature")
    act = feats[ACTION_FEATURE]
    if act.component is not ComponentTag.ACTION or act.datatype is not Datatype.IDENTIFIER:
        raise SchemaError(
            "wrong-action-slot", 1,
            "feature 1 must be the action component (datatype identifier)")
    for decl in feats[2:]:
        if decl.component is ComponentTag.ACTION:
            raise SchemaError(
                "wrong-action-slot", decl.index,
                f"feature {decl.index} duplicates the action component")
    for decl in feats:
        if decl.component is ComponentTag.REFINES:
            target = decl.refines
            if type(target) is not int or not (0 <= target < len(feats)):
                raise SchemaError(
                    "bad-gamma-target", decl.index,
                    f"feature {decl.index} refines nonexistent feature {target}")
            if feats[target].component not in CORE_TAGS:
                raise SchemaError(
                    "bad-gamma-target", decl.index,
                    f"feature {decl.index} must refine a core-component feature, "
                    f"not feature {target}")
        if decl.class_feature is not None:
            cf = decl.class_feature
            if (type(cf) is not int or not (0 <= cf < len(feats))
                    or feats[cf].datatype is not Datatype.IDENTIFIER_SET):
                raise SchemaError(
                    "bad-gamma-target", decl.index,
                    f"feature {decl.index} declares class feature {cf}, which is not "
                    f"a declared identifier-set feature")
    return schema


feature_component = FeatureSchema.gamma


# ---------------------------------------------------------------------------
# Events and worlds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Event:
    """One observed action: a tuple of feature values, timestamp first."""

    __slots__ = ("values", "_hash")

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        vs = self.values
        if len(vs) < 2:
            raise ModelInvariantError("an event needs at least timestamp and action slots")
        if not all(map(isinstance, vs, repeat(Value))):
            raise ModelInvariantError("event slots must hold Value instances")
        if vs[TIMESTAMP_FEATURE].kind is not ValueKind.TIMESTAMP:
            raise ModelInvariantError("event slot 0 must be a non-null timestamp")
        if vs[ACTION_FEATURE].kind is not ValueKind.IDENTIFIER:
            raise ModelInvariantError("event slot 1 must be a non-null action identifier")
        object.__setattr__(self, "_hash", hash(tuple(map(_value_hash, vs))))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Event, (self.values,)

    @staticmethod
    def _trusted(values: tuple) -> "Event":
        """An event whose slots the caller built from schema-typed values,
        built without a second check."""
        e = _new(Event)
        _set_values(e, values)
        _set_event_hash(e, hash(tuple(map(_value_hash, values))))
        return e

    @property
    def timestamp(self) -> int:
        return self.values[TIMESTAMP_FEATURE].raw

    @property
    def action(self) -> str:
        return self.values[ACTION_FEATURE].raw

    def value(self, i: int) -> Value:
        return self.values[i]

    def sort_key(self):
        return tuple(v.sort_key() for v in self.values)

    def render(self) -> str:
        return "(" + ", ".join(v.render() for v in self.values) + ")"


_set_values, _set_event_hash = Event.values.__set__, Event._hash.__set__
# An event's hash is the hash of its slots' cached hashes.
_value_hash = operator.attrgetter("_hash")


@dataclass(frozen=True)
class World:
    """A finite set of events; duplicates by value collapse.

    A world keeps a private encoded view of its events, ``EventColumns`` in
    ``ordered()`` order, which ``EventColumns.ordered`` alone builds. The
    view is derived state: it takes no part in equality, hashing, repr or
    pickling, and a world built from events computes it on first use."""

    events: frozenset

    def __post_init__(self):
        object.__setattr__(self, "events", frozenset(self.events))

    @staticmethod
    def of(events: Iterable[Event], schema: FeatureSchema | None = None) -> "World":
        world = World(frozenset(events))
        if schema is not None:
            conform_world(world, schema)
        return world

    @staticmethod
    def _encoded_as(view: "EventColumns") -> "World":
        """The world of ``view``'s events, with ``view`` as its encoded view."""
        world = World(view.events)
        world.__dict__["_encoded"] = view
        return world

    @functools.cached_property
    def _encoded(self) -> "EventColumns":
        return EventColumns.ordered(tuple(self.events))

    def __reduce__(self):
        return World, (self.events,)

    def __contains__(self, event: Event) -> bool:
        return event in self.events

    def __len__(self) -> int:
        return len(self.events)

    def ordered(self) -> tuple:
        """Events in ``Event.sort_key`` order."""
        return self._encoded.events


class EventColumns:
    """Events in a fixed order, dictionary-encoded one feature at a time.

    ``codes(i)`` gives feature ``i``'s distinct values and, per event, the
    position of its value among them. A position stands for one literal:
    equal values written differently (1 and 1.0, 0.0 and -0.0) get one
    each. ``column(i)`` is the view ``MatchTable``
    reads: the values, and a function from one flag per value to the bitset
    of the events holding a flagged one, bit ``j`` for ``events[j]``.
    ``timestamps`` lists the events' timestamps when the events are in
    timestamp order, as ``ordered`` puts them, else it is None."""

    __slots__ = ("events", "timestamps", "_codes")

    def __init__(self, events: tuple, timestamps: list | None = None,
                 codes: dict | None = None):
        self.events = events
        self.timestamps = timestamps
        self._codes = {} if codes is None else codes

    @staticmethod
    def ordered(events, codes: dict | None = None) -> "EventColumns":
        """A world's view: ``events`` in ``Event.sort_key`` order, equal
        events collapsed onto the first. ``codes`` maps a feature to its
        column in the order given, ``(values, codes)``; any other feature is
        encoded on first use."""
        stamps = [e.values[TIMESTAMP_FEATURE].raw for e in events]
        n = len(stamps)
        if len(set(stamps)) == n:
            order = sorted(range(n), key=stamps.__getitem__)
        else:
            # Equal events share a timestamp. Each keeps its first index: a
            # dict keeps the last index it is given for a key, so feed it backwards.
            kept = dict(zip(reversed(events), reversed(range(n)))).values()
            # slot 0 is the timestamp: full keys only for events sharing one
            tied = Counter(stamps)
            order = sorted(kept, key=lambda j: (stamps[j], events[j].sort_key())
                           if tied[stamps[j]] > 1 else (stamps[j],))
        if codes is not None:
            codes = {i: (values, list(map(column.__getitem__, order)))
                     for i, (values, column) in codes.items()}
        return EventColumns(tuple(map(events.__getitem__, order)),
                            list(map(stamps.__getitem__, order)), codes)

    def __len__(self) -> int:
        return len(self.events)

    def codes(self, i: int) -> tuple:
        col = self._codes.get(i)
        if col is None:
            # a float goes with its repr: 1 and 1.0, 0.0 and -0.0 differ
            index: dict = {}   # literal -> (code, its first value)
            codes = [index.setdefault((v, repr(v.raw)) if v.raw.__class__ is float else v,
                                      (len(index), v))[0]
                     for v in (e.values[i] for e in self.events)]
            col = self._codes[i] = (tuple(v for _, v in index.values()), codes)
        return col

    def column(self, i: int) -> tuple:
        values, codes = self.codes(i)
        return values, expander(codes)


# flag 0 or 1 -> the ASCII digit "0" or "1"
_BINARY_DIGITS = b"01" + bytes(254)


def expander(codes) -> Callable:
    """A function from one flag per code (a ``bytearray`` of 0s and 1s) to
    the bitset with bit ``j`` set when ``codes[j]`` is flagged.

    The codes are laid out once, highest bit first. Up to 256 distinct codes
    fit one ``bytes``, which ``bytes.translate`` maps to binary digits in one
    pass; wider columns pick the flags with an ``itemgetter``."""
    if not codes:
        return lambda flags: 0
    if max(codes) < 256:
        layout = bytes(reversed(codes))

        def expand(flags) -> int:
            digits = flags[:256].translate(_BINARY_DIGITS).ljust(256, b"0")
            return int(layout.translate(digits), 2)
        return expand
    if len(codes) == 1:
        # an itemgetter of one item gives the flag itself, not a tuple
        code = codes[0]
        return lambda flags: flags[code]
    pick = operator.itemgetter(*reversed(codes))

    def expand(flags) -> int:
        return int(bytes(pick(flags)).translate(_BINARY_DIGITS), 2)
    return expand


def conform_world(world: World, schema: FeatureSchema) -> EventColumns:
    """The world's view, its events in ``world.ordered()`` order encoded as
    columns, once every event fits ``schema``; else WorldConformanceError
    naming the first misfit in that order."""
    view = world._encoded
    kinds = schema.value_kinds
    for e in view.events:
        if len(e.values) != len(kinds):
            raise WorldConformanceError(
                f"event arity {len(e.values)} does not match schema arity {len(kinds)}")
        for decl, v, kind in zip(schema.features, e.values, kinds):
            if v.kind is not kind and v.kind is not ValueKind.NULL:
                raise WorldConformanceError(
                    f"feature {decl.index} ({decl.name}) expects {decl.datatype.value}, "
                    f"event carries {v.kind.value}")
    return view


# ---------------------------------------------------------------------------
# Conditions
# ---------------------------------------------------------------------------

class Operator(str, Enum):
    """The twelve supported comparison operators."""

    EQ = "eq"
    GT = "gt"
    GTEQ = "gteq"
    LT = "lt"
    LTEQ = "lteq"
    NEQ = "neq"
    IS_A = "isA"
    HAS_PART = "hasPart"
    IS_PART_OF = "isPartOf"
    IS_ALL_OF = "isAllOf"
    IS_ANY_OF = "isAnyOf"
    IS_NONE_OF = "isNoneOf"


ORDER_OPERATORS = frozenset({Operator.GT, Operator.GTEQ, Operator.LT, Operator.LTEQ})
SCALAR_OPERATORS = ORDER_OPERATORS | {Operator.EQ, Operator.NEQ}
SET_OPERATORS = frozenset({Operator.HAS_PART, Operator.IS_PART_OF, Operator.IS_ALL_OF})
MEMBERSHIP_OPERATORS = frozenset({Operator.IS_ANY_OF, Operator.IS_NONE_OF})

_SCALAR_SYMBOL = {
    Operator.EQ: "=", Operator.GT: ">", Operator.GTEQ: ">=",
    Operator.LT: "<", Operator.LTEQ: "<=", Operator.NEQ: "!=",
}


class Condition:
    """Base class; a condition is a simple comparison triple or a boolean
    combination of conditions. A node's operands, in order, are its
    ``parts``, empty for a leaf, and ``with_parts`` rebuilds it over new
    ones: code outside this module reads a tree's shape through these two."""

    __slots__ = ()

    def with_parts(self, parts: tuple) -> "Condition":
        """This node over ``parts`` in place of its operands; the node itself
        when each new operand is the one it holds."""
        if len(parts) == len(self.parts) and all(map(operator.is_, parts, self.parts)):
            return self
        return type(self)(parts) if isinstance(self, _Junction) else type(self)(*parts)


@dataclass(frozen=True)
class SimpleCondition(Condition):
    """Comparison triple: feature index, operator, constant (or constant set)."""

    feature: int
    op: Operator
    value: Value
    parts = ()

    def __post_init__(self):
        if not isinstance(self.value, Value):
            raise ModelInvariantError("condition constants must be Value instances")
        if self.value.is_null:
            raise ModelInvariantError("null is not a legal condition constant")
        if self.value.kind is ValueKind.IDENTIFIER_SET:
            if self.op in SCALAR_OPERATORS:
                raise ModelInvariantError(
                    f"set-valued constant requires a set or class operator, not {self.op.value}")
        elif self.op in MEMBERSHIP_OPERATORS:
            raise ModelInvariantError(
                f"{self.op.value} requires a set-valued constant")
        elif self.op not in SCALAR_OPERATORS and not isinstance(self.value.raw, str):
            raise ModelInvariantError(
                f"{self.op.value} takes a set or string constant, "
                f"not a {self.value.kind.value}")

    @property
    def members(self) -> frozenset:
        """The members a set or class operator tests: a set constant's own,
        or a scalar (string) constant lifted to a singleton."""
        v = self.value
        return v.raw if v.kind is ValueKind.IDENTIFIER_SET else frozenset({v.raw})

    def render(self, schema: FeatureSchema | None = None) -> str:
        name = schema.declaration(self.feature).name if schema else f"f{self.feature}"
        return f"<{name} {_SCALAR_SYMBOL.get(self.op, self.op.value)} {self.value.render()}>"


@dataclass(frozen=True)
class _Junction(Condition):
    """The body And and Or share: their operands, rendered with the
    class's ``joiner``."""

    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        _require_conditions(self.parts)

    def render(self, schema=None) -> str:
        return "(" + self.joiner.join(p.render(schema) for p in self.parts) + ")"


class And(_Junction):
    joiner = " & "


class Or(_Junction):
    joiner = " | "


@dataclass(frozen=True)
class Not(Condition):
    part: Condition

    def __post_init__(self):
        _require_conditions((self.part,))

    @property
    def parts(self) -> tuple:
        return (self.part,)

    def render(self, schema=None) -> str:
        return f"~{self.part.render(schema)}"


@dataclass(frozen=True)
class Xor(Condition):
    left: Condition
    right: Condition

    def __post_init__(self):
        _require_conditions((self.left, self.right))

    @property
    def parts(self) -> tuple:
        return (self.left, self.right)

    def render(self, schema=None) -> str:
        return f"({self.left.render(schema)} ^ {self.right.render(schema)})"


@dataclass(frozen=True)
class Constant(Condition):
    """Truth constant; appears only through rewrites (deadline stripping)."""

    truth: bool
    parts = ()

    def render(self, schema=None) -> str:
        return "true" if self.truth else "false"


def _require_conditions(parts) -> None:
    if not parts:
        raise ModelInvariantError("boolean combinators need at least one operand")
    for p in parts:
        if not isinstance(p, Condition):
            raise ModelInvariantError(f"{p!r} is not a condition")


def features_of(condition: Condition) -> frozenset:
    """The set of feature indices appearing in a condition."""
    return frozenset(sc.feature for sc in simple_conditions_of(condition))


def simple_conditions_of(condition: Condition) -> Iterator[SimpleCondition]:
    """All simple-condition leaves of a condition tree."""
    stack = [condition]
    while stack:
        c = stack.pop()
        if isinstance(c, SimpleCondition):
            yield c
        elif isinstance(c, Condition) and hasattr(c, "parts"):
            stack.extend(c.parts)
        else:
            raise ModelInvariantError(f"unknown condition node {c!r}")


# ---------------------------------------------------------------------------
# Event rules and policies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EventRule:
    """A conjunction of conditions. The label is metadata only and does not
    take part in equality, so structurally identical rules collapse in sets."""

    conditions: frozenset
    label: str | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "conditions", frozenset(self.conditions))
        for c in self.conditions:
            if not isinstance(c, Condition):
                raise ModelInvariantError(f"{c!r} is not a condition")
        if self.label is not None and not isinstance(self.label, str):
            raise ModelInvariantError(f"rule label {self.label!r} is not a string")
        # hashed once, as Value is; the label takes no part
        object.__setattr__(self, "_hash", hash(self.conditions))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # the cached hash is only valid in this process
        return EventRule, (self.conditions, self.label)

    @staticmethod
    def of(*conditions: Condition, label: str | None = None) -> "EventRule":
        return EventRule(frozenset(conditions), label=label)

    def ordered_conditions(self) -> tuple:
        return tuple(sorted(self.conditions, key=lambda c: c.render()))

    def render(self, schema: FeatureSchema | None = None) -> str:
        return "{" + " & ".join(c.render(schema) for c in self.ordered_conditions()) + "}"

    def display_label(self, schema: FeatureSchema | None = None) -> str:
        return self.label if self.label is not None else self.render(schema)


def ordered_rules(rules: Iterable[EventRule]) -> tuple:
    """Deterministic rule ordering: by label when present, else by rendering."""
    return tuple(sorted(rules, key=lambda r: (r.display_label(), r.render())))


def ordered_tuples(tuples: Iterable[tuple]) -> tuple:
    """Deterministic ordering of pairing tuples, by their rules' renderings."""
    return tuple(sorted(tuples, key=lambda t: tuple(r.render() for r in t)))


@dataclass(frozen=True)
class LitePolicy:
    """Permission, prohibition and obligation rule sets."""

    permissions: frozenset
    prohibitions: frozenset
    obligations: frozenset

    def __post_init__(self):
        for name in ("permissions", "prohibitions", "obligations"):
            rules = frozenset(getattr(self, name))
            object.__setattr__(self, name, rules)
            for r in rules:
                if not isinstance(r, EventRule):
                    raise ModelInvariantError(f"{name} must contain event rules")

    @staticmethod
    def of(permissions=(), prohibitions=(), obligations=()) -> "LitePolicy":
        return LitePolicy(frozenset(permissions), frozenset(prohibitions),
                          frozenset(obligations))

    def all_rules(self) -> frozenset:
        return self.permissions | self.prohibitions | self.obligations


def is_deadline(c: Condition) -> bool:
    """True for a timestamp deadline ``<Datetime, <=, t>``."""
    return (isinstance(c, SimpleCondition)
            and c.feature == TIMESTAMP_FEATURE
            and c.op is Operator.LTEQ
            and c.value.kind is ValueKind.TIMESTAMP)


def deadline_conditions(rule: EventRule) -> tuple:
    """Top-level timestamp deadlines ``<Datetime, <=, t>`` of a rule."""
    out = [c for c in rule.conditions if is_deadline(c)]
    return tuple(sorted(out, key=lambda c: c.value.raw))


class Pairing(NamedTuple):
    """One of the four pairings a full policy adds to a lite policy: the
    ``FullPolicy`` field holding its tuples, the canonical document key, and
    the document key of each member, in tuple order.

    Every member is a permission, drawn from P, except the first member of a
    pairing with a ``lead``: the remedied prohibition of FR or the deadline
    obligation of OC. A lead is written inline rather than by label, must
    stay out of the lite rule set ``lead`` names, and gets the label
    ``<fallback>-N`` in a document when it has none.
    """

    field: str
    key: str
    members: tuple
    lead: str | None = None
    fallback: str | None = None

    def is_lead(self, position: int) -> bool:
        return position == 0 and self.lead is not None


PAIRINGS = (
    Pairing("duty_pairs", "dutyPairs", ("permission", "duty")),
    Pairing("duty_consequence_triples", "dutyConsequenceTriples",
            ("permission", "duty", "consequence")),
    Pairing("remedy_pairs", "remedyPairs", ("prohibition", "remedy"),
            "prohibitions", "remedied"),
    Pairing("obligation_consequence_pairs", "obligationConsequencePairs",
            ("obligation", "consequence"), "obligations", "deadline"),
)


@dataclass(frozen=True)
class FullPolicy:
    """A lite policy extended with duties, remedies and consequences.

    ``duty_pairs`` (DP): permission -> duty that must precede it.
    ``duty_consequence_triples`` (DPC): permission, duty, consequence.
    ``remedy_pairs`` (FR): prohibition -> remedy that must follow a breach.
    ``obligation_consequence_pairs`` (OC): deadline obligation -> consequence.
    A lite policy is the full policy with no pairings.
    """

    lite: LitePolicy
    duty_pairs: frozenset = frozenset()
    duty_consequence_triples: frozenset = frozenset()
    remedy_pairs: frozenset = frozenset()
    obligation_consequence_pairs: frozenset = frozenset()

    def __post_init__(self):
        for pairing in PAIRINGS:
            tuples = frozenset(getattr(self, pairing.field))
            object.__setattr__(self, pairing.field, tuples)
            if any(len(t) != len(pairing.members)
                   or not all(isinstance(r, EventRule) for r in t) for t in tuples):
                raise PolicyInvariantError(
                    f"{pairing.key}: every entry is a ({', '.join(pairing.members)}) tuple")
            # in canonical order, so the offender named does not follow the hash seed
            for t in ordered_tuples(tuples):
                for i, (member, rule) in enumerate(zip(pairing.members, t)):
                    if pairing.is_lead(i):
                        if rule in getattr(self.lite, pairing.lead):
                            raise PolicyInvariantError(
                                f"{pairing.key}: no {member} may also sit in "
                                f"{pairing.lead}, or its {pairing.members[1]} "
                                f"could never restore validity")
                    elif rule not in self.lite.permissions:
                        raise PolicyInvariantError(
                            f"{pairing.key}: every {member} must be a permission")
        for tau, _ in self.obligation_consequence_pairs:
            if not deadline_conditions(tau):
                raise PolicyInvariantError(
                    "a consequence-bearing obligation needs a <Datetime, <=, t> deadline")

    @staticmethod
    def of(lite: LitePolicy, duty_pairs=(), duty_consequence_triples=(),
           remedy_pairs=(), obligation_consequence_pairs=()) -> "FullPolicy":
        return FullPolicy(lite, frozenset(duty_pairs),
                          frozenset(duty_consequence_triples),
                          frozenset(remedy_pairs),
                          frozenset(obligation_consequence_pairs))

    def all_rules(self) -> frozenset:
        return self.lite.all_rules().union(
            rule for pairing in PAIRINGS
            for t in getattr(self, pairing.field) for rule in t)


def as_full(policy: Policy) -> FullPolicy:
    """The policy itself if it is full, else the full policy with no pairings."""
    return policy if isinstance(policy, FullPolicy) else FullPolicy.of(policy)


Policy = Union[LitePolicy, FullPolicy]


def require_lite(**policies) -> None:
    """Raise PolicyInvariantError naming the first argument not a lite policy."""
    for name, p in policies.items():
        if not isinstance(p, LitePolicy):
            raise PolicyInvariantError(f"{name} must be a lite policy, not {type(p).__name__}")


# ---------------------------------------------------------------------------
# Action vocabulary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ActionVocabulary:
    """The acyclic "included in" relation over action identifiers.

    An edge (child, parent) states that performing ``child`` is included in
    the operational semantics of ``parent``.
    """

    included_in: frozenset

    def __post_init__(self):
        edges = frozenset(
            (str(c), str(p)) for c, p in self.included_in)
        object.__setattr__(self, "included_in", edges)
        # Sorted, so the cycle named does not depend on the hash seed;
        # graphlib's search needs no recursion, however long the chain.
        sorter = graphlib.TopologicalSorter()
        for child, parent in sorted(edges):
            sorter.add(child, parent)
        try:
            sorter.prepare()
        except graphlib.CycleError as exc:
            cycle = exc.args[1][::-1]   # graphlib lists it parent first
            raise VocabularyError(
                f"cyclic-vocabulary: action {cycle[0]!r} is included in itself "
                f"via {' -> '.join(cycle)}") from None

    @staticmethod
    def of(edges: Iterable) -> "ActionVocabulary":
        return ActionVocabulary(frozenset(tuple(e) for e in edges))

    @functools.cached_property
    def _children(self) -> dict:
        out: dict = {}
        for child, parent in self.included_in:
            out.setdefault(parent, set()).add(child)
        return out

    def descendants_of(self, action: str) -> frozenset:
        """All actions whose semantics are included in ``action``'s, itself
        included (reflexive-transitive closure of the child relation)."""
        seen = {action}
        queue = deque([action])
        while queue:
            node = queue.popleft()
            for child in self._children.get(node, ()):
                if child not in seen:
                    seen.add(child)
                    queue.append(child)
        return frozenset(seen)


EMPTY_VOCABULARY = ActionVocabulary(frozenset())

"""Serialization and parsing: schema, world, vocabulary and policy documents.

Two policy formats are accepted. The canonical native format is a plain JSON
rendering of the in-memory types with explicit feature names; it round-trips
exactly. The ODRL ingestion format is a fixed profile of the W3C JSON-LD
serialization: compacted form, the standard context string, no remote
context fetching, no general JSON-LD expansion. Documents outside the
profile are rejected with a precise diagnostic rather than half-read.

World logs are delimiter-separated text: a header row of feature names, one
row per event, the literal token ``null`` for unspecified values (never for
the timestamp or the action), and ``|`` between the members of a set value.
Timestamps may be integer ticks or ISO-8601 strings (converted to epoch
seconds, UTC assumed when naive).
"""

from __future__ import annotations

import csv
import io
from datetime import datetime, timezone

from .errors import DocumentError, IllFormedRuleError, ModelInvariantError, quoted
from .evaluation import Finding, ViolationReport
from .comparison import ConflictVerdict
from .matching import require_well_formed
from .model import (
    ActionVocabulary,
    And,
    ComponentTag,
    Condition,
    Constant,
    Datatype,
    Event,
    EventColumns,
    EventRule,
    FeatureDecl,
    FeatureSchema,
    FullPolicy,
    LitePolicy,
    MAX_NUMBER,
    MEMBERSHIP_OPERATORS,
    NON_NULL_FEATURES,
    Not,
    NULL,
    Operator,
    Or,
    PAIRINGS,
    Policy,
    RULE_WIDE,
    SCALAR_OPERATORS,
    SimpleCondition,
    Value,
    ValueKind,
    World,
    Xor,
    ordered_rules,
)

SCHEMA_FORMAT = "feature-schema/1"
VOCABULARY_FORMAT = "action-vocabulary/1"
POLICY_FORMAT = "policy/1"
REPORT_FORMAT = "violation-report/1"
VERDICT_FORMAT = "conflict-verdict/1"

ODRL_CONTEXT = "http://www.w3.org/ns/odrl.jsonld"
_ODRL_IRI_PREFIX = "http://www.w3.org/ns/odrl/2/"

# The deepest nesting of JSON arrays and objects a policy document may use.
# It bounds every condition tree, which parsing, evaluation, comparison and
# SQL emission walk recursively, well inside Python's default recursion limit.
MAX_NESTING_DEPTH = 100

def _require_keys(obj: dict, allowed, where: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise DocumentError(
            "unknown-field", f"unknown field(s) {quoted(unknown)}; this profile rejects "
            f"fields it does not understand", where)


# ---------------------------------------------------------------------------
# Schema documents
# ---------------------------------------------------------------------------

_DATATYPES = {d.value: d for d in Datatype}
_COMPONENTS = {t.value: t for t in ComponentTag}


def parse_schema_document(doc: dict) -> FeatureSchema:
    if not isinstance(doc, dict) or doc.get("format") != SCHEMA_FORMAT:
        raise DocumentError(
            "bad-format", f"schema documents must carry format={quoted(SCHEMA_FORMAT)}")
    _require_keys(doc, ("format", "features"), "schema document")
    raw_features = doc.get("features")
    if not isinstance(raw_features, list):
        raise DocumentError("bad-format", "must be a list of feature declarations",
                            "features")

    names = {}
    for pos, obj in enumerate(raw_features):
        if not isinstance(obj, dict) or not isinstance(obj.get("name"), str):
            raise DocumentError("bad-format", "needs a name", f"feature {pos}")
        names[obj["name"]] = pos

    decls = []
    for pos, obj in enumerate(raw_features):
        where = f"feature {pos} ({obj.get('name')})"
        _require_keys(
            obj,
            ("index", "name", "datatype", "component", "refines", "partyRole",
             "classes", "classFeature"),
            where)
        dt, comp = obj.get("datatype"), obj.get("component")
        dt = _DATATYPES.get(dt) if isinstance(dt, str) else None
        comp = _COMPONENTS.get(comp) if isinstance(comp, str) else None
        if dt is None or comp is None:
            raise DocumentError("bad-format", "unknown datatype or component", where)
        refines = obj.get("refines")
        if refines is not None:
            if not isinstance(refines, str) or refines not in names:
                raise DocumentError(
                    "bad-format", f"refines unknown feature {quoted(refines)}", where)
            refines = names[refines]
        class_feature = obj.get("classFeature")
        if class_feature is not None:
            if not isinstance(class_feature, str) or class_feature not in names:
                raise DocumentError(
                    "bad-format",
                    f"classFeature names unknown feature {quoted(class_feature)}", where)
            class_feature = names[class_feature]
        classes = obj.get("classes")
        if classes is not None and not (
                isinstance(classes, list) and all(isinstance(c, str) for c in classes)):
            raise DocumentError(
                "bad-format", "classes must be a list of class names", where)
        decls.append(FeatureDecl(
            index=obj.get("index", pos),
            name=obj["name"],
            datatype=dt,
            component=comp,
            refines=refines,
            party_role=obj.get("partyRole"),
            classes=None if classes is None else frozenset(classes),
            class_feature=class_feature,
        ))
    return FeatureSchema(tuple(decls))


def schema_to_document(schema: FeatureSchema) -> dict:
    features = []
    for decl in schema.features:
        obj = {
            "index": decl.index,
            "name": decl.name,
            "datatype": decl.datatype.value,
            "component": decl.component.value,
        }
        if decl.refines is not None:
            obj["refines"] = schema.declaration(decl.refines).name
        if decl.party_role is not None:
            obj["partyRole"] = decl.party_role
        if decl.classes is not None:
            obj["classes"] = sorted(decl.classes)
        if decl.class_feature is not None:
            obj["classFeature"] = schema.declaration(decl.class_feature).name
        features.append(obj)
    return {"format": SCHEMA_FORMAT, "features": features}


# ---------------------------------------------------------------------------
# Vocabulary documents
# ---------------------------------------------------------------------------

def parse_vocabulary_document(doc: dict) -> ActionVocabulary:
    if not isinstance(doc, dict) or doc.get("format") != VOCABULARY_FORMAT:
        raise DocumentError(
            "bad-format",
            f"vocabulary documents must carry format={quoted(VOCABULARY_FORMAT)}")
    _require_keys(doc, ("format", "includedIn"), "vocabulary document")
    edges = doc.get("includedIn", [])
    if not isinstance(edges, list):
        raise DocumentError("bad-format", "must be a list of edges", "includedIn")
    parsed = []
    for pos, edge in enumerate(edges):
        if (not isinstance(edge, list) or len(edge) != 2
                or not all(isinstance(x, str) for x in edge)):
            raise DocumentError(
                "bad-format", "must be a [child, parent] pair of action names",
                f"includedIn[{pos}]")
        parsed.append((edge[0], edge[1]))
    return ActionVocabulary.of(parsed)


def vocabulary_to_document(vocabulary: ActionVocabulary) -> dict:
    return {
        "format": VOCABULARY_FORMAT,
        "includedIn": [list(e) for e in sorted(vocabulary.included_in)],
    }


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

def _timestamp_ticks(raw, where: str) -> int:
    """Integer ticks, or an ISO-8601 string mapped to epoch seconds."""
    if isinstance(raw, bool):
        raise DocumentError("unparsable-value", "boolean timestamp", where)
    if isinstance(raw, int):
        return raw
    if isinstance(raw, str):
        text = raw.strip()
        try:
            return int(text)
        except ValueError:
            pass
        try:
            dt = datetime.fromisoformat(text)
        except ValueError as exc:
            raise DocumentError(
                "unparsable-value", f"{quoted(text)} is neither integer ticks nor ISO-8601",
                where) from exc
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return int(dt.timestamp())
    raise DocumentError(
        "unparsable-value", f"cannot read timestamp from {quoted(raw)}", where)


def parse_value(raw, datatype: Datatype, where: str) -> Value:
    """JSON payload (or DSV cell already split) to a typed value. Each
    branch checks the payload as ``Value`` would, so the value is built
    without a second check."""
    if datatype is Datatype.TIMESTAMP:
        return Value._trusted(ValueKind.TIMESTAMP, _timestamp_ticks(raw, where))
    if datatype is Datatype.NUMERIC:
        if isinstance(raw, bool):
            raise DocumentError("unparsable-value", "boolean number", where)
        number = raw
        if isinstance(raw, str):
            try:
                number = int(raw)
            except ValueError:
                try:
                    number = float(raw)
                except ValueError as exc:
                    raise DocumentError(
                        "unparsable-value", f"{quoted(raw)} is not numeric", where) from exc
        if isinstance(number, (int, float)) and abs(number) <= MAX_NUMBER:
            return Value._trusted(ValueKind.NUMBER, number)
    if datatype is Datatype.STRING and isinstance(raw, str):
        return Value._trusted(ValueKind.TEXT, raw)
    if datatype is Datatype.IDENTIFIER and isinstance(raw, str):
        return Value._trusted(ValueKind.IDENTIFIER, raw)
    if datatype is Datatype.IDENTIFIER_SET:
        if isinstance(raw, list) and all(isinstance(m, str) for m in raw):
            return Value._trusted(ValueKind.IDENTIFIER_SET, frozenset(raw))
        if isinstance(raw, str):
            members = frozenset(m for m in raw.split("|") if m != "")
            return Value._trusted(ValueKind.IDENTIFIER_SET, members)
    raise DocumentError(
        "unparsable-value", f"{quoted(raw)} does not fit datatype {datatype.value}", where)


def value_to_json(v: Value):
    if v.is_null:
        return None
    if v.kind.value == "identifier-set":
        return sorted(v.raw)
    return v.raw


# ---------------------------------------------------------------------------
# World documents (delimiter-separated text)
# ---------------------------------------------------------------------------

def _encode_column(cells: tuple, decl: FeatureDecl) -> tuple:
    """One column's distinct stripped texts, each parsed once, and one code
    per cell: ``(values, codes)``, where ``values[codes[j]]`` is row ``j``'s
    value, or the DocumentError its cell raised, with no location yet. Codes
    are numbered in the order their texts first appear, so code ``k`` first
    appears before code ``k + 1``."""
    distinct = dict.fromkeys(cells)
    texts = list(map(str.strip, distinct))
    parsed: dict = {}   # stripped text -> value, or its error
    for text in dict.fromkeys(texts):
        if text == "null":
            # every event has a timestamp and an action
            parsed[text] = NULL if decl.index not in NON_NULL_FEATURES else DocumentError(
                "unparsable-value", f"{decl.name} may not be null")
            continue
        try:
            parsed[text] = parse_value(text, decl.datatype, None)
        except DocumentError as exc:
            parsed[text] = exc
    code = dict(zip(parsed, range(len(parsed))))
    cell_code = dict(zip(distinct, map(code.__getitem__, texts)))
    return tuple(parsed.values()), list(map(cell_code.__getitem__, cells))


def parse_world_text(text: str, schema: FeatureSchema) -> World:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise DocumentError("header-mismatch", "world log has no header row")
    except csv.Error as exc:
        raise DocumentError("bad-format", str(exc), "header row") from exc
    header = [h.strip() for h in header]
    expected = [d.name for d in schema.features]
    width = len(expected)
    if sorted(header) != sorted(expected) or len(header) != width:
        raise DocumentError(
            "header-mismatch",
            f"{header} does not bijectively map to schema features {expected}",
            "header row")

    # The records up to the first one that cannot be an event. Its error
    # stands unless a bad cell comes before it.
    rows, halt = [], None
    try:
        for row in reader:
            rows.append(row)
    except csv.Error as exc:
        # a record the csv module cannot read, such as one with a field
        # over its size limit
        halt = DocumentError("bad-format", str(exc), f"row {len(rows)}")
        halt.__cause__ = exc
    row_numbers = range(len(rows))
    if set(map(len, rows)) - {width}:
        # blank rows are skipped, but keep their place in the numbering
        kept = []
        for row_index, row in enumerate(rows):
            if not row or (len(row) == 1 and row[0].strip() == ""):
                continue
            if len(row) != width:
                halt = DocumentError(
                    "arity-mismatch", f"{len(row)} columns against {width}-feature schema",
                    f"row {row_index}")
                break
            kept.append(row_index)
        rows, row_numbers = list(map(rows.__getitem__, kept)), kept

    # Column by column from here: each column's distinct cells are parsed
    # once, and each event is assembled from per-cell codes. The first bad
    # cell in row-major order (cells in schema feature order) raises.
    cells = list(zip(*rows)) if rows else [()] * width
    del rows
    cells = [cells[header.index(decl.name)] for decl in schema.features]
    columns = [(decl, _encode_column(column, decl))
               for decl, column in zip(schema.features, cells)]
    del cells
    if any(isinstance(v, DocumentError) for _, (values, _) in columns for v in values):
        for position, row in enumerate(zip(*(codes for _, (_, codes) in columns))):
            for (decl, (values, _)), code in zip(columns, row):
                if isinstance(values[code], DocumentError):
                    values[code].location = f"row {row_numbers[position]}, column {decl.name}"
                    raise values[code]
    if halt is not None:
        raise halt

    # Each cell was read with its column's datatype, so the events conform.
    events = list(map(Event._trusted, zip(
        *(map(values.__getitem__, codes) for _, (values, codes) in columns))))
    # Equal events collapse onto the first row that holds one, with that
    # row's codes.
    return World._encoded_as(EventColumns.ordered(
        events, {decl.index: column for decl, column in columns}))


def world_to_text(world: World, schema: FeatureSchema) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([d.name for d in schema.features])
    for event in world.ordered():
        row = []
        for decl in schema.features:
            v = event.value(decl.index)
            if v.is_null:
                row.append("null")
            elif decl.datatype is Datatype.IDENTIFIER_SET:
                row.append("|".join(sorted(v.raw)))
            else:
                row.append(str(v.raw))
        writer.writerow(row)
    return out.getvalue()


def event_to_object(event: Event, schema: FeatureSchema) -> dict:
    return {decl.name: value_to_json(event.value(decl.index))
            for decl in schema.features}


# ---------------------------------------------------------------------------
# Canonical policy documents
# ---------------------------------------------------------------------------

_OPERATORS = {op.value: op for op in Operator}
_OPERATORS["rdf:type"] = Operator.IS_A
_AND_SEQUENCE = "andSequence is not supported; its evaluation semantics are unspecified"


def _operator(name, where: str) -> Operator:
    if isinstance(name, str):
        bare = name
        if bare.startswith(_ODRL_IRI_PREFIX):
            bare = bare[len(_ODRL_IRI_PREFIX):]
        elif bare.startswith("odrl:"):
            bare = bare[len("odrl:"):]
        if bare == "andSequence":
            raise DocumentError("unsupported-operator", _AND_SEQUENCE, where)
        if bare in _OPERATORS:
            return _OPERATORS[bare]
    raise DocumentError("unsupported-operator", f"unknown operator {quoted(name)}", where)


def _feature(schema: FeatureSchema, name, where: str) -> FeatureDecl:
    if isinstance(name, str):
        try:
            return schema.by_name(name)
        except KeyError:
            pass
    raise DocumentError(
        "unknown-left-operand", f"{quoted(name)} is not a declared feature", where)


def _name(raw, where: str) -> str:
    if isinstance(raw, str):
        return raw
    raise DocumentError("bad-format", f"expected an identifier, got {quoted(raw)}", where)


def _set_operand(raw, op: Operator, member, where: str) -> Value:
    """The operand of a set or class operator, each member read by
    ``member``: a list is a set constant, and a single member an identifier,
    lifted to a singleton set for isAnyOf and isNoneOf."""
    if isinstance(raw, list):
        return Value.identifier_set([member(m, where) for m in raw])
    if op in MEMBERSHIP_OPERATORS:
        return Value.identifier_set([member(raw, where)])
    return Value.identifier(member(raw, where))


def _leaf(decl: FeatureDecl, op: Operator, value: Value, where: str) -> SimpleCondition:
    """The comparison ``<decl, op, value>``; a constant the operator cannot
    take is an ``unsupported-operator`` error at the condition's place."""
    try:
        return SimpleCondition(decl.index, op, value)
    except ModelInvariantError as exc:
        raise DocumentError("unsupported-operator", str(exc), where) from None


def parse_condition(obj, schema: FeatureSchema, where: str) -> Condition:
    if not isinstance(obj, dict):
        raise DocumentError("bad-format", "condition must be an object", where)
    if "feature" in obj:
        _require_keys(obj, ("feature", "op", "value"), where)
        decl = _feature(schema, obj.get("feature"), where)
        op = _operator(obj.get("op"), where)
        if op in SCALAR_OPERATORS:
            value = parse_value(obj.get("value"), decl.datatype, where)
        else:
            value = _set_operand(obj.get("value"), op, _name, where)
        return _leaf(decl, op, value, where)
    if "and" in obj:
        _require_keys(obj, ("and",), where)
        return And(tuple(parse_condition(p, schema, where)
                         for p in _condition_list(obj["and"], where)))
    if "or" in obj:
        _require_keys(obj, ("or",), where)
        return Or(tuple(parse_condition(p, schema, where)
                        for p in _condition_list(obj["or"], where)))
    if "not" in obj:
        _require_keys(obj, ("not",), where)
        return Not(parse_condition(obj["not"], schema, where))
    if "xor" in obj:
        _require_keys(obj, ("xor",), where)
        parts = _condition_list(obj["xor"], where)
        if len(parts) != 2:
            raise DocumentError("bad-format", "xor takes exactly two operands", where)
        return Xor(parse_condition(parts[0], schema, where),
                   parse_condition(parts[1], schema, where))
    if "const" in obj:
        _require_keys(obj, ("const",), where)
        if not isinstance(obj["const"], bool):
            raise DocumentError("bad-format", "const must be a JSON boolean", where)
        return Constant(obj["const"])
    raise DocumentError("bad-format", f"unrecognized condition object {quoted(obj)}", where)


def _condition_list(raw, where: str) -> list:
    if not isinstance(raw, list) or not raw:
        raise DocumentError(
            "bad-format", "boolean combinator needs a nonempty list", where)
    return raw


_JSON_KEYS = {And: "and", Or: "or", Xor: "xor"}


def condition_to_json(c: Condition, schema: FeatureSchema):
    if isinstance(c, SimpleCondition):
        decl = schema.declaration(c.feature)
        return {"feature": decl.name, "op": c.op.value,
                "value": value_to_json(c.value)}
    key = _JSON_KEYS.get(type(c))
    if key is not None:
        return {key: [condition_to_json(p, schema) for p in c.parts]}
    if isinstance(c, Not):
        return {"not": condition_to_json(c.parts[0], schema)}
    if isinstance(c, Constant):
        return {"const": c.truth}
    raise AssertionError(f"unknown condition node {quoted(c)}")


def _parse_canonical_rule(obj, schema, where: str) -> EventRule:
    if not isinstance(obj, dict):
        raise DocumentError("bad-format", "rule must be an object", where)
    _require_keys(obj, ("label", "conditions"), where)
    conditions = obj.get("conditions")
    if not isinstance(conditions, list):
        raise DocumentError("bad-format", "conditions must be a list", where)
    parsed = [parse_condition(c, schema, f"{where}, condition {i}")
              for i, c in enumerate(conditions)]
    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise DocumentError("bad-format", "label must be a string", where)
    return EventRule(frozenset(parsed), label=label)


def rule_to_json(rule: EventRule, schema: FeatureSchema, label: str) -> dict:
    return {
        "label": label,
        "conditions": [condition_to_json(c, schema)
                       for c in rule.ordered_conditions()],
    }


def _parse_canonical(doc: dict, schema: FeatureSchema) -> Policy:
    allowed = ("format", "kind", "permissions", "prohibitions", "obligations",
               *(pairing.key for pairing in PAIRINGS))
    _require_keys(doc, allowed, "policy document")
    kind = doc.get("kind", "lite")
    if kind not in ("lite", "full"):
        raise DocumentError("bad-format", f"must be 'lite' or 'full', not {quoted(kind)}",
                            "kind")

    def rules(key: str) -> list:
        raw = doc.get(key, [])
        if not isinstance(raw, list):
            raise DocumentError("bad-format", "must be a list of rules", key)
        return [_parse_canonical_rule(o, schema, f"{key}[{i}]")
                for i, o in enumerate(raw)]

    permissions = rules("permissions")
    lite = LitePolicy.of(permissions, rules("prohibitions"), rules("obligations"))

    if kind == "lite":
        for pairing in PAIRINGS:
            if doc.get(pairing.key):
                raise DocumentError(
                    "bad-format", "lite policies cannot carry this key", pairing.key)
        return lite

    by_label: dict = {}
    for r in permissions:
        if r.label is not None:
            by_label.setdefault(r.label, []).append(r)

    def member(pairing, j: int, raw, where: str) -> EventRule:
        """A lead is an inline rule; any other member names one permission."""
        if pairing.is_lead(j):
            return _parse_canonical_rule(raw, schema, where)
        if isinstance(raw, (list, dict)):
            raise DocumentError(
                "bad-format",
                f"{pairing.members[j]} must name a permission by its label", where)
        hits = by_label.get(raw, [])
        if len(hits) != 1:
            raise DocumentError(
                "dangling-duty", f"{quoted(raw)} must name exactly one permission", where)
        return hits[0]

    pairs = {}
    for pairing in PAIRINGS:
        entries = doc.get(pairing.key, [])
        if not isinstance(entries, list):
            raise DocumentError(
                "bad-format", "must be a list of objects", pairing.key)
        pairs[pairing.field] = []
        for i, obj in enumerate(entries):
            where = f"{pairing.key}[{i}]"
            if not isinstance(obj, dict):
                raise DocumentError("bad-format", "entry must be an object", where)
            _require_keys(obj, pairing.members, where)
            pairs[pairing.field].append(tuple(
                member(pairing, j, obj.get(m), where)
                for j, m in enumerate(pairing.members)))
    return FullPolicy(lite, **pairs)


def _assign_labels(rules, prefix: str, taken: set) -> dict:
    """rule -> unique emitted label, preserving declared labels."""
    out = {}
    counter = 1
    for rule in ordered_rules(rules):
        label = rule.label
        if label is None or label in taken:
            while f"{prefix}{counter}" in taken:
                counter += 1
            label = f"{prefix}{counter}"
        taken.add(label)
        out[rule] = label
    return out


def policy_to_document(policy: Policy, schema: FeatureSchema) -> dict:
    lite = policy.lite if isinstance(policy, FullPolicy) else policy
    taken: set = set()
    p_labels = _assign_labels(lite.permissions, "p", taken)
    f_labels = _assign_labels(lite.prohibitions, "f", taken)
    o_labels = _assign_labels(lite.obligations, "o", taken)

    doc = {
        "format": POLICY_FORMAT,
        "kind": "full" if isinstance(policy, FullPolicy) else "lite",
        "permissions": [rule_to_json(r, schema, p_labels[r])
                        for r in ordered_rules(lite.permissions)],
        "prohibitions": [rule_to_json(r, schema, f_labels[r])
                         for r in ordered_rules(lite.prohibitions)],
        "obligations": [rule_to_json(r, schema, o_labels[r])
                        for r in ordered_rules(lite.obligations)],
    }
    if isinstance(policy, FullPolicy):
        # Members are written by label, a lead inline; entries sort by the
        # labels, and a lead by its rendering.
        for pairing in PAIRINGS:
            entries = sorted(getattr(policy, pairing.field), key=lambda t: tuple(
                r.render() if pairing.is_lead(j) else p_labels[r]
                for j, r in enumerate(t)))
            doc[pairing.key] = [
                {m: rule_to_json(r, schema, r.label or f"{pairing.fallback}-{i + 1}")
                 if pairing.is_lead(j) else p_labels[r]
                 for j, (m, r) in enumerate(zip(pairing.members, t))}
                for i, t in enumerate(entries)]
    return doc


# ---------------------------------------------------------------------------
# ODRL JSON-LD profile
# ---------------------------------------------------------------------------

_ODRL_POLICY_KEYS = ("@context", "@type", "uid", "profile", "assigner",
                     "assignee", "permission", "prohibition", "obligation")
_ODRL_RULE_BASE_KEYS = ("uid", "action", "target", "assignee", "assigner",
                        "constraint")
_ODRL_TYPES = ("Set", "Policy", "Agreement", "Offer", "Request", "Privacy")


def _odrl_id(raw, where: str) -> str:
    """A plain name or an ``{"@id": name}`` node."""
    if isinstance(raw, dict) and isinstance(raw.get("@id"), str):
        return raw["@id"]
    return _name(raw, where)


def _as_list(raw) -> list:
    if raw is None:
        return []
    return raw if isinstance(raw, list) else [raw]


def _odrl_right_operand(raw, decl: FeatureDecl, op: Operator, where: str) -> Value:
    if isinstance(raw, dict):
        if "@value" in raw:
            raw = raw["@value"]
        elif "@id" in raw:
            raw = raw["@id"]
    if op not in SCALAR_OPERATORS:
        return _set_operand(raw, op, _odrl_id, where)
    if isinstance(raw, list):
        raise DocumentError(
            "unparsable-value", "list right operand with scalar operator", where)
    return parse_value(raw, decl.datatype, where)


def _odrl_constraint(obj, schema, gamma, where: str) -> Condition:
    """One ODRL constraint object: a comparison leaf or a logical wrapper."""
    if not isinstance(obj, dict):
        raise DocumentError("bad-format", "constraint must be an object", where)
    logical = [k for k in ("and", "or", "xone", "andSequence") if k in obj]
    if logical:
        if len(obj) != 1:
            raise DocumentError(
                "bad-format", "logical constraints carry exactly one key", where)
        key = logical[0]
        if key == "andSequence":
            raise DocumentError("unsupported-operator", _AND_SEQUENCE, where)
        operands = obj[key]
        if isinstance(operands, dict) and "@list" in operands:
            operands = operands["@list"]
        operands = _as_list(operands)
        parts = [_odrl_constraint(o, schema, gamma, f"{where}.{key}[{i}]")
                 for i, o in enumerate(operands)]
        if key == "and":
            return And(tuple(parts))
        if key == "or":
            return Or(tuple(parts))
        if len(parts) != 2:
            raise DocumentError(
                "unsupported-operator", "xone is only supported with exactly two "
                "operands, where it coincides with exclusive or", where)
        return Xor(parts[0], parts[1])

    _require_keys(obj, ("leftOperand", "operator", "rightOperand", "uid"), where)
    decl = _feature(schema, _odrl_id(obj.get("leftOperand"), where), where)
    if decl.gamma != gamma:
        raise DocumentError(
            "unknown-left-operand", f"left operand {quoted(decl.name)} does not belong "
            f"to this placement (component mismatch)", where)
    op = _operator(obj.get("operator"), where)
    value = _odrl_right_operand(obj.get("rightOperand"), decl, op, where)
    return _leaf(decl, op, value, where)


def _single_core_feature(schema, tag: ComponentTag, party_role, where: str):
    hits = [d for d in schema.features
            if d.component is tag and (party_role is None
                                       or d.party_role == party_role)]
    if len(hits) != 1:
        role = party_role or tag.value
        raise DocumentError(
            "unknown-left-operand", f"the schema must declare exactly one {role} "
            f"feature to ingest this element; found {len(hits)}", where)
    return hits[0]


def _odrl_component(raw, schema, tag, party_role, where: str):
    """Value + refinements of one rule component (action/target/party)."""
    conditions = []
    refinements = []
    if isinstance(raw, dict) and ("refinement" in raw or "rdf:value" in raw
                                  or "value" in raw or "source" in raw):
        allowed = ("@id", "@type", "rdf:value", "value", "source", "refinement")
        _require_keys(raw, allowed, where)
        inner = raw.get("rdf:value", raw.get("value", raw.get("source",
                                                              raw.get("@id"))))
        ident = _odrl_id(inner, where)
        refinements = _as_list(raw.get("refinement"))
    else:
        ident = _odrl_id(raw, where)
    decl = _single_core_feature(schema, tag, party_role, where)
    conditions.append(_leaf(decl, Operator.EQ, Value.identifier(ident), where))
    for i, ref in enumerate(refinements):
        conditions.append(_odrl_constraint(
            ref, schema, decl.index, f"{where}.refinement[{i}]"))
    return conditions


def _odrl_rule(obj, schema, policy_parties, label: str, where: str,
               extra_keys=()) -> EventRule:
    if not isinstance(obj, dict):
        raise DocumentError("bad-format", "rule must be an object", where)
    _require_keys(obj, _ODRL_RULE_BASE_KEYS + tuple(extra_keys), where)
    conditions = []
    if "action" not in obj:
        raise DocumentError(
            "ill-formed-rule", "every rule must define its action", where)
    acts = _as_list(obj["action"])
    if len(acts) != 1:
        raise DocumentError(
            "unsupported-operator", "this profile takes exactly one action per rule",
            where)
    conditions += _odrl_component(
        acts[0], schema, ComponentTag.ACTION, None, f"{where}.action")
    if "target" in obj:
        conditions += _odrl_component(
            obj["target"], schema, ComponentTag.ASSET, None, f"{where}.target")
    for key, role in (("assignee", "assignee"), ("assigner", "assigner")):
        raw = obj.get(key, policy_parties.get(key))
        if raw is not None:
            conditions += _odrl_component(
                raw, schema, ComponentTag.PARTY, role, f"{where}.{key}")
    for i, con in enumerate(_as_list(obj.get("constraint"))):
        conditions.append(_odrl_constraint(
            con, schema, RULE_WIDE, f"{where}.constraint[{i}]"))
    uid = obj.get("uid", label)
    return EventRule(frozenset(conditions),
                     label=None if uid is None else _odrl_id(uid, f"{where}.uid"))


def _parse_odrl(doc: dict, schema: FeatureSchema) -> Policy:
    context = doc.get("@context")
    contexts = context if isinstance(context, list) else [context]
    if ODRL_CONTEXT not in contexts:
        raise DocumentError(
            "bad-format",
            f"ODRL documents must use the standard context {quoted(ODRL_CONTEXT)} "
            f"(no remote context fetching is performed)")
    _require_keys(doc, _ODRL_POLICY_KEYS, "policy")
    ptype = doc.get("@type", "Set")
    if ptype not in _ODRL_TYPES:
        raise DocumentError("bad-format", f"unsupported policy type {quoted(ptype)}", "@type")
    policy_parties = {k: doc[k] for k in ("assignee", "assigner") if k in doc}

    lite = {"permissions": [], "prohibitions": [], "obligations": []}
    pairs = {pairing.field: [] for pairing in PAIRINGS}

    def ingest_sub(owner_where, sub_obj, idx, kind: str, extra_keys=()):
        sub_where = f"{owner_where}.{kind}[{idx}]"
        return _odrl_rule(sub_obj, schema, policy_parties, sub_where, sub_where,
                          extra_keys=extra_keys)

    for i, obj in enumerate(_as_list(doc.get("permission"))):
        where = f"permission[{i}]"
        rule = _odrl_rule(obj, schema, policy_parties, f"permission-{i + 1}",
                          where, extra_keys=("duty",))
        lite["permissions"].append(rule)
        for j, duty_obj in enumerate(_as_list(obj.get("duty"))):
            duty = ingest_sub(where, duty_obj, j, "duty",
                              extra_keys=("consequence",))
            consequences = _as_list(duty_obj.get("consequence")) \
                if isinstance(duty_obj, dict) else []
            if consequences:
                for k, con_obj in enumerate(consequences):
                    consequence = ingest_sub(f"{where}.duty[{j}]",
                                             con_obj, k, "consequence")
                    pairs["duty_consequence_triples"].append((rule, duty, consequence))
            else:
                pairs["duty_pairs"].append((rule, duty))

    # A prohibition with remedies, or an obligation with consequences, is
    # the lead of its pairings and sits outside the lite rule sets.
    for pairing in PAIRINGS:
        if pairing.lead is None:
            continue
        kind, sub = pairing.members
        for i, obj in enumerate(_as_list(doc.get(kind))):
            where = f"{kind}[{i}]"
            rule = _odrl_rule(obj, schema, policy_parties, f"{kind}-{i + 1}",
                              where, extra_keys=(sub,))
            sub_objs = _as_list(obj.get(sub))
            for j, sub_obj in enumerate(sub_objs):
                pairs[pairing.field].append((rule, ingest_sub(where, sub_obj, j, sub)))
            if not sub_objs:
                lite[pairing.lead].append(rule)

    permission_set = frozenset(lite["permissions"])
    for pairing in PAIRINGS:
        for t in pairs[pairing.field]:
            for j, (m, r) in enumerate(zip(pairing.members, t)):
                if not pairing.is_lead(j) and r not in permission_set:
                    raise DocumentError(
                        "dangling-duty",
                        f"{m} {r.display_label(schema)} of {pairing.members[0]} "
                        f"{t[0].display_label(schema)} is not itself listed as a "
                        f"permission; duties, remedies and consequences must "
                        f"explicitly be permitted")

    if any(pairs.values()):
        return FullPolicy(LitePolicy.of(**lite), **pairs)
    return LitePolicy.of(**lite)


# ---------------------------------------------------------------------------
# Entry points and reports
# ---------------------------------------------------------------------------

def parse_policy_document(doc: dict, schema: FeatureSchema, *,
                          enforce_well_formed: bool = True) -> Policy:
    """Parse a canonical or ODRL-profile policy document.

    Rule well-formedness is enforced post-parse unless the caller only wants
    to inspect the rules (the ``check`` subcommand reports instead of
    rejecting).
    """
    if not isinstance(doc, dict):
        raise DocumentError("bad-format", "policy documents must be JSON objects")
    depth, level = 0, [doc]
    while level:
        depth += 1
        level = [child for node in level
                 for child in (node.values() if isinstance(node, dict) else node)
                 if isinstance(child, (dict, list))]
    if depth > MAX_NESTING_DEPTH:
        raise DocumentError(
            "bad-format", f"policy document nests {depth} levels of arrays and "
                          f"objects; at most {MAX_NESTING_DEPTH} are accepted")
    if doc.get("format") == POLICY_FORMAT:
        policy = _parse_canonical(doc, schema)
    elif "@context" in doc:
        policy = _parse_odrl(doc, schema)
    else:
        raise DocumentError(
            "bad-format",
            f"policy documents carry either format={quoted(POLICY_FORMAT)} or an "
            f"ODRL @context")
    if enforce_well_formed:
        try:
            require_well_formed(policy.all_rules(), schema)
        except IllFormedRuleError as exc:
            raise DocumentError("ill-formed-rule", str(exc)) from None
    return policy


def report_to_document(report: ViolationReport, schema: FeatureSchema) -> dict:
    def finding(f: Finding) -> dict:
        return {
            "clause": f.clause.value,
            "rules": list(f.rules),
            "witnesses": [event_to_object(e, schema) for e in f.witnesses],
            "missing": f.missing,
        }
    return {
        "format": REPORT_FORMAT,
        "valid": report.valid,
        "findings": [finding(f) for f in report.findings],
    }


def verdict_to_document(verdict: ConflictVerdict, schema: FeatureSchema) -> dict:
    witness = None
    if verdict.witness is not None:
        witness = [event_to_object(e, schema) for e in verdict.witness.ordered()]
    return {
        "format": VERDICT_FORMAT,
        "conflict": verdict.conflict,
        "kind": verdict.kind,
        "cause": verdict.cause,
        "failingDirections": list(verdict.failing_directions),
        "witness": witness,
        "detail": verdict.detail,
    }

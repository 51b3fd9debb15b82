"""Serialization and parsing: schema, world, vocabulary and policy documents.

Two policy formats are accepted. The canonical native format is a plain JSON
rendering of the in-memory types with explicit feature names; it round-trips
exactly. The ODRL ingestion format is a fixed profile of the W3C JSON-LD
serialization: compacted form, the standard context string, no remote
context fetching, no general JSON-LD expansion. Documents outside the
profile are rejected with a precise diagnostic rather than half-read.

World logs are delimiter-separated text: a header row of feature names, one
row per event, the literal token ``null`` for unspecified values, and ``|``
between the members of a set value. Timestamps may be integer ticks or
ISO-8601 strings (converted to epoch seconds, UTC assumed when naive).
"""

from __future__ import annotations

import csv
import io
import math
from datetime import datetime, timezone

from .errors import DocumentError
from .evaluation import Finding, ViolationReport
from .comparison import ConflictVerdict
from .matching import check_well_formed
from .model import (
    ActionVocabulary,
    And,
    ComponentTag,
    Condition,
    Constant,
    Datatype,
    Event,
    EventRule,
    FeatureDecl,
    FeatureSchema,
    FullPolicy,
    LitePolicy,
    Not,
    NULL,
    Operator,
    Or,
    Policy,
    SimpleCondition,
    Value,
    World,
    Xor,
    ordered_rules,
    validate_schema,
)

SCHEMA_FORMAT = "feature-schema/1"
VOCABULARY_FORMAT = "action-vocabulary/1"
POLICY_FORMAT = "policy/1"
REPORT_FORMAT = "violation-report/1"
VERDICT_FORMAT = "conflict-verdict/1"

ODRL_CONTEXT = "http://www.w3.org/ns/odrl.jsonld"
_ODRL_IRI_PREFIX = "http://www.w3.org/ns/odrl/2/"


def _require_keys(obj: dict, allowed, where: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise DocumentError(
            "unknown-field",
            f"unknown field(s) {unknown} in {where}; this profile rejects "
            f"fields it does not understand",
            location=where)


# ---------------------------------------------------------------------------
# Schema documents
# ---------------------------------------------------------------------------

_DATATYPES = {d.value: d for d in Datatype}
_COMPONENTS = {t.value: t for t in ComponentTag}


def parse_schema_document(doc: dict) -> FeatureSchema:
    if not isinstance(doc, dict) or doc.get("format") != SCHEMA_FORMAT:
        raise DocumentError(
            "bad-format", f"schema documents must carry format={SCHEMA_FORMAT!r}")
    _require_keys(doc, ("format", "features"), "schema document")
    raw_features = doc.get("features")
    if not isinstance(raw_features, list):
        raise DocumentError("bad-format", "schema features must be a list")

    names = {}
    for pos, obj in enumerate(raw_features):
        if not isinstance(obj, dict) or not isinstance(obj.get("name"), str):
            raise DocumentError("bad-format", f"feature {pos} needs a name")
        names[obj["name"]] = pos

    decls = []
    for pos, obj in enumerate(raw_features):
        where = f"feature {pos} ({obj.get('name')})"
        _require_keys(
            obj,
            ("index", "name", "datatype", "component", "refines", "partyRole",
             "classes", "classFeature"),
            where)
        dt = _DATATYPES.get(obj.get("datatype"))
        comp = _COMPONENTS.get(obj.get("component"))
        if dt is None or comp is None:
            raise DocumentError(
                "bad-format",
                f"{where}: unknown datatype or component", location=where)
        refines = obj.get("refines")
        if refines is not None:
            if refines not in names:
                raise DocumentError(
                    "bad-format", f"{where}: refines unknown feature {refines!r}",
                    location=where)
            refines = names[refines]
        class_feature = obj.get("classFeature")
        if class_feature is not None:
            if class_feature not in names:
                raise DocumentError(
                    "bad-format",
                    f"{where}: classFeature names unknown feature {class_feature!r}",
                    location=where)
            class_feature = names[class_feature]
        classes = obj.get("classes")
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
    return validate_schema(FeatureSchema(tuple(decls)))


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
            f"vocabulary documents must carry format={VOCABULARY_FORMAT!r}")
    _require_keys(doc, ("format", "includedIn"), "vocabulary document")
    edges = doc.get("includedIn", [])
    if not isinstance(edges, list):
        raise DocumentError("bad-format", "includedIn must be a list of edges")
    parsed = []
    for pos, edge in enumerate(edges):
        if (not isinstance(edge, list) or len(edge) != 2
                or not all(isinstance(x, str) for x in edge)):
            raise DocumentError(
                "bad-format",
                f"edge {pos} must be a [child, parent] pair of action names",
                location=f"includedIn[{pos}]")
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
        raise DocumentError("unparsable-value", f"{where}: boolean timestamp")
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
                "unparsable-value",
                f"{where}: {text!r} is neither integer ticks nor ISO-8601",
                location=where) from exc
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return int(dt.timestamp())
    raise DocumentError(
        "unparsable-value", f"{where}: cannot read timestamp from {raw!r}",
        location=where)


def parse_value(raw, datatype: Datatype, where: str) -> Value:
    """JSON payload (or DSV cell already split) to a typed value."""
    if datatype is Datatype.TIMESTAMP:
        return Value.timestamp(_timestamp_ticks(raw, where))
    if datatype is Datatype.NUMERIC:
        if isinstance(raw, bool):
            raise DocumentError("unparsable-value", f"{where}: boolean number")
        if isinstance(raw, str):
            try:
                raw = int(raw)
            except ValueError:
                try:
                    raw = float(raw)
                except ValueError as exc:
                    raise DocumentError(
                        "unparsable-value", f"{where}: {raw!r} is not numeric",
                        location=where) from exc
        if isinstance(raw, int) or isinstance(raw, float) and math.isfinite(raw):
            return Value.number(raw)
    if datatype is Datatype.STRING and isinstance(raw, str):
        return Value.text(raw)
    if datatype is Datatype.IDENTIFIER and isinstance(raw, str):
        return Value.identifier(raw)
    if datatype is Datatype.IDENTIFIER_SET:
        if isinstance(raw, list) and all(isinstance(m, str) for m in raw):
            return Value.identifier_set(raw)
        if isinstance(raw, str):
            members = [m for m in raw.split("|") if m != ""]
            return Value.identifier_set(members)
    raise DocumentError(
        "unparsable-value",
        f"{where}: {raw!r} does not fit datatype {datatype.value}",
        location=where)


def value_to_json(v: Value):
    if v.is_null:
        return None
    if v.kind.value == "identifier-set":
        return sorted(v.raw)
    return v.raw


# ---------------------------------------------------------------------------
# World documents (delimiter-separated text)
# ---------------------------------------------------------------------------

def parse_world_text(text: str, schema: FeatureSchema) -> World:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise DocumentError("header-mismatch", "world log has no header row")
    header = [h.strip() for h in header]
    expected = [d.name for d in schema.features]
    if sorted(header) != sorted(expected) or len(header) != len(expected):
        raise DocumentError(
            "header-mismatch",
            f"header {header} does not bijectively map to schema features "
            f"{expected}")
    order = [header.index(name) for name in expected]

    events = []
    for row_index, row in enumerate(reader):
        if not row or (len(row) == 1 and row[0].strip() == ""):
            continue
        if len(row) != len(expected):
            raise DocumentError(
                "arity-mismatch",
                f"row {row_index}: {len(row)} columns against "
                f"{len(expected)}-feature schema",
                location=f"row {row_index}")
        values = []
        for decl, src in zip(schema.features, order):
            cell = row[src].strip()
            where = f"row {row_index}, column {decl.name}"
            if cell == "null":
                values.append(NULL)
            else:
                values.append(parse_value(cell, decl.datatype, where))
        events.append(Event(tuple(values)))
    return World.of(events, schema)


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


def _operator(name, where: str) -> Operator:
    if isinstance(name, str):
        bare = name
        if bare.startswith(_ODRL_IRI_PREFIX):
            bare = bare[len(_ODRL_IRI_PREFIX):]
        elif bare.startswith("odrl:"):
            bare = bare[len("odrl:"):]
        if bare == "andSequence":
            raise DocumentError(
                "unsupported-operator",
                f"{where}: andSequence is not supported; its evaluation "
                f"semantics are unspecified",
                location=where)
        if bare in _OPERATORS:
            return _OPERATORS[bare]
    raise DocumentError(
        "unsupported-operator", f"{where}: unknown operator {name!r}",
        location=where)


def _feature(schema: FeatureSchema, name, where: str) -> FeatureDecl:
    if isinstance(name, str):
        try:
            return schema.by_name(name)
        except KeyError:
            pass
    raise DocumentError(
        "unknown-left-operand",
        f"{where}: {name!r} is not a declared feature", location=where)


def parse_condition(obj, schema: FeatureSchema, where: str) -> Condition:
    if not isinstance(obj, dict):
        raise DocumentError("bad-format", f"{where}: condition must be an object")
    if "feature" in obj:
        _require_keys(obj, ("feature", "op", "value"), where)
        decl = _feature(schema, obj.get("feature"), where)
        op = _operator(obj.get("op"), where)
        if op in (Operator.HAS_PART, Operator.IS_PART_OF, Operator.IS_ALL_OF,
                  Operator.IS_ANY_OF, Operator.IS_NONE_OF, Operator.IS_A):
            raw = obj.get("value")
            if isinstance(raw, list):
                value = Value.identifier_set(raw)
            elif op is Operator.IS_A and isinstance(raw, str):
                value = Value.identifier(raw)
            elif isinstance(raw, str) and op in (Operator.HAS_PART,
                                                 Operator.IS_PART_OF,
                                                 Operator.IS_ALL_OF):
                value = Value.identifier(raw)
            else:
                value = Value.identifier_set(
                    raw if isinstance(raw, list) else [raw])
        else:
            value = parse_value(obj.get("value"), decl.datatype, where)
        return SimpleCondition(decl.index, op, value)
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
            raise DocumentError(
                "bad-format", f"{where}: xor takes exactly two operands")
        return Xor(parse_condition(parts[0], schema, where),
                   parse_condition(parts[1], schema, where))
    if "const" in obj:
        _require_keys(obj, ("const",), where)
        return Constant(bool(obj["const"]))
    raise DocumentError(
        "bad-format", f"{where}: unrecognized condition object {obj!r}")


def _condition_list(raw, where: str) -> list:
    if not isinstance(raw, list) or not raw:
        raise DocumentError(
            "bad-format", f"{where}: boolean combinator needs a nonempty list")
    return raw


def condition_to_json(c: Condition, schema: FeatureSchema):
    if isinstance(c, SimpleCondition):
        decl = schema.declaration(c.feature)
        return {"feature": decl.name, "op": c.op.value,
                "value": value_to_json(c.value)}
    if isinstance(c, And):
        return {"and": [condition_to_json(p, schema) for p in c.parts]}
    if isinstance(c, Or):
        return {"or": [condition_to_json(p, schema) for p in c.parts]}
    if isinstance(c, Not):
        return {"not": condition_to_json(c.part, schema)}
    if isinstance(c, Xor):
        return {"xor": [condition_to_json(c.left, schema),
                        condition_to_json(c.right, schema)]}
    if isinstance(c, Constant):
        return {"const": c.truth}
    raise AssertionError(f"unknown condition node {c!r}")


def _parse_canonical_rule(obj, schema, where: str) -> EventRule:
    if not isinstance(obj, dict):
        raise DocumentError("bad-format", f"{where}: rule must be an object")
    _require_keys(obj, ("label", "conditions"), where)
    conditions = obj.get("conditions")
    if not isinstance(conditions, list):
        raise DocumentError("bad-format", f"{where}: conditions must be a list")
    parsed = [parse_condition(c, schema, f"{where}, condition {i}")
              for i, c in enumerate(conditions)]
    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise DocumentError("bad-format", f"{where}: label must be a string")
    return EventRule(frozenset(parsed), label=label)


def rule_to_json(rule: EventRule, schema: FeatureSchema, label: str) -> dict:
    return {
        "label": label,
        "conditions": [condition_to_json(c, schema)
                       for c in rule.ordered_conditions()],
    }


def _parse_canonical(doc: dict, schema: FeatureSchema) -> Policy:
    allowed = ("format", "kind", "permissions", "prohibitions", "obligations",
               "dutyPairs", "dutyConsequenceTriples", "remedyPairs",
               "obligationConsequencePairs")
    _require_keys(doc, allowed, "policy document")
    kind = doc.get("kind", "lite")
    if kind not in ("lite", "full"):
        raise DocumentError("bad-format", f"unknown policy kind {kind!r}")

    def rules(key: str) -> list:
        raw = doc.get(key, [])
        if not isinstance(raw, list):
            raise DocumentError("bad-format", f"{key} must be a list of rules")
        return [_parse_canonical_rule(o, schema, f"{key}[{i}]")
                for i, o in enumerate(raw)]

    permissions = rules("permissions")
    prohibitions = rules("prohibitions")
    obligations = rules("obligations")
    lite = LitePolicy.of(permissions, prohibitions, obligations)

    if kind == "lite":
        for key in ("dutyPairs", "dutyConsequenceTriples", "remedyPairs",
                    "obligationConsequencePairs"):
            if doc.get(key):
                raise DocumentError(
                    "bad-format", f"lite policies cannot carry {key}")
        return lite

    by_label: dict = {}
    for r in permissions:
        if r.label is not None:
            by_label.setdefault(r.label, []).append(r)

    def permission_ref(label, where: str) -> EventRule:
        hits = by_label.get(label, [])
        if len(hits) != 1:
            raise DocumentError(
                "dangling-duty",
                f"{where}: {label!r} must name exactly one permission",
                location=where)
        return hits[0]

    duty_pairs = []
    for i, obj in enumerate(doc.get("dutyPairs", [])):
        where = f"dutyPairs[{i}]"
        _require_keys(obj, ("permission", "duty"), where)
        duty_pairs.append((permission_ref(obj.get("permission"), where),
                           permission_ref(obj.get("duty"), where)))
    triples = []
    for i, obj in enumerate(doc.get("dutyConsequenceTriples", [])):
        where = f"dutyConsequenceTriples[{i}]"
        _require_keys(obj, ("permission", "duty", "consequence"), where)
        triples.append((permission_ref(obj.get("permission"), where),
                        permission_ref(obj.get("duty"), where),
                        permission_ref(obj.get("consequence"), where)))
    remedies = []
    for i, obj in enumerate(doc.get("remedyPairs", [])):
        where = f"remedyPairs[{i}]"
        _require_keys(obj, ("prohibition", "remedy"), where)
        remedies.append((
            _parse_canonical_rule(obj.get("prohibition"), schema, where),
            permission_ref(obj.get("remedy"), where)))
    oc_pairs = []
    for i, obj in enumerate(doc.get("obligationConsequencePairs", [])):
        where = f"obligationConsequencePairs[{i}]"
        _require_keys(obj, ("obligation", "consequence"), where)
        oc_pairs.append((
            _parse_canonical_rule(obj.get("obligation"), schema, where),
            permission_ref(obj.get("consequence"), where)))

    return FullPolicy.of(lite, duty_pairs, triples, remedies, oc_pairs)


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
        doc["dutyPairs"] = [
            {"permission": p_labels[tau], "duty": p_labels[duty]}
            for tau, duty in sorted(
                policy.duty_pairs, key=lambda pr: (p_labels[pr[0]], p_labels[pr[1]]))]
        doc["dutyConsequenceTriples"] = [
            {"permission": p_labels[a], "duty": p_labels[b],
             "consequence": p_labels[c]}
            for a, b, c in sorted(
                policy.duty_consequence_triples,
                key=lambda tr: tuple(p_labels[r] for r in tr))]
        doc["remedyPairs"] = [
            {"prohibition": rule_to_json(tau, schema,
                                         tau.label or f"remedied-{i + 1}"),
             "remedy": p_labels[remedy]}
            for i, (tau, remedy) in enumerate(sorted(
                policy.remedy_pairs,
                key=lambda pr: (pr[0].render(), p_labels[pr[1]])))]
        doc["obligationConsequencePairs"] = [
            {"obligation": rule_to_json(tau, schema,
                                        tau.label or f"deadline-{i + 1}"),
             "consequence": p_labels[consequence]}
            for i, (tau, consequence) in enumerate(sorted(
                policy.obligation_consequence_pairs,
                key=lambda pr: (pr[0].render(), p_labels[pr[1]])))]
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
    if isinstance(raw, str):
        return raw
    if isinstance(raw, dict) and isinstance(raw.get("@id"), str):
        return raw["@id"]
    raise DocumentError(
        "bad-format", f"{where}: expected an identifier, got {raw!r}",
        location=where)


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
    if op in (Operator.IS_A, Operator.HAS_PART, Operator.IS_PART_OF,
              Operator.IS_ALL_OF, Operator.IS_ANY_OF, Operator.IS_NONE_OF):
        if isinstance(raw, list):
            return Value.identifier_set(
                [_odrl_id(m, where) for m in raw])
        if op is Operator.IS_A:
            return Value.identifier(_odrl_id(raw, where))
        if op in (Operator.IS_ANY_OF, Operator.IS_NONE_OF):
            return Value.identifier_set([_odrl_id(raw, where)])
        return Value.identifier(_odrl_id(raw, where))
    if isinstance(raw, list):
        raise DocumentError(
            "unparsable-value",
            f"{where}: list right operand with scalar operator", location=where)
    return parse_value(raw, decl.datatype, where)


def _odrl_constraint(obj, schema, gamma, where: str) -> Condition:
    """One ODRL constraint object: a comparison leaf or a logical wrapper."""
    if not isinstance(obj, dict):
        raise DocumentError("bad-format", f"{where}: constraint must be an object")
    logical = [k for k in ("and", "or", "xone", "andSequence") if k in obj]
    if logical:
        if len(obj) != 1:
            raise DocumentError(
                "bad-format",
                f"{where}: logical constraints carry exactly one key")
        key = logical[0]
        if key == "andSequence":
            raise DocumentError(
                "unsupported-operator",
                f"{where}: andSequence is not supported; its evaluation "
                f"semantics are unspecified",
                location=where)
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
                "unsupported-operator",
                f"{where}: xone is only supported with exactly two operands, "
                f"where it coincides with exclusive or",
                location=where)
        return Xor(parts[0], parts[1])

    _require_keys(obj, ("leftOperand", "operator", "rightOperand", "uid"), where)
    decl = _feature(schema, _odrl_id(obj.get("leftOperand"), where), where)
    if decl.gamma != gamma:
        raise DocumentError(
            "unknown-left-operand",
            f"{where}: left operand {decl.name!r} does not belong to this "
            f"placement (component mismatch)",
            location=where)
    op = _operator(obj.get("operator"), where)
    value = _odrl_right_operand(obj.get("rightOperand"), decl, op, where)
    return SimpleCondition(decl.index, op, value)


def _single_core_feature(schema, tag: ComponentTag, party_role, where: str):
    hits = [d for d in schema.features
            if d.component is tag and (party_role is None
                                       or d.party_role == party_role)]
    if len(hits) != 1:
        role = party_role or tag.value
        raise DocumentError(
            "unknown-left-operand",
            f"{where}: the schema must declare exactly one {role} feature to "
            f"ingest this element; found {len(hits)}",
            location=where)
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
    conditions.append(
        SimpleCondition(decl.index, Operator.EQ, Value.identifier(ident)))
    for i, ref in enumerate(refinements):
        conditions.append(_odrl_constraint(
            ref, schema, decl.index, f"{where}.refinement[{i}]"))
    return conditions


def _odrl_rule(obj, schema, policy_parties, label: str, where: str,
               extra_keys=()) -> EventRule:
    if not isinstance(obj, dict):
        raise DocumentError("bad-format", f"{where}: rule must be an object")
    _require_keys(obj, _ODRL_RULE_BASE_KEYS + tuple(extra_keys), where)
    conditions = []
    if "action" not in obj:
        raise DocumentError(
            "ill-formed-rule", f"{where}: every rule must define its action",
            location=where)
    acts = _as_list(obj["action"])
    if len(acts) != 1:
        raise DocumentError(
            "unsupported-operator",
            f"{where}: this profile takes exactly one action per rule",
            location=where)
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
        from .model import RULE_WIDE
        conditions.append(_odrl_constraint(
            con, schema, RULE_WIDE, f"{where}.constraint[{i}]"))
    return EventRule(frozenset(conditions), label=obj.get("uid", label))


def _parse_odrl(doc: dict, schema: FeatureSchema) -> Policy:
    context = doc.get("@context")
    contexts = context if isinstance(context, list) else [context]
    if ODRL_CONTEXT not in contexts:
        raise DocumentError(
            "bad-format",
            f"ODRL documents must use the standard context {ODRL_CONTEXT!r} "
            f"(no remote context fetching is performed)")
    _require_keys(doc, _ODRL_POLICY_KEYS, "policy")
    ptype = doc.get("@type", "Set")
    if ptype not in _ODRL_TYPES:
        raise DocumentError("bad-format", f"unsupported policy @type {ptype!r}")
    policy_parties = {k: doc[k] for k in ("assignee", "assigner") if k in doc}

    permissions: list = []
    duty_pairs = []
    triples = []
    remedies = []
    oc_pairs = []
    prohibitions = []
    obligations = []

    def ingest_sub(owner_where, sub_obj, idx, kind: str, extra_keys=()):
        label = sub_obj.get("uid") if isinstance(sub_obj, dict) else None
        sub_where = f"{owner_where}.{kind}[{idx}]"
        return _odrl_rule(sub_obj, schema, policy_parties,
                          label or sub_where, sub_where, extra_keys=extra_keys)

    for i, obj in enumerate(_as_list(doc.get("permission"))):
        where = f"permission[{i}]"
        rule = _odrl_rule(obj, schema, policy_parties, f"permission-{i + 1}",
                          where, extra_keys=("duty",))
        permissions.append(rule)
        for j, duty_obj in enumerate(_as_list(obj.get("duty"))):
            duty = ingest_sub(where, duty_obj, j, "duty",
                              extra_keys=("consequence",))
            consequences = _as_list(duty_obj.get("consequence")) \
                if isinstance(duty_obj, dict) else []
            if consequences:
                for k, con_obj in enumerate(consequences):
                    consequence = ingest_sub(f"{where}.duty[{j}]",
                                             con_obj, k, "consequence")
                    triples.append((rule, duty, consequence))
            else:
                duty_pairs.append((rule, duty))

    for i, obj in enumerate(_as_list(doc.get("prohibition"))):
        where = f"prohibition[{i}]"
        rule = _odrl_rule(obj, schema, policy_parties, f"prohibition-{i + 1}",
                          where, extra_keys=("remedy",))
        remedy_objs = _as_list(obj.get("remedy"))
        if remedy_objs:
            for j, rem_obj in enumerate(remedy_objs):
                remedy = ingest_sub(where, rem_obj, j, "remedy")
                remedies.append((rule, remedy))
        else:
            prohibitions.append(rule)

    for i, obj in enumerate(_as_list(doc.get("obligation"))):
        where = f"obligation[{i}]"
        rule = _odrl_rule(obj, schema, policy_parties, f"obligation-{i + 1}",
                          where, extra_keys=("consequence",))
        con_objs = _as_list(obj.get("consequence"))
        if con_objs:
            for j, con_obj in enumerate(con_objs):
                consequence = ingest_sub(where, con_obj, j, "consequence")
                oc_pairs.append((rule, consequence))
        else:
            obligations.append(rule)

    permission_set = frozenset(permissions)
    for tau, duty in duty_pairs:
        if duty not in permission_set:
            raise DocumentError(
                "dangling-duty",
                f"duty {duty.display_label(schema)} of permission "
                f"{tau.display_label(schema)} is not itself listed as a "
                f"permission; duties must explicitly be permitted")
    for tau, duty, consequence in triples:
        for r, what in ((duty, "duty"), (consequence, "consequence")):
            if r not in permission_set:
                raise DocumentError(
                    "dangling-duty",
                    f"{what} {r.display_label(schema)} of permission "
                    f"{tau.display_label(schema)} is not itself listed as a "
                    f"permission")
    for tau, remedy in remedies:
        if remedy not in permission_set:
            raise DocumentError(
                "dangling-duty",
                f"remedy {remedy.display_label(schema)} is not itself listed "
                f"as a permission")
    for tau, consequence in oc_pairs:
        if consequence not in permission_set:
            raise DocumentError(
                "dangling-duty",
                f"consequence {consequence.display_label(schema)} is not "
                f"itself listed as a permission")

    lite = LitePolicy.of(permissions, prohibitions, obligations)
    if duty_pairs or triples or remedies or oc_pairs:
        return FullPolicy.of(lite, duty_pairs, triples, remedies, oc_pairs)
    return lite


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
    if doc.get("format") == POLICY_FORMAT:
        policy = _parse_canonical(doc, schema)
    elif "@context" in doc:
        policy = _parse_odrl(doc, schema)
    else:
        raise DocumentError(
            "bad-format",
            f"policy documents carry either format={POLICY_FORMAT!r} or an "
            f"ODRL @context")
    if enforce_well_formed:
        rules = (policy.all_rules() if isinstance(policy, FullPolicy)
                 else policy.all_rules())
        for rule in ordered_rules(rules):
            report = check_well_formed(rule, schema)
            if not report.ok:
                raise DocumentError(
                    "ill-formed-rule",
                    "; ".join(v.render() for v in report.violations))
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

"""The package's public names: a change that adds, removes or renames one
edits this list on purpose. Also what the public calls accept, and what the
package may import."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import odrleval

PUBLIC_NAMES = [
    "ACTION_FEATURE", "ActionVocabulary", "And", "Clause", "ComponentTag",
    "Condition", "ConflictVerdict", "Constant", "Datatype", "DocumentError",
    "DomainTooLargeError", "EMPTY_VOCABULARY", "EmittedQuery", "EngineError",
    "Event", "EventRule", "FeatureDecl", "FeatureSchema", "Finding",
    "FullPolicy", "IllFormedRuleError", "InconsistentPolicyError", "LitePolicy",
    "ModelInvariantError", "NULL", "NormalizationError", "Not", "Operator",
    "Or", "PolicyInvariantError", "QueryEmitError", "RULE_WIDE", "SchemaError",
    "SimpleCondition", "TIMESTAMP_FEATURE", "Value", "ValueKind",
    "ViolationReport", "VocabularyError", "WellFormednessReport",
    "WellFormednessViolation", "WitnessDomain", "World",
    "WorldConformanceError", "Xor", "asymmetric_conflict",
    "brute_force_containment", "check_well_formed", "comparison", "conditions",
    "desugar_xor", "emit_full_violation_queries", "emit_violation_queries",
    "errors", "eval_complex", "eval_simple", "evaluate_full", "evaluate_lite",
    "evaluation", "feature_component", "is_consistent", "is_valid", "match",
    "matching", "model", "negate", "normalize", "policyio", "rule_contains",
    "rule_satisfiable", "rules_overlap", "saturate", "saturation",
    "set_contains", "simplify", "softmatch", "sqlgen",
    "strip_deadline_conditions", "symmetric_conflict", "validate_schema",
    "world_insert_sql",
]


def test_public_names_are_pinned():
    assert sorted(odrleval.__all__) == PUBLIC_NAMES


def _full_policy():
    from conftest import make_p1
    return odrleval.FullPolicy.of(odrleval.LitePolicy.of({make_p1()}))


@pytest.mark.parametrize("call, argument", [
    (lambda full, lite, s: odrleval.asymmetric_conflict(lite, full, s), "provider"),
    (lambda full, lite, s: odrleval.symmetric_conflict(full, lite, s), "p"),
    (lambda full, lite, s: odrleval.is_consistent(full, s), "p"),
    (lambda full, lite, s: odrleval.normalize(full, s), "p"),
    (lambda full, lite, s: odrleval.evaluate_lite(full, odrleval.World.of(()), s), "p"),
], ids=["asymmetric_conflict", "symmetric_conflict", "is_consistent", "normalize",
        "evaluate_lite"])
def test_lite_only_calls_refuse_full_policies(schema, call, argument):
    # Without the check these failed with an AttributeError on `.permissions`.
    lite = odrleval.LitePolicy.of()
    with pytest.raises(odrleval.PolicyInvariantError,
                       match=f"^{argument} must be a lite policy, not FullPolicy$"):
        call(_full_policy(), lite, schema)


def test_package_imports_only_the_standard_library():
    # The package is stdlib-only: every absolute import names a module of
    # the standard library; relative imports stay inside the package.
    src = Path(odrleval.__file__).parent
    foreign = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {n}" for n in names
                        if n.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def _template(node, placeholders=True) -> str:
    """A message or location as source text: literal parts kept, each
    placeholder written ``{expression}`` (``str(x)`` read as ``x``), or
    ``{}`` without ``placeholders``."""
    if isinstance(node, ast.Constant):
        return str(node.value)
    if isinstance(node, ast.JoinedStr):
        return "".join(_template(part, placeholders) for part in node.values)
    if isinstance(node, ast.FormattedValue):
        return _template(node.value, placeholders)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "str" and len(node.args) == 1):
        node = node.args[0]
    return "{" + ast.unparse(node) + "}" if placeholders else "{}"


def test_document_errors_do_not_format_their_own_place():
    # DocumentError writes "<location>: " before its message; a call that
    # opens its message with a placeholder and ": ", or repeats its
    # location in it, names its place twice or outside the location field.
    src = Path(odrleval.__file__).parent
    calls, offending = 0, []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "DocumentError"):
                continue
            calls += 1
            args = dict(zip(("kind", "message", "location"), node.args))
            args.update((k.arg, k.value) for k in node.keywords)
            message = args["message"]
            opens_with_place = (
                isinstance(message, ast.JoinedStr) and len(message.values) > 1
                and isinstance(message.values[0], ast.FormattedValue)
                and isinstance(message.values[1], ast.Constant)
                and message.values[1].value.startswith(": "))
            location = args.get("location")
            # a literal location is looked for in the message's literal text
            repeats_location = location is not None and _template(location) in \
                _template(message, not isinstance(location, ast.Constant))
            if opens_with_place or repeats_location:
                offending.append(f"{path.name}:{node.lineno}")
    assert calls > 60
    assert offending == []


def _operator_members(node) -> int:
    """How many ``Operator.X`` members a tuple, list or set display holds."""
    if not isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return 0
    return sum(isinstance(e, ast.Attribute) and isinstance(e.value, ast.Name)
               and e.value.id == "Operator" for e in node.elts)


def test_operator_families_are_declared_once():
    # model names each operator family (ORDER_OPERATORS, SET_OPERATORS, ...);
    # a membership test against an inline display of members spells one out
    # again, where it can drift from the rest.
    src = Path(odrleval.__file__).parent
    offending = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare):
                offending += [f"{path.name}:{node.lineno}"
                              for op, right in zip(node.ops, node.comparators)
                              if isinstance(op, (ast.In, ast.NotIn))
                              and _operator_members(right) >= 2]
    assert offending == []


def test_world_order_has_one_owner():
    # model.EventColumns orders a world and lists its timestamps, and the
    # match table turns a timestamp comparison into a range of bits; any
    # other module asks the table for a timestamp condition instead.
    src = Path(odrleval.__file__).parent
    offending = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            reads_stamps = (
                (isinstance(node, ast.Attribute) and node.attr == "timestamps")
                or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("getattr", "hasattr") and len(node.args) > 1
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value == "timestamps"))
            imports_bisect = (
                (isinstance(node, ast.Import)
                 and any(a.name.split(".")[0] == "bisect" for a in node.names))
                or (isinstance(node, ast.ImportFrom) and node.module == "bisect"))
            if ((reads_stamps and path.stem not in ("model", "matching"))
                    or (imports_bisect and path.stem != "matching")):
                offending.append(f"{path.name}:{node.lineno}")
    assert offending == []


def test_class_test_and_world_view_have_one_owner():
    # conditions.class_condition alone turns a declaration's classes or class
    # feature into an isA's class test (model declares them, policyio reads
    # and writes schema documents); model alone reads a world's encoded view,
    # which any other module takes from conform_world.
    src = Path(odrleval.__file__).parent
    owners = {"classes": ("model", "policyio", "conditions"),
              "class_feature": ("model", "policyio", "conditions"),
              "_encoded": ("model",)}
    offending = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in owners
                    and path.stem not in owners[node.attr]):
                offending.append(f"{path.name}:{node.lineno}")
    assert offending == []


def test_condition_shape_has_one_owner():
    # model alone knows which fields hold a node's operands; every other
    # module reads them as ``parts`` and rebuilds a node with ``with_parts``.
    src = Path(odrleval.__file__).parent
    offending = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "model":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("part", "left", "right"):
                offending.append(f"{path.name}:{node.lineno}")
    assert offending == []


def test_input_literals_are_quoted_by_one_owner():
    # errors.quoted alone shows an input literal in a message, so no other
    # module writes a !r conversion.
    src = Path(odrleval.__file__).parent
    offending = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "errors":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FormattedValue) and node.conversion == ord("r"):
                offending.append(f"{path.name}:{node.lineno}")
    assert offending == []


def test_numeric_bound_has_one_owner():
    # model alone names the largest number, as MAX_NUMBER.
    src = Path(odrleval.__file__).parent
    offending = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "model":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "float_info":
                offending.append(f"{path.name}:{node.lineno}")
    assert offending == []

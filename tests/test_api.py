"""The package's public names: a change that adds, removes or renames one
edits this list on purpose."""

from __future__ import annotations

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

"""Command-line interface.

Structured results go to stdout as a single JSON document; diagnostics go to
stderr. Exit codes are part of the contract: 0 for valid / no conflict, 1
for violation / conflict (or well-formedness failures under ``check``), 2
for any input or validation error, reported as a machine-readable object.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .comparison import asymmetric_conflict, normalize, symmetric_conflict
from .errors import DocumentError, EngineError
from .evaluation import evaluate_full
from .matching import check_well_formed
from .model import FullPolicy, as_full, ordered_rules
from .policyio import (
    parse_policy_document,
    parse_schema_document,
    parse_vocabulary_document,
    parse_world_text,
    policy_to_document,
    report_to_document,
    verdict_to_document,
)
from .saturation import saturate
from .sqlgen import emit_violation_queries


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise DocumentError("io-error", "no such file", path)
    except OSError as exc:
        raise DocumentError("io-error", f"cannot read: {exc.strerror or exc}", path)
    except UnicodeDecodeError as exc:
        raise DocumentError(
            "bad-format", f"not valid UTF-8 (byte offset {exc.start})", path)


def _read_json(path: str):
    text = _read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and an integer literal past the
        # interpreter's digit limit for int conversion
        raise DocumentError("bad-format", f"not valid JSON: {exc}", path)


def _parse(read, path: str, parse, *args, **kwargs):
    """``parse`` of the file at ``path`` as ``read`` gives it. An engine
    error other than a DocumentError, which places itself within the
    document, is located at ``path`` as written on the command line."""
    try:
        return parse(read(path), *args, **kwargs)
    except DocumentError:
        raise
    except EngineError as exc:
        exc.location = path
        raise


def _emit(doc) -> None:
    json.dump(doc, sys.stdout, indent=2, sort_keys=False)
    sys.stdout.write("\n")


def _load_common(args):
    schema = _parse(_read_json, args.schema, parse_schema_document)
    policy = _parse(_read_json, args.policy, parse_policy_document, schema)
    return schema, policy


def _cmd_evaluate(args) -> int:
    schema, policy = _load_common(args)
    world = _parse(_read_text, args.world, parse_world_text, schema)
    if args.vocab:
        vocabulary = _parse(_read_json, args.vocab, parse_vocabulary_document)
        policy = saturate(policy, vocabulary, schema)
    report = evaluate_full(as_full(policy), world, schema)
    _emit(report_to_document(report, schema))
    return 0 if report.valid else 1


def _cmd_compare(args) -> int:
    schema = _parse(_read_json, args.schema, parse_schema_document)
    requester = _parse(_read_json, args.requester, parse_policy_document, schema)
    provider = _parse(_read_json, args.provider, parse_policy_document, schema)
    for name, p in (("requester", requester), ("provider", provider)):
        if isinstance(p, FullPolicy):
            raise DocumentError(
                "bad-format",
                f"the {name} policy carries duty/remedy/consequence elements; "
                f"comparison is defined for lite policies")
    compare = symmetric_conflict if args.mode == "symmetric" else asymmetric_conflict
    verdict = compare(requester, provider, schema, auto_normalize=args.normalize)
    _emit(verdict_to_document(verdict, schema))
    return 1 if verdict.conflict else 0


def _cmd_normalize(args) -> int:
    schema, policy = _load_common(args)
    if isinstance(policy, FullPolicy):
        raise DocumentError(
            "bad-format", "normalization is defined for lite policies")
    _emit(policy_to_document(normalize(policy, schema), schema))
    return 0


def _cmd_saturate(args) -> int:
    schema, policy = _load_common(args)
    vocabulary = _parse(_read_json, args.vocab, parse_vocabulary_document)
    _emit(policy_to_document(saturate(policy, vocabulary, schema), schema))
    return 0


def _cmd_emit_query(args) -> int:
    schema, policy = _load_common(args)
    emitted = emit_violation_queries(policy, schema)
    out_dir = Path(args.out_dir)
    manifest = {"dialect": emitted.dialect, "ddl": "ddl.sql", "queries": {}}
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "ddl.sql").write_text(emitted.ddl, encoding="utf-8")
        for name, sql in emitted.queries:
            filename = f"{name}.sql"
            (out_dir / filename).write_text(sql + "\n", encoding="utf-8")
            manifest["queries"][name] = filename
    except OSError as exc:
        raise DocumentError(
            "io-error", f"cannot write: {exc.strerror or exc}", str(out_dir))
    _emit(manifest)
    return 0


def _cmd_check(args) -> int:
    schema = _parse(_read_json, args.schema, parse_schema_document)
    policy = _parse(_read_json, args.policy, parse_policy_document, schema,
                    enforce_well_formed=False)
    rules = policy.all_rules()
    reports = []
    ok = True
    for rule in ordered_rules(rules):
        report = check_well_formed(rule, schema)
        ok = ok and report.ok
        reports.append({
            "rule": rule.display_label(schema),
            "ok": report.ok,
            "violations": [
                {"item": v.item, "features": list(v.features)}
                for v in report.violations
            ],
        })
    _emit({"format": "well-formedness-report/1", "ok": ok, "rules": reports})
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odrleval",
        description="Evaluate, compare and compile ODRL usage policies.")
    sub = parser.add_subparsers(dest="command", required=True)

    evaluate = sub.add_parser(
        "evaluate", help="evaluate a policy against an event log")
    evaluate.add_argument("--policy", required=True)
    evaluate.add_argument("--world", required=True)
    evaluate.add_argument("--schema", required=True)
    evaluate.add_argument("--vocab", help="action vocabulary for saturation")
    evaluate.add_argument(
        "--full", action="store_true",
        help="accepted for compatibility and has no effect: a lite policy is "
             "evaluated as the full policy with no pairings")
    evaluate.set_defaults(func=_cmd_evaluate)

    compare = sub.add_parser("compare", help="compare two policies for conflicts")
    compare.add_argument("--requester", required=True)
    compare.add_argument("--provider", required=True)
    compare.add_argument("--schema", required=True)
    compare.add_argument("--mode", choices=("symmetric", "asymmetric"),
                         required=True)
    compare.add_argument("--normalize", action="store_true",
                         help="normalize inconsistent inputs before comparing")
    compare.set_defaults(func=_cmd_compare)

    norm = sub.add_parser("normalize", help="rewrite a policy into consistent form")
    norm.add_argument("--policy", required=True)
    norm.add_argument("--schema", required=True)
    norm.set_defaults(func=_cmd_normalize)

    sat = sub.add_parser("saturate", help="materialize vocabulary-implied permissions")
    sat.add_argument("--policy", required=True)
    sat.add_argument("--vocab", required=True)
    sat.add_argument("--schema", required=True)
    sat.set_defaults(func=_cmd_saturate)

    emitq = sub.add_parser("emit-query", help="compile violation clauses to SQL")
    emitq.add_argument("--policy", required=True)
    emitq.add_argument("--schema", required=True)
    emitq.add_argument("--out-dir", required=True)
    emitq.set_defaults(func=_cmd_emit_query)

    check = sub.add_parser("check", help="well-formedness check only")
    check.add_argument("--policy", required=True)
    check.add_argument("--schema", required=True)
    check.set_defaults(func=_cmd_check)

    return parser


_parser = None   # built on the first call to main, then reused


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except EngineError as exc:
        json.dump(exc.as_object(), sys.stderr, indent=2)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The command-line interface: exit codes, output documents, error stream."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from odrleval.cli import main
from conftest import not_chain, under_hash_seeds

DEMO = Path(__file__).resolve().parent.parent / "demo"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_evaluate_demo_violation(capsys):
    code, out, err = run(
        capsys, "evaluate",
        "--policy", str(DEMO / "policy.json"),
        "--world", str(DEMO / "world.csv"),
        "--schema", str(DEMO / "schema.json"))
    assert code == 1
    report = json.loads(out)
    assert report["format"] == "violation-report/1"
    assert report["valid"] is False
    permission_findings = [f for f in report["findings"]
                           if f["clause"] == "permissions"]
    datetimes = sorted(f["witnesses"][0]["Datetime"] for f in permission_findings)
    assert datetimes == [2, 3]
    assert all(f["clause"] == "permissions" for f in report["findings"])


def test_evaluate_exits_zero_on_valid_world(capsys, tmp_path):
    world = tmp_path / "world.csv"
    world.write_text(
        "Datetime,Action,Actor,Asset,Print.Resolution,Book.Pages\n"
        "1,Print,Alice,Picture,500,null\n"
        "2,Read,Bob,Book,null,450\n")
    code, out, _ = run(
        capsys, "evaluate",
        "--policy", str(DEMO / "policy.json"),
        "--world", str(world),
        "--schema", str(DEMO / "schema.json"))
    # the read event satisfies the obligation but matches no permission
    assert code == 1
    world.write_text(
        "Datetime,Action,Actor,Asset,Print.Resolution,Book.Pages\n"
        "1,Print,Alice,Picture,500,null\n")
    code, out, _ = run(
        capsys, "evaluate",
        "--policy", str(DEMO / "policy.json"),
        "--world", str(world),
        "--schema", str(DEMO / "schema.json"))
    # without the obligation-bearing policy the print-only log would pass the
    # permissions clause, but o1 now goes unfulfilled
    assert code == 1
    report = json.loads(out)
    assert [f["clause"] for f in report["findings"]] == ["obligations"]


def test_evaluate_obligation_fulfilled_and_permitted(capsys, tmp_path):
    policy = {
        "format": "policy/1",
        "kind": "lite",
        "permissions": [
            {"label": "p", "conditions": [
                {"feature": "Action", "op": "eq", "value": "Read"},
                {"feature": "Actor", "op": "eq", "value": "Bob"}]},
        ],
        "obligations": [
            {"label": "o", "conditions": [
                {"feature": "Action", "op": "eq", "value": "Read"},
                {"feature": "Actor", "op": "eq", "value": "Bob"},
                {"feature": "Datetime", "op": "lt", "value": 3}]},
        ],
    }
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps(policy))
    world = tmp_path / "w.csv"
    world.write_text(
        "Datetime,Action,Actor,Asset,Print.Resolution,Book.Pages\n"
        "2,Read,Bob,Book,null,450\n")
    code, out, _ = run(
        capsys, "evaluate", "--policy", str(pfile), "--world", str(world),
        "--schema", str(DEMO / "schema.json"))
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_compare_identical_files_no_conflict(capsys):
    code, out, _ = run(
        capsys, "compare",
        "--requester", str(DEMO / "requester.json"),
        "--provider", str(DEMO / "requester.json"),
        "--schema", str(DEMO / "schema.json"),
        "--mode", "asymmetric")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["conflict"] is False


def test_compare_provider_obligation_conflicts(capsys):
    code, out, _ = run(
        capsys, "compare",
        "--requester", str(DEMO / "requester.json"),
        "--provider", str(DEMO / "provider.json"),
        "--schema", str(DEMO / "schema.json"),
        "--mode", "asymmetric")
    assert code == 1
    verdict = json.loads(out)
    assert verdict["conflict"] is True
    assert verdict["cause"] == "obligation-not-agreed"
    assert verdict["witness"] == []


def test_compare_symmetric_mode(capsys):
    code, out, _ = run(
        capsys, "compare",
        "--requester", str(DEMO / "requester.json"),
        "--provider", str(DEMO / "provider.json"),
        "--schema", str(DEMO / "schema.json"),
        "--mode", "symmetric")
    assert code == 1
    verdict = json.loads(out)
    assert verdict["kind"] == "symmetric"
    assert "requester-to-provider" in verdict["failingDirections"]


def test_compare_and_normalize_with_constant_at_float_max(capsys, tmp_path):
    # No probe lies past max float: each call answers instead of exiting 2.
    def lite(path, *conditions):
        path.write_text(json.dumps({
            "format": "policy/1", "kind": "lite",
            "permissions": [{"label": "print", "conditions": list(conditions)}],
            "prohibitions": [], "obligations": []}))
        return str(path)

    print_ = {"feature": "Action", "op": "eq", "value": "print"}
    requester = lite(tmp_path / "r.json", print_, {
        "feature": "Print.Resolution", "op": "lteq", "value": sys.float_info.max})
    provider = lite(tmp_path / "p.json", print_)
    schema = str(DEMO / "schema.json")
    for mode, want in [("symmetric", 1), ("asymmetric", 0)]:
        code, out, err = run(capsys, "compare", "--requester", requester,
                             "--provider", provider, "--schema", schema, "--mode", mode)
        assert (code, err) == (want, ""), err
        assert json.loads(out)["failingDirections"] == (
            ["provider-to-requester"] if want else [])
    code, out, err = run(capsys, "normalize", "--policy", requester, "--schema", schema)
    assert (code, err) == (0, ""), err


def test_normalize_prints_consistent_policy(capsys, tmp_path):
    policy = {
        "format": "policy/1",
        "kind": "lite",
        "permissions": [
            {"label": "p", "conditions": [
                {"feature": "Action", "op": "eq", "value": "Print"},
                {"feature": "Actor", "op": "eq", "value": "Alice"},
                {"feature": "Asset", "op": "eq", "value": "Picture"}]},
        ],
        "prohibitions": [
            {"label": "f", "conditions": [
                {"feature": "Action", "op": "eq", "value": "Print"},
                {"feature": "Actor", "op": "eq", "value": "Alice"},
                {"feature": "Asset", "op": "eq", "value": "Picture"},
                {"feature": "Print.Resolution", "op": "gt", "value": 1000}]},
        ],
    }
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps(policy))
    code, out, _ = run(capsys, "normalize", "--policy", str(pfile),
                       "--schema", str(DEMO / "schema.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["prohibitions"] == []
    (permission,) = doc["permissions"]
    assert {"not": {"feature": "Print.Resolution", "op": "gt", "value": 1000}} \
        in permission["conditions"]


def test_saturate_adds_vocabulary_copies(capsys, tmp_path):
    policy = {
        "format": "policy/1",
        "kind": "lite",
        "permissions": [
            {"label": "use", "conditions": [
                {"feature": "Action", "op": "eq", "value": "Use"}]},
        ],
    }
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps(policy))
    code, out, _ = run(capsys, "saturate", "--policy", str(pfile),
                       "--vocab", str(DEMO / "vocabulary.json"),
                       "--schema", str(DEMO / "schema.json"))
    assert code == 0
    doc = json.loads(out)
    actions = {rule["conditions"][0]["value"] for rule in doc["permissions"]}
    assert actions == {"Use", "Play", "Display", "Reproduce", "Print"}


def test_emit_query_writes_files(capsys, tmp_path):
    out_dir = tmp_path / "queries"
    code, out, _ = run(capsys, "emit-query",
                       "--policy", str(DEMO / "policy.json"),
                       "--schema", str(DEMO / "schema.json"),
                       "--out-dir", str(out_dir))
    assert code == 0
    manifest = json.loads(out)
    assert (out_dir / manifest["ddl"]).exists()
    for clause, filename in manifest["queries"].items():
        assert (out_dir / filename).exists(), clause
    assert set(manifest["queries"]) == {
        "permissions-violation", "prohibitions-violation",
        "obligations-violation"}


def test_emit_query_rejects_integer_outside_64_bits(capsys, tmp_path):
    policy = {
        "format": "policy/1",
        "kind": "lite",
        "prohibitions": [
            {"label": "f", "conditions": [
                {"feature": "Action", "op": "eq", "value": "Read"},
                {"feature": "Actor", "op": "eq", "value": "Bob"},
                {"feature": "Asset", "op": "eq", "value": "Book"},
                {"feature": "Book.Pages", "op": "gt", "value": 2 ** 70}]},
        ],
    }
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps(policy))
    code, out, err = run(capsys, "emit-query", "--policy", str(pfile),
                         "--schema", str(DEMO / "schema.json"),
                         "--out-dir", str(tmp_path / "queries"))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "QueryEmitError"


def test_emit_query_xor_chain_grows_linearly(capsys, tmp_path):
    # Each xor level used to repeat both operands, doubling the query: a
    # 16-deep chain wrote 11.4 MB per query file.
    chain = {"feature": "Datetime", "op": "lteq", "value": 5}
    for k in range(16):
        chain = {"xor": [chain, {"feature": "Datetime", "op": "lteq", "value": k}]}
    policy = json.loads((DEMO / "requester.json").read_text())
    policy["permissions"] = policy["permissions"][:1]
    policy["prohibitions"] = [dict(policy["permissions"][0], label="f")]
    for rule in policy["permissions"] + policy["prohibitions"]:
        rule["conditions"] = rule["conditions"] + [chain]
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps(policy))
    out_dir = tmp_path / "queries"
    code, out, _ = run(capsys, "emit-query", "--policy", str(pfile),
                       "--schema", str(DEMO / "schema.json"),
                       "--out-dir", str(out_dir))
    assert code == 0
    for filename in json.loads(out)["queries"].values():
        assert (out_dir / filename).stat().st_size < 64 * 1024, filename


def test_check_reports_well_formedness(capsys, tmp_path):
    code, out, _ = run(capsys, "check", "--policy", str(DEMO / "policy.json"),
                       "--schema", str(DEMO / "schema.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True

    bad = {
        "format": "policy/1",
        "kind": "lite",
        "permissions": [
            {"label": "x", "conditions": [
                {"feature": "Actor", "op": "eq", "value": "Alice"}]},
        ],
    }
    pfile = tmp_path / "bad.json"
    pfile.write_text(json.dumps(bad))
    code, out, err = run(capsys, "check", "--policy", str(pfile),
                         "--schema", str(DEMO / "schema.json"))
    # check reports instead of rejecting at parse time
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    (entry,) = doc["rules"]
    assert entry["violations"][0]["item"] == 1


def test_parse_error_exits_2_with_error_object(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, "evaluate", "--policy", str(bad),
                         "--world", str(DEMO / "world.csv"),
                         "--schema", str(DEMO / "schema.json"))
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "bad-format"
    assert "message" in error


@pytest.mark.parametrize("key, value, kind", [
    ("classes", 5, "bad-format"),
    ("refines", ["Action"], "bad-format"),
    ("classFeature", ["Tags"], "bad-format"),
    ("index", [4], "SchemaError"),
])
def test_malformed_schema_exits_2_with_error_object(capsys, tmp_path, key, value, kind):
    doc = json.loads((DEMO / "schema.json").read_text())
    doc["features"][4][key] = value
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", "--policy", str(DEMO / "policy.json"),
                         "--schema", str(schema))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == kind


@pytest.mark.parametrize("command", ["check", "evaluate"])
@pytest.mark.parametrize("index", [1.0, True])
def test_schema_index_of_wrong_type_exits_2(capsys, tmp_path, command, index):
    # 1.0 ended in a TypeError traceback and True was read as 1
    doc = json.loads((DEMO / "schema.json").read_text())
    doc["features"][1]["index"] = index
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(doc))
    world = ("--world", str(DEMO / "world.csv")) if command == "evaluate" else ()
    code, out, err = run(capsys, command, "--policy", str(DEMO / "policy.json"),
                         *world, "--schema", str(schema))
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "SchemaError",
        "message": f"{schema}: feature indices must be unique and contiguous; "
                   f"found index {index} at position 1",
        "location": str(schema)}


def test_duplicate_feature_name_exits_2(capsys, tmp_path):
    doc = json.loads((DEMO / "schema.json").read_text())
    doc["features"] += [
        {"index": 6, "name": "X", "datatype": "numeric", "component": "rule"},
        {"index": 7, "name": "X", "datatype": "string", "component": "rule"}]
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(doc))
    world = tmp_path / "world.csv"
    world.write_text("Datetime,Action,Actor,Asset,Print.Resolution,Book.Pages,X,X\n"
                     "1,Print,Alice,Picture,500,null,5,hello\n")
    code, out, err = run(capsys, "evaluate", "--policy", str(DEMO / "policy.json"),
                         "--world", str(world), "--schema", str(schema))
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "SchemaError",
        "message": f"{schema}: feature names must be unique; "
                   "feature 7 repeats the name 'X'",
        "location": str(schema)}


def _index_as_float(docs):
    docs["schema"]["features"][1]["index"] = 1.0


def _party_role_on_asset(docs):
    docs["schema"]["features"][3]["partyRole"] = "assignee"


def _vocabulary_cycle(docs):
    docs["vocab"]["includedIn"].append(["Use", "Display"])


@pytest.mark.parametrize("spoil, bad, error, text", [
    (_index_as_float, "schema", "SchemaError",
     "feature indices must be unique and contiguous; found index 1.0 at position 1"),
    (_party_role_on_asset, "schema", "ModelInvariantError",
     "feature 3 (Asset): party_role on a non-party feature"),
    (_vocabulary_cycle, "vocab", "VocabularyError",
     "cyclic-vocabulary: action 'Display' is included in itself via "
     "Display -> Play -> Use -> Display"),
])
def test_engine_errors_from_a_parse_name_the_input_file(capsys, tmp_path, spoil,
                                                        bad, error, text):
    # These errors have no place inside the document, so the CLI locates
    # them at the file, as its path was written on the command line; a
    # DocumentError places itself and is left as it is.
    docs = {name: json.loads((DEMO / source).read_text()) for name, source in
            (("schema", "schema.json"), ("vocab", "vocabulary.json"),
             ("policy", "requester.json"))}
    spoil(docs)
    paths = {name: tmp_path / f"{name}.json" for name in docs}
    for name, doc in docs.items():
        paths[name].write_text(json.dumps(doc))
    code, out, err = run(capsys, "evaluate", "--policy", str(paths["policy"]),
                         "--world", str(DEMO / "world.csv"),
                         "--schema", str(paths["schema"]), "--vocab", str(paths["vocab"]))
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": error, "message": f"{paths[bad]}: {text}",
                               "location": str(paths[bad])}


@pytest.mark.parametrize("policy, path, value", [
    ("policy.json", ("permission", 0, "uid"), 5),
    ("policy.json", ("prohibition", 0, "uid"), [True]),
    ("requester.json", ("permissions", 0, "conditions", 1),
     {"feature": "Actor", "op": "isAnyOf", "value": {"a": 1}}),
    ("requester.json", ("permissions", 0, "conditions", 1),
     {"feature": "Actor", "op": "isA", "value": [5]}),
    ("requester.json", ("permissions", 0, "conditions", 1), not_chain(600)),
])
@pytest.mark.parametrize("command", ["check", "evaluate", "emit-query"])
def test_malformed_policy_exits_2_with_error_object(capsys, tmp_path, policy, path,
                                                    value, command):
    doc = json.loads((DEMO / policy).read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    pfile = tmp_path / "policy.json"
    pfile.write_text(json.dumps(doc))
    extra = {"check": (), "evaluate": ("--world", str(DEMO / "world.csv")),
             "emit-query": ("--out-dir", str(tmp_path / "out"))}[command]
    code, out, err = run(capsys, command, "--policy", str(pfile),
                         "--schema", str(DEMO / "schema.json"), *extra)
    assert (code, out, json.loads(err)["error"]) == (2, "", "bad-format")


def test_json_nested_past_the_parser_limit_exits_2(capsys, tmp_path):
    pfile = tmp_path / "policy.json"
    pfile.write_text("[" * 5000 + "]" * 5000)
    code, out, err = run(capsys, "check", "--policy", str(pfile),
                         "--schema", str(DEMO / "schema.json"))
    assert (code, out, json.loads(err)["error"]) == (2, "", "bad-format")


@pytest.mark.parametrize("cell", ["nan", "inf", "1e999", "9" * 400])
def test_non_finite_world_value_exits_2_with_error_object(capsys, tmp_path, cell):
    world = tmp_path / "world.csv"
    world.write_text(
        "Datetime,Action,Actor,Asset,Print.Resolution,Book.Pages\n"
        f"1,Print,Alice,Picture,{cell},null\n")
    code, out, err = run(capsys, "evaluate",
                         "--policy", str(DEMO / "policy.json"),
                         "--world", str(world),
                         "--schema", str(DEMO / "schema.json"))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "unparsable-value"


def test_output_does_not_depend_on_hash_seed(tmp_path):
    # Rule conditions and rule sets are frozensets, whose iteration order
    # follows the interpreter's hash seed; no verdict, report or error may.
    # The page counts past 2**53 share one float and once tied in event
    # order; a vocabulary with two cycles once had either one named.
    log = tmp_path / "pages.csv"
    log.write_text("Datetime,Action,Actor,Asset,Print.Resolution,Book.Pages\n" + "".join(
        f"1,Read,Bob,Book,null,{2 ** 53 + k}\n" for k in range(6)))
    cycles = tmp_path / "cycles.json"
    cycles.write_text(json.dumps({"format": "action-vocabulary/1", "includedIn": [
        ["a", "b"], ["b", "c"], ["c", "a"], ["d", "e"], ["e", "d"]]}))
    commands = (
        ["evaluate", "--policy", str(DEMO / "policy.json"), "--world", str(log),
         "--schema", str(DEMO / "schema.json")],
        ["evaluate", "--policy", str(DEMO / "policy.json"),
         "--world", str(DEMO / "world.csv"), "--schema", str(DEMO / "schema.json"),
         "--vocab", str(DEMO / "vocabulary.json")],
        ["compare", "--requester", str(DEMO / "requester.json"),
         "--provider", str(DEMO / "provider.json"),
         "--schema", str(DEMO / "schema.json"), "--mode", "symmetric"],
        ["saturate", "--policy", str(DEMO / "policy.json"), "--vocab", str(cycles),
         "--schema", str(DEMO / "schema.json")],
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    for argv in commands:
        runs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(
                           p for p in (src, os.environ.get("PYTHONPATH")) if p))
            done = subprocess.run(
                [sys.executable, "-m", "odrleval.cli", *argv],
                env=env, capture_output=True, text=True, timeout=120)
            runs.append((done.returncode, done.stdout, done.stderr))
        assert runs[0] == runs[1]
        code, out, err = runs[0]
        if argv[0] == "saturate":
            assert (code, out) == (2, "") and "a -> b -> c -> a" in err
        else:
            assert code in (0, 1) and out and not err


def test_evaluate_with_vocabulary_saturates(capsys, tmp_path):
    policy = {
        "format": "policy/1",
        "kind": "lite",
        "permissions": [
            {"label": "play", "conditions": [
                {"feature": "Action", "op": "eq", "value": "Play"},
                {"feature": "Actor", "op": "eq", "value": "Alice"}]},
        ],
    }
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps(policy))
    world = tmp_path / "w.csv"
    world.write_text(
        "Datetime,Action,Actor,Asset,Print.Resolution,Book.Pages\n"
        "1,Display,Alice,Picture,null,null\n")
    code, out, _ = run(capsys, "evaluate", "--policy", str(pfile),
                       "--world", str(world),
                       "--schema", str(DEMO / "schema.json"))
    assert code == 1
    code, out, _ = run(capsys, "evaluate", "--policy", str(pfile),
                       "--world", str(world),
                       "--schema", str(DEMO / "schema.json"),
                       "--vocab", str(DEMO / "vocabulary.json"))
    assert code == 0


def test_evaluate_full_flag_on_lite_document(capsys, tmp_path):
    world = tmp_path / "w.csv"
    world.write_text(
        "Datetime,Action,Actor,Asset,Print.Resolution,Book.Pages\n"
        "1,Print,Alice,Picture,500,null\n"
        "2,Read,Bob,Book,null,450\n")
    code_plain, out_plain, _ = run(
        capsys, "evaluate", "--policy", str(DEMO / "policy.json"),
        "--world", str(world), "--schema", str(DEMO / "schema.json"))
    code_full, out_full, _ = run(
        capsys, "evaluate", "--policy", str(DEMO / "policy.json"),
        "--world", str(world), "--schema", str(DEMO / "schema.json"), "--full")
    assert code_plain == code_full
    assert json.loads(out_plain)["findings"] == json.loads(out_full)["findings"]


def test_each_event_is_conformed_once(capsys, monkeypatch):
    # parse_world_text reads every cell with its column's datatype, so only
    # evaluate_full checks conformance, once per world.
    from odrleval import evaluation, model
    from odrleval.policyio import parse_schema_document, parse_world_text
    calls = []
    check = model.conform_world
    for module in (model, evaluation):
        monkeypatch.setattr(module, "conform_world",
                            lambda world, schema: calls.append(world) or check(world, schema))
    schema = parse_schema_document(json.loads((DEMO / "schema.json").read_text()))
    world = parse_world_text((DEMO / "world.csv").read_text(), schema)
    assert calls == []
    code, _, _ = run(capsys, "evaluate", "--policy", str(DEMO / "policy.json"),
                     "--world", str(DEMO / "world.csv"),
                     "--schema", str(DEMO / "schema.json"))
    assert code == 1
    assert calls == [world]


def test_each_rule_is_gated_once_per_call(capsys, monkeypatch):
    # The policy parser, saturate and evaluate_full each gate their rules;
    # the schema keeps each verdict, so every distinct rule is checked once.
    from collections import Counter
    from odrleval import matching
    calls = []
    check = matching.check_well_formed
    monkeypatch.setattr(matching, "check_well_formed",
                        lambda rule, schema: calls.append(rule) or check(rule, schema))
    golden = Path(__file__).resolve().parent / "golden"
    code, _, _ = run(capsys, "evaluate", "--policy", str(golden / "full-policy.json"),
                     "--world", str(golden / "full-world.csv"),
                     "--schema", str(DEMO / "schema.json"),
                     "--vocab", str(DEMO / "vocabulary.json"))
    assert code == 1 and calls
    assert set(Counter(calls).values()) == {1}


def test_importing_the_cli_builds_no_parser():
    code = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import odrleval.cli
print(len(built))
odrleval.cli.build_parser()
print(len(built) > 0)
"""
    assert under_hash_seeds(code, seeds=("1",)) == ["0\nTrue\n"]


def test_emit_query_nul_in_policy_string_exits_2(capsys, tmp_path):
    # sqlite refuses SQL text holding U+0000; no query file is written.
    policy = json.loads((DEMO / "requester.json").read_text())
    policy["permissions"][0]["conditions"][1]["value"] = "Ali\u0000ce"
    pfile = tmp_path / "policy.json"
    pfile.write_text(json.dumps(policy))
    out_dir = tmp_path / "queries"
    code, out, err = run(capsys, "emit-query", "--policy", str(pfile),
                         "--schema", str(DEMO / "schema.json"), "--out-dir", str(out_dir))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "QueryEmitError"
    assert not out_dir.exists()


def test_emit_query_lone_surrogate_in_policy_string_exits_2(capsys, tmp_path):
    # JSON may escape a lone surrogate, which UTF-8 cannot encode; no query
    # file is written.
    text = (DEMO / "policy.json").read_text()
    pfile = tmp_path / "policy.json"
    pfile.write_text(text.replace('"Picture"', '"Pic\\ud800ture"', 1))
    assert "\\ud800" in pfile.read_text()
    out_dir = tmp_path / "queries"
    code, out, err = run(capsys, "emit-query", "--policy", str(pfile),
                         "--schema", str(DEMO / "schema.json"), "--out-dir", str(out_dir))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "QueryEmitError"
    assert not out_dir.exists()


def test_json_integer_past_the_digit_limit_exits_2(capsys, tmp_path):
    # Past CPython's 4,300-digit limit for int conversion json.loads raises a
    # bare ValueError. Without the limit the number is read and no numeric
    # value holds it. Either way it is an input error.
    text = (DEMO / "policy.json").read_text()
    pfile = tmp_path / "policy.json"
    pfile.write_text(text.replace('"rightOperand": 250', '"rightOperand": ' + "9" * 5000, 1))
    assert "9" * 5000 in pfile.read_text()
    code, out, err = run(capsys, "check", "--policy", str(pfile),
                         "--schema", str(DEMO / "schema.json"))
    assert (code, out) == (2, "")
    error = json.loads(err)
    if getattr(sys, "get_int_max_str_digits", lambda: 0)():
        assert (error["error"], error["location"]) == ("bad-format", str(pfile))
    else:
        assert error["error"] == "unparsable-value"


def test_error_quotes_a_long_right_operand_by_its_head_and_length(capsys, tmp_path):
    from odrleval.errors import QUOTED_CHARS
    text = (DEMO / "policy.json").read_text()
    pfile = tmp_path / "policy.json"
    operand = json.dumps("9" * 5000)
    pfile.write_text(text.replace('"rightOperand": 250', f'"rightOperand": {operand}', 1))
    code, out, err = run(capsys, "check", "--policy", str(pfile),
                         "--schema", str(DEMO / "schema.json"))
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "unparsable-value"
    assert error["message"].endswith(
        f"'{'9' * (QUOTED_CHARS - 1)}... (5002 characters) does not fit datatype numeric")
    assert len(error["message"]) < QUOTED_CHARS + 200


_LONG = "x" * 100_000


def _long_duplicate_name(docs):
    docs["schema"]["features"] += [
        {"index": 6, "name": _LONG, "datatype": "numeric", "component": "rule"},
        {"index": 7, "name": _LONG, "datatype": "string", "component": "rule"}]
    return "SchemaError", [_LONG]


def _long_party_role(docs):
    docs["schema"]["features"][2]["partyRole"] = _LONG
    return "ModelInvariantError", [_LONG]


def _long_names_on_one_column(docs):
    docs["schema"]["features"] += [
        {"index": 6, "name": _LONG + ".", "datatype": "numeric", "component": "rule"},
        {"index": 7, "name": _LONG + "-", "datatype": "string", "component": "rule"}]
    return "QueryEmitError", [_LONG + "-", _LONG]


def _long_string_with(char):
    def spoil(docs):
        docs["policy"]["permissions"][0]["conditions"][1]["value"] = char + _LONG
        return "QueryEmitError", [char + _LONG]
    return spoil


@pytest.mark.parametrize("spoil", [
    _long_duplicate_name, _long_party_role, _long_names_on_one_column,
    _long_string_with("\u0000"), _long_string_with("\ud800"),
], ids=["duplicate-name", "party-role", "one-column", "nul", "lone-surrogate"])
def test_engine_errors_cut_each_long_literal(capsys, tmp_path, spoil):
    # Every literal an engine error quotes is cut at QUOTED_CHARS, so the
    # error object stays short however long the input.
    from odrleval.errors import QUOTED_CHARS
    docs = {name: json.loads((DEMO / source).read_text()) for name, source in
            (("schema", "schema.json"), ("policy", "requester.json"))}
    error, literals = spoil(docs)
    paths = {name: tmp_path / f"{name}.json" for name in docs}
    for name, doc in docs.items():
        paths[name].write_text(json.dumps(doc))
    code, out, err = run(capsys, "emit-query", "--policy", str(paths["policy"]),
                         "--schema", str(paths["schema"]),
                         "--out-dir", str(tmp_path / "queries"))
    assert (code, out) == (2, "")
    obj = json.loads(err)
    assert obj["error"] == error
    for literal in literals:
        text = repr(literal)
        assert f"{text[:QUOTED_CHARS]}... ({len(text)} characters)" in obj["message"]
    assert len(obj["message"]) < len(literals) * QUOTED_CHARS + 300


def test_canonical_or_xor_const_through_the_cli(capsys, tmp_path):
    from odrleval import LitePolicy
    from odrleval.policyio import parse_policy_document, parse_schema_document
    from conftest import boolean_policy_document
    schema_path = str(DEMO / "schema.json")
    pfile = tmp_path / "policy.json"
    pfile.write_text(json.dumps(boolean_policy_document()))
    code, out, _ = run(capsys, "check", "--policy", str(pfile), "--schema", schema_path)
    assert code == 0 and json.loads(out)["ok"] is True

    # no prohibition overlaps a rule and the permissions cover the
    # obligation, so normalization only drops the prohibitions
    code, out, _ = run(capsys, "normalize", "--policy", str(pfile), "--schema", schema_path)
    assert code == 0
    assert '"xor"' in out and '"or"' in out and '"const": true' in out
    schema = parse_schema_document(json.loads(Path(schema_path).read_text()))
    original = parse_policy_document(boolean_policy_document(), schema)
    assert parse_policy_document(json.loads(out), schema) == LitePolicy.of(
        original.permissions, (), original.obligations)

    out_dir = tmp_path / "queries"
    code, _, _ = run(capsys, "emit-query", "--policy", str(pfile), "--schema", schema_path,
                     "--out-dir", str(out_dir))
    assert code == 0
    assert "(1=1)" in (out_dir / "permissions-violation.sql").read_text()
    assert "(1=0)" in (out_dir / "prohibitions-violation.sql").read_text()


def test_missing_input_file_exits_2(capsys, tmp_path):
    missing = str(tmp_path / "absent.json")
    code, out, err = run(capsys, "check", "--policy", missing,
                         "--schema", str(DEMO / "schema.json"))
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "io-error", "message": f"{missing}: no such file",
                               "location": missing}

"""The command-line interface: exit codes, output documents, error stream."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from odrleval.cli import main

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


@pytest.mark.parametrize("cell", ["nan", "inf", "1e999"])
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


def test_output_does_not_depend_on_hash_seed():
    # Rule conditions and rule sets are frozensets, whose iteration order
    # follows the interpreter's hash seed; no verdict or report may.
    commands = (
        ["evaluate", "--policy", str(DEMO / "policy.json"),
         "--world", str(DEMO / "world.csv"), "--schema", str(DEMO / "schema.json"),
         "--vocab", str(DEMO / "vocabulary.json")],
        ["compare", "--requester", str(DEMO / "requester.json"),
         "--provider", str(DEMO / "provider.json"),
         "--schema", str(DEMO / "schema.json"), "--mode", "symmetric"],
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
            runs.append((done.returncode, done.stdout))
        assert runs[0] == runs[1]
        assert runs[0][0] in (0, 1) and runs[0][1]


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

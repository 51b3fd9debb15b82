"""Seeded mutations of every input through every subcommand.

Schema, canonical, ODRL and vocabulary documents and world-log cells are
mutated at random. Each call must exit 0 or 1, or exit 2 with a JSON error
object on stderr; an uncaught exception fails the test. Fixed cases cover
the input families that once raised one.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
from pathlib import Path
from random import Random

import pytest

from odrleval.cli import main
from conftest import not_chain

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "demo"
GOLDEN = ROOT / "tests" / "golden"
POLICIES = ("policy.json", "requester.json", "provider.json", "full-policy.json")

# Values a mutation puts in place of a document node.
ODD_VALUES = (
    None, True, False, 0, 5, -1, 1.5, 2 ** 53 + 1, 2 ** 64, -(10 ** 400), "", "x",
    "Print", "Alice", "Datetime", "Book.Pages", "eq", "isA", "isAnyOf", "hasPart",
    "and", [], [5], ["a"], [["a"]], [None], {}, {"a": 1}, {"@id": 5},
    {"@id": "Alice"}, {"@value": 3}, {"not": {}}, {"and": []}, {"const": 1},
)
ODD_CELLS = ("", "null", "x", "-1", "1.5", "1e999", "nan", "9" * 400,
             str(2 ** 53 + 1), "a|b", "|", "2020-01-01T00:00:00", "true", "'")


def _nodes(doc):
    """Every (parent, key) position in a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, child in items:
        yield doc, key
        if isinstance(child, (dict, list)) and child:
            yield from _nodes(child)


def mutate(doc, rng: Random):
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        nodes = list(_nodes(doc))
        if not nodes:
            return doc
        parent, key = rng.choice(nodes)
        roll = rng.random()
        if roll < 0.6:
            parent[key] = copy.deepcopy(rng.choice(ODD_VALUES))
        elif roll < 0.8:
            del parent[key]
        else:
            other, other_key = rng.choice(nodes)
            parent[key] = copy.deepcopy(other[other_key])
    return doc


def mutate_log(text: str, rng: Random) -> str:
    rows = [row.split(",") for row in text.splitlines()]
    for _ in range(rng.randint(1, 2)):
        row = rng.choice(rows[1:])
        row[rng.randrange(len(row))] = rng.choice(ODD_CELLS)
    return "\n".join(",".join(row) for row in rows) + "\n"


def _source(name: str) -> Path:
    return GOLDEN / name if name.startswith("full-") else DEMO / name


def call(argv) -> dict | None:
    """Run one CLI call: it must exit 0 or 1, or exit 2 with an error object
    on stderr, which is returned."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    if code == 2:
        error = json.loads(err.getvalue())
        assert isinstance(error["error"], str) and isinstance(error["message"], str)
        if "location" in error:
            assert error["message"].startswith(error["location"] + ": "), error
        assert out.getvalue() == "", argv
        return error
    assert code in (0, 1), argv
    return None


def run_all(tmp: Path, policy=DEMO / "policy.json", schema=DEMO / "schema.json",
            vocab=DEMO / "vocabulary.json", world=DEMO / "world.csv") -> list:
    """Every subcommand over the given inputs; the error objects of the calls
    that exit 2."""
    common = ("--schema", str(schema))
    calls = (
        ("check", "--policy", str(policy), *common),
        ("evaluate", "--policy", str(policy), "--world", str(world), *common),
        ("evaluate", "--policy", str(policy), "--world", str(world),
         "--vocab", str(vocab), *common),
        ("compare", "--requester", str(policy), "--provider",
         str(DEMO / "provider.json"), *common, "--mode", "symmetric", "--normalize"),
        ("compare", "--requester", str(DEMO / "requester.json"), "--provider",
         str(policy), *common, "--mode", "asymmetric"),
        ("normalize", "--policy", str(policy), *common),
        ("saturate", "--policy", str(policy), "--vocab", str(vocab), *common),
        ("emit-query", "--policy", str(policy), *common, "--out-dir", str(tmp / "sql")),
    )
    return [error for error in map(call, calls) if error is not None]


def _write(path: Path, doc) -> Path:
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("seed", range(4))
def test_mutated_inputs_never_raise(tmp_path, seed):
    rng = Random(seed)
    docs = {name: json.loads(_source(name).read_text()) for name in POLICIES}
    schema = json.loads((DEMO / "schema.json").read_text())
    vocab = json.loads((DEMO / "vocabulary.json").read_text())
    for i in range(12):
        name = POLICIES[i % len(POLICIES)]
        log = _source("full-world.csv" if name == "full-policy.json" else "world.csv")
        try:
            run_all(tmp_path, policy=_write(tmp_path / "policy.json",
                                            mutate(docs[name], rng)))
            run_all(tmp_path, schema=_write(tmp_path / "schema.json",
                                            mutate(schema, rng)))
            run_all(tmp_path, vocab=_write(tmp_path / "vocab.json", mutate(vocab, rng)))
            run_all(tmp_path, policy=_source(name), world=_write(
                tmp_path / "world.csv", mutate_log(log.read_text(), rng)))
        except Exception as exc:
            raise AssertionError(f"mutation {i} of seed {seed} ({name}): {exc!r}") from exc


def _edited(name: str, path: tuple, value):
    doc = json.loads(_source(name).read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


FIXED_POLICIES = {
    "uid-number": _edited("policy.json", ("permission", 0, "uid"), 5),
    "uid-list": _edited("policy.json", ("obligation", 0, "uid"), ["o1"]),
    "operand-object": _edited("requester.json", ("permissions", 0, "conditions", 1),
                              {"feature": "Actor", "op": "isAnyOf", "value": {"a": 1}}),
    "operand-number": _edited("requester.json", ("permissions", 0, "conditions", 1),
                              {"feature": "Actor", "op": "isA", "value": 5}),
    "deep-condition": _edited("requester.json", ("permissions", 0, "conditions", 2),
                              not_chain(600)),
    "deep-json": "[" * 5000 + "]" * 5000,
}
PAGES_HEADER = "Datetime,Action,Actor,Asset,Print.Resolution,Book.Pages\n"
FIXED_LOGS = {
    "pages-past-2-53": PAGES_HEADER + "".join(
        f"1,Read,Bob,Book,null,{2 ** 53 + k}\n" for k in range(6)),
    "pages-past-float-range": PAGES_HEADER + f"1,Read,Bob,Book,null,{'9' * 400}\n",
    "field-over-csv-limit": PAGES_HEADER + f"1,Read,{'B' * 200_000},Book,null,null\n",
}


# Element errors that name their place: (document, kind, location).
LOCATED_POLICIES = {
    "boolean-timestamp": ("requester.json", ("permissions", 0, "conditions", 1),
                          {"feature": "Datetime", "op": "lt", "value": True},
                          "unparsable-value", "permissions[0], condition 1"),
    "boolean-number": ("requester.json", ("permissions", 0, "conditions", 1),
                       {"feature": "Print.Resolution", "op": "gt", "value": True},
                       "unparsable-value", "permissions[0], condition 1"),
    "condition-not-object": ("requester.json", ("permissions", 0, "conditions", 1), 5,
                             "bad-format", "permissions[0], condition 1"),
    "xor-arity": ("requester.json", ("permissions", 0, "conditions", 1),
                  {"xor": [{"const": True}]}, "bad-format", "permissions[0], condition 1"),
    "unrecognized-condition": ("requester.json", ("permissions", 0, "conditions", 1),
                               {"nand": []}, "bad-format", "permissions[0], condition 1"),
    "empty-combinator": ("requester.json", ("permissions", 0, "conditions", 1),
                         {"or": []}, "bad-format", "permissions[0], condition 1"),
    "const-not-boolean": ("requester.json", ("permissions", 0, "conditions", 1),
                          {"const": "false"}, "bad-format", "permissions[0], condition 1"),
    "rule-not-object": ("requester.json", ("permissions", 1), 5,
                        "bad-format", "permissions[1]"),
    "conditions-not-list": ("requester.json", ("permissions", 1, "conditions"), {},
                            "bad-format", "permissions[1]"),
    "label-not-string": ("requester.json", ("permissions", 1, "label"), 5,
                         "bad-format", "permissions[1]"),
    "odrl-constraint-not-object": ("policy.json", ("obligation", 0, "constraint", 0), 5,
                                   "bad-format", "obligation[0].constraint[0]"),
    "odrl-logical-two-keys": ("policy.json", ("prohibition", 0, "constraint", 0, "or"),
                              [], "bad-format", "prohibition[0].constraint[0]"),
    "odrl-rule-not-object": ("policy.json", ("permission", 0), "p1",
                             "bad-format", "permission[0]"),
}


@pytest.mark.parametrize("case", sorted(LOCATED_POLICIES))
def test_element_errors_name_their_place(tmp_path, case):
    name, path, value, kind, location = LOCATED_POLICIES[case]
    policy = _write(tmp_path / "policy.json", _edited(name, path, value))
    error = call(("check", "--policy", str(policy), "--schema", str(DEMO / "schema.json")))
    assert (error["error"], error.get("location")) == (kind, location)


@pytest.mark.parametrize("case", sorted(FIXED_POLICIES))
def test_fixed_policy_cases_never_raise(tmp_path, case):
    run_all(tmp_path, policy=_write(tmp_path / "policy.json", FIXED_POLICIES[case]))


@pytest.mark.parametrize("case", sorted(FIXED_LOGS))
def test_fixed_log_cases_never_raise(tmp_path, case):
    run_all(tmp_path, world=_write(tmp_path / "world.csv", FIXED_LOGS[case]))


def test_long_vocabulary_chain_never_raises(tmp_path):
    chain = {"format": "action-vocabulary/1",
             "includedIn": [[f"a{i}", f"a{i + 1}"] for i in range(3000)]}
    run_all(tmp_path, vocab=_write(tmp_path / "vocab.json", chain))


@pytest.mark.parametrize("role", ["policy", "schema", "vocab", "world"])
@pytest.mark.parametrize("case, kind", [("non-utf8", "bad-format"),
                                        ("directory", "io-error")])
def test_unreadable_input_file_exits_2(tmp_path, role, case, kind):
    path = tmp_path / "input"
    if case == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"format": "\xff"}\n')
    baseline = run_all(tmp_path)  # the demo's provider needs --normalize
    errors = [e for e in run_all(tmp_path, **{role: path}) if e not in baseline]
    assert errors
    for error in errors:
        assert (error["error"], error["location"]) == (kind, str(path))
    if case == "non-utf8":
        assert "byte offset 12" in errors[0]["message"]


def test_emit_query_into_a_file_exits_2(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("")
    for out_dir in (taken, taken / "sql"):
        error = call(("emit-query", "--policy", str(DEMO / "policy.json"),
                      "--schema", str(DEMO / "schema.json"), "--out-dir", str(out_dir)))
        assert (error["error"], error["location"]) == ("io-error", str(out_dir))

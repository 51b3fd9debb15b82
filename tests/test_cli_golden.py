"""Golden CLI outputs: every subcommand on the demo files and on a small
canonical full policy that uses all four pairings (duty pairs,
duty-consequence triples, remedy pairs, obligation-consequence pairs).

Each case pins the exit code, stdout and stderr byte for byte, and for
``emit-query`` every file written. The expected outputs live in
``tests/golden/<case>.json``. A change that alters an output on purpose
regenerates them with ``PYTHONPATH=src python tests/test_cli_golden.py``
and says why in its description.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from odrleval.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

SCHEMA = ("--schema", "demo/schema.json")
VOCAB = ("--vocab", "demo/vocabulary.json")
DEMO_LOG = ("--world", "demo/world.csv")
FULL = "tests/golden/full-policy.json"
FULL_LOG = ("--world", "tests/golden/full-world.csv")
POLICIES = {"odrl": "demo/policy.json", "requester": "demo/requester.json",
            "provider": "demo/provider.json", "full": FULL}
OUT_DIR = "<out-dir>"


def _cases() -> dict:
    cases = {}
    for flags, suffix in (((), ""), (VOCAB, "-vocab"), (("--full",), "-full"),
                          (VOCAB + ("--full",), "-vocab-full")):
        for name in ("odrl", "requester"):
            cases[f"evaluate-{name}{suffix}"] = (
                "evaluate", "--policy", POLICIES[name], *DEMO_LOG, *SCHEMA, *flags)
        cases[f"evaluate-full{suffix}"] = (
            "evaluate", "--policy", FULL, *FULL_LOG, *SCHEMA, *flags)
    pairs = (("requester", "provider"), ("provider", "requester"),
             ("odrl", "provider"), ("full", "provider"))
    for mode in ("symmetric", "asymmetric"):
        for normalize in ((), ("--normalize",)):
            for a, b in pairs:
                cases[f"compare-{mode}-{a}-{b}{'-normalize' if normalize else ''}"] = (
                    "compare", "--requester", POLICIES[a], "--provider", POLICIES[b],
                    *SCHEMA, "--mode", mode, *normalize)
    for name, path in POLICIES.items():
        cases[f"normalize-{name}"] = ("normalize", "--policy", path, *SCHEMA)
        cases[f"saturate-{name}"] = ("saturate", "--policy", path, *VOCAB, *SCHEMA)
        cases[f"emit-query-{name}"] = (
            "emit-query", "--policy", path, *SCHEMA, "--out-dir", OUT_DIR)
        cases[f"check-{name}"] = ("check", "--policy", path, *SCHEMA)
    return cases


CASES = _cases()


def run_case(argv, out_dir: Path) -> dict:
    """Exit code, stdout, stderr and written files of one CLI call, run
    from the repository root so that every path in an output is relative."""
    argv = [str(out_dir) if a == OUT_DIR else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    files = {}
    if out_dir.is_dir():
        files = {p.name: p.read_text(encoding="utf-8")
                 for p in sorted(out_dir.iterdir())}
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "files": files}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = json.loads((GOLDEN / f"{case}.json").read_text(encoding="utf-8"))
    assert run_case(CASES[case], tmp_path / "out") == expected


def test_every_golden_file_has_a_case():
    stored = {p.stem for p in GOLDEN.glob("*.json")} - {"full-policy"}
    assert stored == set(CASES)


if __name__ == "__main__":
    import tempfile

    os.chdir(ROOT)
    for case, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            record = run_case(argv, Path(tmp) / "out")
        (GOLDEN / f"{case}.json").write_text(
            json.dumps(record, indent=2) + "\n", encoding="utf-8")
        print(case, record["exit"])

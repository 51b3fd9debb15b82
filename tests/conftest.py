"""Shared fixtures: the six-feature demo schema, its three-event log, and the
print/read policy exercised throughout the suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from odrleval import (
    And,
    ComponentTag,
    Datatype,
    Event,
    EventRule,
    FeatureDecl,
    FeatureSchema,
    LitePolicy,
    NULL,
    Operator,
    Or,
    SimpleCondition,
    Value,
    World,
)

TESTS = Path(__file__).resolve().parent

# Feature indices of the demo schema.
DATETIME, ACTION, ACTOR, ASSET, RESOLUTION, PAGES = range(6)


def make_schema() -> FeatureSchema:
    return FeatureSchema((
        FeatureDecl(0, "Datetime", Datatype.TIMESTAMP, ComponentTag.RULE),
        FeatureDecl(1, "Action", Datatype.IDENTIFIER, ComponentTag.ACTION),
        FeatureDecl(2, "Actor", Datatype.IDENTIFIER, ComponentTag.PARTY,
                    party_role="assignee"),
        FeatureDecl(3, "Asset", Datatype.IDENTIFIER, ComponentTag.ASSET),
        FeatureDecl(4, "Print.Resolution", Datatype.NUMERIC,
                    ComponentTag.REFINES, refines=1),
        FeatureDecl(5, "Book.Pages", Datatype.NUMERIC,
                    ComponentTag.REFINES, refines=3),
    ))


def make_event(ts, action, actor, asset, resolution=None, pages=None) -> Event:
    return Event((
        Value.timestamp(ts),
        Value.identifier(action),
        NULL if actor is None else Value.identifier(actor),
        NULL if asset is None else Value.identifier(asset),
        NULL if resolution is None else Value.number(resolution),
        NULL if pages is None else Value.number(pages),
    ))


def eq(feature: int, ident: str) -> SimpleCondition:
    return SimpleCondition(feature, Operator.EQ, Value.identifier(ident))


def num(feature: int, op: Operator, x) -> SimpleCondition:
    return SimpleCondition(feature, op, Value.number(x))


def ts(op: Operator, t: int) -> SimpleCondition:
    return SimpleCondition(DATETIME, op, Value.timestamp(t))


def not_chain(depth: int) -> dict:
    """A canonical condition document: ``depth`` nested negations of a
    timestamp bound."""
    condition = {"feature": "Datetime", "op": "lteq", "value": 5}
    for _ in range(depth):
        condition = {"not": condition}
    return condition


def boolean_policy_document() -> dict:
    """A canonical lite policy over the demo schema whose rules use the
    ``or``, ``xor`` and ``const`` condition forms."""
    def pin(feature, value):
        return {"feature": feature, "op": "eq", "value": value}

    def bound(feature, op, value):
        return {"feature": feature, "op": op, "value": value}

    return {
        "format": "policy/1",
        "kind": "lite",
        "permissions": [
            {"label": "print-early-or-late", "conditions": [
                pin("Action", "Print"), pin("Actor", "Alice"),
                {"or": [bound("Datetime", "lteq", 1), bound("Datetime", "gteq", 3)]},
                {"const": True}]},
            {"label": "read-thick-xor-thin", "conditions": [
                pin("Action", "Read"), pin("Asset", "Book"),
                {"xor": [bound("Book.Pages", "gt", 250), bound("Book.Pages", "lt", 300)]}]},
        ],
        "prohibitions": [
            {"label": "never", "conditions": [pin("Action", "Print"), {"const": False}]},
        ],
        "obligations": [
            {"label": "late-print", "conditions": [
                pin("Action", "Print"), pin("Actor", "Alice"),
                {"or": [{"const": False}, bound("Datetime", "gteq", 3)]}]},
        ],
    }


def bounds_rule(n: int) -> EventRule:
    """Print a Book whose resolution and page count each equal one of ``n``
    constants. Each numeric feature gets 2n + 2 probes, so for n = 60 the
    witness domain holds 6 * 122**2 = 89,304 events."""
    return EventRule.of(
        eq(ACTION, "Print"), eq(ASSET, "Book"),
        Or(tuple(num(RESOLUTION, Operator.EQ, 10 * k) for k in range(n))),
        Or(tuple(num(PAGES, Operator.EQ, 10 * k + 1) for k in range(n))),
        label=f"bounds-{n}")


def make_p1() -> EventRule:
    return EventRule.of(
        eq(ACTOR, "Alice"), eq(ACTION, "Print"), eq(ASSET, "Picture"),
        label="p1")


def make_f1() -> EventRule:
    return EventRule.of(
        eq(ACTOR, "Bob"), eq(ACTION, "Read"), eq(ASSET, "Book"),
        And((ts(Operator.LTEQ, 5), ts(Operator.GTEQ, 3))),
        num(PAGES, Operator.GT, 250),
        label="f1")


def make_o1() -> EventRule:
    return EventRule.of(
        eq(ACTOR, "Bob"), eq(ACTION, "Read"), eq(ASSET, "Book"),
        ts(Operator.LT, 3),
        label="o1")


@pytest.fixture
def schema() -> FeatureSchema:
    return make_schema()


@pytest.fixture
def e1() -> Event:
    return make_event(1, "Print", "Alice", "Picture", resolution=500)


@pytest.fixture
def e2() -> Event:
    return make_event(2, "Read", "Bob", "Book", pages=450)


@pytest.fixture
def e3() -> Event:
    return make_event(3, "Print", "Alice", "Book", resolution=600, pages=300)


@pytest.fixture
def world(e1, e2, e3) -> World:
    return World.of((e1, e2, e3))


@pytest.fixture
def p1() -> EventRule:
    return make_p1()


@pytest.fixture
def f1() -> EventRule:
    return make_f1()


@pytest.fixture
def o1() -> EventRule:
    return make_o1()


@pytest.fixture
def example_policy(p1, f1, o1) -> LitePolicy:
    return LitePolicy.of({p1}, {f1}, {o1})


def under_hash_seeds(code: str, seeds=("1", "2", "3")) -> list:
    """The stdout of ``python -c code`` under each ``PYTHONHASHSEED``, with
    the package and this directory importable."""
    path = [str(TESTS.parent / "src"), str(TESTS), os.environ.get("PYTHONPATH")]
    outs = []
    for seed in seeds:
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(p for p in path if p))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        outs.append(done.stdout)
    return outs

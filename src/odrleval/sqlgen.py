"""Compilation of policy violation conditions into ANSI SQL over an event table.

The world materializes as one row per event in ``world_events`` (columns
derived from feature names, event_id first) plus a normalized side table
``world_set_members`` holding identifier-set memberships. Every condition
compiles to a two-valued predicate: null feature values make the predicate
definitely false, never unknown, so negation in the permissions clause
behaves exactly like the in-memory evaluator.

One query is emitted per violation clause so a consumer can tell which
clause fired; the two obligation clauses return a single flag row instead
of witness rows.

``world_insert_sql`` loads a world with multi-row INSERT statements of at
most 500 rows and 200,000 characters each, event rows first, then
set-member rows. It writes the text of each code of the world's encoded
view once, and reuses it for every cell that holds the code.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .conditions import class_condition
from .errors import QueryEmitError, quoted
from .evaluation import Clause
from .matching import require_well_formed, strip_deadline_conditions
from .model import (
    And,
    Condition,
    Constant,
    Datatype,
    EventRule,
    FeatureSchema,
    FullPolicy,
    MEMBERSHIP_OPERATORS,
    NON_NULL_FEATURES,
    Not,
    ORDERED_KINDS,
    ORDER_OPERATORS,
    Operator,
    Or,
    Policy,
    SET_OPERATORS,
    STRING_KINDS,
    SimpleCondition,
    TIMESTAMP_FEATURE,
    Value,
    ValueKind,
    World,
    Xor,
    as_full,
    conform_world,
    deadline_conditions,
    ordered_rules,
    ordered_tuples,
)

MAIN_TABLE = "world_events"
SET_TABLE = "world_set_members"
SET_PRESENT_MARKER = "set"

_SQL_TYPE = {
    Datatype.TIMESTAMP: "INTEGER",
    Datatype.NUMERIC: "NUMERIC",
    Datatype.STRING: "VARCHAR(255)",
    Datatype.IDENTIFIER: "VARCHAR(255)",
    # presence marker; the members live in the side table
    Datatype.IDENTIFIER_SET: "VARCHAR(16)",
}


@dataclass(frozen=True)
class EmittedQuery:
    """DDL plus one SELECT per violation clause, keyed by clause name."""

    dialect: str
    ddl: str
    queries: tuple   # ((clause-name, sql), ...) in clause order


def sanitize_name(name: str) -> str:
    """Lower-case feature name with every non-alphanumeric run collapsed to
    an underscore; the documented column naming rule."""
    out = re.sub(r"[^0-9a-zA-Z]+", "_", name).strip("_").lower()
    if not out or out[0].isdigit():
        out = "f_" + out
    return out


def _columns(schema: FeatureSchema) -> dict:
    """feature index -> bare sanitized column name."""
    cols = {}
    seen = set()
    for decl in schema.features:
        col = sanitize_name(decl.name)
        if col in seen or col == "event_id":
            raise QueryEmitError(
                f"feature {quoted(decl.name)} sanitizes to column {quoted(col)}, which "
                f"collides with another column")
        seen.add(col)
        cols[decl.index] = col
    return cols


def _q(col: str) -> str:
    # Column identifiers are double-quoted in emitted SQL: several natural
    # feature names (action, datetime) are reserved words in the standard.
    return f'"{col}"'


def create_table_sql(schema: FeatureSchema) -> str:
    cols = _columns(schema)
    lines = ["CREATE TABLE world_events (", "  event_id INTEGER NOT NULL"]
    for decl in schema.features:
        null = " NOT NULL" if decl.index in NON_NULL_FEATURES else ""
        lines.append(f"  , {_q(cols[decl.index])} {_SQL_TYPE[decl.datatype]}{null}")
    lines.append("  , PRIMARY KEY (event_id)")
    lines.append(");")
    lines.append("")
    lines.append("CREATE TABLE world_set_members (")
    lines.append("  event_id INTEGER NOT NULL")
    lines.append("  , feature VARCHAR(255) NOT NULL")
    lines.append("  , member VARCHAR(255) NOT NULL")
    lines.append(");")
    return "\n".join(lines) + "\n"


def _quote(s: str) -> str:
    if "\x00" in s:
        raise QueryEmitError(f"string {quoted(s)} holds U+0000, which SQL text cannot carry")
    try:
        s.encode("utf-8")
    except UnicodeEncodeError:
        raise QueryEmitError(
            f"string {quoted(s)} holds a lone surrogate, which UTF-8 cannot encode") from None
    return "'" + s.replace("'", "''") + "'"


def _literal(v: Value) -> str:
    if v.kind in (ValueKind.TIMESTAMP, ValueKind.NUMBER):
        # sqlite stores larger integers as lossy reals, so comparisons drift
        if isinstance(v.raw, int) and not -2**63 <= v.raw < 2**63:
            raise QueryEmitError(f"integer {quoted(v.raw)} lies outside the 64-bit range")
        return repr(v.raw)
    if v.kind in STRING_KINDS:
        return _quote(v.raw)
    raise QueryEmitError(f"no scalar SQL literal for {v.kind.value}")


_FALSE = "(1=0)"
_TRUE = "(1=1)"

_SCALAR_SQL_OP = {
    Operator.EQ: "=", Operator.NEQ: "<>", Operator.GT: ">",
    Operator.GTEQ: ">=", Operator.LT: "<", Operator.LTEQ: "<=",
}
# xor as <> is exact because every compiled condition is two-valued, and
# each operand is written once, so nesting grows the query linearly
_JOINERS = {And: " AND ", Or: " OR ", Xor: " <> "}


class _Compiler:
    def __init__(self, schema: FeatureSchema):
        self.schema = schema
        self.cols = _columns(schema)

    def rule(self, rule: EventRule, alias: str) -> str:
        parts = [self.condition(c, alias) for c in rule.ordered_conditions()]
        if not parts:
            return _TRUE
        return "(" + " AND ".join(parts) + ")"

    def condition(self, c: Condition, alias: str) -> str:
        if isinstance(c, SimpleCondition):
            return self.simple(c, alias)
        joiner = _JOINERS.get(type(c))
        if joiner is not None:
            return "(" + joiner.join(self.condition(p, alias) for p in c.parts) + ")"
        if isinstance(c, Not):
            return "(NOT " + self.condition(c.parts[0], alias) + ")"
        if isinstance(c, Constant):
            return _TRUE if c.truth else _FALSE
        raise AssertionError(f"unknown condition node {quoted(c)}")

    def simple(self, c: SimpleCondition, alias: str) -> str:
        kind = self.schema.value_kinds[c.feature]
        col = f"{alias}.{_q(self.cols[c.feature])}"
        present = f"{col} IS NOT NULL"

        if c.op is Operator.IS_A:
            return f"({present} AND {self.condition(class_condition(c, self.schema), alias)})"

        if c.op in SET_OPERATORS:
            if kind is not ValueKind.IDENTIFIER_SET:
                return _FALSE
            members = sorted(c.members)
            feature_lit = _quote(self.cols[c.feature])
            terms = [present]
            if c.op is not Operator.IS_PART_OF:
                terms += [self._member_exists(alias, feature_lit, m) for m in members]
            if c.op is not Operator.HAS_PART:
                terms.append(self._only_members(alias, feature_lit, members))
            return "(" + " AND ".join(terms) + ")"

        if c.op in MEMBERSHIP_OPERATORS:
            if kind not in STRING_KINDS:
                return _FALSE
            members = sorted(c.members)
            if not members:
                return _FALSE if c.op is Operator.IS_ANY_OF else f"({present})"
            inlist = ", ".join(_quote(m) for m in members)
            test = f"{col} IN ({inlist})" if c.op is Operator.IS_ANY_OF \
                else f"{col} NOT IN ({inlist})"
            return f"({present} AND {test})"

        # scalar comparison; statically incomparable kinds are plain false
        if c.value.kind is not kind or (
                c.op in ORDER_OPERATORS and kind not in ORDERED_KINDS):
            return _FALSE
        return f"({present} AND {col} {_SCALAR_SQL_OP[c.op]} {_literal(c.value)})"

    @staticmethod
    def _member_exists(alias: str, feature_lit: str, member: str) -> str:
        return (f"EXISTS (SELECT 1 FROM {SET_TABLE} sm WHERE "
                f"sm.event_id = {alias}.event_id AND sm.feature = {feature_lit} "
                f"AND sm.member = {_quote(member)})")

    @staticmethod
    def _only_members(alias: str, feature_lit: str, members) -> str:
        if members:
            inlist = ", ".join(_quote(m) for m in members)
            extra = f" AND sm.member NOT IN ({inlist})"
        else:
            extra = ""
        return (f"NOT EXISTS (SELECT 1 FROM {SET_TABLE} sm WHERE "
                f"sm.event_id = {alias}.event_id AND sm.feature = {feature_lit}"
                f"{extra})")


def _disjoin(parts) -> str:
    parts = list(parts)
    if not parts:
        return _FALSE
    return "(" + "\n   OR ".join(parts) + ")"


def emit_violation_queries(policy: Policy, schema: FeatureSchema) -> EmittedQuery:
    """The violation clauses as standalone SELECT statements: the three lite
    clauses, and for a ``FullPolicy`` also the duty / remedy / consequence
    clauses, which compare each row's timestamp with the earliest or latest
    timestamp of the partner rule."""
    p = as_full(policy)
    require_well_formed(p.all_rules(), schema)
    comp = _Compiler(schema)
    ts = _q(comp.cols[TIMESTAMP_FEATURE])

    def beyond(alias: str, rule: EventRule, aggregate: str, test: str) -> str:
        """No event of ``rule`` at or before (MIN, >) or at or after (MAX, <)
        row w: the uncorrelated aggregate is computed once, and is null when
        the rule matches nothing."""
        bound = (f"(SELECT {aggregate}({alias}.{ts}) FROM {MAIN_TABLE} {alias} "
                 f"WHERE {comp.rule(rule, alias)})")
        return f"({bound} IS NULL OR {bound} {test} w.{ts})"

    def rows(terms) -> str:
        return f"SELECT w.* FROM {MAIN_TABLE} w\nWHERE {_disjoin(terms)};"

    def flag(terms) -> str:
        return (f"SELECT 1 AS violated FROM (SELECT 1 AS x) AS one\n"
                f"WHERE {_disjoin(terms)};")

    permissions = [comp.rule(t, "w") for t in ordered_rules(p.lite.permissions)]
    perm_where = " AND ".join(f"(NOT {m})" for m in permissions) or _TRUE
    queries = {
        Clause.PERMISSIONS: f"SELECT w.* FROM {MAIN_TABLE} w\nWHERE {perm_where};",
        Clause.PROHIBITIONS: rows(
            comp.rule(t, "w") for t in ordered_rules(p.lite.prohibitions)),
        Clause.OBLIGATIONS: flag(
            f"NOT EXISTS (SELECT 1 FROM {MAIN_TABLE} w WHERE {comp.rule(t, 'w')})"
            for t in ordered_rules(p.lite.obligations)),
    }
    if isinstance(policy, FullPolicy):
        queries[Clause.PERMISSION_DUTIES] = rows(
            f"({comp.rule(tau, 'w')} AND {beyond('w2', duty, 'MIN', '>')})"
            for tau, duty in ordered_tuples(p.duty_pairs))
        queries[Clause.PERMISSION_DUTIES_WITH_CONSEQUENCES] = rows(
            f"({comp.rule(tau, 'w')} AND {beyond('w2', duty, 'MIN', '>')}"
            f" AND ({beyond('w3', duty, 'MAX', '<')}"
            f" OR {beyond('w4', consequence, 'MAX', '<')}))"
            for tau, duty, consequence in ordered_tuples(p.duty_consequence_triples))
        queries[Clause.PROHIBITION_REMEDIES] = rows(
            f"({comp.rule(tau, 'w')} AND {beyond('w2', remedy, 'MAX', '<')})"
            for tau, remedy in ordered_tuples(p.remedy_pairs))
        queries[Clause.OBLIGATION_CONSEQUENCES] = flag(
            f"((NOT EXISTS (SELECT 1 FROM {MAIN_TABLE} w WHERE "
            f"{comp.rule(tau, 'w')})) AND (NOT EXISTS (SELECT 1 FROM "
            f"{MAIN_TABLE} w2, {MAIN_TABLE} w3 WHERE "
            f"{comp.rule(strip_deadline_conditions(tau), 'w2')} AND "
            f"{comp.rule(consequence, 'w3')} AND w3.{ts} >= {deadline.value.raw})))"
            for tau, consequence in ordered_tuples(p.obligation_consequence_pairs)
            for deadline in deadline_conditions(tau))

    return EmittedQuery(
        dialect="ansi-sql",
        ddl=create_table_sql(schema),
        queries=tuple((f"{clause.value}-violation", sql)
                      for clause, sql in queries.items()),
    )


def emit_full_violation_queries(p: Policy, schema: FeatureSchema) -> EmittedQuery:
    """All seven violation clauses; a lite policy is emitted as the full
    policy with no pairings."""
    return emit_violation_queries(as_full(p), schema)


# Rows per INSERT statement. SQL Server caps a VALUES list at 1,000 rows;
# sqlite 3.8.8 and later have no cap.
_ROWS_PER_INSERT = 500
# Characters per INSERT statement. sqlite refuses a statement longer than
# SQLITE_LIMIT_SQL_LENGTH, 1,000,000 bytes by default, and a character takes
# at most 4 bytes of UTF-8.
_CHARS_PER_INSERT = 200_000


def _cell_sql(v: Value, feature_lit: str) -> tuple:
    """A cell's text in its event's row, and for a set the text each of its
    member rows carries after the event id, members in sorted order."""
    if v.is_null:
        return "NULL", ()
    if v.kind is ValueKind.IDENTIFIER_SET:
        return (_quote(SET_PRESENT_MARKER),
                tuple(f"{feature_lit}, {_quote(m)}" for m in sorted(v.raw)))
    return _literal(v), ()


def _inserts(table: str, names: str, rows: list) -> list:
    """``rows`` in order, a statement ending at 500 rows or before the row
    that would take it past the character budget. A row longer than the
    budget is a statement of its own."""
    head = f"INSERT INTO {table} ({names}) VALUES\n"
    statements = []
    start = 0
    size = len(head)
    for i, row in enumerate(rows):
        size += len(row) + 2
        if i > start and (i - start == _ROWS_PER_INSERT or size > _CHARS_PER_INSERT):
            statements.append(head + ",\n".join(rows[start:i]) + ";")
            start = i
            size = len(head) + len(row) + 2
    if rows:
        statements.append(head + ",\n".join(rows[start:]) + ";")
    return statements


def world_insert_sql(world: World, schema: FeatureSchema) -> list:
    """INSERT statements materializing a world that conforms to the schema,
    events ordered and numbered deterministically: ``world_events`` rows in
    event order, then ``world_set_members`` rows in event, feature and member
    order, at most 500 rows and 200,000 characters per statement. A cell is
    written once per code of the world's encoded view, on first use."""
    view = conform_world(world, schema)
    cols = _columns(schema)
    names = ", ".join(["event_id"] + [_q(cols[d.index]) for d in schema.features])
    features = [_quote(cols[d.index]) for d in schema.features]
    columns = [view.codes(d.index) for d in schema.features]
    written = [[None] * len(values) for values, _ in columns]   # code -> _cell_sql
    rows = []
    members = []
    for event_id, row in enumerate(zip(*(codes for _, codes in columns))):
        cells = [str(event_id)]
        for (values, _), feature, sql_of, code in zip(columns, features, written, row):
            sql = sql_of[code]
            if sql is None:
                sql = sql_of[code] = _cell_sql(values[code], feature)
            cells.append(sql[0])
            for tail in sql[1]:
                members.append(f"({event_id}, {tail})")
        rows.append(f"({', '.join(cells)})")
    return (_inserts(MAIN_TABLE, names, rows)
            + _inserts(SET_TABLE, "event_id, feature, member", members))

"""Ground-truth link extraction by SQLite's own name resolution.

A gold query is compiled, never run, as `EXPLAIN <sql>` against an
in-memory database that holds the schema's tables with no rows. SQLite
calls an authorizer for every column the statement reads while it resolves
names, so CTEs, derived tables, window functions, CASE and a compound's
ORDER BY resolve exactly as they do when the query is executed. The
authorizer allows only what a read-only SELECT needs; any other statement,
or more than one, is refused.

Links are reported lowercase. COUNT(*) reads no column, so it adds none.
SQLite pairs a USING or NATURAL join's keys without resolving them as
names, so for such a join the `EXPLAIN` program is read too: each `Column`
op on a cursor `OpenRead` opens at a schema table's root page. The
authorizer stays the write guard and records the columns the optimizer
drops from the program, as in `SELECT count(*) FROM (SELECT name FROM t)`.

A schema's database belongs to the thread that first labels the schema;
compiling a query for it from another thread raises SqlSyntaxError.

Each schema's links are memoised per SQL string beside its database, in
the schema document's own memo, so a gold query that many examples share
compiles once while that document lives.
"""
from __future__ import annotations

import re
import sqlite3
import weakref

from .errors import AmbiguousColumn, InvalidSchema, SqlSyntaxError, UnknownColumn, UnknownTable
from .schema import SchemaDocument, quote_identifier

# the authorizer actions a read-only SELECT needs
_READ_ONLY_ACTIONS = frozenset({sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ,
                                sqlite3.SQLITE_FUNCTION, sqlite3.SQLITE_RECURSIVE})


def read_only(action, *_) -> int:
    """An authorizer that refuses every action but those a read-only SELECT
    needs, here and when `metrics` executes SQL."""
    return sqlite3.SQLITE_OK if action in _READ_ONLY_ACTIONS else sqlite3.SQLITE_DENY


# how SQLite's message begins (past an ordinal such as `1st`) -> error;
# any other message is a SqlSyntaxError
_ERRORS = {"no such table": UnknownTable, "no such column": UnknownColumn,
           "ambiguous column name": AmbiguousColumn, "ORDER BY term": UnknownColumn}
_ERROR_RE = re.compile(r"(?:\d+\w\w )?(" + "|".join(_ERRORS) + ")")

# SQLite never asks the authorizer about VACUUM or a bare REINDEX, so a
# statement that compiled must also begin, past comments, as a SELECT does
_SELECT_RE = re.compile(r"(?:\s|--[^\n]*|/\*.*?\*/)*(?:SELECT|WITH|VALUES)\b", re.I | re.S)

# joins whose keys only the program shows; reading it costs 3x the compile
_PAIRED_JOIN_RE = re.compile(r"\b(?:USING|NATURAL)\b", re.I)


def _compiler(schema: SchemaDocument) -> tuple[sqlite3.Connection, list, dict, dict]:
    """The schema's empty copy, closed once the schema is collected: its
    connection, the list its authorizer appends each (table, column) a
    statement reads to, its tables by root page, and its links memo: SQL
    string -> frozenset of the links it compiled to."""
    # no statement cache: a reused statement is not authorized again
    conn = sqlite3.connect(":memory:", isolation_level=None, cached_statements=0)
    for table in schema.tables:
        columns = ", ".join(quote_identifier(c.name) for c in table.columns)
        try:
            conn.execute(f"CREATE TABLE {quote_identifier(table.name)} ({columns})")
        except (sqlite3.Error, ValueError) as e:
            conn.close()
            raise InvalidSchema(f"table {table.name!r}: {e}") from None
    weakref.finalize(schema, conn.close)
    tables = {root: schema.table(name)
              for root, name in conn.execute("SELECT rootpage, name FROM sqlite_master")}
    reads: list[tuple[str, str]] = []

    def authorize(action, table, column, _db, _trigger):
        # newer SQLite reports a table read for no column, as in
        # `SELECT count(*) FROM t`, with an empty column name
        if action == sqlite3.SQLITE_READ and column:
            reads.append((table, column))
        return read_only(action)

    conn.set_authorizer(authorize)
    return conn, reads, tables, {}


def extract_ground_truth(sql: str, schema: SchemaDocument) -> set[tuple[str, str]]:
    """Gold (table, column) links of one read-only SELECT: every schema
    column SQLite reads while compiling it. `t.*` and bare `*` read every
    column of the tables they expand over, and a USING or NATURAL join
    reads its key columns on both sides.

    Raises UnknownTable, UnknownColumn or AmbiguousColumn as SQLite resolves
    names (a compound's ORDER BY term that names no output column is an
    UnknownColumn), and SqlSyntaxError with SQLite's message otherwise.

    A SQL string compiles once per schema: later calls return a fresh set
    of its memoised links. An error is not memoised, so it raises again.
    """
    conn, reads, tables, memo = schema.memo("compiler", _compiler)
    found = memo.get(sql)
    if found is not None:
        return set(found)
    reads.clear()
    try:
        program = conn.execute("EXPLAIN " + sql)
        if _PAIRED_JOIN_RE.search(sql):  # Column ops on cursors opened at a table's root
            ops = program.fetchall()
            cursors = {p1: tables[p2] for _, op, p1, p2, *_ in ops
                       if op == "OpenRead" and p2 in tables}
            reads += [(cursors[p1].name, cursors[p1].columns[p2].name)
                      for _, op, p1, p2, *_ in ops if op == "Column" and p1 in cursors]
    except (sqlite3.Error, sqlite3.Warning, ValueError) as e:
        known = _ERROR_RE.match(str(e))
        raise (_ERRORS[known[1]] if known else SqlSyntaxError)(str(e)) from None
    if not _SELECT_RE.match(sql):
        raise SqlSyntaxError("not a SELECT statement")
    links = {(table.lower(), column.lower()) for table, column in reads}
    for table, column in links:
        if schema.table(table) is None:
            raise UnknownTable(f"no such table in the schema: {table}")
        if not schema.has_column(table, column):
            raise UnknownColumn(f"no such column in the schema: {table}.{column}")
    memo[sql] = frozenset(links)
    return links

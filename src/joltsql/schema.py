"""Database schema description and its DDL-style serialization.

The serialized text carries one marker literal per column; a SpanIndex
records the character range of every structural element. The tokenizer
maps each table's layout to token ranges with `TableSpans.map`, so one
type describes the layout in characters and in tokens.
"""
from __future__ import annotations

import sqlite3
from dataclasses import MISSING, dataclass, field, fields, replace

from .errors import DbError, InvalidSchema, InvalidSpans
from .jsonfile import read_json

MARKER_TEXT = "<|marker|>"


@dataclass(frozen=True)
class Column:
    name: str
    sql_type: str
    examples: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.examples) > 2:
            raise ValueError("at most two value examples per column")


@dataclass(frozen=True)
class Table:
    name: str
    columns: tuple[Column, ...]
    primary_key: tuple[str, ...] = ()
    # (local column, foreign table, foreign column)
    foreign_keys: tuple[tuple[str, str, str], ...] = ()

    def __post_init__(self):
        names = [c.name.lower() for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in table {self.name}")

    def column_names(self) -> list[str]:
        return [c.name.lower() for c in self.columns]


@dataclass(frozen=True)
class SchemaDocument:
    tables: tuple[Table, ...]
    # what `memo` derived from this document: its tokenization, its compiler
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        names = [t.name.lower() for t in self.tables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate table names in schema")

    def memo(self, key: str, make):
        """`make(self)`, made once per key while this document lives."""
        if key not in self._derived:
            self._derived[key] = make(self)
        return self._derived[key]

    def __getstate__(self) -> dict:
        # a copy or unpickled document derives its own state
        return {"tables": self.tables, "_derived": {}}

    def table(self, name: str) -> Table | None:
        low = name.lower()
        for t in self.tables:
            if t.name.lower() == low:
                return t
        return None

    def has_column(self, table: str, column: str) -> bool:
        t = self.table(table)
        return t is not None and column.lower() in t.column_names()

    @staticmethod
    def from_json(obj: dict) -> "SchemaDocument":
        """Read `to_json`'s form. Raises InvalidSchema naming the entry and
        the key when an entry lacks a required key or is not an object, the
        tables, a table's columns or its foreign keys are not a list, a
        name, type, value example or primary-key entry is not a string, a
        foreign key is not three strings, or the schema lists no table or a
        table no column."""
        tables = []
        listed = _list(_required(obj, "tables", "schema"), "schema, key 'tables'")
        for i, t in enumerate(listed):
            name = _string(_required(t, "name", f"table {i}"), f"table {i}, key 'name'")
            where = f"table {name!r}"
            columns = _list(_required(t, "columns", where), f"{where}, key 'columns'")
            cols = tuple(_column(c, f"column {j} of {where}") for j, c in enumerate(columns))
            fks = _list(t.get("foreign_keys", []), f"{where}, key 'foreign_keys'")
            pk = _strings(t.get("primary_key", []), f"{where}, key 'primary_key'")
            fks = tuple(_strings(fk, f"{where}, foreign key {k}", 3)
                        for k, fk in enumerate(fks))
            if not cols:
                raise InvalidSchema(f"{where}: lists no columns")
            tables.append(Table(name, cols, pk, fks))
        if not tables:
            raise InvalidSchema("schema: lists no tables")
        return SchemaDocument(tuple(tables))

    @staticmethod
    def load(path: str) -> "SchemaDocument":
        try:
            return SchemaDocument.from_json(read_json(path))
        except (InvalidSchema, TypeError, ValueError) as e:
            raise InvalidSchema(f"{path}: {e}") from None

    def to_json(self) -> dict:
        return {
            "tables": [
                {
                    "name": t.name,
                    "columns": [
                        {"name": c.name, "type": c.sql_type, "examples": list(c.examples)}
                        for c in t.columns
                    ],
                    "primary_key": list(t.primary_key),
                    "foreign_keys": [list(fk) for fk in t.foreign_keys],
                }
                for t in self.tables
            ]
        }


def _required(obj, key: str, where: str):
    """`obj[key]` of a schema entry; InvalidSchema naming `where` otherwise."""
    if not isinstance(obj, dict):
        raise InvalidSchema(f"{where}: expected an object")
    if key not in obj:
        raise InvalidSchema(f"{where}: missing key {key!r}")
    return obj[key]


def _column(obj, where: str) -> Column:
    return Column(_string(_required(obj, "name", where), f"{where}, key 'name'"),
                  _string(obj.get("type", "TEXT"), f"{where}, key 'type'"),
                  _strings(obj.get("examples", []), f"{where}, key 'examples'"))


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise InvalidSchema(f"{where}: expected a list")
    return value


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise InvalidSchema(f"{where}: expected a string")
    return value


def _strings(values, where: str, n: int | None = None) -> tuple[str, ...]:
    """A schema entry's list of strings (exactly `n`, when given) as a
    tuple; InvalidSchema naming `where` otherwise."""
    if not (isinstance(values, list) and all(isinstance(v, str) for v in values)
            and n in (None, len(values))):
        count = "" if n is None else f"{n} "
        raise InvalidSchema(f"{where}: expected a list of {count}strings")
    return tuple(values)


@dataclass
class TableSpans:
    """One table's layout as half-open ranges: characters of the serialized
    text, or, once `tokenize_schema` has mapped it, token positions from the
    schema's first word, which each example reads at its `schema_start`."""

    header: tuple[int, int]
    pk: tuple[int, int]
    fk: list[tuple[int, int]]
    footer: tuple[int, int]
    # column name -> full definition span (ends with the marker literal)
    columns: dict[str, tuple[int, int]] = field(default_factory=dict)
    # column name -> span of the marker literal itself
    markers: dict[str, tuple[int, int]] = field(default_factory=dict)

    def envelope_spans(self) -> list[tuple[int, int]]:
        return [self.header, self.pk, *self.fk, self.footer]

    def map(self, fn) -> "TableSpans":
        """The same layout with every span replaced by `fn(span)`."""
        return TableSpans(fn(self.header), fn(self.pk), [fn(s) for s in self.fk],
                          fn(self.footer), {c: fn(s) for c, s in self.columns.items()},
                          {c: fn(s) for c, s in self.markers.items()})


@dataclass
class SpanIndex:
    # table name (lowercase) -> spans
    tables: dict[str, TableSpans]

    def to_json(self) -> dict:
        # map(list) builds fresh lists, so its fields need no deep copy
        return {t: vars(ts.map(list)) for t, ts in self.tables.items()}

    @staticmethod
    def from_json(obj: dict) -> "SpanIndex":
        """Read `to_json`'s form. Raises InvalidSpans unless it is an object
        of table -> spans, naming the table when an entry lacks a required
        key, has one `TableSpans` does not, or holds a span that is not a
        pair of integers."""
        if not isinstance(obj, dict):
            raise InvalidSpans("spans: expected an object of table -> spans")
        known = {f.name for f in fields(TableSpans)}
        required = {f.name for f in fields(TableSpans) if f.default_factory is MISSING}
        tables = {}
        for t, ts in obj.items():
            if not isinstance(ts, dict):
                raise InvalidSpans(f"spans of table {t!r}: expected an object")
            problems = [f"{what} keys {', '.join(sorted(keys))}"
                        for what, keys in (("missing", required - ts.keys()),
                                           ("unknown", ts.keys() - known)) if keys]
            if problems:
                raise InvalidSpans(f"spans of table {t!r}: {'; '.join(problems)}")
            bad = sorted(k for k, v in ts.items() if not _holds_spans(k, v))
            if bad:
                raise InvalidSpans(f"spans of table {t!r}: {', '.join(bad)} "
                                   "not made of integer pairs")
            tables[t] = TableSpans(**ts).map(tuple)
        return SpanIndex(tables)

    @staticmethod
    def load(path: str) -> "SpanIndex":
        """`from_json` of a spans file; its errors name the file."""
        try:
            return SpanIndex.from_json(read_json(path))
        except InvalidSpans as e:
            raise InvalidSpans(f"{path}: {e}") from None


def _holds_spans(key: str, value) -> bool:
    """Whether `value` is the JSON form of TableSpans field `key`: a list
    of spans (`fk`), an object of spans (`columns`, `markers`) or one span,
    each span a pair of integers."""
    if key == "fk":
        return isinstance(value, list) and all(map(_is_span, value))
    if key in ("columns", "markers"):
        return isinstance(value, dict) and all(map(_is_span, value.values()))
    return _is_span(value)


def _is_span(value) -> bool:
    return (isinstance(value, list) and len(value) == 2
            and all(type(x) is int for x in value))


def _render_examples(examples: tuple[str, ...]) -> str:
    if not examples:
        return "None"
    return ", ".join(examples)


def serialize_schema(doc: SchemaDocument) -> tuple[str, SpanIndex]:
    """Render CREATE-TABLE-style text, one marker per column, plus spans.

    Layout is frozen: header line, one column line per column (type, then a
    `-- examples:` comment, then the marker), PRIMARY KEY line, one FOREIGN
    KEY line per fk, closing paren footer. Spans are half-open char ranges
    over the returned text and exclude the trailing newline of each line.
    """
    parts: list[str] = []
    pos = 0
    index: dict[str, TableSpans] = {}

    def emit(line: str) -> tuple[int, int]:
        nonlocal pos
        start = pos
        parts.append(line + "\n")
        pos += len(line) + 1
        return (start, start + len(line))

    for t in doc.tables:
        header = emit(f"CREATE TABLE {t.name} (")
        col_spans: dict[str, tuple[int, int]] = {}
        marker_spans: dict[str, tuple[int, int]] = {}
        for c in t.columns:
            line = f"  {c.name} {c.sql_type.upper()} -- examples: {_render_examples(c.examples)} {MARKER_TEXT}"
            span = emit(line)
            col_spans[c.name.lower()] = span
            marker_spans[c.name.lower()] = (span[1] - len(MARKER_TEXT), span[1])
        pk = emit(f"  PRIMARY KEY ({', '.join(t.primary_key)})")
        fk_spans = [
            emit(f"  FOREIGN KEY ({local}) REFERENCES {ftable} ({fcol})")
            for local, ftable, fcol in t.foreign_keys
        ]
        footer = emit(")")
        index[t.name.lower()] = TableSpans(
            header=header, pk=pk, fk=fk_spans, footer=footer,
            columns=col_spans, markers=marker_spans,
        )
    text = "".join(parts)
    if text.endswith("\n"):
        text = text[:-1]
    return text, SpanIndex(index)


def sample_value_examples(db: sqlite3.Connection, table: str, column: str, limit: int = 2) -> list[str]:
    """Up to `limit` distinct non-null values in first-seen row order,
    rendered with SQL literal quoting. Raises DbError naming the table and
    the column when SQLite cannot read them."""
    # qualified, so SQLite cannot read a missing column as a string literal
    quoted = quote_identifier(table)
    try:
        cur = db.execute(f"SELECT {quoted}.{quote_identifier(column)} FROM {quoted}")
        seen: list = []
        for (v,) in cur:
            if v is None or v in seen:
                continue
            seen.append(v)
            if len(seen) >= limit:
                break
    except sqlite3.Error as e:
        raise DbError(f"table {table!r}, column {column!r}: {e}") from e
    return [_quote_value(v) for v in seen]


def with_value_examples(doc: SchemaDocument, db: sqlite3.Connection) -> SchemaDocument:
    """`doc` with every column's value examples sampled from `db`."""
    return SchemaDocument(tuple(
        replace(t, columns=tuple(
            replace(c, examples=tuple(sample_value_examples(db, t.name, c.name)))
            for c in t.columns))
        for t in doc.tables))


def quote_identifier(name: str) -> str:
    """`name` as an SQLite identifier: double-quoted, inner quotes doubled."""
    return '"' + name.replace('"', '""') + '"'


def _quote_value(v) -> str:
    if isinstance(v, str):
        return "'" + v.replace("'", "''") + "'"
    return str(v)

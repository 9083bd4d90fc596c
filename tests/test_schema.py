import copy
import json
import pickle
import re
from dataclasses import asdict, replace

import pytest

from joltsql.errors import DbError, InvalidSchema, UnknownColumn
from joltsql.pipeline import (PREFIX_TEMPLATE, build_training_example,
                              prepare_inference_example, tokenized_schema)
from joltsql.schema import (MARKER_TEXT, Column, SchemaDocument, SpanIndex, Table,
                            sample_value_examples, serialize_schema)
from joltsql.sqlscope import extract_ground_truth
from joltsql.tokenizer import build_vocab, encode, tokenize_schema


def one_table(columns, pk=("id",), fks=()):
    return SchemaDocument((Table("singer", tuple(columns), pk, tuple(fks)),))


class TestSerialize:
    def test_column_line_with_examples(self):
        doc = one_table([Column("id", "INTEGER"),
                         Column("name", "TEXT", ("'Joe'", "'Rosa'"))])
        text, spans = serialize_schema(doc)
        assert "name TEXT -- examples: 'Joe', 'Rosa'" in text
        assert text.count(MARKER_TEXT) == 2

    def test_empty_column_list(self):
        doc = SchemaDocument((Table("empty_t", ()),))
        text, spans = serialize_schema(doc)
        assert MARKER_TEXT not in text
        ts = spans.tables["empty_t"]
        assert text[slice(*ts.header)].startswith("CREATE TABLE")
        assert ts.columns == {}

    def test_two_tables_ordered(self):
        doc = SchemaDocument((
            Table("a", (Column("x", "INTEGER"),)),
            Table("b", (Column("y", "INTEGER"),)),
        ))
        text, spans = serialize_schema(doc)
        assert spans.tables["a"].footer[1] < spans.tables["b"].header[0]

    def test_span_round_trip(self, concert_schema):
        text, spans = serialize_schema(concert_schema)
        for tname, ts in spans.tables.items():
            assert text[slice(*ts.header)].startswith("CREATE TABLE")
            assert text[slice(*ts.footer)] == ")"
            assert text[slice(*ts.pk)].lstrip().startswith("PRIMARY KEY")
            for fk in ts.fk:
                assert text[slice(*fk)].lstrip().startswith("FOREIGN KEY")
            for cname, cspan in ts.columns.items():
                piece = text[slice(*cspan)]
                assert piece.endswith(MARKER_TEXT)
                assert piece.lstrip().lower().startswith(cname)
            for cname, mspan in ts.markers.items():
                assert text[slice(*mspan)] == MARKER_TEXT

    def test_marker_count_equals_columns(self, concert_schema):
        text, spans = serialize_schema(concert_schema)
        total_cols = sum(len(t.columns) for t in concert_schema.tables)
        assert text.count(MARKER_TEXT) == total_cols
        assert sum(len(ts.markers) for ts in spans.tables.values()) == total_cols

    def test_pure_function(self, concert_schema):
        assert serialize_schema(concert_schema)[0] == serialize_schema(concert_schema)[0]

    def test_empty_examples_rendered_none(self):
        doc = one_table([Column("id", "INTEGER")])
        text, _ = serialize_schema(doc)
        assert "-- examples: None" in text


@pytest.fixture(scope="module")
def desk_schemas(desk_corpus):
    """The desk corpus schemas at seeds 3 and 7."""
    return [doc for seed in (3, 7) for doc in desk_corpus(seed).generated.schemas.values()]


class TestSpanIndexJson:
    def test_equals_the_asdict_form(self, concert_schema, desk_schemas):
        """`to_json` keeps the `dataclasses.asdict` form, for the character
        spans and for the token spans `tokenize_schema` maps them to."""
        for doc in [concert_schema, *desk_schemas]:
            text, char_spans = serialize_schema(doc)
            _, seg = encode("a question", tokenize_schema(text, char_spans), "",
                            build_vocab([text]))
            for index in (char_spans, SpanIndex(seg.table_elements)):
                want = {t: asdict(ts.map(list)) for t, ts in index.tables.items()}
                assert index.to_json() == want
                assert json.dumps(index.to_json()) == json.dumps(want)

    def test_output_shares_no_lists_with_the_index(self, concert_schema):
        _, spans = serialize_schema(concert_schema)
        out = spans.to_json()
        out["singer"]["columns"]["id"].append(0)
        out["singer"]["fk"].append([0, 1])
        assert spans.to_json() != out
        assert SpanIndex.from_json(spans.to_json()) == spans


class TestSchemaMemo:
    """Each document memoises its own tokenization and SQLite compiler;
    nothing is shared between documents, however equal."""

    @staticmethod
    def use(doc):
        tokens = tokenized_schema(doc)
        links = extract_ground_truth("SELECT name FROM singer", doc)
        return tokens, links

    def test_one_document_tokenizes_and_connects_once(self, concert_schema):
        doc = SchemaDocument.from_json(concert_schema.to_json())
        tokens, _ = self.use(doc)
        conn = doc._derived["compiler"][0]
        assert tokenized_schema(doc) is tokens
        extract_ground_truth("SELECT age FROM singer", doc)
        assert doc._derived["compiler"][0] is conn
        assert sorted(doc._derived) == ["compiler", "tokens"]

    def test_equal_copy_builds_its_own_entries(self, concert_schema):
        doc = SchemaDocument.from_json(concert_schema.to_json())
        copy = SchemaDocument.from_json(json.loads(json.dumps(concert_schema.to_json())))
        assert copy == doc and copy is not doc
        (tokens, links), (copy_tokens, copy_links) = self.use(doc), self.use(copy)
        assert copy_tokens is not tokens
        assert (copy_tokens.text, copy_tokens.tables) == (tokens.text, tokens.tables)
        assert copy_links == links == {("singer", "name")}
        assert copy._derived["compiler"][0] is not doc._derived["compiler"][0]

    @pytest.mark.parametrize("change", [dict(), dict(name="nick"), dict(sql_type="INTEGER"),
                                        dict(examples=("'x'",))],
                             ids=["none", "name", "type", "examples"])
    def test_replaced_document_starts_with_an_empty_memo(self, concert_schema, change):
        doc = SchemaDocument.from_json(concert_schema.to_json())
        self.use(doc)
        singer = doc.tables[0]
        columns = (replace(singer.columns[1], **change), *singer.columns[2:])
        other = replace(doc, tables=(replace(singer, columns=(singer.columns[0], *columns)),
                                     *doc.tables[1:]))
        assert (other == doc) == (not change)
        assert other._derived == {}
        assert (tokenized_schema(other).text == tokenized_schema(doc).text) == (not change)
        sql = f"SELECT {columns[0].name} FROM singer"
        assert extract_ground_truth(sql, other) == {("singer", columns[0].name)}
        assert other._derived["compiler"][0] is not doc._derived["compiler"][0]
        if "name" in change:
            with pytest.raises(UnknownColumn):
                extract_ground_truth(sql, doc)

    @pytest.mark.parametrize("duplicate", [lambda d: pickle.loads(pickle.dumps(d)),
                                           copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_used_document_duplicates_with_an_empty_memo(self, concert_schema, duplicate):
        doc = SchemaDocument.from_json(concert_schema.to_json())
        tokens, links = self.use(doc)
        twin = duplicate(doc)
        assert twin == doc and twin is not doc
        assert twin._derived == {} and sorted(doc._derived) == ["compiler", "tokens"]
        assert self.use(twin)[1] == links
        assert tokenized_schema(twin).text == tokens.text


class TestSchemaFromJson:
    def test_round_trip(self, concert_schema):
        assert SchemaDocument.from_json(concert_schema.to_json()) == concert_schema

    @pytest.mark.parametrize("obj,message", [
        ({}, "schema: missing key 'tables'"),
        ([1, 2], "schema: expected an object"),
        ({"tables": [{"columns": []}]}, "table 0: missing key 'name'"),
        ({"tables": [{"name": "t"}]}, "table 't': missing key 'columns'"),
        ({"tables": [{"name": "t", "columns": [{"type": "TEXT"}]}]},
         "column 0 of table 't': missing key 'name'"),
        ({"tables": ["t"]}, "table 0: expected an object"),
        ({"tables": [{"name": 5, "columns": []}]}, "table 0, key 'name': expected a string"),
        ({"tables": [{"name": "t", "columns": [{"name": 5}]}]},
         "column 0 of table 't', key 'name': expected a string"),
        ({"tables": [{"name": "t", "columns": [{"name": "a", "type": 5}]}]},
         "column 0 of table 't', key 'type': expected a string"),
        ({"tables": [{"name": "t", "columns": [{"name": "a", "examples": [1]}]}]},
         "column 0 of table 't', key 'examples': expected a list of strings"),
        ({"tables": [{"name": "t", "columns": [], "primary_key": "a"}]},
         "table 't', key 'primary_key': expected a list of strings"),
        ({"tables": [{"name": "t", "columns": [],
                      "foreign_keys": [["a", "u", "b"], ["a", "u"]]}]},
         "table 't', foreign key 1: expected a list of 3 strings"),
        ({"tables": [{"name": "t", "columns": [], "foreign_keys": [["a"]]}]},
         "table 't', foreign key 0: expected a list of 3 strings"),
        ({"tables": [{"name": "t", "columns": [], "foreign_keys": [["a", "u", 1]]}]},
         "table 't', foreign key 0: expected a list of 3 strings"),
        ({"tables": 5}, "schema, key 'tables': expected a list"),
        ({"tables": [{"name": "t", "columns": 5}]}, "table 't', key 'columns': expected a list"),
        ({"tables": [{"name": "t", "columns": [], "foreign_keys": {"a": "b"}}]},
         "table 't', key 'foreign_keys': expected a list"),
        ({"tables": []}, "schema: lists no tables"),
        ({"tables": [{"name": "t", "columns": []}]}, "table 't': lists no columns"),
    ], ids=["no-tables", "not-an-object", "table-without-name", "table-without-columns",
            "column-without-name", "table-not-an-object", "table-name-not-a-string",
            "column-name-not-a-string", "type-not-a-string", "example-not-a-string",
            "primary-key-not-a-list", "foreign-key-of-two", "foreign-key-of-one",
            "foreign-key-entry-not-a-string", "tables-not-a-list", "columns-not-a-list",
            "foreign-keys-not-a-list", "empty-tables", "empty-columns"])
    def test_shape_error_names_the_entry_and_key(self, obj, message):
        with pytest.raises(InvalidSchema, match=re.escape(message)):
            SchemaDocument.from_json(obj)


class TestValueSampling:
    def setup_db(self, db, rows):
        db.execute("CREATE TABLE t (v)")
        db.executemany("INSERT INTO t VALUES (?)", [(r,) for r in rows])

    def test_distinct_first_seen(self, memory_db):
        self.setup_db(memory_db, ["A", "A", "B", "C"])
        assert sample_value_examples(memory_db, "t", "v") == ["'A'", "'B'"]

    def test_empty_column(self, memory_db):
        self.setup_db(memory_db, [])
        assert sample_value_examples(memory_db, "t", "v") == []

    def test_single_value(self, memory_db):
        self.setup_db(memory_db, [42])
        assert sample_value_examples(memory_db, "t", "v") == ["42"]

    def test_nulls_skipped(self, memory_db):
        self.setup_db(memory_db, [None, None, 7])
        assert sample_value_examples(memory_db, "t", "v") == ["7"]

    def test_string_quoting(self, memory_db):
        self.setup_db(memory_db, ["it's"])
        assert sample_value_examples(memory_db, "t", "v") == ["'it''s'"]

    def test_identifiers_with_quotes(self, memory_db):
        """Names are quoted as `sqlscope` quotes them: a column `na"me` of a
        table `t"1` is read, not cut at its quote."""
        memory_db.execute('CREATE TABLE "t""1" ("na""me")')
        memory_db.execute('INSERT INTO "t""1" VALUES (5)')
        assert sample_value_examples(memory_db, 't"1', 'na"me') == ["5"]

    @pytest.mark.parametrize("table,column,error", [
        ("t", "nope", "no such column: t.nope"), ("u", "v", "no such table: u")],
        ids=["no-column", "no-table"])
    def test_error_names_the_table_and_column(self, memory_db, table, column, error):
        """A missing column is an error, not its name read back as a value."""
        self.setup_db(memory_db, [1])
        with pytest.raises(DbError) as e:
            sample_value_examples(memory_db, table, column)
        assert str(e.value) == f"table {table!r}, column {column!r}: {error}"


def labelled(schema, gold_sql):
    """A training example over `schema` labelled by `gold_sql`'s links."""
    text, _ = serialize_schema(schema)
    vocab = build_vocab([PREFIX_TEMPLATE.format(question="q"), text, gold_sql])
    return build_training_example("q", schema, gold_sql, vocab, "ex")


def marker_order(example):
    return [(t, c) for t, c, _ in example.seg.marker_columns]


class TestLabelVector:
    """`TrainingExample.label`: one entry per column marker, read off the
    markers in the order the linking loss pairs them with."""

    def test_empty_links(self, concert_schema):
        n = sum(len(t.columns) for t in concert_schema.tables)
        text, _ = serialize_schema(concert_schema)
        shell = prepare_inference_example("q", concert_schema, build_vocab([text]))
        assert shell.label == [0] * n

    def test_all_links(self, concert_schema):
        columns = [(t.name, c.name) for t in concert_schema.tables for c in t.columns]
        example = labelled(concert_schema, "SELECT " + " , ".join(
            f"{t} . {c}" for t, c in columns) + " FROM singer JOIN concert JOIN stadium "
            "JOIN singer_in_concert")
        n = len(example.link)
        assert n == len(columns)
        assert example.label == [1] * n

    def test_one_hot(self, concert_schema):
        example = labelled(concert_schema, "SELECT name FROM singer")
        vec = example.label
        assert sum(vec) == 1
        assert vec[marker_order(example).index(("singer", "name"))] == 1

    def test_unknown_link_rejected(self, concert_schema):
        with pytest.raises(UnknownColumn):
            labelled(concert_schema, "SELECT bogus FROM singer")

    def test_order_matches_serialization(self, concert_schema):
        _, spans = serialize_schema(concert_schema)
        ser_order = [(t, c) for t, ts in spans.tables.items() for c in ts.markers]
        example = labelled(concert_schema, "SELECT name FROM singer")
        assert ser_order == marker_order(example) == [
            (t.name.lower(), c.name.lower()) for t in concert_schema.tables
            for c in t.columns]
        assert example.label == [int(col in example.link) for col in ser_order]
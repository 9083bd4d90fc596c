import pytest

from joltsql.errors import UnknownColumn
from joltsql.schema import (MARKER_TEXT, Column, SchemaDocument, Table,
                            label_vector, sample_value_examples,
                            serialize_schema)


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
        assert len(spans.marker_positions()) == total_cols

    def test_pure_function(self, concert_schema):
        assert serialize_schema(concert_schema)[0] == serialize_schema(concert_schema)[0]

    def test_empty_examples_rendered_none(self):
        doc = one_table([Column("id", "INTEGER")])
        text, _ = serialize_schema(doc)
        assert "-- examples: None" in text


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


class TestLabelVector:
    def test_empty_links(self, concert_schema):
        n = sum(len(t.columns) for t in concert_schema.tables)
        assert label_vector(set(), concert_schema) == [0] * n

    def test_all_links(self, concert_schema):
        links = set(concert_schema.all_columns())
        n = len(links)
        assert label_vector(links, concert_schema) == [1] * n

    def test_one_hot(self, concert_schema):
        vec = label_vector({("singer", "name")}, concert_schema)
        assert sum(vec) == 1
        assert vec[concert_schema.all_columns().index(("singer", "name"))] == 1

    def test_unknown_link_rejected(self, concert_schema):
        with pytest.raises(UnknownColumn):
            label_vector({("singer", "bogus")}, concert_schema)

    def test_order_matches_serialization(self, concert_schema):
        _, spans = serialize_schema(concert_schema)
        ser_order = [(t, c) for t, c, _ in spans.marker_positions()]
        assert ser_order == concert_schema.all_columns()

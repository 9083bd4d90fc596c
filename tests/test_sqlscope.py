import gc
import sqlite3

import pytest

from joltsql import sqlscope
from joltsql.errors import (AmbiguousColumn, InvalidSchema, SqlSyntaxError, UnknownColumn,
                            UnknownTable)
from joltsql.schema import Column, SchemaDocument, Table
from joltsql.sqlscope import extract_ground_truth

# 25+ hand-labeled queries against the concert_singer-style fixture schema.
HAND_LABELED = [
    ("SELECT name FROM singer", {"singer.name"}),
    ("SELECT T1.name FROM singer AS T1", {"singer.name"}),
    ("SELECT name, age FROM singer WHERE age > 30", {"singer.name", "singer.age"}),
    ("SELECT * FROM stadium",
     {"stadium.id", "stadium.name", "stadium.capacity", "stadium.city"}),
    ("SELECT count(*) FROM concert WHERE year > 2000", {"concert.year"}),
    ("SELECT T1.name FROM singer AS T1 JOIN singer_in_concert AS T2 ON T1.id = T2.singer_id",
     {"singer.name", "singer.id", "singer_in_concert.singer_id"}),
    ("SELECT s.name, c.year FROM singer AS s "
     "JOIN singer_in_concert AS sic ON s.id = sic.singer_id "
     "JOIN concert AS c ON sic.concert_id = c.id",
     {"singer.name", "concert.year", "singer.id", "singer_in_concert.singer_id",
      "singer_in_concert.concert_id", "concert.id"}),
    ("SELECT name FROM singer WHERE id IN (SELECT singer_id FROM singer_in_concert)",
     {"singer.name", "singer.id", "singer_in_concert.singer_id"}),
    ("SELECT name FROM stadium WHERE capacity > (SELECT avg(capacity) FROM stadium)",
     {"stadium.name", "stadium.capacity"}),
    ("SELECT name FROM singer WHERE EXISTS "
     "(SELECT 1 FROM singer_in_concert WHERE singer_in_concert.singer_id = singer.id)",
     {"singer.name", "singer_in_concert.singer_id", "singer.id"}),
    ("SELECT age FROM singer UNION SELECT capacity FROM stadium",
     {"singer.age", "stadium.capacity"}),
    # a compound's ORDER BY names an output column of either SELECT
    ("SELECT age FROM singer UNION SELECT capacity FROM stadium ORDER BY age",
     {"singer.age", "stadium.capacity"}),
    ("SELECT age FROM singer UNION SELECT capacity FROM stadium ORDER BY capacity",
     {"singer.age", "stadium.capacity"}),
    ("SELECT name FROM singer INTERSECT SELECT name FROM stadium",
     {"singer.name", "stadium.name"}),
    ("SELECT city FROM stadium EXCEPT SELECT city FROM stadium WHERE capacity < 5000",
     {"stadium.city", "stadium.capacity"}),
    ("SELECT year, count(*) FROM concert GROUP BY year HAVING count(*) > 1",
     {"concert.year"}),
    ("SELECT name FROM stadium ORDER BY capacity DESC LIMIT 3",
     {"stadium.name", "stadium.capacity"}),
    ("SELECT DISTINCT country FROM singer", {"singer.country"}),
    ("SELECT T2.name FROM concert AS T1 JOIN stadium AS T2 ON T1.stadium_id = T2.id "
     "WHERE T1.year = 2014",
     {"stadium.name", "concert.stadium_id", "stadium.id", "concert.year"}),
    ("SELECT avg(age), min(age), max(age) FROM singer", {"singer.age"}),
    ("SELECT name FROM singer WHERE age = (SELECT max(age) FROM singer)",
     {"singer.name", "singer.age"}),
    ("SELECT stadium.name, count(*) FROM concert "
     "JOIN stadium ON concert.stadium_id = stadium.id GROUP BY stadium.name",
     {"stadium.name", "concert.stadium_id", "stadium.id"}),
    ("SELECT name FROM singer WHERE country = 'France' AND age BETWEEN 20 AND 40",
     {"singer.name", "singer.country", "singer.age"}),
    ("SELECT T1.* FROM singer AS T1 JOIN singer_in_concert AS T2 ON T1.id = T2.singer_id",
     {"singer.id", "singer.name", "singer.age", "singer.country",
      "singer_in_concert.singer_id"}),
    ("SELECT name FROM stadium WHERE id NOT IN "
     "(SELECT stadium_id FROM concert WHERE year = 2014)",
     {"stadium.name", "stadium.id", "concert.stadium_id", "concert.year"}),
    ("SELECT country, count(*) FROM singer GROUP BY country "
     "ORDER BY count(*) DESC LIMIT 1",
     {"singer.country"}),
    # ORDER BY inside a subquery counts as referenced
    ("SELECT year FROM concert WHERE stadium_id = "
     "(SELECT id FROM stadium ORDER BY capacity DESC LIMIT 1)",
     {"concert.year", "concert.stadium_id", "stadium.id", "stadium.capacity"}),
    ("SELECT name FROM singer WHERE NOT age < 30", {"singer.name", "singer.age"}),
    ("SELECT sic.singer_id FROM singer_in_concert AS sic WHERE sic.concert_id IN "
     "(SELECT id FROM concert WHERE year > 2010)",
     {"singer_in_concert.singer_id", "singer_in_concert.concert_id",
      "concert.id", "concert.year"}),
    # a parenthesized subquery may be a compound, with its own ORDER BY/LIMIT
    ("SELECT name FROM singer WHERE id IN "
     "(SELECT id FROM singer UNION SELECT id FROM stadium)",
     {"singer.name", "singer.id", "stadium.id"}),
    ("SELECT name FROM stadium WHERE EXISTS (SELECT stadium_id FROM concert "
     "WHERE concert.stadium_id = stadium.id EXCEPT SELECT id FROM singer)",
     {"stadium.name", "concert.stadium_id", "stadium.id", "singer.id"}),
    ("SELECT name FROM singer WHERE age = "
     "(SELECT age FROM singer INTERSECT SELECT capacity FROM stadium)",
     {"singer.name", "singer.age", "stadium.capacity"}),
    ("SELECT name FROM stadium WHERE capacity IN "
     "(SELECT capacity FROM stadium UNION SELECT age FROM singer ORDER BY 1 LIMIT 3)",
     {"stadium.name", "stadium.capacity", "singer.age"}),
    # a compound's ORDER BY repeats an expression with its references
    # resolved in each SELECT's scope: the qualifier may differ
    ("SELECT max(age) FROM singer UNION SELECT capacity FROM stadium "
     "ORDER BY max(singer.age)",
     {"singer.age", "stadium.capacity"}),
    ("SELECT max(T1.age) FROM singer AS T1 UNION SELECT capacity FROM stadium "
     "ORDER BY max(age)",
     {"singer.age", "stadium.capacity"}),
    ("SELECT count(*) FROM concert UNION SELECT max(capacity) FROM stadium "
     "ORDER BY max(stadium.capacity)",
     {"stadium.capacity"}),
    ("SELECT age + 1 FROM singer AS s UNION SELECT capacity FROM stadium "
     "ORDER BY s.age + 1",
     {"singer.age", "stadium.capacity"}),
    # compound, quantifier, comma join, grouping, ordering and limit forms
    ("SELECT name FROM singer UNION ALL SELECT name FROM stadium",
     {"singer.name", "stadium.name"}),
    ("SELECT ALL name FROM singer", {"singer.name"}),
    ("SELECT T1.name FROM singer AS T1, concert AS T2 WHERE T1.id = T2.id",
     {"singer.name", "singer.id", "concert.id"}),
    ("SELECT country, age FROM singer GROUP BY country, age",
     {"singer.country", "singer.age"}),
    ("SELECT name FROM singer ORDER BY age DESC, name", {"singer.name", "singer.age"}),
    ("SELECT name FROM stadium LIMIT 3 OFFSET 1", {"stadium.name"}),
    ("SELECT singer.name FROM singer LEFT JOIN singer_in_concert "
     "ON singer.id = singer_in_concert.singer_id",
     {"singer.name", "singer.id", "singer_in_concert.singer_id"}),
    ("SELECT singer.name FROM singer INNER JOIN singer_in_concert "
     "ON singer.id = singer_in_concert.singer_id",
     {"singer.name", "singer.id", "singer_in_concert.singer_id"}),
    ("SELECT name FROM singer WHERE country = NULL", {"singer.name", "singer.country"}),
    ("SELECT count(DISTINCT country) FROM singer", {"singer.country"}),
    ("SELECT substr(name, 1, 3) FROM singer", {"singer.name"}),
    # the keys of USING and NATURAL joins, read on both sides
    ("SELECT singer.name FROM singer JOIN concert USING (id)",
     {"singer.name", "singer.id", "concert.id"}),
    ("SELECT singer.age FROM singer NATURAL JOIN concert",
     {"singer.age", "singer.id", "singer.name", "concert.id", "concert.name"}),
]


def as_pairs(names: set[str]) -> set[tuple[str, str]]:
    return {tuple(n.split(".")) for n in names}


@pytest.mark.parametrize("sql,expected", HAND_LABELED, ids=range(len(HAND_LABELED)))
def test_hand_labeled_links(concert_schema, sql, expected):
    assert extract_ground_truth(sql, concert_schema) == as_pairs(expected)


class TestParse:
    def test_malformed_offset_zero(self, concert_schema):
        with pytest.raises(SqlSyntaxError, match='near "SELEC"'):
            extract_ground_truth("SELEC x FRM t", concert_schema)

    def test_empty_rejected(self, concert_schema):
        with pytest.raises(SqlSyntaxError):
            extract_ground_truth("   ", concert_schema)

    def test_cte_links(self, concert_schema):
        assert extract_ground_truth("WITH x AS (SELECT name FROM singer) SELECT name FROM x",
                                    concert_schema) == {("singer", "name")}

    def test_window_links(self, concert_schema):
        assert extract_ground_truth("SELECT rank() OVER (ORDER BY age) FROM singer",
                                    concert_schema) == {("singer", "age")}

    def test_derived_table_links(self, concert_schema):
        assert extract_ground_truth("SELECT a FROM (SELECT name AS a, age FROM singer)",
                                    concert_schema) == as_pairs({"singer.name", "singer.age"})

    def test_trailing_garbage(self, concert_schema):
        with pytest.raises(SqlSyntaxError):
            extract_ground_truth("SELECT name FROM singer xyz zzz", concert_schema)

    def test_compound_order_by_binds_to_compound(self, concert_schema):
        # bound to the right SELECT alone, `age` would name no stadium column
        sql = ("SELECT age FROM singer UNION SELECT capacity FROM stadium "
               "ORDER BY age LIMIT 3")
        assert extract_ground_truth(sql, concert_schema) == \
            as_pairs({"singer.age", "stadium.capacity"})

    @pytest.mark.parametrize("clause", ["ORDER BY age", "LIMIT 1"])
    def test_order_by_before_union_rejected(self, concert_schema, clause):
        sql = f"SELECT age FROM singer {clause} UNION SELECT capacity FROM stadium"
        with pytest.raises(SqlSyntaxError, match="should come after UNION"):
            extract_ground_truth(sql, concert_schema)

    def test_subquery_order_by_before_union_rejected(self, concert_schema):
        sql = ("SELECT name FROM singer WHERE id IN "
               "(SELECT id FROM singer ORDER BY id UNION SELECT id FROM stadium)")
        with pytest.raises(SqlSyntaxError, match="should come after UNION"):
            extract_ground_truth(sql, concert_schema)

    @pytest.mark.parametrize("sql", ["  -- gold\nSELECT name FROM singer",
                                     "/* gold */ select name FROM singer"])
    def test_leading_comment_ok(self, concert_schema, sql):
        assert extract_ground_truth(sql, concert_schema) == {("singer", "name")}

    def test_trailing_semicolon_ok(self, concert_schema):
        assert extract_ground_truth("SELECT name FROM singer;", concert_schema) == \
            {("singer", "name")}

    def test_deterministic(self, concert_schema):
        sql = "SELECT name FROM singer WHERE age > 30"
        assert extract_ground_truth(sql, concert_schema) == \
            extract_ground_truth(sql, concert_schema)


class TestResolve:
    def test_join_refs(self, concert_schema):
        sql = ("SELECT T1.name FROM singer AS T1 "
               "JOIN concert AS T2 ON T1.id = T2.stadium_id")
        links = extract_ground_truth(sql, concert_schema)
        assert links == {("singer", "name"), ("singer", "id"),
                         ("concert", "stadium_id")}

    def test_ambiguous_column(self, concert_schema):
        with pytest.raises(AmbiguousColumn):
            extract_ground_truth(
                "SELECT name FROM singer JOIN stadium ON singer.id = stadium.id",
                concert_schema)

    def test_unknown_table(self, concert_schema):
        with pytest.raises(UnknownTable):
            extract_ground_truth("SELECT x FROM nonexistent", concert_schema)

    def test_unknown_column(self, concert_schema):
        with pytest.raises(UnknownColumn):
            extract_ground_truth("SELECT bogus FROM singer", concert_schema)

    def test_unknown_qualifier(self, concert_schema):
        with pytest.raises(UnknownColumn, match="T9.name"):
            extract_ground_truth("SELECT T9.name FROM singer AS T1", concert_schema)

    def test_correlated_subquery_outer_scope(self, concert_schema):
        sql = ("SELECT name FROM singer WHERE EXISTS "
               "(SELECT 1 FROM concert WHERE concert.stadium_id = singer.id)")
        links = extract_ground_truth(sql, concert_schema)
        assert ("singer", "id") in links

    def test_inner_scope_shadows_outer(self, concert_schema):
        # unqualified `year` inside the subquery binds to concert, not outer
        sql = ("SELECT name FROM singer WHERE id IN "
               "(SELECT stadium_id FROM concert WHERE year > 2000)")
        links = extract_ground_truth(sql, concert_schema)
        assert ("concert", "year") in links

    def test_compound_order_by_unknown_output_column(self, concert_schema):
        with pytest.raises(UnknownColumn, match="result set"):
            extract_ground_truth(
                "SELECT age FROM singer UNION SELECT capacity FROM stadium ORDER BY name",
                concert_schema)

    @pytest.mark.parametrize("sql", [
        # position, alias, qualified column, repeated expression
        "SELECT age FROM singer UNION SELECT capacity FROM stadium ORDER BY 1",
        "SELECT age AS a FROM singer UNION SELECT capacity FROM stadium ORDER BY a",
        "SELECT age FROM singer UNION SELECT capacity FROM stadium ORDER BY singer.age",
        "SELECT max(age) FROM singer UNION SELECT capacity FROM stadium ORDER BY max(age)",
        # a repeated expression matches in any identifier case
        "SELECT max(age) FROM singer UNION SELECT capacity FROM stadium ORDER BY MAX(Age)",
        "SELECT max(T1.age) FROM singer AS T1 UNION SELECT capacity FROM stadium "
        "ORDER BY MAX(t1.AGE)",
    ])
    def test_compound_order_by_output_column_forms(self, concert_schema, sql):
        assert extract_ground_truth(sql, concert_schema) == \
            as_pairs({"singer.age", "stadium.capacity"})

    def test_compound_order_by_star_column(self, concert_schema):
        sql = "SELECT * FROM singer UNION SELECT * FROM stadium ORDER BY city"
        assert extract_ground_truth(sql, concert_schema) == as_pairs(
            {"singer.id", "singer.name", "singer.age", "singer.country",
             "stadium.id", "stadium.name", "stadium.capacity", "stadium.city"})

    @pytest.mark.parametrize("term", ["2", "age + 1", "'age'", "max(singer.age)"])
    def test_compound_order_by_non_output_rejected(self, concert_schema, term):
        with pytest.raises(UnknownColumn):
            extract_ground_truth("SELECT age FROM singer UNION "
                                 f"SELECT capacity FROM stadium ORDER BY {term}",
                                 concert_schema)

    @pytest.mark.parametrize("item,term,accepted", [
        ("-age", "-age", True),
        ("age - 1", "age - 1", True),
        ("age BETWEEN 1 AND 2", "age BETWEEN 1 AND 2", True),
        ("age IS NULL", "age IS NULL", True),
        ("age IN (1, 2)", "age IN (1, 2)", True),
        ("NOT age", "NOT age", True),
        ("-age", "0 - age", False),
        ("age BETWEEN 1 AND 2", "age NOT BETWEEN 1 AND 2", False),
        ("age IS NULL", "age IS NOT NULL", False),
        ("age IN (1, 2)", "age NOT IN (1, 2)", False),
        ("name LIKE 'a'", "name NOT LIKE 'a'", False),
        # a nested query is never the same expression as another
        ("age IN (SELECT age FROM singer)", "age IN (SELECT age FROM singer)", False),
        ("EXISTS (SELECT 1 FROM singer)", "EXISTS (SELECT 1 FROM singer)", False),
        ("(SELECT max(age) FROM singer)", "(SELECT max(age) FROM singer)", False),
    ])
    def test_compound_order_by_operator_terms_match_as_sqlite(self, concert_schema, memory_db,
                                                              item, term, accepted):
        for table in ("singer", "stadium"):
            columns = ", ".join(f"{c.name} {c.sql_type}"
                                for c in concert_schema.table(table).columns)
            memory_db.execute(f"CREATE TABLE {table} ({columns})")
        sql = f"SELECT {item} FROM singer UNION SELECT capacity FROM stadium ORDER BY {term}"
        try:
            memory_db.execute(sql)
        except sqlite3.OperationalError:
            assert not accepted
            with pytest.raises(UnknownColumn, match="result set"):
                extract_ground_truth(sql, concert_schema)
        else:
            assert accepted
            assert ("stadium", "capacity") in extract_ground_truth(sql, concert_schema)

    def test_compound_order_by_string_literal_case_kept(self, concert_schema):
        sql = ("SELECT lower('A') FROM singer UNION SELECT capacity FROM stadium "
               "ORDER BY lower({})")
        assert extract_ground_truth(sql.format("'A'"), concert_schema) == \
            as_pairs({"stadium.capacity"})
        with pytest.raises(UnknownColumn):
            extract_ground_truth(sql.format("'a'"), concert_schema)

    def test_duplicate_alias_rejected(self, concert_schema):
        with pytest.raises(AmbiguousColumn):
            extract_ground_truth(
                "SELECT T1.name FROM singer AS T1 JOIN stadium AS T1 ON 1 = 1",
                concert_schema)

    @pytest.mark.parametrize("sql,expected", [
        ("SELECT CASE WHEN age > 30 THEN name ELSE country END FROM singer",
         {"singer.age", "singer.name", "singer.country"}),
        ("SELECT name, age AS a FROM singer ORDER BY a", {"singer.name", "singer.age"}),
    ])
    def test_forms_sqlite_resolves(self, concert_schema, sql, expected):
        assert extract_ground_truth(sql, concert_schema) == as_pairs(expected)

    @pytest.mark.parametrize("paired,explicit", [
        ("SELECT singer.name FROM singer JOIN concert USING (id)",
         "SELECT singer.name FROM singer JOIN concert ON singer.id = concert.id"),
        ("SELECT singer.age FROM singer NATURAL JOIN concert",
         "SELECT singer.age FROM singer JOIN concert "
         "ON singer.id = concert.id AND singer.name = concert.name"),
    ])
    def test_paired_join_links_the_keys_sqlite_joins_on(self, concert_schema, memory_db,
                                                        paired, explicit):
        """sqlite3 returns the rows of the join spelled out with ON, and the
        two spellings label alike."""
        for table in ("singer", "concert"):
            columns = ", ".join(f"{c.name} {c.sql_type}"
                                for c in concert_schema.table(table).columns)
            memory_db.execute(f"CREATE TABLE {table} ({columns})")
        memory_db.executemany("INSERT INTO singer VALUES (?, ?, ?, ?)",
                              [(1, "a", 30, "x"), (2, "b", 40, "y"), (3, "c", 50, "z")])
        memory_db.executemany("INSERT INTO concert VALUES (?, ?, ?, ?)",
                              [(1, "a", 2000, 1), (2, "q", 2001, 1), (4, "c", 2002, 2)])
        rows = sorted(memory_db.execute(paired))
        assert rows and rows == sorted(memory_db.execute(explicit))
        assert extract_ground_truth(paired, concert_schema) == \
            extract_ground_truth(explicit, concert_schema)

    def test_paired_join_keys_join_the_authorizer_reads(self, concert_schema):
        # the optimizer drops the derived table's singer.name from the program
        sql = "SELECT count(*) FROM (SELECT singer.name FROM singer JOIN concert USING (id))"
        assert extract_ground_truth(sql, concert_schema) == \
            as_pairs({"singer.name", "singer.id", "concert.id"})

    def test_sqlite_master_is_not_a_schema_table(self, concert_schema):
        with pytest.raises(UnknownTable, match="sqlite_master"):
            extract_ground_truth("SELECT name FROM sqlite_master", concert_schema)


class TestReadOnly:
    @pytest.mark.parametrize("sql", [
        "DELETE FROM singer",
        "DROP TABLE singer",
        "INSERT INTO singer (name) VALUES ('x')",
        "UPDATE singer SET age = 1",
        "CREATE TABLE t (a)",
        "PRAGMA user_version = 1",
        "BEGIN",
        "SELECT name FROM singer; DROP TABLE singer",
        "ATTACH '{tmp}/attached.db' AS other",
        "VACUUM INTO '{tmp}/vacuumed.db'",
        "VACUUM INTO (SELECT '{tmp}/vacuumed.db' FROM singer)",
        "REINDEX",
    ])
    def test_non_select_refused_without_running(self, concert_schema, tmp_path, sql):
        with pytest.raises(SqlSyntaxError):
            extract_ground_truth(sql.format(tmp=tmp_path), concert_schema)
        assert list(tmp_path.iterdir()) == []
        assert extract_ground_truth("SELECT name FROM singer", concert_schema) == \
            {("singer", "name")}

    @pytest.mark.parametrize("table", [Table("empty", ()),
                                       Table("sqlite_stat", (Column("a", "TEXT"),))])
    def test_schema_sqlite_cannot_create_rejected(self, table):
        schema = SchemaDocument((Table("ok", (Column("a", "TEXT"),)), table))
        with pytest.raises(InvalidSchema, match=table.name):
            extract_ground_truth("SELECT a FROM ok", schema)

    def test_quotes_in_names_doubled(self):
        schema = SchemaDocument((Table('odd"name', (Column('c"1', "TEXT"),)),))
        assert extract_ground_truth('SELECT "c""1" FROM "odd""name"', schema) == \
            {('odd"name', 'c"1')}

    def test_connection_closed_with_its_schema(self):
        schema = SchemaDocument((Table("t", (Column("a", "TEXT"),)),))
        assert extract_ground_truth("SELECT a FROM t", schema) == {("t", "a")}
        conn = schema._derived["compiler"][0]
        del schema
        gc.collect()
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            conn.execute("SELECT 1")


class TestProperties:
    def test_alias_transparency(self, concert_schema):
        a = ("SELECT T1.name FROM singer AS T1 "
             "JOIN singer_in_concert AS T2 ON T1.id = T2.singer_id")
        b = ("SELECT foo.name FROM singer AS foo "
             "JOIN singer_in_concert AS bar ON foo.id = bar.singer_id")
        assert extract_ground_truth(a, concert_schema) == \
            extract_ground_truth(b, concert_schema)

    def test_case_insensitive(self, concert_schema):
        assert extract_ground_truth("select NAME from SINGER", concert_schema) == \
            {("singer", "name")}

    def test_soundness(self, concert_schema):
        for sql, _ in HAND_LABELED:
            for table, column in extract_ground_truth(sql, concert_schema):
                assert concert_schema.has_column(table, column)

    def test_union_is_clause_union(self, concert_schema):
        left = "SELECT age FROM singer"
        right = "SELECT capacity FROM stadium"
        combined = extract_ground_truth(f"{left} UNION {right}", concert_schema)
        assert combined == (extract_ground_truth(left, concert_schema)
                            | extract_ground_truth(right, concert_schema))

    def test_star_conjunction_flattening(self, concert_schema):
        # link set of the whole query equals the union over its clauses
        full = extract_ground_truth(
            "SELECT name FROM stadium WHERE capacity > 10 ORDER BY city",
            concert_schema)
        parts = [
            extract_ground_truth("SELECT name FROM stadium", concert_schema),
            extract_ground_truth("SELECT capacity FROM stadium", concert_schema),
            extract_ground_truth("SELECT city FROM stadium", concert_schema),
        ]
        assert full == set().union(*parts)


class TestLinksMemo:
    def test_desk_corpus_compiles_each_distinct_gold_query_once(self, monkeypatch, tmp_path):
        """Generating the seed-3 desk corpus and loading its train split
        builds 1,100 examples over 272 distinct (database, gold SQL) pairs;
        each pair compiles once. SQLite's trace callback never fires for an
        EXPLAIN, so the compiles are counted at the connection."""
        from joltsql.corpus import CorpusConfig, generate_corpus
        from joltsql.jsonfile import iter_jsonl
        from joltsql.pipeline import load_corpus
        from joltsql.tokenizer import Vocab

        compiled = []

        class CountingConnection:
            def __init__(self, conn):
                self.conn = conn

            def execute(self, sql):
                compiled.append(sql)
                return self.conn.execute(sql)

        compiler = sqlscope._compiler

        def counting_compiler(schema):
            conn, *rest = compiler(schema)
            return (CountingConnection(conn), *rest)
        monkeypatch.setattr(sqlscope, "_compiler", counting_compiler)
        generated = generate_corpus(CorpusConfig(seed=3), str(tmp_path))
        train = load_corpus(generated.train_path, Vocab.load(generated.vocab_path),
                            generated.schemas)
        pairs = {(r["db_id"], r["gold_sql"])
                 for path in (generated.train_path, generated.dev_path)
                 for r in iter_jsonl(path)}
        assert len(train) == 500 and len(pairs) == 272
        assert len(compiled) == len(pairs)
        assert all(sql.startswith("EXPLAIN ") for sql in compiled)

    def test_returned_set_is_fresh(self, concert_schema):
        sql = "SELECT name FROM singer WHERE age > 30"
        first = extract_ground_truth(sql, concert_schema)
        first.add(("singer", "country"))
        first.discard(("singer", "name"))
        assert extract_ground_truth(sql, concert_schema) == {("singer", "name"),
                                                             ("singer", "age")}

    @pytest.mark.parametrize("sql,error,message", [
        ("SELECT nosuch FROM singer", UnknownColumn, "no such column: nosuch"),
        ("SELECT name FROM", SqlSyntaxError, "incomplete input"),
        ("VACUUM", SqlSyntaxError, "not a SELECT statement")],
        ids=["unknown-column", "syntax", "compiles-but-not-a-select"])
    def test_error_raises_on_every_call(self, concert_schema, sql, error, message):
        for _ in range(3):
            with pytest.raises(error, match=message):
                extract_ground_truth(sql, concert_schema)

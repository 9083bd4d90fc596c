import json
import sqlite3
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from joltsql import corpus as corpus_mod
from joltsql.corpus import (CorpusConfig, corpus_stats, generate_corpus,
                            load_schemas)
from joltsql.errors import ConfigError, DegenerateExample
from joltsql.jsonfile import iter_jsonl
from joltsql.model import ModelConfig
from joltsql.pipeline import (PREFIX_TEMPLATE, build_training_example, example_length,
                              load_corpus, tokenized_schema)
from joltsql.schema import Column, SchemaDocument, Table, serialize_schema
from joltsql.tokenizer import Vocab, build_vocab, decode


def example_record(ex) -> dict:
    """The corpus record of a built example, read off the example: the
    slow reference for the record the corpus writer writes without
    building it."""
    return {"example_id": ex.example_id, "db_id": ex.db_id, "question": ex.question,
            "gold_sql": ex.gold_sql, "link": sorted(f"{t}.{c}" for t, c in ex.link),
            "label": ex.label}


def tiny_config(**kw):
    defaults = dict(num_databases=3, tables_per_db=(2, 2),
                    columns_per_table=(4, 5), rows_per_table=(5, 8),
                    examples_per_db=5, split=0.8, seed=11)
    defaults.update(kw)
    return CorpusConfig(**defaults)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    return generate_corpus(tiny_config(), str(out))


class TestGeneration:
    def test_split_sizes(self, corpus):
        with open(corpus.train_path) as f:
            n_train = sum(1 for line in f if line.strip())
        with open(corpus.dev_path) as f:
            n_dev = sum(1 for line in f if line.strip())
        assert n_train == 12 and n_dev == 3

    def test_deterministic_bytes(self, corpus, tmp_path):
        again = generate_corpus(tiny_config(), str(tmp_path / "again"))
        for a, b in ((corpus.train_path, again.train_path),
                     (corpus.dev_path, again.dev_path),
                     (corpus.vocab_path, again.vocab_path)):
            assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_gold_sql_executes(self, corpus):
        with open(corpus.train_path) as f:
            records = [json.loads(line) for line in f if line.strip()]
        for rec in records:
            conn = sqlite3.connect(corpus.db_paths[rec["db_id"]])
            try:
                conn.execute(rec["gold_sql"]).fetchall()
            finally:
                conn.close()

    def test_every_example_has_positive_label(self, corpus):
        for path in (corpus.train_path, corpus.dev_path):
            with open(path) as f:
                for line in f:
                    if line.strip():
                        assert sum(json.loads(line)["label"]) >= 1

    def test_examples_load_and_round_trip(self, corpus):
        vocab = Vocab.load(corpus.vocab_path)
        schemas = load_schemas(corpus.schema_dir)
        examples = load_corpus(corpus.train_path, vocab, schemas)
        assert len(examples) == 12
        for ex in examples:
            seg = ex.seg
            assert [*seg.prefix, *seg.schema, *seg.query] == list(range(seg.n))
            assert seg.markers <= set(seg.schema)
            assert len(ex.label) == len(ex.seg.marker_columns)

    @pytest.mark.parametrize("fraction", [1.0, 0.5, 0.001])
    def test_streamed_load_equals_reading_the_whole_file(self, corpus, fraction):
        vocab = Vocab.load(corpus.vocab_path)
        schemas = load_schemas(corpus.schema_dir)
        with open(corpus.train_path) as f:
            records = [json.loads(line) for line in f if line.strip()]
        if fraction < 1.0:
            records = records[:max(1, int(len(records) * fraction))]
        want = [example_record(build_training_example(
            r["question"], schemas[r["db_id"]], r["gold_sql"], vocab, r["example_id"],
            r["db_id"])) for r in records]
        got = load_corpus(corpus.train_path, vocab, schemas, fraction=fraction)
        assert [example_record(ex) for ex in got] == want
        assert len(want) == {1.0: 12, 0.5: 6, 0.001: 1}[fraction]

    def test_one_schema_encoding_per_database(self, tmp_path, monkeypatch):
        """Generating a corpus and loading both splits with its schema
        documents serializes and tokenizes each database's schema once: the
        examples over a database share its document's tokenized schema. A
        document read back from the schema files is another document, so
        it tokenizes again."""
        calls = Counter()
        for name in ("serialize_schema", "tokenize_schema"):
            original = getattr(sys.modules["joltsql.pipeline"], name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)
            for module in [m for n, m in sys.modules.items() if n.startswith("joltsql")]:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        generated = generate_corpus(tiny_config(seed=41), str(tmp_path))
        vocab = Vocab.load(generated.vocab_path)
        splits = (generated.train_path, generated.dev_path)
        loaded = [load_corpus(path, vocab, generated.schemas) for path in splits]
        assert [len(examples) for examples in loaded] == [12, 3]
        assert calls == {"serialize_schema": 3, "tokenize_schema": 3}
        schemas = load_schemas(generated.schema_dir)
        for path in splits:
            load_corpus(path, vocab, schemas)
        assert calls == {"serialize_schema": 6, "tokenize_schema": 6}

    def test_schema_files_match_memory(self, corpus):
        loaded = load_schemas(corpus.schema_dir)
        assert set(loaded) == set(corpus.schemas)
        for db_id, doc in corpus.schemas.items():
            assert loaded[db_id] == doc

    def test_question_mentions_schema_words(self, corpus):
        # every question names at least one table of its database
        with open(corpus.train_path) as f:
            for line in f:
                if not line.strip():
                    continue
                rec = json.loads(line)
                tables = {t.name for t in corpus.schemas[rec["db_id"]].tables}
                assert any(t in rec["question"].split() for t in tables)


class TestRecords:
    """The record line the corpus writer writes for each example."""

    GOLD = "SELECT name FROM singer WHERE age > 30"
    QUESTION = "what is the name of singers older than 30 ?"

    @pytest.fixture(scope="class")
    def concert(self, concert_schema):
        """A concert example and its vocab."""
        text, _ = serialize_schema(concert_schema)
        vocab = build_vocab([PREFIX_TEMPLATE.format(question=self.QUESTION), self.GOLD, text])
        return build_training_example(self.QUESTION, concert_schema, self.GOLD, vocab,
                                      "ex-0", "db-0"), vocab

    def test_json_round_trip(self, concert, concert_schema):
        example, vocab = concert
        rec = example_record(example)
        clone = build_training_example(rec["question"], concert_schema, rec["gold_sql"],
                                       vocab, rec["example_id"], rec["db_id"])
        assert clone.tokens.ids == example.tokens.ids
        assert clone.link == example.link
        assert clone.label == example.label
        assert clone.seg.marker_columns == example.seg.marker_columns
        assert clone.seg.query == example.seg.query

    def test_json_fields_present(self, corpus):
        for path in (corpus.train_path, corpus.dev_path):
            for rec in iter_jsonl(path):
                assert list(rec) == ["example_id", "db_id", "question", "gold_sql",
                                     "link", "label"]

    def test_link_serialized_sorted_dotted(self, concert):
        rec = example_record(concert[0])
        assert rec["link"] == ["singer.age", "singer.name"]

    def test_fk_spans_keep_serialization_order(self):
        """With 12 foreign keys, fk 10 and 11 follow fk 9 in the example's
        token spans, as in the text."""
        parents = [Table(f"p{i}", (Column("id", "INTEGER"),), primary_key=("id",))
                   for i in range(12)]
        child = Table("child",
                      (Column("id", "INTEGER"),
                       *(Column(f"p{i}_id", "INTEGER") for i in range(12))),
                      primary_key=("id",),
                      foreign_keys=tuple((f"p{i}_id", f"p{i}", "id") for i in range(12)))
        doc = SchemaDocument((child, *parents))
        gold = "SELECT p11_id FROM child"
        text, _ = serialize_schema(doc)
        vocab = build_vocab([gold, text])
        ex = build_training_example("which parent ?", doc, gold, vocab, "fk-0")
        base = ex.seg.schema_start
        fk = [(base + a, base + b) for a, b in ex.seg.table_elements["child"].fk]
        assert len(fk) == 12
        for i, (a, b) in enumerate(fk):
            assert decode(ex.tokens.ids[a:b], vocab).startswith(
                f"FOREIGN KEY ( p{i}_id )")

    def test_parent_record_loads_into_the_same_example(self, concert, concert_schema,
                                                       tmp_path):
        """A record as written before the layout left the corpus lines, with
        the schema text and spans repeated in twelve keys, loads into the
        example its six-key line loads into."""
        example, vocab = concert
        rec = example_record(example)
        schema = tokenized_schema(concert_schema)
        prefix_text = PREFIX_TEMPLATE.format(question=example.question)
        base = example.seg.schema_start
        token_spans = {t: {k: v for k, v in vars(ts.map(lambda s: [base + s[0], base + s[1]]))
                           .items() if k != "markers"}
                       for t, ts in schema.tables.items()}
        parent = {"example_id": rec["example_id"], "db_id": rec["db_id"],
                  "question": rec["question"],
                  "text": prefix_text + "\n" + schema.text + "\n" + example.gold_sql,
                  "prefix_text": prefix_text, "schema_text": schema.text,
                  "gold_sql": rec["gold_sql"], "link": rec["link"], "label": rec["label"],
                  "schema_element_token_spans": token_spans,
                  "query_span": [example.seg.query_start, example.seg.n],
                  "char_spans": serialize_schema(concert_schema)[1].to_json()}
        assert len(parent) == 12 and set(rec) < set(parent)
        loaded = []
        for name, record in (("parent.jsonl", parent), ("line.jsonl", rec)):
            path = tmp_path / name
            path.write_text(json.dumps(record) + "\n")
            loaded += load_corpus(str(path), vocab, {example.db_id: concert_schema})
        assert loaded == [example, example]


WIDE = dict(tables_per_db=(4, 5), columns_per_table=(5, 7))


class TestRecordWriter:
    """The writer builds no example: each record it writes equals the one
    read off the example `build_training_example` builds from it, and the
    length it checks is that example's."""

    def check_records(self, generated):
        vocab = Vocab.load(generated.vocab_path)
        for path in (generated.train_path, generated.dev_path):
            with open(path) as f:
                lines = f.read().splitlines()
            assert lines
            for line in lines:
                rec = json.loads(line)
                doc = generated.schemas[rec["db_id"]]
                ex = build_training_example(rec["question"], doc, rec["gold_sql"], vocab,
                                            rec["example_id"], rec["db_id"])
                assert line == json.dumps(example_record(ex))
                assert example_length(rec["question"], doc, rec["gold_sql"]) == len(ex.tokens.ids)

    @pytest.mark.parametrize("seed", [1, 3, 7])
    def test_desk_records_equal_the_built_examples(self, desk_corpus, seed):
        self.check_records(desk_corpus(seed).generated)

    @pytest.mark.parametrize("seed", [3, 7, 9])
    def test_wide_records_equal_the_built_examples(self, tmp_path, seed):
        self.check_records(generate_corpus(CorpusConfig(seed=seed, **WIDE), str(tmp_path)))

    def test_wide_example_over_max_len_is_named_with_its_length(self, tmp_path):
        """Wide seed 1 holds an example of 538 tokens, which building it
        counts too; the refused corpus's directory is not left created."""
        out = tmp_path / "wide"
        with pytest.raises(ConfigError, match=r"^example db001-148 is 538 tokens \(max 512\)$"):
            generate_corpus(CorpusConfig(seed=1, **WIDE), str(out))
        assert not out.exists()

    def test_degenerate_gold_is_refused_and_out_dir_left_as_it_was(self, tmp_path,
                                                                   monkeypatch):
        """A gold SQL that reads no column raises DegenerateExample, as
        building its example does, and nothing is moved into `out_dir`."""
        render = corpus_mod._render_example
        calls = Counter()

        def one_degenerate(doc, template, rng):
            calls["n"] += 1
            if calls["n"] == 7:
                return "count the rows", f"SELECT count ( * ) FROM {doc.tables[0].name}"
            return render(doc, template, rng)
        monkeypatch.setattr(corpus_mod, "_render_example", one_degenerate)
        (tmp_path / "keep.txt").write_text("kept")
        with pytest.raises(DegenerateExample, match="references no columns"):
            generate_corpus(tiny_config(), str(tmp_path))
        assert [p.name for p in tmp_path.iterdir()] == ["keep.txt"]


class TestStats:
    def test_keys_and_ranges(self, corpus):
        stats = corpus_stats(corpus.train_path)
        assert stats["examples"] == 12
        assert stats["avg_columns"] > 0
        assert 0 < stats["positive_rate"] < 1


class TestConfig:
    def test_default_is_500_100(self):
        cfg = CorpusConfig()
        total = cfg.num_databases * cfg.examples_per_db
        assert round(total * cfg.split) == 500
        assert total - round(total * cfg.split) == 100

    def test_bad_ranges_rejected(self):
        with pytest.raises(ConfigError, match="tables_per_db"):
            tiny_config(tables_per_db=(3, 2))
        with pytest.raises(ConfigError, match="columns_per_table"):
            tiny_config(columns_per_table=(0, 4))

    def test_bad_split_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(split=0.0)
        with pytest.raises(ConfigError):
            tiny_config(split=1.0)

    @pytest.mark.parametrize("split", [0.4, 0.6])
    def test_split_leaving_one_side_empty_rejected(self, split):
        # one example: 0.4 rounds to no train example, 0.6 to no dev example
        with pytest.raises(ConfigError, match="empty"):
            tiny_config(num_databases=1, examples_per_db=1, split=split)

    def test_example_longer_than_the_model_default_named(self, tmp_path, monkeypatch):
        """The limit is ModelConfig.max_len's default; the first example
        over it stops generation with its id."""
        assert ModelConfig(vocab_size=1).max_len == corpus_mod.MAX_LEN
        monkeypatch.setattr(corpus_mod, "MAX_LEN", 8)
        with pytest.raises(ConfigError, match=r"example db\d{3}-\d{3} is \d+ tokens \(max 8\)"):
            generate_corpus(tiny_config(), str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_empty_templates_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(templates=())

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True])
    def test_seed_that_is_not_a_non_negative_integer_rejected(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            tiny_config(seed=seed)

    @pytest.mark.parametrize("seed", range(6))
    def test_largest_ranges_the_name_pools_allow_fill(self, seed):
        """The bounds are tight: at the largest table and column counts
        every draw still finds enough distinct names."""
        top = corpus_mod._MAX_COLUMNS
        cfg = tiny_config(tables_per_db=(len(corpus_mod._TABLE_POOL),) * 2,
                          columns_per_table=(top, top), seed=seed)
        doc = corpus_mod._make_schema(cfg, np.random.default_rng(seed))
        assert len(doc.tables) == len(corpus_mod._TABLE_POOL)
        assert doc.tables[0].columns[-1].sql_type == "TEXT"

    def test_from_json_round_trip(self):
        """JSON turns the tuples into lists; the config turns them back."""
        cfg = tiny_config()
        assert CorpusConfig(**json.loads(json.dumps(asdict(cfg)))) == cfg

import json
import sqlite3
from pathlib import Path

import pytest

from joltsql.corpus import (CorpusConfig, corpus_stats, generate_corpus,
                            load_schemas)
from joltsql.errors import ConfigError
from joltsql.pipeline import load_corpus
from joltsql.tokenizer import Vocab


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
            assert ex.seg.validate_partition()
            assert len(ex.label) == len(ex.seg.marker_columns)

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
        with pytest.raises(ConfigError):
            tiny_config(tables_per_db=(3, 2))
        with pytest.raises(ConfigError):
            tiny_config(columns_per_table=(0, 4))

    def test_bad_split_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(split=0.0)
        with pytest.raises(ConfigError):
            tiny_config(split=1.0)

    def test_empty_templates_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(templates=())

    def test_from_json_round_trip(self):
        cfg = tiny_config()
        clone = CorpusConfig.from_json(json.loads(json.dumps({
            "num_databases": cfg.num_databases,
            "tables_per_db": list(cfg.tables_per_db),
            "columns_per_table": list(cfg.columns_per_table),
            "rows_per_table": list(cfg.rows_per_table),
            "examples_per_db": cfg.examples_per_db,
            "split": cfg.split,
            "seed": cfg.seed,
            "templates": list(cfg.templates),
        })))
        assert clone == cfg

import sqlite3
from typing import NamedTuple

import pytest

from joltsql.corpus import CorpusConfig, GeneratedCorpus, generate_corpus
from joltsql.pipeline import TrainingExample, load_corpus
from joltsql.schema import Column, SchemaDocument, Table
from joltsql.tokenizer import Vocab


class DeskCorpus(NamedTuple):
    generated: GeneratedCorpus
    vocab: Vocab
    train: list[TrainingExample]
    dev: list[TrainingExample]


@pytest.fixture(scope="session")
def desk_corpus(tmp_path_factory):
    """`desk_corpus(seed)`: the desk corpus `CorpusConfig(seed=seed)` (seed 7
    by default), its vocab and its loaded train and dev splits, generated
    once per seed in the session. Every test shares them, so tests only
    read them."""
    made: dict[int, DeskCorpus] = {}

    def get(seed: int = CorpusConfig().seed) -> DeskCorpus:
        if seed not in made:
            generated = generate_corpus(CorpusConfig(seed=seed),
                                        str(tmp_path_factory.mktemp(f"desk{seed}")))
            vocab = Vocab.load(generated.vocab_path)
            made[seed] = DeskCorpus(generated, vocab,
                                    load_corpus(generated.train_path, vocab, generated.schemas),
                                    load_corpus(generated.dev_path, vocab, generated.schemas))
        return made[seed]
    return get


@pytest.fixture(scope="session")
def concert_schema() -> SchemaDocument:
    return SchemaDocument((
        Table("singer",
              (Column("id", "INTEGER"), Column("name", "TEXT"),
               Column("age", "INTEGER"), Column("country", "TEXT")),
              primary_key=("id",)),
        Table("concert",
              (Column("id", "INTEGER"), Column("name", "TEXT"),
               Column("year", "INTEGER"), Column("stadium_id", "INTEGER")),
              primary_key=("id",),
              foreign_keys=(("stadium_id", "stadium", "id"),)),
        Table("stadium",
              (Column("id", "INTEGER"), Column("name", "TEXT"),
               Column("capacity", "INTEGER"), Column("city", "TEXT")),
              primary_key=("id",)),
        Table("singer_in_concert",
              (Column("concert_id", "INTEGER"), Column("singer_id", "INTEGER")),
              primary_key=("concert_id", "singer_id"),
              foreign_keys=(("concert_id", "concert", "id"),
                            ("singer_id", "singer", "id"))),
    ))


@pytest.fixture
def memory_db():
    conn = sqlite3.connect(":memory:")
    yield conn
    conn.close()

"""Deterministic synthetic databases and question/SQL pairs.

Questions are template-rendered English with slotted table/column/value
mentions; gold SQL is written in space-separated token form so encoding
and decoding round-trip exactly. Labels always come from the extractor,
never from the templates.
"""
from __future__ import annotations

import json
import os
import shutil
import sqlite3
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .jsonfile import iter_jsonl
from .model import MAX_LEN
from .pipeline import PREFIX_TEMPLATE, example_length, gold_links, tokenized_schema
from .schema import Column, SchemaDocument, Table, quote_identifier, with_value_examples
from .tokenizer import build_vocab

_TABLE_POOL = [
    "singer", "concert", "album", "track", "student", "course", "employee",
    "department", "customer", "orders", "product", "store", "player", "team",
    "book", "author", "movie", "review", "city", "branch",
]
_NUM_COL_POOL = [
    "age", "year", "price", "score", "rating", "salary", "capacity",
    "population", "quantity", "duration", "weight", "height", "budget",
]
_TEXT_COL_POOL = [
    "name", "title", "label", "status", "genre", "grade", "color", "kind",
    "region", "owner",
]
_WORD_POOL = [
    "red", "blue", "green", "gold", "silver", "north", "south", "east",
    "west", "alpha", "beta", "gamma", "delta", "omega", "prime", "major",
    "minor", "solo", "duo", "trio",
]
# the templates `_render_example` renders; `CorpusConfig` accepts no other
TEMPLATES = ("projection", "filtered", "aggregate", "join", "order_limit")
# the most columns per table the name pools can fill: `_make_schema` gives
# the first table of n columns (id, no foreign key) 1 to (n - 1) // 2
# numeric names and the rest, up to n - 2, text names
_MAX_COLUMNS = min(len(_TEXT_COL_POOL) + 2, 2 * len(_NUM_COL_POOL) + 2)


@dataclass
class CorpusConfig:
    num_databases: int = 4
    tables_per_db: tuple[int, int] = (2, 3)
    columns_per_table: tuple[int, int] = (3, 5)
    rows_per_table: tuple[int, int] = (20, 50)
    examples_per_db: int = 150
    split: float = 500 / 600  # train fraction
    seed: int = 7
    templates: tuple[str, ...] = TEMPLATES

    def __post_init__(self):
        for key in ("num_databases", "examples_per_db"):
            value = getattr(self, key)
            if type(value) is not int or value < 1:
                raise ConfigError(f"{key} must be an integer of at least 1, got {value!r}")
        for key in ("tables_per_db", "columns_per_table", "rows_per_table"):
            pair = getattr(self, key)
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and all(type(v) is int for v in pair)):
                raise ConfigError(f"{key} must be a pair of integers, got {pair!r}")
            lo, hi = pair
            if lo > hi or lo < 1:
                raise ConfigError(f"{key} must be a non-empty range from 1, got [{lo}, {hi}]")
            setattr(self, key, (lo, hi))
        if self.tables_per_db[1] > len(_TABLE_POOL):
            raise ConfigError(f"tables_per_db may not exceed {len(_TABLE_POOL)}, "
                              "the number of table names")
        if self.columns_per_table[1] > _MAX_COLUMNS:
            raise ConfigError(f"columns_per_table may not exceed {_MAX_COLUMNS}, "
                              "the most the column names can fill")
        if type(self.seed) is not int or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not 0 < self.split < 1:
            raise ConfigError("split must be in (0, 1)")
        total = self.num_databases * self.examples_per_db
        if not 0 < round(total * self.split) < total:
            raise ConfigError(f"split {self.split} of {total} examples leaves "
                              "the train or the dev split empty")
        self.templates = tuple(self.templates)
        if not self.templates:
            raise ConfigError("at least one template must be enabled")
        unknown = [t for t in self.templates if t not in TEMPLATES]
        if unknown:
            raise ConfigError(f"templates: unknown {unknown}, expected some of {list(TEMPLATES)}")
        # every other template fills any table `_make_schema` draws
        if set(self.templates) == {"join"} and self.tables_per_db[0] < 2:
            raise ConfigError("templates: 'join' alone needs two tables in every database, "
                              f"but tables_per_db starts at {self.tables_per_db[0]}")


def _make_schema(cfg: CorpusConfig, rng: np.random.Generator) -> SchemaDocument:
    n_tables = int(rng.integers(cfg.tables_per_db[0], cfg.tables_per_db[1] + 1))
    table_names = list(rng.choice(_TABLE_POOL, size=n_tables, replace=False))
    tables = []
    for ti, tname in enumerate(table_names):
        n_cols = int(rng.integers(cfg.columns_per_table[0], cfg.columns_per_table[1] + 1))
        cols = [Column("id", "INTEGER")]
        fks: list[tuple[str, str, str]] = []
        if ti > 0:
            fk_col = f"{table_names[0]}_id"
            cols.append(Column(fk_col, "INTEGER"))
            fks.append((fk_col, table_names[0], "id"))
        n_num = int(rng.integers(1, max(2, (n_cols - len(cols)) // 2 + 1)))
        num_names = list(rng.choice(_NUM_COL_POOL, size=n_num, replace=False))
        n_text = n_cols - len(cols) - n_num
        text_names = list(rng.choice(_TEXT_COL_POOL, size=max(1, n_text), replace=False))
        for name in num_names:
            cols.append(Column(name, "INTEGER"))
        for name in text_names:
            cols.append(Column(name, "TEXT"))
        tables.append(Table(str(tname), tuple(cols), primary_key=("id",),
                            foreign_keys=tuple(fks)))
    return SchemaDocument(tuple(tables))


def _materialize_db(path: str, doc: SchemaDocument, cfg: CorpusConfig,
                    rng: np.random.Generator) -> SchemaDocument:
    """Create the sqlite file, fill rows, and return the schema with value
    examples sampled back from the database."""
    conn = sqlite3.connect(path)
    try:
        row_counts: dict[str, int] = {}
        for t in doc.tables:
            cols_sql = ", ".join(f"{quote_identifier(c.name)} {c.sql_type}"
                                 for c in t.columns)
            pk = f", PRIMARY KEY ({', '.join(t.primary_key)})" if t.primary_key else ""
            fk = "".join(
                f", FOREIGN KEY ({quote_identifier(local)}) REFERENCES "
                f"{quote_identifier(ftable)} ({quote_identifier(fcol)})"
                for local, ftable, fcol in t.foreign_keys
            )
            conn.execute(f"CREATE TABLE {quote_identifier(t.name)} ({cols_sql}{pk}{fk})")
            n_rows = int(rng.integers(cfg.rows_per_table[0], cfg.rows_per_table[1] + 1))
            row_counts[t.name] = n_rows
            parents = {local: ftable for local, ftable, _ in t.foreign_keys}
            rows = []
            for rid in range(1, n_rows + 1):
                row = []
                for c in t.columns:
                    if c.name == "id":
                        row.append(rid)
                    elif c.name in parents:
                        row.append(int(rng.integers(1, row_counts[parents[c.name]] + 1)))
                    elif c.sql_type == "INTEGER":
                        row.append(int(rng.integers(1, 100)))
                    else:
                        row.append(str(rng.choice(_WORD_POOL)))
                rows.append(tuple(row))
            ph = ", ".join("?" * len(t.columns))
            conn.executemany(f"INSERT INTO {quote_identifier(t.name)} VALUES ({ph})", rows)
        conn.commit()
        return with_value_examples(doc, conn)
    finally:
        conn.close()


def _numeric_columns(t: Table) -> list[str]:
    skip = {"id"} | {fk[0] for fk in t.foreign_keys}
    return [c.name for c in t.columns if c.sql_type == "INTEGER" and c.name not in skip]


def _text_columns(t: Table) -> list[str]:
    return [c.name for c in t.columns if c.sql_type == "TEXT"]


def _plain_columns(t: Table) -> list[str]:
    skip = {fk[0] for fk in t.foreign_keys}
    return [c.name for c in t.columns if c.name not in skip and c.name != "id"]


def _render_example(doc: SchemaDocument, template: str,
                    rng: np.random.Generator) -> tuple[str, str] | None:
    """(question, gold SQL) or None when the template does not apply."""
    t = doc.tables[int(rng.integers(0, len(doc.tables)))]
    if template == "projection":
        cols = _plain_columns(t)
        if not cols:
            return None
        col = str(rng.choice(cols))
        if rng.integers(0, 2) == 0:
            q = f"show the {col} of each {t.name}"
        else:
            q = f"list the {col} of every {t.name}"
        return q, f"SELECT {col} FROM {t.name}"
    if template == "filtered":
        cols, nums = _plain_columns(t), _numeric_columns(t)
        if not cols or not nums:
            return None
        col, num = str(rng.choice(cols)), str(rng.choice(nums))
        v = int(rng.integers(10, 90))
        if rng.integers(0, 2) == 0:
            q = f"show the {col} of each {t.name} whose {num} is greater than {v}"
            op = ">"
        else:
            q = f"show the {col} of each {t.name} whose {num} is less than {v}"
            op = "<"
        return q, f"SELECT {col} FROM {t.name} WHERE {num} {op} {v}"
    if template == "aggregate":
        texts = _text_columns(t)
        if not texts:
            return None
        col = str(rng.choice(texts))
        if rng.integers(0, 2) == 0:
            q = f"for each {col} count the rows of {t.name}"
        else:
            q = f"count the rows of {t.name} grouped by {col}"
        return q, f"SELECT {col} , count ( * ) FROM {t.name} GROUP BY {col}"
    if template == "join":
        if len(doc.tables) < 2:
            return None
        child = doc.tables[int(rng.integers(1, len(doc.tables)))]
        if not child.foreign_keys:
            return None
        fk_col, parent_name, _ = child.foreign_keys[0]
        parent = doc.table(parent_name)
        pcols, ccols = _plain_columns(parent), _plain_columns(child)
        if not pcols or not ccols:
            return None
        ca, cb = str(rng.choice(pcols)), str(rng.choice(ccols))
        q = f"show the {ca} of each {parent.name} together with the {cb} of its {child.name}"
        sql = (f"SELECT T1 . {ca} , T2 . {cb} FROM {parent.name} AS T1 "
               f"JOIN {child.name} AS T2 ON T1 . id = T2 . {fk_col}")
        return q, sql
    if template == "order_limit":
        cols, nums = _plain_columns(t), _numeric_columns(t)
        if not cols or not nums:
            return None
        col, num = str(rng.choice(cols)), str(rng.choice(nums))
        k = int(rng.integers(2, 6))
        if rng.integers(0, 2) == 0:
            q = f"show the {col} of the {k} {t.name} rows with the largest {num}"
            d = "DESC"
        else:
            q = f"show the {col} of the {k} {t.name} rows with the smallest {num}"
            d = "ASC"
        return q, f"SELECT {col} FROM {t.name} ORDER BY {num} {d} LIMIT {k}"
    return None


@dataclass
class GeneratedCorpus:
    out_dir: str
    train_path: str
    dev_path: str
    vocab_path: str
    schema_dir: str
    db_dir: str
    schemas: dict[str, SchemaDocument] = field(default_factory=dict)
    db_paths: dict[str, str] = field(default_factory=dict)


def generate_corpus(cfg: CorpusConfig, out_dir: str) -> GeneratedCorpus:
    """Write the corpus under `out_dir`: `dbs/`, `schema/`, `vocab.json`,
    `train.jsonl` and `dev.jsonl`. The files are written into a staging
    directory inside `out_dir` and moved into place once all are written,
    so a failure (an example over MAX_LEN, say) leaves `out_dir` as it was,
    and does not leave it created. A record is written from its gold links,
    its label in marker order and its token count, without building its
    example: `load_corpus` builds each example once."""
    created = not os.path.isdir(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    stage = tempfile.mkdtemp(prefix=".partial-", dir=out_dir)
    try:
        schemas = _write_corpus(cfg, stage)
    except BaseException:
        shutil.rmtree(stage)
        if created:
            os.rmdir(out_dir)
        raise
    for root, _, files in os.walk(stage):
        dest = os.path.join(out_dir, os.path.relpath(root, stage))
        os.makedirs(dest, exist_ok=True)
        for name in files:
            os.replace(os.path.join(root, name), os.path.join(dest, name))
    shutil.rmtree(stage)
    db_dir = os.path.join(out_dir, "dbs")
    return GeneratedCorpus(out_dir, os.path.join(out_dir, "train.jsonl"),
                           os.path.join(out_dir, "dev.jsonl"),
                           os.path.join(out_dir, "vocab.json"),
                           os.path.join(out_dir, "schema"), db_dir, schemas,
                           {db_id: os.path.join(db_dir, f"{db_id}.sqlite") for db_id in schemas})


def _write_corpus(cfg: CorpusConfig, out_dir: str) -> dict[str, SchemaDocument]:
    """Write every corpus file under `out_dir`; returns the schemas by db id."""
    db_dir = os.path.join(out_dir, "dbs")
    schema_dir = os.path.join(out_dir, "schema")
    os.makedirs(db_dir)
    os.makedirs(schema_dir)

    raw: list[dict] = []  # db_id, question, gold_sql
    schemas: dict[str, SchemaDocument] = {}
    for di in range(cfg.num_databases):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, di]))
        db_id = f"db{di:03d}"
        doc = _make_schema(cfg, rng)
        doc = _materialize_db(os.path.join(db_dir, f"{db_id}.sqlite"), doc, cfg, rng)
        schemas[db_id] = doc
        with open(os.path.join(schema_dir, f"{db_id}.json"), "w") as f:
            json.dump(doc.to_json(), f, indent=1)
        made = 0
        attempts = 0
        while made < cfg.examples_per_db:
            attempts += 1
            if attempts > cfg.examples_per_db * 50:
                raise ConfigError(f"could not fill templates for {db_id}")
            template = cfg.templates[int(rng.integers(0, len(cfg.templates)))]
            rendered = _render_example(doc, template, rng)
            if rendered is None:
                continue
            question, sql = rendered
            raw.append({"example_id": f"{db_id}-{made:03d}", "db_id": db_id,
                        "question": question, "gold_sql": sql})
            made += 1

    split_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 99991]))
    order = split_rng.permutation(len(raw))
    n_train = round(len(raw) * cfg.split)
    train_raw = [raw[int(i)] for i in order[:n_train]]
    dev_raw = [raw[int(i)] for i in order[n_train:]]

    # vocab covers only training-side text
    texts = []
    for r in train_raw:
        texts.append(PREFIX_TEMPLATE.format(question=r["question"]))
        texts.append(r["gold_sql"])
    for doc in schemas.values():
        texts.append(tokenized_schema(doc).text)
    vocab = build_vocab(texts)
    vocab.save(os.path.join(out_dir, "vocab.json"))

    def write_jsonl(path: str, records: list[dict]):
        with open(path, "w") as f:
            for r in records:
                doc = schemas[r["db_id"]]
                link = gold_links(r["gold_sql"], doc)
                n = example_length(r["question"], doc, r["gold_sql"])
                if n > MAX_LEN:
                    raise ConfigError(f"example {r['example_id']} is {n} tokens (max {MAX_LEN})")
                markers = tokenized_schema(doc).marker_columns
                f.write(json.dumps({**r, "link": sorted(f"{t}.{c}" for t, c in link),
                                    "label": [int((t, c) in link) for t, c, _ in markers]}) + "\n")

    write_jsonl(os.path.join(out_dir, "train.jsonl"), train_raw)
    write_jsonl(os.path.join(out_dir, "dev.jsonl"), dev_raw)
    return schemas


def corpus_stats(jsonl_path: str) -> dict:
    labels = [obj["label"] for obj in iter_jsonl(jsonl_path)]
    n = len(labels)
    total_cols = sum(len(label) for label in labels)
    total_pos = sum(sum(label) for label in labels)
    return {
        "examples": n,
        "avg_columns": total_cols / n if n else 0.0,
        "positive_rate": total_pos / total_cols if total_cols else 0.0,
    }


def load_schemas(schema_dir: str) -> dict[str, SchemaDocument]:
    out = {}
    for fname in sorted(os.listdir(schema_dir)):
        if fname.endswith(".json"):
            out[fname[:-5]] = SchemaDocument.load(os.path.join(schema_dir, fname))
    return out

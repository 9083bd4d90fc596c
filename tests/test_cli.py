import io
import json
import os
import platform
import shutil
import sqlite3
import zipfile
from collections import Counter

import numpy as np
import pytest

from joltsql.cli import EventLog, main
from joltsql.model import MAX_LEN
from joltsql.pipeline import PREFIX_TEMPLATE
from joltsql.schema import serialize_schema
from joltsql.tokenizer import build_vocab, encode, tokenize_schema


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny generated corpus plus a trained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    corpus_dir = root / "corpus"
    ckpt_dir = root / "ckpt"
    cfg_path = root / "run.json"
    cfg_path.write_text(json.dumps({
        "corpus": {"num_databases": 2, "tables_per_db": [2, 2],
                   "columns_per_table": [4, 4], "rows_per_table": [5, 8],
                   "examples_per_db": 6, "split": 0.75, "seed": 13},
        "train": {"epochs": 1, "learning_rate": 1e-3, "grad_accum": 1},
        "model": {"dim": 16, "heads": 2, "layers": 1, "max_len": 256},
    }))
    assert main(["gen-corpus", "--config", str(cfg_path),
                 "--out", str(corpus_dir)]) == 0
    assert main(["train", "--corpus", str(corpus_dir / "train.jsonl"),
                 "--config", str(cfg_path), "--out", str(ckpt_dir)]) == 0
    return {"root": root, "corpus": corpus_dir, "ckpt": ckpt_dir,
            "config": cfg_path}


@pytest.fixture
def corpus_never_loads(monkeypatch):
    """Fail the test if `jolt train` loads the corpus before its settings
    were checked."""
    from joltsql import pipeline

    def no_load(*args, **kwargs):
        raise AssertionError("corpus loaded before the settings were checked")
    monkeypatch.setattr(pipeline, "load_corpus", no_load)


class TestUsage:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--help"])
        assert e.value.code == 0

    def test_missing_required_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["train", "--out", "x"])  # no --corpus
        assert e.value.code == 2

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 2

    @pytest.mark.parametrize("flags", [["sweep", "--threshold", "0.3"],
                                       ["sweep", "--average", "macro"],
                                       ["eval", "--sweep"]])
    def test_flag_the_subcommand_does_not_read_exits_two(self, capsys, flags):
        with pytest.raises(SystemExit) as e:
            main(flags + ["--ckpt", "c", "--dev", "d.jsonl", "--dbs", "dbs"])
        assert e.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_train_resume_exits_two(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["train", "--corpus", "train.jsonl", "--out", str(tmp_path / "ckpt"),
                  "--resume"])
        assert e.value.code == 2
        assert "unrecognized arguments: --resume" in capsys.readouterr().err
        assert not (tmp_path / "ckpt").exists()

    def test_domain_error_exits_one(self, capsys, tmp_path):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"tables": [
            {"name": "t", "columns": [{"name": "a", "sql_type": "INTEGER"}],
             "primary_key": [], "foreign_keys": []}]}))
        sql = tmp_path / "q.sql"
        sql.write_text("SELECT bogus FROM t")
        code, out, err = run(capsys, "extract-gt", "--sql", str(sql),
                             "--schema", str(schema))
        assert code == 1
        assert "error" in err


class TestInputFiles:
    """A missing or malformed input file is an error line, not a traceback."""

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen-corpus", "--config", str(tmp_path / "nothere.json"),
                           "--out", str(tmp_path / "corpus"))
        assert code == 1
        assert err.startswith("error:") and "nothere.json" in err

    def test_config_file_that_is_not_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"train": ')
        code, _, err = run(capsys, "gen-corpus", "--config", str(bad),
                           "--out", str(tmp_path / "corpus"))
        assert code == 1
        assert err.startswith("error:")

    def test_missing_checkpoint_in_infer(self, capsys, tmp_path, workspace):
        schema_file = next((workspace["corpus"] / "schema").glob("*.json"))
        code, _, err = run(capsys, "infer", "--ckpt", str(tmp_path / "nockpt"),
                           "--question", "show the name of each row",
                           "--schema", str(schema_file))
        assert code == 1
        assert err.startswith("error:") and "params.npz" in err

    def test_missing_checkpoint_in_eval(self, capsys, tmp_path, workspace):
        code, _, err = run(capsys, "eval", "--ckpt", str(tmp_path / "nockpt"),
                           "--dev", str(workspace["corpus"] / "dev.jsonl"),
                           "--dbs", str(workspace["corpus"] / "dbs"),
                           "--out", str(tmp_path / "eval"))
        assert code == 1
        assert err.startswith("error:") and "params.npz" in err

    @pytest.mark.parametrize("command", ["infer", "eval"])
    def test_checkpoint_config_modelconfig_rejects(self, capsys, tmp_path, workspace, command):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(workspace["ckpt"], ckpt)
        with np.load(ckpt / "params.npz") as z:
            arrays = {k: z[k] for k in z.files}
        arrays["__config__"] = json.dumps({**json.loads(str(arrays["__config__"])),
                                           "heads": 3, "dim": 8})
        np.savez(ckpt / "params.npz", **arrays)
        schema_file = next((workspace["corpus"] / "schema").glob("*.json"))
        args = {"infer": ["--question", "show the name of each row",
                          "--schema", str(schema_file)],
                "eval": ["--dev", str(workspace["corpus"] / "dev.jsonl"),
                         "--dbs", str(workspace["corpus"] / "dbs"),
                         "--out", str(tmp_path / "eval")]}[command]
        code, _, err = run(capsys, command, "--ckpt", str(ckpt), *args)
        assert code == 1
        assert err.startswith("error:") and "params.npz" in err and "heads" in err
        assert "Traceback" not in err

    @staticmethod
    def corrupt_text(path, raw):
        path.write_text("not a checkpoint\n")

    @staticmethod
    def corrupt_random_bytes(path, raw):
        path.write_bytes(np.random.default_rng(0).bytes(256))

    @staticmethod
    def corrupt_plain_npy(path, raw):
        with open(path, "wb") as f:
            np.save(f, np.zeros(3))

    @staticmethod
    def corrupt_truncated_member(path, raw):
        with zipfile.ZipFile(io.BytesIO(raw)) as src, zipfile.ZipFile(path, "w") as dst:
            for name in src.namelist():
                data = src.read(name)
                dst.writestr(name, data[:20] if name == "emb.npy" else data)

    @staticmethod
    def corrupt_flipped_byte(path, raw):
        with zipfile.ZipFile(io.BytesIO(raw)) as src:
            data = src.read("emb.npy")
        at = raw.index(data) + len(data) // 2
        path.write_bytes(raw[:at] + bytes([raw[at] ^ 0xFF]) + raw[at + 1:])

    @pytest.mark.parametrize("command", ["infer", "eval"])
    @pytest.mark.parametrize("form,array", [("text", None), ("random_bytes", None),
                                            ("plain_npy", None), ("truncated_member", "emb"),
                                            ("flipped_byte", "emb")])
    def test_corrupt_checkpoint_is_named(self, capsys, tmp_path, workspace, command, form,
                                         array):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(workspace["ckpt"], ckpt)
        params = ckpt / "params.npz"
        getattr(self, f"corrupt_{form}")(params, params.read_bytes())
        schema_file = next((workspace["corpus"] / "schema").glob("*.json"))
        args = {"infer": ["--question", "show the name of each row",
                          "--schema", str(schema_file)],
                "eval": ["--dev", str(workspace["corpus"] / "dev.jsonl"),
                         "--dbs", str(workspace["corpus"] / "dbs"),
                         "--out", str(tmp_path / "eval")]}[command]
        code, out, err = run(capsys, command, "--ckpt", str(ckpt), *args)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {params}: ") and err.count("\n") == 1
        if array:
            assert f"array {array!r}" in err

    def test_missing_schema_in_extract_gt(self, capsys, tmp_path):
        sql = tmp_path / "q.sql"
        sql.write_text("SELECT a FROM t")
        code, _, err = run(capsys, "extract-gt", "--sql", str(sql),
                           "--schema", str(tmp_path / "missing.json"))
        assert code == 1
        assert err.startswith("error:") and "missing.json" in err

    @staticmethod
    def argv_reading(kind, path, workspace, tmp_path):
        """argv of a command that reads `path` as a file of the given kind."""
        corpus = workspace["corpus"]
        schema_file = next((corpus / "schema").glob("*.json"))
        text = tmp_path / "text.txt"
        text.write_text("x")
        train = ("train", "--config", workspace["config"], "--out", tmp_path / "ckpt")
        return {
            "config": ("gen-corpus", "--config", path, "--out", tmp_path / "corpus"),
            "vocab": ("infer", "--ckpt", path.parent, "--question", "q",
                      "--schema", schema_file),
            "schema": ("extract-gt", "--sql", text, "--schema", path),
            "spans": ("encode", "--prefix", text, "--schema", text, "--spans", path,
                      "--query", text, "--vocab", corpus / "vocab.json"),
            "train vocab": (*train, "--corpus", corpus / "train.jsonl", "--vocab", path),
            "corpus": (*train, "--corpus", path, "--vocab", corpus / "vocab.json",
                       "--schema-dir", corpus / "schema"),
        }[kind]

    @pytest.mark.parametrize("kind,name", [
        ("config", "run.json"), ("vocab", "ckpt/vocab.json"), ("schema", "schema.json"),
        ("spans", "spans.json"), ("corpus", "train.jsonl"),
    ], ids=["config", "vocab", "schema", "spans", "corpus"])
    def test_file_that_is_not_json_is_named(self, capsys, tmp_path, workspace, kind, name):
        path = tmp_path / name
        if kind == "vocab":
            shutil.copytree(workspace["ckpt"], path.parent)
        path.parent.mkdir(exist_ok=True)
        first = (workspace["corpus"] / "train.jsonl").read_text().splitlines()[0]
        path.write_text(first + '\n{"a": \n' if kind == "corpus" else '{"a": ')
        argv = self.argv_reading(kind, path, workspace, tmp_path)
        code, out, err = run(capsys, *map(str, argv))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}")
        if kind == "corpus":
            assert err.startswith(f"error: {path}, line 2: ")

    @pytest.mark.parametrize("kind", ["corpus", "sql", "prefix"])
    def test_input_that_is_not_utf8_is_named(self, capsys, tmp_path, workspace, kind):
        """A corpus line, or a text file, whose bytes are not UTF-8 is an
        error line naming the file (and the line), not a traceback."""
        corpus = workspace["corpus"]
        schema_file = next((corpus / "schema").glob("*.json"))
        binary = b"\xff\xfe\x9c binary \xc3\n"
        path = tmp_path / "input.bin"
        if kind == "corpus":
            first = (corpus / "train.jsonl").read_bytes().splitlines(keepends=True)[0]
            path.write_bytes(first + binary)
            argv = self.argv_reading("corpus", path, workspace, tmp_path)
        elif kind == "sql":
            path.write_bytes(binary)
            argv = ("extract-gt", "--sql", path, "--schema", schema_file)
        else:
            path.write_bytes(binary)
            spans = tmp_path / "spans.json"
            code, schema_text, _ = run(capsys, "serialize", "--schema", str(schema_file),
                                       "--spans-out", str(spans))
            assert code == 0
            (tmp_path / "schema.txt").write_text(schema_text[:-1])
            (tmp_path / "query.txt").write_text("SELECT")
            argv = ("encode", "--prefix", path, "--schema", tmp_path / "schema.txt",
                    "--spans", spans, "--query", tmp_path / "query.txt",
                    "--vocab", corpus / "vocab.json")
        code, out, err = run(capsys, *map(str, argv))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}, line 2: " if kind == "corpus"
                              else f"error: {path}: ")

    @pytest.mark.parametrize("schema,named", [
        ({}, "schema: missing key 'tables'"),
        ({"tables": [{"name": "t"}]}, "table 't': missing key 'columns'"),
        ([1, 2], "schema: expected an object"),
        ({"tables": [{"name": "t", "columns": [{"name": 5}]}]},
         "column 0 of table 't', key 'name': expected a string"),
        ({"tables": [{"name": "t", "columns": [], "foreign_keys": [["a", "t"]]}]},
         "table 't', foreign key 0: expected a list of 3 strings"),
        ({"tables": 5}, "schema, key 'tables': expected a list"),
        ({"tables": [{"name": "t", "columns": 5}]}, "table 't', key 'columns': expected a list"),
    ], ids=["no-tables", "no-columns", "not-an-object", "column-name-not-a-string",
            "foreign-key-of-two", "tables-not-a-list", "columns-not-a-list"])
    def test_schema_of_the_wrong_shape_is_an_error_line(self, capsys, tmp_path, schema,
                                                        named):
        schema_file = tmp_path / "schema.json"
        schema_file.write_text(json.dumps(schema))
        sql = tmp_path / "q.sql"
        sql.write_text("SELECT a FROM t")
        code, _, err = run(capsys, "extract-gt", "--sql", str(sql),
                           "--schema", str(schema_file))
        assert code == 1
        assert err == f"error: {schema_file}: {named}\n"

    @pytest.mark.parametrize("command", ["extract-gt", "serialize", "infer"])
    @pytest.mark.parametrize("schema,named", [
        ({"tables": []}, "schema: lists no tables"),
        ({"tables": [{"name": "t", "columns": []}]}, "table 't': lists no columns"),
    ], ids=["no-table", "table-without-a-column"])
    def test_schema_listing_nothing_is_an_error_line(self, capsys, tmp_path, workspace,
                                                     command, schema, named):
        schema_file = tmp_path / "schema.json"
        schema_file.write_text(json.dumps(schema))
        sql = tmp_path / "q.sql"
        sql.write_text("SELECT a FROM t")
        argv = {"extract-gt": ("--sql", sql),
                "serialize": ("--spans-out", tmp_path / "spans.json"),
                "infer": ("--ckpt", workspace["ckpt"], "--question", "q")}[command]
        code, out, err = run(capsys, command, "--schema", str(schema_file),
                             *map(str, argv))
        assert (code, out) == (1, "")
        assert err == f"error: {schema_file}: {named}\n"
        assert not (tmp_path / "spans.json").exists()

    @pytest.mark.parametrize("kind,name,content", [
        ("vocab", "ckpt/vocab.json", [1, 2]),
        ("train vocab", "vocab.json", [1, 2]),
        ("train vocab", "vocab.json", {"a": 5, "b": "x"}),
        ("train vocab", "vocab.json", {"a": 5, "b": True}),
    ], ids=["vocab-list", "train-vocab-list", "train-vocab-string-id", "train-vocab-bool-id"])
    def test_file_of_the_wrong_shape_is_named(self, capsys, tmp_path, workspace, kind, name,
                                              content):
        path = tmp_path / name
        if kind == "vocab":
            shutil.copytree(workspace["ckpt"], path.parent)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(content))
        argv = self.argv_reading(kind, path, workspace, tmp_path)
        code, out, err = run(capsys, *map(str, argv))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}: expected an object of ")

    @pytest.mark.parametrize("change,named", [
        ({"db_id": "nope"}, "no schema for db_id 'nope'"),
        ({"question": None}, "missing key 'question'"),
        ({"gold_sql": None}, "missing key 'gold_sql'"),
        ({"example_id": None}, "missing key 'example_id'"),
    ], ids=["unknown-db", "no-question", "no-gold-sql", "no-example-id"])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_corpus_record_of_the_wrong_shape_is_named(self, capsys, tmp_path, workspace,
                                                       command, change, named):
        lines = (workspace["corpus"] / "train.jsonl").read_text().splitlines()
        record = json.loads(lines[1])
        record.update(change)
        path = tmp_path / "records.jsonl"
        path.write_text("\n".join([lines[0], json.dumps(
            {k: v for k, v in record.items() if v is not None})]) + "\n")
        if command == "train":
            argv = self.argv_reading("corpus", path, workspace, tmp_path)
        else:
            argv = ("eval", "--ckpt", workspace["ckpt"], "--dev", path,
                    "--dbs", workspace["corpus"] / "dbs",
                    "--schema-dir", workspace["corpus"] / "schema",
                    "--out", tmp_path / "eval")
        code, out, err = run(capsys, *map(str, argv))
        assert code == 1 and out == ""
        assert err == f"error: {path}, record 2: {named}\n"


class TestExtractAndSerialize:
    def test_extract_gt(self, capsys, tmp_path):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"tables": [
            {"name": "t", "columns": [{"name": "a", "sql_type": "INTEGER"},
                                      {"name": "b", "sql_type": "TEXT"}],
             "primary_key": ["a"], "foreign_keys": []}]}))
        sql = tmp_path / "q.sql"
        sql.write_text("SELECT b FROM t WHERE a > 1")
        code, out, _ = run(capsys, "extract-gt", "--sql", str(sql),
                           "--schema", str(schema))
        assert code == 0
        assert json.loads(out) == ["t.a", "t.b"]

    def test_serialize_writes_spans(self, capsys, tmp_path, workspace):
        schema_file = next((workspace["corpus"] / "schema").glob("*.json"))
        spans_out = tmp_path / "spans.json"
        code, out, _ = run(capsys, "serialize", "--schema", str(schema_file),
                           "--spans-out", str(spans_out))
        assert code == 0
        assert "CREATE TABLE" in out
        assert spans_out.exists()

    def test_serialize_db_refills_value_examples(self, capsys, tmp_path, workspace):
        # a stored corpus schema with its value examples stripped, plus the
        # database they were sampled from, serializes to the stored text
        schema_file = next((workspace["corpus"] / "schema").glob("*.json"))
        db_file = workspace["corpus"] / "dbs" / (schema_file.stem + ".sqlite")
        stored = json.loads(schema_file.read_text())
        stripped = json.loads(schema_file.read_text())
        for table in stripped["tables"]:
            for col in table["columns"]:
                col.pop("examples", None)
        assert stripped != stored
        bare_file = tmp_path / "bare.json"
        bare_file.write_text(json.dumps(stripped))

        code, want, _ = run(capsys, "serialize", "--schema", str(schema_file),
                            "--spans-out", str(tmp_path / "want.json"))
        assert code == 0
        code, got, _ = run(capsys, "serialize", "--schema", str(bare_file),
                           "--db", str(db_file),
                           "--spans-out", str(tmp_path / "got.json"))
        assert code == 0
        assert got == want
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()

    def test_serialize_db_reads_a_column_named_with_a_quote(self, capsys, tmp_path):
        db_file = tmp_path / "d.sqlite"
        conn = sqlite3.connect(db_file)
        conn.execute('CREATE TABLE t ("na""me" TEXT)')
        conn.execute("INSERT INTO t VALUES ('x')")
        conn.commit()
        conn.close()
        schema_file = tmp_path / "s.json"
        schema_file.write_text(json.dumps(
            {"tables": [{"name": "t", "columns": [{"name": 'na"me', "type": "TEXT"}]}]}))
        code, out, err = run(capsys, "serialize", "--schema", str(schema_file),
                             "--db", str(db_file), "--spans-out", str(tmp_path / "sp.json"))
        assert (code, err) == (0, "")
        assert """na"me TEXT -- examples: 'x'""" in out

    @pytest.mark.parametrize("content", [b"not a database\n", b""], ids=["text", "empty"])
    def test_serialize_db_that_cannot_be_read_is_named(self, capsys, tmp_path, workspace,
                                                       content):
        schema_file = next((workspace["corpus"] / "schema").glob("*.json"))
        db_file = tmp_path / "d.sqlite"
        db_file.write_bytes(content)
        code, out, err = run(capsys, "serialize", "--schema", str(schema_file),
                             "--db", str(db_file), "--spans-out", str(tmp_path / "s.json"))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read {db_file}")
        assert db_file.read_bytes() == content

    def test_serialize_db_lacking_a_schema_table_is_named(self, capsys, tmp_path):
        db_file = tmp_path / "d.sqlite"
        conn = sqlite3.connect(db_file)
        conn.execute("CREATE TABLE x (a TEXT)")
        conn.commit()
        conn.close()
        schema_file = tmp_path / "s.json"
        schema_file.write_text(json.dumps(
            {"tables": [{"name": "t", "columns": [{"name": "a", "type": "TEXT"}]}]}))
        code, out, err = run(capsys, "serialize", "--schema", str(schema_file),
                             "--db", str(db_file), "--spans-out", str(tmp_path / "sp.json"))
        assert (code, out) == (1, "")
        assert err == f"error: {db_file}: table 't', column 'a': no such table: t\n"

    def test_serialize_db_that_does_not_exist_is_named(self, capsys, tmp_path, workspace):
        schema_file = next((workspace["corpus"] / "schema").glob("*.json"))
        missing = tmp_path / "typo.sqlite"
        code, out, err = run(capsys, "serialize", "--schema", str(schema_file),
                             "--db", str(missing), "--spans-out", str(tmp_path / "s.json"))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot open {missing} read-only")
        assert not missing.exists()

    @pytest.mark.parametrize("spans,named", [
        ({"t": {"header": [0, 5]}}, "spans of table 't': missing keys fk, footer, pk"),
        ([1, 2], "spans: expected an object of table -> spans"),
        ({"t": {"header": 5, "pk": [0, 1], "fk": [], "footer": [1, 2]}},
         "spans of table 't': header not made of integer pairs"),
        ({"t": {"header": [0], "pk": [0, 1], "fk": [[0, "1"]], "footer": [1, 2]}},
         "spans of table 't': fk, header not made of integer pairs"),
        ({"t": {"header": [0, 1], "pk": [0, 1], "fk": [], "footer": [1, 2],
                "markers": {"a": [1.0, 2]}}},
         "spans of table 't': markers not made of integer pairs"),
    ], ids=["missing-keys", "not-an-object", "span-not-a-pair", "short-span-and-string",
            "float-marker"])
    def test_encode_rejects_malformed_spans(self, capsys, tmp_path, workspace, spans, named):
        spans_file = tmp_path / "spans.json"
        spans_file.write_text(json.dumps(spans))
        text = tmp_path / "text.txt"
        text.write_text("x")
        code, _, err = run(capsys, "encode", "--prefix", str(text), "--schema", str(text),
                           "--spans", str(spans_file), "--query", str(text),
                           "--vocab", str(workspace["corpus"] / "vocab.json"))
        assert code == 1
        assert err == f"error: {spans_file}: {named}\n"


    def test_serialize_then_encode_round_trip(self, capsys, tmp_path, concert_schema):
        """`jolt encode` on the text and spans file `jolt serialize` writes
        gives `tokenizer.encode` of the same parts."""
        schema_file = tmp_path / "schema.json"
        schema_file.write_text(json.dumps(concert_schema.to_json()))
        spans_file = tmp_path / "spans.json"
        code, out, _ = run(capsys, "serialize", "--schema", str(schema_file),
                           "--spans-out", str(spans_file))
        assert code == 0
        parts = {"prefix": PREFIX_TEMPLATE.format(question="how old is each singer ?"),
                 "schema": out[:-1],  # without print's newline
                 "query": "SELECT name , age FROM singer"}
        vocab = build_vocab(list(parts.values()))
        vocab.save(str(tmp_path / "vocab.json"))
        argv = ["encode", "--spans", str(spans_file), "--vocab", str(tmp_path / "vocab.json")]
        for part, text in parts.items():
            (tmp_path / f"{part}.txt").write_text(text)
            argv += [f"--{part}", str(tmp_path / f"{part}.txt")]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        schema = tokenize_schema(parts["schema"], serialize_schema(concert_schema)[1])
        tokens, seg = encode(parts["prefix"], schema, parts["query"], vocab)
        assert seg.query
        assert len(seg.markers) == sum(len(t.columns) for t in concert_schema.tables)
        assert json.loads(out) == {
            "ids": tokens.ids, "n": seg.n, "prefix": sorted(seg.prefix),
            "schema": sorted(seg.schema), "query": sorted(seg.query),
            "markers": sorted(seg.markers)}


class TestMaskViz:
    def test_causal(self, capsys):
        code, out, _ = run(capsys, "mask-viz", "--causal", "4")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "#..."
        assert lines[-1] == "####"

    def test_corpus_example_with_files(self, capsys, tmp_path, workspace):
        base = tmp_path / "mask"
        code, out, _ = run(capsys, "mask-viz",
                           "--corpus-dir", str(workspace["corpus"]),
                           "--index", "0", "--out", str(base))
        assert code == 0
        assert set(out.strip().splitlines()[0]) <= {"P", "S", "M", "Q"}
        assert (tmp_path / "mask.ppm").exists()
        assert (tmp_path / "mask.svg").exists()


    def test_missing_source_exits_two(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["mask-viz"])
        assert e.value.code == 2

    def test_both_sources_exit_two(self, capsys, workspace):
        with pytest.raises(SystemExit) as e:
            main(["mask-viz", "--causal", "4", "--corpus-dir", str(workspace["corpus"])])
        assert e.value.code == 2

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_causal_size_below_one_is_an_error_line(self, capsys, n):
        code, out, err = run(capsys, "mask-viz", "--causal", n)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "--causal" in err

    def test_causal_size_above_the_model_length_is_an_error_line(self, capsys):
        code, out, err = run(capsys, "mask-viz", "--causal", str(MAX_LEN + 1))
        assert code == 1 and out == ""
        assert err.startswith("error:") and "--causal" in err and str(MAX_LEN) in err

    @pytest.mark.parametrize("index", ["1000", "-1"])
    def test_index_outside_the_split_is_an_error_line(self, capsys, workspace, index):
        code, out, err = run(capsys, "mask-viz", "--corpus-dir", str(workspace["corpus"]),
                             "--index", index)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "--index" in err


class TestTrainArtifacts:
    def test_checkpoint_files(self, workspace):
        for name in ("params.npz", "weights.cache.json", "vocab.json",
                     "config.snapshot.json", "train_log.jsonl"):
            assert (workspace["ckpt"] / name).exists(), name

    def test_log_is_monotonic_json_lines(self, workspace):
        events = [json.loads(line) for line in
                  (workspace["ckpt"] / "train_log.jsonl").read_text().splitlines()]
        assert [e["event"] for e in events] == list(range(len(events)))
        steps = [e for e in events if e["stage"] == "train_step"]
        assert steps and all("l_sl" in e and "l_ntp" in e for e in steps)

    def test_snapshot_reflects_config(self, workspace):
        snap = json.loads((workspace["ckpt"] / "config.snapshot.json").read_text())
        assert snap["train"]["epochs"] == 1
        assert snap["model"]["dim"] == 16

    def test_snapshot_records_platform(self, workspace):
        snap = json.loads((workspace["ckpt"] / "config.snapshot.json").read_text())
        record = snap["platform"]
        assert record.keys() == {"python", "numpy", "blas", "blas_version", "sqlite"}
        assert record["python"] == platform.python_version()
        assert record["numpy"] == np.__version__
        assert record["sqlite"] == sqlite3.sqlite_version
        assert all(isinstance(v, str) and v for v in record.values())

    def test_removed_link_threshold_key_rejected(self, capsys, workspace, tmp_path):
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps({"train": {"epochs": 1, "link_threshold": 0.05}}))
        code, _, err = run(capsys, "train",
                           "--corpus", str(workspace["corpus"] / "train.jsonl"),
                           "--config", str(cfg), "--out", str(tmp_path / "ckpt"))
        assert code == 1
        assert err.startswith("error:") and "link_threshold" in err

    @pytest.mark.parametrize("section,values,named", [
        ("train", {"beta": 2.0}, "beta"),
        ("model", {"dim": 10, "heads": 4}, "divisible by heads"),
        ("model", {"width": 16}, "width"),
        ("corpus", {"split": 1.5}, "split"),
        ("corpus", {"num_tables": 3}, "num_tables"),
        ("train", {"epochs": 0}, "epochs"),
        ("train", {"grad_accum": 0}, "grad_accum"),
        ("train", {"learning_rate": 0}, "learning_rate"),
        ("model", {"heads": 0}, "heads"),
        ("model", {"dim": -4}, "dim"),
        ("model", {"dim": 0}, "dim"),
        ("model", {"dtype": "float16"}, "dtype"),
        ("model", {"ffn_mult": 0}, "ffn_mult"),
        ("model", {"layers": -1}, "layers"),
        ("model", {"max_len": 0}, "max_len"),
        ("train", {"max_grad_norm": -1}, "max_grad_norm"),
        ("train", {"max_grad_norm": 0}, "max_grad_norm"),
        ("train", {"weight_decay": -1}, "weight_decay"),
        ("train", {"epochs": 1.5}, "epochs"),
        ("train", {"epochs": True}, "epochs"),
        ("train", {"grad_accum": 1.5}, "grad_accum"),
        ("train", {"seed": True}, "seed"),
        ("model", {"layers": 1.0}, "layers"),
        ("corpus", {"examples_per_db": 4.5}, "examples_per_db"),
        ("corpus", {"rows_per_table": [5, 8.5]}, "rows_per_table"),
    ])
    def test_bad_section_rejected_before_corpus_loads(self, capsys, corpus_never_loads,
                                                      workspace, tmp_path,
                                                      section, values, named):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({section: values}))
        code, _, err = run(capsys, "train",
                           "--corpus", str(workspace["corpus"] / "train.jsonl"),
                           "--config", str(cfg), "--out", str(tmp_path / "ckpt"))
        assert code == 1
        assert err.startswith(f"error: config section '{section}'")
        assert named in err
        assert "Traceback" not in err
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize("flag,value", [("--epochs", "0"), ("--train-fraction", "-2"),
                                            ("--train-fraction", "0"),
                                            ("--train-fraction", "1.5")])
    def test_out_of_range_flag_rejected_before_any_work(self, capsys, corpus_never_loads,
                                                        workspace, tmp_path, flag, value):
        out_dir = tmp_path / "ckpt"
        code, _, err = run(capsys, "train",
                           "--corpus", str(workspace["corpus"] / "train.jsonl"),
                           "--config", str(workspace["config"]), "--out", str(out_dir),
                           flag, value)
        assert code == 1
        assert err.startswith("error:") and flag.lstrip("-") in err
        assert not out_dir.exists()

    def test_rerun_into_own_output_reproduces_it(self, capsys, workspace, tmp_path):
        """A second run into the same `--out` reads nothing from it and
        rewrites the same bytes."""
        out_dir = tmp_path / "ckpt"
        argv = ("train", "--corpus", str(workspace["corpus"] / "train.jsonl"),
                "--config", str(workspace["config"]), "--out", str(out_dir),
                "--seed", "1")
        assert run(capsys, *argv)[0] == 0
        first = {name: (out_dir / name).read_bytes()
                 for name in ("weights.cache.json", "params.npz")}
        for name in first:
            (out_dir / name).write_bytes(b"")
        assert run(capsys, *argv)[0] == 0
        for name, data in first.items():
            assert (out_dir / name).read_bytes() == data, name

    def test_bad_corpus_key_in_gen_corpus(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"corpus": {"num_tables": 3}}))
        code, _, err = run(capsys, "gen-corpus", "--config", str(cfg),
                           "--out", str(tmp_path / "corpus"))
        assert code == 1
        assert "num_tables" in err

    def test_split_left_empty_in_gen_corpus(self, capsys, tmp_path):
        cfg = tmp_path / "one.json"
        cfg.write_text(json.dumps({"corpus": {"num_databases": 1, "examples_per_db": 1,
                                              "split": 0.4}}))
        code, _, err = run(capsys, "gen-corpus", "--config", str(cfg),
                           "--out", str(tmp_path / "corpus"))
        assert code == 1
        assert err.startswith("error: config section 'corpus'") and "empty" in err
        assert not (tmp_path / "corpus").exists()

    @pytest.mark.parametrize("values, key", [
        ({"tables_per_db": [21, 22]}, "tables_per_db"),
        ({"columns_per_table": [13, 13]}, "columns_per_table"),
        ({"templates": ["projection", "joins"]}, "templates"),
        ({"num_databases": 1.5}, "num_databases"),
        ({"templates": ["join"], "tables_per_db": [1, 1]}, "tables_per_db")],
        ids=["tables", "columns", "templates", "non-integer-count", "join-on-one-table"])
    def test_corpus_the_generator_cannot_draw_writes_nothing(self, capsys, tmp_path,
                                                             values, key):
        """Ranges the name pools cannot fill, counts that are not integers,
        unknown templates and a join-only set over one-table databases are
        rejected before any file is written."""
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({"corpus": {"num_databases": 1, "examples_per_db": 6,
                                              "split": 0.5, "seed": 1, **values}}))
        code, out, err = run(capsys, "gen-corpus", "--config", str(cfg),
                             "--out", str(tmp_path / "corpus"))
        assert code == 1 and out == ""
        assert err.startswith("error: config section 'corpus'") and key in err
        assert not (tmp_path / "corpus").exists()

    @pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
    def test_over_long_example_writes_nothing(self, capsys, tmp_path, existing):
        """An example over MAX_LEN, found only once the databases exist,
        leaves --out as it was: not created, or holding only what it held."""
        cfg = tmp_path / "wide.json"
        cfg.write_text(json.dumps({"corpus": {"tables_per_db": [6, 6],
                                              "columns_per_table": [9, 9],
                                              "num_databases": 1, "examples_per_db": 3}}))
        out_dir = tmp_path / "corpus"
        if existing:
            out_dir.mkdir()
            (out_dir / "keep.txt").write_text("kept")
        code, out, err = run(capsys, "gen-corpus", "--config", str(cfg),
                             "--out", str(out_dir))
        assert code == 1 and out == ""
        assert err.startswith("error: example db000-") and err.endswith(f"(max {MAX_LEN})\n")
        if existing:
            assert sorted(os.listdir(out_dir)) == ["keep.txt"]
            assert (out_dir / "keep.txt").read_text() == "kept"
        else:
            assert not out_dir.exists()

    @pytest.mark.parametrize("change,named", [
        ({"gold_sql": 5}, "key 'gold_sql': expected a string, got int"),
        ({"db_id": ["x"]}, "key 'db_id': expected a string, got list"),
        ({"question": 7}, "key 'question': expected a string, got int"),
        ({"gold_sql": "SELECT nosuch FROM {table}"}, "key 'gold_sql': no such column: nosuch")],
        ids=["int-gold-sql", "list-db-id", "int-question", "unknown-column"])
    def test_bad_record_named_by_file_record_and_key(self, capsys, workspace, tmp_path,
                                                     change, named):
        record = json.loads((workspace["corpus"] / "train.jsonl").read_text().splitlines()[0])
        table = json.loads((workspace["corpus"] / "schema" / f"{record['db_id']}.json")
                           .read_text())["tables"][0]["name"]
        record.update({k: v.format(table=table) if isinstance(v, str) else v
                       for k, v in change.items()})
        corpus = tmp_path / "train.jsonl"
        corpus.write_text(json.dumps(record) + "\n")
        out_dir = tmp_path / "ckpt"
        code, out, err = run(capsys, "train", "--corpus", str(corpus),
                             "--vocab", str(workspace["corpus"] / "vocab.json"),
                             "--schema-dir", str(workspace["corpus"] / "schema"),
                             "--config", str(workspace["config"]), "--out", str(out_dir))
        assert code == 1 and out == ""
        assert err == f"error: {corpus}, record 1, {named}\n"
        assert not out_dir.exists()

    def test_repeated_example_id_is_an_error_line(self, capsys, workspace, tmp_path):
        """The id keys the weight cache and the noise stream, so a second
        record under one id is refused before the first step, and `--out`
        is not made."""
        first, second = (json.loads(line) for line in
                         (workspace["corpus"] / "train.jsonl").read_text().splitlines()[:2])
        second["example_id"] = first["example_id"]
        corpus = tmp_path / "train.jsonl"
        corpus.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n")
        code, out, err = run(capsys, "train", "--corpus", str(corpus),
                             "--vocab", str(workspace["corpus"] / "vocab.json"),
                             "--schema-dir", str(workspace["corpus"] / "schema"),
                             "--config", str(workspace["config"]),
                             "--out", str(tmp_path / "ckpt"))
        assert code == 1 and out == ""
        assert err == f"error: example id {first['example_id']!r} is repeated\n"
        assert not (tmp_path / "ckpt").exists()

    def test_empty_corpus_file_writes_nothing(self, capsys, workspace, tmp_path):
        empty = tmp_path / "train.jsonl"
        empty.write_text("")
        out_dir = tmp_path / "ckpt"
        code, _, err = run(capsys, "train", "--corpus", str(empty),
                           "--vocab", str(workspace["corpus"] / "vocab.json"),
                           "--schema-dir", str(workspace["corpus"] / "schema"),
                           "--config", str(workspace["config"]), "--out", str(out_dir))
        assert code == 1
        assert err == f"error: {empty}: no examples to train on\n"
        assert not out_dir.exists()

    def test_over_long_record_is_named_before_any_step(self, capsys, workspace, tmp_path):
        """A record longer than the model's max_len is refused with its id
        before the first step, so no log or checkpoint is written."""
        first, second = (json.loads(line) for line in
                         (workspace["corpus"] / "train.jsonl").read_text().splitlines()[:2])
        second["question"] += " and the name" * 100
        corpus = tmp_path / "train.jsonl"
        corpus.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n")
        out_dir = tmp_path / "ckpt"
        code, out, err = run(capsys, "train", "--corpus", str(corpus),
                             "--vocab", str(workspace["corpus"] / "vocab.json"),
                             "--schema-dir", str(workspace["corpus"] / "schema"),
                             "--config", str(workspace["config"]), "--out", str(out_dir))
        assert code == 1 and out == ""
        assert err.startswith(f"error: example {second['example_id']!r}: sequence of ")
        assert err.endswith(" tokens is longer than max_len 256\n")
        assert not out_dir.exists()

    def test_log_closed_when_training_fails(self, capsys, monkeypatch, workspace, tmp_path):
        from joltsql import cli, pipeline
        from joltsql.errors import NonFiniteLoss

        logs = []

        class RecordingLog(EventLog):
            def __init__(self, path):
                super().__init__(path)
                logs.append(self)

        def diverge(examples, model_config, config, log_fn=None, cache=None):
            log_fn("train_step", {"step": 0})
            raise NonFiniteLoss("step 0: L_SL=nan, L_NTP=nan")
        monkeypatch.setattr(cli, "EventLog", RecordingLog)
        monkeypatch.setattr(pipeline, "train", diverge)
        out_dir = tmp_path / "ckpt"
        code, _, err = run(capsys, "train",
                           "--corpus", str(workspace["corpus"] / "train.jsonl"),
                           "--config", str(workspace["config"]), "--out", str(out_dir))
        assert code == 1
        assert "NaN" in err or "nan" in err
        assert len(logs) == 1 and logs[0]._fh.closed
        events = (out_dir / "train_log.jsonl").read_text().splitlines()
        assert [json.loads(e)["stage"] for e in events] == ["train_step"]


    def test_diverging_run_is_one_error_line(self, capsys, workspace, tmp_path):
        """A learning rate that overflows the parameters stops at the loss
        or capture check with one `error:` line and no numpy warning."""
        cfg = json.loads(workspace["config"].read_text())
        cfg["train"].update(learning_rate=1e30, epochs=1)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "train",
                             "--corpus", str(workspace["corpus"] / "train.jsonl"),
                             "--config", str(cfg_path), "--out", str(tmp_path / "ckpt"))
        assert (code, out) == (1, "")
        assert err.startswith("error: step ") and err.count("\n") == 1


class TestInferEval:
    def test_infer_outputs_sql_json(self, capsys, workspace):
        schema_file = next((workspace["corpus"] / "schema").glob("*.json"))
        code, out, _ = run(capsys, "infer", "--ckpt", str(workspace["ckpt"]),
                           "--question", "show the name of each row",
                           "--schema", str(schema_file))
        assert code == 0
        obj = json.loads(out)
        assert {"sql", "predicted_columns", "used_fallback", "timings_ms"} <= obj.keys()

    def test_infer_prints_the_record_eval_writes(self, capsys, tmp_path, workspace):
        """One record shape: `jolt infer` on a dev example's question and
        schema prints its `examples.jsonl` record without the id, the
        verdict and the SQLite error, key for key."""
        out_dir = tmp_path / "eval"
        corpus = workspace["corpus"]
        code, _, _ = run(capsys, "eval", "--ckpt", str(workspace["ckpt"]),
                         "--dev", str(corpus / "dev.jsonl"), "--dbs", str(corpus / "dbs"),
                         "--out", str(out_dir))
        assert code == 0
        dev = json.loads((corpus / "dev.jsonl").read_text().splitlines()[0])
        record = json.loads((out_dir / "examples.jsonl").read_text().splitlines()[0])
        assert record["example_id"] == dev["example_id"]
        code, out, _ = run(capsys, "infer", "--ckpt", str(workspace["ckpt"]),
                           "--question", dev["question"],
                           "--schema", str(corpus / "schema" / f"{dev['db_id']}.json"))
        assert code == 0
        printed = json.loads(out)
        assert list(printed) == [k for k in record
                                 if k not in ("example_id", "verdict", "sqlite_error")]
        for key in ("sql", "predicted_columns", "used_fallback"):
            assert printed[key] == record[key]
        assert printed["timings_ms"].keys() == record["timings_ms"].keys()

    def test_infer_refuses_an_over_long_prompt_by_name(self, capsys, monkeypatch, workspace):
        """A question whose prompt is longer than the checkpoint's max_len is
        refused as the example's, before the prompt pass runs."""
        from joltsql import pipeline

        schema_file = next((workspace["corpus"] / "schema").glob("*.json"))
        monkeypatch.setattr(pipeline, "infer", lambda *args, **kw: pytest.fail("inferred"))
        code, out, err = run(capsys, "infer", "--ckpt", str(workspace["ckpt"]),
                             "--question", "show the name" + " and the name" * 100,
                             "--schema", str(schema_file))
        assert code == 1 and out == ""
        assert err.startswith("error: example 'query': prompt of ")
        assert err.endswith(" tokens is longer than max_len 256\n")

    def test_vocab_size_mismatch_rejected(self, capsys, tmp_path, workspace):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(workspace["ckpt"], ckpt)
        vocab = json.loads((ckpt / "vocab.json").read_text())
        vocab["zzz-extra-token"] = max(vocab.values()) + 1
        (ckpt / "vocab.json").write_text(json.dumps(vocab))
        schema_file = next((workspace["corpus"] / "schema").glob("*.json"))
        code, _, err = run(capsys, "infer", "--ckpt", str(ckpt),
                           "--question", "show the name of each row",
                           "--schema", str(schema_file))
        assert code == 1
        assert "vocab_size" in err and "vocab.json" in err

    def test_eval_writes_metrics(self, capsys, tmp_path, workspace):
        out_dir = tmp_path / "eval"
        code, out, _ = run(capsys, "eval", "--ckpt", str(workspace["ckpt"]),
                           "--dev", str(workspace["corpus"] / "dev.jsonl"),
                           "--dbs", str(workspace["corpus"] / "dbs"),
                           "--out", str(out_dir), "--max-new", "16")
        assert code == 0
        metrics = json.loads((out_dir / "metrics.json").read_text())
        for key in ("precision", "recall", "roc_auc", "pr_auc", "ex"):
            assert key in metrics
        assert "platform" not in metrics  # it goes to config.snapshot.json

    @pytest.mark.parametrize("content", [b"not a database\n", b""], ids=["text", "empty"])
    def test_eval_on_unreadable_databases_is_named(self, capsys, tmp_path, workspace,
                                                   content):
        """A database file that holds text, or nothing, is an error naming
        it, not an EX of 0 over gold errors; the file is left as it was."""
        dbs = tmp_path / "dbs"
        dbs.mkdir()
        for db in (workspace["corpus"] / "dbs").glob("*.sqlite"):
            (dbs / db.name).write_bytes(content)
        code, out, err = run(capsys, "eval", "--ckpt", str(workspace["ckpt"]),
                             "--dev", str(workspace["corpus"] / "dev.jsonl"),
                             "--dbs", str(dbs), "--out", str(tmp_path / "eval"),
                             "--max-new", "16")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read {dbs}") and err.count("\n") == 1
        assert all(db.read_bytes() == content for db in dbs.iterdir())

    def test_eval_writes_one_record_per_example(self, capsys, tmp_path, workspace):
        """`examples.jsonl` next to `metrics.json`: one line per dev example,
        in order, whose verdicts count up to `ex_counts`."""
        out_dir = tmp_path / "eval"
        dev = workspace["corpus"] / "dev.jsonl"
        code, _, _ = run(capsys, "eval", "--ckpt", str(workspace["ckpt"]), "--dev", str(dev),
                         "--dbs", str(workspace["corpus"] / "dbs"),
                         "--out", str(out_dir), "--max-new", "16")
        assert code == 0
        metrics = json.loads((out_dir / "metrics.json").read_text())
        lines = (out_dir / "examples.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        ids = [json.loads(line)["example_id"] for line in dev.read_text().splitlines()
               if line.strip()]
        assert [r["example_id"] for r in records] == ids
        for r in records:
            assert set(r) == {"example_id", "predicted_columns", "sql", "verdict",
                              "used_fallback", "sqlite_error", "timings_ms"}
            assert r["used_fallback"] == (r["predicted_columns"] == [])
            assert set(r["timings_ms"]) == {"linking", "generation", "end_to_end"}
        assert dict(Counter(r["verdict"] for r in records)) == metrics["ex_counts"]

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_failed_run_leaves_no_out(self, capsys, tmp_path, workspace, command):
        """`--out` is made only once there is something to write in it."""
        out_dir = tmp_path / "eval"
        missing = tmp_path / "nonexistent"
        code, out, err = run(capsys, command, "--ckpt", str(workspace["ckpt"]),
                             "--dev", str(workspace["corpus"] / "dev.jsonl"),
                             "--dbs", str(missing), "--out", str(out_dir))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot open {missing}")
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_over_long_prompt_is_named_before_any_work(self, capsys, monkeypatch, tmp_path,
                                                       workspace, command):
        """A dev record whose prompt is longer than the checkpoint's max_len
        is refused with its id before any example is scored, and `--out` is
        not made."""
        from joltsql import evaluation

        records = [json.loads(line) for line in
                   (workspace["corpus"] / "dev.jsonl").read_text().splitlines()[:2]]
        records[-1]["question"] += " and the name" * 100
        dev = tmp_path / "dev.jsonl"
        dev.write_text("".join(json.dumps(r) + "\n" for r in records))
        scored = []
        infer_thresholds = evaluation.infer_thresholds
        monkeypatch.setattr(evaluation, "infer_thresholds",
                            lambda *args: scored.append(args) or infer_thresholds(*args))
        out_dir = tmp_path / "eval"
        code, out, err = run(capsys, command, "--ckpt", str(workspace["ckpt"]),
                             "--dev", str(dev), "--dbs", str(workspace["corpus"] / "dbs"),
                             "--schema-dir", str(workspace["corpus"] / "schema"),
                             "--out", str(out_dir))
        assert code == 1 and out == ""
        assert err.startswith(f"error: example {records[-1]['example_id']!r}: prompt of ")
        assert err.endswith(" tokens is longer than max_len 256\n")
        assert scored == []
        assert not out_dir.exists()

    @pytest.mark.parametrize("argv", [("eval",), ("eval", "--average", "macro"), ("sweep",)],
                             ids=["eval-micro", "eval-macro", "sweep"])
    def test_empty_dev_file_is_named(self, capsys, tmp_path, workspace, argv):
        empty, out_dir = tmp_path / "dev.jsonl", tmp_path / "eval"
        empty.write_text("\n")
        code, out, err = run(capsys, *argv, "--ckpt", str(workspace["ckpt"]),
                             "--dev", str(empty), "--dbs", str(workspace["corpus"] / "dbs"),
                             "--schema-dir", str(workspace["corpus"] / "schema"),
                             "--out", str(out_dir))
        assert code == 1 and out == ""
        assert err == f"error: {empty}: no examples to evaluate\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_negative_max_new_is_an_error_line(self, capsys, tmp_path, workspace, command):
        out_dir = tmp_path / "eval"
        code, out, err = run(capsys, command, "--ckpt", str(workspace["ckpt"]),
                             "--dev", str(workspace["corpus"] / "dev.jsonl"),
                             "--dbs", str(workspace["corpus"] / "dbs"),
                             "--out", str(out_dir), "--max-new", "-1")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "--max-new" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("value", ["nan", "-1", "2"])
    @pytest.mark.parametrize("command", ["infer", "eval"])
    def test_threshold_outside_zero_to_one_is_an_error_line(self, capsys, tmp_path,
                                                            workspace, command, value):
        # the checkpoint does not exist: the threshold is checked before it loads
        ckpt, out_dir = tmp_path / "nockpt", tmp_path / "eval"
        schema_file = next((workspace["corpus"] / "schema").glob("*.json"))
        argv = {"infer": ("--question", "q", "--schema", str(schema_file)),
                "eval": ("--dev", str(workspace["corpus"] / "dev.jsonl"),
                         "--dbs", str(workspace["corpus"] / "dbs"), "--out", str(out_dir))}
        code, out, err = run(capsys, command, "--ckpt", str(ckpt), *argv[command],
                             "--threshold", value)
        assert code == 1 and out == ""
        assert err.startswith("error: --threshold must be in [0, 1]")
        assert not out_dir.exists()

    @pytest.mark.parametrize("value", ["0", "1"])
    def test_threshold_bounds_accepted(self, capsys, workspace, value):
        schema_file = next((workspace["corpus"] / "schema").glob("*.json"))
        code, out, _ = run(capsys, "infer", "--ckpt", str(workspace["ckpt"]),
                           "--question", "show the name of each row",
                           "--schema", str(schema_file), "--threshold", value)
        assert code == 0
        assert json.loads(out)["used_fallback"] == (value == "1")

    def test_sweep_writes_csv_and_svg(self, capsys, tmp_path, workspace):
        out_dir = tmp_path / "sweep"
        code, out, _ = run(capsys, "sweep", "--ckpt", str(workspace["ckpt"]),
                           "--dev", str(workspace["corpus"] / "dev.jsonl"),
                           "--dbs", str(workspace["corpus"] / "dbs"),
                           "--out", str(out_dir), "--max-new", "8")
        assert code == 0
        csv = (out_dir / "sweep.csv").read_text()
        assert csv.splitlines()[0] == "threshold,precision,recall,ex"
        assert len(csv.splitlines()) == 8  # header + 7 thresholds
        assert (out_dir / "sweep.svg").read_text().startswith("<svg")


def config_command(command, workspace, tmp_path, config):
    """`jolt train` or `jolt gen-corpus` argv reading the given config file."""
    if command == "train":
        return ("train", "--corpus", str(workspace["corpus"] / "train.jsonl"),
                "--config", str(config), "--out", str(tmp_path / "ckpt"))
    return ("gen-corpus", "--config", str(config), "--out", str(tmp_path / "corpus"))


class TestSeedPlumbing:
    def test_env_seed_override(self, capsys, tmp_path, workspace, monkeypatch):
        monkeypatch.setenv("JOLT_SEED", "99")
        out_dir = tmp_path / "ckpt99"
        code, out, _ = run(capsys, "train",
                           "--corpus", str(workspace["corpus"] / "train.jsonl"),
                           "--config", str(workspace["config"]),
                           "--out", str(out_dir))
        assert code == 0
        snap = json.loads((out_dir / "config.snapshot.json").read_text())
        assert snap["train"]["seed"] == 99

    @pytest.mark.parametrize("command", ["train", "gen-corpus"])
    def test_non_integer_env_seed_is_an_error_line(self, capsys, tmp_path, workspace,
                                                    monkeypatch, command):
        monkeypatch.setenv("JOLT_SEED", "abc")
        code, _, err = run(capsys, *config_command(command, workspace, tmp_path,
                                                   workspace["config"]))
        assert code == 1
        assert err.startswith("error:") and "JOLT_SEED" in err

    @pytest.mark.parametrize("command, flag, section", [
        ("gen-corpus", False, "corpus"), ("train", False, "train"), ("train", True, "train")],
        ids=["gen-corpus-env", "train-env", "train-flag"])
    def test_negative_seed_is_an_error_line_and_writes_nothing(self, capsys, tmp_path,
                                                               workspace, monkeypatch,
                                                               command, flag, section):
        argv = config_command(command, workspace, tmp_path, workspace["config"])
        if flag:
            argv += ("--seed", "-1")
        else:
            monkeypatch.setenv("JOLT_SEED", "-1")
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: config section '{section}'") and "seed" in err
        assert not (tmp_path / "corpus").exists() and not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize("command", ["train", "gen-corpus"])
    @pytest.mark.parametrize("config, named", [(["train"], "top level"),
                                               ({"train": 5}, "'train'")])
    def test_config_that_is_not_an_object_is_an_error_line(self, capsys, tmp_path,
                                                            workspace, command,
                                                            config, named):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        code, _, err = run(capsys, *config_command(command, workspace, tmp_path, bad))
        assert code == 1
        assert err.startswith("error:") and named in err

    def test_unknown_config_section_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"bogus_section": {}}))
        code, _, err = run(capsys, "gen-corpus", "--config", str(bad),
                           "--out", str(tmp_path / "x"))
        assert code == 1


class TestEventLog:
    def test_counter_and_fields(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = EventLog(str(path))
        log.log_event("alpha", {"x": 1})
        log.log_event("beta", {"y": 2})
        log.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["event"] == 0 and lines[0]["stage"] == "alpha"
        assert lines[1]["event"] == 1 and lines[1]["y"] == 2
        assert all("wall_time" in line for line in lines)

    def test_file_and_directory_made_at_the_first_event(self, tmp_path):
        path = tmp_path / "run" / "log.jsonl"
        log = EventLog(str(path))
        assert not path.parent.exists()
        log.log_event("alpha", {})
        log.close()
        assert json.loads(path.read_text())["stage"] == "alpha"

    def test_null_path_noop(self):
        log = EventLog(None)
        log.log_event("alpha", {})
        log.close()

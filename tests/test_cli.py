import json
import os
import platform
import shutil

import numpy as np
import pytest

from joltsql.cli import EventLog, main


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

    def test_encode_rejects_malformed_spans(self, capsys, tmp_path, workspace):
        spans = tmp_path / "spans.json"
        spans.write_text(json.dumps({"t": {"header": [0, 5]}}))
        text = tmp_path / "text.txt"
        text.write_text("x")
        code, _, err = run(capsys, "encode", "--prefix", str(text), "--schema", str(text),
                           "--spans", str(spans), "--query", str(text),
                           "--vocab", str(workspace["corpus"] / "vocab.json"))
        assert code == 1
        assert err.startswith("error:") and "'t'" in err
        assert "missing keys fk, footer, pk" in err


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
        assert record.keys() == {"python", "numpy", "blas", "blas_version"}
        assert record["python"] == platform.python_version()
        assert record["numpy"] == np.__version__
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
    ])
    def test_bad_section_rejected_before_corpus_loads(self, capsys, monkeypatch,
                                                      workspace, tmp_path,
                                                      section, values, named):
        from joltsql import pipeline

        def no_load(*args, **kwargs):
            raise AssertionError("corpus loaded before the config was checked")
        monkeypatch.setattr(pipeline, "load_corpus", no_load)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({section: values}))
        code, _, err = run(capsys, "train",
                           "--corpus", str(workspace["corpus"] / "train.jsonl"),
                           "--config", str(cfg), "--out", str(tmp_path / "ckpt"))
        assert code == 1
        assert err.startswith(f"error: config section '{section}'")
        assert named in err
        assert "Traceback" not in err

    def test_bad_corpus_key_in_gen_corpus(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"corpus": {"num_tables": 3}}))
        code, _, err = run(capsys, "gen-corpus", "--config", str(cfg),
                           "--out", str(tmp_path / "corpus"))
        assert code == 1
        assert "num_tables" in err

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


class TestInferEval:
    def test_infer_outputs_sql_json(self, capsys, workspace):
        schema_file = next((workspace["corpus"] / "schema").glob("*.json"))
        code, out, _ = run(capsys, "infer", "--ckpt", str(workspace["ckpt"]),
                           "--question", "show the name of each row",
                           "--schema", str(schema_file))
        assert code == 0
        obj = json.loads(out)
        assert {"sql", "predicted_columns", "used_fallback", "timings_ms"} <= obj.keys()

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

    def test_null_path_noop(self):
        log = EventLog(None)
        log.log_event("alpha", {})
        log.close()

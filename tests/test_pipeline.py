import copy
import json

import numpy as np
import pytest

from joltsql import model, pipeline
from joltsql.corpus import CorpusConfig, generate_corpus
from joltsql.errors import DegenerateExample, EmptyPrediction, MissingCacheEntry
from joltsql.masks import build_joint_mask
from joltsql.model import ModelConfig, ModelParams, forward, greedy_generate
from joltsql.pipeline import (PREFIX_TEMPLATE, TrainConfig,
                              assemble_segments, build_training_example,
                              capture_sampling_weights, encode_prompt,
                              example_from_json, example_to_json,
                              full_schema_prompt, infer, link_schema,
                              load_corpus, prepare_inference_example,
                              prune_prompt, train)
from joltsql.schema import (MARKER_TEXT, Column, SchemaDocument, Table,
                            serialize_schema)
from joltsql.tokenizer import EOS, MARKER, Vocab, build_vocab, decode

GOLD = "SELECT name FROM singer WHERE age > 30"
GOLD2 = "SELECT T1 . name , T2 . year FROM stadium AS T1 JOIN concert AS T2 ON T1 . id = T2 . stadium_id"


@pytest.fixture(scope="module")
def vocab(concert_schema):
    text, _ = serialize_schema(concert_schema)
    return build_vocab([
        PREFIX_TEMPLATE.format(question="what is the name of singers older than 30 ?"),
        PREFIX_TEMPLATE.format(question="show stadium names with concert years"),
        GOLD, GOLD2, text,
    ])


@pytest.fixture(scope="module")
def example(concert_schema, vocab):
    return build_training_example(
        "what is the name of singers older than 30 ?", concert_schema, GOLD,
        vocab, "ex-0", "db-0")


@pytest.fixture(scope="module")
def join_example(concert_schema, vocab):
    return build_training_example(
        "show stadium names with concert years", concert_schema, GOLD2,
        vocab, "ex-1", "db-0")


def flagged_ids(example, attend):
    """The prompt token ids a visibility vector flags, in prompt order."""
    return [example.tokens.ids[i] for i in np.flatnonzero(attend)]


def same_vector(got, want):
    """Boolean vectors of one length, equal entry for entry."""
    return got.dtype == want.dtype == bool and np.array_equal(got, want)


def tiny_model(vocab):
    return ModelConfig(vocab_size=len(vocab), dim=16, heads=2, layers=1, max_len=256)


class TestBuildExample:
    def test_links_and_labels(self, example, concert_schema):
        assert example.link == {("singer", "name"), ("singer", "age")}
        assert sum(example.label) == 2
        assert len(example.label) == len(concert_schema.all_columns())

    @pytest.mark.parametrize("which", ["example", "join_example"])
    def test_label_follows_marker_order(self, request, which):
        ex = request.getfixturevalue(which)
        assert ex.label == [int((t, c) in ex.link) for t, c, _ in ex.seg.marker_columns]

    def test_query_ends_with_eos(self, example):
        last = max(example.seg.query)
        assert example.tokens.ids[last] == EOS
        assert example.seg.validate_partition()

    def test_degenerate_rejected(self, concert_schema, vocab):
        with pytest.raises(DegenerateExample):
            build_training_example("count singers", concert_schema,
                                   "SELECT count ( * ) FROM singer",
                                   vocab, "bad")

    def test_gold_sql_token_round_trip(self, example, vocab):
        qpos = sorted(example.seg.query)[:-1]  # drop EOS
        assert decode([example.tokens.ids[i] for i in qpos], vocab) == GOLD


class TestAssembleSegments:
    def test_gt_includes_table_envelope(self, example):
        seg = assemble_segments(example, set())
        assert example.seg.table_envelope("singer") <= seg.gt_schema
        a, b = example.seg.column_token_range("singer", "name")
        assert set(range(a, b)) <= seg.gt_schema
        assert seg.noisy_schema == set()

    def test_noisy_column_brings_foreign_table_structure(self, example):
        seg = assemble_segments(example, {("stadium", "capacity")})
        a, b = example.seg.column_token_range("stadium", "capacity")
        assert set(range(a, b)) <= seg.noisy_schema
        assert example.seg.table_envelope("stadium") <= seg.noisy_schema

    def test_noisy_same_table_no_extra_envelope(self, example):
        seg = assemble_segments(example, {("singer", "country")})
        a, b = example.seg.column_token_range("singer", "country")
        expected = set(range(a, b))
        assert seg.noisy_schema == expected

    def test_fresh_per_step(self, example):
        s1 = assemble_segments(example, {("stadium", "city")})
        s2 = assemble_segments(example, set())
        assert s2.noisy_schema == set()
        assert s1.noisy_schema != s2.noisy_schema
        assert example.seg.gt_schema == set()  # original untouched

    @pytest.mark.parametrize("which", ["example", "join_example"])
    def test_one_column_token_rule(self, request, which):
        """Training's attended schema and inference's pruned prompt come from
        one rule, checked against the table layout on random column sets."""
        ex = request.getfixturevalue(which)
        columns = [(t, c) for t, c, _ in ex.seg.marker_columns]
        n_ps = len(ex.seg.prefix | ex.seg.schema)
        query_row = min(ex.seg.query)
        rng = np.random.default_rng(11)
        for _ in range(50):
            k = int(rng.integers(1, len(columns) + 1))
            noisy = {columns[i] for i in rng.choice(len(columns), size=k, replace=False)}
            union = ex.link | noisy
            # reference: every element of a touched table except the
            # definitions of its columns outside the set
            expected = set()
            for table, ts in ex.seg.table_elements.items():
                if any(t == table for t, _ in union):
                    kept = [span for c, span in ts.columns.items() if (table, c) in union]
                    for a, b in ts.envelope_spans() + kept:
                        expected.update(range(a, b))
            assert ex.seg.schema_tokens(union) == expected
            seg = assemble_segments(ex, noisy)
            assert seg.gt_schema | seg.noisy_schema == expected
            visible = build_joint_mask(seg).visible[query_row, :n_ps]
            assert same_vector(prune_prompt(ex, union), visible)


class TestTrainLoop:
    def test_capture_counter_epoch_one_only(self, example, join_example, vocab):
        examples = [example, join_example]
        res = train(examples, tiny_model(vocab),
                    TrainConfig(epochs=3, learning_rate=1e-3, grad_accum=1, seed=1))
        assert res.cache.capture_count == len(examples)
        for ex in examples:
            assert len(res.cache.lookup(ex.example_id)) == len(ex.non_gt_columns())

    def test_cached_weights_stable_across_epochs(self, example, join_example, vocab):
        captured = {}

        def log_fn(stage, entry):
            pass

        res = train([example, join_example], tiny_model(vocab),
                    TrainConfig(epochs=2, learning_rate=1e-3, grad_accum=1, seed=2),
                    log_fn=log_fn)
        first = {k: list(v) for k, v in res.cache._store.items()}
        # cache holds exactly the epoch-1 values afterwards
        assert res.cache.capture_count == 2
        assert first == res.cache._store

    def test_no_capture_in_random_and_none_modes(self, example, vocab):
        for mode in ("random", "none"):
            res = train([example], tiny_model(vocab),
                        TrainConfig(epochs=2, learning_rate=1e-3, grad_accum=1,
                                    seed=3, noise_mode=mode))
            assert res.cache.capture_count == 0

    def test_noise_counts_honest(self, example, vocab):
        res = train([example], tiny_model(vocab),
                    TrainConfig(epochs=2, learning_rate=1e-3, grad_accum=1,
                                seed=4, beta=0.3))
        bound = int(np.floor(0.3 * len(example.seg.marker_columns)))
        for entry in res.log:
            assert 0 <= entry["k_noisy"] <= bound

    def test_none_mode_never_noisy(self, example, vocab):
        res = train([example], tiny_model(vocab),
                    TrainConfig(epochs=2, learning_rate=1e-3, grad_accum=1,
                                seed=5, noise_mode="none"))
        assert all(entry["k_noisy"] == 0 for entry in res.log)

    def test_log_contains_both_losses(self, example, vocab):
        res = train([example], tiny_model(vocab),
                    TrainConfig(epochs=1, learning_rate=1e-3, grad_accum=1, seed=6))
        for entry in res.log:
            assert {"step", "epoch", "example_id", "l_sl", "l_ntp"} <= entry.keys()
            assert np.isfinite(entry["l_sl"]) and np.isfinite(entry["l_ntp"])

    def test_grad_norm_logged_on_optimizer_steps(self, example, vocab, monkeypatch):
        from joltsql import autodiff as ad
        norms = []
        clip = ad.clip_grad_norm

        def spy(params, max_norm):
            norms.append(clip(params, max_norm))
            return norms[-1]

        monkeypatch.setattr(ad, "clip_grad_norm", spy)
        events = []
        res = train([example], tiny_model(vocab),
                    TrainConfig(epochs=3, learning_rate=1e-3, grad_accum=2, seed=8),
                    log_fn=lambda stage, entry: events.append(entry))
        # steps 0-1 fill one accumulation; step 2 is the final partial one
        assert [e["step"] for e in res.log if "grad_norm" in e] == [1, 2]
        assert [e["grad_norm"] for e in res.log if "grad_norm" in e] == norms
        assert all(np.isfinite(n) and n > 0 for n in norms)
        assert events == res.log

    def test_deterministic_training(self, example, join_example, vocab):
        cfg = TrainConfig(epochs=2, learning_rate=1e-3, grad_accum=2, seed=7)
        a = train([example, join_example], tiny_model(vocab), cfg)
        b = train([example, join_example], tiny_model(vocab), cfg)
        for k, v in a.params.named_params().items():
            assert np.array_equal(v.data, b.params.named_params()[k].data), k
        assert a.cache._store == b.cache._store

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(beta=1.5)
        with pytest.raises(ValueError):
            TrainConfig(noise_mode="bogus")


def full_sequence_capture(params, example):
    """The capture as it was: a no-gradient forward of the whole sequence
    under the joint mask with an empty noisy set, read at non-GT markers."""
    seg = assemble_segments(example, set())
    with model.no_grad(params):
        out = forward(params, example.tokens.ids, build_joint_mask(seg))
    probs = out.marker_probs.data[:, 0]
    return [float(probs[pos]) for t, c, pos in example.seg.marker_columns
            if (t, c) not in example.link]


class TestCaptureWeights:
    def test_length_and_range(self, example, vocab):
        params = ModelParams(tiny_model(vocab), seed=0)
        weights = capture_sampling_weights(params, example)
        assert len(weights) == len(example.non_gt_columns())
        assert all(0.0 < w < 1.0 for w in weights)

    @pytest.mark.parametrize("which", ["example", "join_example"])
    def test_reads_the_linking_pass(self, request, vocab, which):
        ex = request.getfixturevalue(which)
        params = ModelParams(tiny_model(vocab), seed=0)
        want = [s for t, c, s in link_schema(params, ex) if (t, c) not in ex.link]
        assert capture_sampling_weights(params, ex) == want

    def test_matches_full_sequence_capture(self, tmp_path):
        """The prompt-only pass agrees with the capture's former forward of
        the whole sequence to rounding: marker rows never see query rows."""
        generated = generate_corpus(CorpusConfig(), str(tmp_path))
        vocab = Vocab.load(generated.vocab_path)
        train_set = load_corpus(generated.train_path, vocab, generated.schemas)
        params = train(train_set[:20], ModelConfig(vocab_size=len(vocab), dim=32, heads=4,
                                                   layers=2),
                       TrainConfig(epochs=1, learning_rate=3e-3, grad_accum=1)).params
        for ex in train_set[:20]:
            got = capture_sampling_weights(params, ex)
            want = full_sequence_capture(params, ex)
            assert len(got) == len(want) == len(ex.non_gt_columns())
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)

    def test_missing_cache_lookup_raises(self, example, vocab):
        from joltsql.sampling import WeightCache
        with pytest.raises(MissingCacheEntry):
            WeightCache().lookup(example.example_id)


class TestLinkAndPrune:
    def test_link_scores_all_columns(self, example, vocab):
        params = ModelParams(tiny_model(vocab), seed=0)
        scored = link_schema(params, example)
        assert len(scored) == len(example.seg.marker_columns)
        assert all(0.0 < s < 1.0 for _, _, s in scored)

    def test_prune_drops_markers_and_unpredicted(self, example, vocab):
        predicted = {("singer", "name"), ("singer", "age")}
        ids = flagged_ids(example, prune_prompt(example, predicted))
        text = decode(ids, vocab)
        assert MARKER_TEXT not in text
        assert MARKER not in ids
        # unpredicted tables vanish entirely
        assert "stadium" not in text
        assert "concert" not in text.replace("singer_in_concert", "")
        # predicted table structure retained
        assert "CREATE TABLE singer" in text
        assert "name" in text and "age" in text
        assert "country" not in text

    def test_prune_positions_are_original_and_sorted(self, example):
        attend = prune_prompt(example, {("singer", "name")})
        assert attend.dtype == bool
        assert len(attend) == len(example.seg.prefix | example.seg.schema)
        ids = flagged_ids(example, attend)
        positions = np.flatnonzero(attend).tolist()
        assert positions == sorted(positions)
        assert len(ids) == len(positions)
        for i, p in zip(ids, positions):
            assert example.tokens.ids[p] == i

    def test_prune_keeps_prefix(self, example, vocab):
        positions = np.flatnonzero(prune_prompt(example, {("singer", "name")})).tolist()
        n_prefix = len(example.seg.prefix)
        assert positions[:n_prefix] == sorted(example.seg.prefix)

    def test_empty_prediction_rejected(self, example):
        with pytest.raises(EmptyPrediction):
            prune_prompt(example, set())

    def test_full_schema_prompt_has_all_tables(self, example, vocab):
        attend = full_schema_prompt(example)
        assert len(attend) == len(example.seg.prefix | example.seg.schema)
        text = decode(flagged_ids(example, attend), vocab)
        for table in ("singer", "concert", "stadium", "singer_in_concert"):
            assert f"CREATE TABLE {table}" in text
        assert MARKER_TEXT not in text


class TestInfer:
    def test_returns_sql_and_timings(self, example, vocab):
        params = ModelParams(tiny_model(vocab), seed=0)
        result = infer(params, example, vocab, threshold=0.05, max_new=8)
        assert isinstance(result.sql, str)
        assert set(result.timings_ms) == {"linking", "generation", "end_to_end"}
        assert result.timings_ms["end_to_end"] >= result.timings_ms["generation"]

    def test_high_threshold_falls_back_to_full_schema(self, example, vocab):
        params = ModelParams(tiny_model(vocab), seed=0)
        result = infer(params, example, vocab, threshold=0.999, max_new=4)
        assert result.used_fallback
        assert result.predicted_columns == []

    def test_inference_shell_has_empty_query(self, concert_schema, vocab):
        shell = prepare_inference_example("what is the name ?", concert_schema, vocab)
        assert shell.seg.query == set()
        assert shell.link == set()
        params = ModelParams(tiny_model(vocab), seed=0)
        result = infer(params, shell, vocab, max_new=4)
        assert isinstance(result.sql, str)


def joint_layout(example, columns, n_query):
    """The example's prefix+schema followed by n_query query rows, with the
    given columns and their tables' structure as the attended schema: the
    set assemble_segments builds from gold links."""
    n_ps = len(example.seg.prefix | example.seg.schema)
    seg = copy.copy(example.seg)
    seg.n = n_ps + n_query
    seg.query = set(range(n_ps, n_ps + n_query))
    seg.gt_schema = example.seg.schema_tokens(columns)
    seg.noisy_schema = set()
    return seg


def uncached_joint_decode(params, example, columns, max_new, stop_id=EOS, logits=None):
    """Reference decoder: a full forward under build_joint_mask at every step.
    Appends each step's last-row logits to `logits` when given."""
    n_ps = len(example.seg.prefix | example.seg.schema)
    ids = list(example.tokens.ids[:n_ps])
    for _ in range(max_new):
        if len(ids) >= params.config.max_len:
            break
        seg = joint_layout(example, columns, len(ids) - n_ps)
        row = forward(params, ids, build_joint_mask(seg)).lm_logits.data[-1]
        if logits is not None:
            logits.append(row)
        nxt = int(np.argmax(row))
        ids.append(nxt)
        if nxt == stop_id:
            break
    return ids[n_ps:]


def seeded_model(vocab, seed, dtype="float32", max_len=256):
    return ModelParams(ModelConfig(vocab_size=len(vocab), dim=16, heads=2, layers=2,
                                   max_len=max_len, dtype=dtype), seed=seed)


@pytest.fixture(scope="module", params=["float32", "float64"])
def decoders(request, example, join_example, vocab):
    """Seeded tiny models of one dtype: two untrained, and one trained
    briefly on both examples so that its decodes follow the prompt."""
    dtype = request.param
    trained = train([example, join_example],
                    ModelConfig(vocab_size=len(vocab), dim=16, heads=2, layers=2,
                                max_len=256, dtype=dtype),
                    TrainConfig(epochs=20, learning_rate=3e-3, grad_accum=1,
                                noise_mode="random")).params
    return [trained, seeded_model(vocab, 0, dtype), seeded_model(vocab, 1, dtype)]


def split_threshold(params, example):
    """A threshold that predicts some columns but not all."""
    scores = sorted(s for _, _, s in link_schema(params, example))
    mid = len(scores) // 2
    return (scores[mid - 1] + scores[mid]) / 2


class TestDecodeUnderTrainingMask:
    @pytest.mark.parametrize("case", ["predicted", "fallback"])
    def test_decode_rows_match_joint_mask(self, example, vocab, monkeypatch, case):
        params = seeded_model(vocab, seed=3)
        n_ps = len(example.seg.prefix | example.seg.schema)
        threshold = split_threshold(params, example) if case == "predicted" else 0.999
        calls = []

        def spy(params, ids, mask, past=None):
            calls.append((len(ids), mask.visible.copy(), past is not None))
            return forward(params, ids, mask, past=past)

        monkeypatch.setattr(model, "forward", spy)
        monkeypatch.setattr(pipeline, "forward", spy)
        result = infer(params, example, vocab, threshold=threshold, max_new=6)
        predicted = {(t, c) for t, c, _ in result.predicted_columns}
        if case == "predicted":
            assert 0 < len(predicted) < len(example.seg.marker_columns)
            assert not result.used_fallback
            attend = prune_prompt(example, predicted)
            columns = predicted
        else:
            assert predicted == set() and result.used_fallback
            attend = full_schema_prompt(example)
            columns = {(t, c) for t, c, _ in example.seg.marker_columns}

        # one prompt forward, then one row per decode step
        assert calls[0][0] == n_ps and not calls[0][2]
        rows = calls[1:]
        assert len(rows) == 5
        assert all(n == 1 and cached for n, _, cached in rows)
        mask = build_joint_mask(joint_layout(example, columns, len(rows))).visible
        assert np.array_equal(calls[0][1], mask[:n_ps, :n_ps])
        for j, (_, visible, _) in enumerate(rows):
            i = n_ps + j
            assert visible.shape == (1, i + 1)
            assert np.array_equal(visible[0], mask[i, :i + 1])
            assert not mask[i, i + 1:].any()
            assert same_vector(visible[0, :n_ps], attend)

    def test_cached_decode_matches_uncached(self, example, join_example, vocab, decoders,
                                            monkeypatch):
        seen = []

        def spy(*args, **kwargs):
            out = forward(*args, **kwargs)
            seen.append(out.lm_logits.data[-1])
            return out

        monkeypatch.setattr(model, "forward", spy)
        monkeypatch.setattr(pipeline, "forward", spy)
        for params in decoders:
            # logits agree to rounding: row-at-a-time products round differently
            tol = 1e-5 if params.config.dtype == "float32" else 1e-12
            for ex in (example, join_example):
                for threshold in (split_threshold(params, ex), 0.999):
                    seen.clear()
                    result = infer(params, ex, vocab, threshold=threshold, max_new=16)
                    columns = ({(t, c) for t, c, _ in result.predicted_columns}
                               or {(t, c) for t, c, _ in ex.seg.marker_columns})
                    expected = []
                    reference = uncached_joint_decode(params, ex, columns, 16, logits=expected)
                    if reference and reference[-1] == EOS:
                        reference = reference[:-1]
                    assert result.sql == decode(reference, vocab)
                    assert len(set(reference)) > 1  # a decode that varies
                    assert len(seen) == len(expected)
                    np.testing.assert_allclose(seen, expected, rtol=0, atol=tol)

    def test_one_encoding_serves_decodes_of_several_sets(self, example, vocab, decoders,
                                                         monkeypatch):
        """Decodes of different predicted sets from one encoding leave its
        K/V bytes as they were, and each matches a decode from a fresh
        encoding token for token, with byte-equal decode-row logits."""
        n_ps = len(example.seg.prefix | example.seg.schema)
        prompt = example.tokens.ids[:n_ps]
        sets = [{("singer", "name"), ("singer", "age")}, {("stadium", "city")}]
        rows = []

        def spy(*args, **kwargs):
            out = forward(*args, **kwargs)
            rows.append(out.lm_logits.data.tobytes())
            return out

        def decode(params, encoded, columns):
            attend = prune_prompt(example, columns)
            rows.clear()
            ids = greedy_generate(params, prompt, 12, -1, encoded=encoded, attend=attend)
            return ids, list(rows)

        monkeypatch.setattr(model, "forward", spy)
        for params in decoders:
            encoded = encode_prompt(params, example)
            before = [(k.tobytes(), v.tobytes()) for k, v in encoded.kv]
            shared = [decode(params, encoded, columns) for columns in sets + sets[:1]]
            assert [(k.tobytes(), v.tobytes()) for k, v in encoded.kv] == before
            fresh = [decode(params, encode_prompt(params, example), columns)
                     for columns in sets]
            assert shared == fresh + fresh[:1]
            assert len(fresh[0][1]) == 11 and fresh[0][1] != fresh[1][1]

    def test_first_token_and_limits_match_uncached(self, example, vocab, decoders):
        n_ps = len(example.seg.prefix | example.seg.schema)
        prompt = example.tokens.ids[:n_ps]
        columns = {("singer", "name"), ("stadium", "city")}

        def cached(params, max_new, stop_id):
            out = greedy_generate(params, prompt, max_new, stop_id,
                                  encoded=encode_prompt(params, example),
                                  attend=prune_prompt(example, columns))
            return out[n_ps:]

        def reference(params, max_new, stop_id):
            return uncached_joint_decode(params, example, columns, max_new, stop_id)

        for params in decoders:
            # first token: the prompt forward's last row, no decode row
            assert cached(params, 1, EOS) == reference(params, 1, EOS)
            long = reference(params, 10, -1)
            assert len(long) == 10
            assert cached(params, 10, -1) == long
            # stop id: decoding ends on its first occurrence, which is kept
            stop = long[4]
            stopped = cached(params, 10, stop)
            assert stopped == reference(params, 10, stop)
            assert len(stopped) == long.index(stop) + 1
        # max_len: no token is placed at position max_len or beyond
        short = seeded_model(vocab, 0, decoders[0].config.dtype, max_len=n_ps + 3)
        capped = cached(short, 10, -1)
        assert capped == reference(short, 10, -1)
        assert len(capped) == 3


class TestSerialization:
    def test_json_round_trip(self, example, vocab, concert_schema):
        obj = example_to_json(example)
        clone = example_from_json(json.loads(json.dumps(obj)), vocab, concert_schema)
        assert clone.tokens.ids == example.tokens.ids
        assert clone.link == example.link
        assert clone.label == example.label
        assert clone.seg.marker_columns == example.seg.marker_columns
        assert clone.seg.query == example.seg.query

    def test_json_fields_present(self, example):
        obj = example_to_json(example)
        for key in ("example_id", "db_id", "question", "text", "gold_sql",
                    "link", "label", "schema_element_token_spans",
                    "query_span", "char_spans"):
            assert key in obj
        spans = obj["schema_element_token_spans"]["singer"]
        assert {"header", "pk", "fk", "footer", "columns"} <= spans.keys()

    def test_fk_spans_keep_serialization_order(self):
        """With 12 foreign keys, fk 10 and 11 follow fk 9 in the written
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
        fk = example_to_json(ex)["schema_element_token_spans"]["child"]["fk"]
        assert len(fk) == 12
        for i, (a, b) in enumerate(fk):
            assert decode(ex.tokens.ids[a:b], vocab).startswith(
                f"FOREIGN KEY ( p{i}_id )")

    def test_link_serialized_sorted_dotted(self, example):
        obj = example_to_json(example)
        assert obj["link"] == ["singer.age", "singer.name"]

    def test_load_corpus_fraction(self, example, join_example, vocab,
                                  concert_schema, tmp_path):
        path = tmp_path / "c.jsonl"
        with open(path, "w") as f:
            for ex in (example, join_example):
                rec = example_to_json(ex)
                rec["db_id"] = "db-0"
                f.write(json.dumps(rec) + "\n")
        full = load_corpus(str(path), vocab, {"db-0": concert_schema})
        half = load_corpus(str(path), vocab, {"db-0": concert_schema}, fraction=0.5)
        assert len(full) == 2 and len(half) == 1
        assert half[0].example_id == "ex-0"

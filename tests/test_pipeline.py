import copy
import json
import re
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest

from joltsql import autodiff as ad
from joltsql import model, pipeline
from joltsql.errors import (DegenerateExample, EmptyPrediction, InvalidJson, InvalidSchema,
                            MalformedInput, MissingCacheEntry, NonFiniteLoss)
from joltsql.masks import build_joint_mask
from joltsql.model import ModelConfig, ModelParams, forward, greedy_generate, prompt_pass
from joltsql.pipeline import (PREFIX_TEMPLATE, TrainConfig,
                              assemble_segments, build_training_example,
                              capture_sampling_weights, encode_prompt,
                              full_schema_prompt, generate_sql, infer, infer_thresholds,
                              link_schema,
                              load_corpus, prepare_inference_example,
                              prune_prompt, train)
from joltsql.schema import (MARKER_TEXT, Column, SchemaDocument, SpanIndex, Table,
                            TableSpans, serialize_schema)
from joltsql.tokenizer import EOS, MARKER, build_vocab, decode
from test_corpus import example_record
from test_model import tape_forward, tape_spy

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


def written(ex, **change) -> dict:
    """`ex`'s record as the corpus writer writes it, with `change` applied."""
    return dict(example_record(ex), **change)


def flagged_ids(example, attend):
    """The prompt token ids a visibility vector flags, in prompt order."""
    return [example.tokens.ids[i] for i in np.flatnonzero(attend)]


def same_vector(got, want):
    """Boolean vectors of one length, equal entry for entry."""
    return got.dtype == want.dtype == bool and np.array_equal(got, want)


def tiny_model(vocab):
    return ModelConfig(vocab_size=len(vocab), dim=16, heads=2, layers=1, max_len=256)


def schema_walk_label(links, doc):
    """The label as a second walk of the schema built it: one entry per
    column, table by table in document order, lowercase. The reference the
    labels read off the marker columns must equal."""
    walk = [(t.name.lower(), c.name.lower()) for t in doc.tables for c in t.columns]
    normalized = {(t.lower(), c.lower()) for t, c in links}
    return [1 if col in normalized else 0 for col in walk]


class TestBuildExample:
    def test_links_and_labels(self, example, concert_schema):
        assert example.link == {("singer", "name"), ("singer", "age")}
        assert sum(example.label) == 2
        assert len(example.label) == sum(len(t.columns) for t in concert_schema.tables)

    @pytest.mark.parametrize("which", ["example", "join_example"])
    def test_label_follows_marker_order(self, request, which):
        ex = request.getfixturevalue(which)
        assert ex.label == [int((t, c) in ex.link) for t, c, _ in ex.seg.marker_columns]

    @pytest.mark.parametrize("corpus_seed", [3, 7])
    def test_label_equals_schema_walk_on_desk_corpora(self, desk_corpus, corpus_seed):
        """Labels read off the markers equal the walk of the schema's tables
        and columns they were once built from, on every desk example."""
        corpus = desk_corpus(corpus_seed)
        for ex in corpus.train + corpus.dev:
            assert ex.label == schema_walk_label(ex.link, ex.schema_doc)

    def test_query_ends_with_eos(self, example):
        last = max(example.seg.query)
        assert example.tokens.ids[last] == EOS
        seg = example.seg
        assert [*seg.prefix, *seg.schema, *seg.query] == list(range(seg.n))
        assert seg.markers <= set(seg.schema)

    def test_degenerate_rejected(self, concert_schema, vocab):
        with pytest.raises(DegenerateExample):
            build_training_example("count singers", concert_schema,
                                   "SELECT count ( * ) FROM singer",
                                   vocab, "bad")

    def test_gold_sql_token_round_trip(self, example, vocab):
        qpos = sorted(example.seg.query)[:-1]  # drop EOS
        assert decode([example.tokens.ids[i] for i in qpos], vocab) == GOLD


def beyond_gold(example, attended: set[int]) -> set[int]:
    """The attended schema tokens the gold columns do not bring in."""
    return attended - example.seg.schema_tokens(example.link)


class TestAssembleSegments:
    def test_gt_includes_table_envelope(self, example):
        attended = assemble_segments(example, set())
        assert example.seg.table_envelope("singer") <= attended
        a, b = example.seg.column_token_range("singer", "name")
        assert set(range(a, b)) <= attended
        assert beyond_gold(example, attended) == set()

    def test_noisy_column_brings_foreign_table_structure(self, example):
        noisy = beyond_gold(example, assemble_segments(example, {("stadium", "capacity")}))
        a, b = example.seg.column_token_range("stadium", "capacity")
        assert set(range(a, b)) <= noisy
        assert example.seg.table_envelope("stadium") <= noisy

    def test_noisy_same_table_no_extra_envelope(self, example):
        noisy = beyond_gold(example, assemble_segments(example, {("singer", "country")}))
        a, b = example.seg.column_token_range("singer", "country")
        expected = set(range(a, b))
        assert noisy == expected

    def test_fresh_per_step(self, example):
        before = copy.deepcopy(example.seg)
        s1 = beyond_gold(example, assemble_segments(example, {("stadium", "city")}))
        s2 = beyond_gold(example, assemble_segments(example, set()))
        assert s2 == set()
        assert s1 != s2
        assert example.seg == before  # the layout is only read

    @pytest.mark.parametrize("which", ["example", "join_example"])
    def test_one_column_token_rule(self, request, which):
        """Training's attended schema and inference's pruned prompt come from
        one rule, checked against the table layout on random column sets."""
        ex = request.getfixturevalue(which)
        columns = [(t, c) for t, c, _ in ex.seg.marker_columns]
        n_ps = ex.seg.query_start
        query_row = min(ex.seg.query)
        rng = np.random.default_rng(11)
        for _ in range(50):
            k = int(rng.integers(1, len(columns) + 1))
            noisy = {columns[i] for i in rng.choice(len(columns), size=k, replace=False)}
            union = ex.link | noisy
            # reference: every element of a touched table except the
            # definitions of its columns outside the set
            expected = set()
            for table in {t for t, _ in union}:
                expected |= ex.seg.table_envelope(table)
                for c in ex.seg.table_elements[table].columns:
                    if (table, c) in union:
                        expected.update(range(*ex.seg.column_token_range(table, c)))
            assert ex.seg.schema_tokens(union) == expected
            attended = assemble_segments(ex, noisy)
            assert attended == expected
            visible = build_joint_mask(ex.seg, attended)[query_row, :n_ps]
            assert same_vector(prune_prompt(ex, union), visible)


class TestOneLayoutPerDatabase:
    @pytest.mark.parametrize("corpus_seed", [3, 7])
    def test_examples_read_the_shared_layout_at_schema_start(self, desk_corpus, monkeypatch,
                                                             corpus_seed):
        """Every train example, dev example and inference shell holds its
        database's one layout, built without mapping or indexing it again,
        and reads the absolute positions of a shifted copy of it."""
        generated, vocab, _, _ = desk_corpus(corpus_seed)
        layouts = {db: pipeline.tokenized_schema(doc).tables
                   for db, doc in generated.schemas.items()}

        def refused(*args, **kwargs):
            raise AssertionError("encode copied or re-indexed the layout")

        with monkeypatch.context() as patched:
            patched.setattr(TableSpans, "map", refused)
            patched.setattr(SpanIndex, "__init__", refused)
            examples = [ex for path in (generated.train_path, generated.dev_path)
                        for ex in load_corpus(path, vocab, generated.schemas)]
            shells = [prepare_inference_example(ex.question, ex.schema_doc, vocab)
                      for ex in examples[-100:]]
        assert all(ex.seg.table_elements is layouts[ex.db_id] for ex in examples)
        for ex in examples + shells:
            seg = ex.seg
            assert seg.table_elements is pipeline.tokenized_schema(ex.schema_doc).tables
            base = seg.schema_start
            shifted = {t: ts.map(lambda s: (base + s[0], base + s[1]))
                       for t, ts in seg.table_elements.items()}
            assert seg.marker_columns == [(t, c, lo) for t, ts in shifted.items()
                                          for c, (lo, _) in ts.markers.items()]
            for t, c, _ in seg.marker_columns:
                envelope = {i for a, b in shifted[t].envelope_spans() for i in range(a, b)}
                assert seg.column_token_range(t, c) == shifted[t].columns[c]
                assert seg.table_envelope(t) == envelope
                assert seg.schema_tokens({(t, c)}) == envelope | set(range(*shifted[t].columns[c]))


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

    def test_a_step_leaves_no_spent_graph_alive(self, example, join_example, vocab,
                                                monkeypatch):
        """At each `log_fn` callback backward has consumed the step's graph:
        the only op outputs alive are those `train` still names, and none
        holds a gradient, a closure or parents."""
        class Tracked(ad.Tensor):
            __slots__ = ("__weakref__",)
        made = []

        def tracked_op(data, parents, backward):
            if not any(p.requires_grad for p in parents):
                return ad.Tensor(data)
            out = Tracked(data, True, parents, backward)
            made.append(weakref.ref(out))
            return out

        def log_fn(stage, entry):
            named = sys._getframe(1).f_locals  # train's
            allowed = {id(named["out"].lm_logits), id(named["out"].marker_probs),
                       *(id(named[k]) for k in ("l_sl", "l_ntp", "loss"))}
            alive = [t for t in (ref() for ref in made) if t is not None]
            assert alive and {id(t) for t in alive} <= allowed, len(alive)
            for t in alive:
                assert t.grad is None and t._parents == () and t._backward is ad._released
            made.clear()
            steps.append(entry["step"])

        monkeypatch.setattr(ad, "_op", tracked_op)
        steps = []
        train([example, join_example], tiny_model(vocab),
              TrainConfig(epochs=2, learning_rate=1e-3, grad_accum=2, seed=9), log_fn=log_fn)
        assert steps == [0, 1, 2, 3]

    def test_non_finite_capture_weights_raise_non_finite_loss(self, example, join_example,
                                                              vocab):
        """A run that diverges in epoch 1 under confusion sampling stops at
        the first capture whose weights are not finite, naming the step and
        the example. Its overflows are expected, not errors."""
        with (np.errstate(over="ignore", invalid="ignore"),
              pytest.raises(NonFiniteLoss, match=r"step 1: example 'ex-\d'.*not finite")):
            train([example, join_example], tiny_model(vocab),
                  TrainConfig(epochs=1, learning_rate=1e30, grad_accum=1, seed=0))

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
        for bad in ({"epochs": 0}, {"grad_accum": 0}, {"learning_rate": 0.0},
                    {"learning_rate": float("nan")}, {"learning_rate": float("inf")},
                    {"max_grad_norm": -1.0}, {"max_grad_norm": 0.0}, {"weight_decay": -1.0},
                    {"weight_decay": float("inf")}, {"seed": -1}, {"seed": 1.5}):
            with pytest.raises(ValueError, match=next(iter(bad))):
                TrainConfig(**bad)
        for bad in ({"dim": -4}, {"dim": 0}, {"dtype": "float16"}, {"ffn_mult": 0},
                    {"layers": -1}, {"max_len": 0}):
            with pytest.raises(ValueError, match=next(iter(bad))):
                ModelConfig(vocab_size=10, **bad)


def full_sequence_capture(params, example):
    """The capture as it was: a forward of the whole sequence under the
    joint mask with an empty noisy set, read at non-GT markers."""
    attended = assemble_segments(example, set())
    out = forward(params, example.tokens.ids, build_joint_mask(example.seg, attended))
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

    def test_matches_full_sequence_capture(self, desk_corpus):
        """The prompt-only pass agrees with the capture's former forward of
        the whole sequence to rounding: marker rows never see query rows."""
        _, vocab, train_set, _ = desk_corpus()
        params = train(train_set[:20], ModelConfig(vocab_size=len(vocab), dim=32, heads=4,
                                                   layers=2),
                       TrainConfig(epochs=1, learning_rate=3e-3, grad_accum=1)).params
        for ex in train_set[:20]:
            got = capture_sampling_weights(params, ex)
            want = full_sequence_capture(params, ex)
            assert len(got) == len(want) == len(ex.non_gt_columns())
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)

    def test_filled_cache_rejected_before_any_step(self, example, join_example, vocab):
        """Epoch 1 captures every example's weights itself, so a cache that
        already holds an entry, even one that fits, is refused."""
        from joltsql.sampling import WeightCache
        cache = WeightCache()
        cache.record(join_example.example_id, [0.5] * len(join_example.non_gt_columns()))
        steps = []
        with pytest.raises(ValueError, match="filled"):
            train([example, join_example], tiny_model(vocab),
                  TrainConfig(epochs=1, grad_accum=1), cache=cache,
                  log_fn=lambda stage, entry: steps.append(entry))
        assert steps == []

    def test_missing_cache_lookup_raises(self, example, vocab):
        from joltsql.sampling import WeightCache
        with pytest.raises(MissingCacheEntry):
            WeightCache().lookup(example.example_id)


@pytest.fixture(scope="module")
def desk_examples(desk_corpus):
    """One dev example per database of the desk corpus, and its vocab."""
    _, vocab, _, dev = desk_corpus()
    examples = list({ex.db_id: ex for ex in dev[:20]}.values())
    assert max(ex.seg.query_start for ex in examples) >= 224
    return examples, vocab


def lively_desk_params(vocab, dtype):
    """Desk-width params with weights that make attention pick rows."""
    params = ModelParams(ModelConfig(vocab_size=len(vocab), dim=80, heads=4, layers=2,
                                     dtype=dtype), seed=0)
    rng = np.random.default_rng(0)
    for p in params.all_params():
        p.data = (p.data + rng.normal(0, 0.2, p.data.shape)).astype(p.data.dtype)
    return params


def prompt_mask(ex):
    return build_joint_mask(replace(ex.seg, n=ex.seg.query_start), set())


class TestRowGather:
    """`prompt_pass(..., rows=R)` runs the last layer on R alone: in float64
    its rows equal the full pass's rows R to 1e-12 (relative), and its K/V
    are the full pass's, byte for byte. The full pass is the tape
    reference's (`tape_forward`), byte for byte."""

    @staticmethod
    def close(got, want):
        return np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_gathered_rows_match_the_full_forward(self, desk_examples):
        examples, vocab = desk_examples
        params = lively_desk_params(vocab, "float64")
        for ex in examples:
            n = ex.seg.query_start
            rows = ex.marker_positions + [n - 1]
            full = prompt_pass(params, ex.tokens.ids[:n], prompt_mask(ex))
            got = prompt_pass(params, ex.tokens.ids[:n], prompt_mask(ex), rows=rows)
            for name in ("lm_logits", "marker_probs"):
                assert getattr(got, name).shape[0] == len(rows)
                assert self.close(getattr(got, name), getattr(full, name)[rows]), name
            assert got.kv.tobytes() == full.kv.tobytes()
            encoded = encode_prompt(params, ex)
            assert encoded.lm_logits.tobytes() == got.lm_logits.tobytes()
            assert encoded.kv.tobytes() == got.kv.tobytes()
            scores = [s for _, _, s in link_schema(params, ex)]
            assert self.close(np.array(scores), full.marker_probs[ex.marker_positions, 0])

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_full_pass_byte_equal_to_the_tape_forward(self, desk_examples, dtype):
        """Over every prompt row, the array pass gives the tape forward's
        K/V (the outputs of its K and V projections), LM logits and marker
        probabilities, byte for byte; the tape forward is the layer as
        separate tape ops (`tape_forward`)."""
        examples, vocab = desk_examples
        params = lively_desk_params(vocab, dtype)
        for ex in examples[:3]:
            ids, visible = ex.tokens.ids[:ex.seg.query_start], prompt_mask(ex)
            tape, kv = tape_forward(params, ids, visible)
            got = prompt_pass(params, ids, visible)
            assert got.kv.tobytes() == kv.tobytes()
            assert got.lm_logits.tobytes() == tape.lm_logits.data.tobytes()
            assert got.marker_probs.tobytes() == tape.marker_probs.data.tobytes()


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
        assert len(attend) == example.seg.query_start
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
        assert len(attend) == example.seg.query_start
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

    @pytest.mark.parametrize("which", ["example", "join_example"])
    def test_inference_shell_prompt_is_the_training_prompt(self, request, concert_schema,
                                                           vocab, which):
        ex = request.getfixturevalue(which)
        shell = prepare_inference_example(ex.question, concert_schema, vocab)
        n_ps = ex.seg.query_start
        assert shell.tokens.ids == ex.tokens.ids[:n_ps]
        assert shell.seg.n == n_ps
        for region in ("prefix", "schema", "markers", "marker_columns", "table_elements"):
            assert getattr(shell.seg, region) == getattr(ex.seg, region)
        assert shell.label == [0] * len(ex.label)

    def test_inference_shell_has_empty_query(self, concert_schema, vocab):
        shell = prepare_inference_example("what is the name ?", concert_schema, vocab)
        assert not shell.seg.query
        assert shell.link == set()
        params = ModelParams(tiny_model(vocab), seed=0)
        result = infer(params, shell, vocab, max_new=4)
        assert isinstance(result.sql, str)


def joint_decode_mask(example, columns, n_query):
    """The joint mask over the example's prefix+schema followed by n_query
    query rows, with the given columns and their tables' structure as the
    attended schema: the set assemble_segments builds from gold links."""
    seg = replace(example.seg, n=example.seg.query_start + n_query)
    return build_joint_mask(seg, example.seg.schema_tokens(columns))


def uncached_joint_decode(params, example, columns, max_new, stop_id=EOS, logits=None):
    """Reference decoder: a full forward under build_joint_mask at every step.
    Appends each step's last-row logits to `logits` when given."""
    n_ps = example.seg.query_start
    ids = list(example.tokens.ids[:n_ps])
    for _ in range(max_new):
        if len(ids) >= params.config.max_len:
            break
        mask = joint_decode_mask(example, columns, len(ids) - n_ps)
        row = forward(params, ids, mask).lm_logits.data[-1]
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


class TestInferenceOffTape:
    def test_no_tape_op_runs_during_inference(self, example, vocab, monkeypatch):
        """No autodiff op runs and no Tensor is made by `infer_thresholds`
        (linking and a stacked decode, the fallback set included) or by
        `capture_sampling_weights`: inference computes on arrays alone."""
        params = seeded_model(vocab, seed=3)
        thresholds = [split_threshold(params, example), 0.999]
        made = tape_spy(monkeypatch)
        scored, results = infer_thresholds(params, example, vocab, thresholds, max_new=6)
        weights = capture_sampling_weights(params, example)
        assert made == []
        assert len(scored) == len(example.seg.marker_columns)
        assert [r.used_fallback for r in results] == [False, True]
        assert len(weights) == len(example.non_gt_columns())
        forward(params, example.tokens.ids, build_joint_mask(example.seg, set()))
        assert "op" in made and "tensor" in made  # the spies see the tape forward


class TestDecodeUnderTrainingMask:
    @pytest.mark.parametrize("case", ["predicted", "fallback"])
    def test_decode_rows_match_joint_mask(self, example, vocab, monkeypatch, case):
        params = seeded_model(vocab, seed=3)
        n_ps = example.seg.query_start
        threshold = split_threshold(params, example) if case == "predicted" else 0.999
        calls = []
        step = model.forward_values

        def spy(params, tokens, bias, past, rows=None):
            calls.append((tokens.size, np.isfinite(bias).reshape(tokens.size, -1), rows))
            return step(params, tokens, bias, past, rows)

        monkeypatch.setattr(model, "forward_values", spy)
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

        # one prompt pass gathering the rows inference reads, then one row
        # per decode step
        assert calls[0][0] == n_ps and calls[0][2] == example.marker_positions + [n_ps - 1]
        rows = calls[1:]
        assert len(rows) == 5
        assert all(n == 1 and gathered is None for n, _, gathered in rows)
        mask = joint_decode_mask(example, columns, len(rows))
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
        step = model.forward_values

        def spy(params, *args):
            hidden = step(params, *args)
            # the last row's logits: the prompt pass's last gathered row,
            # or the one row of a decode step's stack of one
            logits = hidden @ params.emb.data.T
            seen.append(logits.reshape(-1, params.config.vocab_size)[-1])
            return hidden

        monkeypatch.setattr(model, "forward_values", spy)
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
        n_ps = example.seg.query_start
        prompt = example.tokens.ids[:n_ps]
        sets = [{("singer", "name"), ("singer", "age")}, {("stadium", "city")}]
        rows = []
        step = model.forward_values

        def spy(params, *args):
            hidden = step(params, *args)
            rows.append((hidden @ params.emb.data.T).tobytes())
            return hidden

        def decode(params, encoded, columns):
            attend = prune_prompt(example, columns)
            rows.clear()
            [ids] = greedy_generate(params, prompt, 12, -1, encoded=encoded, attends=[attend])
            return ids, list(rows)

        monkeypatch.setattr(model, "forward_values", spy)
        for params in decoders:
            encoded = encode_prompt(params, example)
            before = encoded.kv.tobytes()
            shared = [decode(params, encoded, columns) for columns in sets + sets[:1]]
            assert encoded.kv.tobytes() == before
            fresh = [decode(params, encode_prompt(params, example), columns)
                     for columns in sets]
            assert shared == fresh + fresh[:1]
            assert len(fresh[0][1]) == 11 and fresh[0][1] != fresh[1][1]

    def test_generate_sql_decodes_a_list_of_sets_as_each_alone(self, example, vocab,
                                                               decoders):
        """One call over several sets, the empty one (the all-columns
        fallback) included, gives each set's single-set result."""
        sets = [{("singer", "name"), ("singer", "age")}, {("stadium", "city")}, set()]
        for params in decoders:
            encoded = encode_prompt(params, example)
            alone = [generate_sql(params, example, encoded, [columns], vocab, 12)[0]
                     for columns in sets]
            assert generate_sql(params, example, encoded, sets, vocab, 12) == alone
            assert all(isinstance(sql, str) for sql in alone)

    def test_first_token_and_limits_match_uncached(self, example, vocab, decoders):
        n_ps = example.seg.query_start
        prompt = example.tokens.ids[:n_ps]
        columns = {("singer", "name"), ("stadium", "city")}

        def cached(params, max_new, stop_id):
            [new] = greedy_generate(params, prompt, max_new, stop_id,
                                    encoded=encode_prompt(params, example),
                                    attends=[prune_prompt(example, columns)])
            return new

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
    def test_load_corpus_fraction(self, example, join_example, vocab,
                                  concert_schema, tmp_path):
        path = tmp_path / "c.jsonl"
        with open(path, "w") as f:
            for ex in (example, join_example):
                f.write(json.dumps(written(ex)) + "\n")
        full = load_corpus(str(path), vocab, {"db-0": concert_schema})
        half = load_corpus(str(path), vocab, {"db-0": concert_schema}, fraction=0.5)
        assert len(full) == 2 and len(half) == 1
        assert half[0].example_id == "ex-0"

    def test_load_corpus_builds_each_example_before_reading_the_next_record(
            self, example, join_example, vocab, concert_schema, tmp_path, monkeypatch):
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join(json.dumps(written(ex))
                                  for ex in (example, join_example, example)) + "\n")
        parsed, built = [], []
        loads, build = json.loads, pipeline.build_training_example
        monkeypatch.setattr(json, "loads", lambda text: parsed.append(text) or loads(text))
        monkeypatch.setattr(pipeline, "build_training_example",
                            lambda *args: built.append(len(parsed)) or build(*args))
        load_corpus(str(path), vocab, {"db-0": concert_schema})
        assert built == [1, 2, 3]

    def test_load_corpus_names_the_line_that_is_not_json(self, example, vocab,
                                                        concert_schema, tmp_path):
        good = json.dumps(written(example))
        path = tmp_path / "c.jsonl"
        path.write_text(f"{good}\n\n{good}\n{{\"a\": \n{good}\n")
        with pytest.raises(InvalidJson, match=f"^{re.escape(str(path))}, line 4: "):
            load_corpus(str(path), vocab, {"db-0": concert_schema})

    @pytest.mark.parametrize("change,named", [
        ({"db_id": "nope"}, "no schema for db_id 'nope'"),
        ({"db_id": None}, "missing key 'db_id'"),
        ({"question": None}, "missing key 'question'"),
        ({"gold_sql": None}, "missing key 'gold_sql'"),
        ({"example_id": None}, "missing key 'example_id'"),
    ], ids=["unknown-db", "no-db-id", "no-question", "no-gold-sql", "no-example-id"])
    def test_load_corpus_names_a_bad_record(self, example, vocab, concert_schema, tmp_path,
                                            change, named):
        good = written(example)
        bad = {k: v for k, v in dict(good, **change).items() if v is not None}
        path = tmp_path / "c.jsonl"
        path.write_text(f"{json.dumps(good)}\n\n{json.dumps(bad)}\n")
        with pytest.raises(MalformedInput) as e:
            load_corpus(str(path), vocab, {"db-0": concert_schema})
        assert str(e.value) == f"{path}, record 2: {named}"

    def test_load_corpus_leaves_a_schema_error_to_the_schema(self, example, vocab, tmp_path):
        """A schema SQLite cannot create fails every record over it; its
        error names the table, and no record key."""
        broken = SchemaDocument((Table("ok", (Column("a", "TEXT"),)), Table("empty", ())))
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(written(example, gold_sql="SELECT a FROM ok")) + "\n")
        with pytest.raises(InvalidSchema) as e:
            load_corpus(str(path), vocab, {"db-0": broken})
        assert str(e.value).startswith("table 'empty': ")

    def test_load_corpus_rejects_a_record_that_is_not_an_object(self, vocab, concert_schema,
                                                                tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(MalformedInput, match="record 1: expected an object"):
            load_corpus(str(path), vocab, {"db-0": concert_schema})

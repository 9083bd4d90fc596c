import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from joltsql.corpus import CorpusConfig, generate_corpus
from joltsql.errors import MalformedInput, SpanMisaligned
from joltsql.pipeline import PREFIX_TEMPLATE, tokenized_schema
from joltsql.schema import MARKER_TEXT, Column, SchemaDocument, Table, serialize_schema
from joltsql.tokenizer import (BOS, EOS, MARKER, PAD, UNK, Vocab,
                               _span_to_token_range, build_vocab, decode,
                               encode, split_words, tokenize_schema)

PREFIX = "translate the question to sql . question : what is the name ?"
QUERY = "SELECT name FROM singer"


def make_vocab(concert_schema):
    text, _ = serialize_schema(concert_schema)
    return build_vocab([PREFIX, QUERY, text])


class TestSplitWords:
    def test_words_and_punctuation(self):
        toks = [t for t, _, _ in split_words("name, age > 30")]
        assert toks == ["name", ",", "age", ">", "30"]

    def test_marker_stays_whole(self):
        toks = [t for t, _, _ in split_words(f"id INTEGER {MARKER_TEXT}")]
        assert toks == ["id", "INTEGER", MARKER_TEXT]

    def test_offsets_recover_text(self):
        text = f"a b {MARKER_TEXT} c,d"
        for tok, a, b in split_words(text):
            assert text[a:b] == tok

    def test_underscore_is_word_char(self):
        assert [t for t, _, _ in split_words("stadium_id")] == ["stadium_id"]

    @given(st.text())
    def test_no_whitespace_in_tokens(self, text):
        for tok, _, _ in split_words(text):
            assert not any(ch.isspace() for ch in tok)


class TestVocab:
    def test_reserved_ids(self):
        v = build_vocab(["hello world"])
        assert (PAD, BOS, EOS, MARKER, UNK) == (0, 1, 2, 3, 4)
        assert v.lookup(MARKER_TEXT) == MARKER
        assert v.lookup("unseen_token_xyz") == UNK
        assert v.lookup("hello") >= 5

    def test_frequency_then_lexicographic(self):
        v = build_vocab(["b b a a c"])
        # a and b tie on frequency 2; a wins lexicographically; c follows
        assert v.lookup("a") == 5
        assert v.lookup("b") == 6
        assert v.lookup("c") == 7

    def test_marker_never_counted(self):
        v = build_vocab([f"{MARKER_TEXT} {MARKER_TEXT} x"])
        assert v.lookup("x") == 5

    def test_save_load_round_trip(self, tmp_path):
        v = build_vocab(["alpha beta gamma"])
        p = tmp_path / "vocab.json"
        v.save(str(p))
        w = Vocab.load(str(p))
        assert w.token_to_id == v.token_to_id
        assert len(w) == len(v)

    @pytest.mark.parametrize("change,named", [
        ({"alpha": 1_000_000_000}, "each used once"),   # a gap
        ({"alpha": 6, "beta": 6}, "each used once"),    # a shared id
        ({"alpha": -1}, "each used once"),
        ({"<pad>": 5, "alpha": 0}, "'<pad>' must have its reserved id 0"),
        ({"<unk>": 6, "beta": 4}, "'<unk>' must have its reserved id 4"),
    ], ids=["gap", "shared", "negative", "pad-moved", "unk-moved"])
    def test_load_rejects_ids_no_built_vocab_has(self, tmp_path, change, named):
        p = tmp_path / "vocab.json"
        build_vocab(["alpha beta gamma"]).save(str(p))
        p.write_text(json.dumps({**json.loads(p.read_text()), **change}))
        with pytest.raises(MalformedInput, match=re.escape(f"{p}: ") + ".*" + re.escape(named)):
            Vocab.load(str(p))


class TestEncode:
    def test_partition_property(self, concert_schema):
        text, spans = serialize_schema(concert_schema)
        vocab = make_vocab(concert_schema)
        _, seg = encode(PREFIX, tokenize_schema(text, spans), QUERY, vocab)
        assert [*seg.prefix, *seg.schema, *seg.query] == list(range(seg.n))
        assert seg.markers <= set(seg.schema)

    def test_marker_positions_single_tokens(self, concert_schema):
        text, spans = serialize_schema(concert_schema)
        vocab = make_vocab(concert_schema)
        toks, seg = encode(PREFIX, tokenize_schema(text, spans), QUERY, vocab)
        n_cols = sum(len(t.columns) for t in concert_schema.tables)
        assert len(seg.marker_columns) == n_cols
        assert seg.markers == {pos for _, _, pos in seg.marker_columns}
        for _, _, pos in seg.marker_columns:
            assert toks.ids[pos] == MARKER

    def test_marker_literal_in_a_value_example_is_no_marker(self):
        schema = SchemaDocument((Table("t", (Column("a", "TEXT", (MARKER_TEXT,)),
                                             Column("b", "TEXT"))),))
        text, spans = serialize_schema(schema)
        vocab = build_vocab([PREFIX, QUERY, text])
        prefix = f"what is {MARKER_TEXT} here ?"
        toks, seg = encode(prefix, tokenize_schema(text, spans), QUERY, vocab)
        literal = {i for i, (tok, _, _) in enumerate(split_words(prefix + " " + text))
                   if tok == MARKER_TEXT}
        assert len(literal) == 4 and len(seg.marker_columns) == 2
        assert seg.markers == {pos for _, _, pos in seg.marker_columns} < literal
        # the question's literal and the value example's are unknown words
        assert [toks.ids[pos] for pos in sorted(literal - seg.markers)] == [UNK, UNK]
        assert [i for i, t in enumerate(toks.ids) if t == MARKER] == sorted(seg.markers)

    def test_column_range_contains_marker(self, concert_schema):
        text, spans = serialize_schema(concert_schema)
        vocab = make_vocab(concert_schema)
        _, seg = encode(PREFIX, tokenize_schema(text, spans), QUERY, vocab)
        for t, c, pos in seg.marker_columns:
            lo, hi = seg.column_token_range(t, c)
            assert lo <= pos < hi
            assert pos == hi - 1  # marker ends the column definition

    def test_table_envelope_disjoint_from_columns(self, concert_schema):
        text, spans = serialize_schema(concert_schema)
        vocab = make_vocab(concert_schema)
        _, seg = encode(PREFIX, tokenize_schema(text, spans), QUERY, vocab)
        for t, c, _ in seg.marker_columns:
            assert seg.table_envelope(t).isdisjoint(range(*seg.column_token_range(t, c)))

    def test_segments_ordered(self, concert_schema):
        text, spans = serialize_schema(concert_schema)
        vocab = make_vocab(concert_schema)
        _, seg = encode(PREFIX, tokenize_schema(text, spans), QUERY, vocab)
        assert max(seg.prefix) < min(seg.schema) < max(seg.schema) < min(seg.query)

    def test_misaligned_span_rejected(self, concert_schema):
        text, spans = serialize_schema(concert_schema)
        bad = _shift_header(spans, next(iter(spans.tables)))
        with pytest.raises(SpanMisaligned):
            tokenize_schema(text, bad)


def _reference_ids(prefix, schema, query, vocab):
    """`encode`'s ids by one `Vocab.lookup` per word, the marker literal
    unknown and the columns' markers the marker id."""
    words = [w for text in (prefix, schema.text, query) for w, _, _ in split_words(text)]
    ids = [UNK if w == MARKER_TEXT else vocab.lookup(w) for w in words]
    base = len(split_words(prefix))
    for ts in schema.tables.values():
        for lo, _ in ts.markers.values():
            ids[base + lo] = MARKER
    return ids


class TestSchemaIds:
    def test_equal_per_word_lookup_on_every_desk_example(self, desk_corpus):
        desk = desk_corpus(3)
        for ex in desk.train + desk.dev:
            want = _reference_ids(PREFIX_TEMPLATE.format(question=ex.question),
                                  tokenized_schema(ex.schema_doc), ex.gold_sql, desk.vocab)
            assert ex.tokens.ids == want + [EOS], ex.example_id

    def test_equal_per_word_lookup_with_marker_literal_and_unknown_words(self):
        schema_doc = SchemaDocument((Table("t", (Column("a", "TEXT", (MARKER_TEXT, "x")),
                                                 Column("b", "TEXT"))),))
        schema = tokenize_schema(*serialize_schema(schema_doc))
        vocab = build_vocab([PREFIX, QUERY, schema.text])
        for prefix, query in [(f"what is {MARKER_TEXT} zzyzx ?", "SELECT qqq FROM t"),
                              (PREFIX, f"SELECT {MARKER_TEXT} , a FROM t")]:
            tokens, _ = encode(prefix, schema, query, vocab)
            assert tokens.ids == _reference_ids(prefix, schema, query, vocab)
            assert UNK in tokens.ids

    def test_lookup_sees_only_prefix_and_query_words(self, concert_schema, monkeypatch):
        schema = tokenize_schema(*serialize_schema(concert_schema))
        vocab = make_vocab(concert_schema)
        seen = []
        lookup = Vocab.lookup
        monkeypatch.setattr(Vocab, "lookup", lambda self, w: seen.append(w) or lookup(self, w))
        for _ in range(2):
            seen.clear()
            tokens, _ = encode(PREFIX, schema, QUERY, vocab)
            assert seen == [w for text in (PREFIX, QUERY) for w, _, _ in split_words(text)]
        assert tokens.ids == _reference_ids(PREFIX, schema, QUERY, vocab)

    def test_memo_is_keyed_on_the_words(self, concert_schema):
        """Equal word tuples share one id tuple, whichever tokenization
        they came from; each vocab keeps its own."""
        first = tokenize_schema(*serialize_schema(concert_schema))
        second = tokenize_schema(*serialize_schema(concert_schema))
        vocab = make_vocab(concert_schema)
        assert first.words is not second.words
        assert vocab.schema_ids(first.words) is vocab.schema_ids(second.words)
        other = build_vocab([QUERY])
        assert other.schema_ids(first.words) != vocab.schema_ids(first.words)


def _shift_header(spans, table_name):
    """Copy of the span index with one header span nudged to split a token."""
    import copy
    import dataclasses
    out = copy.deepcopy(spans)
    ts = out.tables[table_name]
    out.tables[table_name] = dataclasses.replace(
        ts, header=(ts.header[0] + 2, ts.header[1] + 2))
    return out


def _scan_token_range(span, offsets):
    """The linear scan over every token that `_span_to_token_range`
    replaced, kept as its slow reference."""
    lo, hi = span
    first = last = None
    for i, (a, b) in enumerate(offsets):
        if b <= lo or a >= hi:
            continue
        if a < lo or b > hi:
            raise SpanMisaligned(f"char span {span} splits token at {(a, b)}")
        if first is None:
            first = i
        last = i
    if first is None:
        raise SpanMisaligned(f"char span {span} covers no tokens")
    return (first, last + 1)


def _outcome(fn, *args):
    """A range, or the SpanMisaligned message, so results and errors compare."""
    try:
        return fn(*args)
    except SpanMisaligned as e:
        return f"SpanMisaligned: {e}"


def _both(spans, text):
    """(bisection outcome, scan outcome) per span over the tokens of `text`."""
    offsets = [(a, b) for _, a, b in split_words(text)]
    starts, ends = [a for a, _ in offsets], [b for _, b in offsets]
    return [(_outcome(_span_to_token_range, span, starts, ends),
             _outcome(_scan_token_range, span, offsets)) for span in spans]


@pytest.fixture(scope="module")
def desk_schemas(desk_corpus, tmp_path_factory):
    """The desk corpus schemas for seeds 3, 7 and 11. Schemas and their
    value examples are drawn before any question, so one example per
    database gives seed 11 the same schemas as its full corpus."""
    schemas = {seed: desk_corpus(seed).generated.schemas for seed in (3, 7)}
    schemas[11] = generate_corpus(CorpusConfig(seed=11, examples_per_db=1),
                                  str(tmp_path_factory.mktemp("seed11"))).schemas
    return {f"seed{seed}/{db}": doc for seed, docs in schemas.items() for db, doc in docs.items()}


class TestSpanToTokenRange:
    def test_matches_scan_on_every_layout_span(self, concert_schema, desk_schemas):
        docs = {"concert": concert_schema, **desk_schemas}
        assert len(docs) == 13
        for doc in docs.values():
            text, spans = serialize_schema(doc)
            layout = [span for ts in spans.tables.values()
                      for span in (ts.envelope_spans() + list(ts.columns.values())
                                   + list(ts.markers.values()))]
            for span, (got, want) in zip(layout, _both(layout, text)):
                assert got == want and isinstance(got, tuple), span

    def test_matches_scan_on_every_span_of_a_table(self, concert_schema):
        text, spans = serialize_schema(concert_schema)
        text = text[:spans.tables["singer"].footer[1]]
        every = [(lo, hi) for lo in range(len(text) + 1)
                 for hi in range(lo, len(text) + 1)]
        for span, (got, want) in zip(every, _both(every, text)):
            assert got == want, span

    @pytest.mark.parametrize("span", [(1, 12), (0, 9), (6, 7), (7, 7), (2, 2)],
                             ids=["start-inside-token", "end-inside-token",
                                  "between-tokens", "empty", "empty-inside-token"])
    def test_misaligned_raises_like_scan(self, span):
        [(got, want)] = _both([span], "CREATE TABLE singer (")
        assert got == want
        assert got.startswith("SpanMisaligned")


class TestDecode:
    def test_round_trip_query(self, concert_schema):
        vocab = make_vocab(concert_schema)
        ids = [vocab.lookup(t) for t, _, _ in split_words(QUERY)]
        assert decode(ids, vocab) == QUERY

    def test_unknown_id_rendered(self, concert_schema):
        vocab = make_vocab(concert_schema)
        assert decode([UNK], vocab) == "<unk>"

    @given(words=st.lists(st.sampled_from(
        ["SELECT", "name", "FROM", "singer", ",", ".", "(", ")"]),
        min_size=1, max_size=20))
    def test_encode_decode_identity_on_known_tokens(self, concert_schema, words):
        vocab = make_vocab(concert_schema)
        text = " ".join(words)
        ids = [vocab.lookup(t) for t, _, _ in split_words(text)]
        assert decode(ids, vocab) == text

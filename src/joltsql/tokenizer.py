"""Word-level tokenizer with a reserved marker token and segment tracking.

Splits on whitespace; punctuation becomes single-character tokens; the
marker literal is always a single word, given the reserved marker id only
where a column's marker stands. Deterministic vocab: reserved ids first,
then corpus tokens by descending frequency, ties broken lexicographically.
A schema is split and its layout bisected once (`tokenize_schema`); an example
tokenizes only its prefix and query around it and reads that layout in place.
Its words' ids are looked up once per vocab (`Vocab.schema_ids`, keyed on the
words), so encoding an example looks up only its prefix and query words.
"""
from __future__ import annotations

import json
import re
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field

from .errors import InvalidSegmentation, MalformedInput, SpanMisaligned
from .jsonfile import read_json
from .schema import MARKER_TEXT, SpanIndex, TableSpans

PAD, BOS, EOS, MARKER, UNK = 0, 1, 2, 3, 4
_SPECIAL_TOKENS = {PAD: "<pad>", BOS: "<bos>", EOS: "<eos>", MARKER: MARKER_TEXT, UNK: "<unk>"}

_WORD_RE = re.compile(
    re.escape(MARKER_TEXT) + r"|[A-Za-z0-9_]+|[^\sA-Za-z0-9_]"
)


def split_words(text: str) -> list[tuple[str, int, int]]:
    """(token text, start, end) spans; the marker literal stays whole."""
    return [(m.group(), m.start(), m.end()) for m in _WORD_RE.finditer(text)]


@dataclass
class Vocab:
    token_to_id: dict[str, int]
    id_to_token: dict[int, str] = field(init=False)
    # a schema's words -> their ids, filled by `schema_ids`
    _schema_ids: dict[tuple[str, ...], tuple[int, ...]] = field(
        init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.id_to_token = {i: t for t, i in self.token_to_id.items()}
        for i, t in _SPECIAL_TOKENS.items():
            self.id_to_token.setdefault(i, t)

    def __len__(self) -> int:
        return max(self.id_to_token) + 1

    def lookup(self, token: str) -> int:
        return self.token_to_id.get(token, UNK)

    def schema_ids(self, words: tuple[str, ...]) -> tuple[int, ...]:
        """The ids of a schema's words, the marker literal unknown as
        `encode` gives it anywhere, looked up once per distinct `words`."""
        found = self._schema_ids.get(words)
        if found is None:
            get = self.token_to_id.get
            found = self._schema_ids[words] = tuple(
                UNK if w == MARKER_TEXT else get(w, UNK) for w in words)
        return found

    def save(self, path: str):
        with open(path, "w") as f:
            json.dump(self.token_to_id, f, indent=0, sort_keys=True)

    @staticmethod
    def load(path: str) -> "Vocab":
        """Raises MalformedInput unless the file holds an object of token ->
        integer id, as `build_vocab` makes one: the ids are 0..N-1, each
        used once, and the special tokens hold their reserved ids."""
        token_to_id = read_json(path)
        if not (isinstance(token_to_id, dict)
                and all(type(i) is int for i in token_to_id.values())):
            raise MalformedInput(f"{path}: expected an object of token -> integer id")
        if sorted(token_to_id.values()) != list(range(len(token_to_id))):
            raise MalformedInput(f"{path}: the ids must be 0..{len(token_to_id) - 1}, "
                                 "each used once")
        for i, t in _SPECIAL_TOKENS.items():
            if token_to_id.get(t) != i:
                raise MalformedInput(f"{path}: {t!r} must have its reserved id {i}")
        return Vocab(token_to_id)


def build_vocab(corpus: list[str]) -> Vocab:
    counts: Counter[str] = Counter()
    for text in corpus:
        counts.update(_WORD_RE.findall(text))
    del counts[MARKER_TEXT]  # the marker keeps only its reserved id
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    mapping = dict(_SPECIAL_TOKENS.items())
    token_to_id = {t: i for i, t in mapping.items()}
    next_id = max(mapping) + 1
    for tok, _ in ordered:
        token_to_id[tok] = next_id
        next_id += 1
    return Vocab(token_to_id)


@dataclass
class TokenSequence:
    ids: list[int]


@dataclass(frozen=True)
class SegmentMap:
    """An example's token layout over positions 0..n-1, cut at
    `schema_start` and `query_start` into the contiguous ranges `prefix`,
    `schema` and `query`, with its database's shared table layout read at
    `schema_start`. Frozen once built: the schema tokens a query row
    attends to are an argument of the mask, not part of the layout."""

    n: int
    schema_start: int
    query_start: int
    markers: set[int]  # within the schema
    # lowercase table -> the database's one layout (`SchemaTokens.tables`),
    # half-open token ranges counted from `schema_start`
    table_elements: dict[str, TableSpans]
    # column marker token position in serialization order: (table, column, pos)
    marker_columns: list[tuple[str, str, int]]

    def __post_init__(self):
        if not 0 <= self.schema_start <= self.query_start <= self.n:
            raise InvalidSegmentation(f"cut points out of order in 0..{self.n}")
        if self.markers and not (self.schema_start <= min(self.markers)
                                 and max(self.markers) < self.query_start):
            raise InvalidSegmentation("a marker lies outside the schema")

    @property
    def prefix(self) -> range:
        return range(self.schema_start)

    @property
    def schema(self) -> range:
        return range(self.schema_start, self.query_start)

    @property
    def query(self) -> range:
        return range(self.query_start, self.n)

    def column_token_range(self, table: str, column: str) -> tuple[int, int]:
        lo, hi = self.table_elements[table].columns[column]
        return self.schema_start + lo, self.schema_start + hi

    def table_envelope(self, table: str) -> set[int]:
        """Token positions of the table's header/pk/fk/footer structure."""
        out: set[int] = set()
        for a, b in self.table_elements[table].envelope_spans():
            out.update(range(self.schema_start + a, self.schema_start + b))
        return out

    def schema_tokens(self, columns) -> set[int]:
        """The schema tokens a set of (table, column) pairs brings in: each
        column's definition tokens plus its table's envelope. The one rule
        for gold links in training, noisy columns, and predicted columns at
        inference."""
        out: set[int] = set()
        for table, column in columns:
            out.update(range(*self.column_token_range(table, column)))
        for table in {t for t, _ in columns}:
            out |= self.table_envelope(table)
        return out


def _span_to_token_range(span: tuple[int, int], starts: list[int],
                         ends: list[int]) -> tuple[int, int]:
    """Minimal token range covering a char span; boundaries must not split
    tokens. `starts`/`ends` are the tokens' char offsets, both ascending
    since tokens neither overlap nor run backwards. The tokens meeting the
    span are those ending after its start and starting before its end, so
    two bisections find them and only the outer two can split."""
    lo, hi = span
    first = bisect_right(ends, lo)
    stop = bisect_left(starts, hi)
    if first >= stop:
        raise SpanMisaligned(f"char span {span} covers no tokens")
    for i in (first, stop - 1):
        if starts[i] < lo or ends[i] > hi:
            raise SpanMisaligned(f"char span {span} splits token at {(starts[i], ends[i])}")
    return (first, stop)


@dataclass(frozen=True)
class SchemaTokens:
    """A database's marked schema, shared and only read by every example
    over it: its text, its words (not ids, so any vocab serves), and each
    table's layout in positions from its first word."""

    text: str
    words: tuple[str, ...]
    tables: dict[str, TableSpans]

    @property
    def marker_columns(self) -> list[tuple[str, str, int]]:
        """(table, column, marker position from the first word), in marker order."""
        return [(t, c, lo) for t, ts in self.tables.items() for c, (lo, _) in ts.markers.items()]


def tokenize_schema(schema_text: str, spans: SpanIndex) -> SchemaTokens:
    """Split the schema text into words and map each table's layout to word
    positions. Raises SpanMisaligned when a span splits a word or covers
    none, or a column's marker span is not one word."""
    words = split_words(schema_text)
    starts, ends = [a for _, a, _ in words], [b for _, _, b in words]
    tables = {t: ts.map(lambda span: _span_to_token_range(span, starts, ends))
              for t, ts in spans.tables.items()}
    for tname, ts in tables.items():
        for cname, (lo, hi) in ts.markers.items():
            if hi - lo != 1:
                raise SpanMisaligned(f"marker for {tname}.{cname} spans {hi - lo} tokens")
    return SchemaTokens(schema_text, tuple(w for w, _, _ in words), tables)


def _word_ids(text: str, vocab: Vocab) -> list[int]:
    return [UNK if w == MARKER_TEXT else vocab.lookup(w) for w in _WORD_RE.findall(text)]


def encode(prefix: str, schema: SchemaTokens, query: str,
           vocab: Vocab) -> tuple[TokenSequence, SegmentMap]:
    """Tokenize the prefix and the query around the tokenized schema and
    cut where schema and query begin. The schema's layout is not copied:
    `SegmentMap.table_elements` is `schema.tables`, read at `schema_start`,
    and each column's marker position is its layout's marker plus
    `schema_start`. Only the columns' markers get the marker id; a marker
    literal anywhere else (in the question or a value example) is unknown.
    Only the prefix and query words are looked up; the schema's ids are
    `vocab.schema_ids(schema.words)`."""
    prefix_ids = _word_ids(prefix, vocab)
    base = len(prefix_ids)  # position of the first schema token
    ids = [*prefix_ids, *vocab.schema_ids(schema.words), *_word_ids(query, vocab)]
    marker_columns = [(t, c, base + lo) for t, c, lo in schema.marker_columns]
    for _, _, pos in marker_columns:
        ids[pos] = MARKER

    seg = SegmentMap(n=len(ids), schema_start=base, query_start=base + len(schema.words),
                     markers={pos for _, _, pos in marker_columns},
                     table_elements=schema.tables, marker_columns=marker_columns)
    return TokenSequence(ids), seg


def decode(ids: list[int], vocab: Vocab) -> str:
    """Whitespace-joined token texts; specials rendered literally."""
    return " ".join(vocab.id_to_token.get(i, "<unk>") for i in ids)

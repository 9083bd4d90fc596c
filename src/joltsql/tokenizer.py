"""Word-level tokenizer with a reserved marker token and segment tracking.

Splits on whitespace; punctuation becomes single-character tokens; the
marker literal is always a single reserved token. Deterministic vocab:
reserved ids first, then corpus tokens by descending frequency, ties
broken lexicographically.
"""
from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field

from .errors import SpanMisaligned
from .schema import MARKER_TEXT, SpanIndex

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

    def __post_init__(self):
        self.id_to_token = {i: t for t, i in self.token_to_id.items()}
        for i, t in _SPECIAL_TOKENS.items():
            self.id_to_token.setdefault(i, t)

    def __len__(self) -> int:
        return max(self.id_to_token) + 1

    def lookup(self, token: str) -> int:
        if token == MARKER_TEXT:
            return MARKER
        return self.token_to_id.get(token, UNK)

    def save(self, path: str):
        with open(path, "w") as f:
            json.dump(self.token_to_id, f, indent=0, sort_keys=True)

    @staticmethod
    def load(path: str) -> "Vocab":
        with open(path) as f:
            return Vocab(json.load(f))


def build_vocab(corpus: list[str]) -> Vocab:
    counts: Counter[str] = Counter()
    for text in corpus:
        for tok, _, _ in split_words(text):
            if tok != MARKER_TEXT:
                counts[tok] += 1
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
    char_offsets: list[tuple[int, int]]  # spans into the per-part source text

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class SegmentMap:
    """Per-token region membership over positions 0..n-1."""

    n: int
    prefix: set[int]
    schema: set[int]
    query: set[int]
    markers: set[int]  # subset of schema
    # lowercase table -> element name -> token range (half-open);
    # elements: header, pk, footer, fk:<i>, col:<column>
    table_elements: dict[str, dict[str, tuple[int, int]]]
    # column marker token position in serialization order: (table, column, pos)
    marker_columns: list[tuple[str, str, int]]
    gt_schema: set[int] = field(default_factory=set)
    noisy_schema: set[int] = field(default_factory=set)

    def validate_partition(self) -> bool:
        full = set(range(self.n))
        return (
            self.prefix | self.schema | self.query == full
            and not (self.prefix & self.schema)
            and not (self.prefix & self.query)
            and not (self.schema & self.query)
            and self.markers <= self.schema
        )

    def column_token_range(self, table: str, column: str) -> tuple[int, int]:
        return self.table_elements[table][f"col:{column}"]

    def table_envelope(self, table: str) -> set[int]:
        """Token positions of the table's header/pk/fk/footer structure."""
        out: set[int] = set()
        for key, (a, b) in self.table_elements[table].items():
            if not key.startswith("col:"):
                out.update(range(a, b))
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


def _span_to_token_range(span: tuple[int, int], offsets: list[tuple[int, int]]) -> tuple[int, int]:
    """Minimal token range covering a char span; boundaries must not split tokens."""
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


def encode(
    prefix: str,
    schema_text: str,
    spans: SpanIndex,
    query: str,
    vocab: Vocab,
) -> tuple[TokenSequence, SegmentMap]:
    """Tokenize the three input parts and map schema spans to token ranges."""
    ids: list[int] = []
    offsets: list[tuple[int, int]] = []
    regions: dict[str, set[int]] = {"prefix": set(), "schema": set(), "query": set()}
    markers: set[int] = set()

    schema_token_offsets: list[tuple[int, int]] = []  # into schema_text
    schema_token_positions: list[int] = []

    for region, text in (("prefix", prefix), ("schema", schema_text), ("query", query)):
        for tok, a, b in split_words(text):
            pos = len(ids)
            ids.append(vocab.lookup(tok))
            offsets.append((a, b))
            regions[region].add(pos)
            if region == "schema":
                schema_token_offsets.append((a, b))
                schema_token_positions.append(pos)
                if tok == MARKER_TEXT:
                    markers.add(pos)

    base = schema_token_positions[0] if schema_token_positions else 0

    table_elements: dict[str, dict[str, tuple[int, int]]] = {}
    marker_columns: list[tuple[str, str, int]] = []
    for tname, ts in spans.tables.items():
        elems: dict[str, tuple[int, int]] = {}
        elems["header"] = _shift(_span_to_token_range(ts.header, schema_token_offsets), base)
        elems["pk"] = _shift(_span_to_token_range(ts.pk, schema_token_offsets), base)
        for i, fk in enumerate(ts.fk):
            elems[f"fk:{i}"] = _shift(_span_to_token_range(fk, schema_token_offsets), base)
        elems["footer"] = _shift(_span_to_token_range(ts.footer, schema_token_offsets), base)
        for cname, cspan in ts.columns.items():
            elems[f"col:{cname}"] = _shift(_span_to_token_range(cspan, schema_token_offsets), base)
        table_elements[tname] = elems
        for cname, mspan in ts.markers.items():
            lo, hi = _shift(_span_to_token_range(mspan, schema_token_offsets), base)
            if hi - lo != 1:
                raise SpanMisaligned(f"marker for {tname}.{cname} spans {hi - lo} tokens")
            marker_columns.append((tname, cname, lo))

    seg = SegmentMap(
        n=len(ids),
        prefix=regions["prefix"],
        schema=regions["schema"],
        query=regions["query"],
        markers=markers,
        table_elements=table_elements,
        marker_columns=marker_columns,
    )
    return TokenSequence(ids, offsets), seg


def _shift(rng: tuple[int, int], base: int) -> tuple[int, int]:
    return (rng[0] + base, rng[1] + base)


def decode(ids: list[int], vocab: Vocab) -> str:
    """Whitespace-joined token texts; specials rendered literally."""
    return " ".join(vocab.id_to_token.get(i, "<unk>") for i in ids)
